//! Types every workload shares: the run configuration, the printed
//! report, the engine-counter tally that checks outcome accounting,
//! and latency samples split by how each request was answered.

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::Instant;

use wave_serve::engine::Counters;

use crate::host::{self, SpeedProbe};
use crate::pipeline::Class;
use crate::stats::{highest_supported, median, percentile, quiet_quantile};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 9;

/// One workload run, as the command line asked for it.
pub struct Config {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// 1/20-size run: one set-up and a short window.
    pub smoke: bool,
    /// Per-process directory for journals; removed when the run ends.
    pub scratch: PathBuf,
    /// Where the traced run writes its spans.
    pub trace_file: PathBuf,
    /// When the process started: the first set-up is timed from here.
    pub start: Instant,
}

impl Config {
    pub fn setups(&self) -> usize {
        if self.smoke {
            1
        } else {
            SETUPS
        }
    }

    /// A fresh subdirectory of the scratch directory.
    pub fn dir(&self, tag: &str) -> PathBuf {
        let dir = self.scratch.join(tag);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create a scratch directory in the checkout");
        dir
    }
}

/// One named value of the printed report.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The end-to-end metrics of an untraced run, every time and rate put at
/// the reference host speed: `setups` in seconds, `latencies` (the
/// window's, in send order) and `hits` (the cache hits', in send order)
/// in microseconds, `throughput` as measured.
pub fn end_to_end(
    speed: &SpeedProbe,
    setups: &[f64],
    latencies: &[f64],
    hits: &[f64],
    throughput: f64,
    rss_mb: f64,
) -> Vec<Metric> {
    speed.describe();
    let slow = speed.slowdown();
    vec![
        metric("setup_s", median(setups) / slow, "s"),
        metric(
            "latency_p50_us",
            quiet_quantile(latencies, 0.5) / slow,
            "us",
        ),
        metric(
            "latency_p90_us",
            quiet_quantile(latencies, 0.9) / slow,
            "us",
        ),
        metric("hit_p50_us", quiet_quantile(hits, 0.5) / slow, "us"),
        metric("throughput_per_s", throughput * slow, "1/s"),
        metric("peak_rss_mb", rss_mb, "MiB"),
    ]
}

/// What one run prints as its last line.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Violations found outside single requests (cross-checks,
    /// accounting, economy); any makes the run incorrect.
    pub violations: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Relative drift of the host calibration across the run.
    pub calib_drift: f64,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, v, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Engine counters summed over every engine a workload talked to.
///
/// Every submission an engine accepts lands in exactly one of these
/// classes, so `answered()` plus the client errors the engine never saw
/// must equal the requests sent. `cancelled` overlaps `cold` (a
/// cancelled search was a cold miss first); no workload sets a
/// deadline, so it must stay zero.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub hit: u64,
    pub tier: u64,
    pub coalesced: u64,
    pub cold: u64,
    pub cancelled: u64,
    pub dead_on_arrival: u64,
    pub refused: u64,
    pub quarantined: u64,
    pub replicated_applied: u64,
}

impl Tally {
    pub fn add(&mut self, c: &Counters) {
        let get = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
        self.hit += get(&c.cache_hits);
        self.tier += get(&c.incremental_hits);
        self.coalesced += get(&c.coalesced);
        self.cold += get(&c.cache_misses);
        self.cancelled += get(&c.cancelled);
        self.dead_on_arrival += get(&c.dead_on_arrival);
        self.refused += get(&c.admission_rejections) + get(&c.drain_rejections) + get(&c.load_shed);
        self.quarantined += get(&c.quarantined);
        self.replicated_applied += get(&c.replicated_applied);
    }

    pub fn answered(&self) -> u64 {
        self.hit
            + self.tier
            + self.coalesced
            + self.cold
            + self.dead_on_arrival
            + self.refused
            + self.quarantined
    }

    /// The accounting and economy checks: every request sent is
    /// accounted for, nothing was cancelled, and no fingerprint was
    /// searched twice (`cold <= distinct`).
    pub fn check(&self, sent: u64, unreached: u64, distinct: u64, out: &mut Vec<String>) {
        eprintln!(
            "  outcomes: hit {} + tier {} + coalesced {} + cold {} + dead_on_arrival {} + \
             refused {} + quarantined {} + unreached {} = {} of {sent} sent; cancelled {}",
            self.hit,
            self.tier,
            self.coalesced,
            self.cold,
            self.dead_on_arrival,
            self.refused,
            self.quarantined,
            unreached,
            self.answered() + unreached,
            self.cancelled
        );
        if self.answered() + unreached != sent {
            out.push(format!(
                "outcome accounting: engines account for {} of {sent} requests",
                self.answered() + unreached
            ));
        }
        if self.cancelled != 0 {
            out.push(format!(
                "{} requests cancelled with no deadline set",
                self.cancelled
            ));
        }
        if self.cold > distinct {
            out.push(format!(
                "economy: {} cold runs for {distinct} distinct inputs",
                self.cold
            ));
        }
    }
}

/// Latencies of the measured window, in microseconds, with the class
/// of each answer.
#[derive(Default)]
pub struct Samples {
    pub all: Vec<f64>,
    by_class: [Vec<f64>; 3],
    pub attempted: u64,
    pub failed: u64,
    /// Repeat submissions recorded with [`Samples::record_repeat`].
    pub repeats: u64,
    shown: usize,
}

impl Samples {
    /// Records one request; an error counts as failed and has no
    /// latency class.
    pub fn record(&mut self, latency_us: f64, checked: Result<Class, String>) {
        self.attempted += 1;
        self.all.push(latency_us);
        match checked {
            Ok(class) => self.by_class[class as usize].push(latency_us),
            Err(why) => self.fail(why),
        }
    }

    /// Records a repeat submission, which must have been a cache hit: a
    /// hit sample, kept out of `all` so the window's own latencies
    /// stay those of the workload's traffic.
    pub fn record_repeat(&mut self, latency_us: f64, checked: Result<(), String>) {
        self.attempted += 1;
        self.repeats += 1;
        match checked {
            Ok(()) => self.by_class[Class::Hit as usize].push(latency_us),
            Err(why) => self.fail(why),
        }
    }

    /// The cache-hit latencies, in the order they were taken.
    pub fn hits(&self) -> &[f64] {
        &self.by_class[Class::Hit as usize]
    }

    /// Counts a failed request that has no latency.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.shown < 5 {
            self.shown += 1;
            eprintln!("  FAILED: {why}");
        }
    }

    /// Adds another sender's samples.
    pub fn merge(&mut self, other: Samples) {
        self.all.extend(other.all);
        for (mine, theirs) in self.by_class.iter_mut().zip(other.by_class) {
            mine.extend(theirs);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.repeats += other.repeats;
    }

    /// Prints the sample count and, for all answers and for each
    /// answer class, every reportable percentile the count supports.
    pub fn describe(&self) {
        eprintln!("  samples: {}", self.all.len());
        for (name, v) in ["all", "hit", "tier", "cold"]
            .iter()
            .zip(std::iter::once(&self.all).chain(&self.by_class))
        {
            let mut s = v.clone();
            s.sort_by(f64::total_cmp);
            let top = highest_supported(s.len()).unwrap_or(0.5);
            let cols: Vec<String> = [0.5, 0.9, 0.99, 0.999]
                .into_iter()
                .filter(|q| *q <= top)
                .map(|q| format!("p{} {:.1} us", q * 100.0, percentile(&s, q)))
                .collect();
            if !s.is_empty() {
                eprintln!("  {name:>4}: n {:>6}  {}", s.len(), cols.join("  "));
            }
        }
    }
}

/// Host readings around a workload: a calibration spin before and
/// after, steal and load.
pub struct HostWatch {
    calib_before_ms: f64,
    jiffies: Option<(u64, u64)>,
}

impl HostWatch {
    pub fn start() -> HostWatch {
        HostWatch {
            calib_before_ms: host::calibration_ms(),
            jiffies: host::cpu_jiffies(),
        }
    }

    /// Prints the readings and returns them.
    pub fn finish(self) -> Calibration {
        let after = host::calibration_ms();
        let drift = host::drift(self.calib_before_ms, after);
        eprintln!(
            "  host: calibration {:.1} -> {:.1} ms (drift {:.1}%{}), steal {:.2}%, loadavg {:.2}",
            self.calib_before_ms,
            after,
            drift * 100.0,
            if drift > host::NOISY_DRIFT {
                ", NOISY"
            } else {
                ""
            },
            host::steal_pct(self.jiffies, host::cpu_jiffies()),
            host::loadavg()
        );
        Calibration {
            mean_ms: (self.calib_before_ms + after) / 2.0,
            drift,
        }
    }
}

/// The calibration spin around a workload.
pub struct Calibration {
    /// Mean of the readings before and after.
    pub mean_ms: f64,
    /// Their relative drift.
    pub drift: f64,
}

/// Prints every set-up time of a run; `setup_s` is their median.
pub fn describe_setups(setups: &[f64]) {
    let ms: Vec<String> = setups.iter().map(|s| format!("{:.1}", s * 1e3)).collect();
    eprintln!("  set-ups: {} ms", ms.join(", "));
}

/// The journal path a workload's engine persists to inside `dir`.
pub fn journal(dir: &Path) -> PathBuf {
    dir.join("engine.ndjson")
}
