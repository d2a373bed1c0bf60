//! Host readings that decide whether a run is trustworthy: a fixed CPU
//! calibration spin, the host's speed during the measured window,
//! hypervisor steal and load from `/proc`, and the process's peak
//! resident set.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats::median;

/// Times `iters` rounds of fixed integer work that touches no memory
/// and no code of the program, in milliseconds.
fn spin_ms(iters: u64) -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(black_box(i));
    }
    black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

/// The fastest of `n` spins, so one preemption does not read as a slow
/// host.
fn fastest_spin_ms(n: usize, iters: u64) -> f64 {
    (0..n).map(|_| spin_ms(iters)).fold(f64::INFINITY, f64::min)
}

/// Times a fixed amount of integer work, in milliseconds. On a quiet
/// host it reads the same before and after a workload; drift means the
/// machine changed under the run.
pub fn calibration_ms() -> f64 {
    fastest_spin_ms(5, 8_000_000)
}

/// Rounds of one speed-probe spin: a 64th of the calibration spin.
const PROBE_ITERS: u64 = 125_000;
/// What a speed probe reads on a quiet host of the kind the bounds were
/// calibrated on (a 2-vCPU KVM guest whose calibration spin reads
/// 18.5 ms), in milliseconds.
pub const REFERENCE_PROBE_MS: f64 = 18.5 / 64.0;
/// Time between speed probes during a window.
pub const PROBE_EVERY: Duration = Duration::from_millis(250);

/// The host's speed during a measured window, from short spins timed
/// every [`PROBE_EVERY`] while the window runs.
///
/// The guest the benchmark was calibrated on runs slower for minutes at
/// a time, under load from outside it that `/proc` does not show as
/// steal; whole runs then read 20–80% slower. The end-to-end times are
/// divided by [`SpeedProbe::slowdown`], which puts them at the
/// reference host speed: the spin runs no code of the program, so a
/// change to the program still moves them in full.
#[derive(Default)]
pub struct SpeedProbe {
    readings_ms: Vec<f64>,
}

impl SpeedProbe {
    /// Times one probe: the fastest of eight short spins, so a probe
    /// that shares the cores with a workload's threads still finds
    /// spins nothing interrupted.
    pub fn sample(&mut self) {
        self.readings_ms.push(fastest_spin_ms(8, PROBE_ITERS));
    }

    /// How many times slower than the reference the host ran: the
    /// median probe over [`REFERENCE_PROBE_MS`] (1 with no probe).
    pub fn slowdown(&self) -> f64 {
        if self.readings_ms.is_empty() {
            1.0
        } else {
            median(&self.readings_ms) / REFERENCE_PROBE_MS
        }
    }

    pub fn describe(&self) {
        eprintln!(
            "  host speed: {} probes, median {:.4} ms against {:.4} ms: \
             end-to-end times divided by {:.3}",
            self.readings_ms.len(),
            median(&self.readings_ms),
            REFERENCE_PROBE_MS,
            self.slowdown()
        );
    }
}

/// Calibration drift across a run above which the run is noisy.
pub const NOISY_DRIFT: f64 = 0.05;

/// Relative drift between two calibration readings.
pub fn drift(before_ms: f64, after_ms: f64) -> f64 {
    (after_ms - before_ms).abs() / before_ms.min(after_ms).max(1e-9)
}

/// Cumulative `(steal, total)` CPU jiffies from `/proc/stat`.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// Steal share, in percent, between two [`cpu_jiffies`] readings.
pub fn steal_pct(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            100.0 * s1.saturating_sub(s0) as f64 / (t1 - t0) as f64
        }
        _ => 0.0,
    }
}

/// The one-minute load average.
pub fn loadavg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// CPU time this process has used so far, all threads (including
/// exited ones), in seconds.
pub fn process_cpu_s() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, counted after the
    // parenthesized command name; Linux reports them in 1/100 s.
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            let rest = &s[s.rfind(')')? + 1..];
            let f: Vec<u64> = rest
                .split_whitespace()
                .skip(11)
                .take(2)
                .filter_map(|x| x.parse().ok())
                .collect();
            Some((f.first()? + f.get(1)?) as f64 / 100.0)
        })
        .unwrap_or(0.0)
}

/// This process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
