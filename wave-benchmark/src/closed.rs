//! The closed-loop runner shared by the three in-process workloads.
//!
//! One caller sends a request, waits for the answer, checks it, and
//! sends the next. Latency is timed from send. The window closes when
//! the time spent inside `Engine::submit_service` reaches the run
//! length, so building the next input (outside the clock) never
//! shortens the measured work, and throughput is requests per second
//! of that time.
//!
//! The traced run replays the same inputs with a span around every
//! real submit and the stage-by-stage re-enactment
//! ([`crate::pipeline`]) after it.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use wave_core::provenance::ServiceSources;
use wave_core::service::Service;
use wave_serve::codec::VerifyRequest;
use wave_serve::engine::{Engine, SubmitError, SubmitResult};

use crate::common::{describe_setups, end_to_end, Config, HostWatch, Report, Samples};
use crate::host::{self, SpeedProbe};
use crate::layers::{self, Extras};
use crate::pipeline::{Class, Counts, Shadow};
use crate::stats::{median, quiet_block};
use crate::trace::Tracer;
use crate::wire;

/// One request and what the workload needs to check its answer.
pub struct Job<T> {
    pub service: Service,
    pub sources: ServiceSources,
    pub req: VerifyRequest,
    pub tag: T,
}

pub trait ClosedLoop: Sized {
    /// What `check` needs to know about a request.
    type Tag;
    /// Timed requests after which `peak_rss_mb` is read. The engines
    /// keep state that grows with the requests served, so reading it
    /// at the window's end would charge a faster program for the extra
    /// work it fits in; this count is well below what every window
    /// reaches.
    const RSS_AT: usize;
    /// Every request goes to a fresh engine, so the traced
    /// re-enactment starts from empty state for each one as well.
    const FRESH_ENGINE: bool = false;
    /// Every n-th timed request is sent again right after its answer
    /// (0: never), so a workload whose traffic never repeats still
    /// measures the repeat submission: a cache hit that must replay the
    /// same bytes. Repeats are timed apart from the window's requests.
    const REPEAT_EVERY: usize = 0;

    /// Builds the inputs and the engine; journals go under `dir`.
    fn setup(cfg: &Config, dir: PathBuf) -> Self;
    /// How many requests at the head of the stream run before the
    /// clock starts (caches and lazy set-up warm up on them).
    fn warmup(&self) -> usize;
    /// The next request, built outside the clock.
    fn next(&mut self) -> Job<Self::Tag>;
    /// The engine the current request goes to.
    fn engine(&self) -> &Engine;
    /// The engine's journal, which the re-enactment mirrors.
    fn journal(&self) -> Option<PathBuf>;
    /// Checks one answer; `Err` counts the request as failed.
    fn check(
        &mut self,
        tag: &Self::Tag,
        res: &Result<SubmitResult, SubmitError>,
    ) -> Result<Class, String>;
    /// Checks after the clock stops: cross-checks against
    /// from-scratch verification, outcome accounting, economy.
    /// `repeats` requests were sent again beside those `next` built.
    fn finish(&mut self, repeats: u64) -> Vec<String>;
}

fn submit<W: ClosedLoop>(w: &W, job: Job<W::Tag>) -> (W::Tag, Result<SubmitResult, SubmitError>) {
    let res = w
        .engine()
        .submit_service(job.service, job.sources, &job.req);
    (job.tag, res)
}

/// Checks an answer outside the window, counting it as attempted and,
/// when wrong, failed.
fn counted<W: ClosedLoop>(
    samples: &mut Samples,
    w: &mut W,
    tag: &W::Tag,
    res: &Result<SubmitResult, SubmitError>,
) -> Result<Class, String> {
    samples.attempted += 1;
    let checked = w.check(tag, res);
    if let Err(why) = &checked {
        samples.fail(why.clone());
    }
    checked
}

/// Checks a repeat submission against the first answer to it.
fn check_repeat(
    first: &SubmitResult,
    res: &Result<SubmitResult, SubmitError>,
) -> Result<(), String> {
    match res {
        Ok(r) if r.cache_hit && r.outcome_bytes == first.outcome_bytes => Ok(()),
        Ok(_) => Err("a repeat was not a cache hit replaying the first answer".into()),
        Err(e) => Err(format!("repeat: {e}")),
    }
}

/// Set-up, warm-up and the untraced window.
pub fn measure<W: ClosedLoop>(cfg: &Config) -> Report {
    let watch = HostWatch::start();
    let mut samples = Samples::default();
    let mut setups = Vec::new();
    let mut state: Option<W> = None;
    for k in 0..cfg.setups() {
        drop(state.take());
        let t0 = if k == 0 { cfg.start } else { Instant::now() };
        let mut w = W::setup(cfg, cfg.dir(&format!("setup-{k}")));
        for _ in 0..w.warmup() {
            let job = w.next();
            let (tag, res) = submit(&w, job);
            let _ = counted(&mut samples, &mut w, &tag, &res);
        }
        setups.push(t0.elapsed().as_secs_f64());
        state = Some(w);
    }
    let mut w = state.expect("at least one set-up");
    let window = Duration::from_secs_f64(cfg.seconds);
    let mut busy = Duration::ZERO;
    let mut rss = None;
    let mut speed = SpeedProbe::default();
    let mut next_probe = Duration::ZERO;
    while busy < window {
        // Between requests, outside the clock.
        if busy >= next_probe {
            speed.sample();
            next_probe += host::PROBE_EVERY;
        }
        let job = w.next();
        let again = (W::REPEAT_EVERY > 0 && (samples.all.len() + 1) % W::REPEAT_EVERY == 0)
            .then(|| (job.service.clone(), job.sources.clone(), job.req.clone()));
        let t = Instant::now();
        let (tag, res) = submit(&w, job);
        let d = t.elapsed();
        busy += d;
        samples.record(d.as_secs_f64() * 1e6, w.check(&tag, &res));
        if let (Some((service, sources, req)), Ok(first)) = (again, &res) {
            let t = Instant::now();
            let repeat = w.engine().submit_service(service, sources, &req);
            let us = t.elapsed().as_secs_f64() * 1e6;
            samples.record_repeat(us, check_repeat(first, &repeat));
        }
        if samples.all.len() == W::RSS_AT {
            rss = Some(host::peak_rss_mb());
        }
    }
    let rss = rss.unwrap_or_else(host::peak_rss_mb);
    let violations = w.finish(samples.repeats);
    drop(w);
    let calib = watch.finish();
    describe_setups(&setups);
    samples.describe();
    // A block's samples are its engine time, so its throughput is
    // their count over their sum.
    let throughput = quiet_block(
        &samples.all,
        |b| 1e6 * b.len() as f64 / b.iter().sum::<f64>(),
        true,
    );
    Report {
        attempted: samples.attempted,
        failed: samples.failed,
        violations,
        metrics: end_to_end(
            &speed,
            &setups,
            &samples.all,
            samples.hits(),
            throughput,
            rss,
        ),
        calib_drift: calib.drift,
    }
}

/// The traced run. Two instances of the workload take the same seeded
/// requests in lockstep: one untraced, one with a span around each
/// real submit followed by the stage-by-stage re-enactment. Host noise
/// hits both alike, so their medians give the tracing overhead. The
/// run ends with the wire probe.
pub fn trace<W: ClosedLoop>(cfg: &Config) -> Report {
    let watch = HostWatch::start();
    let mut samples = Samples::default();
    let mut tr = Tracer::new();
    let mut counts = Counts::default();
    let mut plain = W::setup(cfg, cfg.dir("untraced"));
    let dir = cfg.dir("traced");
    let mut w = W::setup(cfg, dir.clone());
    let shadow_journal = w.journal().map(|_| dir.join("shadow.ndjson"));
    let mut shadow = Shadow::new(shadow_journal.as_deref());
    let window = Duration::from_secs_f64(cfg.seconds);
    let mut busy = Duration::ZERO;
    let (mut untraced, mut timed) = (Vec::new(), Vec::new());
    let mut mismatched = 0u64;
    let mut rid = 0u64;
    while (rid as usize) < w.warmup() || busy < window {
        let (job_plain, job) = (plain.next(), w.next());
        if W::FRESH_ENGINE {
            shadow = Shadow::new(None);
        }
        let (copy, sources, req) = (job.service.clone(), job.sources.clone(), job.req.clone());
        // Alternate which instance goes first, so neither gains from
        // the other having just warmed the same code.
        let t = Instant::now();
        let run_plain = || {
            let t = Instant::now();
            let r = submit(&plain, job_plain);
            (r, t.elapsed().as_secs_f64() * 1e6)
        };
        let (((tag_plain, res_plain), plain_us), (tag, res)) = if rid.is_multiple_of(2) {
            let p = run_plain();
            let span = tr.open("engine.submit", rid, 0);
            let r = submit(&w, job);
            tr.close(span);
            (p, r)
        } else {
            let span = tr.open("engine.submit", rid, 0);
            let r = submit(&w, job);
            tr.close(span);
            (run_plain(), r)
        };
        let replayed = shadow.submit(&mut tr, &mut counts, rid, copy, &sources, &req);
        if (rid as usize) >= w.warmup() {
            busy += t.elapsed();
            untraced.push(plain_us);
            timed.push(rid);
        }
        let _ = counted(&mut samples, &mut plain, &tag_plain, &res_plain);
        match (counted(&mut samples, &mut w, &tag, &res), replayed) {
            (Ok(real), Ok(re)) if real != re => mismatched += 1,
            (Ok(_), Err(why)) => samples.fail(format!("re-enactment failed: {why}")),
            _ => {}
        }
        rid += 1;
    }
    let journal_bytes = w
        .journal()
        .and_then(|p| std::fs::metadata(p).ok())
        .map_or(0.0, |m| m.len() as f64);
    let mut violations = plain.finish(0);
    violations.extend(w.finish(0));
    drop((plain, w, shadow));
    if mismatched > 0 {
        eprintln!("  warning: the re-enactment answered {mismatched} requests from another class than the engine");
    }

    let submit_us = tr.durations_us("engine.submit");
    let stage_us = tr.stage_sums_us("pipeline");
    let traced: Vec<f64> = timed.iter().map(|r| submit_us[r]).collect();
    let sums: Vec<f64> = timed
        .iter()
        .map(|r| stage_us.get(r).copied().unwrap_or(0.0))
        .collect();
    let (submit_med, sum_med, untraced_med) = (median(&traced), median(&sums), median(&untraced));
    eprintln!(
        "  stages: median stage self-time sum {:.1} us vs median engine.submit {:.1} us ({:+.1}%); \
         untraced median {:.1} us; {} requests",
        sum_med,
        submit_med,
        100.0 * (sum_med / submit_med - 1.0),
        untraced_med,
        timed.len()
    );

    let probe = wire::probe(cfg, &mut tr, rid);
    samples.attempted += probe.attempted;
    samples.failed += probe.failed;
    violations.extend(probe.violations);
    let calib = watch.finish();
    if let Err(e) = tr.write_ndjson(&cfg.trace_file) {
        eprintln!(
            "  warning: could not write {}: {e}",
            cfg.trace_file.display()
        );
    }
    let extras = Extras {
        journal_bytes,
        drill: probe.drill,
        calib_ms: calib.mean_ms,
        overhead_pct: 100.0 * (submit_med / untraced_med - 1.0),
    };
    Report {
        attempted: samples.attempted,
        failed: samples.failed,
        violations,
        metrics: layers::compute(&tr, &counts, &extras),
        calib_drift: calib.drift,
    }
}
