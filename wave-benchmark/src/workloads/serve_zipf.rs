//! `serve_zipf`: an open loop from two sender threads into a 2-node
//! fleet over loopback TCP, through `Router::submit`, with
//! Zipf(1.1)-popular formulas from the 120-formula `toggle` corpus and
//! no deadlines.
//!
//! Why: set-up warms every formula, so every timed request is a cache
//! hit on a tiny service and the time goes to the wire, TCP, the
//! router and the cache probe; the search costs nothing. This is the
//! workload a routing or serving change must hold flat.
//!
//! The window is a steady open loop at 500 requests per second,
//! latency timed from each request's due time. At 1000 per second, a
//! slow phase of the host (on the 2-vCPU virtual machine the bounds
//! were calibrated on, speed halved for minutes at a time) pushed
//! `Router::submit` past the 2 ms each sender has per request: the
//! backlog grew and the median from due time rose tenfold. At half the
//! rate a slow phase stays a slowdown instead of a queue. Throughput is
//! requests per CPU-second of the whole process — clients, router and
//! both nodes — over the window: the box's serving capacity per core. (A
//! saturation phase measured it directly but read from 3,100 to
//! 10,300/s across ten runs of one commit, and every request opens a
//! connection, so it also left the next run tens of thousands of
//! sockets in TIME_WAIT.)

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use wave_fleet::local::LocalFleet;
use wave_fleet::router::Router;
use wave_load::corpus::request;
use wave_rng::SplitMix64;
use wave_serve::codec::VerifyRequest;
use wave_serve::engine::{Engine, EngineOptions};

use crate::common::{describe_setups, end_to_end, Config, HostWatch, Report, Samples};
use crate::host::{self, SpeedProbe};
use crate::layers::{self, Extras};
use crate::pipeline::{Counts, Shadow};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::wire::{self, check_hit, shadow_wire, CORPUS};

/// Offered rate, requests per second.
const RATE: f64 = 500.0;
/// Load threads: the box has two cores.
const SENDERS: usize = 2;

struct Served {
    fleet: LocalFleet,
    formulas: Vec<String>,
    /// Each formula's outcome bytes from its cold run.
    texts: Vec<String>,
    cold_us: Vec<f64>,
}

fn setup(cfg: &Config, tag: &str, samples: &mut Samples, traced: Option<&Traced>) -> Served {
    let formulas = wire::formulas();
    let fleet = wire::launch(cfg.dir(tag));
    let (texts, cold_us) = wire::warm_up(fleet.router(), &formulas, samples, |rid, req| {
        if let Some(t) = traced {
            t.reenact(rid, req);
        }
    });
    Served {
        fleet,
        formulas,
        texts,
        cold_us,
    }
}

/// Popularity ranks of `n` requests, drawn from the seed.
fn ranks(seed: u64, n: usize) -> Vec<usize> {
    let zipf = wire::sampler();
    let mut rng = SplitMix64::seed_from_u64(seed);
    (0..n).map(|_| zipf.sample(&mut rng)).collect()
}

/// The traced run's state, shared by both senders.
struct Traced {
    inner: Mutex<(Tracer, Counts, Shadow)>,
    /// A stand-alone engine warmed like the fleet: the server-side
    /// calls (`handle_line`, `submit`) are re-enacted against it.
    engine: Engine,
}

impl Traced {
    /// Spans for the engine-side work of one request.
    fn reenact(&self, rid: u64, req: &VerifyRequest) {
        let mut g = self.inner.lock().expect("trace state poisoned");
        let (tr, counts, shadow) = &mut *g;
        let span = tr.open("engine.submit", rid, 0);
        let _ = self.engine.submit(req);
        tr.close(span);
        let _ = shadow.submit_named(tr, counts, rid, req);
    }

    /// Spans for one timed request: the real `Router::submit`, the wire
    /// layers, then the engine side.
    fn after(&self, rid: u64, req: &VerifyRequest, router: &Router, t0: Instant, t1: Instant) {
        {
            let mut g = self.inner.lock().expect("trace state poisoned");
            let tr = &mut g.0;
            tr.record("router.submit", rid, 0, t0, t1);
            shadow_wire(tr, rid, router, req, &self.engine);
        }
        self.reenact(rid, req);
    }
}

/// What the open loop measured.
#[derive(Default)]
struct Open {
    /// Latency from each request's due time.
    samples: Samples,
    /// How late the generator sent each request.
    late_us: Vec<f64>,
    /// `Router::submit` alone, from send to answer, of the requests the
    /// traced run leaves untraced (all of them in an untraced run).
    submit_us: Vec<f64>,
    /// The same, of the traced requests.
    traced_us: Vec<f64>,
}

fn open_loop(s: &Served, ranks: &[usize], traced: Option<&Traced>) -> Open {
    let cursor = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(5);
    let router = s.fleet.router();
    let mut all = Open::default();
    std::thread::scope(|scope| {
        let senders: Vec<_> = (0..SENDERS)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Open::default();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&rank) = ranks.get(i) else { break };
                        let due = start + Duration::from_secs_f64(i as f64 / RATE);
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        let req = request(&s.formulas[rank]);
                        let t0 = Instant::now();
                        let reply = router.submit(&req);
                        let t1 = Instant::now();
                        let us = |d: Duration| d.as_secs_f64() * 1e6;
                        out.late_us.push(us(t0.saturating_duration_since(due)));
                        // Every other request is traced: the untraced
                        // half, sent at the same moments, is the
                        // reference for the tracing overhead.
                        match traced {
                            Some(t) if i.is_multiple_of(2) => {
                                out.traced_us.push(us(t1 - t0));
                                t.after((CORPUS + i) as u64, &req, router, t0, t1);
                            }
                            _ => out.submit_us.push(us(t1 - t0)),
                        }
                        out.samples.record(
                            us(t1.saturating_duration_since(due)),
                            check_hit(&reply, &s.texts[rank]),
                        );
                    }
                    out
                })
            })
            .collect();
        for h in senders {
            let out = h.join().expect("sender thread panicked");
            all.samples.merge(out.samples);
            all.late_us.extend(out.late_us);
            all.submit_us.extend(out.submit_us);
            all.traced_us.extend(out.traced_us);
        }
    });
    all
}

/// Cross-checks, outcome accounting and economy over the fleet.
fn finish(s: &mut Served, sent: u64, drill: bool) -> (Vec<String>, layers::Drill, f64) {
    let mut violations = Vec::new();
    wire::cross_check(&s.formulas, &s.texts, &mut violations);
    let journal_bytes: usize = s.fleet.engines().iter().map(|e| e.journal_stats().0).sum();
    let failovers = s.fleet.router().counters.failovers.load(Ordering::Relaxed);
    let (drill, tally) = if drill {
        wire::drill(&mut s.fleet)
    } else {
        let mut tally = crate::common::Tally::default();
        for e in s.fleet.engines() {
            tally.add(&e.counters);
        }
        (layers::Drill::default(), tally)
    };
    tally.check(sent, 0, CORPUS as u64, &mut violations);
    let mut cold = s.cold_us.clone();
    cold.sort_by(f64::total_cmp);
    eprintln!(
        "  serve: cold warm-up p90 {:.1} us over {} formulas, router failovers {failovers}",
        percentile(&cold, 0.9),
        cold.len()
    );
    (violations, drill, journal_bytes as f64)
}

fn late_note(open: &Open) {
    let mut late = open.late_us.clone();
    late.sort_by(f64::total_cmp);
    let p99 = percentile(&late, 0.99);
    eprintln!(
        "  load generator: lateness p99 {p99:.1} us{}",
        if p99 > 2_000.0 {
            " (over 2 ms: the run is not valid)"
        } else {
            ""
        }
    );
}

pub fn measure(cfg: &Config) -> Report {
    let watch = HostWatch::start();
    let mut warm = Samples::default();
    let mut setups = Vec::new();
    let mut state = None;
    for k in 0..cfg.setups() {
        drop(state.take());
        let t0 = if k == 0 { cfg.start } else { Instant::now() };
        state = Some(setup(cfg, &format!("setup-{k}"), &mut warm, None));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut s = state.expect("at least one set-up");
    let cpu0 = host::process_cpu_s();
    let done = AtomicBool::new(false);
    let (open, speed) = std::thread::scope(|scope| {
        // The speed probe shares the two cores with the load; at 500
        // requests per second they are mostly idle, and the fastest of
        // three spins skips the ones a request interrupted.
        let probe = scope.spawn(|| {
            let mut speed = SpeedProbe::default();
            while !done.load(Ordering::Relaxed) {
                speed.sample();
                std::thread::sleep(host::PROBE_EVERY);
            }
            speed
        });
        let open = open_loop(&s, &ranks(cfg.seed, (cfg.seconds * RATE) as usize), None);
        done.store(true, Ordering::Relaxed);
        (open, probe.join().expect("speed probe panicked"))
    });
    let throughput = open.samples.attempted as f64 / (host::process_cpu_s() - cpu0);
    let sent = CORPUS as u64 + open.samples.attempted;
    let (violations, _, _) = finish(&mut s, sent, false);
    drop(s);
    let calib = watch.finish();
    describe_setups(&setups);
    late_note(&open);
    open.samples.describe();
    Report {
        attempted: warm.attempted + open.samples.attempted,
        failed: warm.failed + open.samples.failed,
        violations,
        // Samples are in each sender's send order, one sender after the
        // other, so every block is one sender's stretch of the window.
        // Every timed request is a hit: its latency without the time it
        // waited for its sender is the hit's service time.
        metrics: end_to_end(
            &speed,
            &setups,
            &open.samples.all,
            &open.submit_us,
            throughput,
            host::peak_rss_mb(),
        ),
        calib_drift: calib.drift,
    }
}

pub fn trace(cfg: &Config) -> Report {
    let watch = HostWatch::start();
    let mut samples = Samples::default();
    let dir = cfg.dir("shadow");
    let traced = Traced {
        inner: Mutex::new((
            Tracer::new(),
            Counts::default(),
            Shadow::new(Some(&dir.join("shadow.ndjson"))),
        )),
        engine: Engine::new(EngineOptions::default()),
    };
    let mut s = setup(cfg, "traced", &mut samples, Some(&traced));
    let open = open_loop(
        &s,
        &ranks(cfg.seed, (cfg.seconds * RATE) as usize),
        Some(&traced),
    );
    late_note(&open);
    let sent = CORPUS as u64 + open.samples.attempted;
    let overhead_pct = 100.0 * (median(&open.traced_us) / median(&open.submit_us) - 1.0);
    samples.merge(open.samples);
    let (violations, drill, journal_bytes) = finish(&mut s, sent, true);
    drop(s);
    let calib = watch.finish();

    let (tr, counts, shadow) = traced.inner.into_inner().expect("trace state poisoned");
    drop(shadow);
    if let Err(e) = tr.write_ndjson(&cfg.trace_file) {
        eprintln!(
            "  warning: could not write {}: {e}",
            cfg.trace_file.display()
        );
    }
    let extras = Extras {
        journal_bytes,
        drill,
        calib_ms: calib.mean_ms,
        overhead_pct,
    };
    Report {
        attempted: samples.attempted,
        failed: samples.failed,
        violations,
        metrics: layers::compute(&tr, &counts, &extras),
        calib_drift: calib.drift,
    }
}
