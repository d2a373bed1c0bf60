//! The open-loop campaign runner.
//!
//! **Open loop** means the schedule is fixed before the first request:
//! submission `i` is *due* at `i / rps` seconds after start, whether or
//! not earlier submissions have finished, and its latency is measured
//! from that due time — not from when a worker got around to sending
//! it. A slow fleet therefore shows up as growing queueing delay in the
//! tail percentiles instead of silently lowering the offered rate (the
//! coordinated-omission trap closed-loop harnesses fall into).
//!
//! The campaign boots its own in-process fleet ([`LocalFleet`]), draws
//! content popularity from a seeded Zipf over a distinct-fingerprint
//! corpus, gives a slice of submissions a deadline spread, and checks
//! the fleet-wide economy invariant at the end: cold verifications may
//! not exceed distinct fingerprints plus the runs that are legitimately
//! un-cacheable or re-routed (cancelled verdicts, failovers).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use wave_fleet::local::{FleetOptions, LocalFleet};
use wave_rng::{Rng, SplitMix64};

use crate::corpus::{corpus, request};
use crate::zipf::Zipf;

/// Campaign parameters.
#[derive(Clone, Debug)]
pub struct CampaignOptions {
    /// Fleet size.
    pub nodes: usize,
    /// Total submissions in the schedule.
    pub submissions: usize,
    /// Offered rate, submissions per second.
    pub rps: f64,
    /// Distinct fingerprints in the corpus.
    pub corpus_size: usize,
    /// Zipf popularity exponent (0 = uniform, ~1.1 = web-like).
    pub zipf_s: f64,
    /// Sender threads.
    pub workers: usize,
    /// Schedule seed (popularity draws and deadline spread).
    pub seed: u64,
    /// Fraction of submissions carrying a deadline.
    pub deadline_fraction: f64,
    /// Deadline spread, microseconds (inclusive low, exclusive high).
    pub deadline_us: (u64, u64),
    /// Retire one node halfway through the schedule (a mid-campaign
    /// death drill).
    pub retire_mid: bool,
    /// Churn drill: retire **and re-join** one node at the schedule
    /// midpoint, and report tail latency inside the churn window
    /// against steady state.
    pub churn: bool,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            nodes: 3,
            submissions: 6_000,
            rps: 600.0,
            corpus_size: 120,
            zipf_s: 1.1,
            workers: 24,
            seed: 0x10AD,
            deadline_fraction: 0.1,
            deadline_us: (20_000, 200_000),
            retire_mid: false,
            churn: false,
        }
    }
}

/// Tail latency through a kill + re-join window, next to steady state.
#[derive(Debug)]
pub struct ChurnReport {
    /// The node killed and re-joined.
    pub node: u32,
    /// Window start, microseconds after campaign start.
    pub window_start_us: u64,
    /// Window end (re-join complete), microseconds after start.
    pub window_end_us: u64,
    /// p99 latency of submissions due inside the window.
    pub p99_churn_us: u64,
    /// p99 latency of submissions due outside the window.
    pub p99_steady_us: u64,
    /// Submissions due inside the window.
    pub samples_churn: usize,
    /// Submissions due outside the window.
    pub samples_steady: usize,
}

/// What a campaign measured. Serialized as `BENCH_serve.json`.
#[derive(Debug)]
pub struct CampaignReport {
    /// Fleet size at launch.
    pub nodes: usize,
    /// Submissions sent.
    pub submissions: usize,
    /// Distinct fingerprints the schedule actually touched.
    pub distinct: usize,
    /// Corpus size offered to the Zipf sampler.
    pub corpus_size: usize,
    /// Zipf exponent.
    pub zipf_s: f64,
    /// Offered rate.
    pub rps_target: f64,
    /// Wall-clock seconds from first due time to last reply.
    pub wall_s: f64,
    /// Achieved throughput, replies per second.
    pub throughput_rps: f64,
    /// Latency percentiles from scheduled due time, microseconds.
    pub p50_us: u64,
    /// 99th percentile latency.
    pub p99_us: u64,
    /// 99.9th percentile latency.
    pub p999_us: u64,
    /// Worst latency.
    pub max_us: u64,
    /// Submissions that returned a client error (must be 0 in a
    /// fault-free campaign).
    pub errors: u64,
    /// Cold verifications, fleet-wide.
    pub cold_runs: u64,
    /// Cache hits, fleet-wide.
    pub cache_hits: u64,
    /// Submissions answered from the incremental verdict tier,
    /// fleet-wide.
    pub incremental_hits: u64,
    /// Submissions answered by joining an in-flight run, fleet-wide.
    pub coalesced: u64,
    /// Cancelled (deadline) answers, fleet-wide: cancelled cold runs and
    /// followers that left a coalesced run on their own deadline. A flag
    /// over `cold_runs` and `coalesced`, not an outcome of its own.
    pub cancelled: u64,
    /// The cancelled cold runs among `cancelled`, fleet-wide.
    pub cold_cancelled: u64,
    /// Submissions whose deadline expired before admission, fleet-wide.
    pub dead_on_arrival: u64,
    /// Submissions refused (inadmissible, draining or shed), fleet-wide.
    pub refused: u64,
    /// Replicated results installed, fleet-wide.
    pub replicated_applied: u64,
    /// Requests the router re-routed (dead or partitioned owner).
    pub failovers: u64,
    /// The economy invariant: `cold_runs <= distinct + cold_cancelled +
    /// failovers` — each distinct fingerprint verifies once, plus the
    /// legitimately un-cacheable or re-homed runs. A follower that left
    /// a coalesced run on its deadline ran nothing, so it buys no extra
    /// cold run.
    pub single_verification_ok: bool,
    /// The node retired mid-campaign, if the drill was on.
    pub retired_node: Option<u32>,
    /// The churn drill's window measurements, if the drill was on.
    pub churn: Option<ChurnReport>,
}

impl CampaignReport {
    /// The `BENCH_serve.json` encoding (one line, stable key order).
    pub fn encode(&self) -> String {
        format!(
            concat!(
                "{{\"bench\":\"serve\",\"nodes\":{},\"submissions\":{},",
                "\"distinct\":{},\"corpus_size\":{},\"zipf_s\":{:.2},",
                "\"rps_target\":{:.1},\"wall_s\":{:.3},\"throughput_rps\":{:.1},",
                "\"p50_us\":{},\"p99_us\":{},\"p999_us\":{},\"max_us\":{},",
                "\"errors\":{},\"cold_runs\":{},\"cache_hits\":{},",
                "\"incremental_hits\":{},\"coalesced\":{},\"cancelled\":{},",
                "\"cold_cancelled\":{},\"dead_on_arrival\":{},\"refused\":{},\"replicated_applied\":{},",
                "\"failovers\":{},\"single_verification_ok\":{},",
                "\"retired_node\":{},\"churn\":{}}}"
            ),
            self.nodes,
            self.submissions,
            self.distinct,
            self.corpus_size,
            self.zipf_s,
            self.rps_target,
            self.wall_s,
            self.throughput_rps,
            self.p50_us,
            self.p99_us,
            self.p999_us,
            self.max_us,
            self.errors,
            self.cold_runs,
            self.cache_hits,
            self.incremental_hits,
            self.coalesced,
            self.cancelled,
            self.cold_cancelled,
            self.dead_on_arrival,
            self.refused,
            self.replicated_applied,
            self.failovers,
            self.single_verification_ok,
            match self.retired_node {
                Some(id) => id.to_string(),
                None => "null".to_string(),
            },
            match &self.churn {
                Some(c) => format!(
                    concat!(
                        "{{\"node\":{},\"window_start_us\":{},\"window_end_us\":{},",
                        "\"p99_churn_us\":{},\"p99_steady_us\":{},",
                        "\"samples_churn\":{},\"samples_steady\":{}}}"
                    ),
                    c.node,
                    c.window_start_us,
                    c.window_end_us,
                    c.p99_churn_us,
                    c.p99_steady_us,
                    c.samples_churn,
                    c.samples_steady,
                ),
                None => "null".to_string(),
            },
        )
    }
}

/// One scheduled submission: due time, corpus rank, deadline.
struct Slot {
    offset_us: u64,
    rank: usize,
    deadline_us: u64,
}

/// The q-th percentile of a sorted latency vector.
/// The economy invariant: each distinct fingerprint verifies once, and
/// a cold run beyond that needs a cancelled cold run (nothing was
/// cached) or a failover (the run moved) to account for it.
fn economy_holds(cold_runs: u64, distinct: usize, cold_cancelled: u64, failovers: u64) -> bool {
    cold_runs <= distinct as u64 + cold_cancelled + failovers
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((q * sorted.len() as f64).ceil() as usize)
        .saturating_sub(1)
        .min(sorted.len() - 1);
    sorted[idx]
}

/// Runs one campaign to completion and reports.
pub fn run(opts: &CampaignOptions) -> CampaignReport {
    assert!(opts.submissions > 0 && opts.workers > 0 && opts.rps > 0.0);
    let formulas = Arc::new(corpus(opts.corpus_size));
    let mut fleet = LocalFleet::launch(
        opts.nodes,
        FleetOptions {
            ship_interval: Duration::from_millis(50),
            ..FleetOptions::default()
        },
    )
    .expect("launch campaign fleet");

    // The whole schedule is drawn up front from one seeded stream, so
    // a campaign is reproducible and the offered load is independent of
    // how fast the fleet answers.
    let mut rng = SplitMix64::seed_from_u64(opts.seed);
    let zipf = Zipf::new(opts.corpus_size, opts.zipf_s);
    let us_per_submission = 1_000_000.0 / opts.rps;
    let schedule: Arc<Vec<Slot>> = Arc::new(
        (0..opts.submissions)
            .map(|i| {
                let rank = zipf.sample(&mut rng);
                let dice = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                let deadline_us = if dice < opts.deadline_fraction {
                    let (lo, hi) = opts.deadline_us;
                    lo + rng.next_u64() % (hi - lo).max(1)
                } else {
                    0
                };
                Slot {
                    offset_us: (i as f64 * us_per_submission) as u64,
                    rank,
                    deadline_us,
                }
            })
            .collect(),
    );
    let distinct = {
        let mut ranks: Vec<usize> = schedule.iter().map(|s| s.rank).collect();
        ranks.sort_unstable();
        ranks.dedup();
        ranks.len()
    };

    let cursor = Arc::new(AtomicUsize::new(0));
    let start = Instant::now();
    let mut handles = Vec::new();
    for _ in 0..opts.workers {
        let schedule = Arc::clone(&schedule);
        let formulas = Arc::clone(&formulas);
        let cursor = Arc::clone(&cursor);
        let router = Arc::clone(fleet.router());
        handles.push(std::thread::spawn(move || {
            // Each sample keeps its scheduled due time so the churn
            // drill can slice tail latency by window afterwards.
            let mut samples: Vec<(u64, u64)> = Vec::new();
            let mut errors = 0u64;
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(slot) = schedule.get(i) else { break };
                let due = start + Duration::from_micros(slot.offset_us);
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                }
                let mut req = request(&formulas[slot.rank]);
                req.deadline_us = slot.deadline_us;
                match router.submit(&req) {
                    Ok(_) => {
                        samples.push((slot.offset_us, due.elapsed().as_micros() as u64));
                    }
                    Err(_) => errors += 1,
                }
            }
            (samples, errors)
        }));
    }

    // The mid-campaign death drill: retire the last node when the
    // schedule is half due.
    let retired_node = if opts.retire_mid || opts.churn {
        let half = schedule[opts.submissions / 2].offset_us;
        let now_us = start.elapsed().as_micros() as u64;
        if now_us < half {
            std::thread::sleep(Duration::from_micros(half - now_us));
        }
        let id = opts.nodes as u32 - 1;
        fleet.retire(id);
        Some(id)
    } else {
        None
    };
    // The re-join replaces the retired node's engine in the fleet; keep
    // it, since it answered every request before (and in flight at)
    // the retirement.
    let mut retired_engines = Vec::new();
    // The churn drill continues where the retirement left off: the
    // node re-joins mid-load, and the window from kill to completed
    // re-join is measured against steady state.
    let churn_window = match (opts.churn, retired_node) {
        (true, Some(id)) => {
            let window_start_us = schedule[opts.submissions / 2].offset_us;
            retired_engines.push(Arc::clone(&fleet.engines()[id as usize]));
            fleet.rejoin(id).expect("mid-campaign re-join");
            Some((id, window_start_us, start.elapsed().as_micros() as u64))
        }
        _ => None,
    };

    let mut samples: Vec<(u64, u64)> = Vec::new();
    let mut errors = 0u64;
    for h in handles {
        let (s, err) = h.join().expect("campaign worker panicked");
        samples.extend(s);
        errors += err;
    }
    let wall_s = start.elapsed().as_secs_f64();
    let churn = churn_window.map(|(node, w0, w1)| {
        let (mut in_window, mut steady): (Vec<u64>, Vec<u64>) = (Vec::new(), Vec::new());
        for (due_us, lat) in &samples {
            if *due_us >= w0 && *due_us < w1 {
                in_window.push(*lat);
            } else {
                steady.push(*lat);
            }
        }
        in_window.sort_unstable();
        steady.sort_unstable();
        ChurnReport {
            node,
            window_start_us: w0,
            window_end_us: w1,
            p99_churn_us: percentile(&in_window, 0.99),
            p99_steady_us: percentile(&steady, 0.99),
            samples_churn: in_window.len(),
            samples_steady: steady.len(),
        }
    });
    let mut latencies: Vec<u64> = samples.into_iter().map(|(_, lat)| lat).collect();
    latencies.sort_unstable();

    let sum = |f: fn(&wave_serve::engine::Counters) -> u64| -> u64 {
        fleet
            .engines()
            .iter()
            .chain(&retired_engines)
            .map(|e| f(&e.counters))
            .sum()
    };
    let cold_runs = sum(|c| c.cache_misses.load(Ordering::Relaxed));
    let cold_cancelled = sum(|c| c.cold_cancelled.load(Ordering::Relaxed));
    let failovers = fleet.router().counters.failovers.load(Ordering::Relaxed);
    CampaignReport {
        nodes: opts.nodes,
        submissions: opts.submissions,
        distinct,
        corpus_size: opts.corpus_size,
        zipf_s: opts.zipf_s,
        rps_target: opts.rps,
        wall_s,
        throughput_rps: latencies.len() as f64 / wall_s.max(1e-9),
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
        p999_us: percentile(&latencies, 0.999),
        max_us: latencies.last().copied().unwrap_or(0),
        errors,
        cold_runs,
        cache_hits: sum(|c| c.cache_hits.load(Ordering::Relaxed)),
        incremental_hits: sum(|c| c.incremental_hits.load(Ordering::Relaxed)),
        coalesced: sum(|c| c.coalesced.load(Ordering::Relaxed)),
        cancelled: sum(|c| c.cancelled.load(Ordering::Relaxed)),
        cold_cancelled,
        dead_on_arrival: sum(|c| c.dead_on_arrival.load(Ordering::Relaxed)),
        refused: sum(|c| {
            c.admission_rejections.load(Ordering::Relaxed)
                + c.drain_rejections.load(Ordering::Relaxed)
                + c.load_shed.load(Ordering::Relaxed)
        }),
        replicated_applied: sum(|c| c.replicated_applied.load(Ordering::Relaxed)),
        failovers,
        single_verification_ok: economy_holds(cold_runs, distinct, cold_cancelled, failovers),
        retired_node,
        churn,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_campaign_meets_the_economy_invariant() {
        let report = run(&CampaignOptions {
            nodes: 2,
            submissions: 300,
            rps: 1_500.0,
            corpus_size: 40,
            zipf_s: 1.1,
            workers: 8,
            seed: 0x5E0D,
            deadline_fraction: 0.0,
            ..CampaignOptions::default()
        });
        assert_eq!(report.errors, 0, "{report:?}");
        assert!(report.single_verification_ok, "{report:?}");
        assert_eq!(
            report.cold_runs, report.distinct as u64,
            "without deadlines every distinct fingerprint runs exactly once: {report:?}"
        );
        assert!(report.distinct >= 30, "{report:?}");
        assert!(report.throughput_rps > 0.0 && report.p50_us <= report.p99_us);
        let json = report.encode();
        assert!(json.starts_with("{\"bench\":\"serve\","), "{json}");
        assert!(json.contains("\"retired_node\":null"), "{json}");
    }

    #[test]
    fn mid_campaign_retirement_loses_no_requests() {
        let report = run(&CampaignOptions {
            nodes: 3,
            submissions: 400,
            rps: 1_000.0,
            corpus_size: 40,
            zipf_s: 1.0,
            workers: 8,
            seed: 0xDEAD10AD,
            retire_mid: true,
            ..CampaignOptions::default()
        });
        assert_eq!(
            report.errors, 0,
            "a retired node must never cost a client: {report:?}"
        );
        assert_eq!(report.retired_node, Some(2));
        assert!(report.single_verification_ok, "{report:?}");
    }

    #[test]
    fn churn_drill_rejoins_mid_load_and_reports_the_window() {
        let report = run(&CampaignOptions {
            nodes: 3,
            submissions: 400,
            rps: 1_000.0,
            corpus_size: 40,
            zipf_s: 1.0,
            workers: 8,
            seed: 0xC4021,
            deadline_fraction: 0.0,
            churn: true,
            ..CampaignOptions::default()
        });
        assert_eq!(
            report.errors, 0,
            "kill + re-join must never cost a client: {report:?}"
        );
        assert!(report.single_verification_ok, "{report:?}");
        let churn = report.churn.as_ref().expect("churn section");
        assert_eq!(churn.node, 2);
        assert!(churn.window_end_us > churn.window_start_us);
        assert!(
            churn.samples_churn + churn.samples_steady == report.submissions,
            "every submission lands in exactly one window: {report:?}"
        );
        let json = report.encode();
        assert!(json.contains("\"churn\":{\"node\":2,"), "{json}");
    }

    #[test]
    fn churn_campaign_accounts_for_every_submission() {
        // The re-join replaces the retired engine; its counters must
        // still be summed. Every submission is exactly one outcome on
        // exactly one engine. `cancelled` is not an outcome of its own: a
        // cancelled cold run is already in `cold_runs`, and a follower
        // that left on its deadline in `coalesced`.
        let report = run(&CampaignOptions {
            nodes: 3,
            submissions: 400,
            rps: 1_000.0,
            corpus_size: 40,
            zipf_s: 1.0,
            workers: 8,
            seed: 0xACC0,
            deadline_fraction: 0.0,
            churn: true,
            ..CampaignOptions::default()
        });
        let accounted = report.cache_hits
            + report.incremental_hits
            + report.coalesced
            + report.cold_runs
            + report.dead_on_arrival
            + report.refused
            + report.errors;
        assert_eq!(accounted, report.submissions as u64, "{report:?}");
        assert_eq!(report.cold_runs, report.distinct as u64, "{report:?}");
    }

    #[test]
    fn departed_followers_buy_no_extra_cold_run() {
        // Deadlines on every submission, tight enough that some cold runs
        // are cancelled and their fingerprints run again. Only cancelled
        // cold runs may account for a repeated cold run: a follower that
        // left a coalesced run on its deadline ran nothing.
        let report = run(&CampaignOptions {
            nodes: 2,
            submissions: 300,
            rps: 1_500.0,
            corpus_size: 40,
            zipf_s: 1.1,
            workers: 8,
            seed: 0xDEAD11E,
            deadline_fraction: 1.0,
            deadline_us: (20, 400),
            ..CampaignOptions::default()
        });
        assert_eq!(report.errors, 0, "{report:?}");
        assert!(report.cold_cancelled <= report.cancelled, "{report:?}");
        assert!(
            report.cold_cancelled <= report.cold_runs,
            "cancelled cold runs are cold runs: {report:?}"
        );
        assert_eq!(
            report.single_verification_ok,
            report.cold_runs <= report.distinct as u64 + report.cold_cancelled + report.failovers,
            "{report:?}"
        );
        assert!(report.single_verification_ok, "{report:?}");
        let json = report.encode();
        let key = format!("\"cold_cancelled\":{},", report.cold_cancelled);
        assert!(json.contains(&key), "{json}");
    }

    #[test]
    fn the_economy_invariant_ignores_cancelled_followers() {
        // One fingerprint ran twice. A cancelled cold run accounts for
        // the second run, and so does a failover; a follower that left
        // on its deadline does not, since it never ran.
        assert!(economy_holds(1, 1, 0, 0));
        assert!(economy_holds(2, 1, 1, 0));
        assert!(economy_holds(2, 1, 0, 1));
        assert!(!economy_holds(2, 1, 0, 0));
    }
}
