//! The flapping-membership chaos campaign: kill and re-join nodes
//! repeatedly while the heartbeat probe path is under fault injection.
//!
//! One **seed** is one fleet lifetime: a 3-node [`LocalFleet`] whose
//! fleet fault plane runs [`Plan::Flapping`] (drop / delay / corrupt on
//! [`Hook::FleetHealth`](wave_serve::faults::Hook::FleetHealth) probes
//! only) while the drill kills a node, re-joins it, and repeats. The
//! campaign asserts the two membership invariants from DESIGN.md §14:
//!
//! - **zero wrong verdicts** — every reply for a fingerprint carries
//!   verdict bytes identical to the first (reference) reply, through
//!   every kill, re-join, and faulted probe;
//! - **zero lost journaled verdicts** — after the final re-join, a full
//!   re-submit of the whole corpus is 100% cache hits: nothing the
//!   fleet ever journaled is re-verified, ever.
//!
//! The confirm-before-kill probe is load-bearing here: flapping faults
//! drop enough beats to push live nodes to K missed, and without the
//!   direct confirm the prober would execute healthy members mid-drill.

use std::sync::Arc;
use std::time::Duration;

use wave_chaos::plan::Plan;
use wave_chaos::plane::ChaosPlane;
use wave_serve::codec::{Mode, VerifyRequest};
use wave_serve::{Faults, Json};

use crate::heartbeat::HeartbeatOptions;
use crate::local::{FleetOptions, LocalFleet};

/// Kill/re-join rounds per seed.
const ROUNDS: usize = 3;

/// What the campaign saw.
#[derive(Debug, Default)]
pub struct FlapReport {
    /// Seeds run.
    pub seeds: u64,
    /// Seeds with at least one violation.
    pub failures: u64,
    /// Kill + re-join cycles executed.
    pub rounds: u64,
    /// Replies compared against their reference bytes.
    pub replies: u64,
    /// Final-sweep submissions answered from cache.
    pub cache_hits: u64,
    /// Final-sweep submissions that re-verified cold (must be 0).
    pub cold_resubmits: u64,
    /// Probe faults actually injected across all planes.
    pub injected: u64,
    /// Invariant violations — must be empty for the campaign to pass.
    pub violations: Vec<String>,
}

impl FlapReport {
    /// Did every seed uphold both membership invariants?
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// One JSON object (CI consumes this).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("seeds".into(), Json::Int(self.seeds as i64)),
            ("failures".into(), Json::Int(self.failures as i64)),
            ("rounds".into(), Json::Int(self.rounds as i64)),
            ("replies".into(), Json::Int(self.replies as i64)),
            ("cache_hits".into(), Json::Int(self.cache_hits as i64)),
            (
                "cold_resubmits".into(),
                Json::Int(self.cold_resubmits as i64),
            ),
            ("injected".into(), Json::Int(self.injected as i64)),
            (
                "violations".into(),
                Json::Arr(self.violations.iter().map(Json::str).collect()),
            ),
        ])
    }

    /// Human summary line.
    pub fn summary(&self) -> String {
        format!(
            "flap: {} seeds, {} rounds, {} replies byte-checked, {} cache hits, \
             {} cold re-submits, {} probe faults injected, {} violations",
            self.seeds,
            self.rounds,
            self.replies,
            self.cache_hits,
            self.cold_resubmits,
            self.injected,
            self.violations.len()
        )
    }
}

/// The corpus every seed replays: registry services with deterministic
/// verdict bytes (single-threaded search).
fn corpus() -> Vec<VerifyRequest> {
    [
        ("toggle", "G (P | Q)"),
        ("toggle", "F Q"),
        ("toggle", "G (!P | F Q)"),
        ("login", "G (!CP | logged_in)"),
        ("login", "F logged_in"),
        ("toggle", "G P"),
    ]
    .into_iter()
    .map(|(service, property)| VerifyRequest {
        service: service.into(),
        property: property.into(),
        mode: Mode::Ltl,
        node_limit: 0,
        threads: 1,
        deadline_us: 5_000_000,
        check_owner: false,
    })
    .collect()
}

/// Extracts the canonical verdict object from an outcome's text form —
/// "byte-identical" is a claim about the answer, not the clock, so the
/// search stats (which carry wall times) are excluded.
fn verdict_bytes(outcome_text: &str) -> Option<String> {
    Some(Json::parse(outcome_text).ok()?.get("verdict")?.encode())
}

/// xorshift64* over the seed: picks kill targets deterministically.
fn next(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

/// One seed: boot, reference sweep, `ROUNDS` kill/re-join cycles with
/// submits in the degraded and restored states, final 100%-hit sweep.
fn run_seed(seed: u64, nodes: usize, report: &mut FlapReport) {
    let plane = Arc::new(ChaosPlane::new(Plan::Flapping, seed ^ 0x666c_6170));
    let opts = FleetOptions {
        fleet_faults: Faults::new(Arc::clone(&plane) as Arc<dyn wave_serve::FaultInjector>),
        ship_interval: Duration::from_millis(20),
        heartbeat: Some(HeartbeatOptions {
            interval: Duration::from_millis(25),
            seed,
        }),
        ..FleetOptions::default()
    };
    let mut fleet = match LocalFleet::launch(nodes, opts) {
        Ok(f) => f,
        Err(e) => {
            report
                .violations
                .push(format!("seed {seed}: fleet failed to launch: {e}"));
            return;
        }
    };
    let corpus = corpus();
    let mut rng = seed | 1;
    let before = report.violations.len();

    // Reference sweep: first reply per fingerprint is the contract.
    let mut references: Vec<Option<(String, String)>> = Vec::new();
    for req in &corpus {
        match fleet.router().submit(req) {
            Ok(r) => match verdict_bytes(&r.outcome_text) {
                Some(v) => references.push(Some((r.fingerprint.to_hex(), v))),
                None => {
                    report
                        .violations
                        .push(format!("seed {seed}: undecodable reference outcome"));
                    references.push(None);
                }
            },
            Err(e) => {
                report
                    .violations
                    .push(format!("seed {seed}: reference submit failed: {e}"));
                references.push(None);
            }
        }
    }

    let check = |fleet: &LocalFleet, when: &str, report: &mut FlapReport| {
        for (i, req) in corpus.iter().enumerate() {
            match fleet.router().submit(req) {
                Ok(r) => {
                    report.replies += 1;
                    let Some(Some((ref_fp, ref_v))) = references.get(i) else {
                        continue;
                    };
                    let got = verdict_bytes(&r.outcome_text).unwrap_or_default();
                    if r.fingerprint.to_hex() != *ref_fp || got != *ref_v {
                        report.violations.push(format!(
                            "seed {seed} {when}: WRONG VERDICT for {} / {}: got {got} fp {}, \
                             reference {ref_v} fp {ref_fp}",
                            req.service,
                            req.property,
                            r.fingerprint.to_hex(),
                        ));
                    }
                }
                Err(e) => report
                    .violations
                    .push(format!("seed {seed} {when}: submit failed: {e}")),
            }
        }
    };

    for round in 0..ROUNDS {
        // Let the shipper move journals before the kill steals a node.
        std::thread::sleep(Duration::from_millis(60));
        let victim = (next(&mut rng) % nodes as u64) as u32;
        fleet.router().mark_dead(victim);
        check(&fleet, &format!("round {round} degraded"), report);
        if let Err(e) = fleet.rejoin(victim) {
            report
                .violations
                .push(format!("seed {seed} round {round}: rejoin failed: {e}"));
            break;
        }
        check(&fleet, &format!("round {round} restored"), report);
        report.rounds += 1;
    }

    // Economy invariant: after all that churn, nothing journaled is
    // ever re-verified — the final sweep is 100% cache hits.
    for req in &corpus {
        match fleet.router().submit(req) {
            Ok(r) => {
                if r.cache_hit {
                    report.cache_hits += 1;
                } else {
                    report.cold_resubmits += 1;
                    report.violations.push(format!(
                        "seed {seed}: LOST JOURNALED VERDICT: {} / {} re-verified cold \
                         after the final re-join",
                        req.service, req.property
                    ));
                }
            }
            Err(e) => report
                .violations
                .push(format!("seed {seed} final sweep: submit failed: {e}")),
        }
    }

    report.injected += plane.injected_total();
    if report.violations.len() > before {
        report.failures += 1;
    }
    let dir = fleet.dir().to_path_buf();
    drop(fleet);
    let _ = std::fs::remove_dir_all(dir);
}

/// Runs the campaign over `seeds` fleet lifetimes of `nodes` nodes.
pub fn run_campaign(seeds: u64, nodes: usize) -> FlapReport {
    let mut report = FlapReport::default();
    for seed in 0..seeds {
        report.seeds += 1;
        run_seed(seed, nodes, &mut report);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The in-tree mini-campaign: a couple of seeds must uphold both
    /// membership invariants. CI runs 100 seeds in release mode.
    #[test]
    fn mini_flap_campaign_upholds_the_invariants() {
        let report = run_campaign(2, 3);
        assert!(
            report.ok(),
            "violations: {:#?}\nreport: {}",
            report.violations,
            report.to_json().encode()
        );
        assert_eq!(report.rounds, 2 * ROUNDS as u64);
        assert_eq!(report.cold_resubmits, 0, "economy invariant");
        assert_eq!(report.cache_hits, 2 * 6, "final sweeps must all hit");
    }
}
