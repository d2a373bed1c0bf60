//! The campaign driver: replay generated workloads under fault plans
//! and check the chaos invariant on every run.
//!
//! One **run** is one `(seed, plan)` pair. The driver:
//!
//! 1. generates the seed's verification case with `wave_qa::gen` (the
//!    same lint-clean, decidable-by-construction generator the
//!    differential oracle uses);
//! 2. computes the **reference**: the verdict and fingerprint from a
//!    clean engine (no faults, single worker, single thread — the
//!    verdict bytes are deterministic);
//! 3. replays the same request through an engine wired to a
//!    [`ChaosPlane`] for the plan (journal persistence enabled, so the
//!    storage hooks are live), retrying a few times the way a real
//!    client would (submits are idempotent by fingerprint);
//! 4. classifies the result — a **match** (verdict and fingerprint
//!    identical to the reference), a **typed non-answer** (`cancelled` /
//!    `poisoned`), a **typed failure** (`QueueFull`, `Internal`,
//!    `Overloaded`, …), or an **invariant violation** (anything else:
//!    wrong verdict, wrong fingerprint, corrupted replay);
//! 5. reloads the surviving journal into a clean engine and replays the
//!    request once more: a cache hit must reproduce the reference
//!    verdict byte-for-byte — damage may *lose* entries, never alter
//!    them.
//!
//! Under the control plan [`Plan::None`] the invariant tightens to
//! equality: no faults ⇒ the first attempt must match the reference
//! exactly. That is the "faults disabled ⇒ byte-identical" check.
//!
//! A **wire sweep** (once per plan) drives a real TCP server wired to
//! the same plane through [`wave_serve::client::TcpClient::verify_with_retry`],
//! bounding every call with a read timeout and a wall-clock watchdog:
//! a rough network may fail a call with a typed error, but a hung
//! client is an invariant violation.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use wave_serve::client::{ClientError, RetryPolicy, TcpClient};
use wave_serve::codec::{outcome_from_json, Mode, VerifyRequest};
use wave_serve::engine::{Engine, EngineOptions};
use wave_serve::server::Server;
use wave_serve::{Faults, Json};
use wave_verifier::symbolic::Verdict;

use crate::plan::Plan;
use crate::plane::ChaosPlane;

/// Campaign shape.
#[derive(Clone, Debug)]
pub struct CampaignOptions {
    /// Seeds per plan.
    pub seeds: u64,
    /// First seed (campaigns are resumable by range).
    pub start: u64,
    /// Plans to run. The control plan `none` may be included to assert
    /// byte-identity with faults disabled.
    pub plans: Vec<Plan>,
    /// Wall-clock budget; the campaign stops early (and says so) when
    /// it runs out.
    pub budget: Option<Duration>,
    /// Also run the TCP wire sweep once per plan.
    pub wire: bool,
    /// Node budget per verification (keeps generated cases cheap).
    pub node_limit: usize,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            seeds: 25,
            start: 0,
            plans: {
                let mut plans = vec![Plan::None];
                plans.extend(Plan::CANONICAL);
                plans
            },
            budget: None,
            wire: true,
            node_limit: 20_000,
        }
    }
}

/// What a campaign saw.
#[derive(Debug, Default)]
pub struct CampaignReport {
    /// Completed `(seed, plan)` engine runs.
    pub runs: u64,
    /// Runs whose verdict and fingerprint matched the reference.
    pub matches: u64,
    /// Runs answered with a typed non-answer (`cancelled`/`poisoned`).
    pub non_answers: u64,
    /// Runs that ended in a typed failure after all retries.
    pub typed_failures: u64,
    /// Journal-replay probes that came back as byte-identical hits.
    pub replay_hits: u64,
    /// Seeds skipped because the generated spec did not build.
    pub skipped: u64,
    /// Wire-sweep calls completed.
    pub wire_calls: u64,
    /// Faults actually injected across all planes.
    pub injected: u64,
    /// Invariant violations — must be empty for the campaign to pass.
    pub violations: Vec<String>,
    /// True when the budget expired before the full matrix ran.
    pub truncated: bool,
}

impl CampaignReport {
    /// Did the campaign uphold the chaos invariant?
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Renders the report as one JSON object (CI consumes this).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("runs".into(), Json::Int(self.runs as i64)),
            ("matches".into(), Json::Int(self.matches as i64)),
            ("non_answers".into(), Json::Int(self.non_answers as i64)),
            (
                "typed_failures".into(),
                Json::Int(self.typed_failures as i64),
            ),
            ("replay_hits".into(), Json::Int(self.replay_hits as i64)),
            ("skipped".into(), Json::Int(self.skipped as i64)),
            ("wire_calls".into(), Json::Int(self.wire_calls as i64)),
            ("injected".into(), Json::Int(self.injected as i64)),
            (
                "violations".into(),
                Json::Arr(self.violations.iter().map(Json::str).collect()),
            ),
            ("truncated".into(), Json::Bool(self.truncated)),
        ])
    }
}

/// The reference answer for one seed.
struct Reference {
    verdict_bytes: String,
    fingerprint: String,
    verdict: Verdict,
}

/// Extracts the canonical verdict encoding from outcome bytes. Search
/// stats carry wall times and are excluded: "byte-identical" is a claim
/// about the *answer*, not about the clock.
fn verdict_of(outcome_bytes: &[u8]) -> Result<(Verdict, String), String> {
    let text = std::str::from_utf8(outcome_bytes).map_err(|e| e.to_string())?;
    let json = Json::parse(text).map_err(|e| e.to_string())?;
    let outcome = outcome_from_json(&json).map_err(|e| e.to_string())?;
    let verdict_json = json.get("verdict").ok_or("missing verdict")?.encode();
    Ok((outcome.verdict, verdict_json))
}

fn chaos_request(property: &str, node_limit: usize) -> VerifyRequest {
    VerifyRequest {
        service: "inline".into(),
        property: property.into(),
        mode: Mode::Ltl,
        node_limit,
        // Single-threaded search keeps `explored` deterministic, so
        // verdict bytes compare exactly.
        threads: 1,
        // A generous real deadline, so the overload plan's skew hook has
        // something to crush.
        deadline_us: 5_000_000,
        check_owner: false,
    }
}

/// Computes the reference for `seed`, or `None` when the generated spec
/// does not build (counted as skipped).
fn reference_for(seed: u64, node_limit: usize) -> Option<Reference> {
    let case = wave_qa::gen::generate(seed);
    let (service, sources) = case.spec.build().ok()?;
    let engine = Engine::new(EngineOptions {
        workers: 1,
        ..EngineOptions::default()
    });
    let req = chaos_request(&case.spec.property, node_limit);
    let res = engine.submit_service(service, sources, &req).ok()?;
    let (verdict, verdict_bytes) = verdict_of(&res.outcome_bytes).ok()?;
    Some(Reference {
        verdict_bytes,
        fingerprint: res.fingerprint.to_hex(),
        verdict,
    })
}

/// One engine-lane chaos run; pushes violations, returns counter deltas
/// via the report.
#[allow(clippy::too_many_lines)]
fn engine_run(
    seed: u64,
    plan: Plan,
    reference: &Reference,
    opts: &CampaignOptions,
    report: &mut CampaignReport,
) {
    let case = wave_qa::gen::generate(seed);
    let journal: PathBuf = std::env::temp_dir().join(format!(
        "wave-chaos-{}-{}-{}.ndjson",
        std::process::id(),
        seed,
        plan.name()
    ));
    let _ = std::fs::remove_file(&journal);
    let plane = Arc::new(ChaosPlane::new(
        plan,
        seed.wrapping_mul(0x9E37_79B9)
            .wrapping_add(plan.name().len() as u64),
    ));
    let engine = Engine::new(EngineOptions {
        workers: 1,
        queue_capacity: 4,
        persist: Some(journal.clone()),
        faults: Faults::new(Arc::clone(&plane) as Arc<dyn wave_serve::FaultInjector>),
        ..EngineOptions::default()
    });
    let req = chaos_request(&case.spec.property, opts.node_limit);

    let mut classified = false;
    let mut last_error = String::new();
    for _attempt in 0..3 {
        let Ok((service, sources)) = case.spec.build() else {
            report.skipped += 1;
            return;
        };
        match engine.submit_service(service, sources, &req) {
            Ok(res) => {
                match verdict_of(&res.outcome_bytes) {
                    Err(e) => report.violations.push(format!(
                        "seed {seed} plan {}: undecodable outcome bytes: {e}",
                        plan.name()
                    )),
                    Ok((Verdict::Cancelled | Verdict::Poisoned, _)) if plan != Plan::None => {
                        report.non_answers += 1;
                    }
                    Ok((_, verdict_bytes)) => {
                        let fp = res.fingerprint.to_hex();
                        if verdict_bytes == reference.verdict_bytes && fp == reference.fingerprint {
                            report.matches += 1;
                        } else {
                            report.violations.push(format!(
                                "seed {seed} plan {}: WRONG VERDICT: got {verdict_bytes} fp {fp}, \
                                 reference {} fp {} ({:?})",
                                plan.name(),
                                reference.verdict_bytes,
                                reference.fingerprint,
                                reference.verdict,
                            ));
                        }
                    }
                }
                classified = true;
                break;
            }
            Err(e) => {
                // Every submit error is a *typed* failure by
                // construction; under the control plan even those are
                // violations — nothing may fail without faults.
                last_error = e.to_string();
                if plan == Plan::None {
                    report.violations.push(format!(
                        "seed {seed} plan none: typed failure without faults: {last_error}"
                    ));
                    classified = true;
                    break;
                }
            }
        }
    }
    if !classified {
        report.typed_failures += 1;
        let _ = last_error;
    }
    report.runs += 1;
    report.injected += plane.injected_total();
    drop(engine);

    // Replay probe: whatever survived in the journal must reproduce the
    // reference verdict on a hit. Damage may lose the entry (miss — the
    // probe then re-verifies cold, which must also match), never alter
    // it.
    if let Ok((service, sources)) = case.spec.build() {
        let clean = Engine::new(EngineOptions {
            workers: 1,
            persist: Some(journal.clone()),
            ..EngineOptions::default()
        });
        if let Ok(res) = clean.submit_service(service, sources, &req) {
            if let Ok((verdict, verdict_bytes)) = verdict_of(&res.outcome_bytes) {
                let is_non_answer = matches!(verdict, Verdict::Cancelled | Verdict::Poisoned);
                if !is_non_answer {
                    if verdict_bytes == reference.verdict_bytes {
                        if res.cache_hit {
                            report.replay_hits += 1;
                        }
                    } else {
                        report.violations.push(format!(
                            "seed {seed} plan {}: CORRUPTED REPLAY (hit={}): got {verdict_bytes}, \
                             reference {}",
                            plan.name(),
                            res.cache_hit,
                            reference.verdict_bytes,
                        ));
                    }
                }
            }
        }
    }
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(journal.with_extension("ndjson.tmp"));
    // Sibling artifacts the engine persists next to the result journal:
    // the generation sidecar and the incremental-tier journals (each
    // with its own sidecar and compaction temp).
    let _ = std::fs::remove_file(wave_serve::cache::generation_path(&journal));
    for tier in ["verdicts", "buchi"] {
        let t = journal.with_extension(format!("{tier}.ndjson"));
        let _ = std::fs::remove_file(wave_serve::cache::generation_path(&t));
        let _ = std::fs::remove_file(t.with_extension("ndjson.tmp"));
        let _ = std::fs::remove_file(t);
    }
}

/// One wire sweep: a real TCP server wired to the plan's plane, driven
/// through the retrying client under a watchdog.
fn wire_sweep(plan: Plan, seed: u64, report: &mut CampaignReport) {
    // Reference verdict kinds from a clean engine, over the registry
    // services the sweep exercises.
    let requests = [
        ("toggle", "G (P | Q)"),
        ("toggle", "F Q"),
        ("login", "G (!CP | logged_in)"),
    ];
    let clean = Engine::new(EngineOptions::default());
    let mut references = Vec::new();
    for (service, property) in &requests {
        let req = VerifyRequest {
            service: (*service).into(),
            property: (*property).into(),
            mode: Mode::Ltl,
            node_limit: 0,
            threads: 1,
            deadline_us: 0,
            check_owner: false,
        };
        let res = clean.submit(&req).expect("registry reference must verify");
        let (_, verdict_bytes) = verdict_of(&res.outcome_bytes).expect("decodable");
        references.push((req, verdict_bytes));
    }

    let plane = Arc::new(ChaosPlane::new(plan, seed ^ 0x5743_4841_4f53));
    let engine = Arc::new(Engine::new(EngineOptions {
        faults: Faults::new(Arc::clone(&plane) as Arc<dyn wave_serve::FaultInjector>),
        ..EngineOptions::default()
    }));
    let server = Server::bind("127.0.0.1:0", Arc::clone(&engine)).expect("bind ephemeral");
    let addr = server.local_addr().expect("local addr");
    std::thread::spawn(move || {
        let _ = server.run();
    });

    let policy = RetryPolicy {
        max_attempts: 4,
        base: Duration::from_millis(20),
        cap: Duration::from_millis(200),
        budget: Duration::from_secs(3),
        seed,
    };
    let read_timeout = Duration::from_secs(2);
    // Generous watchdog: attempts × timeout plus the whole retry budget.
    let watchdog = Duration::from_secs(2 * 4 + 3 + 5);
    for round in 0..3u32 {
        for (req, ref_verdict) in &references {
            let started = Instant::now();
            let result = TcpClient::verify_with_retry(addr, read_timeout, req, &policy);
            let elapsed = started.elapsed();
            report.wire_calls += 1;
            if elapsed > watchdog {
                report.violations.push(format!(
                    "plan {} round {round}: CLIENT HANG: {:?} for {} / {}",
                    plan.name(),
                    elapsed,
                    req.service,
                    req.property
                ));
                continue;
            }
            match result {
                Ok(reply) => {
                    let verdict_bytes =
                        reply.outcome_text.parse_verdict_bytes().unwrap_or_default();
                    if &verdict_bytes != ref_verdict {
                        report.violations.push(format!(
                            "plan {} round {round}: WRONG WIRE VERDICT for {} / {}: got \
                             {verdict_bytes}, reference {ref_verdict}",
                            plan.name(),
                            req.service,
                            req.property
                        ));
                    } else {
                        report.matches += 1;
                    }
                }
                // Typed client-side failures are the allowed outcome of
                // a rough network.
                Err(
                    ClientError::Io(_)
                    | ClientError::Timeout
                    | ClientError::Protocol(_)
                    | ClientError::RetryAfter { .. }
                    | ClientError::Draining
                    | ClientError::Server(_),
                ) => {
                    if plan == Plan::None {
                        report.violations.push(format!(
                            "plan none round {round}: wire failure without faults for {} / {}",
                            req.service, req.property
                        ));
                    } else {
                        report.typed_failures += 1;
                    }
                }
            }
        }
    }
    report.injected += plane.injected_total();
}

/// Tiny helper: pull the canonical verdict object back out of an
/// outcome's text form.
trait VerdictBytes {
    fn parse_verdict_bytes(&self) -> Option<String>;
}

impl VerdictBytes for String {
    fn parse_verdict_bytes(&self) -> Option<String> {
        let json = Json::parse(self).ok()?;
        Some(json.get("verdict")?.encode())
    }
}

/// Runs a full campaign: `seeds × plans` engine runs plus one wire
/// sweep per plan, bounded by the budget.
pub fn run_campaign(opts: &CampaignOptions) -> CampaignReport {
    let started = Instant::now();
    let mut report = CampaignReport::default();
    let out_of_budget = |started: Instant| opts.budget.is_some_and(|b| started.elapsed() >= b);

    'outer: for seed in opts.start..opts.start + opts.seeds {
        let Some(reference) = reference_for(seed, opts.node_limit) else {
            report.skipped += 1;
            continue;
        };
        // A reference that cannot answer (cancelled on a clean engine)
        // would make every comparison vacuous; skip the seed.
        if matches!(reference.verdict, Verdict::Cancelled | Verdict::Poisoned) {
            report.skipped += 1;
            continue;
        }
        for plan in &opts.plans {
            if out_of_budget(started) {
                report.truncated = true;
                break 'outer;
            }
            engine_run(seed, *plan, &reference, opts, &mut report);
        }
    }
    if opts.wire {
        for plan in &opts.plans {
            if out_of_budget(started) {
                report.truncated = true;
                break;
            }
            wire_sweep(*plan, opts.start, &mut report);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The in-tree mini-campaign: a small seed range across the control
    /// plan and the two cheapest fault plans must uphold the invariant.
    /// CI runs the full matrix at 100 seeds in release mode.
    #[test]
    fn mini_campaign_upholds_the_invariant() {
        let opts = CampaignOptions {
            seeds: 3,
            start: 0,
            plans: vec![Plan::None, Plan::TornCache, Plan::PanicStorm],
            budget: None,
            wire: false,
            node_limit: 20_000,
        };
        let report = run_campaign(&opts);
        assert!(
            report.ok(),
            "violations: {:#?}\nreport: {}",
            report.violations,
            report.to_json().encode()
        );
        assert_eq!(report.runs, 9);
        assert!(report.matches >= 3, "control plan must match: {report:?}");
    }

    #[test]
    fn wire_sweep_with_control_plan_is_clean() {
        let mut report = CampaignReport::default();
        wire_sweep(Plan::None, 1, &mut report);
        assert!(report.ok(), "violations: {:#?}", report.violations);
        assert_eq!(report.wire_calls, 9);
        assert_eq!(report.matches, 9);
        assert_eq!(report.injected, 0);
    }
}
