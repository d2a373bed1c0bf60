//! EXP-INC — digest-keyed incremental re-verification benchmark.
//!
//! Replays an **editing session** against a warm `wave-serve` engine:
//! the Fig. 2 payment-safety property on the checkout bench service,
//! followed by a scripted sequence of one-rule edits to the bench's
//! toggle flags. Every flag rule is outside the property's cone of
//! influence, so each edit changes the submission fingerprint but not
//! the cone digest — the verdict tier must answer all of them without
//! a search. The benchmark writes one JSON report,
//! `BENCH_incremental.json`, at the repo root:
//!
//! 1. **Cold run** — a fresh engine pays for slicing, LTL→Büchi
//!    translation and the product search (`WAVE_BENCH_SAMPLES` fresh
//!    engines, default 3: `cold_us` is the minimum, reported with the
//!    median and the maximum; the warm edits are the fastest session's).
//! 2. **Warm edits** — the six-step edit script resubmitted to the warm
//!    engine. Each answer must carry `incremental: true` and a verdict
//!    byte-identical to both the cold base run and a from-scratch
//!    `verify_ltl` of the edited service. The headline number is the
//!    warm-over-cold ratio (target: ≤ 15%).
//! 3. **In-cone control** — one edit that removes the `ship` action
//!    rule, which the property *can* observe: the tier must refuse to
//!    answer (a cold in-engine run), but the automaton tier still skips
//!    `ltl2buchi` reconstruction for the unchanged formula.
//!
//! Usage: `cargo run --release -p wave-bench --bin bench_incremental
//! [-- --out PATH] [-- --smoke]`.
//!
//! `--smoke` is the CI tripwire: one engine, the full edit script, and
//! a nonzero exit if any edit misses the tier, any verdict byte
//! differs, or the best warm time exceeds 25% of the cold time.

use std::path::PathBuf;
use std::time::Instant;

use wave_core::service::Service;
use wave_demo::site;
use wave_logic::parser::parse_property;
use wave_serve::codec::{outcome_from_json, verdict_to_json, Mode, VerifyRequest};
use wave_serve::engine::{Engine, EngineOptions};
use wave_serve::json::Json;
use wave_verifier::symbolic::{verify_ltl, SymbolicOptions, VerifyOutcome};

const FIG2_PROPERTY: &str = "forall p . G (!ship(p) | paid)";
const SERVICE: &str = "checkout_bench";
/// `--smoke` fails when the best warm edit exceeds this fraction of the
/// cold time; the committed report targets 15%.
const SMOKE_TOLERANCE: f64 = 0.25;

fn samples() -> usize {
    std::env::var("WAVE_BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(3)
}

/// Repo root at build time; `--out` overrides at run time.
fn default_out() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_incremental.json")
}

/// The `CP` page's toggle rule for `flag` — the out-of-cone mutation
/// surface: no target, action or property relation reads a flag, so
/// editing one leaves the Fig. 2 cone digest unchanged.
fn flag_rule<'a>(service: &'a mut Service, flag: &str) -> &'a mut wave_core::rules::StateRule {
    service
        .pages
        .get_mut("CP")
        .expect("CP page")
        .state_rules
        .iter_mut()
        .find(|r| r.relation == flag)
        .expect("flag state rule")
}

/// A named one-rule edit applied to the bench service.
type Edit = (&'static str, fn(&mut Service));

/// The scripted editing session: each step is a one-rule edit applied
/// *cumulatively* (an editor making successive changes), and every
/// resulting service has a distinct fingerprint.
const EDITS: &[Edit] = &[
    ("drop flag0 deletion", |s| {
        flag_rule(s, "flag0").delete = None;
    }),
    ("drop flag1 deletion", |s| {
        flag_rule(s, "flag1").delete = None;
    }),
    ("mirror flag0 insertion into deletion", |s| {
        let r = flag_rule(s, "flag0");
        r.delete = r.insert.clone();
    }),
    ("mirror flag1 insertion into deletion", |s| {
        let r = flag_rule(s, "flag1");
        r.delete = r.insert.clone();
    }),
    ("drop flag0 insertion", |s| {
        flag_rule(s, "flag0").insert = None;
    }),
    ("drop flag1 insertion", |s| {
        flag_rule(s, "flag1").insert = None;
    }),
];

fn decode(bytes: &[u8]) -> VerifyOutcome {
    outcome_from_json(
        &Json::parse(std::str::from_utf8(bytes).expect("utf8")).expect("outcome json"),
    )
    .expect("outcome decodes")
}

struct SessionResult {
    cold_us: u64,
    /// `(label, warm_us)` per edit, in script order.
    warm_us: Vec<(&'static str, u64)>,
    /// Time of the in-cone control edit (a cold in-engine run).
    control_us: u64,
    automaton_hits: u64,
}

/// One full editing session on a fresh engine. Asserts every
/// correctness claim; returns the timings.
fn session() -> SessionResult {
    let engine = Engine::new(EngineOptions::default());
    let (base, sources) = site::checkout_bench_with_sources();
    let property = parse_property(FIG2_PROPERTY).expect("Fig. 2 property parses");
    let req = VerifyRequest {
        service: SERVICE.into(),
        property: FIG2_PROPERTY.into(),
        mode: Mode::Ltl,
        node_limit: 0,
        threads: 1,
        deadline_us: 0,
        check_owner: false,
    };

    let t0 = Instant::now();
    let cold = engine
        .submit_service(base.clone(), sources.clone(), &req)
        .expect("cold submit succeeds");
    let cold_us = t0.elapsed().as_micros() as u64;
    assert!(!cold.cache_hit && !cold.incremental, "first submit is cold");
    let cold_verdict = verdict_to_json(&decode(&cold.outcome_bytes).verdict).encode();

    let mut current = base.clone();
    let mut warm_us = Vec::with_capacity(EDITS.len());
    for (label, edit) in EDITS {
        edit(&mut current);
        let t0 = Instant::now();
        let res = engine
            .submit_service(current.clone(), sources.clone(), &req)
            .expect("warm submit succeeds");
        let us = t0.elapsed().as_micros() as u64;
        assert!(
            res.incremental && !res.cache_hit,
            "{label}: out-of-cone edit must replay from the tier"
        );
        let out = decode(&res.outcome_bytes);
        let warm_verdict = verdict_to_json(&out.verdict).encode();
        assert_eq!(
            warm_verdict, cold_verdict,
            "{label}: tier replay must be byte-identical to the cold base"
        );
        assert_eq!(out.stats.nodes_interned, 0, "{label}: no search may run");
        // The ground truth: a from-scratch verification of the *edited*
        // service reaches the same verdict bytes.
        let fresh = verify_ltl(&current, &property, &SymbolicOptions::default())
            .expect("fresh verification succeeds");
        assert_eq!(
            verdict_to_json(&fresh.verdict).encode(),
            warm_verdict,
            "{label}: tier replay must match a from-scratch run of the edit"
        );
        warm_us.push((*label, us));
    }

    // In-cone control: removing the `ship` action rule changes the cone
    // digest, so the tier must miss — but the formula is unchanged, so
    // the automaton tier serves the Büchi automaton without a rebuild.
    let automaton_hits_before = engine.tiers().automaton_hits();
    let mut control = current.clone();
    control
        .pages
        .get_mut("UPP")
        .expect("UPP page")
        .action_rules
        .clear();
    let t0 = Instant::now();
    let res = engine
        .submit_service(control, sources, &req)
        .expect("control submit succeeds");
    let control_us = t0.elapsed().as_micros() as u64;
    assert!(
        !res.incremental && !res.cache_hit,
        "in-cone edit must run cold"
    );
    let automaton_hits = engine.tiers().automaton_hits();
    assert!(
        automaton_hits > automaton_hits_before,
        "the unchanged formula must hit the automaton tier"
    );
    SessionResult {
        cold_us,
        warm_us,
        control_us,
        automaton_hits,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(default_out);
    let n = if smoke { 1 } else { samples() };

    // Minimum over fresh-engine sessions: each pays its own cold run
    // and replays the same edit script warm.
    let mut best: Option<SessionResult> = None;
    let mut colds: Vec<u64> = Vec::with_capacity(n);
    for _ in 0..n {
        let s = session();
        colds.push(s.cold_us);
        best = Some(match best {
            None => s,
            Some(b) => {
                if s.cold_us < b.cold_us {
                    s
                } else {
                    b
                }
            }
        });
    }
    let best = best.expect("at least one session");
    colds.sort_unstable();
    let (cold_median, cold_max) = (colds[colds.len() / 2], colds[colds.len() - 1]);
    let mut sorted: Vec<u64> = best.warm_us.iter().map(|&(_, us)| us).collect();
    sorted.sort_unstable();
    let (warm_min, warm_median) = (sorted[0], sorted[sorted.len() / 2]);
    let warm_max = sorted[sorted.len() - 1];
    let ratio = warm_min as f64 / best.cold_us.max(1) as f64;
    eprintln!(
        "cold min {} us / median {cold_median} us / max {cold_max} us; warm edits min {} us / \
         median {} us / max {} us ({:.1}% of the best cold); in-cone control {} us",
        best.cold_us,
        warm_min,
        warm_median,
        warm_max,
        ratio * 100.0,
        best.control_us
    );

    if smoke {
        if ratio > SMOKE_TOLERANCE {
            eprintln!(
                "SMOKE FAIL: best warm edit is {:.1}% of cold, over the {:.0}% tripwire — \
                 the verdict tier stopped answering out-of-cone edits",
                ratio * 100.0,
                SMOKE_TOLERANCE * 100.0
            );
            std::process::exit(1);
        }
        eprintln!("smoke ok: warm/cold ratio {:.3}", ratio);
        return;
    }

    let report = Json::Obj(vec![
        ("bench".into(), Json::str("incremental")),
        ("service".into(), Json::str(SERVICE)),
        ("property".into(), Json::str(FIG2_PROPERTY)),
        ("samples".into(), Json::Int(n as i64)),
        ("cold_us".into(), Json::Int(best.cold_us as i64)),
        ("cold_us_median".into(), Json::Int(cold_median as i64)),
        ("cold_us_max".into(), Json::Int(cold_max as i64)),
        (
            "edits".into(),
            Json::Arr(
                best.warm_us
                    .iter()
                    .map(|&(label, us)| {
                        Json::Obj(vec![
                            ("edit".into(), Json::str(label)),
                            ("warm_us".into(), Json::Int(us as i64)),
                            ("incremental".into(), Json::Bool(true)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("warm_us_min".into(), Json::Int(warm_min as i64)),
        ("warm_us_median".into(), Json::Int(warm_median as i64)),
        ("warm_us_max".into(), Json::Int(warm_max as i64)),
        (
            "warm_over_cold_pct".into(),
            Json::Int((ratio * 100.0).round() as i64),
        ),
        (
            "in_cone_control".into(),
            Json::Obj(vec![
                ("cold_us".into(), Json::Int(best.control_us as i64)),
                (
                    "automaton_hits".into(),
                    Json::Int(best.automaton_hits as i64),
                ),
            ]),
        ),
    ]);
    std::fs::write(&out, report.encode() + "\n").expect("write report");
    println!("wrote {}", out.display());
}
