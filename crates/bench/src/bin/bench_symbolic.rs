//! EXP-SERVE — machine-readable symbolic-verification benchmark.
//!
//! Runs the Fig. 2 payment-safety property (`forall p . G (!ship(p) |
//! paid)`) on the **checkout bench** service — the checkout core scaled
//! by independent toggle flags to ~16× its state count, large enough
//! that search time dominates per-run setup — through three paths and
//! writes one JSON report, `BENCH_symbolic.json`, at the repo root:
//!
//! 1. **Unsliced** — direct `verify_ltl` at the default options with
//!    `slice: false`, reporting the sample count, the minimum, median
//!    and maximum wall time, and the full `SearchStats`. Slicing (on by
//!    default) removes the very toggle flags that scale this service
//!    up, so this entry is the one that measures the full search.
//! 2. **Slice sweep** — the same request with slicing on vs off. The
//!    Fig. 2 property's cone excludes every toggle flag, so the sliced
//!    search collapses back to roughly the checkout core; the entry
//!    records the sliced minimum, median and maximum wall time, the
//!    node-count and wall-time reduction (the headline numbers for the
//!    slicer), and asserts the verdict is unchanged.
//! 3. **Service path** — the same request submitted twice through a
//!    `wave-serve` engine: the cold run pays for the search, the second
//!    must be a content-addressed cache hit, so the hit/cold timing
//!    ratio is the headline number for the result cache.
//!
//! Sample count comes from `WAVE_BENCH_SAMPLES` (default 5).
//!
//! Usage: `cargo run --release -p wave-bench --bin bench_symbolic
//! [-- --out PATH] [-- --smoke]`.
//!
//! `--smoke` is the CI tripwire for the one place the system runs
//! searches in parallel, the engine's worker pool. Each sample submits
//! four distinct cold `checkout_bench` properties from two threads to a
//! fresh `Engine`, once with one worker and once with two. It skips the
//! report file and exits nonzero if the two-worker minimum wall exceeds
//! the one-worker minimum by more than 10%: a second worker must never
//! make a batch of independent requests slower.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use wave_demo::site;
use wave_logic::parser::parse_property;
use wave_serve::codec::{stats_to_json, Mode, VerifyRequest};
use wave_serve::engine::{Engine, EngineOptions};
use wave_serve::json::Json;
use wave_verifier::symbolic::{verify_ltl, SearchStats, SymbolicOptions, Verdict};

const FIG2_PROPERTY: &str = "forall p . G (!ship(p) | paid)";
const SERVICE: &str = "checkout_bench";
/// The `--smoke` batch: four distinct properties, each a cold search.
const SMOKE_PROPERTIES: [&str; 4] = [
    FIG2_PROPERTY,
    "G !paid",
    "forall p . G !ship(p)",
    "forall p . F ship(p)",
];
/// `--smoke` fails when two workers are more than this factor over one
/// (minimum over samples on both sides).
const SMOKE_TOLERANCE: f64 = 1.1;

fn samples() -> usize {
    std::env::var("WAVE_BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(5)
}

/// Repo root at build time; `--out` overrides at run time.
fn default_out() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_symbolic.json")
}

struct Entry {
    wall_us_min: u64,
    wall_us_median: u64,
    wall_us_max: u64,
    verdict: Verdict,
    stats: SearchStats,
    json: Json,
}

fn entry(
    service: &wave_core::service::Service,
    property: &wave_logic::temporal::Property,
    n: usize,
    slice: bool,
) -> Entry {
    let opts = SymbolicOptions {
        slice,
        ..SymbolicOptions::default()
    };
    let mut walls: Vec<u64> = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        let t0 = Instant::now();
        let out = verify_ltl(service, property, &opts).expect("verification succeeds");
        walls.push(t0.elapsed().as_micros() as u64);
        last = Some(out);
    }
    let out = last.expect("at least one sample");
    assert!(out.holds(), "Fig. 2 payment safety must hold");
    walls.sort_unstable();
    let wall_us_min = walls[0];
    let wall_us_median = walls[walls.len() / 2];
    let wall_us_max = walls[walls.len() - 1];
    let json = Json::Obj(vec![
        ("samples".into(), Json::Int(n as i64)),
        ("wall_us_min".into(), Json::Int(wall_us_min as i64)),
        ("wall_us_median".into(), Json::Int(wall_us_median as i64)),
        ("wall_us_max".into(), Json::Int(wall_us_max as i64)),
        ("stats".into(), stats_to_json(&out.stats)),
    ]);
    eprintln!(
        "slice={slice}: min {wall_us_min} us, median {wall_us_median} us, max {wall_us_max} us \
         over {n} samples ({} nodes)",
        out.stats.nodes_interned
    );
    Entry {
        wall_us_min,
        wall_us_median,
        wall_us_max,
        verdict: out.verdict,
        stats: out.stats,
        json,
    }
}

fn request(property: &str) -> VerifyRequest {
    VerifyRequest {
        service: SERVICE.into(),
        property: property.into(),
        mode: Mode::Ltl,
        node_limit: 0,
        threads: 1,
        deadline_us: 0,
        check_owner: false,
    }
}

/// Wall time for a fresh engine with `workers` workers to answer
/// [`SMOKE_PROPERTIES`] submitted from two threads (two properties
/// each). Every submission must run cold.
fn pool_batch_us(workers: usize) -> u64 {
    let engine = Arc::new(Engine::new(EngineOptions {
        workers,
        ..EngineOptions::default()
    }));
    let t0 = Instant::now();
    let senders: Vec<_> = SMOKE_PROPERTIES
        .chunks(2)
        .map(|props| {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                for p in props {
                    let reply = engine.submit(&request(p)).expect("smoke submit succeeds");
                    assert!(!reply.cache_hit, "every smoke property must run cold");
                }
            })
        })
        .collect();
    for s in senders {
        s.join().expect("smoke sender panicked");
    }
    t0.elapsed().as_micros() as u64
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
    let n = samples();

    if smoke {
        // Alternate the two pool sizes so host drift hits both alike.
        let (mut w1, mut w2) = (u64::MAX, u64::MAX);
        for _ in 0..n {
            w1 = w1.min(pool_batch_us(1));
            w2 = w2.min(pool_batch_us(2));
        }
        let (w1, w2) = (w1 as f64, w2 as f64);
        if w2 > w1 * SMOKE_TOLERANCE {
            eprintln!(
                "SMOKE FAIL: workers=2 batch min {w2} us exceeds workers=1 batch min {w1} us \
                 by more than {:.0}%",
                (SMOKE_TOLERANCE - 1.0) * 100.0
            );
            std::process::exit(1);
        }
        eprintln!(
            "smoke ok: workers=2 batch min {w2} us vs workers=1 batch min {w1} us \
             over {n} samples each"
        );
        return;
    }

    let service = site::checkout_bench();
    let property = parse_property(FIG2_PROPERTY).expect("Fig. 2 property parses");

    // 1. The full toggle-scaled search, via the verifier directly.
    let full = entry(&service, &property, n, false);

    // 2. Slicing on vs off. The cone of `forall p . G (!ship(p) | paid)`
    // reaches ship, paid, pick_pid and their feeding inputs but none of
    // the bench toggle flags, so the sliced search is the checkout
    // core's — the reduction is the slicer's headline.
    let sliced = entry(&service, &property, n, true);
    // Kind identity, not structural equality: `Holds` carries the
    // explored-node count, which slicing legitimately shrinks.
    assert!(
        matches!(full.verdict, Verdict::Holds { .. })
            && matches!(sliced.verdict, Verdict::Holds { .. }),
        "slicing must preserve the Fig. 2 verdict"
    );
    assert!(
        sliced.stats.nodes_interned < full.stats.nodes_interned,
        "slicing must shrink the search on the toggle-scaled service"
    );
    let pct = |part: u64, whole: u64| -> i64 {
        part.saturating_mul(100)
            .checked_div(whole)
            .unwrap_or_default() as i64
    };
    let node_reduction_pct = 100
        - pct(
            sliced.stats.nodes_interned as u64,
            full.stats.nodes_interned as u64,
        );
    let wall_reduction_pct = 100 - pct(sliced.wall_us_min, full.wall_us_min);
    eprintln!(
        "slice: {} -> {} nodes (-{node_reduction_pct}%), {} -> {} us min wall \
         (-{wall_reduction_pct}%), {} rules / {} relations sliced",
        full.stats.nodes_interned,
        sliced.stats.nodes_interned,
        full.wall_us_min,
        sliced.wall_us_min,
        sliced.stats.sliced_rules,
        sliced.stats.sliced_relations
    );
    let slice_report = Json::Obj(vec![
        ("samples".into(), Json::Int(n as i64)),
        (
            "off".into(),
            Json::Obj(vec![
                ("wall_us_min".into(), Json::Int(full.wall_us_min as i64)),
                (
                    "nodes_interned".into(),
                    Json::Int(full.stats.nodes_interned as i64),
                ),
            ]),
        ),
        (
            "on".into(),
            Json::Obj(vec![
                ("wall_us_min".into(), Json::Int(sliced.wall_us_min as i64)),
                (
                    "wall_us_median".into(),
                    Json::Int(sliced.wall_us_median as i64),
                ),
                ("wall_us_max".into(), Json::Int(sliced.wall_us_max as i64)),
                (
                    "nodes_interned".into(),
                    Json::Int(sliced.stats.nodes_interned as i64),
                ),
                (
                    "sliced_rules".into(),
                    Json::Int(sliced.stats.sliced_rules as i64),
                ),
                (
                    "sliced_relations".into(),
                    Json::Int(sliced.stats.sliced_relations as i64),
                ),
            ]),
        ),
        ("node_reduction_pct".into(), Json::Int(node_reduction_pct)),
        ("wall_reduction_pct".into(), Json::Int(wall_reduction_pct)),
    ]);

    // 3. Cold vs. cache-hit timings through the service.
    let engine = Engine::new(EngineOptions::default());
    let req = request(FIG2_PROPERTY);
    let t0 = Instant::now();
    let cold = engine.submit(&req).expect("cold submit succeeds");
    let cold_us = t0.elapsed().as_micros() as u64;
    assert!(!cold.cache_hit, "first submission must miss the cache");
    let mut hit_us_min = u64::MAX;
    for _ in 0..n.max(10) {
        let t0 = Instant::now();
        let hit = engine.submit(&req).expect("warm submit succeeds");
        hit_us_min = hit_us_min.min(t0.elapsed().as_micros() as u64);
        assert!(hit.cache_hit, "repeat submission must hit the cache");
        assert_eq!(
            hit.outcome_bytes, cold.outcome_bytes,
            "cache hit must replay byte-identical outcome"
        );
    }
    eprintln!("service: cold {cold_us} us, best cache hit {hit_us_min} us");

    let report = Json::Obj(vec![
        ("bench".into(), Json::str("symbolic")),
        ("service".into(), Json::str(SERVICE)),
        ("property".into(), Json::str(FIG2_PROPERTY)),
        ("samples".into(), Json::Int(n as i64)),
        ("unsliced".into(), full.json),
        ("slice_sweep".into(), slice_report),
        (
            "cache".into(),
            Json::Obj(vec![
                ("fingerprint".into(), Json::str(cold.fingerprint.to_hex())),
                ("cold_us".into(), Json::Int(cold_us as i64)),
                ("hit_us_min".into(), Json::Int(hit_us_min as i64)),
            ]),
        ),
    ]);
    std::fs::write(&out, report.encode() + "\n").expect("write report");
    println!("wrote {}", out.display());
}
