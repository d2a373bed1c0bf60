//! Per-layer metrics of a traced run, named after the module whose
//! public function each span wraps.
//!
//! Times are mean microseconds per call (self time: a span's duration
//! minus its children's), so a layer's number moves only when that
//! layer's own work changes. Counts and ratios come from the values the
//! calls returned.

use crate::common::{metric, Metric};
use crate::pipeline::Counts;
use crate::trace::{Totals, Tracer};

/// The fleet re-join drill that ends every traced run.
#[derive(Default)]
pub struct Drill {
    pub rejoin_ms: f64,
    pub replayed_records: u64,
    pub replicated_applied: u64,
}

/// Readings that do not come from spans.
pub struct Extras {
    pub journal_bytes: f64,
    pub drill: Drill,
    pub calib_ms: f64,
    pub overhead_pct: f64,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

pub fn compute(tr: &Tracer, c: &Counts, x: &Extras) -> Vec<Metric> {
    let totals = tr.totals();
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let own = |name: &str| get(name).self_us();
    let mean = |name: &str| get(name).mean_us();

    // engine.submit minus the stage self times the re-enactment
    // accounts for, per request that has both.
    let submits = tr.durations_us("engine.submit");
    let stages = tr.stage_sums_us("pipeline");
    let gaps: Vec<f64> = submits
        .iter()
        .filter_map(|(rid, s)| stages.get(rid).map(|st| s - st))
        .collect();
    let unattributed = if gaps.is_empty() {
        0.0
    } else {
        gaps.iter().sum::<f64>() / gaps.len() as f64
    };

    let verify_us = mean("symbolic.verify");
    let search_us = ratio(c.search_ns, c.verifies) / 1e3;
    let router: Totals = get("router.submit");
    vec![
        metric("engine.submit_us", mean("engine.submit"), "us"),
        metric("engine.unattributed_us", unattributed, "us"),
        metric("parser.parse_us", own("parser.parse"), "us"),
        metric("precheck.us", own("precheck"), "us"),
        metric("fingerprint.us", own("fingerprint"), "us"),
        metric("cache.get_us", own("cache.get"), "us"),
        metric("cache.insert_us", own("cache.insert"), "us"),
        metric(
            "cache.hit_ratio",
            ratio(c.cache_hits, c.cache_gets),
            "ratio",
        ),
        metric("cache.journal_bytes", x.journal_bytes, "bytes"),
        metric("slice.us", own("slice"), "us"),
        metric(
            "slice.rules_removed",
            ratio(c.rules_removed, c.slices),
            "count",
        ),
        metric("tiers.key_us", own("tiers.key"), "us"),
        metric("tiers.probe_us", own("tiers.probe"), "us"),
        metric("tiers.store_us", own("tiers.store"), "us"),
        metric(
            "tiers.verdict_hit_ratio",
            ratio(c.tier_hits, c.tier_probes),
            "ratio",
        ),
        metric(
            "tiers.automaton_hit_ratio",
            ratio(c.buchi_lookups - c.translations, c.buchi_lookups),
            "ratio",
        ),
        metric("ltl2buchi.us", own("ltl2buchi"), "us"),
        metric(
            "ltl2buchi.states",
            ratio(c.buchi_states, c.translations),
            "count",
        ),
        metric("scheduler.dispatch_us", own("scheduler"), "us"),
        metric("symbolic.verify_us", verify_us, "us"),
        metric("symbolic.search_us", search_us, "us"),
        metric("symbolic.prep_us", verify_us - search_us, "us"),
        metric(
            "symbolic.nodes_interned",
            ratio(c.nodes, c.verifies),
            "count",
        ),
        metric(
            "symbolic.dedup_ratio",
            ratio(c.dedup_hits, c.dedup_hits + c.nodes),
            "ratio",
        ),
        metric(
            "symbolic.memo_hit_ratio",
            ratio(c.memo_hits, c.memo_hits + c.memoized),
            "ratio",
        ),
        metric(
            "symbolic.peak_frontier",
            ratio(c.peak_frontier, c.verifies),
            "count",
        ),
        metric(
            "symbolic.nodes_per_ms",
            ratio(c.nodes * 1_000_000, c.search_ns),
            "1/ms",
        ),
        metric("codec.encode_us", own("codec.encode"), "us"),
        metric("codec.decode_us", own("codec.decode"), "us"),
        metric("server.handle_line_us", mean("server.handle_line"), "us"),
        metric("net.connect_us", mean("net.connect"), "us"),
        metric("router.submit_us", router.mean_us(), "us"),
        metric(
            "net.overhead_us",
            router.mean_us() - mean("server.handle_line"),
            "us",
        ),
        metric("fleet.rejoin_ms", x.drill.rejoin_ms, "ms"),
        metric(
            "fleet.replayed_records",
            x.drill.replayed_records as f64,
            "count",
        ),
        metric(
            "shipper.replicated_applied",
            x.drill.replicated_applied as f64,
            "count",
        ),
        metric("host.calib_ms", x.calib_ms, "ms"),
        metric("trace.overhead_pct", x.overhead_pct, "%"),
    ]
}
