//! Golden byte-identity test for the symbolic search.
//!
//! Records, for a fixed set of (service, property) pairs, the exact
//! `Debug` bytes of the verdict (lassos included) and the deterministic
//! search counters `nodes_interned`, `dedup_hits`,
//! `successors_memoized` and `pruned`. Any change to the search's
//! representation that alters exploration order, deduplication, store
//! subsumption or rendering shows up here as a diff against the
//! checked-in fixture.
//!
//! The cases: the Fig. 2 payment-safety property and three violated
//! properties on `checkout_bench` (two of them also unsliced), the
//! demo-site properties on `checkout_core`, error-freeness of the demo
//! sites, and the first [`QA_SEEDS`] wave-qa seeds (generated services
//! with their generated properties).
//!
//! To regenerate after a deliberate change, run
//! `cargo test -p wave-qa --test verdict_golden -- --nocapture`:
//! the failure message prints the full actual fixture between
//! `--- actual ---` and `--- end ---`.

use wave_core::service::Service;
use wave_demo::site;
use wave_logic::parser::parse_property;
use wave_verifier::symbolic::{is_error_free, verify_ltl, SymbolicOptions, VerifyOutcome};

/// wave-qa seeds `0..QA_SEEDS` are part of the fixture.
const QA_SEEDS: u64 = 300;

/// Node budget for the generated cases: the one wave-qa's base leg uses.
const QA_NODE_LIMIT: usize = 300_000;

fn record(out: &mut String, name: &str, outcome: &VerifyOutcome) {
    let s = &outcome.stats;
    out.push_str(&format!(
        "case {name}\nverdict {:?}\nstats nodes_interned={} dedup_hits={} successors_memoized={} \
         pruned={}\n",
        outcome.verdict, s.nodes_interned, s.dedup_hits, s.successors_memoized, s.pruned
    ));
}

fn ltl(out: &mut String, label: &str, service: &Service, property: &str, opts: &SymbolicOptions) {
    let p = parse_property(property).expect("fixture property parses");
    let outcome = verify_ltl(service, &p, opts).expect("fixture case is admissible");
    record(out, &format!("{label} :: {property}"), &outcome);
}

fn actual() -> String {
    let opts = SymbolicOptions::default();
    let mut out = String::new();

    let bench = site::checkout_bench();
    for property in [
        "forall p . G (!ship(p) | paid)",
        "forall p . G !ship(p)",
        "G !paid",
        "forall p . F ship(p)",
    ] {
        ltl(&mut out, "checkout_bench", &bench, property, &opts);
    }

    let core = site::checkout_core();
    for property in [
        "forall p . G (!ship(p) | paid)",
        "G (!COP | paid)",
        "G !COP",
    ] {
        ltl(&mut out, "checkout_core", &core, property, &opts);
    }
    // Unsliced: the toggle flags stay in the state space.
    let unsliced = SymbolicOptions {
        slice: false,
        ..SymbolicOptions::default()
    };
    for property in ["forall p . G !ship(p)", "G !paid"] {
        ltl(
            &mut out,
            "checkout_bench unsliced",
            &bench,
            property,
            &unsliced,
        );
    }

    for (label, service) in [
        ("checkout_core", core.clone()),
        ("audit_site", site::audit_site()),
        ("navigation", site::navigation_abstraction()),
    ] {
        let outcome = is_error_free(&service, &opts).expect("demo sites are input-bounded");
        record(&mut out, &format!("{label} :: error-free"), &outcome);
    }

    let qa_opts = SymbolicOptions {
        node_limit: QA_NODE_LIMIT,
        ..SymbolicOptions::default()
    };
    for seed in 0..QA_SEEDS {
        let case = wave_qa::gen::generate(seed);
        let (service, _) = case.spec.build().expect("generated specs build");
        ltl(
            &mut out,
            &format!("qa-seed-{seed}"),
            &service,
            &case.spec.property,
            &qa_opts,
        );
    }
    out
}

#[test]
fn verdicts_and_counters_match_the_golden_fixture() {
    let actual = actual();
    let expected = include_str!("golden/verdicts.txt");
    if actual != expected {
        let first = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .unwrap_or_else(|| actual.lines().count().min(expected.lines().count()));
        panic!(
            "verdict golden mismatch at line {}\n--- actual ---\n{actual}--- end ---\n\
             update tests/golden/verdicts.txt only if this change is deliberate",
            first + 1
        );
    }
}
