//! EXP-T1 — Theorem 3.5: symbolic LTL-FO verification.
//!
//! Reproduced shape: PSPACE-complete for fixed schema arity (tame growth
//! in the number of pages), EXPSPACE without the arity bound (explosive
//! growth in the state-relation arity, since configurations carry
//! `|C|^arity` state tuples).

use wave_bench::harness::{criterion_group, criterion_main, BenchmarkId, Criterion};

use wave_bench::{arity_service, page_ring};
use wave_logic::parser::parse_property;
use wave_verifier::symbolic::{verify_ltl, SymbolicOptions};

fn pages_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("T1_pages_fixed_arity");
    g.sample_size(10);
    for n in [2usize, 4, 8, 12] {
        let service = page_ring(n);
        // Pressing `go` on the home page moves to P1 — a property whose
        // negation automaton forces full exploration of the ring.
        let prop = parse_property("G (!(P0 & go) | X P1)").unwrap();
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let out = verify_ltl(&service, &prop, &SymbolicOptions::default()).unwrap();
                assert!(out.holds());
            })
        });
        let out = verify_ltl(&service, &prop, &SymbolicOptions::default()).unwrap();
        println!("  [stats] pages={n}: {}", out.stats);
    }
    g.finish();
}

fn arity_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("T1_state_arity");
    g.sample_size(10);
    // arity 3 already exceeds memory-friendly budgets — the EXPSPACE
    // wall; 1→2 shows the multiplicative jump.
    for arity in [1usize, 2] {
        let service = arity_service(arity);
        // ∀x̄: once seen, a tuple was picked from the domain — trivially
        // true, but the verifier must close the arity-sized state space.
        let prop = parse_property("G P").unwrap();
        g.bench_with_input(BenchmarkId::from_parameter(arity), &arity, |b, _| {
            b.iter(|| {
                let out = verify_ltl(&service, &prop, &SymbolicOptions::default()).unwrap();
                assert!(out.holds());
            })
        });
        let out = verify_ltl(&service, &prop, &SymbolicOptions::default()).unwrap();
        println!("  [stats] arity={arity}: {}", out.stats);
    }
    g.finish();
}

criterion_group!(benches, pages_sweep, arity_sweep);
criterion_main!(benches);
