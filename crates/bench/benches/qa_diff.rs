//! EXP-QA — throughput of the `wave-qa` differential oracle.
//!
//! Measures one full differential case (generation, the three engine
//! legs, slicing on and off, both metamorphoses, and concrete replay
//! of every counterexample) per seed, for one seed of each generated
//! service shape. This is the cost model behind the CI `qa-fuzz` job's
//! seed budget: 200 seeds complete in well under the job's 120 s
//! campaign budget on a developer machine.

use wave_bench::harness::{criterion_group, criterion_main, BenchmarkId, Criterion};

use wave_qa::diff::{run_case, DiffOptions};
use wave_qa::gen::generate;

fn differential_case(c: &mut Criterion) {
    let mut g = c.benchmark_group("QA_differential_case");
    g.sample_size(10);
    // Seeds covering the three generator shapes (fully propositional,
    // propositional-with-data, input-bounded data flow — see
    // `wave_qa::gen`): verified by the shape assertions in wave-qa's
    // own tests, picked here for stability.
    for seed in [0u64, 2, 7] {
        let case = generate(seed);
        let opts = DiffOptions::default();
        g.bench_with_input(BenchmarkId::from_parameter(seed), &seed, |b, _| {
            b.iter(|| {
                let report = run_case(case.seed, &case.spec, &opts);
                assert!(report.clean(), "{:?}", report.flaws);
            })
        });
    }
    g.finish();
}

criterion_group!(benches, differential_case);
criterion_main!(benches);
