//! # wave-qa
//!
//! The cross-engine differential oracle for the verifier stack.
//!
//! The workspace ships three independent decision procedures for
//! overlapping fragments of the PODS 2004 decidability map — the
//! symbolic LTL-FO engine (Theorem 3.5), the explicit-state enumerative
//! baseline, and the propositional CTL(\*) path (Theorem 4.4 / 4.6) —
//! plus a concrete interpreter (Definition 2.3) that all of them claim
//! to abstract. Where the fragments overlap, the engines have *no
//! excuse to disagree*; where a verdict carries a counterexample, the
//! interpreter can re-execute it. `wave-qa` turns both facts into an
//! oracle:
//!
//! * [`gen`] — seeded generation of small services and properties that
//!   are lint-clean and decidable-by-construction;
//! * [`diff`] — the differential driver: every applicable engine,
//!   slice on and off, permutation and renaming metamorphoses, and
//!   concrete replay of every counterexample;
//! * [`inc`] — the incremental leg: seeded edit sequences replayed
//!   through a warm `wave-serve` engine, demanding byte-identical
//!   verdicts against cold runs and zero search on no-op edits;
//! * [`shrink`] — greedy minimization of anything that trips;
//! * [`spec`] — the data-level service representation with a parseable
//!   text form, so shrunk repros can be checked in as regression tests.
//!
//! The `wave-qa` binary (`--seeds N --budget SECS --json`) runs a
//! campaign and exits nonzero with a shrunk repro on any flaw — it is
//! wired into CI as the `qa-fuzz` job.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;
pub mod gen;
pub mod inc;
pub mod shrink;
pub mod spec;

use diff::{DiffOptions, FlawKind};
use spec::ServiceSpec;

/// Generates, diffs, and (on failure) shrinks one seed. Returns the
/// report and, when flawed, the shrunk repro spec.
pub fn run_seed(seed: u64, opts: &DiffOptions) -> (diff::CaseReport, Option<ServiceSpec>) {
    let case = gen::generate(seed);
    let report = diff::run_case(seed, &case.spec, opts);
    if report.clean() {
        return (report, None);
    }
    let kinds: Vec<FlawKind> = report.flaws.iter().map(|f| f.kind).collect();
    let still_fails = |s: &ServiceSpec| {
        let r = diff::run_case(seed, s, opts);
        kinds.iter().any(|k| r.flaws.iter().any(|f| f.kind == *k))
    };
    let min = shrink::shrink(&case.spec, &still_fails);
    (report, Some(min))
}

/// Generates and runs one seed through the incremental leg (no shrink:
/// the seed itself reproduces the edit sequence exactly).
pub fn run_inc_seed(seed: u64, opts: &inc::IncOptions) -> inc::IncReport {
    let case = gen::generate(seed);
    inc::run_incremental_case(seed, &case.spec, opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The in-tree mini-campaign: every seed in the range must come back
    /// clean. The CI `qa-fuzz` job runs the same loop at 200 seeds in
    /// release mode; this keeps a smaller always-on slice in `cargo test`.
    #[test]
    fn campaign_seeds_are_clean() {
        let opts = DiffOptions::default();
        for seed in 0..12 {
            let (report, repro) = run_seed(seed, &opts);
            assert!(
                report.clean(),
                "seed {seed} flawed: {:?}\nrepro:\n{}",
                report.flaws,
                repro.map(|s| s.to_source()).unwrap_or_default()
            );
        }
    }
}
