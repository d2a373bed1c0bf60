//! Seeded generation of small, decidable-by-construction fuzz cases.
//!
//! Every generated service is lint-clean and inside the paper's
//! decidable classes *by construction*: rule bodies and navigation
//! guards are quantifier-free (always input-bounded, §3), input options
//! rules guard their head variables with database atoms, and properties
//! are drawn from templates the admission gate accepts. The generator
//! still runs [`wave_verifier::precheck::precheck`] on every candidate
//! and regenerates (with a salted seed) on the rare refusal, so the
//! differential driver only ever sees admissible requests — a refusal
//! after the retry cap is itself a finding.
//!
//! Three service shapes are produced, exercising the three engine legs:
//!
//! * **fully propositional** — no database, everything arity 0
//!   (Theorem 4.6 territory; symbolic and enumerative must agree
//!   exactly, and the CTL path applies);
//! * **propositional-with-data** — a database gates navigation but
//!   states stay arity 0 (Theorem 4.4 territory; the CTL path still
//!   applies per database);
//! * **input-bounded with data flow** — positive-arity input and state
//!   relations carry database values through insertions and deletions
//!   (Theorem 3.5 territory; symbolic vs enumerative only).

use wave_rng::{Rng, SplitMix64};

use crate::spec::{PageSpec, RuleSpec, ServiceSpec};

/// One generated case.
#[derive(Clone, Debug)]
pub struct Case {
    /// The seed that produced it (reproduces the case exactly).
    pub seed: u64,
    /// The generated spec.
    pub spec: ServiceSpec,
}

/// How many salted attempts to make before declaring the generator
/// itself broken.
const MAX_ATTEMPTS: u64 = 64;

/// Generates the case for `seed`. Deterministic; panics only if
/// `MAX_ATTEMPTS` consecutive candidates are inadmissible, which
/// would be a generator bug worth crashing on.
pub fn generate(seed: u64) -> Case {
    candidates(seed)
        .find(admissible)
        .map(|spec| Case { seed, spec })
        .unwrap_or_else(|| {
            panic!(
                "seed {seed}: no admissible candidate in {MAX_ATTEMPTS} attempts — generator bug"
            )
        })
}

/// Every salted candidate [`generate`] may try for `seed`, in order and
/// *before* the admission filter, so inadmissible ones are included.
pub fn candidates(seed: u64) -> impl Iterator<Item = ServiceSpec> {
    (0..MAX_ATTEMPTS).map(move |attempt| {
        let mut rng = SplitMix64::seed_from_u64(seed ^ attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        candidate(&mut rng)
    })
}

/// True when the spec builds and passes the admission gate together
/// with its property.
pub fn admissible(spec: &ServiceSpec) -> bool {
    let Ok((service, sources)) = spec.build() else {
        return false;
    };
    let Ok(property) = wave_logic::parser::parse_property(&spec.property) else {
        return false;
    };
    wave_verifier::precheck::precheck(&service, Some(&sources), Some(&property)).admissible()
}

fn candidate(rng: &mut SplitMix64) -> ServiceSpec {
    let shape = rng.gen_range(0usize..3);
    let n_pages = rng.gen_range(2usize..5);
    let n_gprops = rng.gen_range(1usize..3);
    let n_sprops = rng.gen_range(0usize..3);
    let with_db = shape > 0;
    let with_data_flow = shape == 2;

    let mut spec = ServiceSpec {
        home: "P0".into(),
        ..ServiceSpec::default()
    };
    for g in 0..n_gprops {
        spec.input_props.push(format!("g{g}"));
    }
    for s in 0..n_sprops {
        spec.state_props.push(format!("s{s}"));
    }
    if with_db {
        spec.db_rels.push(("r0".into(), 1));
    }
    if with_data_flow {
        spec.input_rels.push(("pick".into(), 1));
        spec.state_rels.push(("st".into(), 1));
    }

    // Guard vocabulary: literals over input props and (previous) state
    // props — quantifier-free, hence always input-bounded.
    let mut guard_atoms: Vec<String> = (0..n_gprops).map(|g| format!("g{g}")).collect();
    for s in 0..n_sprops {
        guard_atoms.push(format!("s{s}"));
    }
    if with_db {
        // A ground database atom gates navigation through the data.
        guard_atoms.push("r0(\"k\")".to_string());
    }
    let guard = |rng: &mut SplitMix64| -> String {
        let lit = |rng: &mut SplitMix64| {
            let a = rng.choose(&guard_atoms).unwrap().clone();
            if rng.gen_bool(0.3) {
                format!("!{a}")
            } else {
                a
            }
        };
        match rng.gen_range(0usize..4) {
            0 | 1 => lit(rng),
            2 => format!("({} & {})", lit(rng), lit(rng)),
            _ => format!("({} | {})", lit(rng), lit(rng)),
        }
    };

    for i in 0..n_pages {
        let mut page = PageSpec {
            name: format!("P{i}"),
            ..PageSpec::default()
        };
        for g in 0..n_gprops {
            if g == 0 || rng.gen_bool(0.7) {
                page.solicits.push(format!("g{g}"));
            }
        }
        if with_data_flow && rng.gen_bool(0.7) {
            page.input_rules.push(RuleSpec {
                rel: "pick".into(),
                vars: vec!["y".into()],
                body: "r0(y)".into(),
            });
            if rng.gen_bool(0.6) {
                page.inserts.push(RuleSpec {
                    rel: "st".into(),
                    vars: vec!["y".into()],
                    body: "pick(y)".into(),
                });
            }
            if rng.gen_bool(0.3) {
                page.deletes.push(RuleSpec {
                    rel: "st".into(),
                    vars: vec!["y".into()],
                    body: "st(y) & pick(y)".into(),
                });
            }
        }
        for s in 0..n_sprops {
            if rng.gen_bool(0.4) {
                page.inserts.push(RuleSpec {
                    rel: format!("s{s}"),
                    vars: vec![],
                    body: guard(rng),
                });
            }
            if rng.gen_bool(0.2) {
                page.deletes.push(RuleSpec {
                    rel: format!("s{s}"),
                    vars: vec![],
                    body: guard(rng),
                });
            }
        }
        // A ring edge keeps every page reachable; extra edges (possibly
        // overlapping, which exercises the error-page semantics) are
        // layered on top.
        page.targets
            .push((format!("P{}", (i + 1) % n_pages), "g0".into()));
        if rng.gen_bool(0.5) {
            let j = rng.gen_range(0..n_pages);
            page.targets
                .push((format!("P{j}"), format!("(!g0 & {})", guard(rng))));
        }
        if rng.gen_bool(0.25) {
            let j = rng.gen_range(0..n_pages);
            page.targets.push((format!("P{j}"), guard(rng)));
        }
        spec.pages.push(page);
    }

    if with_db {
        for v in ["a", "b", "k"] {
            if rng.gen_bool(0.5) {
                spec.facts.push(("r0".into(), vec![v.to_string()]));
            }
        }
    }

    spec.property = property(rng, &spec, n_pages, n_gprops, n_sprops, with_data_flow);
    spec
}

/// A fresh random property over `spec`'s vocabulary — the mutation the
/// incremental leg ([`crate::inc`]) uses for its property-swap edit.
/// Assumes the generator's page naming (`P0..Pn`); on a hand-written
/// spec the result may be inadmissible, which callers must tolerate.
pub fn random_property(spec: &ServiceSpec, rng: &mut SplitMix64) -> String {
    property(
        rng,
        spec,
        spec.pages.len(),
        spec.input_props.len(),
        spec.state_props.len(),
        !spec.input_rels.is_empty(),
    )
}

/// A random property: mostly a small LTL tree over the propositional
/// vocabulary; occasionally a quantified data template (Example 3.4
/// style) when the service carries data flow.
fn property(
    rng: &mut SplitMix64,
    spec: &ServiceSpec,
    n_pages: usize,
    n_gprops: usize,
    n_sprops: usize,
    with_data_flow: bool,
) -> String {
    if with_data_flow && rng.gen_bool(0.3) {
        return match rng.gen_range(0usize..3) {
            0 => "G !(exists y . pick(y))".to_string(),
            1 => "forall x . G (!(exists q . (pick(q) & q = x)) | r0(x))".to_string(),
            _ => "forall x . ((!st(x)) B (exists q . (pick(q) & q = x)))".to_string(),
        };
    }
    let mut atoms: Vec<String> = (0..n_pages).map(|i| format!("P{i}")).collect();
    for g in 0..n_gprops {
        atoms.push(format!("g{g}"));
    }
    for s in 0..n_sprops {
        atoms.push(format!("s{s}"));
    }
    if !spec.db_rels.is_empty() {
        atoms.push("r0(\"k\")".to_string());
    }
    ltl(rng, &atoms, 3)
}

/// A random LTL formula of depth at most `depth`, fully parenthesized.
fn ltl(rng: &mut SplitMix64, atoms: &[String], depth: usize) -> String {
    if depth == 0 || rng.gen_bool(0.25) {
        return rng.choose(atoms).unwrap().clone();
    }
    let d = depth - 1;
    match rng.gen_range(0usize..8) {
        0 => format!("!({})", ltl(rng, atoms, d)),
        1 => format!("({} & {})", ltl(rng, atoms, d), ltl(rng, atoms, d)),
        2 => format!("({} | {})", ltl(rng, atoms, d), ltl(rng, atoms, d)),
        3 => format!("X ({})", ltl(rng, atoms, d)),
        4 => format!("F ({})", ltl(rng, atoms, d)),
        5 => format!("G ({})", ltl(rng, atoms, d)),
        6 => format!("({} U {})", ltl(rng, atoms, d), ltl(rng, atoms, d)),
        _ => format!("({} B {})", ltl(rng, atoms, d), ltl(rng, atoms, d)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in 0..10 {
            assert_eq!(generate(seed).spec, generate(seed).spec, "seed {seed}");
        }
    }

    #[test]
    fn generated_cases_are_admissible_and_round_trip() {
        for seed in 0..25 {
            let case = generate(seed);
            assert!(admissible(&case.spec), "seed {seed}");
            let text = case.spec.to_source();
            let back = ServiceSpec::parse(&text).expect("repro text parses");
            assert_eq!(back, case.spec, "seed {seed} round trip");
        }
    }

    #[test]
    fn all_three_shapes_appear() {
        let (mut fully, mut with_db, mut data_flow) = (false, false, false);
        for seed in 0..40 {
            let spec = generate(seed).spec;
            if spec.db_rels.is_empty() {
                fully = true;
            } else if spec.input_rels.is_empty() {
                with_db = true;
            } else {
                data_flow = true;
            }
        }
        assert!(
            fully && with_db && data_flow,
            "{fully} {with_db} {data_flow}"
        );
    }
}
