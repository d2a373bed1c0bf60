//! Differential test for the admission split.
//!
//! [`admit`] decides admission with only the lint passes that can emit
//! an error; [`precheck`] runs every pass. For every input below the two
//! must agree on admit-or-refuse and on the class, and a refusal from
//! `admit` must be the very `Precheck` that `precheck` returns — same
//! reason, same report bytes.
//!
//! Inputs: every wave-qa generator candidate for seeds `0..SEEDS`
//! *before* the admissibility filter (so inadmissible ones are
//! included), every boundary construction of `wave-reductions`, and the
//! serving registry — including its deliberately inadmissible
//! `unrestricted` service.

use wave_core::provenance::ServiceSources;
use wave_core::service::Service;
use wave_logic::parser::parse_property;
use wave_logic::temporal::Property;
use wave_reductions::deps::{self, Dep};
use wave_reductions::{qbf, tm};
use wave_verifier::precheck::{admit, precheck};

/// Generator seeds covered: the CI `qa-fuzz` campaign's.
const SEEDS: u64 = 500;

/// Checks one input; returns whether it was refused.
fn agree(
    label: &str,
    service: &Service,
    sources: Option<&ServiceSources>,
    property: Option<&Property>,
) -> bool {
    let full = precheck(service, sources, property);
    match admit(service, sources, property) {
        Ok(class) => {
            assert!(
                full.admissible(),
                "{label}: admit admitted what precheck refuses: {:?}",
                full.refusal()
            );
            assert_eq!(class, full.class, "{label}: class");
            false
        }
        Err(refused) => {
            assert!(
                !full.admissible(),
                "{label}: admit refused what precheck admits"
            );
            assert_eq!(refused.class, full.class, "{label}: class");
            assert_eq!(refused.refusal(), full.refusal(), "{label}: reason");
            assert_eq!(
                refused.report.to_json(),
                full.report.to_json(),
                "{label}: report"
            );
            assert_eq!(
                format!("{:?}", refused.report),
                format!("{:?}", full.report),
                "{label}: report"
            );
            true
        }
    }
}

#[test]
fn generator_candidates_before_the_filter() {
    let (mut checked, mut refused) = (0, 0);
    for seed in 0..SEEDS {
        let specs: Vec<_> = wave_qa::gen::candidates(seed).collect();
        for (attempt, spec) in specs.iter().enumerate() {
            // A candidate that does not build never reaches admission;
            // `generate` skips it the same way.
            let Ok((service, sources)) = spec.build() else {
                continue;
            };
            // Its own property, and — so that refusals are exercised
            // too — the next candidate's, whose vocabulary (pages,
            // relations, arities) often does not fit this service.
            let other = &specs[(attempt + 1) % specs.len()].property;
            for (which, text) in [("own", &spec.property), ("crossed", other)] {
                let Ok(property) = parse_property(text) else {
                    continue;
                };
                let label = format!("seed {seed} attempt {attempt} {which} property `{text}`");
                checked += 1;
                refused += agree(&label, &service, Some(&sources), Some(&property)) as usize;
            }
        }
    }
    eprintln!("{checked} generator inputs, {refused} refused");
    assert!(checked >= 2 * SEEDS as usize, "{checked} inputs checked");
    assert!(refused > 0, "no input exercised a refusal");
}

#[test]
fn boundary_constructions() {
    let mut refused = 0;
    for seed in 0..8 {
        let service = qbf::encode(&qbf::random_qbf(2, 3, seed));
        refused += agree(&format!("qbf seed {seed}"), &service, None, None) as usize;
    }
    for (name, machine) in [
        ("halting", tm::sample_halting()),
        ("looping", tm::sample_looping()),
    ] {
        let service = tm::encode(&machine);
        let property = tm::never_halts_property(&machine);
        refused += agree(&format!("tm {name}"), &service, None, None) as usize;
        refused += agree(
            &format!("tm {name} never halts"),
            &service,
            None,
            Some(&property),
        ) as usize;
    }
    let fd = |lhs: Vec<usize>, rhs| Dep::Fd { lhs, rhs };
    let ind = Dep::Ind {
        lhs: vec![0],
        rhs: vec![1],
    };
    for (label, given, sigma, arity) in [
        (
            "fd chain",
            vec![fd(vec![0], 1), fd(vec![1], 2)],
            fd(vec![0], 2),
            3,
        ),
        ("fd alone", vec![fd(vec![0], 1)], fd(vec![0], 2), 3),
        ("ind to fd", vec![ind.clone()], fd(vec![0], 1), 2),
        ("fd to ind", vec![fd(vec![0], 1)], ind.clone(), 2),
    ] {
        let service = deps::encode(&given, &sigma, arity);
        refused += agree(&format!("deps {label}"), &service, None, None) as usize;
    }
    // Theorem 3.7's machine encoding is outside input-boundedness.
    assert!(refused >= 2, "{refused} boundary constructions refused");
}

#[test]
fn registry_services() {
    for name in wave_serve::registry::names() {
        let (service, sources) =
            wave_serve::registry::resolve_with_sources(name).expect("registered");
        agree(name, &service, Some(&sources), None);
    }
    let (service, sources) =
        wave_serve::registry::resolve_with_sources("unrestricted").expect("registered");
    let property = parse_property("G s").expect("parses");
    assert!(agree(
        "unrestricted :: G s",
        &service,
        Some(&sources),
        Some(&property)
    ));
    // A property-only refusal on a decidable service (W015).
    let (service, sources) =
        wave_serve::registry::resolve_with_sources("full_site").expect("registered");
    let property = parse_property("forall p . G (!ship(p) | paid)").expect("parses");
    assert!(agree(
        "full_site :: W015",
        &service,
        Some(&sources),
        Some(&property)
    ));
}
