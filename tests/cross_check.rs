//! Cross-validation of the two LTL-FO verifiers.
//!
//! The symbolic verifier (Theorem 3.5) quantifies over *all* databases;
//! the enumerative baseline is exact for one fixed database. Agreement
//! obligations:
//!
//! * symbolic `Holds` ⇒ enumerative `Holds` on every sampled database;
//! * enumerative `Violated` on some database ⇒ symbolic `Violated`.

use wave::core::{Service, ServiceBuilder};
use wave::logic::parser::parse_property;
use wave::verifier::dbgen;
use wave::verifier::enumerative::{verify_ltl_on_db, EnumOptions};
use wave::verifier::symbolic::{verify_ltl, SymbolicOptions};

fn toggle() -> Service {
    let mut b = ServiceBuilder::new("P");
    b.input_relation("go", 0)
        .page("P")
        .input_prop_on_page("go")
        .target("Q", "go")
        .page("Q")
        .input_prop_on_page("go")
        .target("P", "go");
    b.build().unwrap()
}

fn gated() -> Service {
    // Database-dependent branch: Q reachable only when open("k").
    let mut b = ServiceBuilder::new("P");
    b.database_relation("open", 1)
        .input_relation("go", 0)
        .page("P")
        .input_prop_on_page("go")
        .target("Q", r#"go & open("k")"#)
        .page("Q");
    b.build().unwrap()
}

fn picker() -> Service {
    let mut b = ServiceBuilder::new("P");
    b.database_relation("item", 1)
        .input_relation("pick", 1)
        .state_relation("chosen", 1)
        .page("P")
        .input_rule("pick", &["y"], "item(y)")
        .insert_rule("chosen", &["y"], "pick(y)");
    b.build().unwrap()
}

fn agree(service: &Service, prop_src: &str) {
    let p = parse_property(prop_src).unwrap();
    let sym = verify_ltl(service, &p, &SymbolicOptions::default()).unwrap();
    assert!(
        !matches!(sym.verdict, wave::verifier::symbolic::Verdict::LimitReached),
        "symbolic must finish on these services"
    );

    // Sample databases: the bounded enumeration plus a few random ones.
    let mut dbs = dbgen::enumerate(&service.schema, 2, Some(40));
    let mut rng = wave_rng::SplitMix64::seed_from_u64(1);
    for _ in 0..5 {
        dbs.push(dbgen::random_db(&service.schema, 3, 0.4, &mut rng));
    }
    let mut any_violation = false;
    for db in &dbs {
        let out = verify_ltl_on_db(service, db, &p, &EnumOptions::default()).unwrap();
        match out {
            wave::verifier::enumerative::EnumOutcome::Holds { .. } => {}
            wave::verifier::enumerative::EnumOutcome::Violated { .. } => {
                any_violation = true;
                assert!(
                    sym.violated(),
                    "enumerative found a violation of `{prop_src}` on {db:?} \
                     but the symbolic verifier says it holds"
                );
            }
            wave::verifier::enumerative::EnumOutcome::LimitReached
            | wave::verifier::enumerative::EnumOutcome::Cancelled => {}
        }
    }
    if sym.holds() {
        assert!(
            !any_violation,
            "symbolic holds for `{prop_src}` but a database violates it"
        );
    }
}

#[test]
fn toggle_properties_agree() {
    let s = toggle();
    for prop in [
        "G (P | Q)",
        "F Q",
        "P B Q",
        "(P U Q) | G P",
        "G !Q",
        "X (P | Q)",
    ] {
        agree(&s, prop);
    }
}

#[test]
fn gated_properties_agree() {
    let s = gated();
    for prop in ["G !Q", "G (P | Q)", "F Q"] {
        agree(&s, prop);
    }
}

#[test]
fn picker_properties_agree() {
    let s = picker();
    for prop in [
        "G !(exists y . pick(y))",
        "forall x . G (!(exists q . (pick(q) & q = x)) | item(x))",
        "G P",
    ] {
        agree(&s, prop);
    }
}

#[test]
fn symbolic_counterexamples_are_db_realizable() {
    // When the symbolic verifier reports a violation whose cause is a
    // database fact, some concrete database realizes it.
    let s = gated();
    let p = parse_property("G !Q").unwrap();
    let sym = verify_ltl(&s, &p, &SymbolicOptions::default()).unwrap();
    assert!(sym.violated());
    let mut db = wave::logic::instance::Instance::new();
    db.insert("open", wave::logic::tuple!["k"]);
    let out = verify_ltl_on_db(&s, &db, &p, &EnumOptions::default()).unwrap();
    assert!(
        !out.holds(),
        "the witness database must violate the property"
    );
}

#[test]
fn error_freeness_agrees_with_enumerative_reachability() {
    // The toggle service is error-free; a constant-requesting self-loop
    // service is not. Check both engines agree through the G ¬err lens.
    let s = toggle();
    let ef = wave::verifier::symbolic::is_error_free(&s, &SymbolicOptions::default()).unwrap();
    assert!(ef.holds());
    let p = parse_property(&format!("G !{}", s.error_page)).unwrap();
    let db = wave::logic::instance::Instance::new();
    let out = verify_ltl_on_db(&s, &db, &p, &EnumOptions::default()).unwrap();
    assert!(out.holds());

    let mut b = ServiceBuilder::new("P");
    b.input_constant("c")
        .input_relation("go", 0)
        .page("P")
        .solicit_constant("c")
        .input_prop_on_page("go");
    let bad = b.build().unwrap();
    let ef = wave::verifier::symbolic::is_error_free(&bad, &SymbolicOptions::default()).unwrap();
    assert!(ef.violated(), "self-loop re-requests `c`");
    let p = parse_property(&format!("G !{}", bad.error_page)).unwrap();
    let out = verify_ltl_on_db(&bad, &db, &p, &EnumOptions::default()).unwrap();
    assert!(!out.holds());
}
