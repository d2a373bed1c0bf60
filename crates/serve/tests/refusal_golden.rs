//! Golden byte-identity test for admission refusals.
//!
//! Records, for two refused requests, the exact `NotAdmissible` class,
//! one-line reason and lint `report_json` the engine answers with:
//!
//! * the registry's `unrestricted` service (outside every decidable
//!   class: an unguarded quantifier, W004);
//! * `full_site` with a property that gets `ship`'s arity wrong (W015:
//!   `ship` has arity 2 there, arity 1 in `checkout_core`).
//!
//! A refusal carries the full lint report — advisory warnings and notes
//! included — so a change to how admission runs the lint passes shows up
//! here as a diff against the checked-in fixture.
//!
//! To regenerate after a deliberate change, run
//! `cargo test -p wave-serve --test refusal_golden -- --nocapture`: the
//! failure message prints the full actual fixture between
//! `--- actual ---` and `--- end ---`.

use wave_serve::codec::{Mode, VerifyRequest};
use wave_serve::engine::{Engine, EngineOptions, SubmitError};

const CASES: &[(&str, &str)] = &[
    ("unrestricted", "G s"),
    ("full_site", "forall p . G (!ship(p) | paid)"),
];

fn actual() -> String {
    let engine = Engine::new(EngineOptions::default());
    let mut out = String::new();
    for (service, property) in CASES {
        let req = VerifyRequest {
            service: (*service).into(),
            property: (*property).into(),
            mode: Mode::Ltl,
            node_limit: 0,
            threads: 1,
            deadline_us: 0,
            check_owner: false,
        };
        match engine.submit(&req) {
            Err(SubmitError::NotAdmissible {
                class,
                reason,
                report_json,
            }) => out.push_str(&format!(
                "case {service} :: {property}\nclass {}\nreason {reason}\nreport {report_json}\n",
                class.wire_name()
            )),
            other => panic!("{service} :: {property} must be refused, got {other:?}"),
        }
    }
    out
}

#[test]
fn refusals_match_the_golden_fixture() {
    let actual = actual();
    let expected = include_str!("golden/refusals.txt");
    if actual != expected {
        panic!(
            "refusal golden mismatch\n--- actual ---\n{actual}--- end ---\n\
             update tests/golden/refusals.txt only if this change is deliberate"
        );
    }
}
