//! The admission gate: lint before search.
//!
//! Every decision procedure in this crate is complete only *inside* the
//! paper's decidable classes — outside them verification is undecidable
//! (Theorems 3.7–3.9, 4.2), and a search would be a silent best-effort
//! run dressed up as a verdict. [`precheck`] runs the `wave-lint` passes
//! over a request up front and decides, before any state is explored,
//! whether the verifier should accept it at all.
//!
//! A request is **admissible** when its lint report carries no
//! error-severity diagnostics and the service falls into one of the
//! decidable classes. The full [`Report`] rides along either way, so a
//! caller refusing a request can forward precise, span-carrying blame
//! instead of a bare "not input-bounded".
//!
//! [`admit`] reaches the same decision more cheaply: it classifies once
//! and runs only the lint passes that can emit an error, and builds the
//! full [`Precheck`] only for a refusal. A server admitting a request
//! needs the class, not the advisory warnings and notes.

use wave_core::classify::{classify, ServiceClass};
use wave_core::provenance::ServiceSources;
use wave_core::service::Service;
use wave_lint::{admission_errors, lint, Report};
use wave_logic::temporal::Property;

pub use wave_lint::ADMISSION_VERSION;

/// The outcome of the admission gate: the class the service fell into
/// and the full lint report backing the decision.
#[derive(Clone, Debug)]
pub struct Precheck {
    /// The decidable class the service falls into.
    pub class: ServiceClass,
    /// The full lint report, deterministically ordered.
    pub report: Report,
}

impl Precheck {
    /// True when a verifier may take this request: the report has no
    /// errors and the service is in a decidable class.
    pub fn admissible(&self) -> bool {
        !self.report.has_errors() && self.class != ServiceClass::Unrestricted
    }

    /// A one-line refusal reason, or `None` when admissible.
    pub fn refusal(&self) -> Option<String> {
        if self.admissible() {
            return None;
        }
        let (errors, _, _) = self.report.counts();
        Some(if self.class == ServiceClass::Unrestricted {
            format!(
                "service is outside the decidable classes ({errors} lint \
                 error(s)); verification is undecidable in general \
                 (Theorems 3.7\u{2013}3.9)"
            )
        } else {
            format!(
                "request fails static analysis with {errors} lint error(s) \
                 even though the service is {}",
                self.class
            )
        })
    }
}

/// Lints `service` (and the property, when verifying one) and gates.
/// `sources` enables span-carrying diagnostics; pass `None` when the
/// service was built programmatically.
pub fn precheck(
    service: &Service,
    sources: Option<&ServiceSources>,
    property: Option<&Property>,
) -> Precheck {
    let report = lint(service, sources, property);
    Precheck {
        class: report.class,
        report,
    }
}

/// Admits or refuses a request like [`precheck`], without running the
/// advisory lint passes on an admissible one. Returns the service's
/// class when the request is admissible; a refusal carries the very
/// [`Precheck`] that [`precheck`] would return (same reason, same
/// report).
pub fn admit(
    service: &Service,
    sources: Option<&ServiceSources>,
    property: Option<&Property>,
) -> Result<ServiceClass, Precheck> {
    let class = classify(service).class();
    if class == ServiceClass::Unrestricted || admission_errors(service, sources, property, class) {
        return Err(precheck(service, sources, property));
    }
    Ok(class)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wave_core::builder::ServiceBuilder;
    use wave_logic::parser::parse_property;

    #[test]
    fn demo_services_are_admissible() {
        for (service, sources) in [
            wave_demo::site::full_site_with_sources(),
            wave_demo::site::checkout_core_with_sources(),
        ] {
            let pre = precheck(&service, Some(&sources), None);
            assert!(pre.admissible(), "{:?}", pre.report.diagnostics);
            assert!(pre.refusal().is_none());
            assert_eq!(admit(&service, Some(&sources), None).ok(), Some(pre.class));
        }
    }

    #[test]
    fn unguarded_quantifier_is_refused_with_blame() {
        let mut b = ServiceBuilder::new("P");
        b.database_relation("d", 1)
            .state_prop("s")
            .page("P")
            .insert_rule("s", &[], "exists x . d(x)");
        let (service, sources) = b.build_with_sources().expect("valid vocabulary");
        let pre = precheck(&service, Some(&sources), None);
        assert_eq!(pre.class, ServiceClass::Unrestricted);
        assert!(!pre.admissible());
        let reason = pre.refusal().expect("must refuse");
        assert!(reason.contains("undecidable"), "{reason}");
        assert!(
            pre.report
                .diagnostics
                .iter()
                .any(|d| d.code == wave_lint::codes::UNGUARDED_QUANTIFIER),
            "{:?}",
            pre.report.diagnostics
        );
    }

    #[test]
    fn property_errors_refuse_even_a_decidable_service() {
        let (service, sources) = wave_demo::site::checkout_core_with_sources();
        let p = parse_property("G nonexistent_relation").expect("parses");
        let pre = precheck(&service, Some(&sources), Some(&p));
        assert_ne!(pre.class, ServiceClass::Unrestricted);
        assert!(!pre.admissible());
        assert!(pre.refusal().unwrap().contains("static analysis"));
        let refused = admit(&service, Some(&sources), Some(&p)).expect_err("must refuse");
        assert_eq!(refused.refusal(), pre.refusal());
        assert_eq!(refused.report.to_json(), pre.report.to_json());
    }
}
