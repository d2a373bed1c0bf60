//! # wave-lint
//!
//! A multi-pass static analyzer for data-driven Web service
//! specifications, front-ending the `wave` verifier the way VERIFAS
//! fronts its: the paper's whole decidability frontier is *syntactic*
//! (input-boundedness, §3; the propositional classes, §4), so a precise
//! static pass can tell — before any search — whether verification will
//! be decidable, which procedure applies, and *why* a service falls
//! outside the fragment.
//!
//! Passes, over a [`wave_core::Service`] plus an optional
//! [`wave_logic::temporal::Property`]:
//!
//! 1. **Input-boundedness blame** ([`passes::bounded`]): every
//!    [`wave_logic::bounded::BoundedError`] mapped to a span-carrying
//!    diagnostic with the guarded rewrite §3 requires (`W004`–`W008`).
//! 2. **Class explanation** ([`passes::classes`]): which decidable class,
//!    which theorem's procedure, and per-rule blame for the class missed
//!    (`W020`–`W022`).
//! 3. **Vocabulary/arity** ([`passes::vocab`]): undeclared relations and
//!    constants, arity mismatches, state dataflow (`W001`–`W003`,
//!    `W010`–`W011`).
//! 4. **Rule graph** ([`passes::graph`]): pages unreachable from home,
//!    trivially unsatisfiable guards (`W012`–`W013`).
//! 5. **Property–service mismatch** ([`passes::property`]): property
//!    vocabulary absent from the schema, non-input-bounded property with
//!    a decidable service (`W014`–`W016`).
//!
//! Spans come from the parser's provenance side-table
//! ([`wave_logic::span::SpanTable`], threaded through
//! [`wave_core::provenance::ServiceSources`]); the `Formula` AST and its
//! fingerprinting are untouched. Diagnostics render human-readable
//! ([`Report::render_human`]) or as deterministic JSON
//! ([`Report::to_json`]) for golden tests and the `wave-serve` admission
//! path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diag;
pub mod json;
pub mod passes;
pub mod report;

pub use diag::{codes, Diagnostic, Label, Severity};
pub use report::{admission_errors, lint, Report, ADMISSION_VERSION};
