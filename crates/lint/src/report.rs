//! The pass driver and the two renderers.
//!
//! [`lint`] runs every pass over a service (plus an optional property),
//! dedups findings reported by more than one pass, and sorts them into a
//! deterministic order — `(page, rule, span start, code)` — so both the
//! human renderer and the JSON renderer are byte-stable for a given
//! input.
//!
//! The passes fall into two groups. The **error-capable** passes
//! (`bounded`, `vocab`, `property`) are the only ones that can emit an
//! error-severity diagnostic, so they alone decide admission;
//! [`admission_errors`] runs just them. The **advisory** passes
//! (`graph`, `dead`, `classes`) emit only warnings and notes: they
//! explain a service but never refuse it. The two groups emit disjoint
//! codes, and both the dedup key and the sort key include the code, so
//! running the groups one after the other orders a report exactly as
//! interleaving them would.

use std::collections::BTreeSet;

use wave_core::classify::{classify, ServiceClass};
use wave_core::provenance::ServiceSources;
use wave_core::service::Service;
use wave_logic::span::Span;
use wave_logic::temporal::Property;

use crate::diag::{Diagnostic, Severity};
use crate::json;
use crate::passes;

/// The result of linting one service.
#[derive(Clone, Debug)]
pub struct Report {
    /// The decidable class the service falls into.
    pub class: ServiceClass,
    /// All findings, deduped and deterministically ordered.
    pub diagnostics: Vec<Diagnostic>,
}

/// Version of the admission rules: the error-severity diagnostics and
/// the class rules of [`wave_core::classify`]. Bump it when any
/// error-severity rule or any class rule changes. Serving caches only
/// admitted content and replays it without re-checking, so its cache
/// key carries this version: an entry admitted under other rules is
/// then unreachable and never replayed.
pub const ADMISSION_VERSION: u32 = 1;

/// Runs every pass. `sources` (from
/// [`wave_core::builder::ServiceBuilder::build_with_sources`]) enables
/// spans; without it diagnostics carry page/rule context only.
pub fn lint(
    service: &Service,
    sources: Option<&ServiceSources>,
    property: Option<&Property>,
) -> Report {
    let cls = classify(service);
    let class = cls.class();
    let mut out = Vec::new();
    error_capable(service, sources, property, class, &mut out);
    passes::graph::run(service, sources, &mut out);
    passes::dead::run(service, sources, property, &mut out);
    passes::classes::run(service, &cls, &mut out);
    // Dedup: the bounded checker stops at the first undeclared relation it
    // meets, which the vocabulary pass reports too.
    let mut seen = BTreeSet::new();
    out.retain(|d| seen.insert((d.code, d.page.clone(), d.rule.clone(), d.message.clone())));
    out.sort_by(|a, b| sort_key(a).cmp(&sort_key(b)));
    Report {
        class,
        diagnostics: out,
    }
}

/// True when an error-capable pass finds an error-severity diagnostic
/// for a service of `class`: exactly when [`lint`]'s report would
/// [have errors](Report::has_errors), without running the advisory
/// passes.
pub fn admission_errors(
    service: &Service,
    sources: Option<&ServiceSources>,
    property: Option<&Property>,
    class: ServiceClass,
) -> bool {
    let mut out = Vec::new();
    error_capable(service, sources, property, class, &mut out);
    out.iter().any(|d| d.severity == Severity::Error)
}

/// The passes that can emit an error-severity diagnostic.
fn error_capable(
    service: &Service,
    sources: Option<&ServiceSources>,
    property: Option<&Property>,
    class: ServiceClass,
    out: &mut Vec<Diagnostic>,
) {
    passes::bounded::run(service, sources, out);
    passes::vocab::run(service, sources, out);
    if let Some(p) = property {
        passes::property::run(service, p, class, out);
    }
}

fn sort_key(d: &Diagnostic) -> (String, String, usize, &'static str) {
    (
        d.page.clone(),
        d.rule.clone(),
        d.span.map(|s| s.start).unwrap_or(usize::MAX),
        d.code,
    )
}

impl Report {
    /// True when any finding has error severity (admission must refuse).
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// `(errors, warnings, notes)` counts.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for d in &self.diagnostics {
            match d.severity {
                Severity::Error => c.0 += 1,
                Severity::Warning => c.1 += 1,
                Severity::Note => c.2 += 1,
            }
        }
        c
    }

    /// Renders for a terminal: rustc-style, one block per diagnostic.
    /// With `sources`, spans are shown as underlined source snippets.
    pub fn render_human(&self, sources: Option<&ServiceSources>) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&format!("{}[{}]: {}\n", d.severity, d.code, d.message));
            let src = sources.and_then(|s| s.rule(&d.page, &d.rule));
            if !d.page.is_empty() {
                let loc = match (d.span, src) {
                    (Some(span), Some(rs)) => {
                        let (l, c) = span.line_col(&rs.text);
                        format!("{}:{l}:{c}", context(&d.page, &d.rule))
                    }
                    _ => context(&d.page, &d.rule),
                };
                out.push_str(&format!("  --> {loc}\n"));
            }
            if let (Some(span), Some(rs)) = (d.span, src) {
                out.push_str(&snippet(&rs.text, span, ""));
                for l in &d.labels {
                    out.push_str(&snippet(&rs.text, l.span, &l.message));
                }
            }
            for n in &d.notes {
                out.push_str(&format!("  = note: {n}\n"));
            }
            if let Some(s) = &d.suggestion {
                out.push_str(&format!("  = help: {s}\n"));
            }
            out.push('\n');
        }
        let (e, w, n) = self.counts();
        out.push_str(&format!(
            "service is {}; {e} error(s), {w} warning(s), {n} note(s)\n",
            self.class
        ));
        out
    }

    /// Machine-readable report. Deterministic: same input, same bytes.
    pub fn to_json(&self) -> String {
        let (e, w, n) = self.counts();
        let diags: Vec<String> = self.diagnostics.iter().map(diag_json).collect();
        json::object(&[
            ("class", json::string(self.class.wire_name())),
            ("errors", e.to_string()),
            ("warnings", w.to_string()),
            ("notes", n.to_string()),
            ("diagnostics", json::array(&diags)),
        ])
    }
}

fn context(page: &str, rule: &str) -> String {
    if rule.is_empty() {
        page.to_string()
    } else {
        format!("{page}/{rule}")
    }
}

/// An underlined excerpt of the line containing `span`.
fn snippet(text: &str, span: Span, label: &str) -> String {
    let (line_no, col) = span.line_col(text);
    let line = text.lines().nth(line_no as usize - 1).unwrap_or("");
    let col0 = col as usize - 1;
    let width = span
        .snippet(text)
        .lines()
        .next()
        .unwrap_or("")
        .chars()
        .count()
        .max(1);
    let mut out = format!("   | {line}\n");
    out.push_str(&format!(
        "   | {}{}{}{}\n",
        " ".repeat(col0),
        "^".repeat(width),
        if label.is_empty() { "" } else { " " },
        label
    ));
    out
}

fn span_json(s: Span) -> String {
    json::object(&[("start", s.start.to_string()), ("end", s.end.to_string())])
}

fn diag_json(d: &Diagnostic) -> String {
    let mut fields: Vec<(&str, String)> = vec![
        ("code", json::string(d.code)),
        ("severity", json::string(d.severity.as_str())),
        ("page", json::string(&d.page)),
        ("rule", json::string(&d.rule)),
        ("message", json::string(&d.message)),
    ];
    if let Some(s) = d.span {
        fields.push(("span", span_json(s)));
    }
    if !d.labels.is_empty() {
        let labels: Vec<String> = d
            .labels
            .iter()
            .map(|l| {
                json::object(&[
                    ("start", l.span.start.to_string()),
                    ("end", l.span.end.to_string()),
                    ("message", json::string(&l.message)),
                ])
            })
            .collect();
        fields.push(("labels", json::array(&labels)));
    }
    if !d.notes.is_empty() {
        let notes: Vec<String> = d.notes.iter().map(|n| json::string(n)).collect();
        fields.push(("notes", json::array(&notes)));
    }
    if let Some(s) = &d.suggestion {
        fields.push(("suggestion", json::string(s)));
    }
    json::object(&fields)
}
