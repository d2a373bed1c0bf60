//! An ergonomic builder for Web service specifications.
//!
//! Rule bodies are written in the surface syntax of
//! [`wave_logic::parser`], with the rule's head variables declared as free
//! variables — every other identifier in term position is a named
//! constant, matching the paper's conventions. Errors (parse failures,
//! schema clashes, validation violations) are accumulated and reported
//! together by [`ServiceBuilder::build`].
//!
//! ```
//! use wave_core::ServiceBuilder;
//!
//! let mut b = ServiceBuilder::new("HP");
//! b.database_relation("user", 2)
//!     .input_relation("button", 1)
//!     .state_prop("logged_in")
//!     .input_constant("name")
//!     .input_constant("password")
//!     .page("HP")
//!     .solicit_constant("name")
//!     .solicit_constant("password")
//!     .input_rule("button", &["x"], r#"x = "login" | x = "clear""#)
//!     .insert_rule("logged_in", &[], r#"user(name, password) & button("login")"#)
//!     .target("CP", r#"user(name, password) & button("login")"#)
//!     .page("CP");
//! let service = b.build().unwrap();
//! assert_eq!(service.pages.len(), 2);
//! ```

use std::collections::BTreeMap;
use std::fmt;

use wave_logic::parser::{parse_fo_spanned, ParseError};
use wave_logic::schema::{ConstKind, RelKind, Schema, SchemaError};

use crate::page::Page;
use crate::provenance::ServiceSources;
use crate::rules::{ActionRule, InputRule, StateRule, TargetRule};
use crate::service::{Service, ValidationError};

/// An error accumulated during building.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// A rule body failed to parse.
    Parse {
        /// Page the rule belongs to.
        page: String,
        /// Rule description.
        rule: String,
        /// The parser's complaint.
        err: ParseError,
    },
    /// Schema construction failed.
    Schema(SchemaError),
    /// A rule was added before any page was opened.
    NoCurrentPage {
        /// Rule description.
        rule: String,
    },
    /// Definition 2.1 validation failed.
    Validation(ValidationError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Parse { page, rule, err } => {
                write!(f, "page `{page}`, rule `{rule}`: {err}")
            }
            BuildError::Schema(e) => write!(f, "schema error: {e}"),
            BuildError::NoCurrentPage { rule } => {
                write!(f, "rule `{rule}` added before any page")
            }
            BuildError::Validation(e) => write!(f, "validation: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Builder for [`Service`].
#[derive(Clone, Debug)]
pub struct ServiceBuilder {
    schema: Schema,
    pages: BTreeMap<String, Page>,
    page_order: Vec<String>,
    home: String,
    error_page: String,
    current: Option<String>,
    errors: Vec<BuildError>,
    sources: ServiceSources,
}

impl ServiceBuilder {
    /// Starts a builder; `home` is the home page name (the page itself is
    /// declared later with [`Self::page`]).
    pub fn new(home: impl Into<String>) -> Self {
        ServiceBuilder {
            schema: Schema::new(),
            pages: BTreeMap::new(),
            page_order: Vec::new(),
            home: home.into(),
            error_page: "__error__".into(),
            current: None,
            errors: Vec::new(),
            sources: ServiceSources::new(),
        }
    }

    fn add_rel(&mut self, name: &str, arity: usize, kind: RelKind) -> &mut Self {
        if let Err(e) = self.schema.add_relation(name, arity, kind) {
            self.errors.push(BuildError::Schema(e));
        }
        self
    }

    /// Declares a database relation.
    pub fn database_relation(&mut self, name: &str, arity: usize) -> &mut Self {
        self.add_rel(name, arity, RelKind::Database)
    }

    /// Declares a state relation.
    pub fn state_relation(&mut self, name: &str, arity: usize) -> &mut Self {
        self.add_rel(name, arity, RelKind::State)
    }

    /// Declares a propositional state.
    pub fn state_prop(&mut self, name: &str) -> &mut Self {
        self.state_relation(name, 0)
    }

    /// Declares an input relation (`prev_<name>` is derived automatically
    /// for positive arity).
    pub fn input_relation(&mut self, name: &str, arity: usize) -> &mut Self {
        self.add_rel(name, arity, RelKind::Input)
    }

    /// Declares an action relation.
    pub fn action_relation(&mut self, name: &str, arity: usize) -> &mut Self {
        self.add_rel(name, arity, RelKind::Action)
    }

    /// Declares a propositional action.
    pub fn action_prop(&mut self, name: &str) -> &mut Self {
        self.action_relation(name, 0)
    }

    /// Declares a database constant.
    pub fn database_constant(&mut self, name: &str) -> &mut Self {
        if let Err(e) = self.schema.add_constant(name, ConstKind::Database) {
            self.errors.push(BuildError::Schema(e));
        }
        self
    }

    /// Declares an input constant (`const(I)`).
    pub fn input_constant(&mut self, name: &str) -> &mut Self {
        if let Err(e) = self.schema.add_constant(name, ConstKind::Input) {
            self.errors.push(BuildError::Schema(e));
        }
        self
    }

    /// Opens (or reopens) a page; subsequent rule calls attach to it.
    pub fn page(&mut self, name: &str) -> &mut Self {
        if !self.pages.contains_key(name) {
            self.pages.insert(name.to_string(), Page::new(name));
            self.page_order.push(name.to_string());
            if let Err(e) = self.schema.add_relation(name, 0, RelKind::Page) {
                self.errors.push(BuildError::Schema(e));
            }
        }
        self.current = Some(name.to_string());
        self
    }

    fn with_page(&mut self, rule: &str, f: impl FnOnce(&mut Page)) -> &mut Self {
        match self.current.clone() {
            Some(p) => {
                let page = self.pages.get_mut(&p).expect("current page exists");
                f(page);
            }
            None => self
                .errors
                .push(BuildError::NoCurrentPage { rule: rule.into() }),
        }
        self
    }

    /// Adds an input constant solicitation to the current page.
    pub fn solicit_constant(&mut self, c: &str) -> &mut Self {
        self.with_page(c, |p| p.input_constants.push(c.to_string()))
    }

    fn parse(&mut self, rule: &str, vars: &[&str], src: &str) -> Option<wave_logic::Formula> {
        let page = self.current.clone().unwrap_or_default();
        match parse_fo_spanned(src, vars) {
            Ok((f, spans)) => {
                self.sources.record(&page, rule, src, spans);
                Some(f)
            }
            Err(err) => {
                self.errors.push(BuildError::Parse {
                    page,
                    rule: rule.into(),
                    err,
                });
                None
            }
        }
    }

    /// Adds a relational input with its options rule to the current page.
    pub fn input_rule(&mut self, rel: &str, vars: &[&str], body: &str) -> &mut Self {
        let parsed = self.parse(&format!("Options_{rel}"), vars, body);
        self.with_page(rel, |p| {
            if !p.inputs.contains(&rel.to_string()) {
                p.inputs.push(rel.to_string());
            }
            if let Some(f) = parsed {
                p.input_rules.push(InputRule {
                    relation: rel.to_string(),
                    vars: vars.iter().map(|v| v.to_string()).collect(),
                    body: f,
                });
            }
        })
    }

    /// Adds a propositional input (no options rule needed) to the page.
    pub fn input_prop_on_page(&mut self, rel: &str) -> &mut Self {
        self.with_page(rel, |p| {
            if !p.inputs.contains(&rel.to_string()) {
                p.inputs.push(rel.to_string());
            }
        })
    }

    /// Adds (or extends) a state insertion rule.
    pub fn insert_rule(&mut self, rel: &str, vars: &[&str], body: &str) -> &mut Self {
        let parsed = self.parse(&format!("+{rel}"), vars, body);
        self.with_page(rel, |p| {
            if let Some(f) = parsed {
                if let Some(r) = p.state_rules.iter_mut().find(|r| r.relation == rel) {
                    r.insert = Some(f);
                } else {
                    p.state_rules.push(StateRule {
                        relation: rel.to_string(),
                        vars: vars.iter().map(|v| v.to_string()).collect(),
                        insert: Some(f),
                        delete: None,
                    });
                }
            }
        })
    }

    /// Adds (or extends) a state deletion rule.
    pub fn delete_rule(&mut self, rel: &str, vars: &[&str], body: &str) -> &mut Self {
        let parsed = self.parse(&format!("-{rel}"), vars, body);
        self.with_page(rel, |p| {
            if let Some(f) = parsed {
                if let Some(r) = p.state_rules.iter_mut().find(|r| r.relation == rel) {
                    r.delete = Some(f);
                } else {
                    p.state_rules.push(StateRule {
                        relation: rel.to_string(),
                        vars: vars.iter().map(|v| v.to_string()).collect(),
                        insert: None,
                        delete: Some(f),
                    });
                }
            }
        })
    }

    /// Adds an action rule.
    pub fn action_rule(&mut self, rel: &str, vars: &[&str], body: &str) -> &mut Self {
        let parsed = self.parse(rel, vars, body);
        self.with_page(rel, |p| {
            if let Some(f) = parsed {
                p.action_rules.push(ActionRule {
                    relation: rel.to_string(),
                    vars: vars.iter().map(|v| v.to_string()).collect(),
                    body: f,
                });
            }
        })
    }

    /// Adds a target rule.
    pub fn target(&mut self, page: &str, body: &str) -> &mut Self {
        let parsed = self.parse(&format!("target {page}"), &[], body);
        self.with_page(page, |p| {
            if let Some(f) = parsed {
                p.target_rules.push(TargetRule {
                    target: page.to_string(),
                    body: f,
                });
            }
        })
    }

    /// Finishes: validates Definition 2.1 and returns the service or all
    /// accumulated errors.
    pub fn build(&self) -> Result<Service, Vec<BuildError>> {
        let mut errors = self.errors.clone();
        let service = Service {
            schema: self.schema.clone(),
            pages: self.pages.clone(),
            home: self.home.clone(),
            error_page: self.error_page.clone(),
        };
        if errors.is_empty() {
            if let Err(es) = service.validate() {
                errors.extend(es.into_iter().map(BuildError::Validation));
            }
        }
        if errors.is_empty() {
            Ok(service)
        } else {
            Err(errors)
        }
    }

    /// Like [`Self::build`], but also returns the rule sources recorded
    /// during parsing, for span-carrying diagnostics.
    pub fn build_with_sources(&self) -> Result<(Service, ServiceSources), Vec<BuildError>> {
        self.build().map(|s| (s, self.sources.clone()))
    }

    /// The rule sources recorded so far (also available on build failure).
    pub fn sources(&self) -> &ServiceSources {
        &self.sources
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doc_example_builds() {
        let mut b = ServiceBuilder::new("HP");
        b.database_relation("user", 2)
            .input_relation("button", 1)
            .state_prop("logged_in")
            .input_constant("name")
            .input_constant("password")
            .page("HP")
            .solicit_constant("name")
            .solicit_constant("password")
            .input_rule("button", &["x"], r#"x = "login" | x = "clear""#)
            .insert_rule(
                "logged_in",
                &[],
                r#"user(name, password) & button("login")"#,
            )
            .target("CP", r#"user(name, password) & button("login")"#)
            .page("CP");
        let s = b.build().unwrap();
        assert_eq!(s.home, "HP");
        assert!(s.page("HP").unwrap().input_rule("button").is_some());
    }

    #[test]
    fn sources_recorded_per_rule() {
        let mut b = ServiceBuilder::new("HP");
        b.database_relation("user", 2)
            .input_relation("button", 1)
            .state_prop("logged_in")
            .input_constant("name")
            .input_constant("password")
            .page("HP")
            .solicit_constant("name")
            .solicit_constant("password")
            .input_rule("button", &["x"], r#"x = "login""#)
            .insert_rule(
                "logged_in",
                &[],
                r#"user(name, password) & button("login")"#,
            );
        let (_, sources) = b.build_with_sources().unwrap();
        assert_eq!(sources.len(), 2);
        let src = sources.rule("HP", "+logged_in").unwrap();
        assert_eq!(src.text, r#"user(name, password) & button("login")"#);
        let span = src.spans.atom_span("user").unwrap();
        assert_eq!(src.snippet(span), "user(name, password)");
        assert!(sources.rule("HP", "Options_button").is_some());
    }

    #[test]
    fn parse_errors_reported_with_location() {
        let mut b = ServiceBuilder::new("HP");
        b.input_relation("button", 1)
            .page("HP")
            .input_rule("button", &["x"], "x = "); // syntax error
        let errs = b.build().unwrap_err();
        assert!(matches!(&errs[0], BuildError::Parse { page, .. } if page == "HP"));
    }

    #[test]
    fn rule_before_page_reported() {
        let mut b = ServiceBuilder::new("HP");
        b.state_prop("s").insert_rule("s", &[], "true");
        let errs = b.build().unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, BuildError::NoCurrentPage { .. })));
    }

    #[test]
    fn validation_errors_surface() {
        let mut b = ServiceBuilder::new("HP");
        b.page("HP").target("NOWHERE", "true");
        let errs = b.build().unwrap_err();
        assert!(errs.iter().any(|e| matches!(
            e,
            BuildError::Validation(ValidationError::UnknownTargetPage { .. })
        )));
    }

    #[test]
    fn insert_and_delete_merge_into_one_state_rule() {
        let mut b = ServiceBuilder::new("P");
        b.state_prop("flag")
            .input_relation("go", 0)
            .page("P")
            .input_prop_on_page("go")
            .insert_rule("flag", &[], "go")
            .delete_rule("flag", &[], "!go");
        let s = b.build().unwrap();
        let p = s.page("P").unwrap();
        assert_eq!(p.state_rules.len(), 1);
        assert!(p.state_rules[0].insert.is_some());
        assert!(p.state_rules[0].delete.is_some());
    }

    #[test]
    fn duplicate_schema_decl_reported() {
        let mut b = ServiceBuilder::new("P");
        b.state_prop("s").database_relation("s", 1).page("P");
        let errs = b.build().unwrap_err();
        assert!(errs.iter().any(|e| matches!(e, BuildError::Schema(_))));
    }
}
