//! The symbolic product search: Theorem 3.5's decision procedure.
//!
//! The negated property is abstracted over its FO components into
//! propositional LTL, translated to a Büchi automaton, and the product
//! with the symbolic configuration graph is searched for an accepting
//! lasso with nested DFS. By the Periodic-Run Lemma a lasso exists iff
//! some database and user behaviour produce a violating run; by the
//! freshness discipline of the symbolic semantics the lasso is always
//! realizable (soundness).
//!
//! # Architecture: interned ids, memoized successors, one thread
//!
//! Every configuration the search derives is hash-consed to a dense
//! config id by a configuration table (a
//! [`wave_automata::interner::Interner`]); product nodes are
//! `(config id, büchi state)` pairs, hash-consed again to dense ids
//! inside the nested DFS. Successor generation is memoized per node, so
//! the inner (red) DFS reuses the lists the outer (blue) DFS derived.
//!
//! On top of that, the engine memoizes the **expensive half** of
//! successor generation — `successors(cfg)` composed with the FO-component
//! letter evaluation — once per *configuration*, as a list of
//! `(config id, letter)` pairs indexed by config id and shared by every
//! Büchi state paired with it. The memo is filled lazily by the search
//! thread: a missing entry is computed on the spot.
//!
//! Each search runs on the calling thread alone. Parallelism lives one
//! level up, across requests, in the serving engine's worker pool
//! (DESIGN.md §3.1): a second thread inside one search saved at most a
//! sixth of an idle sliced run, and cost throughput as soon as two
//! requests ran side by side.
//!
//! # Sharing, not copying
//!
//! Each distinct configuration is allocated once, behind an `Arc` in the
//! configuration table; a re-derived duplicate is dropped as soon as the
//! table finds it. Product nodes, the memo and the red DFS hold `u32`
//! ids. Inside successor generation the knowledge store and the state,
//! action and `prev` sets are shared copy-on-write (see [`SymConfig`]),
//! so a fork in page entry copies only the current inputs.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use wave_core::classify;
use wave_core::service::Service;
use wave_logic::bounded::BoundedError;
use wave_logic::schema::ConstKind;
use wave_logic::temporal::{Property, TemporalClass};

pub use wave_automata::cancel::CancelToken;
use wave_automata::interner::Interner;
use wave_automata::ltl2buchi::{translate_within, TranslateError};
use wave_automata::props::PropSet;
pub use wave_automata::search::SearchStats;
use wave_automata::search::{find_accepting_lasso_stats_with, SearchResult};

use crate::abstraction::{to_pnf, FoAbstraction};

use super::config::SymConfig;
use super::eval::{eval_branching, Ctx};
use super::step::{initial_configs, successors};
use super::table::{CSym, CTable, Sym};

/// The node budget used when a caller passes the degenerate
/// `node_limit == 0` (see [`SymbolicOptions::normalized`]).
pub const DEFAULT_NODE_LIMIT: usize = 500_000;

/// Options for the symbolic verifier.
#[derive(Clone, Debug)]
pub struct SymbolicOptions {
    /// Budget on distinct product nodes. Exhausting it always surfaces
    /// as [`Verdict::LimitReached`] — never as a spurious "holds".
    /// The degenerate value `0` is normalized to [`DEFAULT_NODE_LIMIT`]
    /// (a zero-node search could never answer anything).
    pub node_limit: usize,
    /// Ignored: every search runs on the calling thread. Kept so
    /// callers that still set it compile; parallelism comes from running
    /// several requests at once (the serving engine's worker pool).
    pub threads: usize,
    /// Cooperative cancellation: polled at every node expansion, and on
    /// the LTL→Büchi tableau's work stack. A fired token surfaces as
    /// [`Verdict::Cancelled`] — never a panic. The
    /// default ([`CancelToken::never`]) costs nothing to poll.
    pub cancel: CancelToken,
    /// Run the cone-of-influence slicer (`wave_core::slice`) between
    /// admission and search: rules, pages and relations the property and
    /// the control flow provably cannot observe are removed before the
    /// state space is built. Verdict-preserving (DESIGN.md §12, enforced
    /// by wave-qa's `SliceDivergence` leg); on by default. The slicer
    /// refuses by itself where its argument does not apply, so disabling
    /// this is only useful for differential testing.
    pub slice: bool,
    /// Shared LTL→Büchi translation cache: when set, [`verify_ltl`]
    /// looks the negated property's automaton up by the property's
    /// canonical fingerprint before running the GPVW translation, and
    /// publishes fresh translations back. Sound because the translation
    /// is a deterministic pure function of the property (the FO
    /// abstraction table is built from the property alone, never the
    /// service), and its effect on the outcome is byte-invisible: a hit
    /// skips reconstruction work, nothing else. `None` (the default)
    /// translates every time.
    pub automata: Option<Arc<wave_automata::store::AutomatonCache>>,
}

impl Default for SymbolicOptions {
    fn default() -> Self {
        SymbolicOptions {
            node_limit: DEFAULT_NODE_LIMIT,
            threads: 1,
            cancel: CancelToken::never(),
            slice: true,
            automata: None,
        }
    }
}

impl SymbolicOptions {
    /// Replaces the degenerate `node_limit == 0` with
    /// [`DEFAULT_NODE_LIMIT`]. A literal zero budget would report
    /// [`Verdict::LimitReached`] before interning a single node, which no
    /// caller ever wants; `0` therefore means "default budget".
    ///
    /// Both entry points ([`verify_ltl`], [`is_error_free`]) normalize on
    /// entry, so callers never need to pre-sanitize.
    pub fn normalized(&self) -> SymbolicOptions {
        SymbolicOptions {
            node_limit: if self.node_limit == 0 {
                DEFAULT_NODE_LIMIT
            } else {
                self.node_limit
            },
            ..self.clone()
        }
    }
}

/// Why verification could not start.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SymbolicError {
    /// The service is not input-bounded (Theorem 3.5's hypothesis; the
    /// relaxations are undecidable per Theorems 3.7–3.9).
    ServiceNotInputBounded(Vec<(String, String, BoundedError)>),
    /// The property is not input-bounded.
    PropertyNotInputBounded(BoundedError),
    /// The property contains path quantifiers (Theorem 4.2 shows the
    /// combination is undecidable; use the CTL verifiers on the
    /// propositional classes instead).
    NotLtl,
}

impl fmt::Display for SymbolicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SymbolicError::ServiceNotInputBounded(vs) => {
                write!(f, "service is not input-bounded ({} violations)", vs.len())
            }
            SymbolicError::PropertyNotInputBounded(e) => {
                write!(f, "property is not input-bounded: {e}")
            }
            SymbolicError::NotLtl => write!(f, "property is not LTL-FO"),
        }
    }
}

impl std::error::Error for SymbolicError {}

/// The answer of a verification run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Every run over every database satisfies the property.
    Holds {
        /// Distinct product nodes explored.
        explored: usize,
    },
    /// A violating pseudo-run (realizable by a concrete database and user
    /// behaviour) was found.
    Violated {
        /// Rendered configurations leading into the violating cycle.
        stem: Vec<String>,
        /// The repeating cycle.
        cycle: Vec<String>,
    },
    /// The node budget, or the LTL→Büchi tableau budget
    /// ([`wave_automata::ltl2buchi::MAX_TABLEAU_NODES`]), was exhausted
    /// before an answer — the result is **inconclusive**, not a proof.
    LimitReached,
    /// The run was cancelled (explicit cancel or deadline expiry on
    /// [`SymbolicOptions::cancel`]) before an answer — inconclusive,
    /// like `LimitReached`.
    Cancelled,
    /// The request is quarantined: repeated worker panics on the same
    /// fingerprint convicted the job of crashing its worker, so the
    /// service refuses to run it again and answers with this typed
    /// verdict instead of eroding the pool. Inconclusive, like
    /// `LimitReached`; the verifier itself never produces it — only the
    /// service layer does.
    Poisoned,
}

/// The verdict together with the search counters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifyOutcome {
    /// The answer. Deterministic: byte-identical run to run.
    pub verdict: Verdict,
    /// Interning / memoization / timing counters for this run. Wall
    /// times vary run to run; everything else is deterministic.
    pub stats: SearchStats,
}

impl VerifyOutcome {
    /// True when the property was verified.
    pub fn holds(&self) -> bool {
        matches!(self.verdict, Verdict::Holds { .. })
    }

    /// True when a counterexample was found.
    pub fn violated(&self) -> bool {
        matches!(self.verdict, Verdict::Violated { .. })
    }
}

/// The automaton-tier key for a property: a domain-tagged canonical
/// fingerprint of exactly what the LTL→Büchi translation consumes.
/// Public so hosts persisting the automaton tier (wave-serve) seed
/// recovered entries under the same key [`verify_ltl`] will look up.
pub fn buchi_key(property: &Property) -> u128 {
    use wave_logic::fingerprint::{Canonical, Fnv128};
    let mut h = Fnv128::new();
    h.write_str("wave-inc/buchi/v1");
    property.canon(&mut h);
    h.finish()
}

/// Verifies an input-bounded LTL-FO property on an input-bounded service,
/// over **all** databases and runs (Theorem 3.5).
pub fn verify_ltl(
    service: &Service,
    property: &Property,
    opts: &SymbolicOptions,
) -> Result<VerifyOutcome, SymbolicError> {
    let opts = opts.normalized();
    if property.classify() != TemporalClass::Ltl {
        return Err(SymbolicError::NotLtl);
    }
    let violations = classify::input_bounded_violations(service);
    if !violations.is_empty() {
        return Err(SymbolicError::ServiceNotInputBounded(violations));
    }
    property
        .check_input_bounded(&service.schema)
        .map_err(SymbolicError::PropertyNotInputBounded)?;

    // Cone-of-influence slicing, after admission (so refusals and blame
    // always speak about the service as submitted) and before the state
    // space is built. Dropping rules can only *remove* input-boundedness
    // violations, so the sliced service stays admitted. The slicer
    // refuses (identity slice) wherever its soundness argument does not
    // apply — see `wave_core::slice` and DESIGN.md §12.
    let sliced = if opts.slice {
        Some(wave_core::slice::slice(service, property))
    } else {
        None
    };
    let (service, sliced_rules, sliced_relations) = match &sliced {
        Some(r) => (
            &r.service,
            r.report.sliced_rules(),
            r.report.sliced_relations(),
        ),
        None => (service, 0, 0),
    };

    // ¬φ as a Büchi automaton over FO components. The abstraction table
    // and the PNF are pure functions of the property — never the
    // service — so a shared automaton cache keyed by the property's
    // canonical fingerprint can skip the GPVW translation entirely.
    let mut table = FoAbstraction::default();
    let pnf = to_pnf(&property.body, true, &mut table).ok_or(SymbolicError::NotLtl)?;
    // The tableau is exponential in the formula, so it runs under the
    // request's token and a fixed budget: a refusal is inconclusive, like
    // the search's own stops, and a fired token outranks the budget.
    let translated = match &opts.automata {
        Some(cache) => {
            cache.try_get_or_insert(buchi_key(property), || translate_within(&pnf, &opts.cancel))
        }
        None => translate_within(&pnf, &opts.cancel).map(Arc::new),
    };
    let aut = match translated {
        Ok(aut) => aut,
        Err(e) => {
            let verdict = if e == TranslateError::Cancelled || opts.cancel.is_cancelled() {
                Verdict::Cancelled
            } else {
                Verdict::LimitReached
            };
            let stats = SearchStats {
                sliced_rules,
                sliced_relations,
                ..SearchStats::default()
            };
            return Ok(VerifyOutcome { verdict, stats });
        }
    };

    let ctable = CTable::build(service, property);
    // Witness environment: each universally quantified variable maps to
    // its Skolem symbol in C.
    let env: BTreeMap<String, Sym> = property
        .vars
        .iter()
        .map(|v| {
            (
                v.clone(),
                Sym::C(ctable.witness_sym(v).expect("witnesses are in C")),
            )
        })
        .collect();
    let ctx = Ctx {
        service,
        table: &ctable,
        ephemeral: Vec::new(),
    };

    // The input constants each FO component mentions (`None`: missing
    // from `C`, so never provided).
    let comp_inputs: Vec<Vec<Option<CSym>>> = table
        .components
        .iter()
        .map(|comp| {
            comp.constants_used()
                .iter()
                .filter(|c| service.schema.constant(c) == Some(ConstKind::Input))
                .map(|c| ctable.const_sym(c))
                .collect()
        })
        .collect();

    // Letter evaluation with branching: every branch yields a (config,
    // letter) pair. A component mentioning an unprovided input constant is
    // not satisfied (Definition 3.1's satisfaction condition).
    let letters = |cfg: SymConfig| -> Vec<(SymConfig, PropSet)> {
        let mut acc: Vec<(SymConfig, PropSet)> = vec![(cfg, PropSet::new())];
        for (i, comp) in table.components.iter().enumerate() {
            let mut next = Vec::new();
            for (c, letter) in acc {
                let mentions_unprovided = comp_inputs[i]
                    .iter()
                    .any(|s| s.is_none_or(|s| !c.is_provided(s)));
                if mentions_unprovided {
                    next.push((c, letter));
                    continue;
                }
                let (evals, unprov) = eval_branching(&ctx, c, &env, comp);
                debug_assert!(!unprov, "provision pre-checked");
                for (c2, v) in evals {
                    let mut l2 = letter.clone();
                    if v {
                        l2.insert(i as u32);
                    }
                    next.push((c2, l2));
                }
            }
            acc = next;
        }
        acc
    };

    // The configuration table: every derived configuration (initial, or a
    // successor after letter branching) is interned here to a dense id in
    // first-seen order, so each distinct configuration is allocated once
    // and a duplicate is dropped as soon as it is derived.
    let mut configs: Interner<Arc<SymConfig>> = Interner::new();

    // Initial product nodes `(config id, Büchi state)`.
    let mut inits: Vec<(u32, usize)> = Vec::new();
    for c0 in initial_configs(service, &ctable) {
        for (c1, letter) in letters(c0) {
            let (id, _) = configs.intern_from(c1);
            for &q in &aut.initial {
                if aut.guard[q].accepts(&letter) {
                    inits.push((id, q));
                }
            }
        }
    }

    // The search, with the expensive half of product successor generation
    // (raw successors composed with letter branching) memoized per
    // configuration id and shared by every Büchi state paired with it. The
    // memo is filled lazily: the nested DFS computes a missing entry on the
    // spot. The traversal follows successor-list content order, so the
    // outcome is deterministic.
    let accepting = |&(_, q): &(u32, usize)| aut.accepting[q];
    let mut memo: Vec<Option<Vec<(u32, PropSet)>>> = Vec::new();
    let succ = |&(id, q): &(u32, usize)| -> Vec<(u32, usize)> {
        let i = id as usize;
        if memo.len() <= i {
            memo.resize(i + 1, None);
        }
        let pairs = match &memo[i] {
            Some(pairs) => pairs,
            None => {
                let cfg = Arc::clone(configs.get(id));
                let mut pairs = Vec::new();
                for s in successors(service, &ctable, &cfg) {
                    for (c, letter) in letters(s) {
                        pairs.push((configs.intern_from(c).0, letter));
                    }
                }
                memo[i].insert(pairs)
            }
        };
        let mut out = Vec::new();
        for (s2, letter) in pairs {
            for &q2 in &aut.succ[q] {
                if aut.guard[q2].accepts(letter) {
                    out.push((*s2, q2));
                }
            }
        }
        out
    };
    let (result, mut stats) = find_accepting_lasso_stats_with(
        inits,
        succ,
        accepting,
        Some(opts.node_limit),
        &opts.cancel,
    );

    let render = |nodes: Vec<(u32, usize)>| -> Vec<String> {
        nodes
            .iter()
            .map(|&(id, _)| configs.get(id).render(&ctable))
            .collect()
    };
    let verdict = match result {
        SearchResult::Empty { explored } => Verdict::Holds { explored },
        SearchResult::Lasso { stem, cycle } => Verdict::Violated {
            stem: render(stem),
            cycle: render(cycle),
        },
        SearchResult::LimitReached { .. } => Verdict::LimitReached,
        SearchResult::Cancelled => Verdict::Cancelled,
    };
    stats.sliced_rules = sliced_rules;
    stats.sliced_relations = sliced_relations;
    Ok(VerifyOutcome { verdict, stats })
}

/// Decides error-freeness (Theorem 3.5(i)): is the error page unreachable
/// on every database and run? Implemented as layered breadth-first
/// reachability over the symbolic configuration graph (no automaton
/// needed — "error free" is the safety property `G ¬W_err`). Each layer
/// is expanded in frontier order, so the witness path is deterministic.
pub fn is_error_free(
    service: &Service,
    opts: &SymbolicOptions,
) -> Result<VerifyOutcome, SymbolicError> {
    let opts = opts.normalized();
    let violations = classify::input_bounded_violations(service);
    if !violations.is_empty() {
        return Err(SymbolicError::ServiceNotInputBounded(violations));
    }
    let property = Property::close(wave_logic::temporal::TFormula::always(
        wave_logic::temporal::TFormula::fo(wave_logic::formula::Formula::True),
    ));
    let ctable = CTable::build(service, &property);
    let t0 = Instant::now();

    let mut interner: Interner<Arc<SymConfig>> = Interner::new();
    // BFS-tree parent of each interned config (None for initial ones).
    let mut parent: Vec<Option<u32>> = Vec::new();
    let mut frontier: Vec<u32> = Vec::new();
    let mut expanded = 0usize;
    let mut init_limit_hit = false;
    for c in initial_configs(service, &ctable) {
        let (id, new) = interner.intern_from(c);
        if new {
            parent.push(None);
            frontier.push(id);
            // Clamp here too: a service with a very wide entry fan-out
            // must not intern past the budget before the loop starts.
            if interner.len() > opts.node_limit {
                init_limit_hit = true;
                break;
            }
        }
    }
    let mut peak = frontier.len();

    let stats = |interner: &Interner<Arc<SymConfig>>, expanded: usize, peak: usize| SearchStats {
        nodes_interned: interner.len(),
        dedup_hits: interner.dedup_hits(),
        successors_memoized: expanded,
        memo_hits: 0,
        peak_frontier: peak,
        search_wall: t0.elapsed(),
        // Error-freeness is never sliced: every rule can influence the
        // error conditions (ambiguous/dead targets, constant provision),
        // so the cone is the whole service by definition — and for the
        // same reason it never replays from the incremental tier.
        sliced_rules: 0,
        sliced_relations: 0,
        incremental: false,
    };
    let witness = |interner: &Interner<Arc<SymConfig>>, parent: &[Option<u32>], id: u32| {
        let mut path = Vec::new();
        let mut cur = Some(id);
        while let Some(i) = cur {
            path.push(interner.get(i).render(&ctable));
            cur = parent[i as usize];
        }
        path.reverse();
        Verdict::Violated {
            stem: path,
            cycle: Vec::new(),
        }
    };

    // Initial configurations start on the home page, but stay defensive.
    for &id in &frontier {
        if interner.get(id).page == ctable.error_page() {
            return Ok(VerifyOutcome {
                verdict: witness(&interner, &parent, id),
                stats: stats(&interner, expanded, peak),
            });
        }
    }
    if init_limit_hit {
        let verdict = if opts.cancel.is_cancelled() {
            Verdict::Cancelled
        } else {
            Verdict::LimitReached
        };
        return Ok(VerifyOutcome {
            verdict,
            stats: stats(&interner, expanded, peak),
        });
    }

    while !frontier.is_empty() {
        if opts.cancel.is_cancelled() {
            return Ok(VerifyOutcome {
                verdict: Verdict::Cancelled,
                stats: stats(&interner, expanded, peak),
            });
        }
        if interner.len() > opts.node_limit {
            return Ok(VerifyOutcome {
                verdict: Verdict::LimitReached,
                stats: stats(&interner, expanded, peak),
            });
        }
        expanded += frontier.len();
        let mut next = Vec::new();
        for pid in frontier {
            for s in successors(service, &ctable, interner.get(pid)) {
                let (id, new) = interner.intern_from(s);
                if new {
                    parent.push(Some(pid));
                    // The witness check outranks the budget: an error
                    // page reached by the very node that exhausts the
                    // limit is still a definite answer.
                    if interner.get(id).page == ctable.error_page() {
                        return Ok(VerifyOutcome {
                            verdict: witness(&interner, &parent, id),
                            stats: stats(&interner, expanded, peak),
                        });
                    }
                    // Clamp *within* the layer: a wide layer must not
                    // intern arbitrarily far past the budget before the
                    // per-layer check at the top of the loop would fire.
                    // Cancellation outranks the budget, as everywhere.
                    if interner.len() > opts.node_limit {
                        let verdict = if opts.cancel.is_cancelled() {
                            Verdict::Cancelled
                        } else {
                            Verdict::LimitReached
                        };
                        return Ok(VerifyOutcome {
                            verdict,
                            stats: stats(&interner, expanded, peak),
                        });
                    }
                    next.push(id);
                }
            }
        }
        peak = peak.max(next.len());
        frontier = next;
    }
    Ok(VerifyOutcome {
        verdict: Verdict::Holds {
            explored: interner.len(),
        },
        stats: stats(&interner, expanded, peak),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use wave_core::builder::ServiceBuilder;
    use wave_logic::parser::parse_property;

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

    #[test]
    fn safety_holds_on_toggle() {
        let s = toggle();
        let p = parse_property("G (P | Q)").unwrap();
        let out = verify_ltl(&s, &p, &SymbolicOptions::default()).unwrap();
        assert!(out.holds(), "{out:?}");
    }

    #[test]
    fn liveness_fails_on_toggle() {
        let s = toggle();
        let p = parse_property("F Q").unwrap();
        let out = verify_ltl(&s, &p, &SymbolicOptions::default()).unwrap();
        assert!(out.violated(), "{out:?}");
    }

    #[test]
    fn before_operator_holds() {
        // "Q cannot happen before P": every run starts on P, so P B Q.
        let s = toggle();
        let p = parse_property("P B Q").unwrap();
        let out = verify_ltl(&s, &p, &SymbolicOptions::default()).unwrap();
        assert!(out.holds(), "{out:?}");
        // Weak until: P persists until the (optional) switch to Q.
        let w = parse_property("(P U Q) | G P").unwrap();
        let out2 = verify_ltl(&s, &w, &SymbolicOptions::default()).unwrap();
        assert!(out2.holds(), "{out2:?}");
    }

    #[test]
    fn toggle_is_error_free() {
        let s = toggle();
        let out = is_error_free(&s, &SymbolicOptions::default()).unwrap();
        assert!(out.holds(), "{out:?}");
    }

    fn login() -> Service {
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
            )
            .target("CP", r#"user(name, password) & button("login")"#)
            .page("CP");
        b.build().unwrap()
    }

    #[test]
    fn login_invariant_holds_over_all_databases() {
        // G(CP → logged_in): for EVERY database — the paper's headline
        // capability; no enumeration of databases happens.
        let s = login();
        let p = parse_property("G (!CP | logged_in)").unwrap();
        let out = verify_ltl(&s, &p, &SymbolicOptions::default()).unwrap();
        assert!(out.holds(), "{out:?}");
    }

    #[test]
    fn login_reachability_witnessed_by_some_database() {
        // G ¬CP must FAIL: some database contains user(name, password).
        let s = login();
        let p = parse_property("G !CP").unwrap();
        let out = verify_ltl(&s, &p, &SymbolicOptions::default()).unwrap();
        assert!(out.violated(), "{out:?}");
    }

    #[test]
    fn login_is_not_error_free() {
        // Idling on HP forever re-requests name/password: condition (ii).
        let s = login();
        let out = is_error_free(&s, &SymbolicOptions::default()).unwrap();
        assert!(out.violated(), "{out:?}");
    }

    #[test]
    fn rejects_non_input_bounded_service() {
        let mut b = ServiceBuilder::new("P");
        b.database_relation("d", 1)
            .state_prop("s")
            .input_relation("go", 0)
            .page("P")
            .input_prop_on_page("go")
            .insert_rule("s", &[], "exists x . d(x)");
        let s = b.build().unwrap();
        let p = parse_property("G true").unwrap();
        assert!(matches!(
            verify_ltl(&s, &p, &SymbolicOptions::default()),
            Err(SymbolicError::ServiceNotInputBounded(_))
        ));
    }

    #[test]
    fn rejects_ctl_property() {
        let s = toggle();
        let p = parse_property("A G (E F P)").unwrap();
        assert_eq!(
            verify_ltl(&s, &p, &SymbolicOptions::default()).unwrap_err(),
            SymbolicError::NotLtl
        );
    }

    #[test]
    fn witnessed_property() {
        // ∀x G ¬(go-with-arg...) — use a parameterized input instead.
        let mut b = ServiceBuilder::new("P");
        b.database_relation("item", 1)
            .input_relation("pick", 1)
            .state_relation("chosen", 1)
            .page("P")
            .input_rule("pick", &["y"], "item(y)")
            .insert_rule("chosen", &["y"], "pick(y)");
        let s = b.build().unwrap();
        // ∀x: G (chosen(x) → item(x)): anything recorded was a db item.
        let p = parse_property("forall x . G (!(exists q . (pick(q) & q = x)) | item(x))").unwrap();
        let out = verify_ltl(&s, &p, &SymbolicOptions::default()).unwrap();
        assert!(out.holds(), "{out:?}");
        // ∀x: G ¬pick(x) must fail (a pick is possible).
        let q = parse_property("forall x . G !(exists q . (pick(q) & q = x))").unwrap();
        let out2 = verify_ltl(&s, &q, &SymbolicOptions::default()).unwrap();
        assert!(out2.violated(), "{out2:?}");
    }

    #[test]
    fn node_limit_never_reports_spurious_holds() {
        // `F Q` is VIOLATED on the toggle; with a budget of one node the
        // search cannot finish — the answer must be LimitReached, never
        // Holds (which would be unsound) and never a crash.
        let s = toggle();
        let p = parse_property("F Q").unwrap();
        let opts = SymbolicOptions {
            node_limit: 1,
            ..SymbolicOptions::default()
        };
        let out = verify_ltl(&s, &p, &opts).unwrap();
        assert_eq!(out.verdict, Verdict::LimitReached, "{out:?}");
        // Same for a property that holds: with budget 1 the engine must
        // admit it does not know.
        let q = parse_property("G (P | Q)").unwrap();
        let out2 = verify_ltl(&s, &q, &opts).unwrap();
        assert_eq!(out2.verdict, Verdict::LimitReached, "{out2:?}");
        // And for error-freeness reachability.
        let ef = is_error_free(&s, &opts).unwrap();
        assert_eq!(ef.verdict, Verdict::LimitReached, "{ef:?}");
    }

    #[test]
    fn zero_node_limit_normalizes_to_default_budget() {
        // Regression: a literal zero budget used to report LimitReached
        // before interning a single node. `0` now means "default budget".
        let s = toggle();
        let p = parse_property("G (P | Q)").unwrap();
        let opts = SymbolicOptions {
            node_limit: 0,
            ..SymbolicOptions::default()
        };
        let out = verify_ltl(&s, &p, &opts).unwrap();
        assert!(out.holds(), "{out:?}");
        let ef = is_error_free(&s, &opts).unwrap();
        assert!(ef.holds(), "{ef:?}");
        assert_eq!(opts.normalized().node_limit, DEFAULT_NODE_LIMIT);
    }

    #[test]
    fn cancelled_token_yields_cancelled_verdict() {
        let s = toggle();
        let p = parse_property("G (P | Q)").unwrap();
        let cancel = CancelToken::new();
        cancel.cancel();
        let opts = SymbolicOptions {
            cancel,
            ..SymbolicOptions::default()
        };
        let out = verify_ltl(&s, &p, &opts).unwrap();
        assert_eq!(out.verdict, Verdict::Cancelled, "{out:?}");
        let ef = is_error_free(&s, &opts).unwrap();
        assert_eq!(ef.verdict, Verdict::Cancelled, "{ef:?}");
    }

    #[test]
    fn expired_deadline_yields_cancelled_verdict() {
        let s = login();
        let p = parse_property("G (!CP | logged_in)").unwrap();
        let opts = SymbolicOptions {
            cancel: CancelToken::with_deadline(Duration::ZERO),
            ..SymbolicOptions::default()
        };
        let out = verify_ltl(&s, &p, &opts).unwrap();
        assert_eq!(out.verdict, Verdict::Cancelled, "{out:?}");
    }

    #[test]
    fn fired_token_outranks_an_exhausted_budget() {
        // A pre-fired token with a one-node budget: both stop conditions
        // hold, and cancellation must win in both entry points.
        let s = login();
        let p = parse_property("G (!CP | logged_in)").unwrap();
        let fired = CancelToken::new();
        fired.cancel();
        let opts = SymbolicOptions {
            node_limit: 1,
            cancel: fired,
            ..SymbolicOptions::default()
        };
        let out = verify_ltl(&s, &p, &opts).unwrap();
        assert_eq!(out.verdict, Verdict::Cancelled, "{out:?}");
        let ef = is_error_free(&s, &opts).unwrap();
        assert_eq!(ef.verdict, Verdict::Cancelled, "{ef:?}");
        // The memo is per-run state: a clean run afterwards is unaffected.
        let clean = verify_ltl(&s, &p, &SymbolicOptions::default()).unwrap();
        assert!(clean.holds(), "{clean:?}");
    }

    #[test]
    fn error_free_limit_clamps_within_a_layer() {
        // The home page of the login service fans out into a wide first
        // layer. A tiny budget must stop interning *within* the layer —
        // at most one node past the limit (the one that trips the check),
        // never the rest of the layer. (A definite witness found before
        // the trip still outranks the budget, so only Violated may ever
        // replace LimitReached here.)
        let s = login();
        for limit in [1usize, 2, 3] {
            let opts = SymbolicOptions {
                node_limit: limit,
                ..SymbolicOptions::default()
            };
            let out = is_error_free(&s, &opts).unwrap();
            assert!(
                matches!(
                    out.verdict,
                    Verdict::LimitReached | Verdict::Violated { .. }
                ),
                "limit={limit} {out:?}"
            );
            assert!(
                out.stats.nodes_interned <= limit + 1,
                "limit={limit} overshot: interned {}",
                out.stats.nodes_interned
            );
        }
        // Exact-limit behavior on an error-free service: a budget of
        // exactly the reachable graph size suffices for the full answer;
        // one node less is LimitReached.
        let t = toggle();
        let full = is_error_free(&t, &SymbolicOptions::default()).unwrap();
        assert!(full.holds(), "{full:?}");
        let n = full.stats.nodes_interned;
        let exact = is_error_free(
            &t,
            &SymbolicOptions {
                node_limit: n,
                ..SymbolicOptions::default()
            },
        )
        .unwrap();
        assert_eq!(exact.verdict, full.verdict, "exact budget {n} must suffice");
        let short = is_error_free(
            &t,
            &SymbolicOptions {
                node_limit: n - 1,
                ..SymbolicOptions::default()
            },
        )
        .unwrap();
        assert_eq!(short.verdict, Verdict::LimitReached);
    }

    #[test]
    fn an_exploding_tableau_is_inconclusive_not_fatal() {
        // 128 untils pass the parser's caps, but the automaton of the
        // negation has 2^129 states: the tableau budget stops it.
        let s = toggle();
        let p = parse_property(&format!("{}P", "P U ".repeat(128))).unwrap();
        let out = verify_ltl(&s, &p, &SymbolicOptions::default()).unwrap();
        assert_eq!(out.verdict, Verdict::LimitReached, "{out:?}");
        assert_eq!(out.stats.nodes_interned, 0);
        // A fired token outranks the budget, with or without the
        // automaton cache in front of the translation.
        let cache = Arc::new(wave_automata::store::AutomatonCache::new());
        for automata in [None, Some(Arc::clone(&cache))] {
            let cancel = CancelToken::new();
            cancel.cancel();
            let opts = SymbolicOptions {
                cancel,
                automata,
                ..SymbolicOptions::default()
            };
            assert_eq!(
                verify_ltl(&s, &p, &opts).unwrap().verdict,
                Verdict::Cancelled
            );
        }
        assert!(cache.is_empty(), "a refused translation is not cached");
    }

    #[test]
    fn stats_are_populated() {
        let s = toggle();
        let p = parse_property("G (P | Q)").unwrap();
        let out = verify_ltl(&s, &p, &SymbolicOptions::default()).unwrap();
        assert!(out.stats.nodes_interned > 0);
        assert!(out.stats.successors_memoized > 0);
        assert!(out.stats.peak_frontier > 0);
    }

    /// The login service plus dead logic nothing observes: an unreachable
    /// admin page, a write-only audit state, and an unread noise input.
    fn login_with_dead_logic() -> Service {
        let mut b = ServiceBuilder::new("HP");
        b.database_relation("user", 2)
            .input_relation("button", 1)
            .input_relation("noise", 0)
            .state_prop("logged_in")
            .state_prop("audited")
            .input_constant("name")
            .input_constant("password")
            .page("HP")
            .solicit_constant("name")
            .solicit_constant("password")
            .input_rule("button", &["x"], r#"x = "login""#)
            .input_prop_on_page("noise")
            .insert_rule(
                "logged_in",
                &[],
                r#"user(name, password) & button("login")"#,
            )
            .insert_rule("audited", &[], "noise")
            .target("CP", r#"user(name, password) & button("login")"#)
            .page("CP")
            .page("ADMIN")
            .insert_rule("audited", &[], "true")
            .target("HP", "true");
        b.build().unwrap()
    }

    #[test]
    fn slicing_preserves_verdicts_and_shrinks_the_search() {
        let s = login_with_dead_logic();
        let off = SymbolicOptions {
            slice: false,
            ..SymbolicOptions::default()
        };
        for prop in ["G (!CP | logged_in)", "G !CP", "F CP"] {
            let p = parse_property(prop).unwrap();
            let sliced = verify_ltl(&s, &p, &SymbolicOptions::default()).unwrap();
            let full = verify_ltl(&s, &p, &off).unwrap();
            assert_eq!(
                std::mem::discriminant(&sliced.verdict),
                std::mem::discriminant(&full.verdict),
                "slice changed the verdict on {prop}: {sliced:?} vs {full:?}"
            );
            assert!(sliced.stats.sliced_rules > 0, "{prop}: nothing sliced");
            assert!(sliced.stats.sliced_relations > 0);
            assert_eq!(full.stats.sliced_rules, 0);
            assert!(
                sliced.stats.nodes_interned < full.stats.nodes_interned,
                "{prop}: slicing did not shrink the space \
                 ({} vs {})",
                sliced.stats.nodes_interned,
                full.stats.nodes_interned
            );
        }
    }

    #[test]
    fn slicing_keeps_observed_dead_logic() {
        // A property observing the "dead" audit state keeps it in the
        // cone — and both configurations agree it can become true via
        // the noise input.
        let s = login_with_dead_logic();
        let p = parse_property("G !audited").unwrap();
        let sliced = verify_ltl(&s, &p, &SymbolicOptions::default()).unwrap();
        let full = verify_ltl(
            &s,
            &p,
            &SymbolicOptions {
                slice: false,
                ..SymbolicOptions::default()
            },
        )
        .unwrap();
        assert!(sliced.violated(), "{sliced:?}");
        assert!(full.violated(), "{full:?}");
    }

    #[test]
    fn slicing_is_identity_on_minimal_services() {
        // Every symbol of the toggle is in the cone of `G (P | Q)`:
        // slicing must change nothing, including the structural stats.
        let s = toggle();
        let p = parse_property("G (P | Q)").unwrap();
        let sliced = verify_ltl(&s, &p, &SymbolicOptions::default()).unwrap();
        let full = verify_ltl(
            &s,
            &p,
            &SymbolicOptions {
                slice: false,
                ..SymbolicOptions::default()
            },
        )
        .unwrap();
        assert_eq!(sliced.verdict, full.verdict);
        assert_eq!(sliced.stats.nodes_interned, full.stats.nodes_interned);
        assert_eq!(sliced.stats.sliced_rules, 0);
        assert_eq!(sliced.stats.sliced_relations, 0);
    }
}
