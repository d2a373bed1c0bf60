//! The symbolic product search: Theorem 3.5's decision procedure.
//!
//! The negated property is abstracted over its FO components into
//! propositional LTL, translated to a Büchi automaton, and the product
//! with the symbolic configuration graph is searched for an accepting
//! lasso (nested DFS, or breadth-first reachability for safety-shaped
//! automata, see below). By the Periodic-Run Lemma a lasso exists iff
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
//! inside the search. The nested DFS memoizes successor lists per node,
//! so the inner (red) DFS reuses the lists the outer (blue) DFS derived.
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
//!
//! # Store subsumption
//!
//! A configuration that assumes more about the database than an admitted
//! one with the same projection (everything but the store's literals)
//! has a subset of its concrete runs, so where the question is
//! reachability it is dropped (DESIGN.md §3.1.3). [`is_error_free`]
//! keeps one antichain of admitted configurations per projection.
//! [`verify_ltl`] keeps one per projection and Büchi state, and only when
//! the negated automaton is safety-shaped: there, a node entering an
//! accepting state is never dropped, and a dropped edge is never
//! redirected, so the search walks a subgraph of the product in which
//! every lasso is real and which has a lasso whenever the product does.
//! Both of those searches are breadth-first
//! ([`wave_automata::search::breadth_first`]), so the shallow, weak
//! configurations are admitted before the deep ones they subsume, and a
//! queued node evicted before its expansion is skipped. `verify_ltl`
//! reaches an accepting node that way and then looks for a cycle inside
//! the accepting region; every other automaton, and `prune: false`,
//! takes the nested DFS. [`lasso_replays`] checks a reported lasso
//! against the unpruned product.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use wave_core::classify;
use wave_core::service::Service;
use wave_core::slice::SliceResult;
use wave_logic::bounded::BoundedError;
use wave_logic::schema::ConstKind;
use wave_logic::temporal::{Property, TemporalClass};

use wave_automata::buchi::Buchi;
pub use wave_automata::cancel::CancelToken;
use wave_automata::interner::Interner;
use wave_automata::ltl2buchi::{translate_within, TranslateError};
use wave_automata::props::PropSet;
pub use wave_automata::search::SearchStats;
use wave_automata::search::{
    breadth_first, find_accepting_lasso_stats_with, Goal, PrunedGraph, SearchResult,
};

use crate::abstraction::{to_pnf, FoAbstraction};

use super::config::SymConfig;
use super::eval::{eval_branching, Ctx};
use super::step::{initial_configs, successors};
use super::subsume::Antichains;
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
    /// Prune subsumed configurations (DESIGN.md §3.1.3): a derived
    /// configuration is dropped when an admitted one with the same
    /// control state assumes less about the database. Verdict-kind
    /// preserving (enforced by wave-qa's `SubsumptionDivergence` leg);
    /// on by default. [`verify_ltl`] prunes only when the negated
    /// property's automaton is safety-shaped
    /// ([`wave_automata::buchi::Buchi::is_safety_shaped`]), and then
    /// searches breadth-first instead of by nested DFS
    /// ([`searches_breadth_first`]); [`is_error_free`] prunes always.
    /// Disabling this is only useful for differential testing.
    pub prune: bool,
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
            prune: true,
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
/// Public so hosts that share an automaton cache (wave-serve) can
/// fill or probe it under the same key [`verify_ltl`] will look up.
pub fn buchi_key(property: &Property) -> u128 {
    use wave_logic::fingerprint::{Canonical, Fnv128};
    let mut h = Fnv128::new();
    h.write_str("wave-inc/buchi/v1");
    property.canon(&mut h);
    h.finish()
}

/// What [`verify_ltl`] and [`lasso_replays`] build before the product.
struct Prepared {
    /// The cone-of-influence slice, when slicing is on.
    sliced: Option<SliceResult>,
    /// The property's FO components.
    table: FoAbstraction,
    /// ¬φ's Büchi automaton, or the verdict to report when the tableau
    /// was refused (budget or cancellation).
    aut: Result<Arc<Buchi>, Verdict>,
}

/// Admission, slicing and the LTL→Büchi translation.
fn prepare(
    service: &Service,
    property: &Property,
    opts: &SymbolicOptions,
) -> Result<Prepared, SymbolicError> {
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
    let sliced = opts
        .slice
        .then(|| wave_core::slice::slice(service, property));

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
    let aut = translated.map_err(|e| {
        if e == TranslateError::Cancelled || opts.cancel.is_cancelled() {
            Verdict::Cancelled
        } else {
            Verdict::LimitReached
        }
    });
    Ok(Prepared { sliced, table, aut })
}

/// The product the search walks: symbolic configurations of the
/// (sliced) service, each with the letter of the property's FO
/// components it satisfies, paired with the states of ¬φ's Büchi
/// automaton.
struct Product<'s> {
    service: &'s Service,
    ctable: CTable,
    table: FoAbstraction,
    aut: Arc<Buchi>,
    /// Witness environment: each universally quantified variable maps
    /// to its Skolem symbol in C.
    env: BTreeMap<String, Sym>,
    /// The input constants each FO component mentions (`None`: missing
    /// from `C`, so never provided).
    comp_inputs: Vec<Vec<Option<CSym>>>,
}

impl<'s> Product<'s> {
    fn new(
        service: &'s Service,
        property: &Property,
        table: FoAbstraction,
        aut: Arc<Buchi>,
    ) -> Product<'s> {
        let ctable = CTable::build(service, property);
        let env = property
            .vars
            .iter()
            .map(|v| {
                let witness = ctable.witness_sym(v).expect("witnesses are in C");
                (v.clone(), Sym::C(witness))
            })
            .collect();
        let comp_inputs = table
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
        Product {
            service,
            ctable,
            table,
            aut,
            env,
            comp_inputs,
        }
    }

    /// Letter evaluation with branching: every branch yields a (config,
    /// letter) pair. A component mentioning an unprovided input constant
    /// is not satisfied (Definition 3.1's satisfaction condition).
    fn letters(&self, cfg: SymConfig) -> Vec<(SymConfig, PropSet)> {
        let ctx = Ctx {
            service: self.service,
            table: &self.ctable,
            ephemeral: Vec::new(),
        };
        let mut acc: Vec<(SymConfig, PropSet)> = vec![(cfg, PropSet::new())];
        for (i, comp) in self.table.components.iter().enumerate() {
            let mut next = Vec::new();
            for (c, letter) in acc {
                let mentions_unprovided = self.comp_inputs[i]
                    .iter()
                    .any(|s| s.is_none_or(|s| !c.is_provided(s)));
                if mentions_unprovided {
                    next.push((c, letter));
                    continue;
                }
                let (evals, unprov) = eval_branching(&ctx, c, &self.env, comp);
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
    }

    /// The initial configurations, letter-annotated.
    fn initial(&self) -> impl Iterator<Item = (SymConfig, PropSet)> + '_ {
        initial_configs(self.service, &self.ctable)
            .into_iter()
            .flat_map(|c| self.letters(c))
    }

    /// The successors of `cfg`, letter-annotated: the expensive half of
    /// product successor generation, shared by every Büchi state. Lazy,
    /// so a caller interning them drops each duplicate as it comes.
    fn successors(&self, cfg: &SymConfig) -> impl Iterator<Item = (SymConfig, PropSet)> + '_ {
        successors(self.service, &self.ctable, cfg)
            .into_iter()
            .flat_map(|c| self.letters(c))
    }

    /// The Büchi states a configuration with `letter` can pair with
    /// when the automaton moves on from `from` (`None`: the initial
    /// states).
    fn moves<'a>(
        &'a self,
        from: Option<usize>,
        letter: &'a PropSet,
    ) -> impl Iterator<Item = usize> + 'a {
        let states = match from {
            Some(q) => &self.aut.succ[q],
            None => &self.aut.initial,
        };
        states
            .iter()
            .copied()
            .filter(move |&q| self.aut.guard[q].accepts(letter))
    }
}

/// The product as a search walks it: product nodes are `(config id,
/// Büchi state)`. Every derived configuration (initial, or a successor
/// after letter branching) is interned in the configuration table to a
/// dense id in first-seen order, so each distinct configuration is
/// allocated once and a duplicate is dropped as soon as it is derived.
/// The expensive half of successor generation (raw successors composed
/// with letter branching) is memoized per config id and shared by every
/// Büchi state paired with it; the memo is filled lazily, in
/// successor-list content order, so the outcome is deterministic.
struct Walk<'p, 's> {
    product: &'p Product<'s>,
    configs: Interner<Arc<SymConfig>>,
    memo: Vec<Option<Vec<(u32, PropSet)>>>,
    /// One antichain per (projection, Büchi state) when pruning applies:
    /// a node entering a non-accepting state is dropped when an admitted
    /// node with the same key assumes less. Nodes entering accepting
    /// states are never dropped, and dropped edges are never redirected.
    chains: Option<Antichains>,
}

impl<'p, 's> Walk<'p, 's> {
    fn new(product: &'p Product<'s>, prune: bool) -> Self {
        Walk {
            product,
            configs: Interner::new(),
            memo: Vec::new(),
            chains: prune.then(Antichains::default),
        }
    }

    /// The initial product nodes that survive pruning.
    fn initial(&mut self) -> Vec<(u32, usize)> {
        let Walk {
            product,
            configs,
            chains,
            ..
        } = self;
        let mut inits = Vec::new();
        for (c, letter) in product.initial() {
            let (id, _) = configs.intern_from(c);
            for q in product.moves(None, &letter) {
                if keep(product, chains, configs, id, q) {
                    inits.push((id, q));
                }
            }
        }
        inits
    }
}

/// Whether the product node `(id, q)` survives pruning.
fn keep(
    product: &Product,
    chains: &mut Option<Antichains>,
    configs: &Interner<Arc<SymConfig>>,
    id: u32,
    q: usize,
) -> bool {
    product.aut.accepting[q]
        || chains
            .as_mut()
            .is_none_or(|a| a.admit(configs, id, q as u32))
}

impl PrunedGraph<(u32, usize)> for Walk<'_, '_> {
    fn successors(&mut self, &(id, q): &(u32, usize)) -> Vec<(u32, usize)> {
        let Walk {
            product,
            configs,
            memo,
            chains,
        } = self;
        let i = id as usize;
        if memo.len() <= i {
            memo.resize(i + 1, None);
        }
        let pairs = memo[i].get_or_insert_with(|| {
            let cfg = Arc::clone(configs.get(id));
            product
                .successors(&cfg)
                .map(|(c, letter)| (configs.intern_from(c).0, letter))
                .collect()
        });
        let mut out = Vec::new();
        for &(s2, ref letter) in pairs.iter() {
            for q2 in product.moves(Some(q), letter) {
                if keep(product, chains, configs, s2, q2) {
                    out.push((s2, q2));
                }
            }
        }
        out
    }

    fn is_target(&self, &(_, q): &(u32, usize)) -> bool {
        self.product.aut.accepting[q]
    }

    fn admitted(&self, &(id, q): &(u32, usize)) -> bool {
        self.chains
            .as_ref()
            .is_none_or(|a| a.is_admitted(id, q as u32))
    }
}

/// Verifies an input-bounded LTL-FO property on an input-bounded service,
/// over **all** databases and runs (Theorem 3.5).
pub fn verify_ltl(
    service: &Service,
    property: &Property,
    opts: &SymbolicOptions,
) -> Result<VerifyOutcome, SymbolicError> {
    let opts = opts.normalized();
    let Prepared { sliced, table, aut } = prepare(service, property, &opts)?;
    let (sliced_rules, sliced_relations) = sliced.as_ref().map_or((0, 0), |r| {
        (r.report.sliced_rules(), r.report.sliced_relations())
    });
    let aut = match aut {
        Ok(aut) => aut,
        Err(verdict) => {
            let stats = SearchStats {
                sliced_rules,
                sliced_relations,
                ..SearchStats::default()
            };
            return Ok(VerifyOutcome { verdict, stats });
        }
    };
    let service = sliced.as_ref().map_or(service, |r| &r.service);
    let product = Product::new(service, property, table, aut);
    let aut = &*product.aut;

    // Store subsumption, only where acceptance is a reachability
    // question (DESIGN.md §3.1.3). There the weakest-first breadth-first
    // search answers; every other automaton, and `prune: false`, takes
    // the nested DFS.
    let prune = breadth_first_applies(aut, &opts);
    let mut walk = Walk::new(&product, prune);
    let inits = walk.initial();
    let limit = Some(opts.node_limit);
    let (result, mut stats) = if prune {
        breadth_first(inits, &mut walk, Goal::Lasso, limit, &opts.cancel)
    } else {
        let accepting = |&(_, q): &(u32, usize)| aut.accepting[q];
        find_accepting_lasso_stats_with(
            inits,
            |node| walk.successors(node),
            accepting,
            limit,
            &opts.cancel,
        )
    };

    let render = |nodes: Vec<(u32, usize)>| -> Vec<String> {
        nodes
            .iter()
            .map(|&(id, _)| walk.configs.get(id).render(&product.ctable))
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
    stats.pruned = walk.chains.map_or(0, |a| a.pruned);
    Ok(VerifyOutcome { verdict, stats })
}

/// Whether [`verify_ltl`] answers `property` with the weakest-first
/// breadth-first search under `opts`: pruning is on and the negated
/// property's automaton is safety-shaped (DESIGN.md §3.1.3). `false`
/// when the property is not LTL-FO or its tableau is refused.
pub fn searches_breadth_first(property: &Property, opts: &SymbolicOptions) -> bool {
    let mut table = FoAbstraction::default();
    property.classify() == TemporalClass::Ltl
        && to_pnf(&property.body, true, &mut table)
            .and_then(|pnf| translate_within(&pnf, &opts.cancel).ok())
            .is_some_and(|aut| breadth_first_applies(&aut, opts))
}

/// Whether store subsumption, and with it the breadth-first search,
/// applies to a property whose negation is `aut`.
fn breadth_first_applies(aut: &Buchi, opts: &SymbolicOptions) -> bool {
    opts.prune && aut.is_safety_shaped()
}

/// Replays a [`Verdict::Violated`] lasso of [`verify_ltl`] through the
/// full product, with nothing pruned whatever `opts.prune` says: true
/// when some path of product nodes starts at an initial node, renders
/// as `stem` followed by `cycle`, returns from its last node to its
/// first cycle node, and passes an accepting Büchi state on the cycle.
/// `opts` must slice as the run that reported the lasso did, since the
/// rendering names the sliced service's state. A pruned search walks a
/// subgraph of this product (DESIGN.md §3.1.3), so each of its lassos
/// must replay; wave-qa holds it to that.
pub fn lasso_replays(
    service: &Service,
    property: &Property,
    opts: &SymbolicOptions,
    stem: &[String],
    cycle: &[String],
) -> Result<bool, SymbolicError> {
    let opts = opts.normalized();
    let Prepared { sliced, table, aut } = prepare(service, property, &opts)?;
    let Ok(aut) = aut else {
        return Ok(false);
    };
    if cycle.is_empty() {
        return Ok(false);
    }
    let service = sliced.as_ref().map_or(service, |r| &r.service);
    let product = Product::new(service, property, table, aut);
    let word: Vec<&String> = stem.iter().chain(cycle).collect();
    let entry = stem.len();

    let mut configs: Interner<Arc<SymConfig>> = Interner::new();
    let mut memo: Vec<Option<Vec<(u32, PropSet)>>> = Vec::new();
    let mut expand = |configs: &mut Interner<Arc<SymConfig>>, id: u32| {
        let i = id as usize;
        if memo.len() <= i {
            memo.resize(i + 1, None);
        }
        if memo[i].is_none() {
            let cfg = Arc::clone(configs.get(id));
            memo[i] = Some(
                product
                    .successors(&cfg)
                    .map(|(c, letter)| (configs.intern_from(c).0, letter))
                    .collect(),
            );
        }
        memo[i].clone().expect("filled above")
    };

    // A partial match at position `i` of the word: the product node
    // there, the node at the cycle entry once the match has passed it,
    // and whether the cycle so far has passed an accepting state.
    type Partial = ((u32, usize), Option<(u32, usize)>, bool);
    let step = |i: usize, node: (u32, usize), entered: Option<(u32, usize)>, acc: bool| {
        let entered = if i == entry { Some(node) } else { entered };
        (
            node,
            entered,
            acc || (i >= entry && product.aut.accepting[node.1]),
        )
    };
    let mut here: BTreeSet<Partial> = BTreeSet::new();
    for (c, letter) in product.initial() {
        if c.render(&product.ctable) == *word[0] {
            let (id, _) = configs.intern_from(c);
            for q in product.moves(None, &letter) {
                here.insert(step(0, (id, q), None, false));
            }
        }
    }
    for (i, rendered) in word.iter().enumerate().skip(1) {
        let mut next = BTreeSet::new();
        for &((id, q), entered, acc) in &here {
            for (s2, letter) in expand(&mut configs, id) {
                if configs.get(s2).render(&product.ctable) != **rendered {
                    continue;
                }
                for q2 in product.moves(Some(q), &letter) {
                    next.insert(step(i, (s2, q2), entered, acc));
                }
            }
        }
        here = next;
    }
    // The closing edge, from the last node back to the cycle entry.
    for &((id, q), entered, acc) in &here {
        let Some((e, qe)) = entered.filter(|_| acc) else {
            continue;
        };
        let closes = expand(&mut configs, id)
            .iter()
            .any(|(s2, letter)| *s2 == e && product.moves(Some(q), letter).any(|q2| q2 == qe));
        if closes {
            return Ok(true);
        }
    }
    Ok(false)
}

/// The configuration graph as [`is_error_free`] walks it, with one
/// antichain per projection when pruning is on.
struct Configs<'s> {
    service: &'s Service,
    ctable: &'s CTable,
    table: Interner<Arc<SymConfig>>,
    chains: Option<Antichains>,
}

impl Configs<'_> {
    /// Interns `cfg`: its id when it survives pruning.
    fn admit(&mut self, cfg: SymConfig) -> Option<u32> {
        let (id, _) = self.table.intern_from(cfg);
        let table = &self.table;
        self.chains
            .as_mut()
            .is_none_or(|a| a.admit(table, id, 0))
            .then_some(id)
    }
}

impl PrunedGraph<u32> for Configs<'_> {
    fn successors(&mut self, &id: &u32) -> Vec<u32> {
        let cfg = Arc::clone(self.table.get(id));
        successors(self.service, self.ctable, &cfg)
            .into_iter()
            .filter_map(|s| self.admit(s))
            .collect()
    }

    fn is_target(&self, &id: &u32) -> bool {
        self.table.get(id).page == self.ctable.error_page()
    }

    fn admitted(&self, &id: &u32) -> bool {
        self.chains.as_ref().is_none_or(|a| a.is_admitted(id, 0))
    }
}

/// Decides error-freeness (Theorem 3.5(i)): is the error page unreachable
/// on every database and run? Implemented as layered breadth-first
/// reachability over the symbolic configuration graph (no automaton
/// needed — "error free" is the safety property `G ¬W_err`), with the
/// loop [`verify_ltl`] uses for safety-shaped properties. Each layer is
/// expanded in frontier order, so the witness path is deterministic.
/// With [`SymbolicOptions::prune`], a configuration subsumed by an
/// admitted one with the same projection is dropped, and one evicted
/// before its expansion is skipped (DESIGN.md §3.1.3).
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

    // Error-freeness is never sliced: every rule can influence the
    // error conditions (ambiguous/dead targets, constant provision), so
    // the cone is the whole service by definition — and for the same
    // reason it never replays from the incremental tier. It is a
    // reachability question, so pruning applies whatever the service.
    let mut graph = Configs {
        service,
        ctable: &ctable,
        table: Interner::new(),
        chains: opts.prune.then(Antichains::default),
    };
    let inits: Vec<u32> = initial_configs(service, &ctable)
        .into_iter()
        .filter_map(|c| graph.admit(c))
        .collect();
    let (result, mut stats) = breadth_first(
        inits,
        &mut graph,
        Goal::Reach,
        Some(opts.node_limit),
        &opts.cancel,
    );
    let verdict = match result {
        SearchResult::Empty { explored } => Verdict::Holds { explored },
        SearchResult::Lasso { stem, .. } => Verdict::Violated {
            stem: stem
                .iter()
                .map(|&id| graph.table.get(id).render(&ctable))
                .collect(),
            cycle: Vec::new(),
        },
        SearchResult::LimitReached { .. } => Verdict::LimitReached,
        SearchResult::Cancelled => Verdict::Cancelled,
    };
    stats.pruned = graph.chains.map_or(0, |a| a.pruned);
    Ok(VerifyOutcome { verdict, stats })
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

    /// ¬φ's automaton, built the way [`verify_ltl`] builds it.
    fn negated_automaton(property: &str) -> Buchi {
        let p = parse_property(property).unwrap();
        let mut table = FoAbstraction::default();
        let pnf = to_pnf(&p.body, true, &mut table).unwrap();
        wave_automata::ltl2buchi::translate(&pnf)
    }

    const FIG2: &str = "forall p . G (!ship(p) | paid)";

    fn unpruned() -> SymbolicOptions {
        SymbolicOptions {
            prune: false,
            ..SymbolicOptions::default()
        }
    }

    #[test]
    fn fig2_negation_is_safety_shaped() {
        assert!(negated_automaton(FIG2).is_safety_shaped());
    }

    #[test]
    fn a_liveness_negation_is_not_pruned_and_stays_violated() {
        // wave-qa seed 4, shrunk: pruning every automaton turned this
        // `Violated` into `Holds` (DESIGN.md §3.1.3). `G !P1` is not
        // safety-shaped, so nothing may be pruned.
        let spec = wave_core::spec::ServiceSpec::parse(
            "home P0\ndb r0 1\npage P0\n  goto P1 when (r0(\"k\") | r0(\"k\"))\n\
             page P1\nproperty F (P1)\n",
        )
        .unwrap();
        let (s, _) = spec.build().unwrap();
        let p = parse_property(&spec.property).unwrap();
        assert!(!negated_automaton(&spec.property).is_safety_shaped());
        let out = verify_ltl(&s, &p, &SymbolicOptions::default()).unwrap();
        assert!(out.violated(), "{out:?}");
        assert_eq!(out.stats.pruned, 0);
        assert_eq!(
            out.verdict,
            verify_ltl(&s, &p, &unpruned()).unwrap().verdict
        );
    }

    #[test]
    fn pruning_shrinks_fig2_on_checkout_bench_and_keeps_holds() {
        let bench = wave_demo::site::checkout_bench();
        let p = parse_property(FIG2).unwrap();
        let pruned = verify_ltl(&bench, &p, &SymbolicOptions::default()).unwrap();
        let full = verify_ltl(&bench, &p, &unpruned()).unwrap();
        assert!(pruned.holds(), "{pruned:?}");
        assert!(full.holds(), "{full:?}");
        assert!(pruned.stats.pruned > 0);
        assert_eq!(full.stats.pruned, 0);
        assert!(
            pruned.stats.nodes_interned < full.stats.nodes_interned,
            "{} vs {}",
            pruned.stats.nodes_interned,
            full.stats.nodes_interned
        );
        assert!(pruned.stats.nodes_interned <= 900, "{}", pruned.stats);
        // Weakest-first order skips queued nodes evicted before their
        // expansion.
        assert!(
            pruned.stats.successors_memoized < pruned.stats.nodes_interned,
            "{}",
            pruned.stats
        );
        let unsliced = SymbolicOptions {
            slice: false,
            ..SymbolicOptions::default()
        };
        let wide = verify_ltl(&bench, &p, &unsliced).unwrap();
        assert!(wide.holds(), "{wide:?}");
        assert!(wide.stats.nodes_interned <= 10_000, "{}", wide.stats);
    }

    #[test]
    fn the_breadth_first_search_never_reports_a_spurious_holds() {
        // Fig. 2 holds and `G !ship(p)` is violated on `checkout_bench`;
        // both negations are safety-shaped, so both take the
        // breadth-first search. Below the budget either needs, the
        // answer is `LimitReached`, and a fired token is `Cancelled`.
        let bench = wave_demo::site::checkout_bench();
        for prop in [FIG2, "forall p . G !ship(p)"] {
            let p = parse_property(prop).unwrap();
            assert!(searches_breadth_first(&p, &SymbolicOptions::default()));
            assert!(!searches_breadth_first(&p, &unpruned()));
            let full = verify_ltl(&bench, &p, &SymbolicOptions::default()).unwrap();
            let needed = full.stats.nodes_interned;
            for node_limit in [1, 2, 5, needed / 2, needed - 1] {
                let opts = SymbolicOptions {
                    node_limit,
                    ..SymbolicOptions::default()
                };
                let out = verify_ltl(&bench, &p, &opts).unwrap();
                assert_eq!(out.verdict, Verdict::LimitReached, "{prop} @ {node_limit}");
                let fired = CancelToken::new();
                fired.cancel();
                let opts = SymbolicOptions {
                    cancel: fired,
                    ..opts
                };
                let out = verify_ltl(&bench, &p, &opts).unwrap();
                assert_eq!(out.verdict, Verdict::Cancelled, "{prop} @ {node_limit}");
            }
            let exact = SymbolicOptions {
                node_limit: needed,
                ..SymbolicOptions::default()
            };
            assert_eq!(
                verify_ltl(&bench, &p, &exact).unwrap().verdict,
                full.verdict
            );
        }
        assert!(!searches_breadth_first(
            &parse_property("F Q").unwrap(),
            &SymbolicOptions::default()
        ));
    }

    #[test]
    fn error_freeness_verdicts_agree_with_and_without_pruning_on_every_demo_site() {
        use wave_demo::{hierarchy, site};
        for (name, s) in [
            ("full_site", site::full_site()),
            ("checkout_core", site::checkout_core()),
            ("checkout_bench", site::checkout_bench()),
            ("audit_site", site::audit_site()),
            ("navigation_abstraction", site::navigation_abstraction()),
            ("navigator", hierarchy::navigator()),
        ] {
            let pruned = is_error_free(&s, &SymbolicOptions::default()).unwrap();
            let full = is_error_free(&s, &unpruned()).unwrap();
            assert_eq!(
                std::mem::discriminant(&pruned.verdict),
                std::mem::discriminant(&full.verdict),
                "{name}: {pruned:?} vs {full:?}"
            );
            assert!(pruned.stats.nodes_interned <= full.stats.nodes_interned);
        }
    }

    #[test]
    fn reported_lassos_replay_and_altered_ones_do_not() {
        // A pruned search on `checkout_bench` (safety-shaped negation)
        // and an unpruned one on the login service: both lassos are
        // paths of the unpruned product.
        let bench = wave_demo::site::checkout_bench();
        for (s, prop) in [(bench, "forall p . G !ship(p)"), (login(), "G !CP")] {
            let p = parse_property(prop).unwrap();
            let out = verify_ltl(&s, &p, &SymbolicOptions::default()).unwrap();
            let Verdict::Violated { stem, cycle } = &out.verdict else {
                panic!("{prop}: {out:?}");
            };
            assert!(
                lasso_replays(&s, &p, &unpruned(), stem, cycle).unwrap(),
                "{prop}"
            );
            // A configuration the service never reaches, in the stem or
            // in the cycle, breaks the replay.
            let mut bad_stem = stem.clone();
            bad_stem.insert(0, "page=nowhere".into());
            assert!(!lasso_replays(&s, &p, &unpruned(), &bad_stem, cycle).unwrap());
            let mut bad_cycle = cycle.clone();
            bad_cycle.push("page=nowhere".into());
            assert!(!lasso_replays(&s, &p, &unpruned(), stem, &bad_cycle).unwrap());
            // A cycle cut short does not close.
            if cycle.len() > 1 {
                let cut = &cycle[..cycle.len() - 1];
                assert!(!lasso_replays(&s, &p, &unpruned(), stem, cut).unwrap());
            }
        }
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
