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
//! # Architecture: interned ids, memoized successors, overlapped prefetch
//!
//! Product nodes `(SymConfig, büchi state)` are hash-consed to dense ids
//! by the [`wave_automata::interner::Interner`] inside the nested DFS;
//! successor generation is memoized per node, so the inner (red) DFS
//! reuses the lists the outer (blue) DFS derived.
//!
//! On top of that, the engine memoizes the **expensive half** of
//! successor generation — `successors(cfg)` composed with the FO-component
//! letter evaluation — once per *configuration* (shared by every Büchi
//! state paired with it). With `threads > 1` this memo is populated
//! **concurrently with the search**: `std::thread::scope` prefetch
//! workers expand the configuration graph ahead of the nested DFS,
//! publishing entries into a sharded table (plain `std` only — no
//! external registry is required from CI). There is **no phase barrier**:
//! the search starts immediately, never waits for a worker, and computes
//! any entry it needs before the prefetchers reach it. (An earlier design
//! warmed the *entire* memo behind a barrier before the search started,
//! which made threads strictly slower — the warming phase rebuilt the
//! whole graph even when the search needed a fraction of it.)
//!
//! The prefetch is a pure cache: every memo value is a pure function of
//! its configuration, and the verdict — including counterexample lassos —
//! is always produced by the same sequential nested DFS over the same
//! deterministically ordered successor lists, so outcomes are
//! **byte-identical for every thread count**.
//!
//! # Sharing, not copying
//!
//! Each successor configuration is allocated once, behind an `Arc`, when
//! its predecessor is expanded ([`SuccPairs`]). Product nodes, the memo
//! keys, the interner, the prefetch tables and the red DFS all hold that
//! one allocation and clone only the pointer. Inside successor
//! generation the knowledge store is shared copy-on-write (see
//! [`SymConfig`]).

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use wave_core::classify;
use wave_core::service::Service;
use wave_logic::bounded::BoundedError;
use wave_logic::schema::ConstKind;
use wave_logic::temporal::{Property, TemporalClass};

pub use wave_automata::cancel::CancelToken;
use wave_automata::interner::Interner;
use wave_automata::ltl2buchi::translate;
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
    /// Total threads for the run, search thread included: `1` (the
    /// default) runs purely sequentially, `0` means one per available
    /// core, `n > 1` lets up to `n - 1` prefetch workers warm the
    /// successor memo **concurrently with** the search (capped at the
    /// machine's available parallelism unless
    /// [`SymbolicOptions::force_overlap`] is set — oversubscribing a
    /// smaller machine only adds scheduling overhead). The verdict is
    /// byte-identical for every value — workers only pre-populate the
    /// successor memo.
    pub threads: usize,
    /// Spawn `threads - 1` prefetch workers even when the machine reports
    /// fewer available cores. The default (`false`) is right for
    /// production; tests and the differential oracle set it so the
    /// concurrent machinery is genuinely exercised on any machine.
    pub force_overlap: bool,
    /// Cooperative cancellation: polled at every node expansion. A fired
    /// token surfaces as [`Verdict::Cancelled`] — never a panic. The
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
            force_overlap: false,
            cancel: CancelToken::never(),
            slice: true,
            automata: None,
        }
    }
}

impl SymbolicOptions {
    /// Replaces degenerate settings with their documented meanings:
    ///
    /// * `node_limit == 0` → [`DEFAULT_NODE_LIMIT`]. A literal zero
    ///   budget would report [`Verdict::LimitReached`] before interning a
    ///   single node, which no caller ever wants; `0` therefore means
    ///   "default budget".
    /// * `threads == 0` → one per available core (as reported by
    ///   `std::thread::available_parallelism`, falling back to `1`).
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
            threads: if self.threads == 0 {
                available_cores()
            } else {
                self.threads
            },
            force_overlap: self.force_overlap,
            cancel: self.cancel.clone(),
            slice: self.slice,
            automata: self.automata.clone(),
        }
    }

    /// Effective prefetch worker count for normalized options: one less
    /// than the thread budget (the search thread takes the first slot),
    /// capped at the machine's parallelism unless `force_overlap`.
    fn overlap_workers(&self) -> usize {
        if self.threads <= 1 {
            return 0;
        }
        if self.force_overlap {
            return self.threads - 1;
        }
        self.threads.min(available_cores()).saturating_sub(1)
    }
}

fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
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
    /// The node budget was exhausted before an answer — the result is
    /// **inconclusive**, not a proof.
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
    /// The answer. Deterministic: byte-identical for every `threads`
    /// setting.
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

/// Per-configuration memo value: the letter-annotated successor
/// configurations, shared by every Büchi state. The sequential and the
/// prefetching search both use it.
type SuccPairs = Vec<(Arc<SymConfig>, PropSet)>;

/// A product node: a shared configuration paired with a Büchi state.
type Node = (Arc<SymConfig>, usize);

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
    let aut = match &opts.automata {
        Some(cache) => cache.get_or_insert(buchi_key(property), || translate(&pnf)),
        None => Arc::new(translate(&pnf)),
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
    // not satisfied (Definition 3.1's satisfaction condition). Pure in
    // `cfg`, so its results can be cached and computed on any thread.
    let letters = |cfg: SymConfig| -> SuccPairs {
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
        acc.into_iter().map(|(c, l)| (Arc::new(c), l)).collect()
    };

    // The expensive half of product successor generation, memoized per
    // configuration: raw successors composed with letter branching.
    let expand = |cfg: &SymConfig| -> SuccPairs {
        let mut pairs = Vec::new();
        for s in successors(service, &ctable, cfg) {
            pairs.extend(letters(s));
        }
        pairs
    };

    // Initial product nodes.
    let mut inits: Vec<Node> = Vec::new();
    for c0 in initial_configs(service, &ctable) {
        for (c1, letter) in letters(c0) {
            for &q in &aut.initial {
                if aut.guard[q].accepts(&letter) {
                    inits.push((Arc::clone(&c1), q));
                }
            }
        }
    }

    // Büchi product expansion of a memoized successor list.
    let product = |pairs: &SuccPairs, q: usize| -> Vec<Node> {
        let mut out = Vec::new();
        for (s2, letter) in pairs {
            for &q2 in &aut.succ[q] {
                if aut.guard[q2].accepts(letter) {
                    out.push((Arc::clone(s2), q2));
                }
            }
        }
        out
    };

    // The search, with the per-configuration memo populated either lazily
    // on the search thread alone (`workers == 0`) or concurrently by
    // prefetch workers racing ahead of it. No phase barrier in either
    // case: the nested DFS starts immediately and never waits on a
    // worker — a missing entry is computed on the spot. Every memo value
    // is a pure function of the configuration, so prefetched and
    // search-computed entries are interchangeable and the traversal
    // (successor-list content order, never id or thread order) is
    // byte-identical for every worker count.
    let workers = opts.overlap_workers();
    let accepting = |&(_, q): &Node| aut.accepting[q];
    let (result, stats) = if workers == 0 {
        let mut memo: HashMap<Arc<SymConfig>, Arc<SuccPairs>> = HashMap::new();
        let succ = |(cfg, q): &Node| -> Vec<Node> {
            let pairs = match memo.get(cfg) {
                Some(p) => p.clone(),
                None => {
                    let p = Arc::new(expand(cfg));
                    memo.insert(Arc::clone(cfg), p.clone());
                    p
                }
            };
            product(&pairs, *q)
        };
        find_accepting_lasso_stats_with(inits, succ, accepting, Some(opts.node_limit), &opts.cancel)
    } else {
        let shared = PrefetchShared::new(opts.node_limit);
        {
            let mut q = shared.queue.lock().expect("prefetch queue poisoned");
            q.extend(inits.iter().map(|(c, _)| Arc::clone(c)));
        }
        let mut prefetch_hits = 0u64;
        let (result, mut stats) = std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| shared.worker(&expand, &opts.cancel));
            }
            let succ = |(cfg, q): &Node| -> Vec<Node> {
                let (pairs, by_worker) = shared.fetch_or_compute(cfg, &expand);
                if by_worker {
                    prefetch_hits += 1;
                }
                // Feed the discovered frontier to the prefetchers.
                shared.enqueue_fresh(&pairs);
                product(&pairs, *q)
            };
            let out = find_accepting_lasso_stats_with(
                inits,
                succ,
                accepting,
                Some(opts.node_limit),
                &opts.cancel,
            );
            // Release the workers before the scope joins them.
            shared.shutdown();
            out
        });
        stats.prefetched = shared.prefetched.load(Ordering::Relaxed);
        stats.prefetch_hits = prefetch_hits;
        (result, stats)
    };

    let verdict = match result {
        SearchResult::Empty { explored } => Verdict::Holds { explored },
        SearchResult::Lasso { stem, cycle } => Verdict::Violated {
            stem: stem.iter().map(|(c, _)| c.render(&ctable)).collect(),
            cycle: cycle.iter().map(|(c, _)| c.render(&ctable)).collect(),
        },
        SearchResult::LimitReached { .. } => Verdict::LimitReached,
        SearchResult::Cancelled => Verdict::Cancelled,
    };
    let mut stats = stats;
    stats.sliced_rules = sliced_rules;
    stats.sliced_relations = sliced_relations;
    Ok(VerifyOutcome { verdict, stats })
}

/// Number of shards in the prefetch memo (and claim) table.
const SHARDS: usize = 64;

/// One shard of the shared prefetch memo.
#[derive(Default)]
struct Shard {
    /// Configurations some thread has taken responsibility for, so no
    /// successor list is computed twice by the *workers* (the search
    /// thread deliberately never waits on an in-flight claim — it
    /// recomputes, which is wasted work but never wasted wall time).
    claimed: HashSet<Arc<SymConfig>>,
    /// Published successor lists; the flag records whether a prefetch
    /// worker (true) or the search thread (false) computed the entry.
    ready: HashMap<Arc<SymConfig>, (Arc<SuccPairs>, bool)>,
}

/// State shared between the verdict-producing search thread and the
/// prefetch workers. Purely a cache: racy claim order may vary *which*
/// thread computes an entry, but every entry's value is a pure function
/// of its key, so the search is oblivious to the race.
struct PrefetchShared {
    shards: Vec<Mutex<Shard>>,
    /// Work queue of configurations worth prefetching, fed by both the
    /// search thread (its discovered frontier) and the workers (their
    /// expansions' successors).
    queue: Mutex<VecDeque<Arc<SymConfig>>>,
    /// Wakes idle workers on new work or shutdown.
    wake: Condvar,
    /// Set once the search has its answer; workers drain out.
    done: AtomicBool,
    /// Expansion tickets claimed by workers; bounded by the node limit so
    /// prefetching can never outrun the budget of the search it serves.
    tickets: AtomicUsize,
    ticket_limit: usize,
    /// Successor lists computed by workers (the `prefetched` stat).
    prefetched: AtomicUsize,
}

impl PrefetchShared {
    fn new(ticket_limit: usize) -> PrefetchShared {
        PrefetchShared {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            queue: Mutex::new(VecDeque::new()),
            wake: Condvar::new(),
            done: AtomicBool::new(false),
            tickets: AtomicUsize::new(0),
            ticket_limit,
            prefetched: AtomicUsize::new(0),
        }
    }

    fn shard_of(&self, cfg: &SymConfig) -> &Mutex<Shard> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        cfg.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    /// Search-thread lookup: returns the published successor list, or
    /// computes it **immediately** (never blocking on an in-flight
    /// worker). The flag reports whether a worker supplied the entry.
    fn fetch_or_compute(
        &self,
        cfg: &Arc<SymConfig>,
        expand: &(impl Fn(&SymConfig) -> SuccPairs + Sync),
    ) -> (Arc<SuccPairs>, bool) {
        if let Some(hit) = self
            .shard_of(cfg)
            .lock()
            .expect("prefetch shard poisoned")
            .ready
            .get(cfg)
        {
            return hit.clone();
        }
        let pairs = Arc::new(expand(cfg));
        let mut shard = self.shard_of(cfg).lock().expect("prefetch shard poisoned");
        shard.claimed.insert(Arc::clone(cfg));
        // A worker may have published meanwhile; both values are
        // identical (pure function of the key), keep the first.
        let entry = shard
            .ready
            .entry(Arc::clone(cfg))
            .or_insert((pairs, false))
            .clone();
        entry
    }

    /// Queues the configurations of a successor list that no thread has
    /// claimed or published yet, and wakes the workers.
    fn enqueue_fresh(&self, pairs: &SuccPairs) {
        let mut fresh = Vec::new();
        for (c, _) in pairs {
            let shard = self.shard_of(c).lock().expect("prefetch shard poisoned");
            if !shard.claimed.contains(c) && !shard.ready.contains_key(c) {
                fresh.push(Arc::clone(c));
            }
        }
        if !fresh.is_empty() {
            let mut q = self.queue.lock().expect("prefetch queue poisoned");
            q.extend(fresh);
            self.wake.notify_all();
        }
    }

    /// Signals the workers to exit (called by the search thread once the
    /// verdict is in, *before* the surrounding scope joins them — so a
    /// scoped worker can never wedge the scope).
    fn shutdown(&self) {
        self.done.store(true, Ordering::Release);
        self.wake.notify_all();
    }

    /// Worker loop: claim a queued configuration, expand it, publish the
    /// list, queue its successors. Exits on shutdown, cancellation, or
    /// ticket exhaustion; the condvar wait is bounded so a missed wakeup
    /// degrades to a short poll, never a hang.
    fn worker(&self, expand: &(impl Fn(&SymConfig) -> SuccPairs + Sync), cancel: &CancelToken) {
        loop {
            if self.done.load(Ordering::Acquire) || cancel.is_cancelled() {
                return;
            }
            let job = {
                let mut q = self.queue.lock().expect("prefetch queue poisoned");
                loop {
                    if self.done.load(Ordering::Acquire) || cancel.is_cancelled() {
                        return;
                    }
                    if let Some(j) = q.pop_front() {
                        break j;
                    }
                    q = self
                        .wake
                        .wait_timeout(q, Duration::from_millis(5))
                        .expect("prefetch queue poisoned")
                        .0;
                }
            };
            {
                let mut shard = self.shard_of(&job).lock().expect("prefetch shard poisoned");
                if shard.ready.contains_key(&job) || !shard.claimed.insert(Arc::clone(&job)) {
                    continue; // another thread owns it
                }
            }
            // Budget: claim a ticket; exactly `ticket_limit` succeed, so
            // prefetching cannot intern-storm past the search's limit.
            if self.tickets.fetch_add(1, Ordering::Relaxed) >= self.ticket_limit {
                return;
            }
            let pairs = Arc::new(expand(&job));
            self.enqueue_fresh(&pairs);
            self.shard_of(&job)
                .lock()
                .expect("prefetch shard poisoned")
                .ready
                .entry(job)
                .or_insert((pairs, true));
            self.prefetched.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Diagnostic: breadth-first exploration of the symbolic configuration
/// graph (no automaton product), returning renders of the first `limit`
/// configurations. Useful to understand where a search blows up.
pub fn explore(service: &Service, property: &Property, limit: usize) -> Vec<String> {
    let ctable = CTable::build(service, property);
    let mut seen = std::collections::BTreeSet::new();
    let mut out = Vec::new();
    let mut queue: std::collections::VecDeque<SymConfig> =
        initial_configs(service, &ctable).into_iter().collect();
    while let Some(c) = queue.pop_front() {
        if !seen.insert(c.clone()) {
            continue;
        }
        out.push(format!(
            "{} | fresh={} facts={}",
            c.render(&ctable),
            c.n_fresh,
            c.st.persistent_facts()
        ));
        if out.len() >= limit {
            break;
        }
        for s in successors(service, &ctable, &c) {
            queue.push_back(s);
        }
    }
    out
}

/// Decides error-freeness (Theorem 3.5(i)): is the error page unreachable
/// on every database and run? Implemented as layered breadth-first
/// reachability over the symbolic configuration graph (no automaton
/// needed — "error free" is the safety property `G ¬W_err`). With
/// `threads > 1` each layer's successor computations are fanned out to
/// scoped workers; the layers are merged in frontier order, so the
/// witness path is byte-identical for every thread count.
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
    // Layer fan-out width: oversubscribing a smaller machine only adds
    // scheduling overhead, so cap at the available cores unless the
    // caller insists (tests exercising the concurrent path).
    let threads = if opts.force_overlap {
        opts.threads
    } else {
        opts.threads.min(available_cores())
    };
    let t0 = Instant::now();

    let mut interner: Interner<Arc<SymConfig>> = Interner::new();
    // BFS-tree parent of each interned config (None for initial ones).
    let mut parent: Vec<Option<u32>> = Vec::new();
    let mut frontier: Vec<u32> = Vec::new();
    let mut expanded = 0usize;
    let mut init_limit_hit = false;
    for c in initial_configs(service, &ctable) {
        let (id, new) = interner.intern(Arc::new(c));
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
        prefetched: 0,
        prefetch_hits: 0,
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
        let nodes: Vec<(u32, Arc<SymConfig>)> = frontier
            .iter()
            .map(|&id| (id, Arc::clone(interner.get(id))))
            .collect();
        expanded += nodes.len();
        // Successor computation is pure; fan the layer out to workers and
        // merge the per-chunk results in frontier order (deterministic).
        let results: Vec<Vec<(u32, Vec<SymConfig>)>> = if threads > 1 && nodes.len() > 1 {
            let chunk = nodes.len().div_ceil(threads);
            let ct = &ctable;
            std::thread::scope(|scope| {
                let handles: Vec<_> = nodes
                    .chunks(chunk)
                    .map(|part| {
                        scope.spawn(move || {
                            part.iter()
                                .map(|(id, cfg)| (*id, successors(service, ct, cfg)))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("worker panicked"))
                    .collect()
            })
        } else {
            vec![nodes
                .iter()
                .map(|(id, cfg)| (*id, successors(service, &ctable, cfg)))
                .collect()]
        };
        let mut next = Vec::new();
        for (pid, succs) in results.into_iter().flatten() {
            for s in succs {
                let (id, new) = interner.intern(Arc::new(s));
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
    fn zero_threads_normalizes_to_available_cores() {
        // Regression: `threads: 0` means one worker per core, and must
        // produce the same verdict as the sequential default.
        let s = toggle();
        let p = parse_property("G (P | Q)").unwrap();
        let opts = SymbolicOptions {
            threads: 0,
            ..SymbolicOptions::default()
        };
        assert!(opts.normalized().threads >= 1);
        let out = verify_ltl(&s, &p, &opts).unwrap();
        let base = verify_ltl(&s, &p, &SymbolicOptions::default()).unwrap();
        assert_eq!(out.verdict, base.verdict);
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
        // A run with prefetch workers must respect the deadline too.
        let opts2 = SymbolicOptions {
            cancel: CancelToken::with_deadline(Duration::ZERO),
            threads: 2,
            force_overlap: true,
            ..SymbolicOptions::default()
        };
        let out2 = verify_ltl(&s, &p, &opts2).unwrap();
        assert_eq!(out2.verdict, Verdict::Cancelled, "{out2:?}");
    }

    #[test]
    fn cancel_fired_mid_search_with_workers_in_flight() {
        // A token cancelled while prefetch workers are live must yield
        // Cancelled (taking precedence over LimitReached), join every
        // scoped worker (the call returning at all proves no wedge), and
        // leave nothing behind that poisons a later clean run.
        let s = login();
        let p = parse_property("G (!CP | logged_in)").unwrap();
        let cancel = CancelToken::new();
        let canceller = {
            let token = cancel.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(2));
                token.cancel();
            })
        };
        let opts = SymbolicOptions {
            threads: 4,
            force_overlap: true,
            node_limit: 1, // also exhausted: Cancelled must still win
            cancel,
            ..SymbolicOptions::default()
        };
        let out = verify_ltl(&s, &p, &opts).unwrap();
        canceller.join().unwrap();
        assert!(
            matches!(out.verdict, Verdict::Cancelled | Verdict::LimitReached),
            "{out:?}"
        );
        // If the token fired before the budget tripped, Cancelled won; we
        // can't control the interleaving, but a *pre-fired* token always
        // outranks the (already exhausted) budget:
        let fired = CancelToken::new();
        fired.cancel();
        let opts2 = SymbolicOptions {
            threads: 4,
            force_overlap: true,
            node_limit: 1,
            cancel: fired,
            ..SymbolicOptions::default()
        };
        let out2 = verify_ltl(&s, &p, &opts2).unwrap();
        assert_eq!(out2.verdict, Verdict::Cancelled, "{out2:?}");
        // The memo is per-run state: a clean run afterwards is unaffected
        // by the cancelled ones.
        let clean = verify_ltl(&s, &p, &SymbolicOptions::default()).unwrap();
        assert!(clean.holds(), "{clean:?}");
        let clean_par = verify_ltl(
            &s,
            &p,
            &SymbolicOptions {
                threads: 4,
                force_overlap: true,
                ..SymbolicOptions::default()
            },
        )
        .unwrap();
        assert_eq!(clean_par.verdict, clean.verdict);
    }

    #[test]
    fn thread_count_does_not_change_the_outcome() {
        // The determinism contract: verdict AND lasso bytes (Verdict's
        // equality covers the rendered stem/cycle) identical for every
        // thread count, with the concurrent machinery genuinely running
        // (force_overlap) regardless of the host's core count. The
        // structural stats are part of the contract too.
        let s = login();
        for prop in ["G (!CP | logged_in)", "G !CP", "F CP"] {
            let p = parse_property(prop).unwrap();
            let base = verify_ltl(&s, &p, &SymbolicOptions::default()).unwrap();
            for threads in [2usize, 8] {
                let opts = SymbolicOptions {
                    threads,
                    force_overlap: true,
                    ..SymbolicOptions::default()
                };
                let out = verify_ltl(&s, &p, &opts).unwrap();
                assert_eq!(
                    out.verdict, base.verdict,
                    "threads={threads} diverged on {prop}"
                );
                assert_eq!(
                    out.stats.nodes_interned, base.stats.nodes_interned,
                    "threads={threads} interned differently on {prop}"
                );
                assert_eq!(
                    out.stats.successors_memoized, base.stats.successors_memoized,
                    "threads={threads} memoized differently on {prop}"
                );
                assert_eq!(out.stats.dedup_hits, base.stats.dedup_hits);
                assert_eq!(out.stats.memo_hits, base.stats.memo_hits);
                assert_eq!(out.stats.peak_frontier, base.stats.peak_frontier);
            }
        }
        let base = is_error_free(&s, &SymbolicOptions::default()).unwrap();
        for threads in [2usize, 8] {
            let opts = SymbolicOptions {
                threads,
                force_overlap: true,
                ..SymbolicOptions::default()
            };
            let out = is_error_free(&s, &opts).unwrap();
            assert_eq!(out.verdict, base.verdict, "threads={threads} diverged");
            assert_eq!(out.stats.nodes_interned, base.stats.nodes_interned);
        }
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
    fn stats_are_populated() {
        let s = toggle();
        let p = parse_property("G (P | Q)").unwrap();
        let out = verify_ltl(&s, &p, &SymbolicOptions::default()).unwrap();
        assert!(out.stats.nodes_interned > 0);
        assert!(out.stats.successors_memoized > 0);
        assert!(out.stats.peak_frontier > 0);
        // A sequential run reports no prefetch activity.
        assert_eq!(out.stats.prefetched, 0);
        assert_eq!(out.stats.prefetch_hits, 0);
        // A run with prefetch workers: same verdict, same structural
        // counters; only the overlap counters may differ (and they are
        // scheduling-dependent, so no exact value is pinned).
        let opts = SymbolicOptions {
            threads: 2,
            force_overlap: true,
            ..SymbolicOptions::default()
        };
        let warm = verify_ltl(&s, &p, &opts).unwrap();
        assert_eq!(warm.verdict, out.verdict);
        assert_eq!(warm.stats.nodes_interned, out.stats.nodes_interned);
        assert_eq!(
            warm.stats.successors_memoized,
            out.stats.successors_memoized
        );
        assert_eq!(warm.stats.memo_hits, out.stats.memo_hits);
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
