//! Generic accepting-lasso search over implicit graphs.
//!
//! The Periodic-Run Lemma (Appendix A.1) reduces "some run violates φ" to
//! "some *periodic* run violates φ": an accepting cycle reachable from an
//! initial node in the product of the system with the Büchi automaton for
//! ¬φ. This module provides that search over *implicit* graphs — the
//! symbolic verifier never materializes its state space up front — in three
//! flavours:
//!
//! * [`find_accepting_lasso`] / [`find_accepting_lasso_stats_with`]: nested DFS
//!   (Courcoubetis–Vardi–Wolper–Yannakakis);
//! * [`find_accepting_scc`]: Tarjan SCC decomposition, returning a lasso
//!   through the first accepting component;
//! * [`breadth_first`]: layered reachability over a [`PrunedGraph`] (one
//!   whose successor function drops subsumed nodes), for reachability of a
//!   target or, when the accepting region is closed, for a lasso that
//!   enters it and cycles inside it.
//!
//! All operate on **interned node ids** ([`crate::interner::Interner`]):
//! each distinct node is hashed once and visited sets are bit vectors.
//! The depth-first searches **memoize successor generation per node** —
//! the red (inner) DFS of the nested search reuses the successor lists
//! the blue (outer) DFS computed, instead of re-deriving them; the
//! breadth-first search expands each node once and keeps no memo. [`SearchStats`] reports the
//! interning, memoization, and timing counters.
//!
//! Node budgets are sound: exhausting `limit` — in any phase —
//! always surfaces as [`SearchResult::LimitReached`], never as a spurious
//! "empty" answer.

use std::hash::Hash;
use std::time::{Duration, Instant};

use crate::cancel::CancelToken;
use crate::interner::Interner;

/// Counters describing one search (or one verification run).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Distinct nodes interned (discovered, whether or not expanded).
    pub nodes_interned: usize,
    /// Times a node was re-derived and found already interned.
    pub dedup_hits: u64,
    /// Distinct nodes whose successor list was computed and cached.
    pub successors_memoized: usize,
    /// Times a cached successor list was reused instead of recomputed.
    pub memo_hits: u64,
    /// Peak size of the search frontier (BFS layer width, or the deepest
    /// DFS stack, whichever the phase uses).
    pub peak_frontier: usize,
    /// Wall time of the verdict-producing search phase.
    pub search_wall: Duration,
    /// Times a derived node was dropped because an admitted node with
    /// the same control state assumed less about the database (store
    /// subsumption; a node derived and dropped again counts again; zero
    /// when pruning was off or did not apply).
    pub pruned: u64,
    /// Rules removed by the cone-of-influence slicer before the search
    /// (zero when slicing was off, refused, or not applicable).
    pub sliced_rules: usize,
    /// Schema relations removed by the cone-of-influence slicer.
    pub sliced_relations: usize,
    /// True when the verdict was replayed from a digest-keyed
    /// incremental tier instead of being searched for: the submitted
    /// property's cone-sliced service matched a previously verified
    /// one, so the prior verdict bytes were returned without consuming
    /// any search budget (every search counter above is zero).
    pub incremental: bool,
}

impl std::fmt::Display for SearchStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "interned {} (dedup {}), memoized {} (hits {}), peak frontier {}, \
             pruned {}, sliced {} rules / {} relations, search {:?}{}",
            self.nodes_interned,
            self.dedup_hits,
            self.successors_memoized,
            self.memo_hits,
            self.peak_frontier,
            self.pruned,
            self.sliced_rules,
            self.sliced_relations,
            self.search_wall,
            if self.incremental {
                " [incremental replay]"
            } else {
                ""
            },
        )
    }
}

/// Result of the lasso search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SearchResult<N> {
    /// No accepting lasso exists (the product language is empty).
    Empty {
        /// Number of distinct nodes explored.
        explored: usize,
    },
    /// An accepting lasso was found: `stem` leads from an initial node to
    /// the cycle entry; `cycle` returns to the first node of itself and
    /// contains an accepting node. A [`Goal::Reach`] answer has an empty
    /// `cycle` and a `stem` that ends at the target.
    Lasso {
        /// Path from an initial node to the start of the cycle (exclusive).
        stem: Vec<N>,
        /// The cycle, starting at its entry node (the closing edge back to
        /// `cycle[0]` is implicit).
        cycle: Vec<N>,
    },
    /// The node budget was exhausted before the search finished.
    LimitReached {
        /// The configured budget.
        limit: usize,
    },
    /// The search was cancelled cooperatively (explicit cancel or
    /// deadline expiry on the supplied [`CancelToken`]) before an answer
    /// was reached. Like `LimitReached`, the answer is unknown.
    Cancelled,
}

impl<N> SearchResult<N> {
    /// True when a counterexample lasso was found.
    pub fn is_lasso(&self) -> bool {
        matches!(self, SearchResult::Lasso { .. })
    }
}

/// Shared machinery of the searches: the interner, the per-node
/// successor memo, the budget, and the cancellation token.
struct Core<N> {
    interner: Interner<N>,
    /// Successor ids per node id, computed at most once per node.
    memo: Vec<Option<Vec<u32>>>,
    limit: Option<usize>,
    limit_hit: bool,
    cancel: CancelToken,
    cancel_hit: bool,
    memo_hits: u64,
    memoized: usize,
}

impl<N> Core<N>
where
    N: Clone + Eq + Hash,
{
    fn new(limit: Option<usize>, cancel: &CancelToken) -> Self {
        Core {
            interner: Interner::new(),
            memo: Vec::new(),
            limit,
            limit_hit: false,
            cancel: cancel.clone(),
            cancel_hit: false,
            memo_hits: 0,
            memoized: 0,
        }
    }

    /// Interns `node`; true when it is new. Exceeding the budget marks
    /// the search stopped.
    fn intern(&mut self, node: N) -> (u32, bool) {
        let (id, new) = self.interner.intern(node);
        if let Some(l) = self.limit {
            if self.interner.len() > l {
                self.limit_hit = true;
            }
        }
        (id, new)
    }

    /// Expansion is the cancellation point: true when the token fired,
    /// which also marks the search stopped.
    fn poll_cancel(&mut self) -> bool {
        self.cancel_hit |= self.cancel.is_cancelled();
        self.cancel_hit
    }

    /// Successor ids of `id` — memoized, so the red DFS reuses lists the
    /// blue DFS already derived. The token is polled once per call.
    fn succs<FS>(&mut self, id: u32, succ: &mut FS) -> Vec<u32>
    where
        FS: FnMut(&N) -> Vec<N>,
    {
        if self.poll_cancel() {
            return Vec::new();
        }
        if self.memo.len() < self.interner.len() {
            self.memo.resize(self.interner.len(), None);
        }
        if let Some(v) = &self.memo[id as usize] {
            self.memo_hits += 1;
            return v.clone();
        }
        let node = self.interner.get(id).clone();
        let ids: Vec<u32> = succ(&node).into_iter().map(|k| self.intern(k).0).collect();
        self.memo[id as usize] = Some(ids.clone());
        self.memoized += 1;
        ids
    }

    /// True when the search must unwind (budget exhausted or cancelled).
    fn stopped(&self) -> bool {
        self.limit_hit || self.cancel_hit
    }

    fn stats(&self, peak_frontier: usize, started: Instant) -> SearchStats {
        SearchStats {
            nodes_interned: self.interner.len(),
            dedup_hits: self.interner.dedup_hits(),
            successors_memoized: self.memoized,
            memo_hits: self.memo_hits,
            peak_frontier,
            search_wall: started.elapsed(),
            ..SearchStats::default()
        }
    }

    /// The outcome to report when [`Core::stopped`] fired. Cancellation
    /// takes precedence: a search whose token has fired reports
    /// `Cancelled` even if the budget was also exhausted.
    fn stop_result<T>(&self) -> SearchResult<T> {
        if self.cancel_hit || self.cancel.is_cancelled() {
            SearchResult::Cancelled
        } else {
            SearchResult::LimitReached {
                limit: self.limit.expect("limit was configured"),
            }
        }
    }
}

fn mark(v: &mut Vec<bool>, id: u32) {
    let i = id as usize;
    if v.len() <= i {
        v.resize(i + 1, false);
    }
    v[i] = true;
}

fn unmark(v: &mut [bool], id: u32) {
    v[id as usize] = false;
}

fn has(v: &[bool], id: u32) -> bool {
    v.get(id as usize).copied().unwrap_or(false)
}

struct Frame {
    id: u32,
    children: Vec<u32>,
    next_child: usize,
}

/// Nested depth-first search for an accepting lasso.
///
/// * `inits` — the initial nodes.
/// * `succ` — successor function (the implicit edge relation).
/// * `accepting` — Büchi acceptance predicate on nodes.
/// * `limit` — optional cap on distinct interned nodes.
pub fn find_accepting_lasso<N, FS, FA>(
    inits: Vec<N>,
    succ: FS,
    accepting: FA,
    limit: Option<usize>,
) -> SearchResult<N>
where
    N: Clone + Eq + Hash + std::fmt::Debug,
    FS: FnMut(&N) -> Vec<N>,
    FA: Fn(&N) -> bool,
{
    find_accepting_lasso_stats_with(inits, succ, accepting, limit, &CancelToken::never()).0
}

/// [`find_accepting_lasso`] with the search counters and a cooperative
/// [`CancelToken`]: the token is polled at every node expansion, and a
/// fired token makes the search unwind with [`SearchResult::Cancelled`]
/// — an inconclusive answer, like a budget hit, never a spurious
/// "empty".
pub fn find_accepting_lasso_stats_with<N, FS, FA>(
    inits: Vec<N>,
    mut succ: FS,
    accepting: FA,
    limit: Option<usize>,
    cancel: &CancelToken,
) -> (SearchResult<N>, SearchStats)
where
    N: Clone + Eq + Hash + std::fmt::Debug,
    FS: FnMut(&N) -> Vec<N>,
    FA: Fn(&N) -> bool,
{
    let started = Instant::now();
    let mut core = Core::new(limit, cancel);
    let mut blue: Vec<bool> = Vec::new();
    let mut red: Vec<bool> = Vec::new();
    let mut blue_count = 0usize;
    let mut peak_depth = 0usize;

    let init_ids: Vec<u32> = inits.into_iter().map(|n| core.intern(n).0).collect();
    if core.poll_cancel() || core.stopped() {
        return (core.stop_result(), core.stats(peak_depth, started));
    }

    for init in init_ids {
        if has(&blue, init) {
            continue;
        }
        mark(&mut blue, init);
        blue_count += 1;
        let kids = core.succs(init, &mut succ);
        if core.stopped() {
            return (core.stop_result(), core.stats(peak_depth, started));
        }
        let mut stack = vec![Frame {
            id: init,
            children: kids,
            next_child: 0,
        }];
        let mut on_stack: Vec<bool> = Vec::new();
        mark(&mut on_stack, init);
        peak_depth = peak_depth.max(stack.len());

        while let Some(top) = stack.last_mut() {
            if top.next_child < top.children.len() {
                let child = top.children[top.next_child];
                top.next_child += 1;
                if !has(&blue, child) {
                    mark(&mut blue, child);
                    blue_count += 1;
                    mark(&mut on_stack, child);
                    let kids = core.succs(child, &mut succ);
                    if core.stopped() {
                        return (core.stop_result(), core.stats(peak_depth, started));
                    }
                    stack.push(Frame {
                        id: child,
                        children: kids,
                        next_child: 0,
                    });
                    peak_depth = peak_depth.max(stack.len());
                }
            } else {
                // Post-order: if accepting, run the inner (red) DFS.
                let nid = top.id;
                if accepting(core.interner.get(nid)) && !has(&red, nid) {
                    match red_dfs(&mut core, &mut succ, nid, &mut red, &on_stack) {
                        RedOutcome::Cycle(path) => {
                            let (stem, cycle) = build_lasso(&core.interner, &stack, path);
                            return (
                                SearchResult::Lasso { stem, cycle },
                                core.stats(peak_depth, started),
                            );
                        }
                        RedOutcome::Stopped => {
                            return (core.stop_result(), core.stats(peak_depth, started));
                        }
                        RedOutcome::NoCycle => {}
                    }
                }
                unmark(&mut on_stack, nid);
                stack.pop();
            }
        }
    }
    (
        SearchResult::Empty {
            explored: blue_count,
        },
        core.stats(peak_depth, started),
    )
}

enum RedOutcome {
    /// Id path `seed -> … -> t` where `t` closes a cycle: it is on the
    /// outer stack (nested DFS), or earlier on the path itself
    /// ([`breadth_first`]'s cycle search).
    Cycle(Vec<u32>),
    /// The node budget was exhausted (or the token cancelled) mid-phase —
    /// the answer is unknown, and must NOT be reported as "no cycle".
    Stopped,
    NoCycle,
}

/// Inner DFS from an accepting seed. Reuses the memoized successor lists,
/// so re-expansion is free for nodes the blue DFS already visited.
fn red_dfs<N, FS>(
    core: &mut Core<N>,
    succ: &mut FS,
    seed: u32,
    red: &mut Vec<bool>,
    on_outer_stack: &[bool],
) -> RedOutcome
where
    N: Clone + Eq + Hash,
    FS: FnMut(&N) -> Vec<N>,
{
    mark(red, seed);
    let kids = core.succs(seed, succ);
    if core.stopped() {
        return RedOutcome::Stopped;
    }
    let mut stack = vec![Frame {
        id: seed,
        children: kids,
        next_child: 0,
    }];
    while let Some(top) = stack.last_mut() {
        if top.next_child < top.children.len() {
            let child = top.children[top.next_child];
            top.next_child += 1;
            if has(on_outer_stack, child) {
                // Found the closing edge: path is the red stack + child.
                let mut path: Vec<u32> = stack.iter().map(|f| f.id).collect();
                path.push(child);
                return RedOutcome::Cycle(path);
            }
            if !has(red, child) {
                mark(red, child);
                let kids = core.succs(child, succ);
                if core.stopped() {
                    return RedOutcome::Stopped;
                }
                stack.push(Frame {
                    id: child,
                    children: kids,
                    next_child: 0,
                });
            }
        } else {
            stack.pop();
        }
    }
    RedOutcome::NoCycle
}

/// Reconstructs the lasso from the outer DFS stack and the red path
/// `seed -> … -> t` (with `t` on the outer stack).
fn build_lasso<N: Clone>(
    interner: &Interner<N>,
    stack: &[Frame],
    path: Vec<u32>,
) -> (Vec<N>, Vec<N>) {
    let mut stem: Vec<u32> = stack.iter().map(|f| f.id).collect();
    let seed = *stem.last().expect("outer stack is nonempty");
    let t = *path.last().expect("red path is nonempty");
    let mut full_cycle = path;
    if t != seed {
        // Complete the cycle along the outer stack from t back to seed.
        let pos = stack
            .iter()
            .position(|f| f.id == t)
            .expect("closing node is on the outer stack");
        for f in &stack[pos + 1..] {
            full_cycle.push(f.id);
        }
        debug_assert_eq!(full_cycle.last(), Some(&seed));
    }
    full_cycle.pop(); // drop the duplicated seed at the end
    stem.pop();
    let cycle_ids: Vec<u32> = std::iter::once(seed)
        .chain(full_cycle.into_iter().skip(1))
        .collect();
    (
        stem.into_iter()
            .map(|id| interner.get(id).clone())
            .collect(),
        cycle_ids
            .into_iter()
            .map(|id| interner.get(id).clone())
            .collect(),
    )
}

/// The implicit graph [`breadth_first`] walks: a successor function that
/// may prune, a target predicate, and the question whether a node the
/// successor function kept is still admitted.
pub trait PrunedGraph<N> {
    /// The successors of `node` that survive pruning, in a deterministic
    /// order.
    fn successors(&mut self, node: &N) -> Vec<N>;
    /// Whether `node` is a target.
    fn is_target(&self, node: &N) -> bool;
    /// False once a node this graph kept has been evicted by a weaker
    /// one. The search skips an evicted node that is still waiting for
    /// expansion; its evictor is expanded instead.
    fn admitted(&self, node: &N) -> bool;
}

/// What [`breadth_first`] looks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Goal {
    /// The first target reached. The answer is a [`SearchResult::Lasso`]
    /// whose `stem` ends at the target and whose `cycle` is empty.
    Reach,
    /// A reachable target from which a cycle of targets is reachable
    /// through targets only: an accepting lasso that stays accepting
    /// once it enters the target region.
    Lasso,
}

/// DFS colours of target nodes in [`breadth_first`]'s cycle search.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Colour {
    White,
    /// On the current DFS stack.
    Grey,
    /// Fully explored: no cycle is reachable from it.
    Black,
}

/// Layered breadth-first search over a pruned graph.
///
/// Non-target nodes are expanded layer by layer in discovery order, so
/// the shallow (weak) nodes of an antichain-pruned graph are admitted
/// before the deep ones they subsume; a queued node evicted before its
/// turn is skipped. Every newly discovered target answers [`Goal::Reach`]
/// at once. For [`Goal::Lasso`] it starts a depth-first search for a
/// cycle that follows target successors only; a target with no such
/// cycle lets the breadth-first search resume, and everything that
/// depth-first search explored is known cycle-free from then on. The
/// answer's stem follows breadth-first parents to the target and the
/// depth-first stack after it, so it is a path of the graph.
///
/// Complete for [`Goal::Lasso`] when the successors of a target are all
/// targets (a safety-shaped Büchi automaton's accepting region). The
/// budget and the token are checked as in [`find_accepting_lasso`]: the
/// token at every expansion, the budget at every interned node, and a
/// fired token outranks an exhausted budget. A target whose interning
/// exhausts the budget still answers [`Goal::Reach`].
/// `Empty { explored }` counts expanded nodes.
pub fn breadth_first<N, G>(
    inits: Vec<N>,
    graph: &mut G,
    goal: Goal,
    limit: Option<usize>,
    cancel: &CancelToken,
) -> (SearchResult<N>, SearchStats)
where
    N: Clone + Eq + Hash,
    G: PrunedGraph<N>,
{
    let started = Instant::now();
    let mut bfs = Bfs {
        core: Core::new(limit, cancel),
        graph,
        goal,
        parent: Vec::new(),
        colour: Vec::new(),
        peak: 0,
    };
    let mut frontier = Vec::new();
    for node in inits {
        match bfs.discover(None, node) {
            Discovery::Queue(id) => frontier.push(id),
            Discovery::Seen => {}
            Discovery::Answer(result) => return (result, bfs.stats(started)),
        }
    }
    while !frontier.is_empty() {
        bfs.peak = bfs.peak.max(frontier.len());
        let mut next = Vec::new();
        for u in frontier {
            if !bfs.graph.admitted(bfs.core.interner.get(u)) {
                continue;
            }
            let Some(kids) = bfs.expand(u) else {
                return (bfs.core.stop_result(), bfs.stats(started));
            };
            for kid in kids {
                match bfs.discover(Some(u), kid) {
                    Discovery::Queue(id) => next.push(id),
                    Discovery::Seen => {}
                    Discovery::Answer(result) => return (result, bfs.stats(started)),
                }
            }
        }
        frontier = next;
    }
    let explored = bfs.core.memoized;
    (SearchResult::Empty { explored }, bfs.stats(started))
}

/// The state of one [`breadth_first`] search.
struct Bfs<'g, N, G> {
    core: Core<N>,
    graph: &'g mut G,
    goal: Goal,
    /// Breadth-first parent per node id (`None`: initial, or reached by
    /// a cycle search only).
    parent: Vec<Option<u32>>,
    colour: Vec<Colour>,
    /// Widest layer or deepest cycle-search stack.
    peak: usize,
}

/// What [`Bfs::discover`] made of a derived node.
enum Discovery<N> {
    /// New and not a target: expand it in the next layer.
    Queue(u32),
    /// Seen before, or a target without a cycle.
    Seen,
    /// The search is over.
    Answer(SearchResult<N>),
}

impl<N, G> Bfs<'_, N, G>
where
    N: Clone + Eq + Hash,
    G: PrunedGraph<N>,
{
    fn stats(&self, started: Instant) -> SearchStats {
        self.core.stats(self.peak, started)
    }

    /// Handles `node`, derived from `from`.
    fn discover(&mut self, from: Option<u32>, node: N) -> Discovery<N> {
        let (id, new) = self.core.intern(node);
        if !new {
            return Discovery::Seen;
        }
        let i = id as usize;
        if self.parent.len() <= i {
            self.parent.resize(i + 1, None);
        }
        self.parent[i] = from;
        if self.graph.is_target(self.core.interner.get(id)) {
            if self.goal == Goal::Reach {
                return Discovery::Answer(self.lasso(id, vec![id], 1));
            }
            if self.core.stopped() {
                return Discovery::Answer(self.core.stop_result());
            }
            return match self.cycle(id) {
                RedOutcome::Cycle(mut path) => {
                    let t = path.pop().expect("a cycle path is nonempty");
                    let entry = path
                        .iter()
                        .position(|&n| n == t)
                        .expect("the closing node is on the path");
                    Discovery::Answer(self.lasso(id, path, entry))
                }
                RedOutcome::NoCycle => Discovery::Seen,
                RedOutcome::Stopped => Discovery::Answer(self.core.stop_result()),
            };
        }
        if self.core.stopped() {
            return Discovery::Answer(self.core.stop_result());
        }
        Discovery::Queue(id)
    }

    /// The successors of `id`, or `None` when the search must stop.
    fn expand(&mut self, id: u32) -> Option<Vec<N>> {
        if self.core.poll_cancel() {
            return None;
        }
        self.core.memoized += 1;
        let node = self.core.interner.get(id).clone();
        Some(self.graph.successors(&node))
    }

    /// The interned target successors of `id`, or `None` when the search
    /// must stop.
    fn target_succs(&mut self, id: u32) -> Option<Vec<u32>> {
        let kids = self.expand(id)?;
        let ids = kids
            .into_iter()
            .filter(|k| self.graph.is_target(k))
            .map(|k| self.core.intern(k).0)
            .collect();
        if self.core.stopped() {
            return None;
        }
        if self.colour.len() < self.core.interner.len() {
            self.colour.resize(self.core.interner.len(), Colour::White);
        }
        Some(ids)
    }

    /// Depth-first search for a cycle through targets from the target
    /// `seed`. A found cycle is the stack at the closing edge followed by
    /// the grey node the edge returns to.
    fn cycle(&mut self, seed: u32) -> RedOutcome {
        let Some(kids) = self.target_succs(seed) else {
            return RedOutcome::Stopped;
        };
        self.colour[seed as usize] = Colour::Grey;
        let mut stack = vec![Frame {
            id: seed,
            children: kids,
            next_child: 0,
        }];
        loop {
            self.peak = self.peak.max(stack.len());
            let Some(top) = stack.last_mut() else {
                return RedOutcome::NoCycle;
            };
            let Some(&child) = top.children.get(top.next_child) else {
                self.colour[top.id as usize] = Colour::Black;
                stack.pop();
                continue;
            };
            top.next_child += 1;
            match self.colour[child as usize] {
                Colour::Grey => {
                    let mut path: Vec<u32> = stack.iter().map(|f| f.id).collect();
                    path.push(child);
                    return RedOutcome::Cycle(path);
                }
                Colour::White => {
                    let Some(kids) = self.target_succs(child) else {
                        return RedOutcome::Stopped;
                    };
                    self.colour[child as usize] = Colour::Grey;
                    stack.push(Frame {
                        id: child,
                        children: kids,
                        next_child: 0,
                    });
                }
                Colour::Black => {}
            }
        }
    }

    /// The answer for the target `seed`: the breadth-first path to it,
    /// then `path` (which starts at `seed`) up to `entry`, then the cycle
    /// `path[entry..]`.
    fn lasso(&self, seed: u32, mut path: Vec<u32>, entry: usize) -> SearchResult<N> {
        let mut stem = Vec::new();
        let mut cur = self.parent[seed as usize];
        while let Some(p) = cur {
            stem.push(p);
            cur = self.parent[p as usize];
        }
        stem.reverse();
        let cycle = path.split_off(entry);
        stem.extend(path);
        let get = |ids: Vec<u32>| -> Vec<N> {
            ids.into_iter()
                .map(|id| self.core.interner.get(id).clone())
                .collect()
        };
        SearchResult::Lasso {
            stem: get(stem),
            cycle: get(cycle),
        }
    }
}

/// Accepting-lasso search by Tarjan SCC decomposition.
///
/// Finds the first strongly connected component (in DFS completion order)
/// that contains an accepting node and a cycle, and returns a lasso
/// through it: the stem is a shortest path over the explored edges, the
/// cycle a shortest cycle through the smallest accepting member — both
/// deterministic. Agrees with [`find_accepting_lasso`] on emptiness;
/// useful as an independent oracle and when whole components matter.
pub fn find_accepting_scc<N, FS, FA>(
    inits: Vec<N>,
    succ: FS,
    accepting: FA,
    limit: Option<usize>,
) -> (SearchResult<N>, SearchStats)
where
    N: Clone + Eq + Hash + std::fmt::Debug,
    FS: FnMut(&N) -> Vec<N>,
    FA: Fn(&N) -> bool,
{
    find_accepting_scc_with(inits, succ, accepting, limit, &CancelToken::never())
}

/// [`find_accepting_scc`] with a cooperative [`CancelToken`] (polled at
/// every node expansion; a fired token yields [`SearchResult::Cancelled`]).
pub fn find_accepting_scc_with<N, FS, FA>(
    inits: Vec<N>,
    mut succ: FS,
    accepting: FA,
    limit: Option<usize>,
    cancel: &CancelToken,
) -> (SearchResult<N>, SearchStats)
where
    N: Clone + Eq + Hash + std::fmt::Debug,
    FS: FnMut(&N) -> Vec<N>,
    FA: Fn(&N) -> bool,
{
    let started = Instant::now();
    let mut core = Core::new(limit, cancel);
    let init_ids: Vec<u32> = inits.into_iter().map(|n| core.intern(n).0).collect();
    if core.poll_cancel() || core.stopped() {
        return (core.stop_result(), core.stats(0, started));
    }

    let mut index: Vec<Option<u32>> = Vec::new();
    let mut low: Vec<u32> = Vec::new();
    let mut on_stk: Vec<bool> = Vec::new();
    let mut stk: Vec<u32> = Vec::new();
    let mut next_index = 0u32;
    let mut peak_depth = 0usize;
    let mut visited = 0usize;

    let set_index = |index: &mut Vec<Option<u32>>, low: &mut Vec<u32>, id: u32, v: u32| {
        let i = id as usize;
        if index.len() <= i {
            index.resize(i + 1, None);
            low.resize(i + 1, 0);
        }
        index[i] = Some(v);
        low[i] = v;
    };

    for &root in &init_ids {
        if index
            .get(root as usize)
            .map(|x| x.is_some())
            .unwrap_or(false)
        {
            continue;
        }
        set_index(&mut index, &mut low, root, next_index);
        next_index += 1;
        visited += 1;
        stk.push(root);
        mark(&mut on_stk, root);
        let kids = core.succs(root, &mut succ);
        if core.stopped() {
            return (core.stop_result(), core.stats(peak_depth, started));
        }
        let mut frames = vec![Frame {
            id: root,
            children: kids,
            next_child: 0,
        }];
        peak_depth = peak_depth.max(frames.len());

        while let Some(top) = frames.last_mut() {
            if top.next_child < top.children.len() {
                let w = top.children[top.next_child];
                top.next_child += 1;
                let w_index = index.get(w as usize).copied().flatten();
                match w_index {
                    None => {
                        set_index(&mut index, &mut low, w, next_index);
                        next_index += 1;
                        visited += 1;
                        stk.push(w);
                        mark(&mut on_stk, w);
                        let kids = core.succs(w, &mut succ);
                        if core.stopped() {
                            return (core.stop_result(), core.stats(peak_depth, started));
                        }
                        frames.push(Frame {
                            id: w,
                            children: kids,
                            next_child: 0,
                        });
                        peak_depth = peak_depth.max(frames.len());
                    }
                    Some(wi) if has(&on_stk, w) => {
                        let v = top.id as usize;
                        low[v] = low[v].min(wi);
                    }
                    Some(_) => {}
                }
            } else {
                let v = top.id;
                frames.pop();
                if let Some(parent) = frames.last() {
                    let p = parent.id as usize;
                    low[p] = low[p].min(low[v as usize]);
                }
                if low[v as usize] == index[v as usize].expect("indexed") {
                    // Pop the component rooted at v.
                    let mut comp = Vec::new();
                    loop {
                        let w = stk.pop().expect("component members are on the stack");
                        unmark(&mut on_stk, w);
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    let has_cycle = comp.len() > 1
                        || core.memo[v as usize]
                            .as_ref()
                            .map(|s| s.contains(&v))
                            .unwrap_or(false);
                    let seed = comp
                        .iter()
                        .copied()
                        .find(|&w| accepting(core.interner.get(w)));
                    if let (true, Some(seed)) = (has_cycle, seed) {
                        let (stem, cycle) = scc_lasso(&core, &init_ids, &comp, seed);
                        return (
                            SearchResult::Lasso { stem, cycle },
                            core.stats(peak_depth, started),
                        );
                    }
                }
            }
        }
    }
    (
        SearchResult::Empty { explored: visited },
        core.stats(peak_depth, started),
    )
}

/// Builds a deterministic lasso through `seed` (an accepting member of
/// the SCC `comp`) from the memoized edges: shortest stem from the
/// initial nodes, shortest cycle inside the component.
fn scc_lasso<N>(core: &Core<N>, inits: &[u32], comp: &[u32], seed: u32) -> (Vec<N>, Vec<N>)
where
    N: Clone + Eq + Hash,
{
    let kids = |id: u32| -> &[u32] {
        core.memo
            .get(id as usize)
            .and_then(|m| m.as_deref())
            .unwrap_or(&[])
    };

    // Stem: BFS from the initial nodes to the seed over explored edges.
    let mut parent: Vec<Option<u32>> = vec![None; core.interner.len()];
    let mut seen: Vec<bool> = vec![false; core.interner.len()];
    let mut queue: std::collections::VecDeque<u32> = std::collections::VecDeque::new();
    for &i in inits {
        if !seen[i as usize] {
            seen[i as usize] = true;
            queue.push_back(i);
        }
    }
    while let Some(u) = queue.pop_front() {
        if u == seed {
            break;
        }
        for &w in kids(u) {
            if !seen[w as usize] {
                seen[w as usize] = true;
                parent[w as usize] = Some(u);
                queue.push_back(w);
            }
        }
    }
    let mut stem_ids = vec![seed];
    while let Some(p) = parent[*stem_ids.last().expect("nonempty") as usize] {
        stem_ids.push(p);
    }
    stem_ids.reverse();
    stem_ids.pop(); // the seed starts the cycle, not the stem

    // Cycle: shortest path seed -> seed inside the component.
    let in_comp = |w: u32| comp.binary_search(&w).is_ok();
    let cycle_ids = if kids(seed).contains(&seed) {
        vec![seed]
    } else {
        let mut parent: Vec<Option<u32>> = vec![None; core.interner.len()];
        let mut seen: Vec<bool> = vec![false; core.interner.len()];
        let mut queue = std::collections::VecDeque::new();
        let mut closer = None;
        for &w in kids(seed) {
            if in_comp(w) && !seen[w as usize] {
                seen[w as usize] = true;
                queue.push_back(w);
            }
        }
        while let Some(u) = queue.pop_front() {
            for &w in kids(u) {
                if w == seed {
                    closer = Some(u);
                    break;
                }
                if in_comp(w) && !seen[w as usize] {
                    seen[w as usize] = true;
                    parent[w as usize] = Some(u);
                    queue.push_back(w);
                }
            }
            if closer.is_some() {
                break;
            }
        }
        let mut back = vec![closer.expect("an SCC with >1 node closes through seed")];
        while let Some(p) = parent[*back.last().expect("nonempty") as usize] {
            back.push(p);
        }
        back.push(seed);
        back.reverse();
        back
    };

    (
        stem_ids
            .into_iter()
            .map(|id| core.interner.get(id).clone())
            .collect(),
        cycle_ids
            .into_iter()
            .map(|id| core.interner.get(id).clone())
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Explicit little graphs for testing: adjacency lists.
    fn run(
        n: usize,
        edges: &[(usize, usize)],
        inits: &[usize],
        acc: &[usize],
    ) -> SearchResult<usize> {
        let mut adj = vec![Vec::new(); n];
        for &(a, b) in edges {
            adj[a].push(b);
        }
        let accset: BTreeSet<usize> = acc.iter().copied().collect();
        find_accepting_lasso(
            inits.to_vec(),
            |u| adj[*u].clone(),
            |u| accset.contains(u),
            None,
        )
    }

    fn run_scc(
        n: usize,
        edges: &[(usize, usize)],
        inits: &[usize],
        acc: &[usize],
    ) -> SearchResult<usize> {
        let mut adj = vec![Vec::new(); n];
        for &(a, b) in edges {
            adj[a].push(b);
        }
        let accset: BTreeSet<usize> = acc.iter().copied().collect();
        find_accepting_scc(
            inits.to_vec(),
            |u| adj[*u].clone(),
            |u| accset.contains(u),
            None,
        )
        .0
    }

    #[test]
    fn empty_graph() {
        let r = run(3, &[(0, 1)], &[0], &[2]);
        assert_eq!(r, SearchResult::Empty { explored: 2 });
    }

    #[test]
    fn self_loop_on_accepting() {
        let r = run(2, &[(0, 1), (1, 1)], &[0], &[1]);
        match r {
            SearchResult::Lasso { stem, cycle } => {
                assert_eq!(stem, vec![0]);
                assert_eq!(cycle, vec![1]);
            }
            other => panic!("expected lasso, got {other:?}"),
        }
    }

    #[test]
    fn cycle_through_accepting() {
        // 0 -> 1 -> 2 -> 1, accepting 2
        let r = run(3, &[(0, 1), (1, 2), (2, 1)], &[0], &[2]);
        match r {
            SearchResult::Lasso { stem, cycle } => {
                // cycle starts at the accepting seed 2 and returns via 1
                assert_eq!(cycle[0], 2);
                assert!(cycle.contains(&1));
                assert!(!stem.contains(&2));
            }
            other => panic!("expected lasso, got {other:?}"),
        }
    }

    #[test]
    fn accepting_not_on_cycle_rejected() {
        // 0 -> 1(acc) -> 2 -> 2 : the only cycle avoids the accepting node
        let r = run(3, &[(0, 1), (1, 2), (2, 2)], &[0], &[1]);
        assert!(matches!(r, SearchResult::Empty { .. }));
    }

    #[test]
    fn cycle_without_accepting_rejected() {
        let r = run(3, &[(0, 1), (1, 0)], &[0], &[2]);
        assert!(matches!(r, SearchResult::Empty { .. }));
    }

    #[test]
    fn multiple_inits() {
        let r = run(4, &[(0, 0), (1, 2), (2, 3), (3, 2)], &[0, 1], &[3]);
        assert!(r.is_lasso());
    }

    #[test]
    fn limit_stops_search() {
        // infinite-ish wide graph via counter nodes
        let r = find_accepting_lasso(vec![0usize], |u| vec![u + 1], |_| false, Some(100));
        assert_eq!(r, SearchResult::LimitReached { limit: 100 });
    }

    #[test]
    fn limit_exhausted_in_red_phase_is_not_empty() {
        // The accepting node sits on a cycle whose closing edge the red
        // DFS only reaches after expanding a long chain of fresh nodes.
        // With a budget that the blue phase survives but the red phase
        // exhausts, the answer must be LimitReached — never Empty (which
        // the caller would report as "property holds").
        //
        // Graph: 0(acc,init) -> 1 -> 2 -> … -> k -> 0; blue DFS interns
        // the chain, red DFS starts at 0 and must re-walk it. Budget
        // exactly the chain length: blue finishes, the search must not
        // claim emptiness anywhere. (With memoized successors the red
        // walk is cheap, but the *budget* semantics are what we pin.)
        let k = 50usize;
        let r = find_accepting_lasso(
            vec![0usize],
            |&u| vec![if u == k { 0 } else { u + 1 }],
            |&u| u == 0,
            Some(k + 1),
        );
        // Budget admits the whole graph: the lasso must be found.
        assert!(r.is_lasso(), "{r:?}");
        // Budget below the graph: must be LimitReached, not Empty.
        let r = find_accepting_lasso(
            vec![0usize],
            |&u| vec![if u == k { 0 } else { u + 1 }],
            |&u| u == 0,
            Some(k / 2),
        );
        assert_eq!(r, SearchResult::LimitReached { limit: k / 2 });
    }

    #[test]
    fn stats_count_interning_and_memo_reuse() {
        // 0 -> 1 -> 2 -> 1 (acc 2): red DFS re-expands 2 and 1 via memo.
        let adj = [vec![1usize], vec![2], vec![1]];
        let (r, stats) = find_accepting_lasso_stats_with(
            vec![0usize],
            |u| adj[*u].clone(),
            |u| *u == 2,
            None,
            &CancelToken::never(),
        );
        assert!(r.is_lasso());
        assert_eq!(stats.nodes_interned, 3);
        assert!(stats.dedup_hits >= 1, "2 -> 1 rediscovers 1");
        assert_eq!(stats.successors_memoized, 3);
        assert!(stats.memo_hits >= 1, "red phase must reuse blue lists");
        assert!(stats.peak_frontier >= 2);
    }

    #[test]
    fn lasso_validity_invariant() {
        // For any found lasso: consecutive stem/cycle nodes are edges and
        // cycle closes.
        let n = 6;
        let edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 2), (2, 5), (5, 5)];
        let mut adj = vec![Vec::new(); n];
        for &(a, b) in &edges {
            adj[a].push(b);
        }
        let acc = BTreeSet::from([4]);
        let check = |r: SearchResult<usize>| match r {
            SearchResult::Lasso { stem, cycle } => {
                let edge = |a: usize, b: usize| adj[a].contains(&b);
                let mut prev: Option<usize> = None;
                for &s in stem.iter().chain(cycle.iter()) {
                    if let Some(p) = prev {
                        assert!(edge(p, s), "missing edge {p}->{s}");
                    }
                    prev = Some(s);
                }
                assert!(edge(*cycle.last().unwrap(), cycle[0]), "cycle must close");
                assert!(cycle.iter().any(|u| acc.contains(u)));
            }
            other => panic!("expected lasso, got {other:?}"),
        };
        check(find_accepting_lasso(
            vec![0usize],
            |u| adj[*u].clone(),
            |u| acc.contains(u),
            None,
        ));
        check(find_accepting_scc(vec![0usize], |u| adj[*u].clone(), |u| acc.contains(u), None).0);
    }

    type Case<'a> = (usize, &'a [(usize, usize)], &'a [usize], &'a [usize]);

    #[test]
    fn scc_agrees_with_nested_dfs_on_small_cases() {
        let cases: &[Case] = &[
            (3, &[(0, 1)], &[0], &[2]),
            (2, &[(0, 1), (1, 1)], &[0], &[1]),
            (3, &[(0, 1), (1, 2), (2, 1)], &[0], &[2]),
            (3, &[(0, 1), (1, 2), (2, 2)], &[0], &[1]),
            (3, &[(0, 1), (1, 0)], &[0], &[2]),
            (4, &[(0, 0), (1, 2), (2, 3), (3, 2)], &[0, 1], &[3]),
        ];
        for &(n, edges, inits, acc) in cases {
            let a = run(n, edges, inits, acc).is_lasso();
            let b = run_scc(n, edges, inits, acc).is_lasso();
            assert_eq!(a, b, "disagreement on n={n} edges={edges:?}");
        }
    }

    #[test]
    fn scc_agrees_with_nested_dfs_on_random_graphs() {
        // Tiny xorshift so this module needs no RNG dependency.
        let mut s = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for case in 0..200 {
            let n = 2 + (next() % 7) as usize;
            let m = (next() % 12) as usize;
            let mut adj = vec![Vec::new(); n];
            for _ in 0..m {
                let a = (next() % n as u64) as usize;
                let b = (next() % n as u64) as usize;
                adj[a].push(b);
            }
            let acc: BTreeSet<usize> = (0..n).filter(|_| next() % 3 == 0).collect();
            let a =
                find_accepting_lasso(vec![0usize], |u| adj[*u].clone(), |u| acc.contains(u), None);
            let (b, _) =
                find_accepting_scc(vec![0usize], |u| adj[*u].clone(), |u| acc.contains(u), None);
            assert_eq!(
                a.is_lasso(),
                b.is_lasso(),
                "case {case}: adj={adj:?} acc={acc:?}\nnested={a:?}\nscc={b:?}"
            );
        }
    }

    /// An unbounded chain graph: never terminates without a budget or a
    /// cancellation, so any non-stop result here would hang the test.
    fn chain_succ(u: &u64) -> Vec<u64> {
        vec![u + 1]
    }

    #[test]
    fn pre_cancelled_token_yields_cancelled_nested() {
        let t = CancelToken::new();
        t.cancel();
        let (res, _) = find_accepting_lasso_stats_with(vec![0u64], chain_succ, |_| true, None, &t);
        assert_eq!(res, SearchResult::Cancelled);
    }

    #[test]
    fn pre_cancelled_token_yields_cancelled_scc() {
        let t = CancelToken::new();
        t.cancel();
        let (res, _) = find_accepting_scc_with(vec![0u64], chain_succ, |_| true, None, &t);
        assert_eq!(res, SearchResult::Cancelled);
    }

    #[test]
    fn expired_deadline_cancels_mid_search() {
        let t = CancelToken::with_deadline(Duration::ZERO);
        let (res, _) = find_accepting_lasso_stats_with(vec![0u64], chain_succ, |_| false, None, &t);
        assert_eq!(res, SearchResult::Cancelled);
        let (res, _) = find_accepting_scc_with(vec![0u64], chain_succ, |_| false, None, &t);
        assert_eq!(res, SearchResult::Cancelled);
    }

    #[test]
    fn cancellation_takes_precedence_over_limit() {
        let t = CancelToken::new();
        t.cancel();
        let (res, _) =
            find_accepting_lasso_stats_with(vec![0u64], chain_succ, |_| false, Some(1), &t);
        assert_eq!(res, SearchResult::Cancelled);
    }

    #[test]
    fn never_token_leaves_results_unchanged() {
        let adj = [vec![1usize], vec![0]];
        let acc: BTreeSet<usize> = [1].into_iter().collect();
        let plain =
            find_accepting_lasso(vec![0usize], |u| adj[*u].clone(), |u| acc.contains(u), None);
        let (with, _) = find_accepting_lasso_stats_with(
            vec![0usize],
            |u| adj[*u].clone(),
            |u| acc.contains(u),
            None,
            &CancelToken::never(),
        );
        assert_eq!(plain, with);
        assert!(plain.is_lasso());
    }

    /// An explicit graph for [`breadth_first`]: adjacency lists, a
    /// target set, and the nodes evicted so far.
    struct Explicit {
        adj: Vec<Vec<usize>>,
        targets: BTreeSet<usize>,
        evicted: BTreeSet<usize>,
        /// Evictions to perform when a node is expanded: `(expanded, evicted)`.
        evicts: Vec<(usize, usize)>,
        expanded: Vec<usize>,
    }

    impl Explicit {
        fn new(n: usize, edges: &[(usize, usize)], targets: &[usize]) -> Explicit {
            let mut adj = vec![Vec::new(); n];
            for &(a, b) in edges {
                adj[a].push(b);
            }
            Explicit {
                adj,
                targets: targets.iter().copied().collect(),
                evicted: BTreeSet::new(),
                evicts: Vec::new(),
                expanded: Vec::new(),
            }
        }
    }

    impl PrunedGraph<usize> for Explicit {
        fn successors(&mut self, node: &usize) -> Vec<usize> {
            self.expanded.push(*node);
            for &(by, gone) in &self.evicts {
                if by == *node {
                    self.evicted.insert(gone);
                }
            }
            self.adj[*node].clone()
        }
        fn is_target(&self, node: &usize) -> bool {
            self.targets.contains(node)
        }
        fn admitted(&self, node: &usize) -> bool {
            !self.evicted.contains(node)
        }
    }

    fn bfs(g: &mut Explicit, goal: Goal, limit: Option<usize>) -> SearchResult<usize> {
        breadth_first(vec![0], g, goal, limit, &CancelToken::never()).0
    }

    #[test]
    fn a_target_without_a_future_lets_the_search_resume() {
        // 0 -> 1 (target, dead end) and 0 -> 2 -> 3 (target) -> 4 -> 3.
        // The first target reached has a finite future; the later one
        // cycles, so the answer is a lasso through 3 and 4.
        let edges = [(0, 1), (0, 2), (2, 3), (3, 4), (4, 3)];
        let mut g = Explicit::new(5, &edges, &[1, 3, 4]);
        match bfs(&mut g, Goal::Lasso, None) {
            SearchResult::Lasso { stem, cycle } => {
                assert_eq!(stem, vec![0, 2]);
                assert_eq!(cycle, vec![3, 4]);
            }
            other => panic!("expected lasso, got {other:?}"),
        }
        // Without the cycle, nothing is accepted.
        let mut g = Explicit::new(5, &[(0, 1), (0, 2), (2, 3), (3, 4)], &[1, 3, 4]);
        assert_eq!(
            bfs(&mut g, Goal::Lasso, None),
            SearchResult::Empty { explored: 5 }
        );
    }

    #[test]
    fn a_stem_runs_through_the_target_region_to_the_cycle() {
        // 0 -> 1 (target) -> 2 -> 3 -> 2: the cycle is entered at 2.
        let mut g = Explicit::new(4, &[(0, 1), (1, 2), (2, 3), (3, 2)], &[1, 2, 3]);
        match bfs(&mut g, Goal::Lasso, None) {
            SearchResult::Lasso { stem, cycle } => {
                assert_eq!(stem, vec![0, 1]);
                assert_eq!(cycle, vec![2, 3]);
            }
            other => panic!("expected lasso, got {other:?}"),
        }
    }

    #[test]
    fn reach_answers_with_the_path_to_the_first_target() {
        let mut g = Explicit::new(4, &[(0, 1), (1, 2), (0, 3), (3, 2)], &[2]);
        match bfs(&mut g, Goal::Reach, None) {
            SearchResult::Lasso { stem, cycle } => {
                assert_eq!(stem, vec![0, 1, 2]);
                assert!(cycle.is_empty());
            }
            other => panic!("expected a path, got {other:?}"),
        }
        let mut g = Explicit::new(3, &[(0, 1), (1, 0)], &[2]);
        assert_eq!(
            bfs(&mut g, Goal::Reach, None),
            SearchResult::Empty { explored: 2 }
        );
    }

    #[test]
    fn a_node_evicted_before_its_expansion_is_skipped() {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 4. Expanding 1 evicts 2, which is
        // still queued: 2 is never expanded, so 4 is never reached.
        let mut g = Explicit::new(5, &[(0, 1), (0, 2), (1, 3), (2, 4)], &[]);
        g.evicts.push((1, 2));
        let (result, stats) =
            breadth_first(vec![0], &mut g, Goal::Reach, None, &CancelToken::never());
        assert_eq!(result, SearchResult::Empty { explored: 3 });
        assert_eq!(g.expanded, vec![0, 1, 3]);
        assert_eq!(stats.nodes_interned, 4);
        assert_eq!(stats.successors_memoized, 3);
    }

    #[test]
    fn breadth_first_budget_and_token_never_give_a_spurious_empty() {
        // A chain into a cycle of targets: 0 -> 1 -> ... -> 9 -> 10 (target)
        // -> 11 (target) -> 10.
        let mut edges: Vec<(usize, usize)> = (0..10).map(|u| (u, u + 1)).collect();
        edges.extend([(10, 11), (11, 10)]);
        for goal in [Goal::Lasso, Goal::Reach] {
            let mut g = Explicit::new(12, &edges, &[10, 11]);
            assert!(bfs(&mut g, goal, None).is_lasso());
            for limit in 1..=9 {
                let mut g = Explicit::new(12, &edges, &[10, 11]);
                assert_eq!(
                    bfs(&mut g, goal, Some(limit)),
                    SearchResult::LimitReached { limit },
                    "{goal:?} limit {limit}"
                );
            }
            // The target is the node that exhausts a budget of 10 (and
            // fits in 11): that answers a reach, but the lasso still
            // needs node 11.
            for limit in [10, 11] {
                let mut g = Explicit::new(12, &edges, &[10, 11]);
                let r = bfs(&mut g, goal, Some(limit));
                match goal {
                    Goal::Reach => assert!(r.is_lasso(), "{r:?}"),
                    Goal::Lasso => assert_eq!(r, SearchResult::LimitReached { limit }),
                }
            }
            let mut g = Explicit::new(12, &edges, &[10, 11]);
            assert!(bfs(&mut g, goal, Some(12)).is_lasso());
            let fired = CancelToken::new();
            fired.cancel();
            for limit in [None, Some(1)] {
                let mut g = Explicit::new(12, &edges, &[10, 11]);
                let (r, _) = breadth_first(vec![0], &mut g, goal, limit, &fired);
                assert_eq!(r, SearchResult::Cancelled, "{goal:?} {limit:?}");
            }
        }
        let t = CancelToken::with_deadline(Duration::ZERO);
        let mut g = Explicit::new(12, &edges, &[10, 11]);
        assert_eq!(
            breadth_first(vec![0], &mut g, Goal::Lasso, None, &t).0,
            SearchResult::Cancelled
        );
    }

    #[test]
    fn breadth_first_agrees_with_nested_dfs_on_closed_target_regions() {
        let mut s = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for case in 0..300 {
            let n = 2 + (next() % 8) as usize;
            let acc: BTreeSet<usize> = (0..n).filter(|_| next() % 3 == 0).collect();
            let mut edges = Vec::new();
            for _ in 0..(next() % 14) {
                let a = (next() % n as u64) as usize;
                let b = (next() % n as u64) as usize;
                // Keep the target region closed, as a safety-shaped
                // automaton's accepting region is.
                if !acc.contains(&a) || acc.contains(&b) {
                    edges.push((a, b));
                }
            }
            let targets: Vec<usize> = acc.iter().copied().collect();
            let mut g = Explicit::new(n, &edges, &targets);
            let nested = run(n, &edges, &[0], &targets);
            let breadth = bfs(&mut g, Goal::Lasso, None);
            assert_eq!(
                nested.is_lasso(),
                breadth.is_lasso(),
                "case {case}: edges={edges:?} acc={acc:?}\nnested={nested:?}\nbfs={breadth:?}"
            );
            if let SearchResult::Lasso { stem, cycle } = breadth {
                let edge = |a: usize, b: usize| edges.contains(&(a, b));
                let path: Vec<usize> = stem.iter().chain(&cycle).copied().collect();
                assert_eq!(path[0], 0);
                assert!(path.windows(2).all(|w| edge(w[0], w[1])), "case {case}");
                assert!(edge(*cycle.last().unwrap(), cycle[0]), "case {case}");
                assert!(cycle.iter().all(|u| acc.contains(u)), "case {case}");
            }
        }
    }
}
