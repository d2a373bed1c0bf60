//! Generic accepting-lasso search over implicit graphs.
//!
//! The Periodic-Run Lemma (Appendix A.1) reduces "some run violates φ" to
//! "some *periodic* run violates φ": an accepting cycle reachable from an
//! initial node in the product of the system with the Büchi automaton for
//! ¬φ. This module provides that search over *implicit* graphs — the
//! symbolic verifier never materializes its state space up front — in two
//! flavours:
//!
//! * [`find_accepting_lasso`] / [`find_accepting_lasso_stats_with`]: nested DFS
//!   (Courcoubetis–Vardi–Wolper–Yannakakis);
//! * [`find_accepting_scc`]: Tarjan SCC decomposition, returning a lasso
//!   through the first accepting component.
//!
//! Both operate on **interned node ids** ([`crate::interner::Interner`]):
//! each distinct node is hashed once, visited sets are bit vectors, and
//! successor generation is **memoized per node** — the red (inner) DFS of
//! the nested search reuses the successor lists the blue (outer) DFS
//! computed, instead of re-deriving them. [`SearchStats`] reports the
//! interning, memoization, and timing counters.
//!
//! Node budgets are sound: exhausting `limit` — in either DFS phase —
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
    /// contains an accepting node.
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

/// Shared machinery of both searches: the interner, the per-node
/// successor memo, the budget, and the cancellation token.
struct Core<N, FS> {
    interner: Interner<N>,
    /// Successor ids per node id, computed at most once per node.
    memo: Vec<Option<Vec<u32>>>,
    succ: FS,
    limit: Option<usize>,
    limit_hit: bool,
    cancel: CancelToken,
    cancel_hit: bool,
    memo_hits: u64,
    memoized: usize,
}

impl<N, FS> Core<N, FS>
where
    N: Clone + Eq + Hash,
    FS: FnMut(&N) -> Vec<N>,
{
    fn new(succ: FS, limit: Option<usize>, cancel: &CancelToken) -> Self {
        Core {
            interner: Interner::new(),
            memo: Vec::new(),
            succ,
            limit,
            limit_hit: false,
            cancel: cancel.clone(),
            cancel_hit: false,
            memo_hits: 0,
            memoized: 0,
        }
    }

    fn intern(&mut self, node: N) -> u32 {
        let (id, _) = self.interner.intern(node);
        if self.memo.len() < self.interner.len() {
            self.memo.resize(self.interner.len(), None);
        }
        if let Some(l) = self.limit {
            if self.interner.len() > l {
                self.limit_hit = true;
            }
        }
        id
    }

    /// Successor ids of `id` — memoized, so the red DFS reuses lists the
    /// blue DFS already derived. Expansion is the cancellation point:
    /// the token is polled once per call.
    fn succs(&mut self, id: u32) -> Vec<u32> {
        if self.cancel.is_cancelled() {
            self.cancel_hit = true;
            return Vec::new();
        }
        if let Some(v) = &self.memo[id as usize] {
            self.memo_hits += 1;
            return v.clone();
        }
        let node = self.interner.get(id).clone();
        let ids: Vec<u32> = (self.succ)(&node)
            .into_iter()
            .map(|k| self.intern(k))
            .collect();
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
    /// takes precedence: a cancelled search reports `Cancelled` even if
    /// the budget was also exhausted.
    fn stop_result<T>(&self) -> SearchResult<T> {
        if self.cancel_hit {
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
    succ: FS,
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
    let mut core = Core::new(succ, limit, cancel);
    let mut blue: Vec<bool> = Vec::new();
    let mut red: Vec<bool> = Vec::new();
    let mut blue_count = 0usize;
    let mut peak_depth = 0usize;

    let init_ids: Vec<u32> = inits.into_iter().map(|n| core.intern(n)).collect();
    if core.stopped() || core.cancel.is_cancelled() {
        core.cancel_hit |= core.cancel.is_cancelled();
        return (core.stop_result(), core.stats(peak_depth, started));
    }

    for init in init_ids {
        if has(&blue, init) {
            continue;
        }
        mark(&mut blue, init);
        blue_count += 1;
        let kids = core.succs(init);
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
                    let kids = core.succs(child);
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
                    match red_dfs(&mut core, nid, &mut red, &on_stack) {
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
    /// Id path `seed -> … -> t` where `t` is on the outer stack.
    Cycle(Vec<u32>),
    /// The node budget was exhausted (or the token cancelled) mid-phase —
    /// the answer is unknown, and must NOT be reported as "no cycle".
    Stopped,
    NoCycle,
}

/// Inner DFS from an accepting seed. Reuses the memoized successor lists,
/// so re-expansion is free for nodes the blue DFS already visited.
fn red_dfs<N, FS>(
    core: &mut Core<N, FS>,
    seed: u32,
    red: &mut Vec<bool>,
    on_outer_stack: &[bool],
) -> RedOutcome
where
    N: Clone + Eq + Hash,
    FS: FnMut(&N) -> Vec<N>,
{
    mark(red, seed);
    let kids = core.succs(seed);
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
                let kids = core.succs(child);
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
    succ: FS,
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
    let mut core = Core::new(succ, limit, cancel);
    let init_ids: Vec<u32> = inits.into_iter().map(|n| core.intern(n)).collect();
    if core.stopped() || core.cancel.is_cancelled() {
        core.cancel_hit |= core.cancel.is_cancelled();
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
        let kids = core.succs(root);
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
                        let kids = core.succs(w);
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
fn scc_lasso<N, FS>(core: &Core<N, FS>, inits: &[u32], comp: &[u32], seed: u32) -> (Vec<N>, Vec<N>)
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
}
