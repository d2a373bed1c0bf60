//! Büchi automata with guarded transitions.
//!
//! The automata produced by [`crate::ltl2buchi`] read words over `2^AP`.
//! Each state carries a *guard* — a conjunction of literals the current
//! letter must satisfy when the automaton is at that state — following the
//! GPVW convention where a node's `Old` literals constrain the letter
//! consumed there.

use std::fmt;

use crate::props::PropSet;

/// A conjunction of propositional literals: the letter must contain all of
/// `pos` and none of `neg`.
#[derive(Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Guard {
    /// Propositions required present.
    pub pos: PropSet,
    /// Propositions required absent.
    pub neg: PropSet,
}

impl Guard {
    /// The guard satisfied by every letter.
    pub fn top() -> Self {
        Guard::default()
    }

    /// Whether `letter` satisfies the guard.
    pub fn accepts(&self, letter: &PropSet) -> bool {
        self.pos.is_subset(letter) && self.neg.is_disjoint(letter)
    }

    /// Whether the guard is satisfiable at all.
    pub fn consistent(&self) -> bool {
        self.pos.is_disjoint(&self.neg)
    }
}

impl fmt::Debug for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "+{:?} -{:?}", self.pos, self.neg)
    }
}

/// A (non-generalized) Büchi automaton.
///
/// State `q`'s outgoing transitions all consume a letter satisfying
/// `guard[q]`; acceptance is state-based (`accepting[q]`), required to hold
/// infinitely often along a run.
#[derive(Clone, Debug, Default)]
pub struct Buchi {
    /// Per-state guard on the letter consumed at that state.
    pub guard: Vec<Guard>,
    /// Per-state successor lists.
    pub succ: Vec<Vec<usize>>,
    /// Initial states.
    pub initial: Vec<usize>,
    /// Accepting states.
    pub accepting: Vec<bool>,
}

impl Buchi {
    /// Number of states.
    pub fn len(&self) -> usize {
        self.guard.len()
    }

    /// True when the automaton has no states.
    pub fn is_empty(&self) -> bool {
        self.guard.is_empty()
    }

    /// True when acceptance is a reachability question: every successor
    /// of an accepting state is accepting, and each accepting state has
    /// an accepting successor with a [`Guard::top`] guard and a
    /// self-loop. A run that reaches an accepting state is then accepted
    /// whatever letters follow, which is what lets the symbolic search
    /// prune subsumed configurations (DESIGN.md §3.1.3). The negation of
    /// an invariant `G φ` with `φ` free of temporal operators (Fig. 2's
    /// property is one) translates to this shape.
    pub fn is_safety_shaped(&self) -> bool {
        let top = Guard::top();
        (0..self.len()).filter(|&q| self.accepting[q]).all(|q| {
            self.succ[q].iter().all(|&r| self.accepting[r])
                && self.succ[q]
                    .iter()
                    .any(|&r| self.guard[r] == top && self.succ[r].contains(&r))
        })
    }

    /// Whether the automaton accepts the lasso word `stem · lasso^ω`.
    ///
    /// Decided by nondeterministic simulation: track the set of automaton
    /// states reachable at each position; detect a productive accepting
    /// cycle by running the product with the lasso positions through the
    /// generic nested-DFS search.
    pub fn accepts_lasso(&self, stem: &[PropSet], lasso: &[PropSet]) -> bool {
        assert!(!lasso.is_empty(), "lasso period must be nonempty");
        let n = stem.len() + lasso.len();
        let label = |i: usize| -> &PropSet {
            if i < stem.len() {
                &stem[i]
            } else {
                &lasso[i - stem.len()]
            }
        };
        let next = |i: usize| -> usize {
            if i + 1 < n {
                i + 1
            } else {
                stem.len()
            }
        };
        // Product node: (automaton state, word position).
        let inits: Vec<(usize, usize)> = self
            .initial
            .iter()
            .filter(|q| self.guard[**q].accepts(label(0)))
            .map(|q| (*q, 0usize))
            .collect();
        let result = crate::search::find_accepting_lasso(
            inits,
            |&(q, i)| {
                let mut out = Vec::new();
                let j = next(i);
                for &r in &self.succ[q] {
                    if self.guard[r].accepts(label(j)) {
                        out.push((r, j));
                    }
                }
                out
            },
            |&(q, _)| self.accepting[q],
            None,
        );
        matches!(result, crate::search::SearchResult::Lasso { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(ids: &[u32]) -> PropSet {
        PropSet::from_ids(ids.iter().copied())
    }

    #[test]
    fn guard_semantics() {
        let g = Guard {
            pos: ps(&[1]),
            neg: ps(&[2]),
        };
        assert!(g.accepts(&ps(&[1, 3])));
        assert!(!g.accepts(&ps(&[1, 2])));
        assert!(!g.accepts(&ps(&[3])));
        assert!(g.consistent());
        let bad = Guard {
            pos: ps(&[1]),
            neg: ps(&[1]),
        };
        assert!(!bad.consistent());
        assert!(Guard::top().accepts(&ps(&[])));
    }

    /// A two-state automaton for `GF p0`: state 0 waits (any letter),
    /// state 1 requires p0; accepting = state 1.
    fn gf_p0() -> Buchi {
        Buchi {
            guard: vec![
                Guard::top(),
                Guard {
                    pos: ps(&[0]),
                    neg: ps(&[]),
                },
            ],
            succ: vec![vec![0, 1], vec![0, 1]],
            initial: vec![0, 1],
            accepting: vec![false, true],
        }
    }

    #[test]
    fn accepts_infinitely_often() {
        let a = gf_p0();
        // (p0)^ω
        assert!(a.accepts_lasso(&[], &[ps(&[0])]));
        // ({} p0)^ω
        assert!(a.accepts_lasso(&[], &[ps(&[]), ps(&[0])]));
        // {}^ω — never p0
        assert!(!a.accepts_lasso(&[], &[ps(&[])]));
        // p0 then never again
        assert!(!a.accepts_lasso(&[ps(&[0])], &[ps(&[])]));
    }

    #[test]
    fn safety_shape_needs_a_closed_accepting_part_with_a_top_sink() {
        // `F p0`'s shape: wait anywhere, see p0, then accept anything.
        let eventually = Buchi {
            guard: vec![
                Guard::top(),
                Guard {
                    pos: ps(&[0]),
                    neg: ps(&[]),
                },
                Guard::top(),
            ],
            succ: vec![vec![0, 1], vec![2], vec![2]],
            initial: vec![0, 1],
            accepting: vec![false, false, true],
        };
        assert!(eventually.is_safety_shaped());
        // An accepting state that can leave the accepting part.
        assert!(!gf_p0().is_safety_shaped());
        // `G !p0`: closed, but its only self-loop is guarded.
        let always_not = Buchi {
            guard: vec![Guard {
                pos: ps(&[]),
                neg: ps(&[0]),
            }],
            succ: vec![vec![0]],
            initial: vec![0],
            accepting: vec![true],
        };
        assert!(!always_not.is_safety_shaped());
        // No accepting state: vacuously safety-shaped.
        assert!(Buchi::default().is_safety_shaped());
    }

    #[test]
    fn empty_automaton_rejects() {
        let a = Buchi::default();
        assert!(!a.accepts_lasso(&[], &[ps(&[])]));
    }
}
