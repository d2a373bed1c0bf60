//! LTL → Büchi translation (Gerth–Peled–Vardi–Wolper tableau).
//!
//! Translates a [`Pnf`] formula into a [`Buchi`] automaton accepting
//! exactly the infinite words satisfying it. The construction is the
//! classical on-the-fly tableau: nodes carry `New/Old/Next` obligation
//! sets; `U` and `R` unfold by their fixpoint expansions; acceptance sets
//! (one per `U` subformula) are degeneralized with a counter.
//!
//! This is the propositional engine behind the paper's Theorem 3.5: the
//! symbolic verifier abstracts FO components to propositions, negates the
//! property and searches the product of the Web service's symbolic
//! configuration graph with this automaton for an accepting lasso.

use std::collections::{BTreeMap, BTreeSet};

use crate::buchi::{Buchi, Guard};
use crate::pltl::Pnf;

type FId = usize;
type NodeId = usize;

const INIT_MARK: NodeId = usize::MAX;

struct Interner {
    by_formula: BTreeMap<Pnf, FId>,
    formulas: Vec<Pnf>,
}

impl Interner {
    fn new() -> Self {
        Interner {
            by_formula: BTreeMap::new(),
            formulas: Vec::new(),
        }
    }

    fn intern(&mut self, f: &Pnf) -> FId {
        if let Some(id) = self.by_formula.get(f) {
            return *id;
        }
        let id = self.formulas.len();
        self.by_formula.insert(f.clone(), id);
        self.formulas.push(f.clone());
        id
    }

    fn get(&self, id: FId) -> &Pnf {
        &self.formulas[id]
    }
}

#[derive(Clone, PartialEq, Eq)]
struct ProtoNode {
    incoming: BTreeSet<NodeId>,
    new: BTreeSet<FId>,
    old: BTreeSet<FId>,
    next: BTreeSet<FId>,
}

struct Builder {
    interner: Interner,
    /// finished nodes: (old, next) -> id
    by_content: BTreeMap<(BTreeSet<FId>, BTreeSet<FId>), NodeId>,
    nodes: Vec<(BTreeSet<FId>, BTreeSet<FId>, BTreeSet<NodeId>)>, // old, next, incoming
}

/// A pending step of the tableau construction. The construction is a
/// depth-first search that goes as deep as the automaton is large, not
/// as deep as the formula, so it runs on an explicit stack instead of
/// the call stack. Steps pop in exactly the order the recursive
/// formulation would make them, so formula ids, node ids and the
/// automaton are unchanged.
enum Task {
    Expand(ProtoNode),
    /// The branches `fs[next..]` of a disjunction, each expanded from
    /// `node` after the previous branch has been fully expanded.
    OrBranches {
        node: ProtoNode,
        fs: Vec<Pnf>,
        next: usize,
    },
}

impl Builder {
    fn run(&mut self, root: ProtoNode) {
        let mut stack = vec![Task::Expand(root)];
        while let Some(task) = stack.pop() {
            match task {
                Task::Expand(node) => self.expand(node, &mut stack),
                Task::OrBranches { node, fs, next } => {
                    let Some(g) = fs.get(next) else { continue };
                    let gid = self.intern(g);
                    let mut branch = node.clone();
                    if !branch.old.contains(&gid) {
                        branch.new.insert(gid);
                    }
                    stack.push(Task::OrBranches {
                        node,
                        fs,
                        next: next + 1,
                    });
                    stack.push(Task::Expand(branch));
                }
            }
        }
    }

    /// Processes one obligation of `node`, pushing the steps that follow.
    fn expand(&mut self, mut node: ProtoNode, stack: &mut Vec<Task>) {
        let Some(&eta) = node.new.iter().next() else {
            // New is empty: close the node.
            let key = (node.old.clone(), node.next.clone());
            if let Some(&existing) = self.by_content.get(&key) {
                let inc = node.incoming;
                self.nodes[existing].2.extend(inc);
                return;
            }
            let id = self.nodes.len();
            self.by_content.insert(key, id);
            self.nodes
                .push((node.old.clone(), node.next.clone(), node.incoming.clone()));
            // Successor proto-node carries Next as the new obligations.
            let succ = ProtoNode {
                incoming: BTreeSet::from([id]),
                new: node.next.clone(),
                old: BTreeSet::new(),
                next: BTreeSet::new(),
            };
            stack.push(Task::Expand(succ));
            return;
        };
        node.new.remove(&eta);
        if node.old.contains(&eta) {
            stack.push(Task::Expand(node));
            return;
        }
        let formula = self.interner.get(eta).clone();
        match formula {
            Pnf::False => { /* contradiction: discard this node */ }
            Pnf::True => {
                // Recorded in Old so that acceptance checks (`rhs ∈ Old`)
                // see trivially fulfilled untils like `φ U true`.
                node.old.insert(eta);
                stack.push(Task::Expand(node));
            }
            Pnf::Lit { prop, positive } => {
                let negid = self.interner.intern(&Pnf::Lit {
                    prop,
                    positive: !positive,
                });
                if node.old.contains(&negid) {
                    return; // contradictory literals: discard
                }
                node.old.insert(eta);
                stack.push(Task::Expand(node));
            }
            Pnf::And(fs) => {
                node.old.insert(eta);
                for g in &fs {
                    let gid = self.interner.intern(g);
                    if !node.old.contains(&gid) {
                        node.new.insert(gid);
                    }
                }
                stack.push(Task::Expand(node));
            }
            Pnf::Or(fs) => {
                node.old.insert(eta);
                stack.push(Task::OrBranches { node, fs, next: 0 });
            }
            Pnf::X(g) => {
                node.old.insert(eta);
                let gid = self.intern(&g);
                node.next.insert(gid);
                stack.push(Task::Expand(node));
            }
            Pnf::U(a, b) => {
                node.old.insert(eta);
                let aid = self.intern(&a);
                let bid = self.intern(&b);
                // Branch 1: a holds now, U carries to next step.
                let mut n1 = node.clone();
                if !n1.old.contains(&aid) {
                    n1.new.insert(aid);
                }
                n1.next.insert(eta);
                // Branch 2: b holds now — fulfilled.
                let mut n2 = node;
                if !n2.old.contains(&bid) {
                    n2.new.insert(bid);
                }
                stack.push(Task::Expand(n2));
                stack.push(Task::Expand(n1));
            }
            Pnf::R(a, b) => {
                node.old.insert(eta);
                let aid = self.intern(&a);
                let bid = self.intern(&b);
                // Branch 1: b holds now, R carries.
                let mut n1 = node.clone();
                if !n1.old.contains(&bid) {
                    n1.new.insert(bid);
                }
                n1.next.insert(eta);
                // Branch 2: a & b hold now — released.
                let mut n2 = node;
                for id in [aid, bid] {
                    if !n2.old.contains(&id) {
                        n2.new.insert(id);
                    }
                }
                stack.push(Task::Expand(n2));
                stack.push(Task::Expand(n1));
            }
        }
    }

    fn intern(&mut self, f: &Pnf) -> FId {
        self.interner.intern(f)
    }
}

/// Translates an LTL formula (in positive normal form) into a Büchi
/// automaton over the same propositions.
pub fn translate(f: &Pnf) -> Buchi {
    let mut b = Builder {
        interner: Interner::new(),
        by_content: BTreeMap::new(),
        nodes: Vec::new(),
    };
    let root = b.intern(f);
    b.run(ProtoNode {
        incoming: BTreeSet::from([INIT_MARK]),
        new: BTreeSet::from([root]),
        old: BTreeSet::new(),
        next: BTreeSet::new(),
    });

    let n = b.nodes.len();

    // Acceptance sets: one per U-subformula.
    let mut until_ids: Vec<(FId, FId)> = Vec::new(); // (u, rhs)
    let mut id = 0;
    while id < b.interner.formulas.len() {
        if let Pnf::U(_, rhs) = b.interner.formulas[id].clone() {
            let rhs_id = b.interner.intern(rhs.as_ref());
            until_ids.push((id, rhs_id));
        }
        id += 1;
    }
    let k = until_ids.len();

    // Guards from Old literals.
    let mut guards = Vec::with_capacity(n);
    for (old, _, _) in &b.nodes {
        let mut g = Guard::top();
        for &fid in old {
            if let Pnf::Lit { prop, positive } = b.interner.get(fid) {
                if *positive {
                    g.pos.insert(*prop);
                } else {
                    g.neg.insert(*prop);
                }
            }
        }
        guards.push(g);
    }

    // Edges: q -> r iff q ∈ incoming(r). Initial: INIT_MARK ∈ incoming(r).
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut initial = Vec::new();
    for (r, (_, _, incoming)) in b.nodes.iter().enumerate() {
        for &q in incoming {
            if q == INIT_MARK {
                initial.push(r);
            } else {
                succ[q].push(r);
            }
        }
    }

    // Generalized acceptance: F_m = { node : U_m ∉ old or rhs_m ∈ old }.
    let in_f = |node: usize, m: usize| -> bool {
        let (old, _, _) = &b.nodes[node];
        let (u, rhs) = until_ids[m];
        !old.contains(&u) || old.contains(&rhs)
    };

    if k == 0 {
        return Buchi {
            guard: guards,
            succ,
            initial,
            accepting: vec![true; n],
        };
    }

    // Degeneralize with a counter in 0..k: state (q, i); counter advances
    // when q ∈ F_{i+1}; accepting = { (q, 0) : q ∈ F_1 }.
    let idx = |q: usize, i: usize| q * k + i;
    let mut dguard = vec![Guard::top(); n * k];
    let mut dsucc: Vec<Vec<usize>> = vec![Vec::new(); n * k];
    let mut dacc = vec![false; n * k];
    for q in 0..n {
        for i in 0..k {
            dguard[idx(q, i)] = guards[q].clone();
            let ni = if in_f(q, i) { (i + 1) % k } else { i };
            for &r in &succ[q] {
                dsucc[idx(q, i)].push(idx(r, ni));
            }
            if i == 0 && in_f(q, 0) {
                dacc[idx(q, 0)] = true;
            }
        }
    }
    let dinit: Vec<usize> = initial.iter().map(|&q| idx(q, 0)).collect();
    Buchi {
        guard: dguard,
        succ: dsucc,
        initial: dinit,
        accepting: dacc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::props::PropSet;

    fn ps(ids: &[u32]) -> PropSet {
        PropSet::from_ids(ids.iter().copied())
    }

    fn check(f: &Pnf, stem: &[PropSet], lasso: &[PropSet]) {
        let expected = f.eval_lasso(stem, lasso);
        let a = translate(f);
        let got = a.accepts_lasso(stem, lasso);
        assert_eq!(
            got, expected,
            "automaton disagrees with semantics for {f:?} on stem={stem:?} lasso={lasso:?}"
        );
    }

    #[test]
    fn atoms() {
        let f = Pnf::prop(0);
        check(&f, &[ps(&[0])], &[ps(&[])]);
        check(&f, &[ps(&[])], &[ps(&[0])]);
        check(&f, &[], &[ps(&[0])]);
    }

    #[test]
    fn eventually_always() {
        let fg = Pnf::eventually(Pnf::always(Pnf::prop(1)));
        check(&fg, &[ps(&[])], &[ps(&[1])]);
        check(&fg, &[ps(&[1])], &[ps(&[])]);
        check(&fg, &[], &[ps(&[1]), ps(&[])]);
        let gf = Pnf::always(Pnf::eventually(Pnf::prop(1)));
        check(&gf, &[], &[ps(&[1]), ps(&[])]);
        check(&gf, &[], &[ps(&[])]);
    }

    #[test]
    fn until_release() {
        let u = Pnf::until(Pnf::prop(0), Pnf::prop(1));
        check(&u, &[ps(&[0]), ps(&[0])], &[ps(&[1])]);
        check(&u, &[ps(&[0]), ps(&[])], &[ps(&[1])]);
        check(&u, &[], &[ps(&[0])]);
        let r = Pnf::release(Pnf::prop(0), Pnf::prop(1));
        check(&r, &[], &[ps(&[1])]);
        check(&r, &[ps(&[1]), ps(&[0, 1])], &[ps(&[])]);
        check(&r, &[ps(&[1]), ps(&[1])], &[ps(&[])]);
    }

    #[test]
    fn next_chains() {
        let f = Pnf::next(Pnf::next(Pnf::prop(2)));
        check(&f, &[ps(&[]), ps(&[])], &[ps(&[2])]);
        check(&f, &[ps(&[2]), ps(&[])], &[ps(&[])]);
    }

    #[test]
    fn boolean_combinations() {
        let f = Pnf::or([
            Pnf::and([Pnf::prop(0), Pnf::next(Pnf::prop(1))]),
            Pnf::always(Pnf::nprop(0)),
        ]);
        check(&f, &[ps(&[0])], &[ps(&[1])]);
        check(&f, &[ps(&[])], &[ps(&[])]);
        check(&f, &[ps(&[0])], &[ps(&[])]);
        check(&f, &[ps(&[1])], &[ps(&[0])]);
    }

    #[test]
    fn constants() {
        check(&Pnf::True, &[], &[ps(&[])]);
        check(&Pnf::False, &[], &[ps(&[])]);
        // automaton for false has empty language
        let a = translate(&Pnf::False);
        assert!(!a.accepts_lasso(&[], &[ps(&[0])]));
    }

    #[test]
    fn nested_until() {
        // (p0 U (p1 U p2))
        let f = Pnf::until(Pnf::prop(0), Pnf::until(Pnf::prop(1), Pnf::prop(2)));
        check(&f, &[ps(&[0]), ps(&[1]), ps(&[1])], &[ps(&[2])]);
        check(&f, &[ps(&[0]), ps(&[0])], &[ps(&[1])]);
        check(&f, &[], &[ps(&[2])]);
    }

    #[test]
    fn randomized_cross_validation() {
        // Deterministic LCG so the test is reproducible.
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut rnd = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as u32
        };
        fn gen(rnd: &mut impl FnMut() -> u32, depth: u32) -> Pnf {
            if depth == 0 {
                return match rnd() % 3 {
                    0 => Pnf::prop(rnd() % 3),
                    1 => Pnf::nprop(rnd() % 3),
                    _ => Pnf::True,
                };
            }
            match rnd() % 7 {
                0 => Pnf::and([gen(rnd, depth - 1), gen(rnd, depth - 1)]),
                1 => Pnf::or([gen(rnd, depth - 1), gen(rnd, depth - 1)]),
                2 => Pnf::next(gen(rnd, depth - 1)),
                3 => Pnf::until(gen(rnd, depth - 1), gen(rnd, depth - 1)),
                4 => Pnf::release(gen(rnd, depth - 1), gen(rnd, depth - 1)),
                5 => Pnf::eventually(gen(rnd, depth - 1)),
                _ => Pnf::always(gen(rnd, depth - 1)),
            }
        }
        for _ in 0..60 {
            let f = gen(&mut rnd, 3);
            let stem_len = (rnd() % 3) as usize;
            let lasso_len = 1 + (rnd() % 3) as usize;
            let mk = |rnd: &mut dyn FnMut() -> u32| {
                PropSet::from_ids((0..3).filter(|_| rnd().is_multiple_of(2)))
            };
            let stem: Vec<PropSet> = (0..stem_len).map(|_| mk(&mut rnd)).collect();
            let lasso: Vec<PropSet> = (0..lasso_len).map(|_| mk(&mut rnd)).collect();
            check(&f, &stem, &lasso);
        }
    }

    #[test]
    fn large_tableaux_do_not_grow_the_call_stack() {
        // The tableau search goes as deep as the automaton is large:
        // `!p0 R (!p0 R (… R !p0))` with 6 releases (the negation of a
        // chain of untils) has 2^7 - 1 states. The recursive construction
        // overflowed a 256 KiB stack on it; the explicit work stack runs
        // in constant call depth.
        let f = (0..6).fold(Pnf::nprop(0), |acc, _| Pnf::release(Pnf::nprop(0), acc));
        let states = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || translate(&f).len())
            .unwrap()
            .join()
            .expect("translation fits a 256 KiB stack");
        assert_eq!(states, (1 << 7) - 1);
    }
}
