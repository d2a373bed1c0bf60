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
//!
//! The tableau is exponential in the formula: `p U p U … U p` with 128
//! untils passes every parser cap, and its negation's automaton has
//! 2^129 states. [`translate_within`] therefore polls a [`CancelToken`]
//! on its work stack and refuses past [`MAX_TABLEAU_NODES`]; [`translate`]
//! is the same construction for callers whose formulas are their own.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::rc::Rc;

use crate::buchi::{Buchi, Guard};
use crate::cancel::CancelToken;
use crate::pltl::Pnf;
use crate::props::PropSet;

/// Most tableau nodes one translation may expand (a proto-node counts
/// once per obligation it discharges, so this bounds the construction's
/// work), and most states the degeneralized automaton may have. Far
/// above every written property: over the demo properties, 800,000
/// wave-qa generator properties and the wave-load corpus, the largest
/// tableau expands 17,378 nodes and the largest automaton has 2,387
/// states.
pub const MAX_TABLEAU_NODES: usize = 1 << 18;

/// How many tableau nodes are expanded between two polls of the cancel
/// token.
const POLL_EVERY: usize = 256;

/// Why [`translate_within`] stopped before producing an automaton.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TranslateError {
    /// The tableau or the automaton outgrew [`MAX_TABLEAU_NODES`].
    TooLarge,
    /// The cancel token fired.
    Cancelled,
}

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranslateError::TooLarge => {
                write!(f, "the Büchi tableau exceeds {MAX_TABLEAU_NODES} nodes")
            }
            TranslateError::Cancelled => write!(f, "the Büchi translation was cancelled"),
        }
    }
}

impl std::error::Error for TranslateError {}

/// A formula id. Sets of them are bit sets ([`PropSet`] holds any
/// dense `u32` ids), so cloning and comparing a proto-node costs a few
/// words per 64 subformulas.
type FId = u32;
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
        let id = FId::try_from(self.formulas.len()).expect("more than u32::MAX subformulas");
        self.by_formula.insert(f.clone(), id);
        self.formulas.push(f.clone());
        id
    }

    fn get(&self, id: FId) -> &Pnf {
        &self.formulas[id as usize]
    }
}

#[derive(Clone, PartialEq, Eq)]
struct ProtoNode {
    incoming: BTreeSet<NodeId>,
    new: PropSet,
    old: PropSet,
    next: PropSet,
}

struct Builder {
    interner: Interner,
    /// Each formula's top connective over operand ids, by formula id
    /// (see [`Op`]).
    ops: Vec<Option<Op>>,
    /// The operand id of branch `i` of disjunction `eta`, by `(eta, i)`,
    /// interned when that branch first starts.
    or_branches: HashMap<(FId, usize), FId>,
    /// finished nodes: (old, next) -> id
    by_content: BTreeMap<(PropSet, PropSet), NodeId>,
    nodes: Vec<(PropSet, PropSet, BTreeSet<NodeId>)>, // old, next, incoming
    /// Tableau nodes expanded so far, bounded by [`MAX_TABLEAU_NODES`].
    expanded: usize,
}

/// A formula's top connective with its operands as formula ids, built
/// the first time the tableau processes the formula. The operands are
/// interned then, in the order a visit interns them, so every formula
/// id is what interning at each visit would give; later visits neither
/// clone nor compare formula trees. The operands of a disjunction are
/// interned one branch at a time ([`Builder::or_branches`]), as the
/// branches start.
#[derive(Clone)]
enum Op {
    True,
    False,
    /// A literal, with the id of its negation.
    Lit(FId),
    And(Rc<[FId]>),
    /// A disjunction of this many operands.
    Or(usize),
    X(FId),
    U(FId, FId),
    R(FId, FId),
}

/// A pending step of the tableau construction. The construction is a
/// depth-first search that goes as deep as the automaton is large, not
/// as deep as the formula, so it runs on an explicit stack instead of
/// the call stack. Steps pop in exactly the order the recursive
/// formulation would make them, so formula ids, node ids and the
/// automaton are unchanged.
enum Task {
    Expand(ProtoNode),
    /// The branches `next..arity` of disjunction `eta`, each expanded
    /// from `node` after the previous branch has been fully expanded.
    OrBranches {
        node: ProtoNode,
        eta: FId,
        arity: usize,
        next: usize,
    },
}

impl Builder {
    fn run(&mut self, root: ProtoNode, cancel: &CancelToken) -> Result<(), TranslateError> {
        let mut stack = vec![Task::Expand(root)];
        while let Some(task) = stack.pop() {
            if self.expanded.is_multiple_of(POLL_EVERY) && cancel.is_cancelled() {
                return Err(TranslateError::Cancelled);
            }
            self.expanded += 1;
            if self.expanded > MAX_TABLEAU_NODES {
                return Err(TranslateError::TooLarge);
            }
            match task {
                Task::Expand(node) => self.expand(node, &mut stack),
                Task::OrBranches {
                    node,
                    eta,
                    arity,
                    next,
                } => {
                    if next == arity {
                        continue;
                    }
                    let gid = self.or_branch(eta, next);
                    let mut branch = node.clone();
                    if !branch.old.contains(gid) {
                        branch.new.insert(gid);
                    }
                    stack.push(Task::OrBranches {
                        node,
                        eta,
                        arity,
                        next: next + 1,
                    });
                    stack.push(Task::Expand(branch));
                }
            }
        }
        Ok(())
    }

    /// The [`Op`] of formula `eta`, built on its first visit.
    fn op(&mut self, eta: FId) -> Op {
        if let Some(Some(op)) = self.ops.get(eta as usize) {
            return op.clone();
        }
        let op = match self.interner.get(eta).clone() {
            Pnf::True => Op::True,
            Pnf::False => Op::False,
            Pnf::Lit { prop, positive } => Op::Lit(self.intern(&Pnf::Lit {
                prop,
                positive: !positive,
            })),
            Pnf::And(fs) => Op::And(fs.iter().map(|g| self.intern(g)).collect()),
            Pnf::Or(fs) => Op::Or(fs.len()),
            Pnf::X(g) => Op::X(self.intern(&g)),
            Pnf::U(a, b) => {
                let aid = self.intern(&a);
                Op::U(aid, self.intern(&b))
            }
            Pnf::R(a, b) => {
                let aid = self.intern(&a);
                Op::R(aid, self.intern(&b))
            }
        };
        let i = eta as usize;
        if self.ops.len() <= i {
            self.ops.resize(i + 1, None);
        }
        self.ops[i] = Some(op.clone());
        op
    }

    /// The id of operand `i` of disjunction `eta`, interned on first use.
    fn or_branch(&mut self, eta: FId, i: usize) -> FId {
        if let Some(&gid) = self.or_branches.get(&(eta, i)) {
            return gid;
        }
        let Pnf::Or(fs) = self.interner.get(eta) else {
            unreachable!("only disjunctions have branches")
        };
        let g = fs[i].clone();
        let gid = self.intern(&g);
        self.or_branches.insert((eta, i), gid);
        gid
    }

    /// Processes one obligation of `node`, pushing the steps that follow.
    fn expand(&mut self, mut node: ProtoNode, stack: &mut Vec<Task>) {
        let Some(eta) = node.new.iter().next() else {
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
                old: PropSet::new(),
                next: PropSet::new(),
            };
            stack.push(Task::Expand(succ));
            return;
        };
        node.new.remove(eta);
        if node.old.contains(eta) {
            stack.push(Task::Expand(node));
            return;
        }
        match self.op(eta) {
            Op::False => { /* contradiction: discard this node */ }
            Op::True => {
                // Recorded in Old so that acceptance checks (`rhs ∈ Old`)
                // see trivially fulfilled untils like `φ U true`.
                node.old.insert(eta);
                stack.push(Task::Expand(node));
            }
            Op::Lit(negid) => {
                if node.old.contains(negid) {
                    return; // contradictory literals: discard
                }
                node.old.insert(eta);
                stack.push(Task::Expand(node));
            }
            Op::And(gids) => {
                node.old.insert(eta);
                for &gid in gids.iter() {
                    if !node.old.contains(gid) {
                        node.new.insert(gid);
                    }
                }
                stack.push(Task::Expand(node));
            }
            Op::Or(arity) => {
                node.old.insert(eta);
                stack.push(Task::OrBranches {
                    node,
                    eta,
                    arity,
                    next: 0,
                });
            }
            Op::X(gid) => {
                node.old.insert(eta);
                node.next.insert(gid);
                stack.push(Task::Expand(node));
            }
            Op::U(aid, bid) => {
                node.old.insert(eta);
                // Branch 1: a holds now, U carries to next step.
                let mut n1 = node.clone();
                if !n1.old.contains(aid) {
                    n1.new.insert(aid);
                }
                n1.next.insert(eta);
                // Branch 2: b holds now — fulfilled.
                let mut n2 = node;
                if !n2.old.contains(bid) {
                    n2.new.insert(bid);
                }
                stack.push(Task::Expand(n2));
                stack.push(Task::Expand(n1));
            }
            Op::R(aid, bid) => {
                node.old.insert(eta);
                // Branch 1: b holds now, R carries.
                let mut n1 = node.clone();
                if !n1.old.contains(bid) {
                    n1.new.insert(bid);
                }
                n1.next.insert(eta);
                // Branch 2: a & b hold now — released.
                let mut n2 = node;
                for id in [aid, bid] {
                    if !n2.old.contains(id) {
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
/// automaton over the same propositions, for formulas the caller wrote
/// itself: [`translate_within`] without a cancel token.
///
/// Panics past [`MAX_TABLEAU_NODES`]. A formula that arrives from
/// outside must go through [`translate_within`], which refuses instead.
pub fn translate(f: &Pnf) -> Buchi {
    translate_within(f, &CancelToken::never()).unwrap_or_else(|e| panic!("{e}"))
}

/// Translates an LTL formula (in positive normal form) into a Büchi
/// automaton over the same propositions, or refuses:
/// [`TranslateError::TooLarge`] once the tableau expands more than
/// [`MAX_TABLEAU_NODES`] nodes or the automaton would have more states
/// than that, [`TranslateError::Cancelled`] when `cancel` fires (it is
/// polled on the work stack).
pub fn translate_within(f: &Pnf, cancel: &CancelToken) -> Result<Buchi, TranslateError> {
    let mut b = Builder {
        interner: Interner::new(),
        ops: Vec::new(),
        or_branches: HashMap::new(),
        by_content: BTreeMap::new(),
        nodes: Vec::new(),
        expanded: 0,
    };
    let root = b.intern(f);
    b.run(
        ProtoNode {
            incoming: BTreeSet::from([INIT_MARK]),
            new: PropSet::from_ids([root]),
            old: PropSet::new(),
            next: PropSet::new(),
        },
        cancel,
    )?;

    let n = b.nodes.len();

    // Acceptance sets: one per U-subformula.
    let mut until_ids: Vec<(FId, FId)> = Vec::new(); // (u, rhs)
    let mut id = 0;
    while id < b.interner.formulas.len() {
        if let Pnf::U(_, rhs) = b.interner.formulas[id].clone() {
            let rhs_id = b.interner.intern(rhs.as_ref());
            until_ids.push((id as FId, rhs_id));
        }
        id += 1;
    }
    let k = until_ids.len();
    if n.saturating_mul(k.max(1)) > MAX_TABLEAU_NODES {
        return Err(TranslateError::TooLarge);
    }

    // Guards from Old literals.
    let mut guards = Vec::with_capacity(n);
    for (old, _, _) in &b.nodes {
        let mut g = Guard::top();
        for fid in old.iter() {
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
        !old.contains(u) || old.contains(rhs)
    };

    if k == 0 {
        return Ok(Buchi {
            guard: guards,
            succ,
            initial,
            accepting: vec![true; n],
        });
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
    Ok(Buchi {
        guard: dguard,
        succ: dsucc,
        initial: dinit,
        accepting: dacc,
    })
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

    /// `!p0 R (!p0 R (… R !p0))` with `n` releases: the negation of
    /// `p0 U p0 U … U p0` with `n` untils, whose automaton has
    /// 2^(n+1) - 1 states.
    fn negated_until_chain(n: usize) -> Pnf {
        (0..n).fold(Pnf::nprop(0), |acc, _| Pnf::release(Pnf::nprop(0), acc))
    }

    #[test]
    fn an_until_chain_at_the_nesting_cap_is_refused_quickly() {
        // 128 untils pass every parser cap; unbounded, the tableau would
        // grow until memory ran out.
        let start = std::time::Instant::now();
        let e = translate_within(&negated_until_chain(128), &CancelToken::never()).unwrap_err();
        assert_eq!(e, TranslateError::TooLarge);
        // About 0.1 s in a release build; the bound only has to rule
        // out the exponential construction.
        assert!(
            start.elapsed() < std::time::Duration::from_secs(10),
            "refusal took {:?}",
            start.elapsed()
        );
        // A chain whose automaton fits is still translated.
        let a = translate_within(&negated_until_chain(8), &CancelToken::never()).unwrap();
        assert_eq!(a.len(), (1 << 9) - 1);
    }

    #[test]
    fn a_fired_token_cancels_the_translation() {
        let fired = CancelToken::new();
        fired.cancel();
        assert_eq!(
            translate_within(&negated_until_chain(128), &fired).unwrap_err(),
            TranslateError::Cancelled
        );
        // Even a tiny formula polls before its first step.
        assert_eq!(
            translate_within(&Pnf::prop(0), &fired).unwrap_err(),
            TranslateError::Cancelled
        );
    }
}
