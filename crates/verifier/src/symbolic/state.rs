//! The knowledge store: what the search has assumed about the
//! existentially quantified database.
//!
//! A path through the symbolic search accumulates three kinds of
//! assumptions, all monotone:
//!
//! * an equality partition of `C` (union–find) with recorded
//!   **disequalities** — the equality type of the constants the paper's
//!   reduction guesses up front, here guessed lazily;
//! * **persistent database literals** over `C` (canonicalized);
//! * **local database literals** mentioning live fresh symbols — dropped
//!   when the symbols age out of the one-step `prev` window (their
//!   elements can then be realized as globally fresh, which is the crux of
//!   why the restriction to one-step `prev` is decidable while lossless
//!   input is not, Theorem 3.9).

use std::collections::{BTreeMap, BTreeSet};

use super::table::{CSym, CTable, NameId, Sym};

/// An assumption the evaluator may need decided.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Assumption {
    /// Membership of a database tuple (args may include fresh symbols).
    DbFact {
        /// Relation (interned name).
        rel: NameId,
        /// Argument symbols.
        args: Vec<Sym>,
    },
    /// Equality of two `C`-symbols.
    EqC(CSym, CSym),
}

/// A contradiction with previously recorded knowledge.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Conflict;

/// The store of database knowledge.
///
/// Stores are compared, ordered, and hashed **structurally** (they key
/// the search's dedup tables), so the union–find keeps a canonical
/// representation: after every merge the parent array is fully
/// compressed — `parent[c]` is the class representative (its smallest
/// member) for every `c`, regardless of merge order.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SymState {
    /// Union–find parents over `C` (rep = smallest member; kept fully
    /// compressed, see the type-level invariant).
    parent: Vec<CSym>,
    /// Disequalities between canonical representatives.
    diseq: BTreeSet<(CSym, CSym)>,
    /// Persistent database literals over canonical `C` tuples, keyed by
    /// interned relation name.
    facts: BTreeMap<(NameId, Vec<CSym>), bool>,
    /// Local literals involving at least one fresh symbol.
    local: BTreeMap<(NameId, Vec<Sym>), bool>,
}

impl SymState {
    /// A fresh store over a `C` of the given size.
    pub fn new(n_csyms: usize) -> Self {
        SymState {
            parent: (0..n_csyms as CSym).collect(),
            diseq: BTreeSet::new(),
            facts: BTreeMap::new(),
            local: BTreeMap::new(),
        }
    }

    /// Canonical representative of a `C`-symbol.
    ///
    /// The parent array is kept fully compressed between public calls,
    /// so this is one hop; the loop only matters transiently inside a
    /// merge cascade.
    pub fn find(&self, mut c: CSym) -> CSym {
        while self.parent[c as usize] != c {
            c = self.parent[c as usize];
        }
        c
    }

    /// Canonical representative with **path halving**: every visited
    /// node is re-pointed at its grandparent, so chains flatten as they
    /// are traversed and amortized cost is O(α(n)).
    pub fn find_compress(&mut self, mut c: CSym) -> CSym {
        while self.parent[c as usize] != c {
            let gp = self.parent[self.parent[c as usize] as usize];
            self.parent[c as usize] = gp;
            c = gp;
        }
        c
    }

    /// Restores the canonical representation: points every symbol
    /// directly at its class representative. Called after each merge so
    /// structural equality/hashing of stores coincides with semantic
    /// equality of their partitions (merge-order independence).
    fn normalize(&mut self) {
        for c in 0..self.parent.len() as CSym {
            let r = self.find_compress(c);
            self.parent[c as usize] = r;
        }
    }

    /// Canonicalizes a symbolic value.
    pub fn canon(&self, s: Sym) -> Sym {
        match s {
            Sym::C(c) => Sym::C(self.find(c)),
            f => f,
        }
    }

    /// The current canonical representatives (one per class).
    pub fn reps(&self) -> Vec<CSym> {
        (0..self.parent.len() as CSym)
            .filter(|&c| self.find(c) == c)
            .collect()
    }

    /// Equality status of two symbolic values: `Some(b)` when decided.
    /// Fresh symbols are equal only to themselves; fresh vs `C` is false
    /// by the freshness discipline (equality with a `C`-symbol is chosen
    /// at introduction time, yielding the `C`-symbol itself).
    pub fn eq_status(&self, table: &CTable, a: Sym, b: Sym) -> Option<bool> {
        match (self.canon(a), self.canon(b)) {
            (Sym::F(i), Sym::F(j)) => Some(i == j),
            (Sym::F(_), Sym::C(_)) | (Sym::C(_), Sym::F(_)) => Some(false),
            (Sym::C(x), Sym::C(y)) => {
                if x == y {
                    return Some(true);
                }
                let key = ordered(x, y);
                if self.diseq.contains(&key) {
                    return Some(false);
                }
                match (self.literal_of(table, x), self.literal_of(table, y)) {
                    (Some(u), Some(v)) => Some(u == v),
                    _ => None,
                }
            }
        }
    }

    /// The literal value of a class, if any member is a literal.
    ///
    /// O(1): literals occupy the table prefix and the representative is
    /// the smallest member of its class, so a class contains a literal
    /// iff its representative *is* one. (Two distinct literals in one
    /// class is a [`Conflict`] rejected at merge time, so the
    /// representative's value is *the* value.)
    fn literal_of<'t>(&self, table: &'t CTable, rep: CSym) -> Option<&'t wave_logic::value::Value> {
        table.literal(rep)
    }

    /// Status of a database literal: `Some(b)` when recorded.
    pub fn fact_status(&self, rel: NameId, args: &[Sym]) -> Option<bool> {
        let canon: Vec<Sym> = args.iter().map(|&s| self.canon(s)).collect();
        if let Some(cs) = all_c(&canon) {
            self.facts.get(&(rel, cs)).copied()
        } else {
            self.local.get(&(rel, canon)).copied()
        }
    }

    /// Records a database literal.
    pub fn assert_fact(&mut self, rel: NameId, args: &[Sym], val: bool) -> Result<(), Conflict> {
        let canon: Vec<Sym> = args.iter().map(|&s| self.canon(s)).collect();
        if let Some(cs) = all_c(&canon) {
            let key = (rel, cs);
            match self.facts.get(&key) {
                Some(old) if *old != val => Err(Conflict),
                _ => {
                    self.facts.insert(key, val);
                    Ok(())
                }
            }
        } else {
            let key = (rel, canon);
            match self.local.get(&key) {
                Some(old) if *old != val => Err(Conflict),
                _ => {
                    self.local.insert(key, val);
                    Ok(())
                }
            }
        }
    }

    /// Records an equality or disequality between `C`-symbols.
    pub fn assert_eq_c(
        &mut self,
        table: &CTable,
        a: CSym,
        b: CSym,
        equal: bool,
    ) -> Result<(), Conflict> {
        match self.eq_status(table, Sym::C(a), Sym::C(b)) {
            Some(v) if v == equal => return Ok(()),
            Some(_) => return Err(Conflict),
            None => {}
        }
        let (x, y) = (self.find(a), self.find(b));
        if !equal {
            self.diseq.insert(ordered(x, y));
            return Ok(());
        }
        // Merge classes: smaller index becomes the representative.
        let (rep, other) = if x < y { (x, y) } else { (y, x) };
        self.parent[other as usize] = rep;
        self.normalize();
        // Re-canonicalize disequalities; a pair collapsing to one class is
        // a contradiction (prevented above, but merges can cascade).
        let old_diseq = std::mem::take(&mut self.diseq);
        for (p, q) in old_diseq {
            let (p, q) = (self.find(p), self.find(q));
            if p == q {
                return Err(Conflict);
            }
            self.diseq.insert(ordered(p, q));
        }
        // Re-canonicalize facts; a collision with opposite polarity is a
        // contradiction.
        let old_facts = std::mem::take(&mut self.facts);
        for ((rel, args), v) in old_facts {
            let canon: Vec<CSym> = args.iter().map(|&c| self.find(c)).collect();
            match self.facts.insert((rel, canon), v) {
                Some(old) if old != v => return Err(Conflict),
                _ => {}
            }
        }
        let old_local = std::mem::take(&mut self.local);
        for ((rel, args), v) in old_local {
            let canon: Vec<Sym> = args.iter().map(|&s| self.canon(s)).collect();
            match self.local.insert((rel, canon), v) {
                Some(old) if old != v => return Err(Conflict),
                _ => {}
            }
        }
        // Literal classes must not carry two distinct literal values.
        // Only the literal prefix of the table can contribute.
        let mut values: BTreeMap<CSym, &wave_logic::value::Value> = BTreeMap::new();
        for c in 0..table.n_literals() as CSym {
            if let Some(v) = table.literal(c) {
                let r = self.find(c);
                if let Some(prev) = values.insert(r, v) {
                    if prev != v {
                        return Err(Conflict);
                    }
                }
            }
        }
        Ok(())
    }

    /// Records an assumption with the given truth value.
    pub fn assert(&mut self, table: &CTable, a: &Assumption, val: bool) -> Result<(), Conflict> {
        match a {
            Assumption::DbFact { rel, args } => self.assert_fact(*rel, args, val),
            Assumption::EqC(x, y) => self.assert_eq_c(table, *x, *y, val),
        }
    }

    /// The equality partition: every symbol's class representative.
    pub(crate) fn partition(&self) -> &[CSym] {
        &self.parent
    }

    /// True when `self` assumes no more than `other`: the same equality
    /// partition, and every disequality and every persistent and local
    /// literal of `self` recorded in `other` with the same value. Every
    /// database consistent with `other` is then consistent with `self`
    /// (DESIGN.md §3.1.3).
    pub fn weaker_than(&self, other: &SymState) -> bool {
        fn sub<K: Ord, V: PartialEq>(a: &BTreeMap<K, V>, b: &BTreeMap<K, V>) -> bool {
            a.len() <= b.len() && a.iter().all(|(k, v)| b.get(k) == Some(v))
        }
        self.parent == other.parent
            && self.diseq.is_subset(&other.diseq)
            && sub(&self.facts, &other.facts)
            && sub(&self.local, &other.local)
    }

    /// True when some local literal is recorded; [`SymState::retire_fresh`]
    /// is a no-op otherwise.
    pub fn has_local(&self) -> bool {
        !self.local.is_empty()
    }

    /// Drops (and forgets) every local literal mentioning a fresh symbol
    /// not in `keep`, then renames the surviving fresh symbols via `map`.
    pub fn retire_fresh(&mut self, keep: &dyn Fn(u16) -> Option<u16>) {
        let old = std::mem::take(&mut self.local);
        'fact: for ((rel, args), v) in old {
            let mut renamed = Vec::with_capacity(args.len());
            for s in args {
                match s {
                    Sym::F(i) => match keep(i) {
                        Some(j) => renamed.push(Sym::F(j)),
                        None => continue 'fact, // symbol died: drop the literal
                    },
                    c => renamed.push(c),
                }
            }
            self.local.insert((rel, renamed), v);
        }
    }
}

fn ordered(a: CSym, b: CSym) -> (CSym, CSym) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

fn all_c(args: &[Sym]) -> Option<Vec<CSym>> {
    args.iter()
        .map(|s| match s {
            Sym::C(c) => Some(*c),
            Sym::F(_) => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wave_core::builder::ServiceBuilder;
    use wave_logic::parser::parse_property;

    /// The store keys facts by interned relation id; it never resolves
    /// the id, so any fixed id stands for the relation `r`.
    const R: NameId = 0;

    fn table() -> CTable {
        // literals "a", "b"; db const c0; input const name; witness w
        let mut b = ServiceBuilder::new("P");
        b.database_constant("c0")
            .input_constant("name")
            .input_relation("i", 1)
            .page("P")
            .solicit_constant("name")
            .input_rule("i", &["x"], r#"x = "a" | x = "b""#);
        let s = b.build().unwrap();
        let p = parse_property("forall w . G !r(w)").unwrap();
        CTable::build(&s, &p)
    }

    #[test]
    fn literal_distinctness_is_builtin() {
        let t = table();
        let st = SymState::new(t.len());
        let a = t.literal_sym(&"a".into()).unwrap();
        let b = t.literal_sym(&"b".into()).unwrap();
        assert_eq!(st.eq_status(&t, Sym::C(a), Sym::C(b)), Some(false));
        assert_eq!(st.eq_status(&t, Sym::C(a), Sym::C(a)), Some(true));
    }

    #[test]
    fn constant_equalities_are_open_then_decided() {
        let t = table();
        let mut st = SymState::new(t.len());
        let c0 = t.const_sym("c0").unwrap();
        let a = t.literal_sym(&"a".into()).unwrap();
        assert_eq!(st.eq_status(&t, Sym::C(c0), Sym::C(a)), None);
        st.assert_eq_c(&t, c0, a, true).unwrap();
        assert_eq!(st.eq_status(&t, Sym::C(c0), Sym::C(a)), Some(true));
        // And now c0 ≠ b by literal propagation through the class.
        let b = t.literal_sym(&"b".into()).unwrap();
        assert_eq!(st.eq_status(&t, Sym::C(c0), Sym::C(b)), Some(false));
        // Merging c0 with b must now conflict.
        assert_eq!(st.assert_eq_c(&t, c0, b, true), Err(Conflict));
    }

    #[test]
    fn diseq_then_eq_conflicts() {
        let t = table();
        let mut st = SymState::new(t.len());
        let name = t.const_sym("name").unwrap();
        let w = t.witness_sym("w").unwrap();
        st.assert_eq_c(&t, name, w, false).unwrap();
        assert_eq!(st.eq_status(&t, Sym::C(name), Sym::C(w)), Some(false));
        assert_eq!(st.assert_eq_c(&t, name, w, true), Err(Conflict));
    }

    #[test]
    fn facts_canonicalize_through_merges() {
        let t = table();
        let mut st = SymState::new(t.len());
        let name = t.const_sym("name").unwrap();
        let w = t.witness_sym("w").unwrap();
        st.assert_fact(R, &[Sym::C(name)], true).unwrap();
        st.assert_fact(R, &[Sym::C(w)], false).unwrap();
        // Merging the two must now conflict (r holds of one, not the other).
        assert_eq!(st.assert_eq_c(&t, name, w, true), Err(Conflict));
    }

    #[test]
    fn merge_rewrites_fact_keys() {
        let t = table();
        let mut st = SymState::new(t.len());
        let name = t.const_sym("name").unwrap();
        let w = t.witness_sym("w").unwrap();
        st.assert_fact(R, &[Sym::C(w)], true).unwrap();
        st.assert_eq_c(&t, name, w, true).unwrap();
        // Lookup through either symbol sees the fact.
        assert_eq!(st.fact_status(R, &[Sym::C(name)]), Some(true));
        assert_eq!(st.fact_status(R, &[Sym::C(w)]), Some(true));
    }

    #[test]
    fn fresh_symbols_equal_only_themselves() {
        let t = table();
        let st = SymState::new(t.len());
        assert_eq!(st.eq_status(&t, Sym::F(0), Sym::F(0)), Some(true));
        assert_eq!(st.eq_status(&t, Sym::F(0), Sym::F(1)), Some(false));
        assert_eq!(st.eq_status(&t, Sym::F(0), Sym::C(0)), Some(false));
    }

    #[test]
    fn local_facts_retire_with_their_symbols() {
        let t = table();
        let mut st = SymState::new(t.len());
        st.assert_fact(R, &[Sym::F(0), Sym::C(0)], true).unwrap();
        st.assert_fact(R, &[Sym::F(1), Sym::C(0)], false).unwrap();
        // Keep only fresh 1, renamed to 0.
        st.retire_fresh(&|i| if i == 1 { Some(0) } else { None });
        assert_eq!(st.fact_status(R, &[Sym::F(0), Sym::C(0)]), Some(false));
        assert_eq!(st.fact_status(R, &[Sym::F(1), Sym::C(0)]), None);
    }

    /// A table with `n` input constants `k0..k{n-1}` (no literals, so
    /// merges never conflict) — a playground for union–find stress.
    fn wide_table(n: usize) -> CTable {
        let mut b = ServiceBuilder::new("P");
        for i in 0..n {
            b.input_constant(&format!("k{i}"));
        }
        b.page("P");
        let s = b.build().unwrap();
        let p = parse_property("G true").unwrap();
        CTable::build(&s, &p)
    }

    #[test]
    fn long_merge_chain_stays_flat() {
        // Merge k0=k1, k1=k2, … in the worst order for naive linking; the
        // parent array must stay fully compressed (every find is one
        // hop), the O(α) regression for `find`/`find_compress`.
        let t = wide_table(64);
        let ks: Vec<CSym> = (0..64)
            .map(|i| t.const_sym(&format!("k{i}")).unwrap())
            .collect();
        let mut st = SymState::new(t.len());
        for w in ks.windows(2) {
            st.assert_eq_c(&t, w[1], w[0], true).unwrap();
        }
        let root = st.find(ks[0]);
        for &k in &ks {
            assert_eq!(st.find(k), root);
            // Flatness: the parent IS the representative — one hop.
            assert_eq!(st.parent[k as usize], root, "chain not compressed at {k}");
        }
        // find_compress agrees and leaves the array unchanged.
        let mut st2 = st.clone();
        for &k in &ks {
            assert_eq!(st2.find_compress(k), root);
        }
        assert_eq!(st, st2);
    }

    #[test]
    fn merge_order_does_not_change_representation() {
        // The stores key dedup tables by structural equality, so two
        // semantically equal partitions must be byte-identical however
        // they were built.
        let t = wide_table(16);
        let ks: Vec<CSym> = (0..16)
            .map(|i| t.const_sym(&format!("k{i}")).unwrap())
            .collect();
        let mut forward = SymState::new(t.len());
        for w in ks.windows(2) {
            forward.assert_eq_c(&t, w[0], w[1], true).unwrap();
        }
        let mut backward = SymState::new(t.len());
        for w in ks.windows(2).rev() {
            backward.assert_eq_c(&t, w[1], w[0], true).unwrap();
        }
        let mut pairs = SymState::new(t.len());
        for i in (0..15).step_by(2) {
            pairs.assert_eq_c(&t, ks[i], ks[i + 1], true).unwrap();
        }
        for i in (1..15).step_by(2) {
            pairs.assert_eq_c(&t, ks[i], ks[i + 1], true).unwrap();
        }
        assert_eq!(forward, backward);
        assert_eq!(forward, pairs);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |s: &SymState| {
            let mut hasher = DefaultHasher::new();
            s.hash(&mut hasher);
            hasher.finish()
        };
        assert_eq!(h(&forward), h(&backward));
    }

    #[test]
    fn weaker_than_is_literal_inclusion_over_one_partition() {
        let t = table();
        let name = t.const_sym("name").unwrap();
        let w = t.witness_sym("w").unwrap();
        let base = SymState::new(t.len());
        let mut more = base.clone();
        more.assert_fact(R, &[Sym::C(name)], true).unwrap();
        more.assert_fact(R, &[Sym::F(0), Sym::C(w)], false).unwrap();
        more.assert_eq_c(&t, name, w, false).unwrap();
        assert!(base.weaker_than(&base));
        assert!(base.weaker_than(&more));
        assert!(!more.weaker_than(&base));
        // The same literal with the other value is not weaker.
        let mut other = base.clone();
        other.assert_fact(R, &[Sym::C(name)], false).unwrap();
        assert!(!other.weaker_than(&more));
        assert!(!more.weaker_than(&other));
        // A different partition is never comparable, even with fewer
        // literals.
        let mut merged = base.clone();
        merged.assert_eq_c(&t, name, w, true).unwrap();
        assert!(!merged.weaker_than(&more));
        assert!(!base.weaker_than(&merged));
    }

    #[test]
    fn conflicting_fact_polarity_detected() {
        let t = table();
        let mut st = SymState::new(t.len());
        st.assert_fact(R, &[Sym::C(0)], true).unwrap();
        assert_eq!(st.assert_fact(R, &[Sym::C(0)], false), Err(Conflict));
        assert_eq!(st.fact_status(R, &[Sym::C(0)]), Some(true));
    }
}
