//! Symbolic configurations.
//!
//! A [`SymConfig`] is the Local-Run Lemma's "approximate description" of a
//! run prefix: exact on the current page, the provided input constants,
//! the current/previous input tuples and the state/action restrictions to
//! `C`, and carrying the accumulated database knowledge ([`SymState`]).

use std::collections::{BTreeMap, BTreeSet};
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher, Hash};
use std::sync::Arc;

use super::bits::CBits;
use super::state::{Assumption, SymState};
use super::table::{CSym, CTable, NameId, Sym};

/// A fact of a state or action relation restricted to `C` (interned
/// relation name, canonical representatives).
pub type CFact = (NameId, Vec<CSym>);

/// A symbolic configuration.
///
/// Page and relation names are interned `NameId`s, which follow name
/// order, so the derived ordering is the ordering over names. The
/// knowledge store and the state, action and `prev` sets are shared
/// copy-on-write: configurations derived from one another point at the
/// same allocations until one of them writes (always through
/// `Arc::make_mut`, or by installing a fresh `Arc`). `Arc<T>` compares,
/// orders and hashes by its pointee, so sharing is invisible to the
/// derived `Eq`/`Ord`/`Hash`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SymConfig {
    /// Current page (or the error page).
    pub page: NameId,
    /// Input constants provided so far (original symbol ids), packed into
    /// a bitset: the set is monotone and probed on every letter check.
    pub provided: CBits,
    /// State facts over `C` (canonical; shared, see above).
    pub state: Arc<BTreeSet<CFact>>,
    /// Action facts over `C` (canonical), triggered at the previous step
    /// (shared, see above).
    pub action: Arc<BTreeSet<CFact>>,
    /// Current inputs: chosen tuple per input relation (empty vec for a
    /// true propositional input). Absent = no choice / false.
    pub inputs: BTreeMap<NameId, Vec<Sym>>,
    /// Previous inputs (`prev_I` values), keyed by the input relation
    /// (shared, see above).
    pub prev: Arc<BTreeMap<NameId, Vec<Sym>>>,
    /// Database knowledge accumulated along this path (shared; mutate
    /// only through `Arc::make_mut`).
    pub st: Arc<SymState>,
    /// Number of live fresh symbols (ids `0..n_fresh`).
    pub n_fresh: u16,
    /// Error conditions (i)/(ii) observed at this page: the next
    /// transition goes to the error page (Definition 2.3).
    pub err_pending: bool,
}

impl SymConfig {
    /// The initial configuration (home page, empty everything).
    pub fn initial(table: &CTable) -> SymConfig {
        SymConfig {
            page: table.home(),
            provided: CBits::new(),
            state: Arc::default(),
            action: Arc::default(),
            inputs: BTreeMap::new(),
            prev: Arc::default(),
            st: Arc::new(SymState::new(table.len())),
            n_fresh: 0,
            err_pending: false,
        }
    }

    /// The error-page successor: the run loops there forever; database
    /// knowledge and provided constants are kept so letters stay
    /// consistent, everything else empties (Definition 2.3).
    pub fn to_error(&self, table: &CTable) -> SymConfig {
        SymConfig {
            page: table.error_page(),
            provided: self.provided.clone(),
            state: Arc::default(),
            action: Arc::default(),
            inputs: BTreeMap::new(),
            prev: Arc::default(),
            st: Arc::clone(&self.st),
            n_fresh: 0,
            err_pending: false,
        }
    }

    /// All live symbols: canonical `C` representatives plus live fresh
    /// symbols.
    pub fn live_syms(&self) -> Vec<Sym> {
        let mut out: Vec<Sym> = self.st.reps().into_iter().map(Sym::C).collect();
        for i in 0..self.n_fresh {
            out.push(Sym::F(i));
        }
        out
    }

    /// Asserts an assumption with the given truth value; `None` on
    /// conflict. Equality merges re-canonicalize state/action facts and
    /// check that the merge does not contradict previously *computed*
    /// state/action content (two tuples collapsing must have agreed).
    ///
    /// Takes the configuration by value: the store is copied only when
    /// another configuration still shares it, or for an equality merge,
    /// which re-canonicalizes against the store as it was.
    pub fn assert(mut self, table: &CTable, a: &Assumption, val: bool) -> Option<SymConfig> {
        let merge = matches!((a, val), (Assumption::EqC(..), true));
        let old = merge.then(|| Arc::clone(&self.st));
        Arc::make_mut(&mut self.st).assert(table, a, val).ok()?;
        if let Some(old) = old {
            self.state = Arc::new(recanon_facts(&self.state, &old, &self.st)?);
            self.action = Arc::new(recanon_facts(&self.action, &old, &self.st)?);
            let st = &self.st;
            let prev = Arc::make_mut(&mut self.prev);
            for tuple in self.inputs.values_mut().chain(prev.values_mut()) {
                for s in tuple.iter_mut() {
                    *s = st.canon(*s);
                }
            }
        }
        Some(self)
    }

    /// The projection: every field except the knowledge store's literals
    /// (the page, `err_pending`, `n_fresh`, provided constants, the
    /// equality partition, inputs, state, action and `prev`). Cheap
    /// fields come first, so comparing two projections stops early.
    fn projection(&self) -> impl Eq + Hash + '_ {
        (
            self.page,
            self.err_pending,
            self.n_fresh,
            &self.provided,
            self.st.partition(),
            &self.inputs,
            &self.state,
            &self.action,
            &self.prev,
        )
    }

    /// A hash of the projection: configurations with the same projection
    /// hash equal.
    pub(crate) fn projection_hash(&self) -> u64 {
        BuildHasherDefault::<DefaultHasher>::default().hash_one(self.projection())
    }

    /// True when `self` has the same projection as `other` and its store
    /// is weaker (`SymState::weaker_than`): `self` then simulates
    /// `other`, letter for letter (DESIGN.md §3.1.3).
    pub fn weaker_than(&self, other: &SymConfig) -> bool {
        self.projection() == other.projection() && self.st.weaker_than(&other.st)
    }

    /// Whether an input constant has been provided, by *any* symbol of its
    /// equality class (provision is by name, so identity suffices).
    pub fn is_provided(&self, c: CSym) -> bool {
        self.provided.contains(c)
    }

    /// Checks the structural precondition of formula evaluation at this
    /// page: every input constant mentioned by `consts` must be provided.
    pub fn all_provided(&self, table: &CTable, consts: &BTreeSet<String>) -> bool {
        consts.iter().all(|name| match table.const_sym(name) {
            Some(c) if table.is_input_const(c) => self.is_provided(c),
            _ => true, // database constants are interpreted by the database
        })
    }

    /// Renders a short human-readable description.
    pub fn render(&self, table: &CTable) -> String {
        let mut parts = vec![format!("page={}", table.name(self.page))];
        if !self.inputs.is_empty() {
            let ins: Vec<String> = self
                .inputs
                .iter()
                .map(|(&rel, t)| {
                    let rel = table.name(rel);
                    if t.is_empty() {
                        rel.to_string()
                    } else {
                        format!(
                            "{rel}({})",
                            t.iter()
                                .map(|&s| table.render(s))
                                .collect::<Vec<_>>()
                                .join(",")
                        )
                    }
                })
                .collect();
            parts.push(format!("in:{}", ins.join(" ")));
        }
        if !self.state.is_empty() {
            let sts: Vec<String> = self
                .state
                .iter()
                .map(|&(rel, ref t)| {
                    let rel = table.name(rel);
                    if t.is_empty() {
                        rel.to_string()
                    } else {
                        format!(
                            "{rel}({})",
                            t.iter()
                                .map(|&c| table.render(Sym::C(c)))
                                .collect::<Vec<_>>()
                                .join(",")
                        )
                    }
                })
                .collect();
            parts.push(format!("st:{}", sts.join(" ")));
        }
        parts.join(" ")
    }
}

/// Re-canonicalizes a fact set after a merge in the store, detecting
/// collapse inconsistencies: if two `C`-tuples become identical under the
/// new partition, they must have had the same membership before.
fn recanon_facts(
    facts: &BTreeSet<CFact>,
    old: &SymState,
    new: &SymState,
) -> Option<BTreeSet<CFact>> {
    let mut out = BTreeSet::new();
    let old_reps = old.reps();
    for &(rel, ref args) in facts {
        let canon: Vec<CSym> = args.iter().map(|&c| new.find(c)).collect();
        // Every old-rep preimage tuple of `canon` must be a member.
        // Preimage components: old reps that now map to the same new rep.
        let mut preimages: Vec<Vec<CSym>> = vec![Vec::new()];
        for &target in &canon {
            let cands: Vec<CSym> = old_reps
                .iter()
                .copied()
                .filter(|&r| new.find(r) == target)
                .collect();
            let mut next = Vec::with_capacity(preimages.len() * cands.len());
            for p in &preimages {
                for &c in &cands {
                    let mut q = p.clone();
                    q.push(c);
                    next.push(q);
                }
            }
            preimages = next;
        }
        for pre in preimages {
            if !facts.contains(&(rel, pre)) {
                return None; // collapse inconsistency
            }
        }
        out.insert((rel, canon));
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wave_core::builder::ServiceBuilder;
    use wave_core::service::Service;
    use wave_logic::parser::parse_property;

    fn id(t: &CTable, name: &str) -> NameId {
        t.name_id(name).unwrap()
    }

    fn setup() -> (Service, CTable) {
        let mut b = ServiceBuilder::new("P");
        b.database_relation("r", 1)
            .state_relation("s", 1)
            .input_relation("i", 1)
            .input_constant("name")
            .page("P")
            .solicit_constant("name")
            .input_rule("i", &["x"], "r(x)");
        let s = b.build().unwrap();
        let p = parse_property("forall w1 w2 . G !ship(w1, w2)").unwrap();
        let t = CTable::build(&s, &p);
        (s, t)
    }

    #[test]
    fn initial_and_error() {
        let (s, t) = setup();
        let c = SymConfig::initial(&t);
        assert_eq!(c.page, id(&t, "P"));
        assert!(c.state.is_empty());
        let e = c.to_error(&t);
        assert_eq!(e.page, id(&t, &s.error_page));
        assert!(e.inputs.is_empty());
    }

    #[test]
    fn live_syms_counts_reps_and_fresh() {
        let (_, t) = setup();
        let mut c = SymConfig::initial(&t);
        assert_eq!(c.live_syms().len(), t.len());
        c.n_fresh = 2;
        assert_eq!(c.live_syms().len(), t.len() + 2);
    }

    #[test]
    fn assert_db_fact_branches_consistently() {
        let (_, t) = setup();
        let c = SymConfig::initial(&t);
        let r = id(&t, "r");
        let a = Assumption::DbFact {
            rel: r,
            args: vec![Sym::C(0)],
        };
        let c_true = c.clone().assert(&t, &a, true).unwrap();
        let c_false = c.clone().assert(&t, &a, false).unwrap();
        assert_eq!(c_true.st.fact_status(r, &[Sym::C(0)]), Some(true));
        assert_eq!(c_false.st.fact_status(r, &[Sym::C(0)]), Some(false));
        // The source configuration's shared store is untouched.
        assert_eq!(c.st.fact_status(r, &[Sym::C(0)]), None);
        // Re-asserting the opposite conflicts.
        assert!(c_true.assert(&t, &a, false).is_none());
    }

    #[test]
    fn merge_collapse_inconsistency_detected() {
        let (_, t) = setup();
        let mut c = SymConfig::initial(&t);
        let w1 = t.witness_sym("w1").unwrap();
        let w2 = t.witness_sym("w2").unwrap();
        // state s holds of w1 but not of w2: merging w1=w2 must fail.
        let st = id(&t, "s");
        Arc::make_mut(&mut c.state).insert((st, vec![w1]));
        let merged = c.clone().assert(&t, &Assumption::EqC(w1, w2), true);
        assert!(merged.is_none(), "collapse inconsistency must be caught");
        // but if s holds of both, the merge succeeds and dedups.
        Arc::make_mut(&mut c.state).insert((st, vec![w2]));
        let merged2 = c.assert(&t, &Assumption::EqC(w1, w2), true).unwrap();
        assert_eq!(merged2.state.len(), 1);
    }

    #[test]
    fn provided_gate() {
        let (_, t) = setup();
        let mut c = SymConfig::initial(&t);
        let name = t.const_sym("name").unwrap();
        let consts: BTreeSet<String> = ["name".to_string()].into();
        assert!(!c.all_provided(&t, &consts));
        c.provided.insert(name);
        assert!(c.all_provided(&t, &consts));
    }

    #[test]
    fn render_is_stable() {
        let (_, t) = setup();
        let mut c = SymConfig::initial(&t);
        c.inputs.insert(id(&t, "i"), vec![Sym::F(0)]);
        Arc::make_mut(&mut c.state).insert((id(&t, "s"), vec![0]));
        let r = c.render(&t);
        assert!(r.contains("page=P"));
        assert!(r.contains("i(✶0)"));
    }

    /// A configuration whose shared sets all mention both property
    /// witnesses.
    fn populated(t: &CTable) -> SymConfig {
        let (w1, w2) = (t.witness_sym("w1").unwrap(), t.witness_sym("w2").unwrap());
        let mut c = SymConfig::initial(t);
        Arc::make_mut(&mut c.state).extend([(id(t, "s"), vec![w1]), (id(t, "s"), vec![w2])]);
        Arc::make_mut(&mut c.action).insert((id(t, "s"), vec![w1]));
        Arc::make_mut(&mut c.action).insert((id(t, "s"), vec![w2]));
        Arc::make_mut(&mut c.prev).insert(id(t, "i"), vec![Sym::C(w1), Sym::C(w2)]);
        c
    }

    #[test]
    fn merge_on_a_clone_leaves_the_original_unchanged() {
        let (_, t) = setup();
        let (w1, w2) = (t.witness_sym("w1").unwrap(), t.witness_sym("w2").unwrap());
        let c = populated(&t);
        let before = ((*c.state).clone(), (*c.action).clone(), (*c.prev).clone());
        let merged = c
            .clone()
            .assert(&t, &Assumption::EqC(w1, w2), true)
            .expect("s holds of both witnesses");
        // The clone re-canonicalized: both facts collapsed onto one rep,
        // and `prev` names only the rep.
        assert_eq!(merged.state.len(), 1);
        assert_eq!(merged.action.len(), 1);
        let rep = Sym::C(merged.st.find(w2));
        assert_eq!(merged.prev[&id(&t, "i")], vec![rep, rep]);
        // The original still holds its own sets, store included.
        assert_eq!(
            (&*c.state, &*c.action, &*c.prev),
            (&before.0, &before.1, &before.2)
        );
        assert_ne!(c.st.find(w1), c.st.find(w2));
    }

    #[test]
    fn make_mut_on_a_clone_copies_only_the_written_set() {
        let (_, t) = setup();
        let c = populated(&t);
        let mut d = c.clone();
        assert!(Arc::ptr_eq(&c.state, &d.state));
        assert!(Arc::ptr_eq(&c.action, &d.action));
        assert!(Arc::ptr_eq(&c.prev, &d.prev));
        Arc::make_mut(&mut d.state).clear();
        Arc::make_mut(&mut d.action).clear();
        Arc::make_mut(&mut d.prev).clear();
        assert_eq!(c.state.len(), 2);
        assert_eq!(c.action.len(), 2);
        assert_eq!(c.prev.len(), 1);
        assert!(d.state.is_empty() && d.action.is_empty() && d.prev.is_empty());
        // Writing one set leaves the others shared.
        let mut e = c.clone();
        Arc::make_mut(&mut e.action).clear();
        assert!(Arc::ptr_eq(&c.state, &e.state));
        assert!(Arc::ptr_eq(&c.prev, &e.prev));
        assert!(!Arc::ptr_eq(&c.action, &e.action));
    }

    #[test]
    fn equal_content_is_equal_whether_shared_or_not() {
        use std::hash::{BuildHasher, RandomState};
        let (_, t) = setup();
        let a = populated(&t);
        let shared = a.clone();
        let separate = populated(&t);
        assert!(!Arc::ptr_eq(&a.state, &separate.state));
        let h = RandomState::new();
        for other in [&shared, &separate] {
            assert_eq!(&a, other);
            assert_eq!(a.cmp(other), std::cmp::Ordering::Equal);
            assert_eq!(h.hash_one(&a), h.hash_one(other));
        }
        // And content that differs still differs.
        let mut b = a.clone();
        Arc::make_mut(&mut b.action).clear();
        assert_ne!(a, b);
    }
}
