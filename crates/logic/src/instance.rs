//! Relational instances.
//!
//! A relational instance (Section 2) interprets each relation symbol of
//! positive arity by a finite relation, each proposition by a truth value
//! (here: presence of the empty tuple), and each constant symbol by a
//! domain element. The *active domain* is the set of all elements occurring
//! in relations or as interpreted constants — FO quantifiers range over it.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::value::{Tuple, Value};

/// A finite relational instance: relation contents plus constant
/// interpretations. The instance is schema-agnostic; schema conformance is
/// checked by `wave-core` when a service is validated.
#[derive(Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Instance {
    rels: BTreeMap<String, BTreeSet<Tuple>>,
    consts: BTreeMap<String, Value>,
}

impl Instance {
    /// Creates the empty instance.
    pub fn new() -> Self {
        Instance::default()
    }

    /// Inserts a tuple into relation `rel` (creating the relation if new).
    pub fn insert(&mut self, rel: impl Into<String>, t: Tuple) -> bool {
        self.rels.entry(rel.into()).or_default().insert(t)
    }

    /// Removes a tuple from `rel`. Returns whether it was present.
    pub fn remove(&mut self, rel: &str, t: &Tuple) -> bool {
        self.rels.get_mut(rel).map(|s| s.remove(t)).unwrap_or(false)
    }

    /// Sets a proposition (arity-0 relation) to `b`.
    pub fn set_prop(&mut self, rel: impl Into<String>, b: bool) {
        let rel = rel.into();
        if b {
            self.insert(rel, Tuple::empty());
        } else {
            self.remove(&rel, &Tuple::empty());
        }
    }

    /// Reads a proposition.
    pub fn prop(&self, rel: &str) -> bool {
        self.contains(rel, &Tuple::empty())
    }

    /// Whether `rel` contains tuple `t`.
    pub fn contains(&self, rel: &str, t: &Tuple) -> bool {
        self.rels.get(rel).map(|s| s.contains(t)).unwrap_or(false)
    }

    /// The content of `rel` (empty set if the relation was never touched).
    pub fn tuples(&self, rel: &str) -> impl Iterator<Item = &Tuple> {
        self.rels.get(rel).into_iter().flatten()
    }

    /// Number of tuples in `rel`.
    pub fn cardinality(&self, rel: &str) -> usize {
        self.rels.get(rel).map(|s| s.len()).unwrap_or(0)
    }

    /// Replaces the whole content of `rel`.
    pub fn set_relation(&mut self, rel: impl Into<String>, tuples: BTreeSet<Tuple>) {
        self.rels.insert(rel.into(), tuples);
    }

    /// Interprets constant `name` as `v`.
    pub fn set_constant(&mut self, name: impl Into<String>, v: Value) {
        self.consts.insert(name.into(), v);
    }

    /// The interpretation of constant `name`, if provided.
    pub fn constant(&self, name: &str) -> Option<&Value> {
        self.consts.get(name)
    }

    /// Whether constant `name` has an interpretation.
    pub fn has_constant(&self, name: &str) -> bool {
        self.consts.contains_key(name)
    }

    /// Iterates over `(relation, tuples)` pairs with nonempty content.
    pub fn relations(&self) -> impl Iterator<Item = (&str, &BTreeSet<Tuple>)> {
        self.rels.iter().map(|(n, s)| (n.as_str(), s))
    }

    /// Iterates over interpreted constants.
    pub fn constants(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.consts.iter().map(|(n, v)| (n.as_str(), v))
    }

    /// The active domain: every element occurring in some tuple or as a
    /// constant interpretation.
    pub fn active_domain(&self) -> BTreeSet<Value> {
        let mut dom = BTreeSet::new();
        for tuples in self.rels.values() {
            for t in tuples {
                dom.extend(t.iter().cloned());
            }
        }
        dom.extend(self.consts.values().cloned());
        dom
    }

    /// Unions another instance into this one (constants from `other` win).
    pub fn absorb(&mut self, other: &Instance) {
        for (rel, tuples) in &other.rels {
            self.rels
                .entry(rel.clone())
                .or_default()
                .extend(tuples.iter().cloned());
        }
        for (n, v) in &other.consts {
            self.consts.insert(n.clone(), v.clone());
        }
    }

    /// Total number of tuples across all relations.
    pub fn total_tuples(&self) -> usize {
        self.rels.values().map(|s| s.len()).sum()
    }

    /// True when no relation has content and no constant is interpreted.
    pub fn is_empty(&self) -> bool {
        self.total_tuples() == 0 && self.consts.is_empty()
    }
}

impl fmt::Debug for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Instance {{")?;
        for (rel, tuples) in &self.rels {
            if tuples.is_empty() {
                continue;
            }
            write!(f, "  {rel}: {{")?;
            for (i, t) in tuples.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{t}")?;
            }
            writeln!(f, "}}")?;
        }
        for (n, v) in &self.consts {
            writeln!(f, "  {n} := {v}")?;
        }
        write!(f, "}}")
    }
}

/// Builds an [`Instance`] from relation/tuple listings.
///
/// ```
/// use wave_logic::{inst, tuple};
/// let db = inst! {
///     "user" => [tuple!["alice", "pw1"], tuple!["Admin", "root"]],
///     "logged_in" => [],
///     const "min" => 0,
/// };
/// assert_eq!(db.cardinality("user"), 2);
/// assert!(db.has_constant("min"));
/// ```
#[macro_export]
macro_rules! inst {
    // relations followed by constants
    ($($rel:literal => [$($t:expr),* $(,)?],)* $(const $c:literal => $v:expr),+ $(,)?) => {{
        #[allow(unused_mut)]
        let mut i = $crate::instance::Instance::new();
        $( $( i.insert($rel, $t); )* let _ = $rel; )*
        $( i.set_constant($c, $crate::value::Value::from($v)); )+
        i
    }};
    // relations only
    ($($rel:literal => [$($t:expr),* $(,)?]),* $(,)?) => {{
        #[allow(unused_mut)]
        let mut i = $crate::instance::Instance::new();
        $( $( i.insert($rel, $t); )* let _ = $rel; )*
        i
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    #[test]
    fn insert_contains_remove() {
        let mut i = Instance::new();
        assert!(i.insert("r", tuple![1, 2]));
        assert!(!i.insert("r", tuple![1, 2]));
        assert!(i.contains("r", &tuple![1, 2]));
        assert!(i.remove("r", &tuple![1, 2]));
        assert!(!i.contains("r", &tuple![1, 2]));
        assert!(!i.remove("missing", &tuple![1]));
    }

    #[test]
    fn propositions_via_empty_tuple() {
        let mut i = Instance::new();
        assert!(!i.prop("error"));
        i.set_prop("error", true);
        assert!(i.prop("error"));
        i.set_prop("error", false);
        assert!(!i.prop("error"));
    }

    #[test]
    fn active_domain_collects_tuples_and_constants() {
        let mut i = Instance::new();
        i.insert("r", tuple![1, "a"]);
        i.set_constant("c", Value::str("z"));
        let dom = i.active_domain();
        assert!(dom.contains(&Value::int(1)));
        assert!(dom.contains(&Value::str("a")));
        assert!(dom.contains(&Value::str("z")));
        assert_eq!(dom.len(), 3);
    }

    #[test]
    fn absorb_unions() {
        let mut a = Instance::new();
        a.insert("r", tuple![1]);
        let mut b = Instance::new();
        b.insert("r", tuple![2]);
        b.insert("s", tuple![3]);
        b.set_constant("k", Value::int(9));
        a.absorb(&b);
        assert_eq!(a.cardinality("r"), 2);
        assert_eq!(a.cardinality("s"), 1);
        assert_eq!(a.constant("k"), Some(&Value::int(9)));
    }

    #[test]
    fn inst_macro() {
        let db = inst! {
            "user" => [tuple!["alice", "pw"]],
            const "min" => 0,
        };
        assert!(db.contains("user", &tuple!["alice", "pw"]));
        assert_eq!(db.constant("min"), Some(&Value::int(0)));
    }

    #[test]
    fn ordering_supports_set_membership() {
        // Instances are Ord so the db enumerator can deduplicate them.
        let mut a = Instance::new();
        a.insert("r", tuple![1]);
        let mut b = Instance::new();
        b.insert("r", tuple![2]);
        let mut set = BTreeSet::new();
        set.insert(a.clone());
        set.insert(b);
        set.insert(a);
        assert_eq!(set.len(), 2);
    }
}
