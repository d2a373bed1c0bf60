//! Hash-consing node interner.
//!
//! The lasso searches of [`crate::search`] explore implicit product
//! graphs whose nodes are large (symbolic configurations carry whole
//! knowledge stores). Interning maps each distinct node to a dense
//! `u32` id exactly once; after that the searches operate on ids —
//! visited sets become bit vectors, successor memo tables become plain
//! vectors, and node equality becomes integer equality. The interner
//! also counts dedup hits, the raw measure of how much sharing the
//! search space exhibits.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

/// Interns nodes of type `N`, assigning dense ids in first-seen order.
#[derive(Clone, Debug)]
pub struct Interner<N> {
    ids: HashMap<N, u32>,
    nodes: Vec<N>,
    dedup_hits: u64,
}

impl<N> Default for Interner<N> {
    fn default() -> Self {
        Interner {
            ids: HashMap::new(),
            nodes: Vec::new(),
            dedup_hits: 0,
        }
    }
}

impl<N: Clone + Eq + Hash> Interner<N> {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a node: returns its id and whether it was new. Ids are
    /// assigned densely (`0, 1, 2, …`) in first-seen order, so they can
    /// index side tables directly.
    pub fn intern(&mut self, node: N) -> (u32, bool) {
        self.intern_from(node)
    }

    /// [`Interner::intern`] for a node given in a form `N` borrows as
    /// and converts from: the value is looked up as it is and converted
    /// only when it is new. For `Arc<T>` nodes a duplicate `T` is
    /// dropped as soon as it is found, without an `Arc` allocation.
    pub fn intern_from<Q>(&mut self, value: Q) -> (u32, bool)
    where
        N: Borrow<Q> + From<Q>,
        Q: Eq + Hash,
    {
        if let Some(&id) = self.ids.get(&value) {
            self.dedup_hits += 1;
            return (id, false);
        }
        let id = u32::try_from(self.nodes.len()).expect("more than u32::MAX nodes");
        let node = N::from(value);
        self.nodes.push(node.clone());
        self.ids.insert(node, id);
        (id, true)
    }

    /// The id of an already-interned node, if any.
    pub fn lookup(&self, node: &N) -> Option<u32> {
        self.ids.get(node).copied()
    }
}

impl<N> Interner<N> {
    /// The node with the given id.
    ///
    /// Panics when the id was not produced by this interner.
    pub fn get(&self, id: u32) -> &N {
        &self.nodes[id as usize]
    }

    /// Number of distinct nodes interned.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// How many `intern` calls found their node already present.
    pub fn dedup_hits(&self) -> u64 {
        self.dedup_hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_and_stable() {
        let mut i = Interner::new();
        assert_eq!(i.intern("a".to_string()), (0, true));
        assert_eq!(i.intern("b".to_string()), (1, true));
        assert_eq!(i.intern("a".to_string()), (0, false));
        assert_eq!(i.intern("c".to_string()), (2, true));
        assert_eq!(i.len(), 3);
        assert_eq!(i.dedup_hits(), 1);
        assert_eq!(i.get(1), "b");
        assert_eq!(i.lookup(&"c".to_string()), Some(2));
        assert_eq!(i.lookup(&"z".to_string()), None);
    }

    #[test]
    fn intern_from_converts_only_new_values() {
        use std::sync::Arc;
        let mut i: Interner<Arc<String>> = Interner::new();
        assert_eq!(i.intern_from("a".to_string()), (0, true));
        let first = Arc::clone(i.get(0));
        assert_eq!(i.intern_from("a".to_string()), (0, false));
        assert_eq!(i.intern(Arc::new("b".to_string())), (1, true));
        assert_eq!(i.intern_from("b".to_string()), (1, false));
        assert_eq!(i.dedup_hits(), 2);
        // The stored node is the first one converted, never replaced.
        assert!(Arc::ptr_eq(&first, i.get(0)));
    }

    #[test]
    fn empty_interner() {
        let i: Interner<u64> = Interner::new();
        assert!(i.is_empty());
        assert_eq!(i.len(), 0);
        assert_eq!(i.dedup_hits(), 0);
    }
}
