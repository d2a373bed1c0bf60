//! Store subsumption: one antichain of admitted configurations per key.
//!
//! A configuration whose knowledge store assumes more than an admitted
//! configuration with the same projection has a subset of its concrete
//! runs, so a search that only asks a reachability question may drop it
//! (DESIGN.md §3.1.3). Each antichain holds the admitted config ids of
//! one `(projection, key)`, where the key is the Büchi state in
//! [`super::verify_ltl`] and `0` in [`super::is_error_free`]. A
//! configuration is compared only against its own antichain, and only
//! the minimal (weakest) admitted configurations are kept in it.

use std::collections::HashMap;
use std::sync::Arc;

use wave_automata::interner::Interner;

use super::config::SymConfig;

/// The antichains of one search.
#[derive(Default)]
pub(crate) struct Antichains {
    /// Projection hash per config id, computed at most once per id.
    projection: Vec<Option<u64>>,
    /// Admitted config ids per `(projection hash, key)`. Different
    /// projections that collide on the hash share a chain; the
    /// comparison rechecks the projection.
    chains: HashMap<(u64, u32), Vec<u32>>,
    /// Drops so far: each call of [`Antichains::admit`] that answered
    /// `false`.
    pub(crate) pruned: u64,
}

impl Antichains {
    /// Admits config `id` under `key`, or drops it. A configuration is
    /// dropped (`false`) when a different admitted configuration with
    /// the same projection and key is weaker than it. An admitted
    /// configuration evicts the ones it is weaker than: they stay in the
    /// graph, but no later configuration needs comparing against them.
    pub(crate) fn admit(&mut self, configs: &Interner<Arc<SymConfig>>, id: u32, key: u32) -> bool {
        let i = id as usize;
        if self.projection.len() <= i {
            self.projection.resize(i + 1, None);
        }
        let cfg = configs.get(id);
        let hash = *self.projection[i].get_or_insert_with(|| cfg.projection_hash());
        let chain = self.chains.entry((hash, key)).or_default();
        if chain.contains(&id) {
            return true;
        }
        if chain.iter().any(|&a| configs.get(a).weaker_than(cfg)) {
            self.pruned += 1;
            return false;
        }
        chain.retain(|&b| !cfg.weaker_than(configs.get(b)));
        chain.push(id);
        true
    }

    /// Whether config `id` is in its antichain under `key`: admitted, and
    /// not evicted since by a weaker configuration.
    pub(crate) fn is_admitted(&self, id: u32, key: u32) -> bool {
        let Some(&Some(hash)) = self.projection.get(id as usize) else {
            return false;
        };
        self.chains
            .get(&(hash, key))
            .is_some_and(|chain| chain.contains(&id))
    }
}
