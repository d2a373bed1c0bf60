//! Rendezvous (highest-random-weight) placement over the 128-bit
//! content-fingerprint space (Thaler & Ravishankar, 1998).
//!
//! Every member has a seed; its weight for a fingerprint is
//! `mix128(fp ^ seed)`, and the heaviest member owns the fingerprint.
//! Removing a member moves only the fingerprints it owned (each to its
//! second-heaviest member), and adding one moves only the fingerprints
//! the newcomer now outweighs — no key ever moves between two old
//! members. Placement is a **pure function of the member set** under a
//! versioned domain tag, so every router, test and future process
//! computes the same owner for the same members without coordination.
//!
//! [`Ring::successors`] is the one other relation the fleet needs: the
//! members in ascending id order, wrapping round, which is a single
//! cycle over the members for journal gossip.

use wave_logic::fingerprint::Fnv128;

/// The versioned placement domain: bump when the weight function
/// changes, so mixed-version fleets fail loudly instead of split-brain
/// routing.
const HRW_DOMAIN: &str = "wave-fleet/hrw/v1";

/// A full-avalanche 128-bit finalizer (xorshift-multiply, murmur
/// style). A member's weights must look independent of every other
/// member's, and FNV-1a alone diffuses too weakly for that: seeds of
/// consecutive ids differ only in trailing bytes.
fn mix128(mut x: u128) -> u128 {
    x ^= x >> 67;
    x = x.wrapping_mul(0x2d35_8dcc_aa6c_78a5_fd70_80d3_06b0_8d1d);
    x ^= x >> 71;
    x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15_f39c_c060_5ced_c835);
    x ^= x >> 64;
    x
}

/// A member's weight seed.
fn seed(id: u32) -> u128 {
    let mut h = Fnv128::new();
    h.write_str(HRW_DOMAIN);
    h.write_u64(id as u64);
    mix128(h.finish())
}

/// Fleet placement: fingerprint → owning member id.
#[derive(Clone, Debug)]
pub struct Ring {
    /// Member ids, ascending.
    nodes: Vec<u32>,
    /// `seed(nodes[i])`, precomputed so a lookup hashes nothing but
    /// the fingerprint.
    seeds: Vec<u128>,
    /// Bumped on every membership change.
    epoch: u64,
}

impl Ring {
    /// Placement over the given member ids (duplicates are ignored), at
    /// epoch 0.
    pub fn new(node_ids: impl IntoIterator<Item = u32>) -> Ring {
        let mut ring = Ring {
            nodes: Vec::new(),
            seeds: Vec::new(),
            epoch: 0,
        };
        for id in node_ids {
            ring.add_node(id);
        }
        ring.epoch = 0;
        ring
    }

    /// Member ids, ascending.
    pub fn nodes(&self) -> &[u32] {
        &self.nodes
    }

    /// The membership epoch: bumped by every add/remove.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Adds a member (no-op if present).
    pub fn add_node(&mut self, id: u32) {
        if let Err(i) = self.nodes.binary_search(&id) {
            self.nodes.insert(i, id);
            self.seeds.insert(i, seed(id));
            self.epoch += 1;
        }
    }

    /// Removes a member (no-op if absent).
    pub fn remove_node(&mut self, id: u32) {
        if let Ok(i) = self.nodes.binary_search(&id) {
            self.nodes.remove(i);
            self.seeds.remove(i);
            self.epoch += 1;
        }
    }

    /// The member owning `fp`: the heaviest one, ties to the lower id.
    /// Panics when there are no members.
    pub fn owner(&self, fp: u128) -> u32 {
        self.owner_excluding(fp, &[])
            .expect("placement with no members")
    }

    /// The heaviest member not in `skip`: where a request goes when its
    /// owner is skipped. It is exactly where the owner's fingerprints
    /// land once that member is removed, so a skipped forward and a
    /// death fail over to the same node. `None` when every member is
    /// skipped.
    pub fn owner_excluding(&self, fp: u128, skip: &[u32]) -> Option<u32> {
        let mut best: Option<(u128, u32)> = None;
        for (id, seed) in self.nodes.iter().zip(&self.seeds) {
            if skip.contains(id) {
                continue;
            }
            let weight = mix128(fp ^ seed);
            // Ascending ids and a strict comparison: ties go to the
            // lower id.
            if best.is_none_or(|(w, _)| weight > w) {
                best = Some((weight, *id));
            }
        }
        best.map(|(_, id)| id)
    }

    /// The next `r` members after `id` in ascending id order, wrapping
    /// round (`id` itself excluded). The shipper replicates each node's
    /// journal only to these successors instead of all-pairs: the
    /// relation is a single cycle over the members, so with r ≥ 1 every
    /// journal line still reaches every node transitively (replicated
    /// installs re-journal on the receiver and ship onward next tick),
    /// at O(n·r) connections per tick instead of O(n²).
    pub fn successors(&self, id: u32, r: usize) -> Vec<u32> {
        let start = self.nodes.partition_point(|n| *n <= id);
        let n = self.nodes.len();
        (0..n)
            .map(|step| self.nodes[(start + step) % n])
            .filter(|m| *m != id)
            .take(r)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_is_deterministic_and_membership_pure() {
        let a = Ring::new([3, 1, 2]);
        let b = Ring::new([2, 3, 1]);
        for fp in [0u128, 1, u128::MAX, 0xdead_beef, 1 << 90] {
            assert_eq!(a.owner(fp), b.owner(fp), "order of adds must not matter");
        }
        assert_eq!(a.nodes(), &[1, 2, 3]);
    }

    #[test]
    fn epoch_tracks_membership_changes() {
        let mut r = Ring::new([0, 1]);
        assert_eq!(r.epoch(), 0);
        r.add_node(1); // no-op
        assert_eq!(r.epoch(), 0);
        r.add_node(2);
        assert_eq!(r.epoch(), 1);
        r.remove_node(0);
        assert_eq!(r.epoch(), 2);
        r.remove_node(0); // no-op
        assert_eq!(r.epoch(), 2);
        assert_eq!(r.nodes(), &[1, 2]);
    }

    #[test]
    fn owner_excluding_skips_the_given_members() {
        let r = Ring::new([0, 1, 2]);
        for fp in (0..64u128).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)) {
            let owner = r.owner(fp);
            let next = r.owner_excluding(fp, &[owner]).unwrap();
            assert_ne!(next, owner, "failover must differ from the skipped owner");
            assert_eq!(r.owner_excluding(fp, &[]), Some(owner));
        }
        assert_eq!(r.owner_excluding(7, &[0, 1, 2]), None);
        assert_eq!(Ring::new([]).owner_excluding(7, &[]), None);
    }
}
