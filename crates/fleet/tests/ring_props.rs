//! Rendezvous placement properties: the load balance and minimal-remap
//! guarantees the fleet's cache locality rests on, plus the successor
//! cycle journal shipping rests on.
//!
//! Sampling is seeded, so these are exact, reproducible checks — the
//! final test pins hard counts for one fixed seed to catch any silent
//! change to the placement function (which would re-shuffle every
//! deployed fleet's cache placement and must be a deliberate,
//! domain-tag-bumping decision).

use wave_fleet::ring::Ring;
use wave_rng::{Rng, SplitMix64};

/// `k` seeded fingerprints spanning the full u128 space.
fn sample_fps(seed: u64, k: usize) -> Vec<u128> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    (0..k)
        .map(|_| ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128)
        .collect()
}

fn shares(ring: &Ring, fps: &[u128]) -> Vec<(u32, usize)> {
    let mut counts: Vec<(u32, usize)> = ring.nodes().iter().map(|n| (*n, 0)).collect();
    for fp in fps {
        let owner = ring.owner(*fp);
        counts
            .iter_mut()
            .find(|(n, _)| *n == owner)
            .expect("owner must be a member")
            .1 += 1;
    }
    counts
}

#[test]
fn per_node_share_stays_within_15_percent_of_uniform() {
    let fps = sample_fps(0xA11CE, 20_000);
    for n in 2..=16u32 {
        let ring = Ring::new(0..n);
        let fair = fps.len() as f64 / n as f64;
        for (node, count) in shares(&ring, &fps) {
            let dev = (count as f64 - fair).abs() / fair;
            assert!(
                dev <= 0.15,
                "{n} nodes: node {node} owns {count} of {} ({:.1}% from uniform {fair:.0})",
                fps.len(),
                dev * 100.0
            );
        }
    }
}

#[test]
fn adding_one_node_steals_at_most_its_fair_share_and_only_for_itself() {
    let fps = sample_fps(0xB0B, 10_000);
    for n in 2..=16u32 {
        let before = Ring::new(0..n);
        let mut after = before.clone();
        after.add_node(n);
        let mut moved = 0usize;
        for fp in &fps {
            let (old, new) = (before.owner(*fp), after.owner(*fp));
            if old != new {
                moved += 1;
                // Consistent hashing's defining property: a new node
                // only steals keys *for itself* — no third-party churn.
                assert_eq!(new, n, "fp moved {old}→{new}, not to the new node {n}");
            }
        }
        let fair = fps.len() / (n as usize + 1);
        // The new node's share is ~K/(n+1) with sampling variance; allow
        // the same 15% band the distribution test allows, plus slack
        // for small shares at large n.
        let bound = fair + fair / 4 + 64;
        assert!(
            moved <= bound,
            "{n}→{} nodes moved {moved} of {} fingerprints (bound {bound})",
            n + 1,
            fps.len()
        );
        assert!(moved > 0, "a new node must take some share");
    }
}

#[test]
fn removing_one_node_reassigns_only_that_node_s_keys() {
    let fps = sample_fps(0xDEAD, 10_000);
    for n in 3..=16u32 {
        let before = Ring::new(0..n);
        let mut after = before.clone();
        after.remove_node(n - 1);
        for fp in &fps {
            let (old, new) = (before.owner(*fp), after.owner(*fp));
            if old == n - 1 {
                assert_ne!(new, n - 1, "dead node still owns a fingerprint");
            } else {
                // Keys not owned by the dead node must not move at all:
                // this is what keeps the survivors' caches warm.
                assert_eq!(old, new, "survivor-owned fp churned on unrelated death");
            }
        }
    }
}

/// Hard-pinned counts for one seed: any diff here means the placement
/// function changed and every deployed fleet would re-shuffle. Bump
/// `HRW_DOMAIN` if that is intended.
#[test]
fn placement_is_pinned_for_a_fixed_seed() {
    let fps = sample_fps(0xFEED, 4_096);
    let three = Ring::new(0..3);
    assert_eq!(shares(&three, &fps), vec![(0, 1396), (1, 1353), (2, 1347)]);

    let mut four = three.clone();
    four.add_node(3);
    let moved = fps
        .iter()
        .filter(|fp| three.owner(**fp) != four.owner(**fp))
        .count();
    assert_eq!(
        moved, 1033,
        "K/n for K=4096, n=4 is 1024; sampling variance pins 1033"
    );
    assert_eq!(
        shares(&four, &fps),
        vec![(0, 1054), (1, 1012), (2, 997), (3, 1033)]
    );
}

#[test]
fn skipping_the_owner_lands_where_its_death_would() {
    // A soft partition (the router skips the owner for one request)
    // must fail over to the node that would own the fingerprint once
    // the owner is removed, so both paths find the same cache.
    let fps = sample_fps(0x5C1B, 5_000);
    for n in 2..=16u32 {
        let ring = Ring::new(0..n);
        for fp in &fps {
            let owner = ring.owner(*fp);
            let mut without = ring.clone();
            without.remove_node(owner);
            assert_eq!(
                ring.owner_excluding(*fp, &[owner]),
                Some(without.owner(*fp)),
                "{n} nodes: skipping {owner} and removing it disagree"
            );
        }
    }
}

#[test]
fn successor_sets_are_small_deterministic_and_cover_every_member() {
    let ring = Ring::new(0..6u32);
    for id in 0..6u32 {
        let s = ring.successors(id, 2);
        assert_eq!(s.len(), 2, "fan-out is exactly r, not all-pairs");
        assert!(!s.contains(&id), "a node never ships to itself");
        assert_eq!(s, ring.successors(id, 2), "pure function of members");
    }
    // The r=1 successor relation is one cycle over all members, so
    // gossip along successors reaches every node transitively.
    let mut seen = [false; 6];
    let mut at = 0u32;
    for _ in 0..6 {
        seen[at as usize] = true;
        at = ring.successors(at, 1)[0];
    }
    assert!(
        seen.iter().all(|s| *s),
        "successor relation must be one cycle"
    );
    // Sparse ids still form one cycle in ascending order, wrapping.
    let sparse = Ring::new([9, 2, 5]);
    assert_eq!(sparse.successors(2, 1), vec![5]);
    assert_eq!(sparse.successors(5, 1), vec![9]);
    assert_eq!(sparse.successors(9, 1), vec![2]);
    // Small fleets degrade to full mesh.
    let two = Ring::new([7, 9]);
    assert_eq!(two.successors(7, 2), vec![9]);
    assert_eq!(Ring::new([3]).successors(3, 2), Vec::<u32>::new());
}
