//! Digest-keyed incremental re-verification tiers.
//!
//! The engine's result cache replays a *whole submission*: its key
//! covers the full service, so any edit — even one the property
//! provably cannot observe — is a cold miss. The tier store recovers
//! those misses with two finer-grained, content-addressed tiers:
//!
//! * the **verdict tier** keys a verdict by the canonical fingerprint
//!   of the property's *cone-sliced* service (plus the property and the
//!   normalized node budget). A one-rule edit outside the property's
//!   cone of influence leaves the sliced service — and therefore the
//!   key — unchanged, so the prior verdict replays without a search;
//! * the **automaton tier** keys an LTL→Büchi translation by the
//!   formula's canonical fingerprint alone ([`buchi_key`]): the GPVW
//!   translation is a pure function of the property, so it is reusable
//!   across *every* service, and even across runs that were later
//!   cancelled. It is an in-memory [`AutomatonCache`] only: a restart
//!   retranslates each formula once, in tens of microseconds.
//!
//! # Soundness
//!
//! A verdict-tier hit is sound because
//! [`verify_ltl`](wave_verifier::symbolic::verify_ltl) decides exactly
//! the sliced service: after admission it replaces the submitted
//! service by `slice(service, property).service` and never looks back
//! (slicing is verdict-preserving, DESIGN.md §12). Both the tier key
//! and the later search therefore consume the *same* canonical input,
//! and the verdict is a deterministic function of (sliced service,
//! property, normalized node budget) — `threads` and deadlines never
//! change it. When the slicer refuses, `slice` returns the service
//! unchanged, so the key degrades to the full-service fingerprint:
//! still sound, merely without cross-edit sharing. Error-page
//! reachability (`is_error_free`) never slices and never uses the
//! tiers.
//!
//! Inconclusive verdicts (`Cancelled`, `Poisoned`) are **never**
//! stored: they describe a deadline or a quarantine, not the service.
//! `LimitReached` is stored — the node budget is part of the key, so it
//! replays only for the same budget, where a re-run would exhaust it
//! identically.
//!
//! # Persistence and failure model
//!
//! Both tiers live in memory only. A verdict is a pure function of its
//! key, so every tier entry is a cache that a cold run can recompute;
//! the one store that must survive a restart is the engine's result
//! journal, which also feeds fleet replication. After a restart an
//! exact resubmit still replays from that journal, while the first
//! out-of-cone edit of each cone runs cold once and refills the tier.
//! The verdict tier is a plain [`ResultCache`] holding the verdict's
//! canonical wire encoding, so a replay returns the bytes the cold run
//! produced, and a value that fails to decode is a miss: a cold run,
//! never a wrong verdict.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use wave_automata::store::AutomatonCache;
use wave_core::service::Service;
use wave_logic::fingerprint::{Canonical, Fingerprint, Fnv128};
use wave_logic::temporal::Property;
pub use wave_verifier::symbolic::buchi_key;
use wave_verifier::symbolic::{SymbolicOptions, Verdict};

use crate::cache::ResultCache;
use crate::codec::{verdict_from_json, verdict_to_json};
use crate::json::Json;

/// The verdict-tier key: a domain-tagged canonical fingerprint of
/// exactly what the symbolic search will consume — the cone-sliced
/// service, the property, and the normalized node budget. Callers pass
/// the *sliced* service (`wave_core::slice::slice(service, property)
/// .service`); on a slicing refusal that is the submitted service
/// itself, which keeps the key sound at the cost of sharing.
pub fn verdict_tier_key(sliced: &Service, property: &Property, node_limit: usize) -> Fingerprint {
    let normalized = SymbolicOptions {
        node_limit,
        ..SymbolicOptions::default()
    }
    .normalized();
    let mut h = Fnv128::new();
    // v3: the breadth-first search for safety-shaped properties changed
    // `Holds { explored }` and the lassos a fresh search reports, so v2
    // bytes are not what a run answers now. (v2 did the same for store
    // subsumption; v1 was the verdict wire encoding as of
    // wave-serve/fp/v3; the tier is probed after admission, so fp/v4's
    // admission version never mattered to it.) Bump when the slicer,
    // the verdict codec or the search changes the verdict bytes for a
    // key.
    h.write_str("wave-inc/verdict/v3");
    sliced.canon(&mut h);
    property.canon(&mut h);
    h.write_len(normalized.node_limit);
    Fingerprint(h.finish())
}

/// The two incremental tiers: the verdict tier and the shared
/// automaton cache.
pub struct TierStore {
    /// Verdicts keyed by [`verdict_tier_key`].
    verdicts: Mutex<ResultCache>,
    /// The automaton tier, keyed by [`buchi_key`] and handed to every
    /// verification.
    automata: Arc<AutomatonCache>,
    /// Verdict-tier lookups answered without a search.
    verdict_hits: AtomicU64,
    /// Verdict-tier lookups that fell through to a cold run.
    verdict_misses: AtomicU64,
}

impl TierStore {
    /// Builds the tier store, its verdict tier bounded by
    /// `cache_bytes`. `persist` is ignored: both tiers live in memory
    /// only, so edits within one process lifetime replay and a restart
    /// runs each cone cold once. The argument stays until its last
    /// caller drops it.
    pub fn new(cache_bytes: usize, _persist: Option<&Path>) -> TierStore {
        TierStore {
            verdicts: Mutex::new(ResultCache::new(cache_bytes)),
            automata: Arc::new(AutomatonCache::new()),
            verdict_hits: AtomicU64::new(0),
            verdict_misses: AtomicU64::new(0),
        }
    }

    /// The shared automaton cache, for threading into
    /// `SymbolicOptions::automata`.
    pub fn automata(&self) -> Arc<AutomatonCache> {
        Arc::clone(&self.automata)
    }

    /// Looks the verdict tier up. A damaged or inconclusive stored
    /// value is a miss — the caller falls back to a cold run, which is
    /// always correct.
    pub fn probe_verdict(&self, key: Fingerprint) -> Option<Verdict> {
        let bytes = self
            .verdicts
            .lock()
            .expect("verdict tier poisoned")
            .get(key);
        let verdict = bytes.and_then(|b| {
            let text = std::str::from_utf8(&b).ok()?;
            verdict_from_json(&Json::parse(text).ok()?).ok()
        });
        match verdict {
            // Defense in depth: `store_verdict` already refuses
            // inconclusive verdicts.
            Some(v) if !matches!(v, Verdict::Cancelled | Verdict::Poisoned) => {
                self.verdict_hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            _ => {
                self.verdict_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores a cold run's verdict under its tier key. `Cancelled` and
    /// `Poisoned` are refused: a deadline- or quarantine-specific
    /// non-answer must never replay for a future edit.
    pub fn store_verdict(&self, key: Fingerprint, verdict: &Verdict) {
        if matches!(verdict, Verdict::Cancelled | Verdict::Poisoned) {
            return;
        }
        let bytes = verdict_to_json(verdict).encode().into_bytes();
        self.verdicts
            .lock()
            .expect("verdict tier poisoned")
            .insert(key, bytes);
    }

    /// Does nothing: the automaton tier lives in memory only. Kept so
    /// existing callers still build; it goes when its last caller does.
    pub fn persist_pending_automata(&self) {}

    /// Verdict-tier lookups answered without a search.
    pub fn verdict_hits(&self) -> u64 {
        self.verdict_hits.load(Ordering::Relaxed)
    }

    /// Verdict-tier lookups that fell through to a cold run.
    pub fn verdict_misses(&self) -> u64 {
        self.verdict_misses.load(Ordering::Relaxed)
    }

    /// Automaton-cache hits (translations skipped).
    pub fn automaton_hits(&self) -> u64 {
        self.automata.hits()
    }

    /// Automaton-cache misses (translations run).
    pub fn automaton_misses(&self) -> u64 {
        self.automata.misses()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wave_logic::parser::parse_property;

    #[test]
    fn verdict_tier_stores_conclusive_verdicts_only() {
        let store = TierStore::new(64 * 1024, None);
        let key = Fingerprint(7);
        assert_eq!(store.probe_verdict(key), None);
        assert_eq!(store.verdict_misses(), 1);

        store.store_verdict(key, &Verdict::Cancelled);
        store.store_verdict(key, &Verdict::Poisoned);
        assert_eq!(store.probe_verdict(key), None, "inconclusive: never stored");

        let verdict = Verdict::Holds { explored: 12 };
        store.store_verdict(key, &verdict);
        assert_eq!(store.probe_verdict(key), Some(verdict));
        assert_eq!(store.verdict_hits(), 1);
        // LimitReached is budget-keyed and therefore cacheable.
        store.store_verdict(Fingerprint(8), &Verdict::LimitReached);
        assert_eq!(
            store.probe_verdict(Fingerprint(8)),
            Some(Verdict::LimitReached)
        );
    }

    #[test]
    fn verdict_tier_creates_no_file_even_with_a_journal_path() {
        let dir = std::env::temp_dir().join(format!("wave_tiers_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("node-0.ndjson");
        let store = TierStore::new(64 * 1024, Some(&journal));
        store.store_verdict(Fingerprint(3), &Verdict::Holds { explored: 4 });
        assert_eq!(
            store.probe_verdict(Fingerprint(3)),
            Some(Verdict::Holds { explored: 4 })
        );
        drop(store);
        let files: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert!(files.is_empty(), "{files:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tier_key_ignores_out_of_cone_edits_and_thread_count() {
        use wave_core::slice::slice;
        let service = crate::registry::resolve("checkout_bench").unwrap();
        let p = parse_property("forall p . G (!ship(p) | paid)").unwrap();
        let sliced = slice(&service, &p);
        assert!(
            sliced.report.refused.is_none(),
            "{:?}",
            sliced.report.refused
        );
        let k1 = verdict_tier_key(&sliced.service, &p, 0);
        // node_limit 0 normalizes to the default: same key.
        let k2 = verdict_tier_key(&sliced.service, &p, 500_000);
        assert_eq!(k1, k2);
        // A different explicit budget keys separately (LimitReached
        // replay depends on it).
        assert_ne!(k1, verdict_tier_key(&sliced.service, &p, 1_000));
        // A different property keys separately even on the same slice.
        let q = parse_property("forall p . G (!ship(p) | member)").unwrap();
        assert_ne!(k1, verdict_tier_key(&sliced.service, &q, 0));
    }
}
