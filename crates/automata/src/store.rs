//! Reusable LTL→Büchi translations: a keyed, in-memory automaton cache.
//!
//! The GPVW translation ([`crate::ltl2buchi`]) is a pure, deterministic
//! function of the formula, so an automaton can be cached under a
//! canonical fingerprint of that formula and reused across
//! verifications within one process. It is never persisted: a restart
//! simply retranslates each formula once, which costs tens of
//! microseconds. The cache is keyed by an opaque `u128` so this crate
//! stays independent of the fingerprinting layer: the *caller* is
//! responsible for a key that uniquely determines the formula handed to
//! `translate`.
//!
//! Caching a translation is sound even for runs that are later
//! cancelled or hit their node budget: unlike a verdict, the automaton
//! does not depend on how much of the search completed.
//!
//! A translation the tableau budget refuses
//! ([`TranslateError::TooLarge`]) is remembered too: the refusal is as
//! deterministic as an automaton, so the same formula sent against
//! another service or another node budget is refused without re-running
//! the tableau. A [`TranslateError::Cancelled`] says nothing about the
//! formula and is never remembered.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::buchi::Buchi;
use crate::ltl2buchi::TranslateError;

#[derive(Default)]
struct Inner {
    map: HashMap<u128, Arc<Buchi>>,
    /// Keys whose translation the tableau budget refused.
    too_large: HashSet<u128>,
}

/// A process-wide store of LTL→Büchi translations keyed by a canonical
/// formula fingerprint. Thread-safe; shared by `Arc` into every
/// verification's options.
#[derive(Default)]
pub struct AutomatonCache {
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl std::fmt::Debug for AutomatonCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AutomatonCache")
            .field("len", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

impl AutomatonCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The automaton for `key`, translating with `translate` on a miss.
    /// The translation runs outside the lock; when two threads race the
    /// same key, the first insert wins (both compute identical automata
    /// — the translation is deterministic). Panics if a budgeted
    /// translation of `key` was refused before: such a formula is too
    /// large for `translate` as well.
    pub fn get_or_insert(&self, key: u128, translate: impl FnOnce() -> Buchi) -> Arc<Buchi> {
        self.try_get_or_insert(key, || Ok(translate()))
            .unwrap_or_else(|e| panic!("automaton {key:#x}: {e}"))
    }

    /// [`AutomatonCache::get_or_insert`] with a translation that may
    /// refuse. A `TooLarge` refusal is remembered, so a later lookup of
    /// `key` is refused without calling `translate`; a `Cancelled` one
    /// caches nothing.
    pub fn try_get_or_insert(
        &self,
        key: u128,
        translate: impl FnOnce() -> Result<Buchi, TranslateError>,
    ) -> Result<Arc<Buchi>, TranslateError> {
        {
            let inner = self.inner.lock().expect("automaton cache poisoned");
            if let Some(a) = inner.map.get(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::clone(a));
            }
            if inner.too_large.contains(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Err(TranslateError::TooLarge);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let fresh = match translate() {
            Ok(a) => Arc::new(a),
            Err(e) => {
                if e == TranslateError::TooLarge {
                    let mut inner = self.inner.lock().expect("automaton cache poisoned");
                    inner.too_large.insert(key);
                }
                return Err(e);
            }
        };
        let mut inner = self.inner.lock().expect("automaton cache poisoned");
        if let Some(a) = inner.map.get(&key) {
            return Ok(Arc::clone(a));
        }
        inner.map.insert(key, Arc::clone(&fresh));
        Ok(fresh)
    }

    /// Number of cached automata (remembered refusals not included).
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("automaton cache poisoned")
            .map
            .len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to translate.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buchi::Guard;
    use crate::props::PropSet;

    fn sample() -> Buchi {
        Buchi {
            guard: vec![
                Guard::top(),
                Guard {
                    pos: PropSet::from_ids([0, 65]),
                    neg: PropSet::from_ids([3]),
                },
            ],
            succ: vec![vec![0, 1], vec![1]],
            initial: vec![0, 1],
            accepting: vec![false, true],
        }
    }

    #[test]
    fn cache_hits_and_misses() {
        let cache = AutomatonCache::new();
        let mut translations = 0u32;
        let a = cache.get_or_insert(42, || {
            translations += 1;
            sample()
        });
        assert_eq!(cache.misses(), 1);
        let b = cache.get_or_insert(42, || {
            translations += 1;
            sample()
        });
        assert_eq!(translations, 1, "second lookup must not retranslate");
        assert_eq!(cache.hits(), 1);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn a_too_large_refusal_is_remembered_and_a_cancellation_is_not() {
        let cache = AutomatonCache::new();
        let mut calls = 0u32;
        let mut refuse = |e: TranslateError| {
            calls += 1;
            Err(e)
        };
        let too_large = Err(TranslateError::TooLarge);
        assert_eq!(
            cache
                .try_get_or_insert(9, || refuse(TranslateError::TooLarge))
                .map(|_| ()),
            too_large
        );
        // The second lookup is refused from memory: no tableau rerun.
        assert_eq!(
            cache
                .try_get_or_insert(9, || unreachable!("refusal must be remembered"))
                .map(|_| ()),
            too_large
        );
        assert_eq!((cache.misses(), cache.hits()), (1, 1));
        // A refusal is not an automaton.
        assert!(cache.is_empty());

        // A cancellation says nothing about the formula: the next
        // lookup translates again, and its automaton is cached.
        assert_eq!(
            cache
                .try_get_or_insert(5, || refuse(TranslateError::Cancelled))
                .map(|_| ()),
            Err(TranslateError::Cancelled)
        );
        assert_eq!(calls, 2);
        let a = cache.try_get_or_insert(5, || Ok(sample())).unwrap();
        assert_eq!(cache.misses(), 3);
        assert!(Arc::ptr_eq(
            &a,
            &cache.get_or_insert(5, || unreachable!("cached"))
        ));
    }
}
