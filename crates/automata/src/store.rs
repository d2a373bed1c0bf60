//! Reusable LTL→Büchi translations: a keyed automaton cache plus a
//! deterministic byte codec for [`Buchi`].
//!
//! The GPVW translation ([`crate::ltl2buchi`]) is a pure, deterministic
//! function of the formula, so an automaton can be cached under a
//! canonical fingerprint of that formula and reused across
//! verifications — including across process restarts when the host
//! persists the encoded bytes (wave-serve journals them next to its
//! result cache). The cache is keyed by an opaque `u128` so this crate
//! stays independent of the fingerprinting layer: the *caller* is
//! responsible for a key that uniquely determines the formula handed to
//! `translate`.
//!
//! Caching a translation is sound even for runs that are later
//! cancelled or hit their node budget: unlike a verdict, the automaton
//! does not depend on how much of the search completed.
//!
//! A translation the tableau budget refuses
//! ([`TranslateError::TooLarge`]) is remembered too, in memory only:
//! the refusal is as deterministic as an automaton, so the same formula
//! sent against another service or another node budget is refused
//! without re-running the tableau. It is not journaled, because it
//! depends on the build's [`MAX_TABLEAU_NODES`](crate::ltl2buchi::MAX_TABLEAU_NODES)
//! as well as the formula. A [`TranslateError::Cancelled`] says nothing
//! about the formula and is never remembered.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::buchi::{Buchi, Guard};
use crate::ltl2buchi::TranslateError;
use crate::props::{PropId, PropSet};

impl Buchi {
    /// Encodes the automaton into a deterministic, self-delimiting byte
    /// string: equal automata (with normalized [`PropSet`]s, which the
    /// translation always produces) encode to equal bytes, so the
    /// encoding is safe to content-address and to compare.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let push_u64 = |out: &mut Vec<u8>, v: u64| out.extend_from_slice(&v.to_le_bytes());
        let push_set = |out: &mut Vec<u8>, s: &PropSet| {
            let ids: Vec<PropId> = s.iter().collect();
            push_u64(out, ids.len() as u64);
            for id in ids {
                out.extend_from_slice(&id.to_le_bytes());
            }
        };
        push_u64(&mut out, self.guard.len() as u64);
        for g in &self.guard {
            push_set(&mut out, &g.pos);
            push_set(&mut out, &g.neg);
        }
        for succ in &self.succ {
            push_u64(&mut out, succ.len() as u64);
            for &s in succ {
                push_u64(&mut out, s as u64);
            }
        }
        push_u64(&mut out, self.initial.len() as u64);
        for &q in &self.initial {
            push_u64(&mut out, q as u64);
        }
        for &a in &self.accepting {
            out.push(a as u8);
        }
        out
    }

    /// Decodes an automaton previously produced by
    /// [`Buchi::to_bytes`]. Returns `None` — never a malformed
    /// automaton — on any damage: truncation, trailing garbage, a state
    /// index out of range, or an invalid accepting flag. A `None` means
    /// the caller falls back to retranslating, which is always correct.
    pub fn from_bytes(bytes: &[u8]) -> Option<Buchi> {
        struct Cur<'a>(&'a [u8]);
        impl Cur<'_> {
            fn u64(&mut self) -> Option<u64> {
                let (head, rest) = self.0.split_first_chunk::<8>()?;
                self.0 = rest;
                Some(u64::from_le_bytes(*head))
            }
            fn u32(&mut self) -> Option<u32> {
                let (head, rest) = self.0.split_first_chunk::<4>()?;
                self.0 = rest;
                Some(u32::from_le_bytes(*head))
            }
            fn count(&mut self, width: usize) -> Option<usize> {
                // A count that could not possibly fit in the remaining
                // bytes is damage; checking here keeps allocations
                // proportional to the input.
                let n = self.u64()?;
                let n = usize::try_from(n).ok()?;
                (n.saturating_mul(width) <= self.0.len()).then_some(n)
            }
        }
        let mut cur = Cur(bytes);
        let n = cur.count(0)?;
        if n.saturating_mul(2) > bytes.len() {
            return None; // at least two set-count words per state
        }
        let read_set = |cur: &mut Cur| -> Option<PropSet> {
            let len = cur.count(4)?;
            let mut s = PropSet::new();
            for _ in 0..len {
                s.insert(cur.u32()?);
            }
            Some(s)
        };
        let mut guard = Vec::with_capacity(n);
        for _ in 0..n {
            guard.push(Guard {
                pos: read_set(&mut cur)?,
                neg: read_set(&mut cur)?,
            });
        }
        let mut succ = Vec::with_capacity(n);
        for _ in 0..n {
            let len = cur.count(8)?;
            let mut row = Vec::with_capacity(len);
            for _ in 0..len {
                let q = usize::try_from(cur.u64()?).ok()?;
                (q < n).then_some(())?;
                row.push(q);
            }
            succ.push(row);
        }
        let len = cur.count(8)?;
        let mut initial = Vec::with_capacity(len);
        for _ in 0..len {
            let q = usize::try_from(cur.u64()?).ok()?;
            (q < n).then_some(())?;
            initial.push(q);
        }
        if cur.0.len() != n {
            return None;
        }
        let mut accepting = Vec::with_capacity(n);
        for &b in cur.0 {
            accepting.push(match b {
                0 => false,
                1 => true,
                _ => return None,
            });
        }
        Some(Buchi {
            guard,
            succ,
            initial,
            accepting,
        })
    }
}

#[derive(Default)]
struct Inner {
    map: HashMap<u128, Arc<Buchi>>,
    /// Entries inserted by a translation since the last drain — the
    /// host's persistence hook journals exactly these (seeded entries
    /// came *from* the journal and must not be re-journaled forever).
    pending: Vec<(u128, Arc<Buchi>)>,
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

    /// Installs a recovered automaton without marking it pending —
    /// the load path for entries that already live in a journal.
    /// Existing entries win (the translation is deterministic, so a
    /// disagreement can only mean the seed is damaged).
    pub fn seed(&self, key: u128, automaton: Buchi) {
        let mut inner = self.inner.lock().expect("automaton cache poisoned");
        inner.map.entry(key).or_insert_with(|| Arc::new(automaton));
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
        inner.pending.push((key, Arc::clone(&fresh)));
        Ok(fresh)
    }

    /// Takes (and clears) the entries inserted by translations since
    /// the last drain, for the host to persist.
    pub fn drain_pending(&self) -> Vec<(u128, Arc<Buchi>)> {
        let mut inner = self.inner.lock().expect("automaton cache poisoned");
        std::mem::take(&mut inner.pending)
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
    fn byte_codec_round_trips() {
        let a = sample();
        let bytes = a.to_bytes();
        let b = Buchi::from_bytes(&bytes).expect("round trip");
        assert_eq!(a.guard, b.guard);
        assert_eq!(a.succ, b.succ);
        assert_eq!(a.initial, b.initial);
        assert_eq!(a.accepting, b.accepting);
        assert_eq!(bytes, b.to_bytes(), "encoding is canonical");
        // The empty automaton round-trips too.
        let e = Buchi::default();
        let eb = Buchi::from_bytes(&e.to_bytes()).expect("empty");
        assert!(eb.is_empty());
    }

    #[test]
    fn damaged_bytes_decode_to_none_never_a_wrong_automaton() {
        let bytes = sample().to_bytes();
        // Truncation at every prefix length.
        for cut in 0..bytes.len() {
            assert!(Buchi::from_bytes(&bytes[..cut]).is_none(), "cut {cut}");
        }
        // Trailing garbage.
        let mut long = bytes.clone();
        long.push(0);
        assert!(Buchi::from_bytes(&long).is_none());
        // An absurd count must not allocate or decode.
        let mut huge = Vec::new();
        huge.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(Buchi::from_bytes(&huge).is_none());
        // An out-of-range successor index.
        let bad = Buchi {
            guard: vec![Guard::top()],
            succ: vec![vec![0]],
            initial: vec![0],
            accepting: vec![false],
        };
        let mut enc = bad.to_bytes();
        // succ index lives right after the two empty guard sets and the
        // succ count; flip it to 7 (out of range for n = 1).
        let idx = 8 + 16 + 8;
        enc[idx] = 7;
        assert!(Buchi::from_bytes(&enc).is_none());
    }

    #[test]
    fn cache_hits_misses_and_pending_drain() {
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
        let pending = cache.drain_pending();
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].0, 42);
        assert!(cache.drain_pending().is_empty(), "drain clears");
        // Seeded entries never show up as pending.
        cache.seed(7, sample());
        assert!(cache.drain_pending().is_empty());
        assert_eq!(cache.len(), 2);
        cache.get_or_insert(7, || unreachable!("seeded key must hit"));
        assert_eq!(cache.hits(), 2);
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
        // Refusals are neither automata nor journal material.
        assert!(cache.is_empty());
        assert!(cache.drain_pending().is_empty());

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
