//! Content-addressed result cache: in-memory LRU with a byte budget,
//! plus optional on-disk persistence as CRC-framed line-delimited JSON.
//!
//! Keys are canonical [`Fingerprint`]s (see `wave_logic::fingerprint`);
//! values are the **serialized bytes** of a `VerifyOutcome`. Storing the
//! bytes — not the structure — is what makes cache hits byte-identical
//! to the cold run that populated them: a hit replays the exact encoding
//! the miss produced.
//!
//! Eviction is least-recently-used (gets and inserts both refresh
//! recency) and is driven purely by the byte budget: entries are evicted
//! until the sum of stored value lengths fits. A single oversized value
//! is never stored.
//!
//! # Journal format and crash tolerance
//!
//! Persistence appends one **framed** record per insert:
//!
//! ```text
//! <8 hex crc32> {"fingerprint":"<32 hex>","outcome":{...}}
//! ```
//!
//! The CRC-32 covers the JSON payload, so a torn final line (the write
//! the crash interrupted), a corrupted byte, or a fragment of two lines
//! merged by a torn append all fail the frame check and are **skipped
//! and counted** (`dropped_records`) instead of poisoning the load;
//! intact records keep loading after the damage (`recovered_records`).
//! A line without a frame is dropped the same way. The one invariant
//! recovery guarantees: a loaded entry's bytes are exactly the bytes
//! some insert journaled — damage can lose entries, never alter them
//! (a cache miss is safe; a wrong hit is not).
//!
//! The journal is rewritten compacted on load, and again whenever
//! refreshes and evictions have bloated it past ~4× the byte budget.
//! Every rewrite is **atomic**: the compacted content goes to a
//! sibling temp file, is fsynced, and is renamed over the journal, so
//! a crash at any byte offset of the rewrite leaves the old journal
//! intact (regression-tested at every offset in
//! `tests/journal_crash.rs`).
//!
//! Fault injection: the [`Hook::JournalAppend`] and
//! [`Hook::JournalCompact`] hook points let a chaos plane tear, corrupt
//! or drop exactly these writes; see [`crate::faults`].

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::{Path, PathBuf};

use wave_logic::fingerprint::Fingerprint;

use crate::crc32::crc32;
use crate::faults::{Fault, Faults, Hook};
use crate::json::Json;

/// LRU cache keyed by fingerprint, bounded by total value bytes.
pub struct ResultCache {
    /// fingerprint → (stored bytes, recency tick).
    map: HashMap<u128, (Vec<u8>, u64)>,
    /// recency tick → fingerprint (oldest first).
    recency: BTreeMap<u64, u128>,
    tick: u64,
    bytes: usize,
    budget: usize,
    evictions: u64,
    persist: Option<PathBuf>,
    /// Bytes currently in the journal file (live + dead lines).
    journal_bytes: usize,
    /// Journal generation: bumped on every compaction rewrite (load-time
    /// and growth/forced), stamped into a sidecar file so shippers that
    /// tail the journal from outside this process can detect a rewrite
    /// even when later appends regrow the file past their stale offset.
    generation: u64,
    /// Journal rewrites triggered by the growth bound.
    compactions: u64,
    /// Records successfully loaded from the journal (last load).
    recovered_records: u64,
    /// Journal lines rejected on load: torn, corrupted, or malformed.
    dropped_records: u64,
    /// Installed fault-injection plane (inert by default).
    faults: Faults,
}

/// How an atomic journal rewrite ended.
enum Rewrite {
    /// The rename landed; the journal is the new content.
    Done,
    /// An injected fault "crashed" the rewrite before the rename; the
    /// old journal is untouched.
    Aborted,
    /// A real I/O error; persistence must be disabled.
    IoError,
}

impl ResultCache {
    /// An empty cache with the given byte budget and no persistence.
    pub fn new(budget: usize) -> Self {
        ResultCache {
            map: HashMap::new(),
            recency: BTreeMap::new(),
            tick: 0,
            bytes: 0,
            budget,
            evictions: 0,
            persist: None,
            journal_bytes: 0,
            generation: 0,
            compactions: 0,
            recovered_records: 0,
            dropped_records: 0,
            faults: Faults::none(),
        }
    }

    /// Installs a fault-injection plane consulted at the journal hook
    /// points. Call before [`ResultCache::with_persistence`] so the
    /// load-time compaction is already under the plane.
    pub fn with_faults(mut self, faults: Faults) -> Self {
        self.faults = faults;
        self
    }

    /// Enables persistence: replays `path` if it exists (damaged lines
    /// are skipped and counted, later duplicates win), rewrites it
    /// compacted, and appends every future insert to it. I/O failures
    /// disable persistence rather than failing verification.
    pub fn with_persistence(mut self, path: PathBuf) -> Self {
        let mut on_disk = 0usize;
        if let Ok(data) = std::fs::read(&path) {
            on_disk = data.len();
            // Process the journal as bytes, line by line: corruption can
            // produce invalid UTF-8, and one poisoned line must drop
            // alone instead of discarding the whole journal.
            for raw in data.split(|&b| b == b'\n') {
                let raw = match raw {
                    [head @ .., b'\r'] => head,
                    other => other,
                };
                if raw.is_empty() {
                    continue;
                }
                match std::str::from_utf8(raw).ok().and_then(decode_journal_line) {
                    Some((fp, bytes)) => {
                        self.recovered_records += 1;
                        self.insert_in_memory(fp, bytes);
                    }
                    None => self.dropped_records += 1,
                }
            }
        }
        // Compact: rewrite surviving entries oldest-first, atomically.
        self.persist = Some(path.clone());
        self.journal_bytes = on_disk;
        // Adopt the on-disk generation so a cursor taken against the old
        // process stays comparable; the load-time rewrite below bumps it.
        self.generation = read_generation(&path);
        let lines = self.compacted_journal();
        match self.rewrite_journal(&path, &lines) {
            Rewrite::Done => {
                self.journal_bytes = lines.len();
                self.generation += 1;
                write_generation(&path, self.generation);
            }
            Rewrite::Aborted => {} // old journal intact, keep appending to it
            Rewrite::IoError => self.persist = None,
        }
        self
    }

    /// The journal content that exactly reproduces the in-memory state:
    /// one framed line per live entry, oldest-first, so a replay
    /// rebuilds the same LRU order.
    fn compacted_journal(&self) -> String {
        let mut lines = String::new();
        for fp in self.recency.values() {
            if let Some((bytes, _)) = self.map.get(fp) {
                lines.push_str(&persist_line(Fingerprint(*fp), bytes));
                lines.push('\n');
            }
        }
        lines
    }

    /// Atomically replaces the journal with `content`: temp file in the
    /// same directory, fsync, rename. A crash (or injected tear) at any
    /// byte offset of the temp write leaves the old journal intact.
    fn rewrite_journal(&mut self, path: &Path, content: &str) -> Rewrite {
        let mut payload = content.as_bytes().to_vec();
        let mut write_len = payload.len();
        let mut crash_before_rename = false;
        match self.faults.decide(Hook::JournalCompact, payload.len()) {
            Fault::None => {}
            Fault::Delay(d) => std::thread::sleep(d),
            Fault::Torn { keep } => {
                write_len = keep.min(payload.len());
                crash_before_rename = true;
            }
            Fault::Corrupt { offset, xor } => {
                if !payload.is_empty() {
                    let i = offset % payload.len();
                    payload[i] ^= xor;
                }
            }
            // A dropped compaction write: the rewrite never happens.
            Fault::Drop => return Rewrite::Aborted,
            // Meaningless here.
            Fault::Panic | Fault::QueueFull | Fault::SkewDeadline { .. } => {}
        }
        let tmp = path.with_extension("ndjson.tmp");
        let write = std::fs::File::create(&tmp).and_then(|mut f| {
            f.write_all(&payload[..write_len])?;
            f.sync_all()
        });
        if write.is_err() {
            return Rewrite::IoError;
        }
        if crash_before_rename {
            // Simulated crash mid-rewrite: the temp file holds the torn
            // prefix, the real journal was never touched.
            return Rewrite::Aborted;
        }
        if std::fs::rename(&tmp, path).is_err() {
            return Rewrite::IoError;
        }
        // Best-effort directory fsync so the rename itself is durable.
        if let Some(dir) = path.parent() {
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Rewrite::Done
    }

    /// Rewrites the journal compacted when growth (refresh duplicates,
    /// evicted-but-still-journaled lines) pushed it past ~4× the byte
    /// budget. An I/O failure disables persistence.
    fn maybe_compact_journal(&mut self) {
        let bound = self.budget.saturating_mul(4).max(1);
        if self.journal_bytes <= bound {
            return;
        }
        self.compact_now();
    }

    /// Forces an immediate atomic journal compaction (no-op without
    /// persistence). Exposed for operational use and crash tests.
    pub fn compact_now(&mut self) {
        let Some(path) = self.persist.clone() else {
            return;
        };
        let lines = self.compacted_journal();
        match self.rewrite_journal(&path, &lines) {
            Rewrite::Done => {
                self.journal_bytes = lines.len();
                self.compactions += 1;
                self.generation += 1;
                write_generation(&path, self.generation);
            }
            Rewrite::Aborted => {}
            Rewrite::IoError => self.persist = None,
        }
    }

    /// The configured byte budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Total bytes currently stored.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Entries evicted so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Journal compactions triggered since construction (growth-bound
    /// and forced; not counting the compaction-on-load).
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Current journal size in bytes (0 without persistence).
    pub fn journal_bytes(&self) -> usize {
        self.journal_bytes
    }

    /// Records successfully recovered from the journal at load.
    pub fn recovered_records(&self) -> u64 {
        self.recovered_records
    }

    /// Journal lines rejected at load (torn, corrupted or malformed).
    pub fn dropped_records(&self) -> u64 {
        self.dropped_records
    }

    /// True when persistence is (still) enabled.
    pub fn persistent(&self) -> bool {
        self.persist.is_some()
    }

    /// True when `fp` is cached with exactly `bytes` — without
    /// refreshing recency. The fleet replication path uses this to make
    /// journal shipping idempotent: a record a node already holds
    /// verbatim is a no-op, not a re-insert that would re-journal (and
    /// re-ship) it forever.
    pub fn peek_identical(&self, fp: Fingerprint, bytes: &[u8]) -> bool {
        self.map
            .get(&fp.0)
            .is_some_and(|(stored, _)| stored.as_slice() == bytes)
    }

    /// The current journal generation (bumped on every compaction
    /// rewrite; 0 before the first one).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Looks up a fingerprint, refreshing its recency. Returns the
    /// stored bytes verbatim.
    pub fn get(&mut self, fp: Fingerprint) -> Option<Vec<u8>> {
        self.tick += 1;
        let tick = self.tick;
        match self.map.entry(fp.0) {
            Entry::Occupied(mut e) => {
                let (_, old_tick) = *e.get();
                let (bytes, t) = e.get_mut();
                *t = tick;
                let out = bytes.clone();
                self.recency.remove(&old_tick);
                self.recency.insert(tick, fp.0);
                Some(out)
            }
            Entry::Vacant(_) => None,
        }
    }

    /// Inserts (or refreshes) an entry, evicting LRU entries to fit the
    /// budget, and appends a framed record to the journal when enabled.
    /// Values larger than the whole budget are not stored.
    pub fn insert(&mut self, fp: Fingerprint, value: Vec<u8>) {
        let stored = self.insert_in_memory(fp, value);
        if stored {
            self.append_journal(fp);
            self.maybe_compact_journal();
        }
    }

    /// Appends the freshly stored entry to the journal, subject to the
    /// [`Hook::JournalAppend`] fault point: a torn append writes a
    /// newline-less prefix (which the CRC frame quarantines on the next
    /// load), a corrupted append flips one byte, a dropped append loses
    /// the record — all survivable, none can alter a *different*
    /// record.
    fn append_journal(&mut self, fp: Fingerprint) {
        let Some(path) = self.persist.clone() else {
            return;
        };
        let (bytes, _) = &self.map[&fp.0];
        let line = persist_line(fp, bytes);
        let mut payload = line.into_bytes();
        payload.push(b'\n');
        match self.faults.decide(Hook::JournalAppend, payload.len()) {
            Fault::None => {}
            Fault::Delay(d) => std::thread::sleep(d),
            Fault::Drop => return, // record lost, journal consistent
            Fault::Torn { keep } => payload.truncate(keep.min(payload.len())),
            Fault::Corrupt { offset, xor } => {
                if !payload.is_empty() {
                    let i = offset % payload.len();
                    payload[i] ^= xor;
                }
            }
            Fault::Panic | Fault::QueueFull | Fault::SkewDeadline { .. } => {}
        }
        let ok = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(&payload))
            .is_ok();
        if ok {
            self.journal_bytes += payload.len();
        } else {
            self.persist = None;
        }
    }

    /// In-memory half of [`ResultCache::insert`]; returns whether the
    /// value was stored. A same-fingerprint reinsert subtracts the old
    /// entry's length before adding the new one, so `bytes` is always
    /// the exact sum of stored value lengths — pinned against a
    /// reference model (including varying-size same-key overwrites) by
    /// `property_budget_never_exceeded_and_lru_survives_refresh`.
    fn insert_in_memory(&mut self, fp: Fingerprint, value: Vec<u8>) -> bool {
        if value.len() > self.budget {
            return false;
        }
        self.tick += 1;
        let tick = self.tick;
        if let Some((old, old_tick)) = self.map.remove(&fp.0) {
            self.bytes -= old.len();
            self.recency.remove(&old_tick);
        }
        self.bytes += value.len();
        self.map.insert(fp.0, (value, tick));
        self.recency.insert(tick, fp.0);
        while self.bytes > self.budget {
            let (&oldest_tick, &oldest_fp) = self
                .recency
                .iter()
                .next()
                .expect("bytes > 0 implies entries");
            // The entry just inserted is newest; over-budget implies at
            // least one older entry exists, so we never evict ourselves.
            self.recency.remove(&oldest_tick);
            let (old, _) = self.map.remove(&oldest_fp).expect("indexed entry");
            self.bytes -= old.len();
            self.evictions += 1;
        }
        true
    }
}

/// A shipper's resume point into a journal: the byte `offset` is valid
/// only while the journal is still at `generation`. Every compaction
/// rewrites the file and bumps the generation; a cursor carrying an
/// older generation restarts at byte 0. Restarting over-ships (safe —
/// the replication receiver skips byte-identical records), whereas
/// resuming a stale offset into rewritten content silently skips every
/// record between the new start and the old offset.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JournalCursor {
    /// Journal generation the offset was taken against.
    pub generation: u64,
    /// Byte offset just past the last complete line consumed.
    pub offset: usize,
}

/// The sidecar path holding `journal`'s generation stamp (the journal
/// path with `.gen` appended). A sidecar — not an in-file header —
/// because shippers forward journal lines verbatim to the replication
/// receiver, and a header line would arrive there as a permanently
/// re-shipped undecodable frame.
pub fn generation_path(journal: &Path) -> PathBuf {
    let mut os = journal.as_os_str().to_os_string();
    os.push(".gen");
    PathBuf::from(os)
}

/// The generation stamped next to `journal`; 0 when the sidecar is
/// absent or unreadable (pre-stamp journals tail with the length-check
/// fallback only).
pub fn read_generation(journal: &Path) -> u64 {
    std::fs::read_to_string(generation_path(journal))
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0)
}

/// Atomically (write-temp-then-rename) stamps `generation` next to
/// `journal`. Best effort: a failed stamp leaves the old one, which
/// only makes tailing shippers restart from zero — never skip.
fn write_generation(journal: &Path, generation: u64) {
    let target = generation_path(journal);
    let tmp = target.with_extension("gen.tmp");
    if std::fs::write(&tmp, format!("{generation}\n")).is_ok() {
        let _ = std::fs::rename(&tmp, &target);
    }
}

/// One framed journal line (no trailing newline):
/// `<8 hex crc32> <record json>`, CRC over the JSON payload. Public
/// because the fleet ships these exact frames between nodes.
pub fn persist_line(fp: Fingerprint, outcome_bytes: &[u8]) -> String {
    // `outcome_bytes` is the canonical encoding of a JSON object; splice
    // it in verbatim so the journal stores the exact cached bytes.
    let record = format!(
        "{{\"fingerprint\":\"{}\",\"outcome\":{}}}",
        fp.to_hex(),
        String::from_utf8_lossy(outcome_bytes),
    );
    format!("{:08x} {record}", crc32(record.as_bytes()))
}

/// Decodes one journal line. `None` means the line is damaged (CRC
/// mismatch, torn or missing frame, malformed JSON) and must be skipped
/// — never that a damaged line yields altered bytes. Public because the
/// fleet replication receiver validates shipped frames with the same
/// code that guards the local journal.
pub fn decode_journal_line(line: &str) -> Option<(Fingerprint, Vec<u8>)> {
    // The frame: 8 hex digits, a space, then the payload the CRC covers.
    let (crc, record) = line.split_at_checked(8)?;
    let record = record.strip_prefix(' ')?;
    if !crc.bytes().all(|b| b.is_ascii_hexdigit())
        || u32::from_str_radix(crc, 16).ok()? != crc32(record.as_bytes())
    {
        return None;
    }
    let v = Json::parse(record).ok()?;
    let fp = v
        .get("fingerprint")
        .and_then(Json::as_str)
        .and_then(Fingerprint::from_hex)?;
    let outcome = v.get("outcome")?;
    Some((fp, outcome.encode().into_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn fp(n: u128) -> Fingerprint {
        Fingerprint(n)
    }

    #[test]
    fn get_returns_stored_bytes_verbatim() {
        let mut c = ResultCache::new(1024);
        c.insert(fp(1), b"{\"a\":1}".to_vec());
        assert_eq!(c.get(fp(1)).unwrap(), b"{\"a\":1}".to_vec());
        assert_eq!(c.get(fp(2)), None);
    }

    #[test]
    fn lru_eviction_respects_byte_budget_and_recency() {
        let mut c = ResultCache::new(10);
        c.insert(fp(1), vec![0; 4]);
        c.insert(fp(2), vec![0; 4]);
        assert_eq!(c.bytes(), 8);
        // Touch 1 so 2 becomes the LRU victim.
        assert!(c.get(fp(1)).is_some());
        c.insert(fp(3), vec![0; 4]);
        assert_eq!(c.len(), 2);
        assert!(c.get(fp(1)).is_some(), "recently used survives");
        assert!(c.get(fp(2)).is_none(), "LRU evicted");
        assert!(c.get(fp(3)).is_some());
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn oversized_value_is_not_stored() {
        let mut c = ResultCache::new(4);
        c.insert(fp(1), vec![0; 5]);
        assert!(c.is_empty());
        assert_eq!(c.bytes(), 0);
    }

    #[test]
    fn reinsert_replaces_bytes() {
        let mut c = ResultCache::new(100);
        c.insert(fp(1), vec![0; 10]);
        c.insert(fp(1), vec![1; 3]);
        assert_eq!(c.len(), 1);
        assert_eq!(c.bytes(), 3);
        assert_eq!(c.get(fp(1)).unwrap(), vec![1; 3]);
    }

    /// The cache's live entries in LRU order (oldest first).
    fn lru_order(c: &ResultCache) -> Vec<u128> {
        c.recency.values().copied().collect()
    }

    fn temp_path(tag: &str) -> (PathBuf, PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("wave-serve-cache-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.ndjson");
        let _ = std::fs::remove_file(&path);
        (dir, path)
    }

    fn cleanup(dir: &Path, path: &Path) {
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(path.with_extension("ndjson.tmp"));
        let _ = std::fs::remove_file(generation_path(path));
        let _ = std::fs::remove_file(generation_path(path).with_extension("gen.tmp"));
        let _ = std::fs::remove_dir(dir);
    }

    #[test]
    fn reload_reproduces_state_after_evictions_and_refreshes() {
        let (dir, path) = temp_path("reload");
        // Values must be *canonical* JSON (the journal splices them
        // verbatim and a reload re-encodes the parse).
        let val = |n: usize| format!("{{\"v\":{}}}", 1000 + n).into_bytes(); // 10 bytes
        let state = {
            let mut c = ResultCache::new(35).with_persistence(path.clone());
            for i in 0..3 {
                c.insert(fp(i), val(i as usize));
            }
            // Refresh 0 so 1 becomes the LRU victim of the next insert.
            assert!(c.get(fp(0)).is_some());
            c.insert(fp(3), val(3));
            assert!(c.get(fp(1)).is_none(), "1 was evicted");
            // Refresh 2 via reinsert (same bytes).
            c.insert(fp(2), val(2));
            (lru_order(&c), c.bytes())
        };
        let c2 = ResultCache::new(35).with_persistence(path.clone());
        assert_eq!(lru_order(&c2), state.0, "reload must rebuild LRU order");
        assert_eq!(c2.bytes(), state.1);
        assert!(
            c2.map.keys().all(|k| state.0.contains(k)),
            "no dead entries reloaded"
        );
        cleanup(&dir, &path);
    }

    #[test]
    fn journal_growth_is_bounded_by_compaction() {
        let (dir, path) = temp_path("bound");
        let budget = 1024usize;
        let mut c = ResultCache::new(budget).with_persistence(path.clone());
        // Churn: refreshes and evictions would previously append forever.
        for round in 0..200u128 {
            let body = format!("{{\"r\":\"{round:0>90}\"}}"); // 98 bytes, canonical
            c.insert(fp(round % 5), body.into_bytes());
        }
        assert!(c.compactions() > 0, "churn must have triggered compaction");
        let disk = std::fs::metadata(&path).unwrap().len() as usize;
        assert_eq!(disk, c.journal_bytes(), "tracked size matches the file");
        // One appended line can overshoot the bound before the rewrite
        // notices; allow that one line of slack.
        assert!(
            disk <= budget * 4 + 256,
            "journal {disk}B exceeds compaction bound"
        );
        // And the compacted journal still reproduces the state.
        let c2 = ResultCache::new(budget).with_persistence(path.clone());
        assert_eq!(lru_order(&c2), lru_order(&c));
        cleanup(&dir, &path);
    }

    #[test]
    fn property_budget_never_exceeded_and_lru_survives_refresh() {
        use wave_rng::{Rng, SplitMix64};
        let mut rng = SplitMix64::seed_from_u64(0x5eed_cafe);
        for case in 0..50u64 {
            let budget = rng.gen_range(16usize..80);
            let mut c = ResultCache::new(budget);
            // Shadow model: LRU order as a vector of (fp, len).
            let mut model: Vec<(u128, usize)> = Vec::new();
            let mut last_key: u128 = 0;
            for _ in 0..200 {
                // Bias towards the previous key so same-fingerprint
                // reinserts with different-length bytes (the accounting
                // path that subtracts the old entry before adding the
                // new) are exercised back to back, not just by chance.
                let key = if rng.gen_bool(0.25) {
                    last_key
                } else {
                    rng.gen_range(0u64..12) as u128
                };
                last_key = key;
                if rng.gen_bool(0.3) {
                    // A get refreshes recency iff present.
                    let hit = c.get(fp(key)).is_some();
                    let pos = model.iter().position(|(k, _)| *k == key);
                    assert_eq!(hit, pos.is_some(), "case {case}: model divergence");
                    if let Some(p) = pos {
                        let e = model.remove(p);
                        model.push(e);
                    }
                } else {
                    let len = rng.gen_range(0usize..budget + 8);
                    c.insert(fp(key), vec![0; len]);
                    // Oversized values are rejected outright (the existing
                    // entry, if any, survives untouched).
                    if len <= budget {
                        if let Some(p) = model.iter().position(|(k, _)| *k == key) {
                            model.remove(p);
                        }
                        model.push((key, len));
                        let mut total: usize = model.iter().map(|(_, l)| l).sum();
                        while total > budget {
                            let (_, l) = model.remove(0);
                            total -= l;
                        }
                    }
                }
                assert!(
                    c.bytes() <= budget,
                    "case {case}: {} bytes over budget {budget}",
                    c.bytes()
                );
                assert_eq!(
                    c.bytes(),
                    model.iter().map(|(_, l)| *l).sum::<usize>(),
                    "case {case}: byte accounting drifted from the model"
                );
                assert_eq!(
                    lru_order(&c),
                    model.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
                    "case {case}: LRU order corrupted"
                );
            }
        }
    }

    #[test]
    fn persistence_round_trips_across_instances() {
        let (dir, path) = temp_path("roundtrip");
        let payload = br#"{"verdict":{"kind":"holds","explored":3},"stats":{}}"#.to_vec();
        {
            let mut c = ResultCache::new(4096).with_persistence(path.clone());
            c.insert(fp(0xabc), payload.clone());
            c.insert(fp(0xdef), b"{}".to_vec());
        }
        let mut c2 = ResultCache::new(4096).with_persistence(path.clone());
        assert_eq!(c2.recovered_records(), 2);
        assert_eq!(c2.dropped_records(), 0);
        assert_eq!(c2.get(fp(0xabc)).unwrap(), payload);
        assert_eq!(c2.get(fp(0xdef)).unwrap(), b"{}".to_vec());
        // Corrupt journal lines are skipped and counted, not fatal.
        std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .and_then(|mut f| writeln!(f, "not json at all"))
            .unwrap();
        let c3 = ResultCache::new(4096).with_persistence(path.clone());
        assert_eq!(c3.len(), 2);
        assert_eq!(c3.recovered_records(), 2);
        assert_eq!(c3.dropped_records(), 1);
        cleanup(&dir, &path);
    }

    #[test]
    fn unframed_journal_lines_are_dropped() {
        let (dir, path) = temp_path("unframed");
        let record = format!(
            "{{\"fingerprint\":\"{}\",\"outcome\":{{\"v\":7}}}}",
            Fingerprint(0x77).to_hex()
        );
        let framed = persist_line(fp(0x78), b"{\"v\":8}");
        std::fs::write(&path, format!("{record}\n{framed}\n")).unwrap();
        let mut c = ResultCache::new(4096).with_persistence(path.clone());
        assert_eq!(c.recovered_records(), 1);
        assert_eq!(c.dropped_records(), 1);
        assert!(c.get(fp(0x77)).is_none(), "no frame, no entry");
        assert_eq!(c.get(fp(0x78)).unwrap(), b"{\"v\":8}".to_vec());
        cleanup(&dir, &path);
    }

    #[test]
    fn torn_final_line_is_dropped_and_the_rest_recovered() {
        let (dir, path) = temp_path("torn");
        {
            let mut c = ResultCache::new(4096).with_persistence(path.clone());
            c.insert(fp(1), b"{\"v\":1}".to_vec());
            c.insert(fp(2), b"{\"v\":2}".to_vec());
        }
        // Tear the last line mid-record, as a crash during append would.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(bytes.len() - 9);
        std::fs::write(&path, &bytes).unwrap();
        let mut c = ResultCache::new(4096).with_persistence(path.clone());
        assert_eq!(c.recovered_records(), 1);
        assert_eq!(c.dropped_records(), 1);
        assert_eq!(c.get(fp(1)).unwrap(), b"{\"v\":1}".to_vec());
        assert!(c.get(fp(2)).is_none(), "torn record must vanish, not lie");
        cleanup(&dir, &path);
    }

    /// A plane that tears exactly the `n`-th journal append (1-based)
    /// after `keep` bytes; every other hook is clean.
    struct TearNthAppend {
        n: u64,
        keep: usize,
        count: std::sync::Mutex<u64>,
    }
    impl crate::faults::FaultInjector for TearNthAppend {
        fn decide(&self, hook: Hook, _len: usize) -> Fault {
            if hook != Hook::JournalAppend {
                return Fault::None;
            }
            let mut c = self.count.lock().unwrap();
            *c += 1;
            if *c == self.n {
                Fault::Torn { keep: self.keep }
            } else {
                Fault::None
            }
        }
    }

    #[test]
    fn injected_torn_append_cannot_corrupt_neighbouring_records() {
        let (dir, path) = temp_path("tearhook");
        {
            // Entry 2's append is torn after 20 bytes (no newline), so
            // entry 3's line lands glued onto the fragment.
            let plane = Faults::new(Arc::new(TearNthAppend {
                n: 2,
                keep: 20,
                count: std::sync::Mutex::new(0),
            }));
            let mut c = ResultCache::new(4096)
                .with_faults(plane)
                .with_persistence(path.clone());
            c.insert(fp(1), b"{\"v\":1}".to_vec());
            c.insert(fp(2), b"{\"v\":2}".to_vec());
            c.insert(fp(3), b"{\"v\":3}".to_vec());
        }
        let mut c = ResultCache::new(4096).with_persistence(path.clone());
        // The fragment merged with entry 3's line fails the frame check:
        // both damaged records vanish; nothing loads altered bytes.
        assert_eq!(c.get(fp(1)).unwrap(), b"{\"v\":1}".to_vec());
        assert!(c.get(fp(2)).is_none(), "the torn record is gone, not wrong");
        assert!(
            c.get(fp(3)).is_none(),
            "the glued record is gone, not wrong"
        );
        assert_eq!(c.recovered_records(), 1);
        assert_eq!(c.dropped_records(), 1, "one merged damaged line");
        cleanup(&dir, &path);
    }
}
