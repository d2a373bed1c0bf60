//! Journal shipping: replicating completed results across the fleet.
//!
//! Every node persists its completed verifications as CRC-framed NDJSON
//! journal lines (see `wave_serve::cache`). The shipper tails each
//! node's journal by byte offset and ships new **complete** lines to
//! the node's [`SHIP_FANOUT`] **successors** — the next members in
//! ascending id order, wrapping round — over the wire protocol's
//! `replicate` command, in batches that each fit the server's
//! request-line cap (a journal tail can be many times that long).
//! Receivers re-validate every frame (CRC, canonical re-encode,
//! cacheable verdict) and skip byte-identical records, so shipping is
//! idempotent: re-sending a window, crossing a compaction, or racing a
//! concurrent writer can duplicate work but never corrupt a cache.
//!
//! Successor shipping replaces the original all-pairs fan-out (O(n²)
//! connections per tick) with O(n·R). Replication still converges
//! fleet-wide because the pieces compose into gossip: successor sets
//! are a pure function of the member set, the R=1 successor relation
//! is a single cycle over the members in id order (see
//! [`Ring::successors`](crate::ring::Ring::successors)), and a receiver
//! **re-journals** what it installs (`apply_replicated` persists to the
//! receiver's own journal) — so a record hops successor-to-successor
//! around the cycle, one tick per hop, until every member holds it.
//! Shipping is independent of request placement: every member ends up
//! holding every record, whoever owns it.
//!
//! Cursors (journal generation + byte offset, see
//! [`JournalCursor`]) are tracked per
//! `(source, peer)` pair and only advance past the batches that peer
//! acknowledged, so a peer that misses a round (drop fault, dead socket)
//! catches up on the next tick instead of silently losing the window.
//! The generation stamp — bumped by every journal compaction, read from
//! the `.gen` sidecar next to the journal — is what makes resuming
//! sound: a compaction rewrites the file, so a stale byte offset points
//! into different content, and when later appends regrow the file past
//! the old offset a length check alone would resume mid-stream and
//! silently skip every record between the rewrite start and the stale
//! offset. A generation mismatch restarts at byte 0 instead; the
//! receiver skips byte-identical records, so over-shipping is free.

use std::collections::HashMap;
use std::fs;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use wave_serve::cache::{read_generation, JournalCursor};
use wave_serve::client::{replicate_batches, TcpClient};
use wave_serve::faults::{Fault, Faults, Hook};

use crate::router::Router;

/// Successors each node ships its journal to per tick. R=2 means
/// one failure never strands a record: the other successor already has
/// it (or receives it next tick) and gossips it onward.
pub const SHIP_FANOUT: usize = 2;

/// Reads the complete (newline-terminated) journal lines at or after
/// the cursor, returning them with the cursor just past the last
/// complete line. The cursor restarts at byte 0 when the journal's
/// generation stamp (the `.gen` sidecar) no longer matches — a
/// compaction rewrote the file, whatever its current length — or, for
/// journals without a sidecar, when the file is shorter than the
/// offset. Partial trailing lines — a writer mid-append, or a crash
/// mid-write — are left for the next call.
pub fn tail_lines(path: &Path, cursor: JournalCursor) -> (Vec<String>, JournalCursor) {
    let (lines, _, next) = tail_with_ends(path, cursor);
    (lines, next)
}

/// [`tail_lines`], plus the byte offset just past each returned line,
/// so a caller that ships only a prefix of the lines can resume after
/// it.
fn tail_with_ends(path: &Path, cursor: JournalCursor) -> (Vec<String>, Vec<usize>, JournalCursor) {
    let Ok(bytes) = fs::read(path) else {
        return (Vec::new(), Vec::new(), cursor);
    };
    let generation = read_generation(path);
    let stale = cursor.generation != generation || cursor.offset > bytes.len();
    let from = if stale { 0 } else { cursor.offset };
    let mut lines = Vec::new();
    let mut ends = Vec::new();
    let mut at = from;
    let mut line_start = from;
    while at < bytes.len() {
        if bytes[at] == b'\n' {
            let raw = &bytes[line_start..at];
            let raw = raw.strip_suffix(b"\r").unwrap_or(raw);
            if !raw.is_empty() {
                if let Ok(s) = std::str::from_utf8(raw) {
                    lines.push(s.to_string());
                    ends.push(at + 1);
                }
            }
            line_start = at + 1;
        }
        at += 1;
    }
    (
        lines,
        ends,
        JournalCursor {
            generation,
            offset: line_start,
        },
    )
}

/// A background replication pump over a router's node set.
pub struct Shipper {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
    shipped: Arc<AtomicU64>,
}

impl Shipper {
    /// Starts shipping every node's journal to its [`SHIP_FANOUT`]
    /// successors, once per `interval`. Faults at [`Hook::FleetShip`]
    /// drop or delay individual ship rounds.
    pub fn start(router: Arc<Router>, faults: Faults, interval: Duration) -> Shipper {
        let stop = Arc::new(AtomicBool::new(false));
        let shipped = Arc::new(AtomicU64::new(0));
        let stop2 = Arc::clone(&stop);
        let shipped2 = Arc::clone(&shipped);
        let handle = std::thread::Builder::new()
            .name("fleet-shipper".into())
            .spawn(move || {
                // Cursor per (source node, peer node): a peer only
                // advances past bytes it has acknowledged.
                let mut offsets: HashMap<(u32, u32), JournalCursor> = HashMap::new();
                while !stop2.load(Ordering::Relaxed) {
                    Shipper::tick(&router, &faults, &mut offsets, &shipped2);
                    std::thread::sleep(interval);
                }
            })
            .expect("spawn fleet-shipper");
        Shipper {
            stop,
            handle: Some(handle),
            shipped,
        }
    }

    /// Journal lines successfully shipped (summed over peers).
    pub fn shipped(&self) -> u64 {
        self.shipped.load(Ordering::Relaxed)
    }

    fn tick(
        router: &Router,
        faults: &Faults,
        offsets: &mut HashMap<(u32, u32), JournalCursor>,
        shipped: &AtomicU64,
    ) {
        let nodes = router.nodes();
        for source in &nodes {
            let Some(journal) = &source.journal else {
                continue;
            };
            for peer in router.successors_of(source.id, SHIP_FANOUT) {
                let key = (source.id, peer.id);
                let from = offsets.get(&key).copied().unwrap_or_default();
                let (lines, ends, next) = tail_with_ends(journal, from);
                if lines.is_empty() {
                    offsets.insert(key, next);
                    continue;
                }
                let payload: usize = lines.iter().map(String::len).sum();
                match faults.decide(Hook::FleetShip, payload) {
                    Fault::Delay(d) => std::thread::sleep(d),
                    // Dropped round: offset stays put, next tick
                    // re-ships the same window (idempotent receiver).
                    Fault::Drop => continue,
                    _ => {}
                }
                let Ok(mut c) = TcpClient::connect_timeout(peer.addr, Duration::from_secs(10))
                else {
                    continue;
                };
                // One request per batch; the cursor moves past each batch
                // the peer acknowledges, so a failure mid-window resends
                // only the rest.
                let mut acked = 0;
                for batch in replicate_batches(&lines) {
                    if c.replicate(batch).is_err() {
                        break;
                    }
                    acked += batch.len();
                    shipped.fetch_add(batch.len() as u64, Ordering::Relaxed);
                }
                if acked == lines.len() {
                    offsets.insert(key, next);
                } else if acked > 0 {
                    let offset = ends[acked - 1];
                    offsets.insert(key, JournalCursor { offset, ..next });
                }
            }
        }
    }
}

impl Drop for Shipper {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_returns_only_complete_lines_and_resumes() {
        let dir = std::env::temp_dir().join(format!("wave-fleet-tail-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.ndjson");

        fs::write(&path, "alpha\nbeta\npartial").unwrap();
        let (lines, cur) = tail_lines(&path, JournalCursor::default());
        assert_eq!(lines, vec!["alpha".to_string(), "beta".to_string()]);
        assert_eq!(cur.offset, "alpha\nbeta\n".len());

        // The partial line completes, plus one more full line appears.
        fs::write(&path, "alpha\nbeta\npartial-done\r\ngamma\n").unwrap();
        let (lines, cur2) = tail_lines(&path, cur);
        assert_eq!(
            lines,
            vec!["partial-done".to_string(), "gamma".to_string()],
            "CR must be stripped, resume must not re-read old lines"
        );
        assert_eq!(cur2.offset, "alpha\nbeta\npartial-done\r\ngamma\n".len());

        // Compaction shrinks the file below our offset: restart at 0.
        fs::write(&path, "small\n").unwrap();
        let (lines, cur3) = tail_lines(&path, cur2);
        assert_eq!(lines, vec!["small".to_string()]);
        assert_eq!(cur3.offset, "small\n".len());

        // Missing file: no lines, cursor preserved.
        let absent = JournalCursor {
            generation: 0,
            offset: 17,
        };
        let (lines, cur4) = tail_lines(&dir.join("absent"), absent);
        assert!(lines.is_empty());
        assert_eq!(cur4, absent);

        let _ = fs::remove_dir_all(&dir);
    }

    /// The replication-gap regression: a compaction shrinks the journal,
    /// later appends regrow it PAST a shipper's stale offset, and the
    /// length-only staleness check would resume mid-stream — silently
    /// skipping every record between the rewrite start and the stale
    /// offset. The generation stamp must force a restart so zero records
    /// are skipped.
    #[test]
    fn compact_then_regrow_ships_every_record() {
        use std::collections::HashSet;
        use wave_logic::fingerprint::Fingerprint;
        use wave_serve::cache::{decode_journal_line, ResultCache};

        let dir = std::env::temp_dir().join(format!("wave-fleet-regrow-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("node-0.ndjson");
        let _ = fs::remove_file(&path);

        let val = |n: usize| format!("{{\"v\":{}}}", 1000 + n).into_bytes();
        let mut cache = ResultCache::new(64 * 1024).with_persistence(path.clone());

        // Round 1: insert and refresh (the refresh lines are dead
        // duplicates that the next compaction will drop).
        for i in 0..6u128 {
            cache.insert(Fingerprint(i), val(i as usize));
        }
        for i in 0..6u128 {
            cache.insert(Fingerprint(i), val(i as usize));
        }
        let mut shipped: HashSet<u128> = HashSet::new();
        let (lines, cursor) = tail_lines(&path, JournalCursor::default());
        shipped.extend(
            lines
                .iter()
                .filter_map(|l| decode_journal_line(l))
                .map(|(fp, _)| fp.0),
        );

        // Compaction drops the dead lines: the file shrinks below the
        // shipper's offset...
        cache.compact_now();
        let shrunk = fs::metadata(&path).unwrap().len() as usize;
        assert!(
            shrunk < cursor.offset,
            "compaction must shrink below the stale offset ({shrunk} vs {})",
            cursor.offset
        );
        // ...and fresh inserts regrow it past the stale offset, the
        // exact shape a length check cannot distinguish from "nothing
        // happened".
        for i in 6..20u128 {
            cache.insert(Fingerprint(i), val(i as usize));
        }
        assert!(
            fs::metadata(&path).unwrap().len() as usize > cursor.offset,
            "appends must regrow the journal past the stale offset"
        );

        let (lines, cursor2) = tail_lines(&path, cursor);
        shipped.extend(
            lines
                .iter()
                .filter_map(|l| decode_journal_line(l))
                .map(|(fp, _)| fp.0),
        );
        for i in 0..20u128 {
            assert!(shipped.contains(&i), "record {i} was silently skipped");
        }
        assert!(
            cursor2.generation > cursor.generation,
            "compaction must be visible to the tailer as a generation bump"
        );
        // Steady state: a repeat tail from the fresh cursor ships nothing.
        let (lines, _) = tail_lines(&path, cursor2);
        assert!(lines.is_empty(), "no re-shipping once caught up");

        let _ = fs::remove_dir_all(&dir);
    }

    /// Writes a persisted journal of valid records with distinct
    /// fingerprints until it is twice the server's request-line cap, so
    /// shipping it whole in one `replicate` line would be refused.
    /// Returns the record count.
    fn journal_over_the_cap(path: &Path) -> u64 {
        use wave_logic::fingerprint::Fingerprint;
        use wave_serve::cache::ResultCache;
        use wave_serve::codec::{Mode, VerifyRequest};
        use wave_serve::engine::{Engine, EngineOptions};
        use wave_serve::server::MAX_LINE_BYTES;

        let reply = Engine::new(EngineOptions::default())
            .submit(&VerifyRequest {
                service: "toggle".into(),
                property: "G (P | Q)".into(),
                mode: Mode::Ltl,
                node_limit: 0,
                threads: 1,
                deadline_us: 0,
                check_owner: false,
            })
            .expect("verify");
        let _ = fs::remove_file(path);
        let mut cache = ResultCache::new(1 << 30).with_persistence(path.to_path_buf());
        let mut n = 0u64;
        while cache.journal_bytes() < 2 * MAX_LINE_BYTES {
            n += 1;
            cache.insert(Fingerprint(n as u128), reply.outcome_bytes.clone());
        }
        n
    }

    /// A live node whose engine keeps its cache in memory only.
    fn spawn_node() -> (std::net::SocketAddr, Arc<wave_serve::engine::Engine>) {
        use wave_serve::engine::{Engine, EngineOptions};
        use wave_serve::server::Server;

        let engine = Arc::new(Engine::new(EngineOptions {
            cache_bytes: 1 << 30,
            ..EngineOptions::default()
        }));
        let server = Server::bind("127.0.0.1:0", Arc::clone(&engine)).expect("bind");
        let addr = server.local_addr().expect("local addr");
        std::thread::spawn(move || server.run());
        (addr, engine)
    }

    /// Replication used to send a whole journal tail as one request
    /// line; past the server's line cap the peer refused it, and the
    /// cursor never moved again.
    #[test]
    fn a_journal_over_the_line_cap_ships_in_one_tick() {
        use crate::router::{NodeHandle, Router};

        let dir = std::env::temp_dir().join(format!("wave-fleet-bigtick-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("node-0.ndjson");
        let n = journal_over_the_cap(&path);
        let (source_addr, _) = spawn_node();
        let (peer_addr, peer) = spawn_node();
        let router = Router::new(
            vec![
                NodeHandle {
                    id: 0,
                    addr: source_addr,
                    journal: Some(path.clone()),
                },
                NodeHandle {
                    id: 1,
                    addr: peer_addr,
                    journal: None,
                },
            ],
            Faults::none(),
        );
        let mut offsets = HashMap::new();
        let shipped = AtomicU64::new(0);
        Shipper::tick(&router, &Faults::none(), &mut offsets, &shipped);
        let applied = || peer.counters.replicated_applied.load(Ordering::Relaxed);
        assert_eq!(applied(), n, "every record is applied");
        assert_eq!(shipped.load(Ordering::Relaxed), n);
        assert_eq!(
            offsets[&(0, 1)].offset as u64,
            fs::metadata(&path).unwrap().len(),
            "the cursor reaches the end of the journal"
        );

        // Caught up: the next tick ships nothing.
        Shipper::tick(&router, &Faults::none(), &mut offsets, &shipped);
        assert_eq!(shipped.load(Ordering::Relaxed), n);
        let c = &peer.counters;
        assert_eq!(c.replicated_refreshed.load(Ordering::Relaxed), 0);
        assert_eq!(c.replicated_dropped.load(Ordering::Relaxed), 0);

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_rejoin_replays_a_journal_over_the_line_cap() {
        use crate::router::{NodeHandle, Router};

        let dir = std::env::temp_dir().join(format!("wave-fleet-bigjoin-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("node-0.ndjson");
        let n = journal_over_the_cap(&path);
        let (source_addr, _) = spawn_node();
        let (joiner_addr, joiner) = spawn_node();
        let router = Router::new(
            vec![NodeHandle {
                id: 0,
                addr: source_addr,
                journal: Some(path.clone()),
            }],
            Faults::none(),
        );
        router.join(NodeHandle {
            id: 1,
            addr: joiner_addr,
            journal: None,
        });
        let c = &joiner.counters;
        assert_eq!(c.replicated_applied.load(Ordering::Relaxed), n);
        assert_eq!(c.replicated_dropped.load(Ordering::Relaxed), 0);
        assert_eq!(router.counters.replayed_records.load(Ordering::Relaxed), n);

        let _ = fs::remove_dir_all(&dir);
    }
}
