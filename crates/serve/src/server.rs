//! The TCP wire layer: newline-delimited JSON over `std::net`.
//!
//! One connection = one line-oriented session: each request line gets
//! exactly one response line, in order. Connections are handled on
//! dedicated threads (cheap — the heavy lifting is bounded by the
//! engine's worker pool, not by connection count), so a slow client
//! cannot stall another client's session.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use crate::codec::Request;
use crate::engine::Engine;
use crate::faults::{Fault, Hook};
use crate::json::Json;
use crate::registry;

/// Longest request line a connection accepts, newline excluded. A
/// single verify request stays orders of magnitude below it; a
/// `replicate` request carries a batch of journal records, and senders
/// split a journal tail into batches that fit
/// ([`replicate_batches`](crate::client::replicate_batches)). A longer
/// line gets a typed `line_too_long` refusal and the connection closes.
pub const MAX_LINE_BYTES: usize = 4 << 20;

/// After refusing an oversized line the server discards at most this
/// much more of it, waiting at most [`DRAIN_TIMEOUT`] per read, before it
/// closes: closing with unread input would reset the connection and
/// could destroy the refusal before the client reads it.
const DRAIN_BYTES: u64 = 64 << 20;
const DRAIN_TIMEOUT: Duration = Duration::from_secs(1);

/// Computes the single response line (no trailing newline) for one
/// request line. Shared by the TCP server and the in-process client, so
/// both speak byte-identical protocol.
pub fn handle_line(engine: &Engine, line: &str) -> String {
    match Request::decode(line) {
        Err(e) => error_line(&e.to_string()),
        Ok(Request::Drain { deadline_ms }) => {
            engine.begin_drain();
            let drained = engine.await_idle(Duration::from_millis(deadline_ms));
            Json::Obj(vec![
                ("ok".into(), Json::Bool(true)),
                ("drained".into(), Json::Bool(drained)),
                ("in_flight".into(), Json::Int(engine.in_flight() as i64)),
            ])
            .encode()
        }
        Ok(Request::Health) => {
            // Deliberately cheap: three gauges, no scheduler or registry
            // work, so the heartbeat plane can probe a node drowning in
            // verifications and still get an answer inside its timeout.
            let (journal_bytes, ..) = engine.journal_stats();
            Json::Obj(vec![
                ("ok".into(), Json::Bool(true)),
                ("shard".into(), Json::Int(engine.shard() as i64)),
                ("journal_bytes".into(), Json::Int(journal_bytes as i64)),
                (
                    "generation".into(),
                    Json::Int(engine.journal_generation() as i64),
                ),
            ])
            .encode()
        }
        Ok(Request::Stats) => {
            let (entries, bytes, budget, evictions) = engine.cache_usage();
            let (journal_bytes, compactions, recovered, dropped, persistent) =
                engine.journal_stats();
            let c = &engine.counters;
            Json::Obj(vec![
                ("ok".into(), Json::Bool(true)),
                (
                    "stats".into(),
                    Json::Obj(vec![
                        ("workers".into(), Json::Int(engine.workers() as i64)),
                        ("shard".into(), Json::Int(engine.shard() as i64)),
                        (
                            "submitted".into(),
                            Json::Int(c.submitted.load(Ordering::Relaxed) as i64),
                        ),
                        (
                            "cache_hits".into(),
                            Json::Int(c.cache_hits.load(Ordering::Relaxed) as i64),
                        ),
                        (
                            "cache_misses".into(),
                            Json::Int(c.cache_misses.load(Ordering::Relaxed) as i64),
                        ),
                        (
                            "cancelled".into(),
                            Json::Int(c.cancelled.load(Ordering::Relaxed) as i64),
                        ),
                        (
                            "queue_rejections".into(),
                            Json::Int(c.queue_rejections.load(Ordering::Relaxed) as i64),
                        ),
                        (
                            "admission_rejections".into(),
                            Json::Int(c.admission_rejections.load(Ordering::Relaxed) as i64),
                        ),
                        (
                            "dead_on_arrival".into(),
                            Json::Int(c.dead_on_arrival.load(Ordering::Relaxed) as i64),
                        ),
                        (
                            "worker_panics".into(),
                            Json::Int(c.worker_panics.load(Ordering::Relaxed) as i64),
                        ),
                        (
                            "quarantined".into(),
                            Json::Int(c.quarantined.load(Ordering::Relaxed) as i64),
                        ),
                        (
                            "drain_rejections".into(),
                            Json::Int(c.drain_rejections.load(Ordering::Relaxed) as i64),
                        ),
                        (
                            "load_shed".into(),
                            Json::Int(c.load_shed.load(Ordering::Relaxed) as i64),
                        ),
                        (
                            "coalesced".into(),
                            Json::Int(c.coalesced.load(Ordering::Relaxed) as i64),
                        ),
                        (
                            "replicated_applied".into(),
                            Json::Int(c.replicated_applied.load(Ordering::Relaxed) as i64),
                        ),
                        (
                            "replicated_refreshed".into(),
                            Json::Int(c.replicated_refreshed.load(Ordering::Relaxed) as i64),
                        ),
                        (
                            "replicated_dropped".into(),
                            Json::Int(c.replicated_dropped.load(Ordering::Relaxed) as i64),
                        ),
                        (
                            "sliced_rules_total".into(),
                            Json::Int(c.sliced_rules_total.load(Ordering::Relaxed) as i64),
                        ),
                        (
                            "sliced_relations_total".into(),
                            Json::Int(c.sliced_relations_total.load(Ordering::Relaxed) as i64),
                        ),
                        (
                            "incremental_hits".into(),
                            Json::Int(c.incremental_hits.load(Ordering::Relaxed) as i64),
                        ),
                        (
                            "incremental_misses".into(),
                            Json::Int(c.incremental_misses.load(Ordering::Relaxed) as i64),
                        ),
                        (
                            "automaton_hits".into(),
                            Json::Int(engine.tiers().automaton_hits() as i64),
                        ),
                        (
                            "automaton_misses".into(),
                            Json::Int(engine.tiers().automaton_misses() as i64),
                        ),
                        ("draining".into(), Json::Bool(engine.is_draining())),
                        ("in_flight".into(), Json::Int(engine.in_flight() as i64)),
                        ("queued".into(), Json::Int(engine.queued() as i64)),
                        ("running".into(), Json::Int(engine.running() as i64)),
                        ("cache_entries".into(), Json::Int(entries as i64)),
                        ("cache_bytes".into(), Json::Int(bytes as i64)),
                        ("cache_budget".into(), Json::Int(budget as i64)),
                        ("cache_evictions".into(), Json::Int(evictions as i64)),
                        ("journal_bytes".into(), Json::Int(journal_bytes as i64)),
                        ("journal_compactions".into(), Json::Int(compactions as i64)),
                        ("journal_recovered".into(), Json::Int(recovered as i64)),
                        ("journal_dropped".into(), Json::Int(dropped as i64)),
                        ("persistent".into(), Json::Bool(persistent)),
                        (
                            "services".into(),
                            Json::Arr(registry::names().iter().map(|n| Json::str(*n)).collect()),
                        ),
                    ]),
                ),
            ])
            .encode()
        }
        Ok(Request::Replicate { lines }) => {
            // Validate every shipped frame with the same CRC check that
            // guards the local journal: a corrupted line is dropped and
            // counted, never installed.
            let (mut applied, mut refreshed, mut dropped) = (0i64, 0i64, 0i64);
            for line in &lines {
                match crate::cache::decode_journal_line(line) {
                    None => {
                        engine
                            .counters
                            .replicated_dropped
                            .fetch_add(1, Ordering::Relaxed);
                        dropped += 1;
                    }
                    Some((fp, bytes)) => match engine.apply_replicated(fp, &bytes) {
                        Ok(true) => applied += 1,
                        Ok(false) => refreshed += 1,
                        Err(_) => dropped += 1,
                    },
                }
            }
            Json::Obj(vec![
                ("ok".into(), Json::Bool(true)),
                ("applied".into(), Json::Int(applied)),
                ("refreshed".into(), Json::Int(refreshed)),
                ("dropped".into(), Json::Int(dropped)),
            ])
            .encode()
        }
        Ok(Request::Verify(req)) => match engine.submit(&req) {
            // An admission refusal carries the whole lint report, so the
            // client sees the span-level blame, not just a one-liner.
            Err(e @ crate::engine::SubmitError::NotAdmissible { .. }) => {
                let crate::engine::SubmitError::NotAdmissible {
                    class, report_json, ..
                } = &e
                else {
                    unreachable!()
                };
                format!(
                    "{{\"ok\":false,\"error\":{},\"class\":\"{}\",\"lint\":{}}}",
                    Json::str(e.to_string()).encode(),
                    class.wire_name(),
                    report_json,
                )
            }
            // Flow-control refusals are kind-tagged so clients can react
            // mechanically (back off, migrate) without parsing prose.
            Err(e @ crate::engine::SubmitError::Draining) => Json::Obj(vec![
                ("ok".into(), Json::Bool(false)),
                ("error".into(), Json::str(e.to_string())),
                ("kind".into(), Json::str("draining")),
            ])
            .encode(),
            Err(e @ crate::engine::SubmitError::Overloaded { .. }) => {
                let crate::engine::SubmitError::Overloaded { retry_after_ms } = e else {
                    unreachable!()
                };
                Json::Obj(vec![
                    ("ok".into(), Json::Bool(false)),
                    (
                        "error".into(),
                        Json::str(format!("overloaded: retry after {retry_after_ms} ms")),
                    ),
                    ("kind".into(), Json::str("retry_after")),
                    ("retry_after_ms".into(), Json::Int(retry_after_ms as i64)),
                ])
                .encode()
            }
            Err(e @ crate::engine::SubmitError::QueueFull) => Json::Obj(vec![
                ("ok".into(), Json::Bool(false)),
                ("error".into(), Json::str(e.to_string())),
                ("kind".into(), Json::str("queue_full")),
            ])
            .encode(),
            Err(e) => error_line(&e.to_string()),
            Ok(res) => {
                // Splice the cached outcome bytes in verbatim: the
                // response envelope carries `cache_hit` and `class`, the
                // outcome object itself stays byte-identical hit vs. miss.
                let outcome =
                    String::from_utf8(res.outcome_bytes).expect("outcome bytes are canonical JSON");
                format!(
                    "{{\"ok\":true,\"fingerprint\":\"{}\",\"cache_hit\":{},\"incremental\":{},\
                     \"class\":\"{}\",\"shard\":{},\"coalesced_waiters\":{},\"outcome\":{}}}",
                    res.fingerprint.to_hex(),
                    res.cache_hit,
                    res.incremental,
                    res.class.wire_name(),
                    res.shard,
                    res.coalesced_waiters,
                    outcome,
                )
            }
        },
    }
}

fn error_line(msg: &str) -> String {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(false)),
        ("error".into(), Json::str(msg)),
    ])
    .encode()
}

/// A running TCP server bound to a local address.
pub struct Server {
    listener: TcpListener,
    engine: Arc<Engine>,
}

impl Server {
    /// Binds to `addr` (use port 0 for an ephemeral port).
    pub fn bind(addr: impl ToSocketAddrs, engine: Arc<Engine>) -> std::io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            engine,
        })
    }

    /// The bound address (the actual port when bound ephemerally).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Accept loop: serves until the process exits. Each connection gets
    /// its own thread; per-connection I/O errors end that session only.
    pub fn run(self) -> std::io::Result<()> {
        for conn in self.listener.incoming() {
            let stream = match conn {
                Ok(s) => s,
                Err(_) => continue, // transient accept failure
            };
            let engine = Arc::clone(&self.engine);
            std::thread::Builder::new()
                .name("wave-serve-conn".into())
                .spawn(move || serve_connection(stream, &engine))
                .expect("spawn connection thread");
        }
        Ok(())
    }
}

/// Writes `line` and its newline in **one** `write_all`. Split into two
/// writes, the newline waits on a reused session: Nagle's algorithm
/// holds the small second segment until the peer ACKs the first, and
/// the peer delays that ACK by up to tens of milliseconds.
pub fn write_line(w: &mut impl Write, line: &str) -> std::io::Result<()> {
    let mut framed = Vec::with_capacity(line.len() + 1);
    framed.extend_from_slice(line.as_bytes());
    framed.push(b'\n');
    w.write_all(&framed)
}

fn serve_connection(stream: TcpStream, engine: &Engine) {
    // Replies are whole lines written at once; nothing is gained by
    // holding a segment back, and a pooled client session waits on it.
    let _ = stream.set_nodelay(true);
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let faults = engine.faults().clone();
    let mut buf = Vec::new();
    while let Some(line) = read_request_line(&mut reader, &mut writer, &mut buf) {
        if line.trim().is_empty() {
            continue;
        }
        // Read-side hook: chaos can stall the request or cut the
        // connection after it arrived — the client must observe a typed
        // timeout or EOF, never a wrong answer.
        match faults.decide(Hook::NetRead, line.len()) {
            Fault::Delay(d) => std::thread::sleep(d),
            Fault::Drop => return,
            _ => {}
        }
        let response = handle_line(engine, line);
        // Write-side hook: chaos can stall, cut, or tear the response.
        // A torn response is an incomplete line with the connection
        // closed — the client sees EOF/garbage, never a plausible but
        // wrong complete line (the protocol is newline-framed).
        match faults.decide(Hook::NetWrite, response.len()) {
            Fault::Delay(d) => std::thread::sleep(d),
            Fault::Drop => return,
            Fault::Torn { keep } => {
                let cut = keep.min(response.len());
                let _ = writer.write_all(&response.as_bytes()[..cut]);
                let _ = writer.flush();
                return;
            }
            _ => {}
        }
        if write_line(&mut writer, &response).is_err() {
            return;
        }
    }
}

/// Reads the next request line of a session into `buf`, which the
/// caller reuses for the whole session: a read never takes more than the
/// cap plus one byte, so no line can grow the buffer past that. The
/// newline (and a trailing `\r`) is stripped; the final line of a stream
/// may lack its newline.
///
/// `None` means the session is over: end of stream, a read error, a
/// line that is not UTF-8, or a line longer than [`MAX_LINE_BYTES`],
/// which is first answered on `writer` with a typed `line_too_long`
/// refusal.
pub fn read_request_line<'b>(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    buf: &'b mut Vec<u8>,
) -> Option<&'b str> {
    buf.clear();
    match reader
        .take(MAX_LINE_BYTES as u64 + 1)
        .read_until(b'\n', buf)
    {
        Ok(0) | Err(_) => return None,
        Ok(_) => {}
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if buf.len() > MAX_LINE_BYTES {
        refuse_long_line(reader, writer);
        return None;
    }
    std::str::from_utf8(buf).ok()
}

/// Answers an oversized request line with a typed refusal, then closes
/// the write side and discards the rest of the line (bounded in bytes
/// and time) so the client reads the refusal and a clean end of stream.
fn refuse_long_line(reader: &mut BufReader<TcpStream>, writer: &mut TcpStream) {
    let reply = Json::Obj(vec![
        ("ok".into(), Json::Bool(false)),
        ("kind".into(), Json::str("line_too_long")),
        (
            "error".into(),
            Json::str(format!(
                "request line exceeds {MAX_LINE_BYTES} bytes; closing the connection"
            )),
        ),
    ])
    .encode();
    if write_line(writer, &reply).is_err() {
        return;
    }
    let _ = writer.shutdown(Shutdown::Write);
    let _ = reader.get_ref().set_read_timeout(Some(DRAIN_TIMEOUT));
    let _ = reader.by_ref().take(DRAIN_BYTES).skip_until(b'\n');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineOptions;

    #[test]
    fn handle_line_speaks_the_protocol() {
        let e = Engine::new(EngineOptions::default());
        // Garbage line → structured error.
        let r = Json::parse(&handle_line(&e, "garbage")).unwrap();
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(false));
        // Stats before any work.
        let r = Json::parse(&handle_line(&e, r#"{"cmd":"stats"}"#)).unwrap();
        let stats = r.get("stats").unwrap();
        assert_eq!(stats.get("submitted").unwrap().as_int(), Some(0));
        assert!(stats.get("workers").unwrap().as_int().unwrap() >= 1);
        // A verify line.
        let line = r#"{"cmd":"verify","service":"toggle","property":"G (P | Q)"}"#;
        let r = Json::parse(&handle_line(&e, line)).unwrap();
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(r.get("cache_hit").unwrap().as_bool(), Some(false));
        assert_eq!(
            r.get("outcome")
                .unwrap()
                .get("verdict")
                .unwrap()
                .get("kind")
                .unwrap()
                .as_str(),
            Some("holds")
        );
        let fp = r.get("fingerprint").unwrap().as_str().unwrap();
        assert_eq!(fp.len(), 32);
        // Replay: same line, cache hit, same fingerprint.
        let r2 = Json::parse(&handle_line(&e, line)).unwrap();
        assert_eq!(r2.get("cache_hit").unwrap().as_bool(), Some(true));
        assert_eq!(r2.get("fingerprint").unwrap().as_str(), Some(fp));
        assert_eq!(r.get("outcome"), r2.get("outcome"));
        // The envelope names the decidable class admission found.
        assert_eq!(
            r.get("class").unwrap().as_str(),
            Some("fully_propositional")
        );
    }

    #[test]
    fn hostile_nesting_gets_an_error_line_not_an_abort() {
        let e = Engine::new(EngineOptions::default());
        let r = Json::parse(&handle_line(&e, &"[".repeat(100_000))).unwrap();
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(false));
        assert!(r
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("nesting"));
        // A nested request object is refused the same way.
        let line = format!(
            r#"{{"cmd":"verify","service":"toggle","property":"G P","x":{}}}"#,
            "[".repeat(200) + &"]".repeat(200)
        );
        let r = Json::parse(&handle_line(&e, &line)).unwrap();
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn stats_reply_exposes_journal_coalescing_and_scheduler_fields() {
        // Pins the wire names: `journal_compactions` and
        // `journal_dropped` (tracked internally long before they were
        // guaranteed on the wire), the coalescing/replication counters,
        // the scheduler gauges and the shard id.
        let e = Engine::new(EngineOptions {
            shard: 3,
            ..EngineOptions::default()
        });
        let r = Json::parse(&handle_line(&e, r#"{"cmd":"stats"}"#)).unwrap();
        let stats = r.get("stats").unwrap();
        for key in [
            "journal_compactions",
            "journal_dropped",
            "journal_recovered",
            "journal_bytes",
            "coalesced",
            "replicated_applied",
            "replicated_refreshed",
            "replicated_dropped",
            "sliced_rules_total",
            "sliced_relations_total",
            "incremental_hits",
            "incremental_misses",
            "automaton_hits",
            "automaton_misses",
            "queued",
            "running",
        ] {
            assert_eq!(
                stats.get(key).and_then(Json::as_int),
                Some(0),
                "stats must carry integer \"{key}\""
            );
        }
        assert_eq!(stats.get("shard").and_then(Json::as_int), Some(3));
    }

    #[test]
    fn health_reply_carries_shard_journal_and_generation() {
        let e = Engine::new(EngineOptions {
            shard: 1,
            ..EngineOptions::default()
        });
        let h = Json::parse(&handle_line(&e, r#"{"cmd":"health"}"#)).unwrap();
        assert_eq!(h.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(h.get("shard").unwrap().as_int(), Some(1));
        assert_eq!(h.get("journal_bytes").unwrap().as_int(), Some(0));
        assert!(h.get("generation").unwrap().as_int().is_some());
    }

    #[test]
    fn check_owner_is_accepted_and_ignored() {
        // Any node serves any request: the flag old self-routing
        // clients set neither refuses nor changes the answer.
        let e = Engine::new(EngineOptions {
            shard: 5,
            ..EngineOptions::default()
        });
        let plain = r#"{"cmd":"verify","service":"toggle","property":"G (P | Q)"}"#;
        let checked =
            r#"{"cmd":"verify","service":"toggle","property":"G (P | Q)","check_owner":true}"#;
        let a = Json::parse(&handle_line(&e, plain)).unwrap();
        let b = Json::parse(&handle_line(&e, checked)).unwrap();
        assert_eq!(b.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(b.get("cache_hit").unwrap().as_bool(), Some(true));
        assert_eq!(a.get("fingerprint"), b.get("fingerprint"));
        assert_eq!(a.get("outcome"), b.get("outcome"));
    }

    #[test]
    fn replicate_installs_valid_frames_and_drops_damaged_ones() {
        use crate::cache::persist_line;
        use wave_logic::fingerprint::Fingerprint;

        // Source engine: run one verification cold, export its journal
        // frame by re-encoding the cached outcome.
        let src = Engine::new(EngineOptions::default());
        let line = r#"{"cmd":"verify","service":"toggle","property":"G (P | Q)"}"#;
        let r = Json::parse(&handle_line(&src, line)).unwrap();
        let fp = Fingerprint::from_hex(r.get("fingerprint").unwrap().as_str().unwrap()).unwrap();
        let outcome_bytes = r.get("outcome").unwrap().encode().into_bytes();
        let frame = persist_line(fp, &outcome_bytes);

        // Destination: valid frame applies, re-ship refreshes, damage
        // and a non-cacheable verdict drop.
        let dst = Engine::new(EngineOptions::default());
        let mut corrupted = frame.clone();
        corrupted.replace_range(0..1, if &frame[0..1] == "f" { "e" } else { "f" });
        let cancelled = persist_line(
            Fingerprint(7),
            br#"{"verdict":{"kind":"cancelled"},"stats":{}}"#,
        );
        let req = Request::Replicate {
            lines: vec![frame.clone(), corrupted, cancelled],
        }
        .encode();
        let reply = Json::parse(&handle_line(&dst, &req)).unwrap();
        assert_eq!(reply.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(reply.get("applied").unwrap().as_int(), Some(1));
        assert_eq!(reply.get("dropped").unwrap().as_int(), Some(2));

        // Idempotent: the same frame again is a refresh, not a re-apply.
        let req = Request::Replicate { lines: vec![frame] }.encode();
        let reply = Json::parse(&handle_line(&dst, &req)).unwrap();
        assert_eq!(reply.get("refreshed").unwrap().as_int(), Some(1));

        // The replicated result now serves as a byte-identical cache hit.
        let r2 = Json::parse(&handle_line(&dst, line)).unwrap();
        assert_eq!(r2.get("cache_hit").unwrap().as_bool(), Some(true));
        assert_eq!(r.get("outcome"), r2.get("outcome"));
    }

    #[test]
    fn inadmissible_submit_returns_the_lint_report() {
        let e = Engine::new(EngineOptions::default());
        let line = r#"{"cmd":"verify","service":"unrestricted","property":"G s"}"#;
        let r = Json::parse(&handle_line(&e, line)).unwrap();
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(r.get("class").unwrap().as_str(), Some("unrestricted"));
        let lint = r.get("lint").unwrap();
        assert_eq!(lint.get("class").unwrap().as_str(), Some("unrestricted"));
        assert!(lint.get("errors").unwrap().as_int().unwrap() >= 1);
        let diags = lint.get("diagnostics").unwrap();
        let Json::Arr(items) = diags else {
            panic!("diagnostics must be an array")
        };
        assert!(items
            .iter()
            .any(|d| d.get("code").and_then(Json::as_str) == Some("W004")));
        // The refusal shows up in stats, not in the cache counters.
        let s = Json::parse(&handle_line(&e, r#"{"cmd":"stats"}"#)).unwrap();
        let stats = s.get("stats").unwrap();
        assert_eq!(stats.get("admission_rejections").unwrap().as_int(), Some(1));
        assert_eq!(stats.get("cache_misses").unwrap().as_int(), Some(0));
    }
}
