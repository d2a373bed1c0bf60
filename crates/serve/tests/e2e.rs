//! End-to-end tests: a real TCP server on an ephemeral port, driven by
//! the blocking client, exercising the acceptance scenarios of the
//! wave-serve subsystem:
//!
//! * two identical submissions of the Fig. 2 payment-safety property
//!   return identical verdicts, the second as a cache hit;
//! * a 1 ms-deadline job on the full demo site returns `Cancelled`
//!   without hanging or panicking, and the worker pool keeps serving;
//! * worker-pool size (1/2/8) never changes the response bytes.

use std::sync::Arc;
use std::time::Duration;

use wave_serve::client::{LocalClient, TcpClient};
use wave_serve::codec::{Mode, VerifyRequest};
use wave_serve::engine::{Engine, EngineOptions};
use wave_serve::server::Server;
use wave_verifier::symbolic::Verdict;

const FIG2_PROPERTY: &str = "forall p . G (!ship(p) | paid)";

/// The same payment-safety shape over the full site, whose `ship`
/// action relation has arity 2 (product, price) — the admission gate
/// checks property arities against the schema, per service.
const FULL_SITE_PROPERTY: &str = "forall p q . G (!ship(p, q) | paid)";

fn request(service: &str, property: &str) -> VerifyRequest {
    VerifyRequest {
        service: service.into(),
        property: property.into(),
        mode: Mode::Ltl,
        node_limit: 0,
        threads: 1,
        deadline_us: 0,
        check_owner: false,
    }
}

/// Starts a server on an ephemeral port and returns a connected client.
/// The accept-loop thread is detached; it dies with the test process.
fn spawn_server(opts: EngineOptions) -> TcpClient {
    let engine = Arc::new(Engine::new(opts));
    let server = Server::bind("127.0.0.1:0", engine).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    std::thread::spawn(move || server.run());
    // The listener is already bound, so connect cannot race the accept
    // loop; retry briefly anyway to be robust on slow machines.
    for _ in 0..50 {
        if let Ok(c) = TcpClient::connect(addr) {
            return c;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("could not connect to {addr}");
}

#[test]
fn fig2_checkout_property_served_then_cached_over_tcp() {
    let mut client = spawn_server(EngineOptions::default());

    let req = request("checkout_core", FIG2_PROPERTY);
    let first = client.verify(&req).expect("first submission");
    assert!(!first.cache_hit, "cold submission must miss the cache");
    assert!(
        matches!(first.outcome.verdict, Verdict::Holds { .. }),
        "Fig. 2 payment safety must hold: {:?}",
        first.outcome.verdict
    );

    assert_eq!(
        first.class, "input_bounded",
        "admission reports the decidable class in the envelope"
    );

    let second = client.verify(&req).expect("second submission");
    assert!(
        second.cache_hit,
        "identical resubmission must hit the cache"
    );
    assert_eq!(second.fingerprint, first.fingerprint);
    assert_eq!(
        second.outcome_text, first.outcome_text,
        "cache hit must replay the outcome byte-for-byte"
    );
    assert_eq!(second.outcome, first.outcome);

    // The stats counters saw exactly one miss and one hit.
    let stats = client.stats().expect("stats");
    assert_eq!(stats.get("cache_misses").unwrap().as_int(), Some(1));
    assert_eq!(stats.get("cache_hits").unwrap().as_int(), Some(1));
}

#[test]
fn reply_envelope_carries_shard_and_coalescing_fields() {
    let mut client = spawn_server(EngineOptions {
        shard: 5,
        ..EngineOptions::default()
    });

    // The decoded reply surfaces both fleet observability fields…
    let reply = client
        .verify(&request("toggle", "G (P | Q)"))
        .expect("submission");
    assert_eq!(reply.shard, 5);
    assert_eq!(reply.coalesced_waiters, 0, "nothing coalesced here");

    // …and the raw wire line names them, before the outcome object, so
    // the outcome bytes stay byte-identical hit vs. miss regardless of
    // how many submissions shared a run.
    let line = client
        .round_trip(r#"{"cmd":"verify","service":"toggle","property":"G (P | Q)"}"#)
        .expect("round trip");
    assert!(line.contains("\"shard\":5"), "{line}");
    assert!(line.contains("\"coalesced_waiters\":0"), "{line}");
    let envelope_end = line.find("\"outcome\"").expect("outcome key");
    assert!(
        line[..envelope_end].contains("\"shard\""),
        "shard belongs to the envelope, not the outcome: {line}"
    );

    // Stats report the shard too.
    let stats = client.stats().expect("stats");
    assert_eq!(stats.get("shard").unwrap().as_int(), Some(5));
    assert_eq!(stats.get("coalesced").unwrap().as_int(), Some(0));
}

#[test]
fn millisecond_deadline_cancels_cleanly_and_pool_keeps_serving() {
    let mut client = spawn_server(EngineOptions::default());

    // 1 ms is far below what the full site needs: the search loops must
    // notice the armed deadline and return Cancelled — no hang, no
    // panic, no cache pollution.
    let mut doomed = request("full_site", FULL_SITE_PROPERTY);
    doomed.deadline_us = 1_000;
    let reply = client.verify(&doomed).expect("cancelled job still replies");
    assert_eq!(reply.outcome.verdict, Verdict::Cancelled);
    assert!(!reply.cache_hit);

    // The worker pool survived: a fresh, cheap job completes normally
    // on the same connection.
    let alive = client
        .verify(&request("toggle", "G (P | Q)"))
        .expect("pool still serves after a cancellation");
    assert!(matches!(alive.outcome.verdict, Verdict::Holds { .. }));

    // And the cancelled run was not cached: resubmitting the doomed
    // request without a deadline is a miss, not a replayed Cancelled.
    doomed.deadline_us = 0;
    doomed.node_limit = 2_000; // keep the rerun cheap
    let retry = client.verify(&doomed).expect("rerun without deadline");
    assert!(!retry.cache_hit);
    assert_ne!(retry.outcome.verdict, Verdict::Cancelled);

    // The doomed run is accounted exactly once: either the search
    // noticed the deadline mid-flight (`cancelled`) or the budget was
    // already gone at submit (`dead_on_arrival`) — build speed decides.
    let stats = client.stats().expect("stats");
    let cancelled = stats.get("cancelled").unwrap().as_int().unwrap();
    let doa = stats.get("dead_on_arrival").unwrap().as_int().unwrap();
    assert_eq!(cancelled + doa, 1, "cancelled={cancelled} doa={doa}");
}

#[test]
fn inadmissible_service_is_refused_over_tcp_with_lint_blame() {
    let mut client = spawn_server(EngineOptions::default());

    let reply = client.verify(&request("unrestricted", "G s"));
    let err = reply.expect_err("the unrestricted service must be refused");
    let msg = err.to_string();
    assert!(msg.contains("not admissible"), "{msg}");
    assert!(msg.contains("lint error"), "{msg}");

    // The raw line carries the machine-readable lint report.
    let line = client
        .round_trip(r#"{"cmd":"verify","service":"unrestricted","property":"G s"}"#)
        .expect("round trip");
    assert!(line.contains("\"class\":\"unrestricted\""), "{line}");
    assert!(line.contains("\"W004\""), "{line}");

    // No verification budget was consumed; the pool still serves.
    let stats = client.stats().expect("stats");
    assert_eq!(stats.get("admission_rejections").unwrap().as_int(), Some(2));
    assert_eq!(stats.get("cache_misses").unwrap().as_int(), Some(0));
    let alive = client
        .verify(&request("toggle", "G (P | Q)"))
        .expect("pool serves after refusals");
    assert!(matches!(alive.outcome.verdict, Verdict::Holds { .. }));
}

#[test]
fn worker_pool_size_never_changes_the_deterministic_outcome() {
    // Wall-clock fields vary run to run by nature; everything else in
    // the outcome must be identical across pool sizes.
    fn deterministic(
        outcome: &wave_verifier::symbolic::VerifyOutcome,
    ) -> impl PartialEq + std::fmt::Debug {
        let mut stats = outcome.stats.clone();
        stats.prefetched = 0;
        stats.prefetch_hits = 0;
        stats.search_wall = Duration::ZERO;
        (outcome.verdict.clone(), stats)
    }

    let req = request("checkout_core", FIG2_PROPERTY);
    let mut replies = Vec::new();
    for workers in [1usize, 2, 8] {
        let engine = Arc::new(Engine::new(EngineOptions {
            workers,
            ..EngineOptions::default()
        }));
        let client = LocalClient::new(engine);
        let reply = client.verify(&req).expect("submission succeeds");
        assert!(!reply.cache_hit, "fresh engine starts cold");
        replies.push((workers, reply));
    }
    let (_, baseline) = &replies[0];
    for (workers, reply) in &replies[1..] {
        assert_eq!(
            reply.fingerprint, baseline.fingerprint,
            "fingerprint must not depend on worker count ({workers} workers)"
        );
        assert_eq!(
            deterministic(&reply.outcome),
            deterministic(&baseline.outcome),
            "verdict and counters must not depend on worker count ({workers} workers)"
        );
    }
}

#[test]
fn one_session_serves_100_round_trips_without_nagle_stalls() {
    // A line and its newline in two writes meet Nagle's algorithm and
    // delayed ACK on a reused session: each round trip then waits tens
    // of milliseconds for an ACK. Framed in one write, 100 round trips
    // on one session take a few milliseconds.
    let mut client = spawn_server(EngineOptions::default());
    let req = request("toggle", "G (P | Q)");
    client.verify(&req).expect("cold verify");
    let started = std::time::Instant::now();
    for i in 0..100 {
        if i % 2 == 0 {
            client.stats().expect("stats on a reused session");
        } else {
            let reply = client.verify(&req).expect("hit on a reused session");
            assert!(reply.cache_hit);
        }
    }
    let took = started.elapsed();
    assert!(
        took < Duration::from_secs(1),
        "100 round trips on one session took {took:?}"
    );
}

#[test]
fn hostile_nesting_is_refused_and_the_server_keeps_serving() {
    // 100 KB of `[` once overflowed the recursive JSON parser's stack
    // and aborted the process, taking every session on the node down.
    let mut client = spawn_server(EngineOptions::default());
    let line = client
        .round_trip(&"[".repeat(100_000))
        .expect("a typed error line, not a dead server");
    let reply = wave_serve::json::Json::parse(&line).expect("the error line is JSON");
    assert_eq!(reply.get("ok").and_then(|v| v.as_bool()), Some(false));
    assert!(line.contains("nesting"), "{line}");
    // The same session and the server keep serving.
    client.stats().expect("stats after the hostile line");
    let reply = client
        .verify(&request("toggle", "G (P | Q)"))
        .expect("verify after the hostile line");
    assert!(matches!(reply.outcome.verdict, Verdict::Holds { .. }));
}
