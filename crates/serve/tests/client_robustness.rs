//! Client hardening against hostile servers: stalls, dribbled bytes,
//! dropped connections. The client must produce typed errors on a
//! bounded clock — never hang — and reassemble responses however the
//! network fragments them.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use wave_serve::client::{ClientError, RetryPolicy, TcpClient};
use wave_serve::codec::{Mode, VerifyRequest};
use wave_verifier::symbolic::Verdict;

/// A syntactically valid verify response line (every stats field
/// present, fingerprint 32 hex chars).
fn canned_response() -> String {
    concat!(
        "{\"ok\":true,\"fingerprint\":\"000000000000000000000000000000ab\",",
        "\"cache_hit\":false,\"class\":\"fully_propositional\",",
        "\"outcome\":{\"verdict\":{\"kind\":\"limit_reached\"},",
        "\"stats\":{\"nodes_interned\":1,\"dedup_hits\":0,\"successors_memoized\":1,",
        "\"memo_hits\":0,\"peak_frontier\":1,\"prefetched\":0,\"prefetch_hits\":0,",
        "\"sliced_rules\":0,\"sliced_relations\":0,\"search_wall_us\":20,",
        "\"incremental\":false}}}"
    )
    .to_string()
}

fn any_request() -> VerifyRequest {
    VerifyRequest {
        service: "toggle".into(),
        property: "G (P | Q)".into(),
        mode: Mode::Ltl,
        node_limit: 0,
        threads: 1,
        deadline_us: 0,
        check_owner: false,
    }
}

/// Reads one request line off the socket (the canned servers must
/// consume the request before answering, like a real server).
fn read_line(stream: &mut TcpStream) {
    let mut buf = [0u8; 1];
    while let Ok(1) = stream.read(&mut buf) {
        if buf[0] == b'\n' {
            return;
        }
    }
}

#[test]
fn stalled_server_yields_typed_timeout_not_a_hang() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        read_line(&mut stream);
        // Read the request, answer nothing, hold the socket open.
        std::thread::sleep(Duration::from_secs(10));
    });

    let mut client = TcpClient::connect_timeout(addr, Duration::from_millis(300)).unwrap();
    let started = Instant::now();
    let err = client.verify(&any_request()).unwrap_err();
    let elapsed = started.elapsed();
    assert!(matches!(err, ClientError::Timeout), "{err:?}");
    assert!(
        elapsed < Duration::from_secs(5),
        "timeout must be bounded, took {elapsed:?}"
    );

    // The session is poisoned: a late response could desync request/
    // response pairing, so reuse is refused with a typed error.
    let err = client.verify(&any_request()).unwrap_err();
    assert!(
        matches!(err, ClientError::Protocol(ref m) if m.contains("reconnect")),
        "{err:?}"
    );
}

#[test]
fn dribbled_response_bytes_reassemble_into_one_line() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        read_line(&mut stream);
        // Dribble the response in small chunks with pauses, splitting
        // mid-JSON; then batch a complete second response in the same
        // final write as the first line's newline.
        let response = canned_response();
        let bytes = response.as_bytes();
        let cuts = [7, 40, 41, 150, bytes.len()];
        let mut at = 0;
        for cut in cuts {
            stream.write_all(&bytes[at..cut]).unwrap();
            stream.flush().unwrap();
            std::thread::sleep(Duration::from_millis(40));
            at = cut;
        }
        let mut tail = b"\n".to_vec();
        tail.extend_from_slice(response.as_bytes());
        tail.push(b'\n');
        stream.write_all(&tail).unwrap();
        stream.flush().unwrap();
        read_line(&mut stream); // second request
        std::thread::sleep(Duration::from_millis(200)); // then EOF
    });

    let mut client = TcpClient::connect_timeout(addr, Duration::from_secs(5)).unwrap();
    let reply = client.verify(&any_request()).expect("fragmented response");
    assert_eq!(reply.outcome.verdict, Verdict::LimitReached);
    assert_eq!(
        reply.fingerprint.to_hex(),
        "000000000000000000000000000000ab"
    );

    // The second response was already buffered past the first newline:
    // the next round trip must consume it from the buffer, not lose it.
    let reply2 = client.verify(&any_request()).expect("buffered response");
    assert_eq!(reply2.outcome.verdict, Verdict::LimitReached);
}

#[test]
fn retry_reconnects_and_succeeds_on_a_later_attempt() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        // First connection: dropped immediately (client sees EOF).
        let (stream, _) = listener.accept().unwrap();
        drop(stream);
        // Second connection: a torn response, then EOF (the partial
        // line never completes → typed EOF error, still retryable).
        let (mut stream, _) = listener.accept().unwrap();
        read_line(&mut stream);
        stream
            .write_all(&canned_response().as_bytes()[..25])
            .unwrap();
        drop(stream);
        // Third connection: a proper answer.
        let (mut stream, _) = listener.accept().unwrap();
        read_line(&mut stream);
        stream
            .write_all(format!("{}\n", canned_response()).as_bytes())
            .unwrap();
    });

    let policy = RetryPolicy {
        max_attempts: 4,
        base: Duration::from_millis(10),
        cap: Duration::from_millis(100),
        budget: Duration::from_secs(5),
        seed: 7,
    };
    let reply = TcpClient::verify_with_retry(addr, Duration::from_secs(2), &any_request(), &policy)
        .expect("third attempt must succeed");
    assert_eq!(reply.outcome.verdict, Verdict::LimitReached);
}

#[test]
fn retry_hint_exceeding_the_budget_is_clamped_not_slept() {
    // A shedding server whose retry-after hint (30 s) dwarfs the
    // client's total sleep budget (300 ms). The old behaviour honoured
    // the hint as a sleep floor and only then compared against the
    // budget — with the budget check first that meant an instant
    // failure that never used the remaining budget, and without it the
    // client would sleep 30 s past its own deadline. The clamp must do
    // neither: sleep at most the remaining budget, spend it on one more
    // attempt, then fail fast with the typed overload error.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        while let Ok((mut stream, _)) = listener.accept() {
            read_line(&mut stream);
            stream
                .write_all(
                    b"{\"ok\":false,\"error\":\"overloaded\",\"kind\":\"retry_after\",\
                      \"retry_after_ms\":30000}\n",
                )
                .unwrap();
        }
    });
    let policy = RetryPolicy {
        max_attempts: 4,
        base: Duration::from_millis(5),
        cap: Duration::from_millis(50),
        budget: Duration::from_millis(300),
        seed: 23,
    };
    let started = Instant::now();
    let err = TcpClient::verify_with_retry(addr, Duration::from_secs(2), &any_request(), &policy)
        .unwrap_err();
    let elapsed = started.elapsed();
    assert!(
        matches!(err, ClientError::RetryAfter { after_ms: 30000 }),
        "{err:?}"
    );
    // The clamp admits at most `budget` of total sleep: well under the
    // 30 s hint, and enough over the bare budget only for connect and
    // round-trip overhead.
    assert!(
        elapsed < Duration::from_secs(2),
        "client slept towards the hint instead of clamping: {elapsed:?}"
    );
    assert!(
        elapsed >= Duration::from_millis(300),
        "the remaining budget should be spent on a final attempt, not skipped: {elapsed:?}"
    );
}

#[test]
fn retry_gives_up_after_max_attempts_with_the_real_error() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        // Drop every connection.
        while let Ok((stream, _)) = listener.accept() {
            drop(stream);
        }
    });
    let policy = RetryPolicy {
        max_attempts: 3,
        base: Duration::from_millis(5),
        cap: Duration::from_millis(20),
        budget: Duration::from_secs(2),
        seed: 9,
    };
    let started = Instant::now();
    let err = TcpClient::verify_with_retry(addr, Duration::from_secs(1), &any_request(), &policy)
        .unwrap_err();
    assert!(matches!(err, ClientError::Io(_)), "{err:?}");
    assert!(started.elapsed() < Duration::from_secs(5));

    // A typed `draining` refusal is final for single-address retry:
    // the same server will refuse again until it restarts, so the
    // client gives up after one connection instead of spending its
    // attempts.
    let draining = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = draining.local_addr().unwrap();
    let accepts = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&accepts);
    std::thread::spawn(move || {
        while let Ok((mut stream, _)) = draining.accept() {
            seen.fetch_add(1, Ordering::SeqCst);
            read_line(&mut stream);
            stream
                .write_all(b"{\"ok\":false,\"error\":\"draining\",\"kind\":\"draining\"}\n")
                .unwrap();
        }
    });
    let err = TcpClient::verify_with_retry(addr, Duration::from_secs(2), &any_request(), &policy)
        .unwrap_err();
    assert!(matches!(err, ClientError::Draining), "{err:?}");
    assert_eq!(
        accepts.load(Ordering::SeqCst),
        1,
        "draining must not be retried"
    );
}
