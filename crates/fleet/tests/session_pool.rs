//! Forwarding over pooled sessions: `Router::submit` reuses one
//! connection for a stream of requests, a session that went stale
//! while idle never marks a live node dead, and a membership change
//! never leaves a session reaching a retired engine.

use std::io::{BufRead, BufReader};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use wave_fleet::local::{FleetOptions, LocalFleet};
use wave_fleet::router::{NodeHandle, Router};
use wave_serve::client::{ClientError, SessionPool};
use wave_serve::codec::{Mode, VerifyRequest};
use wave_serve::engine::{Engine, EngineOptions};
use wave_serve::faults::Faults;
use wave_serve::server::{handle_line, write_line};

fn request(property: &str) -> VerifyRequest {
    VerifyRequest {
        service: "toggle".into(),
        property: property.into(),
        mode: Mode::Ltl,
        node_limit: 0,
        threads: 1,
        deadline_us: 0,
        check_owner: false,
    }
}

/// A node that counts the connections it accepts, answers each line
/// through `handle_line`, and keeps every accepted stream so a test
/// can close the node's side of it.
struct CountingNode {
    addr: SocketAddr,
    accepts: Arc<AtomicUsize>,
    streams: Arc<Mutex<Vec<TcpStream>>>,
}

impl CountingNode {
    fn start() -> CountingNode {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr");
        let engine = Arc::new(Engine::new(EngineOptions::default()));
        let accepts = Arc::new(AtomicUsize::new(0));
        let streams = Arc::new(Mutex::new(Vec::new()));
        let (a, s) = (Arc::clone(&accepts), Arc::clone(&streams));
        std::thread::spawn(move || {
            for stream in listener.incoming().flatten() {
                a.fetch_add(1, Ordering::SeqCst);
                s.lock().unwrap().push(stream.try_clone().expect("clone"));
                let engine = Arc::clone(&engine);
                std::thread::spawn(move || {
                    let mut writer = stream.try_clone().expect("clone");
                    for line in BufReader::new(stream).lines() {
                        let Ok(line) = line else { return };
                        if write_line(&mut writer, &handle_line(&engine, &line)).is_err() {
                            return;
                        }
                    }
                });
            }
        });
        CountingNode {
            addr,
            accepts,
            streams,
        }
    }

    fn router(&self) -> Router {
        Router::new(
            vec![NodeHandle {
                id: 0,
                addr: self.addr,
                journal: None,
            }],
            Faults::none(),
        )
    }

    fn accepts(&self) -> usize {
        self.accepts.load(Ordering::SeqCst)
    }

    /// Closes the node's side of every connection it accepted.
    fn close_all(&self) {
        for stream in self.streams.lock().unwrap().iter() {
            stream.shutdown(Shutdown::Both).expect("shutdown");
        }
    }
}

#[test]
fn the_pool_keeps_sessions_across_refusals_and_retries_stale_ones_fresh() {
    let node = CountingNode::start();
    let pool = SessionPool::new(Duration::from_secs(10));
    let inadmissible = VerifyRequest {
        service: "unrestricted".into(),
        property: "G s".into(),
        ..request("")
    };
    let refused = pool.verify(node.addr, &inadmissible);
    assert!(
        matches!(refused, Err(ClientError::Server(_))),
        "{refused:?}"
    );
    assert_eq!(
        pool.idle(node.addr),
        1,
        "a typed refusal is a complete reply"
    );
    let cold = pool.verify(node.addr, &request("F P")).expect("verify");
    assert_eq!(node.accepts(), 1, "the refusal's session was reused");
    node.close_all();
    let reply = pool
        .verify(node.addr, &request("F P"))
        .expect("one call survives a stale session");
    assert_eq!(reply.outcome_text, cold.outcome_text);
    assert_eq!(node.accepts(), 2, "the retry opens one fresh connection");
    assert_eq!(pool.idle(node.addr), 1);
    pool.purge(node.addr);
    assert_eq!(pool.idle(node.addr), 0);
}

#[test]
fn two_hundred_hits_reuse_one_session() {
    let node = CountingNode::start();
    let router = node.router();
    let req = request("G (P | Q)");
    let cold = router.submit(&req).expect("cold verify");
    assert!(!cold.cache_hit);
    for _ in 0..200 {
        let reply = router.submit(&req).expect("hit");
        assert!(reply.cache_hit);
        assert_eq!(reply.outcome_text, cold.outcome_text);
    }
    assert!(
        node.accepts() <= 2,
        "201 forwards opened {} connections",
        node.accepts()
    );
}

#[test]
fn a_stale_idle_session_never_marks_the_node_dead() {
    let node = CountingNode::start();
    let router = node.router();
    let req = request("F P");
    let cold = router.submit(&req).expect("cold verify");
    assert_eq!(node.accepts(), 1);
    // The node closes its side of the pooled session while it is idle.
    node.close_all();
    let reply = router
        .submit(&req)
        .expect("a stale session must not fail the request");
    assert_eq!(reply.outcome_text, cold.outcome_text);
    assert_eq!(node.accepts(), 2, "the retry opens one fresh connection");
    let c = &router.counters;
    assert_eq!(c.nodes_marked_dead.load(Ordering::Relaxed), 0);
    assert_eq!(c.failovers.load(Ordering::Relaxed), 0);
    assert_eq!(router.epoch(), 0, "no membership change");
}

#[test]
fn after_retire_and_rejoin_requests_reach_the_new_engine_only() {
    let mut fleet = LocalFleet::launch(
        2,
        FleetOptions {
            heartbeat: None,
            ..FleetOptions::default()
        },
    )
    .expect("launch");
    let formulas = [
        "G (P | Q)",
        "F P",
        "F Q",
        "G F P",
        "G F Q",
        "F G P",
        "X P",
        "X Q",
    ];
    let owned_by_1: Vec<&str> = formulas
        .iter()
        .copied()
        .filter(|f| fleet.router().owner_of(&request(f)) == Some(1))
        .collect();
    assert!(!owned_by_1.is_empty(), "some formula must live on node 1");
    // Warm node 1's pooled sessions.
    for f in formulas {
        fleet.router().submit(&request(f)).expect("warm-up");
    }
    let retired = Arc::clone(&fleet.engines()[1]);
    let retired_addr = fleet.router().nodes()[1].addr;
    assert!(fleet.router().sessions().idle(retired_addr) > 0);
    fleet.retire(1);
    assert_eq!(
        fleet.router().sessions().idle(retired_addr),
        0,
        "retiring a node closes its idle sessions"
    );
    fleet.rejoin(1).expect("re-join");
    let submitted = |e: &Engine| e.counters.submitted.load(Ordering::Relaxed);
    let retired_before = submitted(&retired);
    let fresh_before = submitted(&fleet.engines()[1]);
    for f in &owned_by_1 {
        let reply = fleet.router().submit(&request(f)).expect("verify");
        assert_eq!(reply.shard, 1, "{f} belongs to node 1 again");
    }
    assert_eq!(
        submitted(&retired),
        retired_before,
        "no request may reach the retired engine"
    );
    assert_eq!(
        submitted(&fleet.engines()[1]) - fresh_before,
        owned_by_1.len() as u64,
        "every request for node 1 lands on the re-joined engine"
    );
}
