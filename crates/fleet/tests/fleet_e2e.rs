//! Fleet end-to-end drills: routing determinism, fleet-wide
//! at-most-once cold verification, journal-shipped replication, node
//! kill/retire survival, re-join and ring re-expansion, heartbeat
//! death detection, router-less client-side routing, and
//! soft-partition chaos.
//!
//! The invariant hierarchy under test: a fleet may lose *cached* work
//! (it re-verifies cold), but it must never serve a wrong verdict,
//! install a corrupted replay, or hang a client — and a re-join must
//! never lose a journaled verdict or re-verify already-paid content.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use wave_chaos::plan::Plan;
use wave_chaos::plane::ChaosPlane;
use wave_fleet::heartbeat::HeartbeatOptions;
use wave_fleet::local::{FleetOptions, LocalFleet, ProcessFleet};
use wave_serve::client::{RoutedClient, TcpClient};
use wave_serve::codec::{verdict_to_json, Mode, VerifyRequest};
use wave_serve::faults::Faults;
use wave_serve::json::Json;
use wave_verifier::symbolic::{verify_ltl, SymbolicOptions};

/// Structurally distinct LTL properties over the `toggle` service's
/// propositions — each is one distinct content fingerprint.
fn formulas() -> Vec<&'static str> {
    vec![
        "G (P | Q)",
        "F P",
        "F Q",
        "G F P",
        "G F Q",
        "F G P",
        "X P",
        "X Q",
        "P U Q",
        "Q U P",
        "G (P -> X Q)",
        "G (Q -> X P)",
    ]
}

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

/// Total cold verifications across every engine in the fleet.
fn fleet_cache_misses(fleet: &LocalFleet) -> u64 {
    fleet
        .engines()
        .iter()
        .map(|e| e.counters.cache_misses.load(Ordering::Relaxed))
        .sum()
}

#[test]
fn distinct_cold_fingerprints_verify_at_most_once_fleet_wide() {
    let fleet = LocalFleet::launch(3, FleetOptions::default()).expect("launch");
    let router = fleet.router();

    // Three rounds over the same 12 formulas: the router must send each
    // fingerprint to one deterministic owner, so rounds 2 and 3 are
    // cache hits and the fleet runs exactly 12 cold verifications.
    let mut first: Vec<String> = Vec::new();
    for round in 0..3 {
        for (i, f) in formulas().iter().enumerate() {
            let reply = router.submit(&request(f)).expect("routed verify");
            if round == 0 {
                first.push(reply.outcome_text.clone());
                assert!(!reply.cache_hit, "round 0 must be cold: {f}");
            } else {
                assert!(reply.cache_hit, "round {round} must hit: {f}");
                assert_eq!(
                    reply.outcome_text, first[i],
                    "repeat of {f} must be byte-identical"
                );
            }
        }
    }
    assert_eq!(
        fleet_cache_misses(&fleet),
        formulas().len() as u64,
        "each distinct fingerprint verifies at most once fleet-wide"
    );

    // A thundering herd on one *new* formula: 8 concurrent clients,
    // still exactly one more cold verification (deterministic routing
    // lands them on one node; that node's engine coalesces or serves
    // from cache).
    let herd_formula = "G (P <-> ! Q)";
    let router = Arc::clone(router);
    let threads: Vec<_> = (0..8)
        .map(|_| {
            let router = Arc::clone(&router);
            std::thread::spawn(move || router.submit(&request(herd_formula)).expect("herd verify"))
        })
        .collect();
    let herd: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    for reply in &herd {
        assert_eq!(reply.outcome_text, herd[0].outcome_text);
    }
    assert_eq!(
        fleet_cache_misses(&fleet),
        formulas().len() as u64 + 1,
        "a herd of 8 on one hot fingerprint costs exactly one verification"
    );
    assert_eq!(router.epoch(), 0, "no membership change in this drill");
}

#[test]
fn replication_ships_results_and_a_retired_node_s_verdicts_survive() {
    let fleet = LocalFleet::launch(
        3,
        FleetOptions {
            ship_interval: Duration::from_millis(25),
            ..FleetOptions::default()
        },
    )
    .expect("launch");
    let router = fleet.router();

    let mut first: Vec<String> = Vec::new();
    for f in formulas() {
        first.push(router.submit(&request(f)).expect("verify").outcome_text);
    }

    // Every completed result ships to both peers: wait until each of
    // the 12 results has been applied twice, fleet-wide.
    let want = formulas().len() as u64 * 2;
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let applied: u64 = fleet
            .engines()
            .iter()
            .map(|e| e.counters.replicated_applied.load(Ordering::Relaxed))
            .sum();
        if applied >= want {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "replication stalled: {applied}/{want} applied"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // Retire each node in turn... but one is enough to prove survival:
    // every verdict the dead node owned must now be a warm hit on its
    // successor, byte-identical — zero re-verification.
    let cold_before = fleet_cache_misses(&fleet);
    fleet.retire(1);
    assert_eq!(router.epoch(), 1, "death must bump the ring epoch");
    for (i, f) in formulas().iter().enumerate() {
        let reply = router.submit(&request(f)).expect("post-retire verify");
        assert!(reply.cache_hit, "{f} must replay from the replicated cache");
        assert_eq!(reply.outcome_text, first[i], "{f} changed across the kill");
        assert_ne!(reply.shard, 1, "the dead node must not answer");
    }
    assert_eq!(
        fleet_cache_misses(&fleet),
        cold_before,
        "no verdict may be re-verified after a death with replication"
    );
    assert!(fleet.shipper().shipped() > 0, "the shipper must have run");
}

#[test]
fn sigkill_mid_campaign_yields_no_wrong_verdicts_and_no_hangs() {
    let bin = std::path::Path::new(env!("CARGO_BIN_EXE_wave-fleet"));
    let mut fleet = ProcessFleet::spawn(
        bin,
        3,
        FleetOptions {
            ship_interval: Duration::from_millis(25),
            ..FleetOptions::default()
        },
    )
    .expect("spawn process fleet");
    let started = Instant::now();

    // Ground truth: one warm pass over every formula.
    let mut first: Vec<String> = Vec::new();
    for f in formulas() {
        let reply = fleet.router().submit(&request(f)).expect("verify");
        first.push(reply.outcome_text);
    }
    // Let at least one ship round land so the kill loses no verdicts.
    std::thread::sleep(Duration::from_millis(250));

    // SIGKILL one node (a real dead process: sockets reset, journal
    // frozen mid-life), then re-run the whole campaign plus new work.
    assert!(fleet.kill(0), "node 0 must exist to be killed");
    for (i, f) in formulas().iter().enumerate() {
        let reply = fleet
            .router()
            .submit(&request(f))
            .expect("post-kill verify");
        assert_eq!(
            reply.outcome_text, first[i],
            "{f} changed its verdict across a SIGKILL"
        );
        assert_ne!(reply.shard, 0, "the killed node must not answer");
    }
    let fresh = fleet
        .router()
        .submit(&request("F (P & X Q)"))
        .expect("cold verify after the kill");
    assert!(!fresh.outcome_text.is_empty());
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "the drill must complete on a bounded clock"
    );
    fleet.shutdown();
}

/// The re-join drill from the mesh acceptance bar: SIGKILL a node
/// mid-campaign, restart it from its on-disk journal, re-join it, and
/// run a 3-round campaign — zero re-verifications of journaled
/// fingerprints, byte-identical verdicts throughout.
#[test]
fn sigkill_restart_and_rejoin_never_reverifies_journaled_content() {
    let bin = std::path::Path::new(env!("CARGO_BIN_EXE_wave-fleet"));
    let mut fleet = ProcessFleet::spawn(
        bin,
        3,
        FleetOptions {
            ship_interval: Duration::from_millis(25),
            heartbeat: None, // this drill drives membership by hand
            ..FleetOptions::default()
        },
    )
    .expect("spawn process fleet");

    // Ground truth plus journal warm-up.
    let mut first: Vec<String> = Vec::new();
    for f in formulas() {
        first.push(
            fleet
                .router()
                .submit(&request(f))
                .expect("verify")
                .outcome_text,
        );
    }
    std::thread::sleep(Duration::from_millis(250));

    // SIGKILL mid-campaign, then restart from the same on-disk journal
    // and re-join: peers replay in *before* the ring re-ranges.
    assert!(fleet.kill(0), "node 0 must exist to be killed");
    let epoch_after_kill = fleet.router().epoch();
    fleet.restart(0).expect("restart from on-disk journal");
    assert!(
        fleet.router().epoch() > epoch_after_kill,
        "re-join must bump the ring epoch"
    );
    assert_eq!(fleet.router().nodes().len(), 3, "full strength restored");

    // Per-node cold-run baseline *after* the re-join: three full rounds
    // must not add a single cold verification anywhere in the fleet.
    let misses = |fleet: &ProcessFleet| -> u64 {
        fleet
            .router()
            .nodes()
            .iter()
            .map(|n| {
                TcpClient::connect_timeout(n.addr, Duration::from_secs(5))
                    .ok()
                    .and_then(|mut c| c.stats().ok())
                    .and_then(|s| s.get("cache_misses").and_then(|v| v.as_int()))
                    .unwrap_or(0) as u64
            })
            .sum()
    };
    let baseline = misses(&fleet);
    for _round in 0..3 {
        for (i, f) in formulas().iter().enumerate() {
            let reply = fleet
                .router()
                .submit(&request(f))
                .expect("post-rejoin verify");
            assert!(reply.cache_hit, "{f} must hit after the re-join");
            assert_eq!(
                reply.outcome_text, first[i],
                "{f} changed its verdict across kill + re-join"
            );
        }
    }
    assert_eq!(
        misses(&fleet),
        baseline,
        "zero re-verifications of journaled fingerprints after a re-join"
    );

    // The restarted node is a full member again: it answers health with
    // the current epoch (the join pushed the view).
    let node0 = fleet
        .router()
        .nodes()
        .into_iter()
        .find(|n| n.id == 0)
        .expect("node 0 re-joined");
    let health = TcpClient::connect_timeout(node0.addr, Duration::from_secs(5))
        .expect("connect")
        .health()
        .expect("health");
    assert_eq!(health.shard, 0);
    assert_eq!(health.epoch, fleet.router().epoch());
    fleet.shutdown();
}

/// Client-side routing as router failover: with the view pushed, a
/// `RoutedClient` bootstrapped off the *nodes* completes every request
/// with byte-identical verdicts while the router is never on the
/// request path — and keeps working across a membership change.
#[test]
fn routed_client_survives_without_the_router() {
    let bin = std::path::Path::new(env!("CARGO_BIN_EXE_wave-fleet"));
    let mut fleet = ProcessFleet::spawn(
        bin,
        3,
        FleetOptions {
            ship_interval: Duration::from_millis(25),
            heartbeat: None, // membership driven by hand below
            ..FleetOptions::default()
        },
    )
    .expect("spawn process fleet");

    // Warm the fleet through the router once (ground truth).
    let mut first: Vec<String> = Vec::new();
    for f in formulas() {
        first.push(
            fleet
                .router()
                .submit(&request(f))
                .expect("verify")
                .outcome_text,
        );
    }

    // From here on the router is dead as far as requests are concerned:
    // the client talks straight to owner nodes.
    let bootstrap: Vec<std::net::SocketAddr> =
        fleet.router().nodes().iter().map(|n| n.addr).collect();
    let mut client = RoutedClient::new(bootstrap).with_read_timeout(Duration::from_secs(10));
    for (i, f) in formulas().iter().enumerate() {
        let reply = client.verify(&request(f)).expect("routed verify");
        assert!(reply.cache_hit, "{f} must be served from the owner's cache");
        assert_eq!(
            reply.outcome_text, first[i],
            "{f} verdict drifted through client-side routing"
        );
    }
    assert_eq!(
        client.view_epoch(),
        fleet.router().epoch(),
        "the client must hold the fleet's current view"
    );

    // Membership changes mid-stream: a node really dies (SIGKILL), the
    // epoch bumps, the client recovers by protocol (dead socket or
    // wrong_shard → refresh) — every request still completes, still
    // byte-identical, with the router never on the request path.
    assert!(fleet.kill(1), "node 1 must exist to be killed");
    for (i, f) in formulas().iter().enumerate() {
        let reply = client
            .verify(&request(f))
            .expect("post-death routed verify");
        assert_eq!(
            reply.outcome_text, first[i],
            "{f} verdict drifted across a death under client-side routing"
        );
        assert_ne!(reply.shard, 1, "the dead node must not answer");
    }
    fleet.shutdown();
}

/// The membership plane detects a *real* death on its own: a silent
/// SIGKILL (the router is not told) must be noticed by heartbeat,
/// confirmed, and executed — epoch bump, member off the ring.
#[test]
fn heartbeat_detects_a_silent_sigkill() {
    let bin = std::path::Path::new(env!("CARGO_BIN_EXE_wave-fleet"));
    let mut fleet = ProcessFleet::spawn(
        bin,
        3,
        FleetOptions {
            ship_interval: Duration::from_millis(25),
            heartbeat: Some(HeartbeatOptions {
                interval: Duration::from_millis(25),
                k_missed: 3,
                probe_timeout: Duration::from_millis(250),
                seed: 0xDEAD,
            }),
            ..FleetOptions::default()
        },
    )
    .expect("spawn process fleet");

    for f in formulas().iter().take(4) {
        fleet.router().submit(&request(f)).expect("verify");
    }
    std::thread::sleep(Duration::from_millis(200));

    let epoch_before = fleet.router().epoch();
    assert!(fleet.kill_silent(2), "node 2 must exist to be killed");
    let deadline = Instant::now() + Duration::from_secs(30);
    while fleet.router().epoch() == epoch_before {
        assert!(
            Instant::now() < deadline,
            "heartbeat never detected the silent kill"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    assert_eq!(
        fleet.router().nodes().len(),
        2,
        "the corpse is off the ring"
    );
    assert!(
        fleet.router().nodes().iter().all(|n| n.id != 2),
        "node 2 must be the one removed"
    );
    // The fleet still answers everything, byte-stable, after the
    // autonomous death.
    for f in formulas().iter().take(4) {
        let reply = fleet
            .router()
            .submit(&request(f))
            .expect("post-detection verify");
        assert_ne!(reply.shard, 2);
    }
    fleet.shutdown();
}

/// `health` and `members` round-trip over live TCP against real node
/// processes: cheap liveness plus the epoch-tagged view any member can
/// serve to bootstrapping clients.
#[test]
fn health_and_members_round_trip_over_live_tcp() {
    let fleet = LocalFleet::launch(3, FleetOptions::default()).expect("launch");
    let view = fleet.router().member_view();
    assert_eq!(view.members.len(), 3);
    for node in fleet.router().nodes() {
        let mut c = TcpClient::connect_timeout(node.addr, Duration::from_secs(5)).expect("connect");
        let health = c.health().expect("health");
        assert_eq!(health.shard, node.id);
        assert_eq!(health.epoch, view.epoch, "launch must push the view");
        let served = c.members().expect("members");
        assert_eq!(served.epoch, view.epoch);
        assert_eq!(
            served.members.iter().map(|m| m.id).collect::<Vec<_>>(),
            view.members.iter().map(|m| m.id).collect::<Vec<_>>(),
        );
    }
}

/// An outcome's bytes without its one wall-clock field: the verdict
/// object and every counting field of `stats`, which a cold run on any
/// node reproduces exactly.
fn without_wall_time(outcome_text: &str) -> String {
    let mut outcome = Json::parse(outcome_text).expect("outcome bytes are JSON");
    if let Json::Obj(fields) = &mut outcome {
        for (key, value) in fields.iter_mut() {
            if let (true, Json::Obj(stats)) = (key == "stats", value) {
                stats.retain(|(k, _)| k != "search_wall_us");
            }
        }
    }
    outcome.encode()
}

#[test]
fn soft_partition_chaos_never_changes_a_verdict() {
    // Dropped and delayed forwards/ships at the fleet hooks: requests
    // may fail over to non-owners, which verify cold (extra cold runs
    // are allowed). Every answer must still be the correct verdict:
    // the verdict and the search counters byte-identical across
    // rounds, the verdict equal to a from-scratch run. Only
    // `search_wall_us` may differ, since a failover re-runs the search.
    let plane = Arc::new(ChaosPlane::new(Plan::Partition, 0xF1EE7));
    let fleet = LocalFleet::launch(
        3,
        FleetOptions {
            fleet_faults: Faults::new(plane.clone()),
            ship_interval: Duration::from_millis(25),
            ..FleetOptions::default()
        },
    )
    .expect("launch");

    let toggle = wave_serve::registry::resolve("toggle").expect("toggle is registered");
    let mut first: Vec<String> = Vec::new();
    for round in 0..3 {
        for (i, f) in formulas().iter().enumerate() {
            let reply = fleet
                .router()
                .submit(&request(f))
                .expect("partitioned verify must still answer");
            let served = without_wall_time(&reply.outcome_text);
            if round == 0 {
                let property = wave_logic::parser::parse_property(f).expect("formula parses");
                let fresh = verify_ltl(&toggle, &property, &SymbolicOptions::default())
                    .expect("from-scratch verify");
                assert_eq!(
                    verdict_to_json(&reply.outcome.verdict).encode(),
                    verdict_to_json(&fresh.verdict).encode(),
                    "{f}: the served verdict differs from a from-scratch run"
                );
                first.push(served);
            } else {
                assert_eq!(
                    served, first[i],
                    "{f} verdict drifted under partition chaos"
                );
            }
        }
    }
    assert!(
        plane.decisions() > 0,
        "the partition plan must actually be consulted at the fleet hooks"
    );
    assert_eq!(
        fleet.router().epoch(),
        0,
        "soft partitions must not be escalated to node deaths"
    );
}
