//! The serving stack: a 2-node in-process fleet over loopback TCP, the
//! `toggle` formula corpus it serves, spans around the wire layers'
//! public calls, and the re-join drill.
//!
//! The in-process workloads never touch the wire, so their traced runs
//! end with [`probe`]: a short closed loop of cache hits through the
//! same fleet shape, which gives the wire metrics a reading on every
//! workload.

use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::Instant;

use wave_fleet::local::{FleetOptions, LocalFleet};
use wave_fleet::router::Router;
use wave_load::corpus::{corpus, request};
use wave_load::zipf::Zipf;
use wave_rng::SplitMix64;
use wave_serve::client::{ClientError, TcpClient, VerifyReply};
use wave_serve::codec::{verdict_to_json, Request, VerifyRequest};
use wave_serve::engine::{Engine, EngineOptions};
use wave_serve::server::handle_line;
use wave_verifier::symbolic::{verify_ltl, SymbolicOptions};

use crate::common::{Config, Samples, Tally};
use crate::layers::Drill;
use crate::pipeline::Class;
use crate::trace::Tracer;

/// Distinct formulas in the served corpus.
pub const CORPUS: usize = 120;
/// Popularity skew of the request stream.
pub const ZIPF_S: f64 = 1.1;
/// Fleet size.
pub const NODES: usize = 2;
/// Requests in the wire probe of the in-process workloads' traced runs.
const PROBE_REQUESTS: usize = 300;
/// The node the drill retires and re-joins.
const DRILL_NODE: u32 = 1;

/// The corpus formulas, by popularity rank.
pub fn formulas() -> Vec<String> {
    corpus(CORPUS)
}

pub fn sampler() -> Zipf {
    Zipf::new(CORPUS, ZIPF_S)
}

/// Boots the fleet with its journals under `dir`.
pub fn launch(dir: PathBuf) -> LocalFleet {
    LocalFleet::launch(
        NODES,
        FleetOptions {
            dir: Some(dir),
            ..FleetOptions::default()
        },
    )
    .expect("launch a fleet on loopback")
}

/// Checks a reply against the warm-up answer for its formula: a cache
/// hit, byte-identical to the cold run that stored it.
pub fn check_hit(reply: &Result<VerifyReply, ClientError>, warm: &str) -> Result<Class, String> {
    match reply {
        Err(e) => Err(format!("request failed: {e}")),
        Ok(r) if !r.cache_hit => Err("a warm formula was not a cache hit".into()),
        Ok(r) if r.outcome_text != warm => Err("cached outcome bytes changed".into()),
        Ok(_) => Ok(Class::Hit),
    }
}

/// One cold submission per formula, each followed by `also`; returns
/// each formula's outcome bytes (every later reply must repeat them)
/// and the cold latencies.
pub fn warm_up(
    router: &Router,
    formulas: &[String],
    samples: &mut Samples,
    mut also: impl FnMut(u64, &VerifyRequest),
) -> (Vec<String>, Vec<f64>) {
    let mut texts = Vec::with_capacity(formulas.len());
    let mut cold_us = Vec::with_capacity(formulas.len());
    for (rank, f) in formulas.iter().enumerate() {
        let req = request(f);
        let t0 = Instant::now();
        let res = router.submit(&req);
        let t1 = Instant::now();
        also(rank as u64, &req);
        samples.attempted += 1;
        match res {
            Ok(r) if !r.cache_hit => {
                cold_us.push((t1 - t0).as_secs_f64() * 1e6);
                texts.push(r.outcome_text);
            }
            Ok(_) => {
                samples.fail(format!("warm-up formula {rank} was already cached"));
                texts.push(String::new());
            }
            Err(e) => {
                samples.fail(format!("warm-up formula {rank}: {e}"));
                texts.push(String::new());
            }
        }
    }
    (texts, cold_us)
}

/// Cross-checks every formula's served verdict against a from-scratch
/// `verify_ltl` of the `toggle` service.
pub fn cross_check(formulas: &[String], texts: &[String], out: &mut Vec<String>) {
    let (service, _) =
        wave_serve::registry::resolve_with_sources("toggle").expect("toggle is registered");
    for (f, text) in formulas.iter().zip(texts) {
        let property = wave_logic::parser::parse_property(f).expect("corpus formulas parse");
        let fresh = verify_ltl(&service, &property, &SymbolicOptions::default())
            .map(|o| verdict_to_json(&o.verdict).encode());
        let served = wave_serve::json::Json::parse(text)
            .ok()
            .and_then(|j| j.get("verdict").map(|v| v.encode()));
        if fresh.ok() != served {
            out.push(format!(
                "served verdict for `{f}` differs from a from-scratch run"
            ));
        }
    }
}

/// Spans around the wire layers for one request, re-enacted beside the
/// real `Router::submit`: a bare connect to the owner, the request
/// decode, and the whole server-side `handle_line` on `engine` (a
/// stand-alone engine warmed with the same corpus).
pub fn shadow_wire(
    tr: &mut Tracer,
    rid: u64,
    router: &Router,
    req: &VerifyRequest,
    engine: &Engine,
) {
    let owner = router.owner_of(req);
    if let Some(node) = router.nodes().into_iter().find(|n| Some(n.id) == owner) {
        let _ = tr.time("net.connect", rid, 0, || TcpClient::connect(node.addr));
    }
    let line = Request::Verify(req.clone()).encode();
    let _ = tr.time("codec.decode", rid, 0, || Request::decode(&line));
    tr.time("server.handle_line", rid, 0, || handle_line(engine, &line));
}

/// Retires one node and re-joins it. The retired engine's counters are
/// snapshotted first, because the re-join replaces it in the fleet;
/// the returned tally covers every engine the fleet has run.
pub fn drill(fleet: &mut LocalFleet) -> (Drill, Tally) {
    let mut tally = Tally::default();
    tally.add(&fleet.engines()[DRILL_NODE as usize].counters);
    fleet.retire(DRILL_NODE);
    let replayed = |f: &LocalFleet| f.router().counters.replayed_records.load(Ordering::Relaxed);
    let before = replayed(fleet);
    let t = Instant::now();
    fleet.rejoin(DRILL_NODE).expect("re-join the retired node");
    let rejoin_ms = t.elapsed().as_secs_f64() * 1e3;
    let replayed_records = replayed(fleet) - before;
    for e in fleet.engines() {
        tally.add(&e.counters);
    }
    let drill = Drill {
        rejoin_ms,
        replayed_records,
        replicated_applied: tally.replicated_applied,
    };
    (drill, tally)
}

/// What the wire probe adds to a traced run.
pub struct Probe {
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    pub drill: Drill,
}

/// A closed loop of cache hits through a fresh fleet, traced at the
/// wire layers, then the re-join drill.
pub fn probe(cfg: &Config, tr: &mut Tracer, first_rid: u64) -> Probe {
    let formulas = formulas();
    let mut fleet = launch(cfg.dir("probe"));
    let engine = Engine::new(EngineOptions::default());
    let mut samples = Samples::default();
    let (texts, _) = warm_up(fleet.router(), &formulas, &mut samples, |_, req| {
        let _ = engine.submit(req);
    });
    let zipf = sampler();
    let mut rng = SplitMix64::seed_from_u64(cfg.seed ^ 0x5052_4f42);
    let n = if cfg.smoke {
        PROBE_REQUESTS / 10
    } else {
        PROBE_REQUESTS
    };
    for i in 0..n {
        let rank = zipf.sample(&mut rng);
        let req = request(&formulas[rank]);
        let rid = first_rid + i as u64;
        let t0 = Instant::now();
        let reply = fleet.router().submit(&req);
        let t1 = Instant::now();
        tr.record("router.submit", rid, 0, t0, t1);
        shadow_wire(tr, rid, fleet.router(), &req, &engine);
        samples.record(
            (t1 - t0).as_secs_f64() * 1e6,
            check_hit(&reply, &texts[rank]),
        );
    }
    let (drill, tally) = drill(&mut fleet);
    let mut violations = Vec::new();
    tally.check(samples.attempted, 0, CORPUS as u64, &mut violations);
    Probe {
        attempted: samples.attempted,
        failed: samples.failed,
        violations,
        drill,
    }
}
