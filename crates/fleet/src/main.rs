//! The `wave-fleet` binary: `node`, `up`, `stats` and `flap`
//! subcommands.
//!
//! ```text
//! wave-fleet node  --shard N [--addr 127.0.0.1:0] [--journal FILE]
//!                  [--workers N] [--queue N] [--cache-bytes N]
//! wave-fleet up    [--nodes 3] [--addr 127.0.0.1:7979] [--base-dir D]
//!                  [--workers N] [--ship-interval-ms 100]
//! wave-fleet stats [--addr 127.0.0.1:7979]
//! wave-fleet flap  [--seeds 100] [--nodes 3] [--json]
//! ```
//!
//! `node` runs one fleet member (a full wave-serve engine + listener
//! with a shard id and a journal). `up` spawns N `node` children from
//! this same binary, then serves the wave-serve wire protocol on a
//! front-end port, routing each `verify` by content fingerprint and
//! answering `stats` with the aggregated fleet view. `flap` runs the
//! kill/restart chaos campaign under heartbeat-probe faults.

use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use wave_fleet::local::{FleetOptions, ProcessFleet};
use wave_fleet::router::Router;
use wave_serve::client::{ClientError, TcpClient, VerifyReply};
use wave_serve::codec::Request;
use wave_serve::engine::{Engine, EngineOptions};
use wave_serve::server::{read_request_line, write_line, Server};

const DEFAULT_FRONT_ADDR: &str = "127.0.0.1:7979";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("node") => cmd_node(&args[1..]),
        Some("up") => cmd_up(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("flap") => cmd_flap(&args[1..]),
        _ => {
            eprintln!("usage: wave-fleet <node|up|stats|flap> [options]");
            eprintln!("  node  --shard N [--addr A] [--journal FILE] [--workers N]");
            eprintln!("        [--queue N] [--cache-bytes N]");
            eprintln!("  up    [--nodes 3] [--addr A] [--base-dir D] [--workers N]");
            eprintln!("        [--ship-interval-ms 100]");
            eprintln!("  stats [--addr A]");
            eprintln!("  flap  [--seeds 100] [--nodes 3] [--json]");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Minimal `--flag value` parser: returns the value after `flag`.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn flag_num<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("invalid value for {name}: {v}")),
    }
}

/// One fleet member: a wave-serve engine with a shard id and journal.
fn cmd_node(args: &[String]) -> Result<(), String> {
    let addr = flag(args, "--addr").unwrap_or("127.0.0.1:0");
    let opts = EngineOptions {
        workers: flag_num(args, "--workers", EngineOptions::default().workers)?,
        queue_capacity: flag_num(args, "--queue", EngineOptions::default().queue_capacity)?,
        cache_bytes: flag_num(args, "--cache-bytes", EngineOptions::default().cache_bytes)?,
        persist: flag(args, "--journal").map(Into::into),
        shard: flag_num(args, "--shard", 0u32)?,
        ..EngineOptions::default()
    };
    let shard = opts.shard;
    let engine = Arc::new(Engine::new(opts));
    let server = Server::bind(addr, engine).map_err(|e| format!("bind {addr}: {e}"))?;
    let local = server.local_addr().map_err(|e| e.to_string())?;
    // The process fleet scrapes this line for the ephemeral port.
    println!("wave-fleet node {shard} listening on {local}");
    server.run().map_err(|e| e.to_string())
}

/// Boots a whole fleet and serves the front-end protocol.
fn cmd_up(args: &[String]) -> Result<(), String> {
    let nodes: usize = flag_num(args, "--nodes", 3)?;
    let addr = flag(args, "--addr").unwrap_or(DEFAULT_FRONT_ADDR);
    let opts = FleetOptions {
        workers_per_node: flag_num(args, "--workers", 2usize)?,
        ship_interval: Duration::from_millis(flag_num(args, "--ship-interval-ms", 100u64)?),
        dir: flag(args, "--base-dir").map(Into::into),
        ..FleetOptions::default()
    };
    let bin = std::env::current_exe().map_err(|e| e.to_string())?;
    let fleet = ProcessFleet::spawn(&bin, nodes, opts).map_err(|e| format!("spawn fleet: {e}"))?;
    let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
    let local = listener.local_addr().map_err(|e| e.to_string())?;
    for node in fleet.router().nodes() {
        eprintln!("wave-fleet node {} at {}", node.id, node.addr);
    }
    // Scripts scrape this line for the (possibly ephemeral) port.
    println!("wave-fleet listening on {local}");
    for conn in listener.incoming() {
        let Ok(stream) = conn else { continue };
        let router = Arc::clone(fleet.router());
        std::thread::spawn(move || serve_front_conn(stream, &router));
    }
    Ok(())
}

/// One front-end connection: NDJSON requests in, NDJSON replies out,
/// `verify` routed by content fingerprint, `stats` answered with the
/// fleet aggregate.
fn serve_front_conn(stream: TcpStream, router: &Router) {
    let _ = stream.set_nodelay(true);
    let Ok(peer) = stream.try_clone() else { return };
    let mut reader = BufReader::new(peer);
    let mut writer = stream;
    let mut buf = Vec::new();
    while let Some(line) = read_request_line(&mut reader, &mut writer, &mut buf) {
        if line.trim().is_empty() {
            continue;
        }
        let reply = match Request::decode(line) {
            Ok(Request::Verify(req)) => match router.submit(&req) {
                Ok(r) => verify_reply(&r),
                Err(e) => error_reply(&e),
            },
            Ok(Request::Stats) => format!("{{\"ok\":true,\"stats\":{}}}", router.fleet_stats()),
            Ok(_) => {
                "{\"ok\":false,\"error\":\"front end supports verify and stats\",\"kind\":\"bad_request\"}"
                    .to_string()
            }
            Err(e) => format!(
                "{{\"ok\":false,\"error\":{},\"kind\":\"bad_request\"}}",
                wave_serve::json::Json::Str(e.to_string()).encode()
            ),
        };
        if write_line(&mut writer, &reply).is_err() {
            return;
        }
    }
}

/// Encodes a routed verify reply as the line a single node would send:
/// the same envelope keys in the same order, the outcome spliced in
/// verbatim.
fn verify_reply(r: &VerifyReply) -> String {
    format!(
        concat!(
            "{{\"ok\":true,\"fingerprint\":\"{}\",\"cache_hit\":{},\"incremental\":{},",
            "\"class\":\"{}\",\"shard\":{},\"coalesced_waiters\":{},\"outcome\":{}}}"
        ),
        r.fingerprint.to_hex(),
        r.cache_hit,
        r.incremental,
        r.class,
        r.shard,
        r.coalesced_waiters,
        r.outcome_text,
    )
}

/// Encodes a routing failure as a wire error line.
fn error_reply(e: &ClientError) -> String {
    let (kind, msg) = match e {
        ClientError::Draining => ("draining", e.to_string()),
        ClientError::RetryAfter { after_ms } => {
            return format!(
                "{{\"ok\":false,\"error\":\"fleet overloaded\",\"kind\":\"retry_after\",\"after_ms\":{after_ms}}}"
            )
        }
        ClientError::Io(_) | ClientError::Timeout => ("unavailable", e.to_string()),
        ClientError::Server(m) => ("error", m.clone()),
        ClientError::Protocol(m) => ("unavailable", m.clone()),
    };
    format!(
        "{{\"ok\":false,\"error\":{},\"kind\":\"{kind}\"}}",
        wave_serve::json::Json::Str(msg).encode()
    )
}

/// Fetches and prints the fleet aggregate from a front end.
fn cmd_stats(args: &[String]) -> Result<(), String> {
    let addr = flag(args, "--addr").unwrap_or(DEFAULT_FRONT_ADDR);
    let mut client = TcpClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let stats = client.stats().map_err(|e| e.to_string())?;
    println!("{}", stats.encode());
    Ok(())
}

/// Runs the flapping-membership chaos campaign and prints the summary.
fn cmd_flap(args: &[String]) -> Result<(), String> {
    let seeds: u64 = flag_num(args, "--seeds", 100u64)?;
    let nodes: usize = flag_num(args, "--nodes", 3usize)?;
    let json = args.iter().any(|a| a == "--json");
    let report = wave_fleet::flap::run_campaign(seeds, nodes);
    if json {
        println!("{}", report.to_json().encode());
    } else {
        println!("{}", report.summary());
    }
    if report.failures == 0 {
        Ok(())
    } else {
        Err(format!("{} of {} seeds failed", report.failures, seeds))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wave_serve::client::LocalClient;
    use wave_serve::codec::{Mode, VerifyRequest};
    use wave_serve::server::handle_line;

    fn fig2(service: &str) -> VerifyRequest {
        VerifyRequest {
            service: service.into(),
            property: "forall p . G (!ship(p) | paid)".into(),
            mode: Mode::Ltl,
            node_limit: 0,
            threads: 1,
            deadline_us: 0,
            check_owner: false,
        }
    }

    #[test]
    fn verify_reply_is_the_node_line_and_carries_incremental() {
        let engine = Arc::new(Engine::new(EngineOptions::default()));
        let client = LocalClient::new(Arc::clone(&engine));
        client.verify(&fig2("checkout_core")).unwrap();
        // checkout_bench only adds toggles outside the property's cone,
        // so its verdict replays from the tier.
        let replay = client.verify(&fig2("checkout_bench")).unwrap();
        assert!(replay.incremental && !replay.cache_hit);
        let line = verify_reply(&replay);
        assert!(
            line.contains("\"cache_hit\":false,\"incremental\":true,"),
            "{line}"
        );
        // A cache hit answers the same bytes every time, so the node's
        // own line for it is what the front end must send.
        let node_line = handle_line(&engine, &Request::Verify(fig2("checkout_bench")).encode());
        let hit = client.verify(&fig2("checkout_bench")).unwrap();
        assert!(hit.cache_hit);
        assert_eq!(verify_reply(&hit), node_line);
    }
}
