//! The `wave-serve` binary: `serve`, `submit` and `stats` subcommands.
//!
//! ```text
//! wave-serve serve  [--addr 127.0.0.1:7878] [--workers N] [--queue N]
//!                   [--cache-bytes N] [--persist FILE]
//! wave-serve submit [--addr 127.0.0.1:7878] --service NAME --property TEXT
//!                   [--mode ltl|error_free] [--node-limit N]
//!                   [--deadline-us N]
//! wave-serve stats  [--addr 127.0.0.1:7878]
//! wave-serve drain  [--addr 127.0.0.1:7878] [--deadline-ms N]
//! ```

use std::process::ExitCode;
use std::sync::Arc;

use wave_serve::client::TcpClient;
use wave_serve::codec::{Mode, VerifyRequest};
use wave_serve::engine::{Engine, EngineOptions};
use wave_serve::server::Server;

const DEFAULT_ADDR: &str = "127.0.0.1:7878";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("drain") => cmd_drain(&args[1..]),
        _ => {
            eprintln!("usage: wave-serve <serve|submit|stats|drain> [options]");
            eprintln!(
                "  serve  [--addr A] [--workers N] [--queue N] [--cache-bytes N] [--persist FILE]"
            );
            eprintln!("  submit [--addr A] --service NAME --property TEXT [--mode ltl|error_free]");
            eprintln!("         [--node-limit N] [--deadline-us N]");
            eprintln!("  stats  [--addr A]");
            eprintln!("  drain  [--addr A] [--deadline-ms N]");
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

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let addr = flag(args, "--addr").unwrap_or(DEFAULT_ADDR);
    let opts = EngineOptions {
        workers: flag_num(args, "--workers", EngineOptions::default().workers)?,
        queue_capacity: flag_num(args, "--queue", EngineOptions::default().queue_capacity)?,
        cache_bytes: flag_num(args, "--cache-bytes", EngineOptions::default().cache_bytes)?,
        persist: flag(args, "--persist").map(Into::into),
        ..EngineOptions::default()
    };
    let engine = Arc::new(Engine::new(opts));
    let server = Server::bind(addr, engine).map_err(|e| format!("bind {addr}: {e}"))?;
    let local = server.local_addr().map_err(|e| e.to_string())?;
    // Scripts scrape this line for the (possibly ephemeral) port.
    println!("wave-serve listening on {local}");
    server.run().map_err(|e| e.to_string())
}

fn cmd_submit(args: &[String]) -> Result<(), String> {
    let addr = flag(args, "--addr").unwrap_or(DEFAULT_ADDR);
    let service = flag(args, "--service").ok_or("missing --service")?;
    let mode_arg = flag(args, "--mode").unwrap_or("ltl");
    let mode = Mode::parse(mode_arg).ok_or_else(|| format!("unknown mode: {mode_arg}"))?;
    let property = flag(args, "--property").unwrap_or("").to_string();
    if property.is_empty() && mode == Mode::Ltl {
        return Err("missing --property".into());
    }
    let req = VerifyRequest {
        service: service.to_string(),
        property,
        mode,
        node_limit: flag_num(args, "--node-limit", 0usize)?,
        threads: 1,
        deadline_us: flag_num(args, "--deadline-us", 0u64)?,
        check_owner: false,
    };
    let mut client = TcpClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let reply = client.verify(&req).map_err(|e| e.to_string())?;
    println!(
        "{{\"fingerprint\":\"{}\",\"cache_hit\":{},\"class\":\"{}\",\"outcome\":{}}}",
        reply.fingerprint.to_hex(),
        reply.cache_hit,
        reply.class,
        reply.outcome_text,
    );
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let addr = flag(args, "--addr").unwrap_or(DEFAULT_ADDR);
    let mut client = TcpClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let stats = client.stats().map_err(|e| e.to_string())?;
    println!("{}", stats.encode());
    Ok(())
}

fn cmd_drain(args: &[String]) -> Result<(), String> {
    let addr = flag(args, "--addr").unwrap_or(DEFAULT_ADDR);
    let deadline_ms: u64 = flag_num(args, "--deadline-ms", 5_000)?;
    // The read timeout must outlive the server-side drain wait.
    let timeout = std::time::Duration::from_millis(deadline_ms.saturating_add(30_000));
    let mut client =
        TcpClient::connect_timeout(addr, timeout).map_err(|e| format!("connect {addr}: {e}"))?;
    let drained = client
        .drain(std::time::Duration::from_millis(deadline_ms))
        .map_err(|e| e.to_string())?;
    println!("{{\"drained\":{drained}}}");
    if drained {
        Ok(())
    } else {
        Err("drain deadline elapsed with jobs still in flight".into())
    }
}
