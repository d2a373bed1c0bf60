//! `wave_benchmark` — the end-to-end benchmark of the wave verifier
//! and its service. See `BENCHMARK.md` next to this package.
//!
//! ```text
//! wave_benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke]
//!     one workload in this process; the last stdout line is its result,
//!     and the exit code is 1 when a check failed
//! wave_benchmark run [--runs N] [--seed N] [--seconds S] [--trace] [--smoke]
//!                    [--out FILE]
//!     every workload, each in a child process, in alternating order
//! wave_benchmark compare A.ndjson B.ndjson [--spec BENCHMARK.json]
//!     medians of two results files, checked against the bounds
//! ```

mod closed;
mod common;
mod host;
mod json;
mod layers;
mod pipeline;
mod stats;
mod trace;
mod wire;
mod workloads;

use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

use common::{Config, Report};
use workloads::cold_checkout::ColdCheckout;
use workloads::cold_corpus::ColdCorpus;
use workloads::edit_session::EditSession;

const WORKLOADS: [&str; 4] = ["cold_checkout", "cold_corpus", "edit_session", "serve_zipf"];
const DEFAULT_SECONDS: f64 = 20.0;
/// Where runs leave their trace files and scratch journals, relative to
/// the directory the benchmark runs in.
const OUT_DIR: &str = "target/wave-benchmark";

fn main() {
    let start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("compare") => compare(&args[1..]),
        _ => run_one(&args, start),
    };
    std::process::exit(code);
}

fn usage(why: &str) -> i32 {
    eprintln!("wave_benchmark: {why}");
    eprintln!(
        "usage: wave_benchmark --workload <{}> --seed N --seconds S --trace 0|1 [--smoke]\n       \
         wave_benchmark run [--runs N] [--seed N] [--seconds S] [--trace] [--smoke] [--out FILE]\n       \
         wave_benchmark compare A.ndjson B.ndjson [--spec BENCHMARK.json]",
        WORKLOADS.join("|")
    );
    2
}

fn value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match value(args, flag) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad value for {flag}: {v}")),
    }
}

/// Removes the per-process scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_one(args: &[String], start: Instant) -> i32 {
    let Some(workload) = value(args, "--workload") else {
        return usage("missing --workload");
    };
    if !WORKLOADS.contains(&workload) {
        return usage(&format!("unknown workload {workload}"));
    }
    let (seed, seconds, trace) = match (
        parsed(args, "--seed", 1u64),
        parsed(args, "--seconds", DEFAULT_SECONDS),
        parsed(args, "--trace", 0u8),
    ) {
        (Ok(a), Ok(b), Ok(c)) if b > 0.0 && c <= 1 => (a, b, c == 1),
        (Err(e), ..) | (_, Err(e), _) | (.., Err(e)) => return usage(&e),
        _ => return usage("--seconds must be positive and --trace 0 or 1"),
    };
    let smoke = args.iter().any(|a| a == "--smoke");
    let scratch = Scratch(PathBuf::from(OUT_DIR).join(format!("scratch-{}", std::process::id())));
    let cfg = Config {
        seed,
        seconds: if smoke { seconds / 20.0 } else { seconds },
        smoke,
        scratch: scratch.0.clone(),
        trace_file: PathBuf::from(OUT_DIR).join(format!("{workload}.trace.ndjson")),
        start,
    };
    eprintln!(
        "wave_benchmark: {workload}, seed {seed}, {:.2} s{}",
        cfg.seconds,
        if trace { ", traced" } else { "" }
    );
    let report: Report = match (workload, trace) {
        ("cold_checkout", false) => closed::measure::<ColdCheckout>(&cfg),
        ("cold_checkout", true) => closed::trace::<ColdCheckout>(&cfg),
        ("cold_corpus", false) => closed::measure::<ColdCorpus>(&cfg),
        ("cold_corpus", true) => closed::trace::<ColdCorpus>(&cfg),
        ("edit_session", false) => closed::measure::<EditSession>(&cfg),
        ("edit_session", true) => closed::trace::<EditSession>(&cfg),
        (_, false) => workloads::serve_zipf::measure(&cfg),
        (_, true) => workloads::serve_zipf::trace(&cfg),
    };
    drop(scratch);
    for v in &report.violations {
        eprintln!("  VIOLATION: {v}");
    }
    for m in &report.metrics {
        eprintln!("  {:<28} {:>14.3} {}", m.name, m.value, m.unit);
    }
    eprintln!(
        "  correct: {} ({} attempted, {} failed)",
        report.correct(),
        report.attempted,
        report.failed
    );
    // `run` reads this line to decide whether to repeat the run.
    println!("{DRIFT_LINE}{:?}", report.calib_drift);
    println!("{}", report.to_json());
    if report.correct() {
        0
    } else {
        1
    }
}

/// Prefix of the stdout line that carries a run's calibration drift.
const DRIFT_LINE: &str = "calibration drift ";

/// Runs every workload in child processes of this binary. Runs
/// alternate the workload order; a correct run whose host calibration
/// drifted more than [`host::NOISY_DRIFT`] across it is repeated once.
fn run_all(args: &[String]) -> i32 {
    let (runs, seed0, seconds) = match (
        parsed(args, "--runs", 1u64),
        parsed(args, "--seed", 1u64),
        parsed(args, "--seconds", DEFAULT_SECONDS),
    ) {
        (Ok(a), Ok(b), Ok(c)) => (a, b, c),
        (Err(e), ..) | (_, Err(e), _) | (.., Err(e)) => return usage(&e),
    };
    let trace = args.iter().any(|a| a == "--trace");
    let smoke = args.iter().any(|a| a == "--smoke");
    let mut out = match value(args, "--out").map(std::fs::File::create).transpose() {
        Ok(f) => f,
        Err(e) => return usage(&format!("cannot create --out file: {e}")),
    };
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let mut status = 0;
    for run in 0..runs {
        let mut order = WORKLOADS;
        if run % 2 == 1 {
            order.reverse();
        }
        let seed = seed0 + run;
        for w in order {
            let mut retried = false;
            loop {
                let mut cmd = Command::new(&exe);
                cmd.args(["--workload", w, "--seed", &seed.to_string()])
                    .args(["--seconds", &seconds.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }])
                    .stderr(Stdio::inherit());
                if smoke {
                    cmd.arg("--smoke");
                }
                let child = cmd.output().expect("spawn a workload child");
                let stdout = String::from_utf8_lossy(&child.stdout);
                let line = stdout.lines().last().unwrap_or_default().to_string();
                let ok = child.status.success()
                    && json::parse(&line).ok().is_some_and(|v| {
                        v.get("correct").and_then(json::Value::bool) == Some(true)
                            && v.get("failed").and_then(json::Value::num) == Some(0.0)
                    });
                if !ok {
                    eprintln!(
                        "wave_benchmark: {w} failed (exit {:?})",
                        child.status.code()
                    );
                    status = 1;
                }
                let drift = stdout
                    .lines()
                    .find_map(|l| l.strip_prefix(DRIFT_LINE)?.parse::<f64>().ok())
                    .unwrap_or(0.0);
                let noisy = drift > host::NOISY_DRIFT;
                // A failed run is kept whatever the host did.
                if noisy && ok && !retried {
                    eprintln!("wave_benchmark: {w} ran on a noisy host (calibration drift {:.1}%), running it again", drift * 100.0);
                    retried = true;
                    continue;
                }
                println!(
                    "{w} seed {seed}{}: {line}",
                    if noisy { " (noisy)" } else { "" }
                );
                if let Some(f) = out.as_mut() {
                    let rec = format!(
                        "{{\"workload\": \"{w}\", \"seed\": {seed}, \"run\": {run}, \"noisy\": {noisy}, \"result\": {}}}",
                        if line.is_empty() { "null" } else { &line }
                    );
                    writeln!(f, "{rec}").expect("write the results file");
                }
                break;
            }
        }
    }
    status
}

/// `workload -> metric -> values` of a results file.
type Table = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn read_results(path: &str) -> Result<Table, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut table = Table::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let workload = rec
            .get("workload")
            .and_then(json::Value::str)
            .unwrap_or("?");
        let metrics = rec.get("result").and_then(|r| r.get("metrics"));
        for (name, m) in metrics.map_or(&[][..], json::Value::fields) {
            if let Some(v) = m.get("value").and_then(json::Value::num) {
                table
                    .entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(table)
}

/// Prints both medians of every metric per workload and, for the
/// end-to-end metrics, whether B stays within the bound of A.
fn compare(args: &[String]) -> i32 {
    let files: Vec<&String> = args.iter().take_while(|a| !a.starts_with("--")).collect();
    let [a, b] = files[..] else {
        return usage("compare needs two results files");
    };
    let spec_path = value(args, "--spec").unwrap_or("BENCHMARK.json");
    let spec = match std::fs::read_to_string(spec_path)
        .map_err(|e| e.to_string())
        .and_then(|t| json::parse(&t))
    {
        Ok(s) => s,
        Err(e) => return usage(&format!("{spec_path}: {e}")),
    };
    let bounds: BTreeMap<String, (String, f64)> = spec
        .get("end_to_end")
        .map_or(&[][..], json::Value::arr)
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.str()?.to_string(),
                (m.get("better")?.str()?.to_string(), m.get("bound")?.num()?),
            ))
        })
        .collect();
    let (ta, tb) = match (read_results(a), read_results(b)) {
        (Ok(x), Ok(y)) => (x, y),
        (Err(e), _) | (_, Err(e)) => return usage(&e),
    };
    let mut status = 0;
    println!(
        "{:<14} {:<28} {:>14} {:>14} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "change", "spreadA", "bound"
    );
    for (workload, metrics) in &ta {
        for (name, va) in metrics {
            let Some(vb) = tb.get(workload).and_then(|m| m.get(name)) else {
                continue;
            };
            let (ma, mb) = (stats::median(va), stats::median(vb));
            let change = if ma != 0.0 {
                100.0 * (mb / ma - 1.0)
            } else {
                0.0
            };
            let spread =
                stats::spread(va).map_or("-".to_string(), |s| format!("{:.1}%", 100.0 * s));
            let (bound, verdict) = match bounds.get(name) {
                Some((better, bound)) => {
                    let pass = stats::within_bound(ma, mb, better, *bound);
                    if !pass {
                        status = 1;
                    }
                    (
                        format!("{:.0}%", bound * 100.0),
                        if pass { "pass" } else { "FAIL" },
                    )
                }
                None => ("-".to_string(), "no bound"),
            };
            println!(
                "{workload:<14} {name:<28} {ma:>14.3} {mb:>14.3} {change:>+7.1}% {spread:>8} {bound:>7}  {verdict}"
            );
        }
    }
    status
}
