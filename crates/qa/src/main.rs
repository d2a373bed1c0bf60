//! The `wave-qa` campaign driver.
//!
//! ```text
//! wave-qa [--seeds N] [--start S] [--budget SECS] [--json] [--incremental]
//! ```
//!
//! Runs seeds `S .. S+N` through the differential oracle until the seed
//! range or the wall-clock budget is exhausted, whichever comes first.
//! Deterministic and fully offline: the same seed range always replays
//! the same cases. On any flaw the shrunk repro is printed in the
//! parseable spec syntax and the exit code is 1 — this is what the CI
//! `qa-fuzz` job gates on.
//!
//! `--incremental` switches to the warm-engine edit-sequence campaign
//! ([`wave_qa::inc`]): each seed's spec is pushed through a fresh
//! `wave-serve` engine, then mutated repeatedly, demanding every warm
//! answer match a cold run byte for byte (the CI `qa-inc` job).

use std::process::ExitCode;
use std::time::Instant;

use wave_qa::diff::DiffOptions;
use wave_qa::inc::IncOptions;
use wave_qa::{run_inc_seed, run_seed};

struct Args {
    seeds: u64,
    start: u64,
    budget_secs: u64,
    json: bool,
    incremental: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seeds: 50,
        start: 0,
        budget_secs: 60,
        json: false,
        incremental: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut num = |name: &str| -> Result<u64, String> {
            it.next()
                .ok_or_else(|| format!("{name} needs a value"))?
                .parse::<u64>()
                .map_err(|e| format!("{name}: {e}"))
        };
        match flag.as_str() {
            "--seeds" => args.seeds = num("--seeds")?,
            "--start" => args.start = num("--start")?,
            "--budget" => args.budget_secs = num("--budget")?,
            "--json" => args.json = true,
            "--incremental" => args.incremental = true,
            "--help" | "-h" => {
                println!(
                    "usage: wave-qa [--seeds N] [--start S] [--budget SECS] [--json] \
                     [--incremental]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

/// The `--incremental` campaign loop.
fn run_incremental(args: &Args) -> ExitCode {
    let opts = IncOptions::default();
    let t0 = Instant::now();
    let mut cases = 0u64;
    let mut edits = 0u64;
    let mut skipped = 0u64;
    let mut cache_hits = 0u64;
    let mut tier_hits = 0u64;
    let mut cold_runs = 0u64;
    let mut flawed: Vec<u64> = Vec::new();
    let mut out_of_budget = false;
    for seed in args.start..args.start.saturating_add(args.seeds) {
        if t0.elapsed().as_secs() >= args.budget_secs {
            out_of_budget = true;
            break;
        }
        let report = run_inc_seed(seed, &opts);
        cases += 1;
        edits += report.edits as u64;
        skipped += report.skipped as u64;
        cache_hits += report.cache_hits as u64;
        tier_hits += report.incremental_hits as u64;
        cold_runs += report.cold_runs as u64;
        if !report.clean() {
            flawed.push(seed);
            eprintln!(
                "== seed {seed}: {} incremental flaw(s) ==",
                report.flaws.len()
            );
            for f in &report.flaws {
                eprintln!("  [{:?}] {}", f.kind, f.detail);
            }
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    if args.json {
        println!(
            "{{\"cases\": {cases}, \"edits\": {edits}, \"skipped\": {skipped}, \
             \"cache_hits\": {cache_hits}, \"tier_hits\": {tier_hits}, \
             \"cold_runs\": {cold_runs}, \"flawed_seeds\": {flawed:?}, \
             \"out_of_budget\": {out_of_budget}, \"elapsed_s\": {elapsed:.3}}}"
        );
    } else {
        println!(
            "wave-qa --incremental: {cases} case(s), {edits} edit(s) ({skipped} skipped); \
             {cache_hits} cache / {tier_hits} tier / {cold_runs} cold; {} flaw(s); \
             {elapsed:.1}s{}",
            flawed.len(),
            if out_of_budget { " (budget hit)" } else { "" }
        );
    }
    if flawed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wave-qa: {e}");
            return ExitCode::from(2);
        }
    };
    if args.incremental {
        return run_incremental(&args);
    }
    let opts = DiffOptions::default();
    let t0 = Instant::now();
    let mut cases = 0u64;
    let mut holds = 0u64;
    let mut violated = 0u64;
    let mut inconclusive = 0u64;
    let mut enum_violations = 0u64;
    let mut replays = 0u64;
    let mut pruned = 0u64;
    let mut breadth_first = 0u64;
    let mut flawed: Vec<u64> = Vec::new();
    let mut out_of_budget = false;

    for seed in args.start..args.start.saturating_add(args.seeds) {
        if t0.elapsed().as_secs() >= args.budget_secs {
            out_of_budget = true;
            break;
        }
        let (report, repro) = run_seed(seed, &opts);
        cases += 1;
        match report.sym.as_str() {
            "holds" => holds += 1,
            "violated" => violated += 1,
            _ => {}
        }
        if report.inconclusive {
            inconclusive += 1;
        }
        enum_violations += report.enum_violations as u64;
        replays += report.replays as u64;
        pruned += u64::from(report.pruned > 0);
        breadth_first += u64::from(report.breadth_first);
        if !report.clean() {
            flawed.push(seed);
            eprintln!("== seed {seed}: {} flaw(s) ==", report.flaws.len());
            for f in &report.flaws {
                eprintln!("  [{:?}] {}", f.kind, f.detail);
            }
            if let Some(min) = repro {
                eprintln!("-- shrunk repro (spec syntax) --");
                eprintln!("{}", min.to_source());
            }
        } else if !args.json {
            println!(
                "seed {seed}: {} [{}] dbs={} cex={} replayed={}",
                report.sym, report.class, report.dbs, report.enum_violations, report.replays
            );
        }
    }

    let elapsed = t0.elapsed().as_secs_f64();
    if args.json {
        // Flat summary object; no string in it needs escaping.
        println!(
            "{{\"cases\": {cases}, \"sym_holds\": {holds}, \"sym_violated\": {violated}, \
             \"inconclusive\": {inconclusive}, \"enum_violations\": {enum_violations}, \
             \"replayed\": {replays}, \"pruned_cases\": {pruned}, \
             \"breadth_first_cases\": {breadth_first}, \
             \"flawed_seeds\": {flawed:?}, \
             \"out_of_budget\": {out_of_budget}, \"elapsed_s\": {elapsed:.3}}}"
        );
    } else {
        println!(
            "wave-qa: {cases} case(s), {holds} hold / {violated} violated / {inconclusive} \
             inconclusive; {enum_violations} counterexample(s), {replays} replayed; \
             {pruned} pruned, {breadth_first} breadth-first; {} flaw(s); {elapsed:.1}s{}",
            flawed.len(),
            if out_of_budget { " (budget hit)" } else { "" }
        );
    }
    if flawed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
