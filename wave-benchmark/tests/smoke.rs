//! Runs every workload at 1/20 scale through the `run` command, so
//! `cargo test` exercises each workload, its correctness checks and
//! the traced run.

use std::process::Command;

const WORKLOADS: [&str; 4] = ["cold_checkout", "cold_corpus", "edit_session", "serve_zipf"];

fn smoke(extra: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_wave_benchmark"))
        .args(["run", "--smoke"])
        .args(extra)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "smoke run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for w in WORKLOADS {
        let line = stdout
            .lines()
            .find(|l| l.starts_with(&format!("{w} seed")))
            .unwrap_or_else(|| panic!("no result for {w}:\n{stdout}"));
        assert!(line.contains("\"correct\": true"), "{line}");
        assert!(line.contains("\"failed\": 0"), "{line}");
    }
    stdout
}

#[test]
fn every_workload_is_correct_at_smoke_scale() {
    let stdout = smoke(&[]);
    for m in [
        "setup_s",
        "latency_p50_us",
        "latency_p90_us",
        "hit_p50_us",
        "throughput_per_s",
        "peak_rss_mb",
    ] {
        assert_eq!(
            stdout.matches(&format!("\"{m}\"")).count(),
            WORKLOADS.len(),
            "{m}"
        );
    }
}

#[test]
fn every_workload_traces_at_smoke_scale() {
    let stdout = smoke(&["--trace"]);
    for m in [
        "engine.submit_us",
        "symbolic.search_us",
        "router.submit_us",
        "trace.overhead_pct",
    ] {
        assert_eq!(
            stdout.matches(&format!("\"{m}\"")).count(),
            WORKLOADS.len(),
            "{m}"
        );
    }
}
