//! Deterministic guard: every metric that counts work (not time) must
//! read the same on two runs of the same seed, end-to-end and per layer.
//!
//! Run with `cargo test --release --manifest-path benchmark/Cargo.toml`
//! (about five minutes: the replay workload's traced run is the long
//! one). The counts are printed, so a change can cite them.

use std::collections::BTreeMap;
use std::process::Command;

use serde::Deserialize;

const WORKLOADS: [&str; 3] = ["userver_replay", "userver_analysis", "fleet_triage"];

/// Metrics that count work: the rest measure time or a share of it.
fn counts_work(name: &str, unit: &str) -> bool {
    matches!(unit, "count" | "ratio" | "bytes")
        || matches!(
            name,
            "checked_pct" | "concolic.coverage_pct" | "instrument.units_overhead_pct"
        )
}

/// One metric of the result line.
#[derive(Deserialize)]
struct Value {
    value: f64,
    unit: String,
}

/// The benchmark's result line.
#[derive(Deserialize)]
struct ResultLine {
    correct: bool,
    metrics: BTreeMap<String, Value>,
}

/// Runs the benchmark once; returns its metrics by name.
fn run(workload: &str, trace: bool) -> BTreeMap<String, Value> {
    let out = Command::new(env!("CARGO_BIN_EXE_retrace-perf"))
        .args(["--workload", workload, "--seed", "42", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark runs");
    assert!(
        out.status.success(),
        "{workload} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let last = stdout.lines().last().expect("a result line");
    let line: ResultLine = serde_json::from_str(last).expect("result line parses");
    assert!(line.correct, "{workload}: {last}");
    line.metrics
}

fn assert_counts_repeat(workload: &str, trace: bool) {
    let a = run(workload, trace);
    let b = run(workload, trace);
    assert_eq!(
        a.keys().collect::<Vec<_>>(),
        b.keys().collect::<Vec<_>>(),
        "{workload}: same metric names"
    );
    for (name, va) in &a {
        if !counts_work(name, &va.unit) {
            continue;
        }
        assert_eq!(
            va.value, b[name].value,
            "{workload} (trace {trace}): {name} differs between runs"
        );
        println!("{workload} {name} = {} {}", va.value, va.unit);
    }
}

#[test]
fn end_to_end_counts_repeat() {
    for w in WORKLOADS {
        assert_counts_repeat(w, false);
    }
}

#[test]
fn per_layer_counts_repeat() {
    for w in WORKLOADS {
        assert_counts_repeat(w, true);
    }
}
