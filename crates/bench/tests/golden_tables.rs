//! Golden-file checks for the `retrace-bench` table output (ROADMAP
//! item 5: "nothing asserts their numbers against the paper's").
//!
//! Each test renders a table from a fully deterministic experiment
//! (seeded analysis, seeded replay, no wall-clock columns) and compares
//! it byte-for-byte against a committed golden file. The replay tables
//! are built by `retrace_bench::fixtures` — the same single definition
//! the cache-invariance suite re-renders with the cache off. Regenerate with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p retrace-bench --test golden_tables
//! ```

use instrument::Method;
use retrace_bench::experiments::{analyze_coverages, userver_analysis_bench};
use retrace_bench::fixtures::{check_golden, exp1_replay_table, guarded_crash_table, Knobs};
use retrace_bench::render;
use retrace_bench::setup::{fib, Coverage};

/// Pure rendering shape: alignment, rule, header — no experiment values.
#[test]
fn render_shape_matches_golden() {
    let t = render::table(
        "shape",
        &["col", "value", "wide column"],
        &[
            vec!["a".into(), "1".into(), "x".into()],
            vec!["longer".into(), "22".into(), "y".into()],
        ],
    );
    check_golden("render_shape.txt", &t);
}

/// Table 2 analogue on the fib microbenchmark: instrumented-location
/// counts per configuration. Fully deterministic (seeded analysis).
#[test]
fn fib_location_table_matches_golden() {
    let exp = fib();
    let bundles = analyze_coverages(&exp.wb);
    let rows: Vec<Vec<String>> = [
        ("dynamic", Method::Dynamic),
        ("dynamic+static", Method::DynamicStatic),
        ("static", Method::Static),
        ("all branches", Method::AllBranches),
    ]
    .into_iter()
    .map(|(name, method)| {
        let plan = exp.wb.plan(method, &bundles.hc);
        vec![
            name.to_string(),
            plan.n_instrumented().to_string(),
            exp.wb.cp.n_branches().to_string(),
        ]
    })
    .collect();
    let t = render::table(
        "fib: instrumented branch locations",
        &["config", "instrumented", "total"],
        &rows,
    );
    check_golden("fib_locations.txt", &t);
}

/// The real uServer Table 2: instrumented branch locations per
/// configuration at LC coverage. Fully deterministic (seeded analysis;
/// no wall-clock columns exist in this table).
#[test]
fn userver_location_table_matches_golden() {
    let abench = userver_analysis_bench(42);
    let bundle = abench.wb.analyze(Coverage::Lc.runs());
    let total = abench.wb.cp.n_branches();
    let rows: Vec<Vec<String>> = [
        ("dynamic (lc)", Method::Dynamic),
        ("dynamic+static (lc)", Method::DynamicStatic),
        ("static", Method::Static),
        ("all branches", Method::AllBranches),
    ]
    .into_iter()
    .map(|(name, method)| {
        let plan = abench.wb.plan(method, &bundle);
        vec![
            name.to_string(),
            plan.n_instrumented().to_string(),
            total.to_string(),
        ]
    })
    .collect();
    let t = render::table(
        "uServer: instrumented branch locations (lc analysis)",
        &["config", "instrumented", "total"],
        &rows,
    );
    check_golden("userver_locations.txt", &t);
}

/// The real uServer Table 3, experiment 1 (the fast scenario): replay
/// effort per configuration with the wall-clock column masked — runs,
/// solver calls, instructions, the concretization/repair counters and
/// the prefix-cache ledger are deterministic.
#[test]
fn userver_exp1_replay_table_matches_golden() {
    check_golden(
        "userver_exp1_replay.txt",
        &exp1_replay_table(Knobs::default()),
    );
}

/// Table 3 analogue on a guarded crash: replay effort per configuration,
/// using only deterministic columns (runs, solver calls, VM instructions,
/// prefix-cache ledger — no wall-clock).
#[test]
fn guarded_crash_replay_table_matches_golden() {
    check_golden("guarded_replay.txt", &guarded_crash_table(Knobs::default()));
}
