//! Per-layer metrics: counters recorded at the benchmark's calls into
//! each layer, and the fixed list of names every traced run reports.
//!
//! Every workload reports every name. A count is 0 where the workload
//! never calls the layer (the analysis workload replays nothing); every
//! time below is measured on every workload, because each traced run
//! calls each timed layer at least once, directly or through a probe.

use std::collections::BTreeMap;
use std::time::Instant;

use concolic::AnalysisResult;
use replay::ReplayResult;
use retrace_core::{AnalysisBundle, Workbench};
use search::FrontierStats;

use crate::stats::ratio;
use crate::trace::{self, count, span, Span};
use crate::{metric, Metric};

/// The span around the traced pass; `<layer>.self_pct` is measured
/// under it.
pub const PASS_SPAN: &str = "bench.pass";

/// Layers with spans, in report order (`<layer>.self_pct`).
const SPAN_LAYERS: &[&str] = &[
    "bench",
    "workloads",
    "minic",
    "concolic",
    "solver",
    "staticax",
    "instrument",
    "replay",
    "triage",
    "check",
];

/// Frontier counters reported per engine.
const SEARCH_FIELDS: &[&str] = &[
    "offered",
    "scheduled",
    "skipped_duplicate",
    "skipped_quota",
    "restarts",
    "repairs_scheduled",
    "repair_cutoffs",
    "forced_unsat",
];

fn count_frontier(engine: &str, f: &FrontierStats) {
    let vals = [
        f.offered,
        f.scheduled,
        f.skipped_duplicate,
        f.skipped_quota,
        f.restarts,
        f.repairs_scheduled,
        f.repair_cutoffs,
        f.forced_unsat,
    ];
    for (name, v) in SEARCH_FIELDS.iter().zip(vals) {
        count(&format!("search.{engine}.{name}"), v as f64);
    }
    count(&format!("search.{engine}.solved_sat"), f.solved_sat as f64);
    count(
        &format!("search.{engine}.solved_unsat"),
        f.solved_unsat as f64,
    );
}

/// Records the counters of one concolic analysis.
fn count_analysis(r: &AnalysisResult) {
    count("concolic.analyses", 1.0);
    count("concolic.runs", r.runs as f64);
    count("concolic.instrs", r.total_instrs as f64);
    count("concolic.arena_nodes", r.arena_nodes as f64);
    count("concolic.coverage_pct_sum", r.labels.coverage_pct());
    count("concolic.solver_calls", r.solver_calls as f64);
    count("concolic.solver_sat", r.solver_sat as f64);
    count("concolic.cache_hits", r.cache_hits as f64);
    count("concolic.prefix_lits_saved", r.prefix_len_saved as f64);
    count_frontier("concolic", &r.frontier);
}

/// `Workbench::analyze` in one `concolic.analyze` span (the concolic
/// engine plus the static analysis, which the program probe times on its
/// own), with its counters recorded. Traced and untraced runs take this
/// same path; only the recording is off in the latter.
pub fn analyze(wb: &Workbench, max_runs: usize) -> AnalysisBundle {
    let t = Instant::now();
    let bundle = span("concolic.analyze", || wb.analyze(max_runs));
    count("concolic.analyze_us", t.elapsed().as_secs_f64() * 1e6);
    count_analysis(&bundle.dyn_result);
    bundle
}

/// Records the counters of one replay.
pub fn count_replay(r: &ReplayResult) {
    count("replay.replays", 1.0);
    count("replay.reproduced", f64::from(u8::from(r.reproduced)));
    count("replay.runs", r.runs as f64);
    count("replay.instrs", r.total_instrs as f64);
    count("replay.solver_calls", r.solver_calls as f64);
    count("replay.cache_hits", r.cache_hits as f64);
    count("replay.prefix_lits_saved", r.prefix_len_saved as f64);
    count("replay.syscall_divergences", r.syscall_divergences as f64);
    count("replay.cursor_overruns", r.cursor_overruns as f64);
    count(
        "replay.checkpoint_divergences",
        r.checkpoint_divergences as f64,
    );
    count_frontier("replay", &r.frontier);
}

/// Records one instrumented user-site run (a `logged_run`).
pub fn count_deployment(log_bits: u64, syscalls: u64, requests: u64, wall_us: f64) {
    count("instrument.deployments", 1.0);
    count("instrument.log_bits", log_bits as f64);
    count("instrument.deploy_us", wall_us);
    count("oskit.syscalls", syscalls as f64);
    count("oskit.requests", requests as f64);
}

/// Records one instrumentation plan build.
pub fn count_plan(wall_us: f64) {
    count("instrument.plans", 1.0);
    count("instrument.plan_us_sum", wall_us);
}

/// The per-layer metrics of a traced run, in a fixed order. `overhead_s`
/// is traced minus untraced pass time.
pub fn finish(
    spans: &[Span],
    c: &BTreeMap<String, f64>,
    traced_pass_s: f64,
    untraced_pass_s: f64,
) -> Vec<Metric> {
    let g = |k: &str| c.get(k).copied().unwrap_or(0.0);
    let mut m = Vec::new();

    // solver (probe)
    for v in ["sat", "refuted", "unknown"] {
        m.push(metric(
            &format!("solver.{v}_calls"),
            g(&format!("solver.{v}_calls")),
            "count",
        ));
    }
    m.push(metric(
        "solver.sat_ms",
        ratio(g("solver.sat_us"), g("solver.sat_calls")) / 1e3,
        "ms",
    ));
    m.push(metric(
        "solver.unknown_ms",
        ratio(g("solver.unknown_us"), g("solver.unknown_calls")) / 1e3,
        "ms",
    ));
    m.push(metric(
        "solver.unknown_iters",
        ratio(g("solver.unknown_iters"), g("solver.unknown_calls")),
        "count",
    ));
    let solve_us = g("solver.sat_us") + g("solver.refuted_us") + g("solver.unknown_us");
    m.push(metric(
        "solver.unknown_time_pct",
        100.0 * ratio(g("solver.unknown_us"), solve_us),
        "%",
    ));
    m.push(metric(
        "solver.probe_skipped",
        g("solver.probe_skipped"),
        "count",
    ));

    // engine-side solver and cache counts
    for k in [
        "replay.solver_calls",
        "replay.cache_hits",
        "replay.prefix_lits_saved",
        "concolic.solver_calls",
        "concolic.solver_sat",
        "concolic.cache_hits",
        "concolic.prefix_lits_saved",
    ] {
        m.push(metric(k, g(k), "count"));
    }

    // search, per engine
    for engine in ["concolic", "replay"] {
        for f in SEARCH_FIELDS {
            let k = format!("search.{engine}.{f}");
            m.push(metric(&k, g(&k), "count"));
        }
        let sat = g(&format!("search.{engine}.solved_sat"));
        let unsat = g(&format!("search.{engine}.solved_unsat"));
        m.push(metric(
            &format!("search.{engine}.sat_ratio"),
            ratio(sat, sat + unsat),
            "ratio",
        ));
    }

    // concolic
    m.push(metric(
        "concolic.analyze_s",
        g("concolic.analyze_us") / 1e6,
        "s",
    ));
    m.push(metric(
        "concolic.run_ms",
        ratio(g("concolic.probe_run_us"), g("concolic.probe_runs")) / 1e3,
        "ms",
    ));
    for k in ["concolic.runs", "concolic.instrs", "concolic.arena_nodes"] {
        m.push(metric(k, g(k), "count"));
    }
    m.push(metric(
        "concolic.coverage_pct",
        ratio(g("concolic.coverage_pct_sum"), g("concolic.analyses")),
        "%",
    ));

    // staticax (probe, per program)
    m.push(metric(
        "staticax.analyze_ms",
        ratio(g("staticax.analyze_us"), g("staticax.analyses")) / 1e3,
        "ms",
    ));
    m.push(metric(
        "staticax.literal_clusters_ms",
        ratio(g("staticax.literal_clusters_us"), g("staticax.analyses")) / 1e3,
        "ms",
    ));
    for k in ["staticax.symbolic_locs", "staticax.implications"] {
        m.push(metric(k, g(k), "count"));
    }

    // replay
    for k in [
        "replay.replays",
        "replay.reproduced",
        "replay.runs",
        "replay.syscall_divergences",
        "replay.cursor_overruns",
        "replay.checkpoint_divergences",
    ] {
        m.push(metric(k, g(k), "count"));
    }
    m.push(metric(
        "replay.instrs_per_run",
        ratio(g("replay.instrs"), g("replay.runs")),
        "count",
    ));

    // instrument
    m.push(metric(
        "instrument.plan_us",
        ratio(g("instrument.plan_us_sum"), g("instrument.plans")),
        "us",
    ));
    m.push(metric(
        "instrument.deploy_us",
        ratio(g("instrument.deploy_us"), g("instrument.deployments")),
        "us",
    ));
    m.push(metric(
        "instrument.deployments",
        g("instrument.deployments"),
        "count",
    ));
    m.push(metric(
        "instrument.log_bits",
        ratio(g("instrument.log_bits"), g("instrument.deployments")),
        "count",
    ));
    m.push(metric(
        "instrument.units_overhead_pct",
        100.0
            * (ratio(
                g("instrument.overhead_logged_units"),
                g("instrument.overhead_base_units"),
            ) - 1.0),
        "%",
    ));
    m.push(metric(
        "instrument.logging_wall_pct",
        100.0 * (ratio(g("instrument.overhead_logged_us"), g("minic.baseline_us")) - 1.0),
        "%",
    ));

    // minic
    m.push(metric(
        "minic.compile_ms",
        ratio(g("minic.compile_us"), g("minic.compiles")) / 1e3,
        "ms",
    ));
    m.push(metric(
        "minic.baseline_us",
        ratio(g("minic.baseline_us"), g("minic.baseline_runs")),
        "us",
    ));
    m.push(metric(
        "minic.instrs_per_s",
        ratio(g("minic.baseline_instrs"), g("minic.baseline_us") / 1e6),
        "1/s",
    ));

    // oskit
    m.push(metric(
        "oskit.syscalls_per_deploy",
        ratio(g("oskit.syscalls"), g("instrument.deployments")),
        "count",
    ));
    m.push(metric("oskit.requests", g("oskit.requests"), "count"));

    // triage
    for k in ["triage.reports", "triage.classes"] {
        m.push(metric(k, g(k), "count"));
    }
    m.push(metric(
        "triage.dedup_ratio",
        ratio(g("triage.reports"), g("triage.classes")),
        "ratio",
    ));

    // workloads
    m.push(metric(
        "workloads.gen_ms",
        g("workloads.gen_us") / 1e3,
        "ms",
    ));

    // where the traced pass's time went, by layer
    let by_layer = trace::self_by_layer(spans, Some(PASS_SPAN));
    let total: f64 = by_layer.values().sum();
    for l in SPAN_LAYERS {
        let v = by_layer.get(*l).copied().unwrap_or(0.0);
        m.push(metric(
            &format!("{l}.self_pct"),
            100.0 * ratio(v, total),
            "%",
        ));
    }

    // tracing overhead on the pass: measured (traced minus untraced,
    // within the machine's noise) and its floor from the tracer's cost
    let pass_spans = trace::in_subtree(spans, Some(PASS_SPAN))
        .iter()
        .filter(|&&x| x)
        .count();
    let span_ns = trace::span_cost_ns();
    m.push(metric("trace.pass_spans", pass_spans as f64, "count"));
    m.push(metric("trace.span_ns", span_ns, "ns"));
    m.push(metric(
        "trace.cost_pct",
        100.0 * ratio(pass_spans as f64 * span_ns / 1e9, untraced_pass_s),
        "%",
    ));
    m.push(metric(
        "trace.overhead_s",
        traced_pass_s - untraced_pass_s,
        "s",
    ));
    m.push(metric(
        "trace.overhead_pct",
        100.0 * ratio(traced_pass_s - untraced_pass_s, untraced_pass_s),
        "%",
    ));
    m
}
