//! `userver_analysis`: pre-ship analysis of the uServer.
//!
//! The pass runs `Workbench::analyze(96)` (concolic under the explorer
//! policy, plus the static analysis) on `userver_analysis_bench`, builds
//! the four Table 2 plans plus `plan_suppressed`, and deploys each plan
//! once on a small seeded request load to price its logging (the user
//! site's bytes). Every pass must give the same labels, coverage,
//! per-method location counts and log sizes as the run's first pass.

use std::time::Instant;

use instrument::{DynLabel, Method, Plan};
use progs::Program;
use retrace_bench::experiments::userver_analysis_bench;
use retrace_bench::setup::{userver_load, Experiment};

use crate::probe::{self, Execution};
use crate::trace::{self, count, span};
use crate::{
    end_to_end, layers, metric, out, repeat_passes, timed, Args, Metric, Outcome, Samples,
};

/// The HC concolic budget (Table 2).
const ANALYSIS_RUNS: usize = 96;
/// Requests in the load each plan is deployed on.
const LOAD_REQUESTS: usize = 64;
/// Requests in the load whose true execution the solver probe negates.
const PROBE_REQUESTS: usize = 2;
/// Set-up samples taken before each untraced pass.
const SETUP_SAMPLES_PER_PASS: usize = 4;
/// Set-ups timed together as one sample: one set-up takes milliseconds.
const SETUPS_PER_SAMPLE: usize = 10;

const PLANS: [(&str, Method, bool); 5] = [
    ("dynamic", Method::Dynamic, false),
    ("static", Method::Static, false),
    ("dynamic+static", Method::DynamicStatic, false),
    ("all", Method::AllBranches, false),
    ("dynamic+static+impl", Method::DynamicStatic, true),
];

struct Setup {
    abench: Experiment,
    load: Experiment,
}

fn setup(seed: u64) -> Setup {
    let t = Instant::now();
    span("workloads.saturation", || {
        workloads::saturation_workload(LOAD_REQUESTS, seed)
    });
    count("workloads.gen_us", t.elapsed().as_secs_f64() * 1e6);
    span("bench.setup", || Setup {
        abench: userver_analysis_bench(seed),
        load: userver_load(LOAD_REQUESTS, seed),
    })
}

/// What one pass decided: compared across passes.
#[derive(Debug, Clone, PartialEq)]
struct Decision {
    coverage_pct: f64,
    dyn_labels: Vec<DynLabel>,
    static_symbolic: Vec<bool>,
    /// Per plan: instrumented locations, log bytes of the load deployment.
    plans: Vec<(usize, u64)>,
}

struct Pass {
    wall_s: f64,
    analyze_ms: f64,
    decision: Decision,
    plans: Vec<Plan>,
    /// Per plan: mean bytes the load deployment logged.
    bytes: f64,
    sane: bool,
}

fn pass(s: &Setup) -> Pass {
    let t0 = Instant::now();
    let bundle = layers::analyze(&s.abench.wb, ANALYSIS_RUNS);
    let analyze_ms = t0.elapsed().as_secs_f64() * 1e3;
    let wb = &s.abench.wb;
    let mut plans = Vec::new();
    for (_, method, suppressed) in PLANS {
        let t = Instant::now();
        let plan = span("instrument.plan", || {
            if suppressed {
                wb.plan_suppressed(method, &bundle)
            } else {
                wb.plan(method, &bundle)
            }
        });
        layers::count_plan(t.elapsed().as_secs_f64() * 1e6);
        plans.push(plan);
    }
    let mut sane = bundle.coverage_pct() > 0.0;
    let mut per_plan = Vec::new();
    for plan in &plans {
        let t = Instant::now();
        let run = span("instrument.logged_run", || {
            s.load.wb.logged_run(plan, &s.load.parts)
        });
        layers::count_deployment(
            run.log_bits,
            run.meter.syscalls,
            run.requests,
            t.elapsed().as_secs_f64() * 1e6,
        );
        sane &= run.report.is_none() && run.requests == LOAD_REQUESTS as u64;
        per_plan.push((
            plan.n_instrumented(),
            run.log_bits.div_ceil(8) + run.syscall_log_bytes,
        ));
    }
    let wall_s = t0.elapsed().as_secs_f64();
    // Plan algebra that holds for any analysis: all-branches logs every
    // location, suppression only removes bits, the combination never
    // logs more than static.
    let n = wb.cp.n_branches();
    sane &= per_plan[3].0 == n && per_plan[4].0 <= per_plan[2].0 && per_plan[2].0 <= per_plan[1].0;
    let bytes = per_plan.iter().map(|p| p.1 as f64).sum::<f64>() / per_plan.len() as f64;
    Pass {
        wall_s,
        analyze_ms,
        decision: Decision {
            coverage_pct: bundle.coverage_pct(),
            dyn_labels: bundle.dyn_labels.clone(),
            static_symbolic: bundle.static_symbolic.clone(),
            plans: per_plan,
        },
        plans,
        bytes,
        sane,
    }
}

/// Failed passes: insane ones, and any whose decision differs from the
/// first pass's.
fn failures(passes: &[Pass]) -> u64 {
    let reference = &passes[0].decision;
    passes
        .iter()
        .enumerate()
        .filter(|(i, p)| {
            let bad = !p.sane || p.decision != *reference;
            if bad {
                eprintln!("userver_analysis: pass {i} failed its check");
            }
            bad
        })
        .count() as u64
}

pub fn run(args: &Args) -> Outcome {
    if args.trace {
        return run_traced(args);
    }
    let start = Instant::now();
    let mut m = Samples::default();
    let s = setup(args.seed);
    // Set-up samples before every pass, so they are spread over the run.
    let (passes, rss_mb) = repeat_passes(start, args.seconds, || {
        for _ in 0..SETUP_SAMPLES_PER_PASS {
            let (_, t) = timed(|| {
                for _ in 0..SETUPS_PER_SAMPLE {
                    std::hint::black_box(setup(args.seed));
                }
            });
            m.setup_s.push(t / SETUPS_PER_SAMPLE as f64);
        }
        pass(&s)
    });
    m.failed = failures(&passes);
    m.attempted = passes.len() as u64;
    m.pass_s = passes.iter().map(|p| p.wall_s).collect();
    m.log_bytes = passes[0].bytes;
    m.peak_rss_mb = rss_mb;
    end_to_end(m)
}

fn run_traced(args: &Args) -> Outcome {
    let deadline = Instant::now() + probe::TRACED_RUN_BUDGET;
    let s = setup(args.seed);
    let untraced = pass(&s);
    trace::set(true);
    let s = setup(args.seed);
    let traced = span(layers::PASS_SPAN, || pass(&s));
    let small = span("bench.setup", || userver_load(PROBE_REQUESTS, args.seed));
    probe::solver(&Execution::of(&small), deadline);
    let ex = Execution::of(&s.load);
    for plan in &traced.plans {
        probe::overhead(&ex, plan);
    }
    probe::program(Program::Userver);
    let (spans, counts) = trace::take();
    trace::set(false);
    let metrics = layers::finish(&spans, &counts, traced.wall_s, untraced.wall_s);
    let details: Vec<(String, Vec<Metric>)> = PLANS
        .iter()
        .zip(&untraced.decision.plans)
        .map(|((name, _, _), &(locs, bytes))| {
            (
                format!("plan.{name}"),
                vec![
                    metric("instrumented_locations", locs as f64, "count"),
                    metric("load_log_bytes", bytes as f64, "bytes"),
                ],
            )
        })
        .chain(std::iter::once((
            "pass".to_string(),
            vec![
                metric("untraced_pass_s", untraced.wall_s, "s"),
                metric("traced_pass_s", traced.wall_s, "s"),
                metric("coverage_pct", untraced.decision.coverage_pct, "%"),
                metric("analyze_ms", untraced.analyze_ms, "ms"),
            ],
        )))
        .collect();
    match out::write_trace(&args.workload, args.seed, &spans, &metrics, &details) {
        Ok(p) => eprintln!("trace written to {}", p.display()),
        Err(e) => eprintln!("trace not written: {e}"),
    }
    let passes = [untraced, traced];
    Outcome {
        attempted: 2,
        failed: failures(&passes),
        metrics,
    }
}
