//! Layer probes for the traced run: extra calls into single layers on
//! the workload's own inputs, timed and counted from outside.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use concolic::{Engine, InputSpec, InputVars, SessionConfig, StepOrigin};
use oskit::KernelConfig;
use progs::Program;
use replay::{assignment_from_input, InputParts};
use retrace_bench::setup::Experiment;
use retrace_core::Workbench;
use solver::{solve_with_stats, ConstraintSet, ExprArena, Lit, SolveCfg};
use staticax::StaticConfig;

use crate::trace::{count, span};

/// Time a traced run may take before the solver probe stops solving,
/// so the run stays well within its limit. Candidates left unsolved are
/// counted as `solver.probe_skipped`, never silently dropped.
pub const TRACED_RUN_BUDGET: Duration = Duration::from_secs(140);

/// One true execution: the deployment's input shape, environment and
/// concrete input.
pub struct Execution<'a> {
    /// Program and analysis knobs.
    pub wb: &'a Workbench,
    /// Input shape.
    pub spec: &'a InputSpec,
    /// Environment (its crash signal is dropped, as in analysis).
    pub kernel: &'a KernelConfig,
    /// Concrete input.
    pub parts: &'a InputParts,
}

impl<'a> Execution<'a> {
    /// The true execution of a bench experiment: its own workbench,
    /// shape, environment and recorded input.
    pub fn of(exp: &'a Experiment) -> Self {
        Execution {
            wb: &exp.wb,
            spec: &exp.wb.spec,
            kernel: &exp.wb.kernel,
            parts: &exp.parts,
        }
    }
}

/// The solver probe. Runs the true execution once symbolically
/// (`concolic.run_once`), then negates each branch step over its prefix
/// — the candidate the engines offer — and solves it with the default
/// `SolveCfg`, splitting calls and time by verdict: sat, refuted (proved
/// unsatisfiable) or unknown (the iteration budget ran out).
pub fn solver(ex: &Execution, deadline: Instant) {
    let mut scfg = SessionConfig::new(ex.spec.clone());
    scfg.kernel = ex.kernel.clone();
    scfg.kernel.signal_plan = None;
    scfg.budget.concretization = ex.wb.concretization;
    scfg.seed = ex.wb.seed;
    let engine = Engine::new(&ex.wb.cp, scfg);
    let mut arena = ExprArena::new();
    let vars = InputVars::alloc(&mut arena, ex.spec);
    let assignment = assignment_from_input(ex.spec, ex.parts);
    let t = Instant::now();
    let (record, mut arena) = span("concolic.run_once", || {
        engine.run_once(arena, &vars, &assignment)
    });
    count("concolic.probe_run_us", t.elapsed().as_secs_f64() * 1e6);
    count("concolic.probe_runs", 1.0);
    count("concolic.probe_instrs", record.meter.instrs as f64);
    count("concolic.probe_arena_nodes", arena.len() as f64);

    // The engines' candidate construction: pin the run's
    // nondeterminism, use a step's range form when it has one.
    let pin: HashMap<_, _> = record.nondet.iter().copied().collect();
    let exprs: Vec<_> = record.path.iter().map(|s| s.lit.expr).collect();
    let subst = arena.substitute_many(&exprs, &pin);
    let lits: Vec<Lit> = record
        .path
        .iter()
        .zip(&subst)
        .map(|(s, e)| Lit {
            expr: *e,
            positive: s.lit.positive,
        })
        .collect();
    let ranges: Vec<Option<solver::RangeConstraint>> = record
        .path
        .iter()
        .map(|s| {
            s.range.map(|rc| solver::RangeConstraint {
                expr: arena.substitute(rc.expr, &pin),
                ..rc
            })
        })
        .collect();
    let seed: Vec<i64> = assignment[..vars.n_controllable as usize].to_vec();
    let cfg = SolveCfg::default();
    for (i, step) in record.path.iter().enumerate() {
        if !matches!(step.origin, StepOrigin::Branch(_)) || arena.support(lits[i].expr).is_empty() {
            continue;
        }
        if Instant::now() > deadline {
            count("solver.probe_skipped", 1.0);
            continue;
        }
        let mut cs = ConstraintSet::new();
        for j in 0..i {
            match ranges[j] {
                Some(rc) => cs.push_range(rc),
                None => cs.push(lits[j]),
            }
        }
        cs.push(lits[i].negated());
        let t = Instant::now();
        let (model, st) = span("solver.solve", || {
            solve_with_stats(&arena, &cs, Some(&seed), &cfg)
        });
        let us = t.elapsed().as_secs_f64() * 1e6;
        let verdict = match (&model, st.refuted) {
            (Some(_), _) => "sat",
            (None, true) => "refuted",
            (None, false) => "unknown",
        };
        count(&format!("solver.{verdict}_calls"), 1.0);
        count(&format!("solver.{verdict}_us"), us);
        count(&format!("solver.{verdict}_iters"), st.iters as f64);
    }
}

/// Compiles `p` (`minic.compile`) and runs the static analyses on it
/// (`staticax.analyze`, `staticax.literal_clusters`).
pub fn program(p: Program) {
    let t = Instant::now();
    let cp = span("minic.compile", || p.build()).expect("program compiles");
    count("minic.compile_us", t.elapsed().as_secs_f64() * 1e6);
    count("minic.compiles", 1.0);
    let cfg = StaticConfig {
        exclude_units: p.libc_unit().into_iter().collect(),
    };
    let t = Instant::now();
    let res = span("staticax.analyze", || staticax::analyze(&cp, &cfg));
    count("staticax.analyze_us", t.elapsed().as_secs_f64() * 1e6);
    count("staticax.analyses", 1.0);
    count("staticax.symbolic_locs", res.n_symbolic() as f64);
    count("staticax.implications", res.implications.len() as f64);
    let t = Instant::now();
    let clusters = span("staticax.literal_clusters", || {
        staticax::literal_clusters(&cp)
    });
    count(
        "staticax.literal_clusters_us",
        t.elapsed().as_secs_f64() * 1e6,
    );
    count("staticax.literal_cluster_count", clusters.len() as f64);
}

/// Runs one deployment uninstrumented (`minic.baseline_run`) and under
/// `plan` (`instrument.logged_run`): the paper's Fig. 4 comparison, in
/// deterministic cost units and in wall time.
pub fn overhead(ex: &Execution, plan: &instrument::Plan) {
    let wb = deployment_workbench(ex);
    let t = Instant::now();
    let (_, base, _) = span("minic.baseline_run", || wb.baseline_run(ex.parts));
    let base_us = t.elapsed().as_secs_f64() * 1e6;
    let t = Instant::now();
    let run = span("instrument.logged_run", || wb.logged_run(plan, ex.parts));
    let run_us = t.elapsed().as_secs_f64() * 1e6;
    count("minic.baseline_us", base_us);
    count("minic.baseline_runs", 1.0);
    count("minic.baseline_instrs", base.instrs as f64);
    crate::layers::count_deployment(run.log_bits, run.meter.syscalls, run.requests, run_us);
    count("instrument.overhead_runs", 1.0);
    count("instrument.overhead_logged_us", run_us);
    count("instrument.overhead_base_units", base.units as f64);
    count("instrument.overhead_logged_units", run.meter.units as f64);
}

/// A workbench for one deployment's own input shape and environment.
fn deployment_workbench(ex: &Execution) -> Workbench {
    let mut wb = Workbench::new(ex.wb.cp.clone(), ex.spec.clone());
    wb.kernel = ex.kernel.clone();
    wb.static_exclude = ex.wb.static_exclude.clone();
    wb.seed = ex.wb.seed;
    wb
}
