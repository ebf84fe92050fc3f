//! The end-to-end pipeline: the paper's system as one API.
//!
//! A [`Workbench`] owns a compiled program, its input shape and its
//! environment, and exposes the full lifecycle:
//!
//! 1. [`analyze`](Workbench::analyze) — dynamic (concolic) + static
//!    analyses (§2.1–2.2);
//! 2. [`plan`](Workbench::plan) — one of the four instrumentation
//!    methods (§2.3);
//! 3. [`logged_run`](Workbench::logged_run) — the user-site execution
//!    with branch/syscall logging, producing a [`BugReport`] on crash;
//! 4. [`replay`](Workbench::replay) — developer-site bug reproduction
//!    guided by the partial log (§3);
//! 5. metric helpers for every table and figure of §5.

use crate::metrics::Overhead;
use concolic::{
    realize, AnalysisResult, BranchLabel, Concretization, Engine, InputSpec, InputVars, Profile,
    SessionConfig,
};
use instrument::{
    BugReport, DynLabel, EscalationHints, LiteralClusterHint, LogFormat, LoggingHost, Method, Plan,
    PlanBuilder,
};
use minic::cost::Meter;
use minic::vm::{RunOutcome, Vm};
use minic::{CompiledProgram, UnitId};
use oskit::{Kernel, KernelConfig, OsHost};
use replay::{
    assignment_from_input, InputParts, LogStats, ReplayConfig, ReplayEngine, ReplayResult,
};
use search::SearchPolicy;
use solver::ExprArena;
use staticax::StaticConfig;

/// Realizes an input spec under a solver assignment: concrete argv plus
/// the kernel configuration carrying stdin/files/connection bytes.
fn realize_assignment(
    spec: &InputSpec,
    kernel: &KernelConfig,
    assignment: &[i64],
) -> (Vec<Vec<u8>>, KernelConfig) {
    let mut arena = ExprArena::new();
    let vars = InputVars::alloc(&mut arena, spec);
    realize(spec, &vars, assignment, kernel)
}

/// Converts the concolic engine's labels to the instrumentation layer's.
pub fn to_dyn_labels(cp: &CompiledProgram, labels: &concolic::LabelMap) -> Vec<DynLabel> {
    (0..cp.n_branches())
        .map(|i| match labels.get(minic::BranchId(i as u32)) {
            BranchLabel::Unvisited => DynLabel::Unvisited,
            BranchLabel::Concrete => DynLabel::Concrete,
            BranchLabel::Symbolic => DynLabel::Symbolic,
        })
        .collect()
}

/// Results of both analyses, ready for plan construction.
pub struct AnalysisBundle {
    /// Dynamic labels per branch location.
    pub dyn_labels: Vec<DynLabel>,
    /// Full dynamic-analysis result (coverage, crashes found, …).
    pub dyn_result: AnalysisResult,
    /// Static labels per branch location.
    pub static_symbolic: Vec<bool>,
    /// Branch-implication table from the static analysis (input to
    /// log-bit suppression).
    pub implications: staticax::ImplicationMap,
}

impl AnalysisBundle {
    /// Branch coverage of the dynamic analysis, in percent.
    pub fn coverage_pct(&self) -> f64 {
        self.dyn_result.labels.coverage_pct()
    }
}

/// Everything observed in one instrumented (user-site) run.
pub struct LoggedRun {
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Execution counters.
    pub meter: Meter,
    /// The bug report, if the run crashed.
    pub report: Option<BugReport>,
    /// Branch-log bits produced.
    pub log_bits: u64,
    /// Log buffer flushes.
    pub log_flushes: u64,
    /// Executions of instrumented branches.
    pub instrumented_execs: u64,
    /// Executions of suppressed branches — observed by the plan but
    /// never logged; replay reconstructs their bits for free.
    pub suppressed_execs: u64,
    /// Syscall-log records produced.
    pub syscall_records: usize,
    /// Syscall-log bytes.
    pub syscall_log_bytes: u64,
    /// Log format the run emitted.
    pub log_format: LogFormat,
    /// Branch locations with their own bit stream (0 under flat).
    pub cursor_locations: usize,
    /// Extra instrumentation units spent on per-location cursor
    /// maintenance (0 under flat) — the spend counter of the tables'
    /// instrumentation-spend column.
    pub cursor_spend_units: u64,
    /// Requests completed by the kernel (servers).
    pub requests: u64,
    /// Captured stdout.
    pub stdout: Vec<u8>,
}

/// The whole system around one program + input shape + environment.
/// Its analysis and replay sessions run on the calling thread.
pub struct Workbench {
    /// The compiled program.
    pub cp: CompiledProgram,
    /// The input shape (what is symbolic).
    pub spec: InputSpec,
    /// Base kernel configuration (filesystem, clients are overridden by
    /// the spec's realization, signal plan, chunking, seed).
    pub kernel: KernelConfig,
    /// Units the static analysis treats as an opaque library.
    pub static_exclude: Vec<UnitId>,
    /// Session seed.
    pub seed: u64,
    /// Frontier scheduling policy, applied to both the concolic analysis
    /// and the replay search. Defaults to the paper's deterministic DFS;
    /// [`SearchPolicy::explorer`] breaks coverage plateaus on servers.
    pub policy: SearchPolicy,
    /// How symbolic address components are concretized in both engines:
    /// offset-generalizing region bounds by default,
    /// [`Concretization::Pin`] for the classic equality pins.
    pub concretization: Concretization,
    /// Path-prefix solve cache in both engines (on by default). Every
    /// cached shortcut is provably outcome-identical, so turning this
    /// off only changes wall time — which the cache-invariance suite
    /// pins down to full-tuple equality.
    pub cache: bool,
}

impl Workbench {
    /// Creates a workbench with a default kernel.
    pub fn new(cp: CompiledProgram, spec: InputSpec) -> Self {
        Workbench {
            cp,
            spec,
            kernel: KernelConfig::default(),
            static_exclude: Vec::new(),
            seed: 17,
            policy: SearchPolicy::default(),
            concretization: Concretization::default(),
            cache: true,
        }
    }

    /// Runs both analyses. `max_runs` is the dynamic budget — the paper's
    /// LC/HC knob.
    pub fn analyze(&self, max_runs: usize) -> AnalysisBundle {
        let mut scfg = SessionConfig::new(self.spec.clone());
        scfg.kernel = self.kernel_for_analysis();
        scfg.budget.max_runs = max_runs;
        scfg.budget.policy = self.policy.clone();
        scfg.budget.concretization = self.concretization;
        scfg.budget.prefix_cache = self.cache;
        scfg.seed = self.seed;
        let dyn_result = Engine::new(&self.cp, scfg).analyze();
        let dyn_labels = to_dyn_labels(&self.cp, &dyn_result.labels);
        let sres = staticax::analyze(
            &self.cp,
            &StaticConfig {
                exclude_units: self.static_exclude.clone(),
            },
        );
        AnalysisBundle {
            dyn_labels,
            dyn_result,
            static_symbolic: sres.symbolic().to_vec(),
            implications: sres.implications,
        }
    }

    fn kernel_for_analysis(&self) -> KernelConfig {
        // Analysis runs never receive the crash signal.
        let mut k = self.kernel.clone();
        k.signal_plan = None;
        k
    }

    /// Builds an instrumentation plan from analysis results.
    ///
    /// Combined (`dynamic+static`) plans additionally opt into the
    /// per-branch-location cursor log format when they partially
    /// instrument a loop cluster — the configuration whose flat
    /// bitvector is fragile against trip-count errors (the Table 3
    /// combined-row ∞). All other methods keep the paper's flat format
    /// bit for bit.
    pub fn plan(&self, method: Method, bundle: &AnalysisBundle) -> Plan {
        PlanBuilder::new(
            method,
            &bundle.dyn_labels,
            &bundle.static_symbolic,
            self.cp.n_branches(),
        )
        .cursor_opt_in(&self.cp.prog.ast.branches)
        .build()
    }

    /// Like [`plan`](Workbench::plan), but additionally suppresses every
    /// log bit the static branch-implication analysis proves redundant:
    /// a suppressed branch pays nothing at deployment, and replay
    /// reconstructs its recorded outcome from the implying branch's.
    /// Suppression is applied before the cursor opt-in so the loop
    /// cluster check sees the post-suppression logged set (a suppressed
    /// loop is deterministically reconstructable, hence not fragile).
    pub fn plan_suppressed(&self, method: Method, bundle: &AnalysisBundle) -> Plan {
        PlanBuilder::new(
            method,
            &bundle.dyn_labels,
            &bundle.static_symbolic,
            self.cp.n_branches(),
        )
        .suppress(
            bundle
                .implications
                .iter()
                .map(|(b, i)| (b, i.by, i.negated)),
        )
        .cursor_opt_in(&self.cp.prog.ast.branches)
        .build()
    }

    /// Produces the next instrumentation-plan generation from replay's
    /// escalation evidence (the adaptive feedback loop): hot locations
    /// gain log bits (upgrading to the per-location format), locations
    /// replay never consulted drop theirs, resynchronization trouble
    /// turns on syscall-anchored cursor checkpoints, and repair bursts
    /// at a string-scan cluster arm multi-byte literal forcing. With an
    /// empty report this returns `parent` unchanged — deploy gen-2 only
    /// when replay actually struggled.
    pub fn escalate_plan(&self, parent: &Plan, report: &replay::EscalationReport) -> Plan {
        let clusters: Vec<LiteralClusterHint> = staticax::literal_clusters(&self.cp)
            .into_iter()
            .map(|c| LiteralClusterHint {
                branches: c.branches,
                literals: c.literals,
            })
            .collect();
        instrument::escalate(parent, &report.hints(), &clusters)
    }

    /// [`escalate_plan`](Workbench::escalate_plan) from already-lowered
    /// plan-side hints (the fleet-triage path, where reports from many
    /// classes are merged before lowering).
    pub fn escalate_plan_from_hints(&self, parent: &Plan, hints: &EscalationHints) -> Plan {
        let clusters: Vec<LiteralClusterHint> = staticax::literal_clusters(&self.cp)
            .into_iter()
            .map(|c| LiteralClusterHint {
                branches: c.branches,
                literals: c.literals,
            })
            .collect();
        instrument::escalate(parent, hints, &clusters)
    }

    fn realize_deployment(&self, parts: &InputParts) -> (Vec<Vec<u8>>, KernelConfig) {
        let assignment = assignment_from_input(&self.spec, parts);
        realize_assignment(&self.spec, &self.kernel, &assignment)
    }

    /// Uninstrumented baseline run (the `none` configuration).
    pub fn baseline_run(&self, parts: &InputParts) -> (RunOutcome, Meter, Vec<u8>) {
        let (argv, kcfg) = self.realize_deployment(parts);
        let mut vm = Vm::new(&self.cp, OsHost::new(Kernel::new(kcfg)));
        let outcome = vm.run(&argv);
        let meter = vm.meter.clone();
        let stdout = std::mem::take(&mut vm.host.stdout);
        (outcome, meter, stdout)
    }

    /// Instrumented user-site run under a plan.
    pub fn logged_run(&self, plan: &Plan, parts: &InputParts) -> LoggedRun {
        let (argv, kcfg) = self.realize_deployment(parts);
        self.logged_run_realized(plan, argv, kcfg)
    }

    /// Instrumented run with a per-deployment input shape and
    /// environment (the fleet-triage entry point: one workbench per
    /// binary, many user sites whose specs differ in connection lengths
    /// or signal plans). [`logged_run`](Workbench::logged_run) is the
    /// `(spec, kernel) = (self.spec, self.kernel)` special case.
    pub fn logged_run_with(
        &self,
        plan: &Plan,
        spec: &InputSpec,
        kernel: &KernelConfig,
        parts: &InputParts,
    ) -> LoggedRun {
        let assignment = assignment_from_input(spec, parts);
        let (argv, kcfg) = realize_assignment(spec, kernel, &assignment);
        self.logged_run_realized(plan, argv, kcfg)
    }

    /// Instrumented run deploying a solver assignment (e.g. a replay
    /// witness) instead of concrete input parts, under a per-deployment
    /// shape and environment. The triage pipeline's conformance check
    /// re-deploys a class representative's witness this way and compares
    /// the produced report against the class members'.
    pub fn logged_run_assignment(
        &self,
        plan: &Plan,
        spec: &InputSpec,
        kernel: &KernelConfig,
        assignment: &[i64],
    ) -> LoggedRun {
        let (argv, kcfg) = realize_assignment(spec, kernel, assignment);
        self.logged_run_realized(plan, argv, kcfg)
    }

    fn logged_run_realized(
        &self,
        plan: &Plan,
        argv: Vec<Vec<u8>>,
        kcfg: KernelConfig,
    ) -> LoggedRun {
        let host = LoggingHost::new(Kernel::new(kcfg), plan.clone());
        let mut vm = Vm::new(&self.cp, host);
        let outcome = vm.run(&argv);
        let meter = vm.meter.clone();
        let host = vm.host;
        let log_bits = host.log.len();
        let log_flushes = host.log.flushes();
        let log_format = host.plan.format;
        let cursor_locations = host.log.n_locations();
        let cursor_spend_units = host.log.spend_units();
        let instrumented_execs = host.instrumented_execs;
        let suppressed_execs = host.suppressed_execs;
        let syscall_records = host.syscalls.len();
        let syscall_log_bytes = host.syscalls.bytes();
        let requests = host.kernel.stats().requests_completed;
        let stdout = host.stdout.clone();
        let report = outcome
            .crash()
            .cloned()
            .map(|crash| BugReport::capture(host, crash));
        LoggedRun {
            outcome,
            meter,
            report,
            log_bits,
            log_flushes,
            instrumented_execs,
            suppressed_execs,
            syscall_records,
            syscall_log_bytes,
            log_format,
            cursor_locations,
            cursor_spend_units,
            requests,
            stdout,
        }
    }

    /// Measures instrumentation overhead vs. the baseline (Figures 2/4/5).
    pub fn overhead(&self, config_name: &str, plan: &Plan, parts: &InputParts) -> Overhead {
        let (_, base, _) = self.baseline_run(parts);
        let run = self.logged_run(plan, parts);
        Overhead {
            config: config_name.to_string(),
            cpu_pct: run.meter.relative_cpu_percent(&base),
            units: run.meter.units,
            baseline_units: base.units,
            instrumented_execs: run.instrumented_execs,
            log_bytes: run.log_bits.div_ceil(8),
            log_flushes: run.log_flushes,
            syscall_log_bytes: run.syscall_log_bytes,
            requests: run.requests,
        }
    }

    /// Developer-site reproduction from a shipped report.
    pub fn replay(&self, plan: &Plan, report: &BugReport, max_runs: usize) -> ReplayResult {
        // The historical session-seed derivation: every committed golden
        // pins replay behavior at exactly this seed.
        self.replay_with(plan, report, &self.spec, max_runs, self.seed ^ 0x5eed_cafe)
    }

    /// Reproduction against a per-report input shape with an explicit
    /// search seed — the fleet-triage entry point, where one workbench
    /// replays representatives of many report classes whose deployment
    /// specs differ (connection lengths) and whose searches are seeded
    /// per class. [`replay`](Workbench::replay) is the `(spec, seed) =
    /// (self.spec, self.seed ^ 0x5eed_cafe)` special case.
    pub fn replay_with(
        &self,
        plan: &Plan,
        report: &BugReport,
        spec: &InputSpec,
        max_runs: usize,
        seed: u64,
    ) -> ReplayResult {
        let mut rcfg = ReplayConfig::new(spec.clone());
        rcfg.base_fs = self.kernel.fs.clone();
        rcfg.budget.max_runs = max_runs;
        rcfg.budget.policy = self.policy.clone();
        rcfg.budget.concretization = self.concretization;
        rcfg.budget.prefix_cache = self.cache;
        rcfg.seed = seed;
        ReplayEngine::new(&self.cp, plan.clone(), report.clone(), rcfg).reproduce()
    }

    /// Profile of the true execution (Figures 1 and 3): per branch
    /// location, total vs. symbolic execution counts.
    pub fn profile(&self, parts: &InputParts) -> Profile {
        let mut arena = ExprArena::new();
        let vars = InputVars::alloc(&mut arena, &self.spec);
        let assignment = assignment_from_input(&self.spec, parts);
        let mut scfg = SessionConfig::new(self.spec.clone());
        scfg.kernel = self.kernel_for_analysis();
        scfg.seed = self.seed;
        let engine = Engine::new(&self.cp, scfg);
        let (record, _) = engine.run_once(arena, &vars, &assignment);
        record.profile
    }

    /// Logged/unlogged symbolic-branch split for the true execution
    /// (Tables 4, 7, 8).
    pub fn log_stats(&self, plan: &Plan, parts: &InputParts) -> LogStats {
        let profile = self.profile(parts);
        LogStats::from_profile(&profile, plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use progs::Program;

    fn fib_bench() -> Workbench {
        let cp = Program::Fib.build().unwrap();
        let spec = InputSpec::argv_symbolic("fib", 1, 1);
        Workbench::new(cp, spec)
    }

    #[test]
    fn fib_analyses_find_exactly_two_symbolic_branches() {
        let wb = fib_bench();
        let bundle = wb.analyze(16);
        // Listing 1: only the two option tests depend on input.
        let dyn_sym = bundle
            .dyn_labels
            .iter()
            .filter(|l| **l == DynLabel::Symbolic)
            .count();
        let stat_sym = bundle.static_symbolic.iter().filter(|s| **s).count();
        assert_eq!(dyn_sym, 2, "dynamic finds the two option tests");
        // Static additionally flags the `argc > 1` guard (argc is input;
        // the deployment always passes one argument, so dynamically the
        // branch is concrete). The classic static over-approximation.
        assert_eq!(stat_sym, 3, "static over-approximates by one");
    }

    #[test]
    fn fib_plans_differ_only_for_all_branches() {
        let wb = fib_bench();
        let bundle = wb.analyze(16);
        let n = wb.cp.n_branches();
        assert_eq!(wb.plan(Method::Dynamic, &bundle).n_instrumented(), 2);
        // The combined method overrides static's extra `argc` branch with
        // dynamic's Concrete verdict — the headline combination rule.
        assert_eq!(wb.plan(Method::DynamicStatic, &bundle).n_instrumented(), 2);
        assert_eq!(wb.plan(Method::Static, &bundle).n_instrumented(), 3);
        assert_eq!(wb.plan(Method::AllBranches, &bundle).n_instrumented(), n);
    }

    #[test]
    fn fib_overhead_all_branches_dominates() {
        let wb = fib_bench();
        let bundle = wb.analyze(16);
        let parts = InputParts {
            argv_sym: vec![b"b".to_vec()],
            ..InputParts::default()
        };
        let all = wb.overhead("all", &wb.plan(Method::AllBranches, &bundle), &parts);
        let dynamic = wb.overhead("dyn", &wb.plan(Method::Dynamic, &bundle), &parts);
        assert!(all.cpu_pct > dynamic.cpu_pct);
        assert!(dynamic.cpu_pct < 110.0, "two logged branches are cheap");
        assert!(all.cpu_pct > 150.0, "logging every branch is expensive");
    }

    #[test]
    fn mkdir_crash_roundtrip_through_workbench() {
        let cp = Program::Mkdir.build().unwrap();
        // Shape: mkdir <sym> <sym> with 2-byte args (enough for "-Z").
        let spec = InputSpec::argv_symbolic("mkdir", 2, 2);
        let mut wb = Workbench::new(cp, spec);
        wb.static_exclude = vec![Program::Mkdir.libc_unit().unwrap()];
        let bundle = wb.analyze(24);
        let plan = wb.plan(Method::DynamicStatic, &bundle);
        let parts = InputParts {
            argv_sym: vec![b"/a".to_vec(), b"-Z".to_vec()],
            ..InputParts::default()
        };
        let run = wb.logged_run(&plan, &parts);
        let report = run.report.expect("mkdir -Z crashes");
        let res = wb.replay(&plan, &report, 256);
        assert!(res.reproduced, "mkdir -Z replay failed: {res:?}");
        // The witness argv must end with the trailing -Z.
        let w = res.witness_argv.unwrap();
        assert_eq!(&w[2][..2], b"-Z");
    }
}
