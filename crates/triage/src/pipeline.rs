//! The batch triage pipeline: ingest deployments, cluster reports,
//! replay one representative per class, verify members by conformance.
//!
//! ```text
//!   register(binary)──►[lazy: analyze + plan, ONCE per binary]
//!        │
//!   deploy(entry)────►logged run under the binary's plan──crash──►report
//!        │                                                          │
//!   triage()──►cluster by (binary, crash site, trace prefix)────────┘
//!                 │
//!                 ├─ class 0: representative replay ──► witness ──► re-deploy
//!                 ├─ class 1:        (parallel_map over classes)     │
//!                 └─ class k: ...                                    ▼
//!                              members verified by digest conformance
//! ```
//!
//! Determinism: clustering walks submissions in order, classes are
//! numbered first-seen, each class's replay is seeded
//! `mix_seed(cfg.seed, class_index)` and results commit in class order
//! — so every deterministic output is identical at any worker count
//! (the worker pool only changes wall time).

use std::collections::HashMap;
use std::time::Instant;

use concolic::InputSpec;
use instrument::{BugReport, Method, Plan};
use oskit::KernelConfig;
use replay::InputParts;
use retrace_core::metrics::TriageRow;
use retrace_core::{mix_seed, AnalysisBundle, SearchPolicy, Workbench};

use crate::cluster::{class_key, crash_digest, report_digest, ClassKey, DEFAULT_PREFIX_BITS};
use crate::pool::parallel_map;

/// Knobs of one triage run.
#[derive(Debug, Clone)]
pub struct TriageConfig {
    /// Worker threads for the class-replay dispatch (each class's
    /// replay runs on one thread).
    pub workers: usize,
    /// Path-prefix solve cache inside the replays.
    pub cache: bool,
    /// Replay run budget per class representative.
    pub replay_budget: usize,
    /// Trace-prefix bits of the bucket key.
    pub prefix_bits: u64,
    /// Base seed; class `k` replays under `mix_seed(seed, k)`.
    pub seed: u64,
}

impl Default for TriageConfig {
    fn default() -> Self {
        TriageConfig {
            workers: 1,
            cache: true,
            replay_budget: 300,
            prefix_bits: DEFAULT_PREFIX_BITS,
            seed: 42,
        }
    }
}

/// One binary of the fleet: the replay-side workbench plus the analysis
/// configuration the per-binary preparation runs once.
pub struct FleetBinary {
    /// Display name (unique within a pipeline).
    pub name: String,
    /// The replay-side workbench: program, canonical spec, environment,
    /// replay search policy.
    pub wb: Workbench,
    /// Input shape the one-time concolic analysis explores (servers use
    /// a wider symbolic shape than any single deployment).
    pub analysis_spec: InputSpec,
    /// Search policy of the analysis (servers need the explorer).
    pub analysis_policy: SearchPolicy,
    /// Concolic run budget of the analysis (the LC/HC knob).
    pub analysis_runs: usize,
    /// Instrumentation method of the fleet's plan.
    pub method: Method,
}

impl FleetBinary {
    /// A fleet binary whose analysis mirrors the workbench defaults
    /// (same spec and policy) under the combined method.
    pub fn new(name: &str, wb: Workbench, analysis_runs: usize) -> Self {
        FleetBinary {
            name: name.to_string(),
            analysis_spec: wb.spec.clone(),
            analysis_policy: wb.policy.clone(),
            wb,
            analysis_runs,
            method: Method::DynamicStatic,
        }
    }

    /// The analysis-side workbench: same program and environment, the
    /// analysis spec and policy. Built fresh for each analysis pass so
    /// the naive baseline pays exactly what the amortized path pays
    /// once.
    pub fn analysis_workbench(&self) -> Workbench {
        let mut awb = Workbench::new(self.wb.cp.clone(), self.analysis_spec.clone());
        awb.kernel = self.wb.kernel.clone();
        awb.static_exclude = self.wb.static_exclude.clone();
        awb.seed = self.wb.seed;
        awb.policy = self.analysis_policy.clone();
        awb.concretization = self.wb.concretization;
        awb.cache = self.wb.cache;
        awb
    }
}

/// One filed report with the deployment context replay needs.
pub struct Submission {
    /// Registered binary index.
    pub binary: usize,
    /// The deployment's input shape (connection lengths vary per user).
    pub spec: InputSpec,
    /// The deployment's environment (signal plan included).
    pub kernel: KernelConfig,
    /// The shipped report.
    pub report: BugReport,
}

/// Per-binary prepared state: the once-per-binary analysis artifacts.
struct Prepared {
    #[allow(dead_code)]
    bundle: AnalysisBundle,
    plan: Plan,
}

/// Counts of what the pipeline actually did — the amortization ledger.
#[derive(Debug, Clone, Default)]
pub struct TriageLedger {
    /// Full analysis passes (concolic + static + plan build). Batched
    /// triage: one per distinct binary. Naive baseline: one per report.
    pub analyses: usize,
    /// Instrumentation plans built (tracks `analyses`).
    pub plans: usize,
    /// Deployments executed through [`TriagePipeline::deploy`].
    pub deployments: usize,
    /// Deployments that exited healthy (no report).
    pub healthy: usize,
    /// Reports submitted.
    pub reports: usize,
    /// Equivalence classes found.
    pub classes: usize,
    /// Classes created by digest mismatch inside an existing bucket
    /// (the prefix said same, the full stream said different).
    pub escalations: usize,
    /// Guided replay searches actually run (== classes in batched mode).
    pub replays: usize,
    /// Members verified by digest conformance against a re-deployed
    /// witness (representatives included).
    pub conformant: usize,
    /// Reports per binary, in registration order.
    pub per_binary: Vec<(String, usize)>,
}

impl TriageLedger {
    /// Binaries that contributed at least one report.
    pub fn distinct_binaries(&self) -> usize {
        self.per_binary.iter().filter(|(_, n)| *n > 0).count()
    }
}

/// One triaged equivalence class.
pub struct TriageClass {
    /// Deterministic metrics row (wall field machine-dependent).
    pub row: TriageRow,
    /// The bucket key the class lives under.
    pub key: ClassKey,
    /// Exact report digest all members share.
    pub digest: u128,
    /// Submission index of the representative (first member seen).
    pub representative: usize,
    /// Submission indices of every member, in submission order.
    pub members: Vec<usize>,
    /// Whether the class was split off an existing bucket.
    pub escalated: bool,
    /// The reproducing input the class replay recovered (full argv,
    /// program name included) — the developer's repro for every member
    /// at once. `None` when the representative did not reproduce.
    pub witness_argv: Option<Vec<Vec<u8>>>,
    /// Per-branch-location escalation evidence from the class replay —
    /// input to the adaptive next-generation plan (see
    /// [`TriageOutcome::fleet_escalation`]).
    pub escalation: replay::EscalationReport,
}

/// Result of one batched triage pass.
pub struct TriageOutcome {
    /// Classes in first-seen order.
    pub classes: Vec<TriageClass>,
    /// What the pipeline did to get here.
    pub ledger: TriageLedger,
    /// Wall clock of the triage pass (cluster + replays + conformance).
    pub wall_ms: u64,
}

impl TriageOutcome {
    /// Reports per class — the dedup ratio (≥ 1.0; higher is better).
    pub fn dedup_ratio(&self) -> f64 {
        if self.classes.is_empty() {
            return 1.0;
        }
        self.ledger.reports as f64 / self.classes.len() as f64
    }

    /// The headline metric: reports triaged per second of wall clock.
    pub fn reports_per_sec(&self) -> f64 {
        self.ledger.reports as f64 / (self.wall_ms.max(1) as f64 / 1e3)
    }

    /// The deterministic metric rows, one per class.
    pub fn rows(&self) -> Vec<TriageRow> {
        self.classes.iter().map(|c| c.row.clone()).collect()
    }

    /// Merges every class's escalation evidence for `binary` into one
    /// fleet-level report (counters add, consulted sets union) — what
    /// `Workbench::escalate_plan` consumes to produce the binary's next
    /// instrumentation-plan generation.
    pub fn fleet_escalation(&self, binary_name: &str) -> replay::EscalationReport {
        let mut merged = replay::EscalationReport::new();
        for c in self.classes.iter().filter(|c| c.row.program == binary_name) {
            merged.merge(&c.escalation);
        }
        merged
    }
}

/// Result of the naive one-at-a-time baseline.
#[derive(Debug, Clone)]
pub struct NaiveOutcome {
    /// Reports processed (possibly a documented subsample).
    pub reports: usize,
    /// How many reproduced within budget.
    pub reproduced: usize,
    /// Analysis passes paid (== reports: nothing is amortized).
    pub analyses: usize,
    /// Wall clock of the naive pass.
    pub wall_ms: u64,
}

impl NaiveOutcome {
    /// Average wall per report — the extrapolation basis when the
    /// baseline ran on a subsample.
    pub fn wall_ms_per_report(&self) -> f64 {
        self.wall_ms as f64 / self.reports.max(1) as f64
    }
}

/// The batch triage pipeline.
pub struct TriagePipeline {
    /// Knobs.
    pub cfg: TriageConfig,
    binaries: Vec<FleetBinary>,
    prepared: Vec<Option<Prepared>>,
    subs: Vec<Submission>,
    ledger: TriageLedger,
}

impl TriagePipeline {
    /// An empty pipeline.
    pub fn new(cfg: TriageConfig) -> Self {
        TriagePipeline {
            cfg,
            binaries: Vec::new(),
            prepared: Vec::new(),
            subs: Vec::new(),
            ledger: TriageLedger::default(),
        }
    }

    /// Registers a fleet binary; returns its index. The workbench's
    /// engine knobs are aligned with the pipeline's cache setting (the
    /// outer worker fan-out stays with the pipeline).
    pub fn register(&mut self, mut fb: FleetBinary) -> usize {
        fb.wb.cache = self.cfg.cache;
        self.binaries.push(fb);
        self.prepared.push(None);
        self.ledger
            .per_binary
            .push((self.binaries.last().unwrap().name.clone(), 0));
        self.binaries.len() - 1
    }

    /// The registered binary at `id`.
    pub fn binary(&self, id: usize) -> &FleetBinary {
        &self.binaries[id]
    }

    /// Looks a binary up by name.
    pub fn binary_id(&self, name: &str) -> Option<usize> {
        self.binaries.iter().position(|b| b.name == name)
    }

    /// Submissions filed so far.
    pub fn submissions(&self) -> &[Submission] {
        &self.subs
    }

    /// The ledger so far (triage/naive passes return updated copies).
    pub fn ledger(&self) -> &TriageLedger {
        &self.ledger
    }

    /// Ensures the once-per-binary analysis artifacts exist.
    fn prepare(&mut self, id: usize) {
        if self.prepared[id].is_some() {
            return;
        }
        let fb = &self.binaries[id];
        let bundle = fb.analysis_workbench().analyze(fb.analysis_runs);
        let plan = fb.wb.plan(fb.method, &bundle);
        self.ledger.analyses += 1;
        self.ledger.plans += 1;
        self.prepared[id] = Some(Prepared { bundle, plan });
    }

    /// Runs one deployment of `binary` under its (lazily prepared) plan
    /// with a per-user input shape and environment. A crash files a
    /// report; returns whether one was filed.
    pub fn deploy(
        &mut self,
        binary: usize,
        spec: &InputSpec,
        kernel: &KernelConfig,
        parts: &InputParts,
    ) -> bool {
        self.prepare(binary);
        let plan = &self.prepared[binary].as_ref().expect("prepared").plan;
        let run = self.binaries[binary]
            .wb
            .logged_run_with(plan, spec, kernel, parts);
        self.ledger.deployments += 1;
        match run.report {
            Some(report) => {
                self.submit(binary, spec.clone(), kernel.clone(), report);
                true
            }
            None => {
                self.ledger.healthy += 1;
                false
            }
        }
    }

    /// Files an externally produced report (the ingestion entry point
    /// when deployments happen elsewhere). Prepares the binary so
    /// triage always has a plan for every submission.
    pub fn submit(
        &mut self,
        binary: usize,
        spec: InputSpec,
        kernel: KernelConfig,
        report: BugReport,
    ) {
        self.prepare(binary);
        self.ledger.reports += 1;
        self.ledger.per_binary[binary].1 += 1;
        self.subs.push(Submission {
            binary,
            spec,
            kernel,
            report,
        });
    }

    /// Clusters every submission and replays one representative per
    /// class, verifying members by digest conformance. Deterministic
    /// output (up to the wall fields) at any worker count.
    pub fn triage(&mut self) -> TriageOutcome {
        let t0 = Instant::now();

        // Phase 1: cluster, in submission order. Buckets map to the
        // (ordered) list of class ids they contain.
        struct Build {
            key: ClassKey,
            digest: u128,
            members: Vec<usize>,
            escalated: bool,
        }
        let mut buckets: HashMap<ClassKey, Vec<usize>> = HashMap::new();
        let mut builds: Vec<Build> = Vec::new();
        for (i, sub) in self.subs.iter().enumerate() {
            let key = class_key(sub.binary, &sub.report, self.cfg.prefix_bits);
            let digest = report_digest(&sub.report);
            let ids = buckets.entry(key).or_default();
            if let Some(&cid) = ids.iter().find(|&&cid| builds[cid].digest == digest) {
                builds[cid].members.push(i);
            } else {
                let escalated = !ids.is_empty();
                ids.push(builds.len());
                builds.push(Build {
                    key,
                    digest,
                    members: vec![i],
                    escalated,
                });
            }
        }

        // Phase 2: one representative replay per class, fanned out over
        // the worker pool. Immutable borrows only; results come back in
        // class order and commit serially below.
        let subs = &self.subs;
        let binaries = &self.binaries;
        let prepared = &self.prepared;
        let cfg = &self.cfg;
        let replayed = parallel_map(
            cfg.workers,
            (0..builds.len()).collect::<Vec<usize>>(),
            |_, cid| {
                let b = &builds[cid];
                let sub = &subs[b.members[0]];
                let fb = &binaries[sub.binary];
                let plan = &prepared[sub.binary].as_ref().expect("prepared").plan;
                let t = Instant::now();
                let res = fb.wb.replay_with(
                    plan,
                    &sub.report,
                    &sub.spec,
                    cfg.replay_budget,
                    mix_seed(cfg.seed, cid as u64),
                );
                // Conformance: re-deploy the witness once under the
                // representative's own deployment context and demand
                // the identical report digest.
                let conforms = res
                    .witness_assignment
                    .as_ref()
                    .filter(|_| res.reproduced)
                    .map(|a| {
                        fb.wb
                            .logged_run_assignment(plan, &sub.spec, &sub.kernel, a)
                            .report
                            .map(|r| report_digest(&r) == b.digest)
                            .unwrap_or(false)
                    })
                    .unwrap_or(false);
                (res, conforms, t.elapsed().as_millis() as u64)
            },
        );

        // Phase 3: commit serially in class order.
        let mut classes = Vec::with_capacity(builds.len());
        for (cid, (b, (res, conforms, class_wall))) in builds.into_iter().zip(replayed).enumerate()
        {
            let sub = &self.subs[b.members[0]];
            let conformed = if conforms { b.members.len() } else { 0 };
            self.ledger.replays += 1;
            self.ledger.conformant += conformed;
            if b.escalated {
                self.ledger.escalations += 1;
            }
            let crash = format!(
                "{:x} @ {}",
                crash_digest(&sub.report.crash) & 0xffff,
                sub.report.crash.loc
            );
            classes.push(TriageClass {
                row: TriageRow {
                    class: cid,
                    program: self.binaries[sub.binary].name.clone(),
                    crash,
                    members: b.members.len(),
                    reproduced: res.reproduced,
                    runs: res.runs,
                    solver_calls: res.solver_calls,
                    total_instrs: res.total_instrs,
                    conformed,
                    wall_ms: class_wall,
                },
                key: b.key,
                digest: b.digest,
                representative: b.members[0],
                members: b.members,
                escalated: b.escalated,
                witness_argv: res.witness_argv,
                escalation: res.escalation,
            });
        }
        self.ledger.classes = classes.len();

        TriageOutcome {
            classes,
            ledger: self.ledger.clone(),
            wall_ms: t0.elapsed().as_millis() as u64,
        }
    }

    /// The one-at-a-time baseline: every report pays its own analysis
    /// pass, plan build and guided replay — no clustering, no
    /// amortization. `limit` caps the subsample (the full baseline on a
    /// large corpus is exactly the cost this crate exists to avoid);
    /// extrapolate with [`NaiveOutcome::wall_ms_per_report`].
    ///
    /// The rebuilt plan is deterministic, hence identical to the
    /// prepared one — so replaying a report captured under the prepared
    /// plan is well-formed.
    pub fn naive_triage(&self, limit: Option<usize>) -> NaiveOutcome {
        let t0 = Instant::now();
        let n = limit.unwrap_or(self.subs.len()).min(self.subs.len());
        let mut reproduced = 0;
        for (i, sub) in self.subs.iter().take(n).enumerate() {
            let fb = &self.binaries[sub.binary];
            // Pay the full analysis per report — the amortization
            // victim under measurement.
            let bundle = fb.analysis_workbench().analyze(fb.analysis_runs);
            let plan = fb.wb.plan(fb.method, &bundle);
            let res = fb.wb.replay_with(
                &plan,
                &sub.report,
                &sub.spec,
                self.cfg.replay_budget,
                mix_seed(self.cfg.seed, i as u64),
            );
            if res.reproduced {
                reproduced += 1;
            }
        }
        NaiveOutcome {
            reports: n,
            reproduced,
            analyses: n,
            wall_ms: t0.elapsed().as_millis() as u64,
        }
    }
}
