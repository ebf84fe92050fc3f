//! `fleet_triage`: the user site plus the triage operator.
//!
//! Set-up generates a `fleet_mixed` corpus from the seed, registers the
//! standard fleet (mkdir, mknod, mkfifo, uServer) and deploys the
//! corpus, in its own order, up to the first entry of every binary,
//! which pays each binary's one-time analysis and plan. The pass deploys
//! the rest of the corpus one entry at a time through
//! `TriagePipeline::deploy`, then runs `triage()`. Class ids, and so
//! the replay seed of each class, follow the corpus order.
//!
//! Checks: the ledger balances (`reports + healthy == deployments ==
//! n`), every filed report is conformed, and every class witness
//! re-deploys to the class's crash site — argv programs by running the
//! witness argv uninstrumented, the server by re-deriving its witness
//! input with the same replay and deploying it.

use std::time::Instant;

use concolic::InputSpec;
use oskit::KernelConfig;
use replay::InputParts;
use retrace_core::mix_seed;
use retrace_triage::{
    crash_digest, deployment_for, register_standard_fleet, TriageConfig, TriageOutcome,
    TriagePipeline,
};
use workloads::corpus::CorpusEntry;
use workloads::CORPUS_PROGRAMS;

use crate::probe::{self, Execution};
use crate::stats::{median, percentile, ratio};
use crate::trace::{self, count, span};
use crate::{
    end_to_end, layers, metric, out, repeat_passes, timed, Args, Metric, Outcome, Samples,
};

/// Deployments per pass.
const CORPUS_N: usize = 4000;
/// Deployments per binary that the traced run's overhead probe re-runs.
const OVERHEAD_SAMPLE: usize = 8;

struct Fleet {
    p: TriagePipeline,
    corpus: Vec<CorpusEntry>,
    /// Corpus index of every submission, in submission order.
    sub_entry: Vec<usize>,
    /// Corpus index the pass starts at: set-up deploys the entries
    /// before it.
    start: usize,
}

fn deployment(p: &TriagePipeline, e: &CorpusEntry) -> (usize, InputSpec, KernelConfig, InputParts) {
    let id = p.binary_id(e.program).expect("standard fleet binary");
    let (spec, kernel, parts) = deployment_for(p.binary(id), e);
    (id, spec, kernel, parts)
}

fn deploy(f: &mut Fleet, i: usize) -> bool {
    let (id, spec, kernel, parts) = deployment(&f.p, &f.corpus[i]);
    let filed = span("triage.deploy", || f.p.deploy(id, &spec, &kernel, &parts));
    if filed {
        f.sub_entry.push(i);
    }
    filed
}

fn setup(seed: u64) -> Fleet {
    let t = Instant::now();
    let corpus = span("workloads.fleet_mixed", || {
        workloads::fleet_mixed(CORPUS_PROGRAMS, CORPUS_N, seed)
    });
    count("workloads.gen_us", t.elapsed().as_secs_f64() * 1e6);
    let mut p = TriagePipeline::new(TriageConfig::default());
    span("bench.setup", || register_standard_fleet(&mut p));
    // The shortest corpus prefix that holds every binary: deploying it
    // prepares each binary. The pass goes on from there in corpus order.
    let start = CORPUS_PROGRAMS
        .iter()
        .map(|prog| {
            1 + corpus
                .iter()
                .position(|e| e.program == *prog)
                .expect("every fleet binary is in the corpus")
        })
        .max()
        .unwrap_or(0);
    let mut f = Fleet {
        p,
        corpus,
        sub_entry: Vec::new(),
        start,
    };
    for i in 0..start {
        deploy(&mut f, i);
    }
    f
}

struct Pass {
    wall_s: f64,
    deploy_us: Vec<f64>,
    triage_ms: f64,
    out: TriageOutcome,
    failed: u64,
    report_bytes: f64,
}

fn pass(mut f: Fleet) -> (Pass, Fleet) {
    let t0 = Instant::now();
    let mut deploy_us = Vec::with_capacity(f.corpus.len() - f.start);
    for i in f.start..f.corpus.len() {
        let t = Instant::now();
        deploy(&mut f, i);
        deploy_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let t = Instant::now();
    let out = span("triage.triage", || f.p.triage());
    let triage_ms = t.elapsed().as_secs_f64() * 1e3;
    let wall_s = t0.elapsed().as_secs_f64();
    let failed = span("check.fleet", || check(&f, &out));
    let subs = f.p.submissions();
    let bytes: u64 = subs.iter().map(|s| s.report.transfer_bytes()).sum();
    (
        Pass {
            wall_s,
            deploy_us,
            triage_ms,
            out,
            failed,
            report_bytes: ratio(bytes as f64, subs.len() as f64),
        },
        f,
    )
}

/// Reports that failed a check: every report when the ledger does not
/// balance; otherwise, per class, every member when the class witness
/// does not re-deploy to the class crash site (which includes a class
/// whose replay did not reproduce), else the unconformed members.
fn check(f: &Fleet, out: &TriageOutcome) -> u64 {
    let l = &out.ledger;
    if l.reports + l.healthy != l.deployments || l.deployments != CORPUS_N {
        eprintln!("fleet_triage: ledger does not balance: {l:?}");
        return l.reports.max(1) as u64;
    }
    let mut failed = 0;
    for (cid, class) in out.classes.iter().enumerate() {
        let sub = &f.p.submissions()[class.representative];
        let fb = f.p.binary(sub.binary);
        let site = crash_digest(&sub.report.crash);
        let crashed_at = match (&class.witness_argv, sub.spec.clients.is_empty()) {
            (Some(argv), true) => {
                let parts = InputParts {
                    argv_sym: argv[1..].to_vec(),
                    ..InputParts::default()
                };
                let (outcome, _, _) = fb.wb.baseline_run(&parts);
                outcome.crash().map(crash_digest)
            }
            (Some(_), false) => {
                // The witness argv carries no connection bytes: re-derive
                // the witness input with the pipeline's replay and seed,
                // under a freshly built (deterministic) plan.
                let bundle = fb.analysis_workbench().analyze(fb.analysis_runs);
                let plan = fb.wb.plan(fb.method, &bundle);
                let res = fb.wb.replay_with(
                    &plan,
                    &sub.report,
                    &sub.spec,
                    f.p.cfg.replay_budget,
                    mix_seed(f.p.cfg.seed, cid as u64),
                );
                res.witness_assignment.and_then(|a| {
                    fb.wb
                        .logged_run_assignment(&plan, &sub.spec, &sub.kernel, &a)
                        .report
                        .map(|r| crash_digest(&r.crash))
                })
            }
            (None, _) => None,
        };
        let members = class.members.len();
        if crashed_at == Some(site) {
            failed += members - class.row.conformed;
        } else {
            eprintln!(
                "fleet_triage: class {cid} ({}, {members} reports, {} replay runs) has no witness \
                 that re-deploys to its crash site",
                class.row.program, class.row.runs
            );
            failed += members;
        }
    }
    failed as u64
}

pub fn run(args: &Args) -> Outcome {
    if args.trace {
        return run_traced(args);
    }
    let start = Instant::now();
    let mut m = Samples::default();
    // Every pass needs a fresh pipeline, so every pass is set up anew.
    let (passes, rss_mb) = repeat_passes(start, args.seconds, || {
        let (f, t) = timed(|| setup(args.seed));
        m.setup_s.push(t);
        pass(f).0
    });
    for p in &passes {
        m.pass_s.push(p.wall_s);
        m.attempted += p.out.ledger.reports as u64;
        m.failed += p.failed;
    }
    m.log_bytes = passes[0].report_bytes;
    m.peak_rss_mb = rss_mb;
    end_to_end(m)
}

fn run_traced(args: &Args) -> Outcome {
    let deadline = Instant::now() + probe::TRACED_RUN_BUDGET;
    let (untraced, _) = pass(setup(args.seed));
    trace::set(true);
    let f = setup(args.seed);
    let (traced, f) = span(layers::PASS_SPAN, || pass(f));
    let o = &traced.out;
    count("triage.reports", o.ledger.reports as f64);
    count("triage.classes", o.ledger.classes as f64);
    // The class replays run inside `triage()`; their rows carry the
    // replay layer's counts.
    for c in &o.classes {
        count("replay.replays", 1.0);
        count("replay.reproduced", f64::from(u8::from(c.row.reproduced)));
        count("replay.runs", c.row.runs as f64);
        count("replay.instrs", c.row.total_instrs as f64);
        count("replay.solver_calls", c.row.solver_calls as f64);
    }
    // Clustering cost per report, as `triage()` pays it.
    let t = Instant::now();
    span("triage.cluster", || {
        for s in f.p.submissions() {
            std::hint::black_box((
                retrace_triage::class_key(s.binary, &s.report, f.p.cfg.prefix_bits),
                retrace_triage::report_digest(&s.report),
            ));
        }
    });
    let cluster_us = t.elapsed().as_secs_f64() * 1e6;
    // Per binary: its one-time analysis and plan, then the overhead of a
    // sample of its deployments under that plan.
    let mut plans = Vec::new();
    for id in 0..CORPUS_PROGRAMS.len() {
        let fb = f.p.binary(id);
        let awb = fb.analysis_workbench();
        let bundle = layers::analyze(&awb, fb.analysis_runs);
        let t = Instant::now();
        let plan = span("instrument.plan", || fb.wb.plan(fb.method, &bundle));
        layers::count_plan(t.elapsed().as_secs_f64() * 1e6);
        plans.push(plan);
    }
    for (id, prog) in CORPUS_PROGRAMS.iter().enumerate() {
        let fb = f.p.binary(id);
        for e in f
            .corpus
            .iter()
            .filter(|e| e.program == *prog)
            .take(OVERHEAD_SAMPLE)
        {
            let (_, spec, kernel, parts) = deployment(&f.p, e);
            let ex = Execution {
                wb: &fb.wb,
                spec: &spec,
                kernel: &kernel,
                parts: &parts,
            };
            probe::overhead(&ex, &plans[id]);
        }
        probe::program(
            progs::Program::ALL
                .into_iter()
                .find(|p| p.name() == *prog)
                .expect("corpus program"),
        );
    }
    // The solver probe on each class representative's true execution.
    for class in &o.classes {
        let sub = &f.p.submissions()[class.representative];
        let fb = f.p.binary(sub.binary);
        let (_, _, _, parts) = deployment(&f.p, &f.corpus[f.sub_entry[class.representative]]);
        let ex = Execution {
            wb: &fb.wb,
            spec: &sub.spec,
            kernel: &sub.kernel,
            parts: &parts,
        };
        probe::solver(&ex, deadline);
    }
    let (spans, counts) = trace::take();
    trace::set(false);
    let metrics = layers::finish(&spans, &counts, traced.wall_s, untraced.wall_s);
    let mut details: Vec<(String, Vec<Metric>)> = o
        .classes
        .iter()
        .map(|c| {
            (
                format!("class{}.{}", c.row.class, c.row.program),
                vec![
                    metric("members", c.row.members as f64, "count"),
                    metric("replay_runs", c.row.runs as f64, "count"),
                    metric("solver_calls", c.row.solver_calls as f64, "count"),
                    metric("class_ms", c.row.wall_ms as f64, "ms"),
                ],
            )
        })
        .collect();
    let d = &untraced.deploy_us;
    details.push((
        "pass".to_string(),
        vec![
            metric("untraced_pass_s", untraced.wall_s, "s"),
            metric("traced_pass_s", traced.wall_s, "s"),
            metric("deployments_timed", d.len() as f64, "count"),
            metric("deploy_p50_us", median(d), "us"),
            metric("deploy_p99_us", percentile(d, 99.0), "us"),
            metric("triage_ms", untraced.triage_ms, "ms"),
            metric("triage.replays", o.ledger.replays as f64, "count"),
            metric("triage.conformant", o.ledger.conformant as f64, "count"),
            metric(
                "triage.class_ms",
                o.classes.iter().map(|c| c.row.wall_ms as f64).sum(),
                "ms",
            ),
            metric(
                "triage.cluster_us_per_report",
                ratio(cluster_us, o.ledger.reports as f64),
                "us",
            ),
        ],
    ));
    match out::write_trace(&args.workload, args.seed, &spans, &metrics, &details) {
        Ok(p) => eprintln!("trace written to {}", p.display()),
        Err(e) => eprintln!("trace not written: {e}"),
    }
    Outcome {
        attempted: (untraced.out.ledger.reports + o.ledger.reports) as u64,
        failed: untraced.failed + traced.failed,
        metrics,
    }
}
