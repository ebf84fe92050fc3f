//! Criterion: batched fleet triage vs the naive one-at-a-time baseline.
//!
//! The batched leg clusters the whole corpus, analyzes each binary once
//! and replays one representative per class; the naive leg pays a fresh
//! analysis + replay for every report. Both run on a small corpus so the
//! ratio — not the absolute wall — is the readout; the `table_triage`
//! bin prints the fleet-scale extrapolation.

use criterion::{criterion_group, criterion_main, Criterion};
use retrace_bench::fixtures::{triage_run, Knobs, TRIAGE_CORPUS_SEED};
use retrace_triage::{deploy_corpus, register_standard_fleet, TriageConfig, TriagePipeline};
use workloads::{fleet_mixed, CORPUS_PROGRAMS};

const CORPUS_N: usize = 40;
const NAIVE_N: usize = 5;

fn bench_triage(c: &mut Criterion) {
    let mut group = c.benchmark_group("triage");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(5));
    group.warm_up_time(std::time::Duration::from_millis(500));

    group.bench_function(format!("batched_{CORPUS_N}"), |b| {
        b.iter(|| triage_run(Knobs::default(), 1, CORPUS_N))
    });

    // Naive baseline on a subsample: one analysis per report makes the
    // full corpus pointless to wait on — scale by NAIVE_N/CORPUS_N.
    let corpus = fleet_mixed(CORPUS_PROGRAMS, CORPUS_N, TRIAGE_CORPUS_SEED);
    group.bench_function(format!("naive_{NAIVE_N}_of_{CORPUS_N}"), |b| {
        b.iter(|| {
            let mut p = TriagePipeline::new(TriageConfig::default());
            register_standard_fleet(&mut p);
            deploy_corpus(&mut p, &corpus);
            p.naive_triage(Some(NAIVE_N))
        })
    });

    // The clustering phase alone (analysis amortized away up front):
    // what adding one more report to an already-prepared fleet costs.
    group.bench_function(format!("cluster_replay_{CORPUS_N}"), |b| {
        let mut p = TriagePipeline::new(TriageConfig::default());
        register_standard_fleet(&mut p);
        deploy_corpus(&mut p, &corpus);
        p.triage(); // warm the per-binary analyses
        b.iter(|| p.triage())
    });

    group.finish();
}

criterion_group!(benches, bench_triage);
criterion_main!(benches);
