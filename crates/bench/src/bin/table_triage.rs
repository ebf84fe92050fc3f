//! Fleet triage table: batched report ingestion over the standard
//! four-binary fleet, one replay per report class, with the reports/sec
//! headline and the naive one-at-a-time extrapolation.
//!
//! ```text
//! cargo run --release -p retrace-bench --bin table_triage \
//!   -- [--corpus N] [--naive N] [--workers N] [--cache on|off]
//! ```
//!
//! `--corpus` sizes the mixed corpus (default 1000). `--naive` caps the
//! one-at-a-time baseline subsample (default 40; 0 skips it — the full
//! naive run pays one analysis *per report* and exists to be measured,
//! not waited on).

use retrace_bench::fixtures::{triage_run, triage_table, triage_wall_summary, Knobs};

fn usize_flag(name: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let knobs = Knobs::from_args();
    let workers = usize_flag("--workers", 1);
    let corpus_n = usize_flag("--corpus", 1000);
    let naive_n = usize_flag("--naive", 40);
    let (pipeline, out) = triage_run(knobs, workers, corpus_n);
    println!("{}", triage_table(&out, corpus_n));
    let naive = (naive_n > 0).then(|| pipeline.naive_triage(Some(naive_n)));
    println!("{}", triage_wall_summary(&out, naive.as_ref()));
}
