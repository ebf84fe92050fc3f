//! Triage smoke suite: the 200-report corpus the CI `triage-smoke` job
//! runs in release. Pins the deterministic triage table against a
//! committed golden, demands worker-count invariance of the rendered
//! bytes, and enforces the dedup-ratio and amortization floors the
//! fleet-scale story rests on.
//!
//! `RETRACE_FULL_TRIAGE=1` adds the 1000-report acceptance leg (slower;
//! run in release).

use retrace_bench::fixtures::{check_golden, triage_run, triage_table, Knobs};
use std::collections::BTreeSet;

const SMOKE_CORPUS: usize = 200;

/// The committed golden pins every deterministic column of the smoke
/// table (class partition, crash cells, member counts, replay work,
/// conformance, the ledger and amortization lines — wall is excluded
/// from the rendering by construction).
#[test]
fn triage_200_matches_golden() {
    let (_, out) = triage_run(Knobs::default(), 1, SMOKE_CORPUS);
    check_golden("triage_200.txt", &triage_table(&out, SMOKE_CORPUS));
}

/// The rendered table is byte-identical at workers 1 and 4: class
/// dispatch across the pool must not perturb ordering, representative
/// choice, replay work or the ledger.
#[test]
fn triage_table_is_worker_count_invariant() {
    let (_, serial) = triage_run(Knobs::default(), 1, SMOKE_CORPUS);
    let (_, wide) = triage_run(Knobs::default(), 4, SMOKE_CORPUS);
    assert_eq!(
        triage_table(&serial, SMOKE_CORPUS),
        triage_table(&wide, SMOKE_CORPUS),
        "triage table drifts with the worker count"
    );
}

/// The smoke corpus already clears the fleet-scale floors: ≥5x dedup
/// over ≥3 programs, one analysis per distinct binary, every class
/// reproduced and every member conformant.
#[test]
fn triage_smoke_clears_floors() {
    let (_, out) = triage_run(Knobs::default(), 1, SMOKE_CORPUS);
    assert!(
        out.dedup_ratio() >= 5.0,
        "dedup ratio {:.1} below the 5x floor",
        out.dedup_ratio()
    );
    let programs: BTreeSet<&str> = out.classes.iter().map(|c| c.row.program.as_str()).collect();
    assert!(
        programs.len() >= 3,
        "corpus spans ≥3 programs: {programs:?}"
    );
    assert_eq!(out.ledger.analyses, out.ledger.distinct_binaries());
    assert!(out.classes.iter().all(|c| c.row.reproduced));
    assert_eq!(out.ledger.conformant, out.ledger.reports);
}

/// The ISSUE acceptance leg: 1000 mixed reports across the fleet,
/// dedup ≥5x, ledger analyses == distinct binaries. Gated behind
/// `RETRACE_FULL_TRIAGE=1` so the default smoke run stays fast.
#[test]
fn triage_1000_acceptance() {
    if std::env::var("RETRACE_FULL_TRIAGE").is_err() {
        eprintln!("skipping 1000-report leg (set RETRACE_FULL_TRIAGE=1)");
        return;
    }
    let (_, out) = triage_run(Knobs::default(), 1, 1000);
    assert!(out.ledger.reports >= 400, "mix files a substantial corpus");
    assert!(
        out.dedup_ratio() >= 5.0,
        "dedup ratio {:.1} below the 5x floor at corpus 1000",
        out.dedup_ratio()
    );
    let programs: BTreeSet<&str> = out.classes.iter().map(|c| c.row.program.as_str()).collect();
    assert!(programs.len() >= 3);
    assert_eq!(out.ledger.analyses, out.ledger.distinct_binaries());
    assert_eq!(out.ledger.conformant, out.ledger.reports);
}
