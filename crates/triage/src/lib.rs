//! `retrace-triage` — fleet-scale bug-report triage.
//!
//! The paper's deployment story is many user sites running the same
//! lightly instrumented binary and shipping tiny branch-log reports.
//! One report replays in minutes; a fleet ships thousands, and most of
//! them are the same bug. This crate batches the developer side:
//!
//! 1. **Ingest** — deployments run under the per-binary plan
//!    ([`TriagePipeline::deploy`]); crashes file [`instrument::BugReport`]s.
//! 2. **Cluster** — reports bucket by (binary, crash site, trace-prefix
//!    FNV-128 hash) and split into exact classes by full report digest
//!    ([`cluster`]). Same mixing primitive as the search dedup and the
//!    prefix solve cache, so the identities cannot drift.
//! 3. **Replay once per class** — each class's first-seen report is the
//!    representative; only it pays the guided search, dispatched across
//!    the worker pool ([`TriagePipeline::triage`]). The witness is then
//!    re-deployed once and every member is verified by bit-stream
//!    conformance (digest equality) instead of its own search.
//! 4. **Amortize analysis** — the concolic + static analysis and the
//!    instrumentation plan are built once per *binary*, not once per
//!    report ([`TriageLedger::analyses`] counts exactly the distinct
//!    binaries; [`TriagePipeline::naive_triage`] is the one-at-a-time
//!    baseline that pays it per report).
//!
//! The headline metric is **reports/sec triaged** with the dedup ratio
//! (reports per class) explaining where the speedup comes from.

pub mod cluster;
pub mod fleet;
pub mod pipeline;
pub mod pool;

pub use cluster::{
    class_key, crash_digest, report_digest, trace_prefix_hash, ClassKey, DEFAULT_PREFIX_BITS,
};
pub use fleet::{deploy_corpus, deployment_for, register_standard_fleet};
pub use pipeline::{
    FleetBinary, NaiveOutcome, Submission, TriageClass, TriageConfig, TriageLedger, TriageOutcome,
    TriagePipeline,
};
