//! `retrace-bench` — the evaluation harness.
//!
//! One binary per table/figure of the paper (see `src/bin/`), backed by
//! shared setup ([`setup`]), drivers ([`experiments`]) and text rendering
//! ([`render`]). Criterion micro-benchmarks live in `benches/`.
//!
//! Run everything with:
//!
//! ```text
//! cargo run --release -p retrace-bench --bin all_experiments
//! ```

pub mod experiments;
pub mod fixtures;
pub mod render;
pub mod setup;

/// Parses `--cache on|off` from the command line (default on). The
/// prefix cache is bit-identical on or off; `off` only changes
/// wall-clock time, so the flag exists for before/after measurement.
pub fn cache_arg() -> bool {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--cache")
        .and_then(|i| args.get(i + 1))
        .map(|v| v != "off" && v != "0" && v != "false")
        .unwrap_or(true)
}

/// Reads the `RETRACE_CACHE` environment toggle (default on): `0`,
/// `off` or `false` disable the prefix cache. Used by test suites that
/// CI runs in a cache on/off matrix.
pub fn cache_env() -> bool {
    match std::env::var("RETRACE_CACHE") {
        Ok(v) => v != "0" && v != "off" && v != "false",
        Err(_) => true,
    }
}
