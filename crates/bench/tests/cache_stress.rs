//! Prefix-cache stress on the exp-4 grind row, gated behind
//! `RETRACE_STRESS=1` (CI runs it on the release job only — the 298-run
//! combined row at budget 300 takes minutes in debug).
//!
//! The exp-4 combined row is the workload the prefix cache exists for:
//! hundreds of runs whose candidate paths share long prefixes. With the
//! cache on, the row must complete inside a watchdog deadline,
//! reproduce, keep the ledger exact, and actually *use* the cache: a minimum hit rate and nonzero
//! saved literals, so a regression that silently stops matching
//! prefixes (cache always cold, wall win gone) fails loudly here
//! rather than as an unnoticed slowdown.

use instrument::Method;
use retrace_bench::experiments::analyze_coverages;
use retrace_bench::fixtures::{userver_analysis, userver_experiment, userver_replay, Knobs};
use std::sync::mpsc;
use std::time::Duration;

/// The standard Table 3 budget; exp 4 needs almost all of it.
const BUDGET: usize = 300;
/// Watchdog: the row takes ~15 s in release; a blown deadline means a
/// cache-induced livelock, not a slow run.
const WATCHDOG: Duration = Duration::from_secs(300);
/// Minimum fraction of solves that must start from a cached
/// prefix on this row (measured 682/682 = 100% at introduction — every
/// candidate shares its path prefix with an already-solved one).
const MIN_HIT_RATE: f64 = 0.5;

#[test]
fn exp4_combined_row_hits_the_cache() {
    if std::env::var("RETRACE_STRESS").is_err() {
        eprintln!("skipping: set RETRACE_STRESS=1 to run the stress suite");
        return;
    }
    let knobs = Knobs { cache: true };
    let abench = userver_analysis(knobs);
    let bundles = analyze_coverages(&abench.wb);
    let exp = userver_experiment(4, knobs);

    let (tx, rx) = mpsc::channel();
    let exp_ref = &exp;
    let bundle = &bundles.lc;
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let out = userver_replay(exp_ref, Method::DynamicStatic, bundle, BUDGET);
            let _ = tx.send(out);
        });
        let (res, _) = match rx.recv_timeout(WATCHDOG) {
            Ok(out) => out,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                panic!("watchdog expired — livelock in cached replay")
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                panic!("replay thread panicked")
            }
        };
        assert!(
            res.reproduced,
            "exp 4 combined row regressed to ∞ with the cache on: {:?}",
            (res.runs, &res.frontier)
        );
        let total = res.cache_hits + res.cache_misses;
        assert_eq!(
            total, res.solver_calls as u64,
            "ledger must account every solve"
        );
        let hit_rate = res.cache_hits as f64 / total.max(1) as f64;
        assert!(
            hit_rate >= MIN_HIT_RATE,
            "prefix-cache hit rate collapsed on the grind row: {}/{total} \
             ({:.0}% < {:.0}%)",
            res.cache_hits,
            hit_rate * 100.0,
            MIN_HIT_RATE * 100.0,
        );
        assert!(
            res.prefix_len_saved > 0,
            "hits saved no literals — the cache matched but skipped nothing"
        );
        eprintln!(
            "exp 4 cache stress: {} runs, {}/{total} hits ({:.0}%), {} literals saved",
            res.runs,
            res.cache_hits,
            hit_rate * 100.0,
            res.prefix_len_saved,
        );
    });
}
