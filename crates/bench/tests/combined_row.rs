//! Convergence guard for the Table 3 combined (dynamic+static) rows —
//! the headline result of the per-branch-location cursor log format.
//!
//! Three PRs of instrumentation diagnosed the combined rows' ∞ as
//! flat-bitvector misalignment from partially-instrumented low-entropy
//! scan loops; the cursor format closes it by giving every branch
//! location its own bit stream (plus the overrun divergence signal).
//! These tests hold the result: every combined row must stay FINITE
//! under the standard 300-run budget, with run counts bounded near
//! their measured values, while the healthy rows keep their baselines.
//!
//! Run counts are deterministic given the fixed seeds, so the bounds
//! are regression guards with headroom — not statistical hopes.
//! Measured at introduction (budget 300): exp 2 → 30/30 runs, exp 3 →
//! 53/53, exp 4 → 299/298, exp 5 → 36/36 (lc/hc). The exp-4 scenario
//! remains the grind the ROADMAP predicts more cursor spend would
//! shrink further; it must at minimum stay finite.

use instrument::{LogFormat, Method};
use retrace_bench::experiments::analyze_coverages;
use retrace_bench::fixtures::{userver_analysis, userver_experiment, userver_replay, Knobs};
use retrace_bench::setup::Experiment;

/// The standard Table 3 budget.
const BUDGET: usize = 300;

/// Engine knobs for this suite: the prefix cache taken from
/// `RETRACE_CACHE` so CI's cache-off leg reruns the same bounds.
fn knobs() -> Knobs {
    Knobs {
        cache: retrace_bench::cache_env(),
    }
}

fn experiment(id: usize) -> Experiment {
    userver_experiment(id, knobs())
}

fn replay(
    exp: &Experiment,
    method: Method,
    bundle: &retrace_core::AnalysisBundle,
) -> (replay::ReplayResult, LogFormat) {
    userver_replay(exp, method, bundle, BUDGET)
}

#[test]
fn combined_rows_are_finite_under_the_standard_budget() {
    let abench = userver_analysis(knobs());
    let bundles = analyze_coverages(&abench.wb);
    // Measured run counts at introduction, with regression headroom.
    // (exp, lc bound, hc bound); exp 1 is the fast scenario.
    let bounds = [
        (1, 16, 16),
        (2, 90, 90),
        (3, 150, 150),
        (4, 300, 300),
        (5, 110, 110),
    ];
    for (id, lc_bound, hc_bound) in bounds {
        let exp = experiment(id);
        for (bundle, bound, label) in [(&bundles.lc, lc_bound, "lc"), (&bundles.hc, hc_bound, "hc")]
        {
            let (res, format) = replay(&exp, Method::DynamicStatic, bundle);
            assert_eq!(
                format,
                LogFormat::PerLocation,
                "exp {id} ({label}): the combined plan must opt into cursors"
            );
            assert!(
                res.reproduced,
                "exp {id} dynamic+static ({label}) regressed to ∞: {:?}",
                (res.runs, &res.frontier),
            );
            assert!(
                res.runs <= bound,
                "exp {id} dynamic+static ({label}) run count {} exceeds its \
                 regression bound {bound}",
                res.runs,
            );
        }
    }
}

#[test]
fn healthy_rows_keep_their_flat_baselines() {
    let abench = userver_analysis(knobs());
    let bundles = analyze_coverages(&abench.wb);
    let exp = experiment(2);
    // The single-analysis and fully-logged configurations stay on the
    // flat format and keep their baseline run counts (static 22,
    // all-branches 22, dynamic 34 on exp 2).
    for (method, bundle, max_runs, name) in [
        (Method::Static, &bundles.hc, 30, "static"),
        (Method::AllBranches, &bundles.hc, 30, "all branches"),
        (Method::Dynamic, &bundles.lc, 60, "dynamic (lc)"),
    ] {
        let (res, format) = replay(&exp, method, bundle);
        assert_eq!(format, LogFormat::Flat, "{name} stays flat");
        assert!(res.reproduced, "{name} must stay finite");
        assert!(
            res.runs <= max_runs,
            "{name} regressed past its baseline: {} runs",
            res.runs
        );
        assert_eq!(res.cursor_overruns, 0, "{name}: no overruns under flat");
    }
}
