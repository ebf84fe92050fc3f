//! Convergence guard for the adaptive (gen-1 → gen-2) replay rows —
//! the feedback loop's headline: escalating on gen-1's replay evidence
//! must never make the next generation slower, and on the exp-4 grind
//! it must be measurably faster than the static 298-run baseline.
//!
//! Two layers:
//!
//! - a cheap always-on end-to-end check on the guarded-crash program
//!   (gen-2 run count ≤ gen-1, generation counter advances only when
//!   there is evidence to act on);
//! - the uServer sweep: gen-2 run counts pinned against measured values
//!   (bounds on all five scenarios, and the full table against its
//!   golden).
//!
//! Run counts are deterministic given the fixed seeds, so the bounds
//! are regression guards with headroom — not statistical hopes.

use instrument::Method;
use retrace_bench::experiments::replay_adaptive;
use retrace_bench::fixtures::{
    adaptive_table, check_golden, guarded_experiment, userver_analysis, userver_experiment, Knobs,
};
use retrace_bench::setup::Coverage;

/// The standard Table 3 budget.
const BUDGET: usize = 300;

/// Engine knobs for this suite: the prefix cache taken from
/// `RETRACE_CACHE` so CI's cache-off leg reruns the same bounds.
fn knobs() -> Knobs {
    Knobs {
        cache: retrace_bench::cache_env(),
    }
}

#[test]
fn guarded_crash_gen2_never_regresses_gen1() {
    let exp = guarded_experiment(knobs());
    let bundle = exp.wb.analyze(16);
    for method in [Method::Dynamic, Method::DynamicStatic, Method::Static] {
        let (g1, g2) = replay_adaptive(&exp, method, &bundle, 64);
        assert!(g1.result.reproduced, "{method:?} gen-1 must reproduce");
        assert!(g2.result.reproduced, "{method:?} gen-2 must reproduce");
        assert!(
            g2.result.runs <= g1.result.runs,
            "{method:?}: escalation made replay slower ({} -> {} runs)",
            g1.result.runs,
            g2.result.runs,
        );
        // The generation counter advances exactly when gen-1 left
        // evidence to act on; an evidence-free replay keeps the plan
        // byte-identical (the no-hint no-op guarantee).
        if g1.result.escalation.is_empty() {
            assert_eq!(
                g2.plan, g1.plan,
                "{method:?}: no-evidence escalation must be a no-op"
            );
        } else {
            assert_eq!(g2.plan.generation, g1.plan.generation + 1, "{method:?}");
        }
    }
}

#[test]
fn adaptive_gen2_rows_hold_their_measured_bounds() {
    let abench = userver_analysis(knobs());
    let bundle = abench.wb.analyze(Coverage::Lc.runs());
    // Measured gen-2 run counts at introduction, with regression
    // headroom: (exp, gen-2 bound). Measured (budget 300): exp 1 → 8,
    // exp 2 → 30, exp 3 → 53, exp 4 → 208, exp 5 → 36. The exp-4 row is
    // the headline — the 298-run byte-by-byte header grind must stay
    // well under the static baseline once gen-2 forces the consulted
    // comparison clusters' literals; its bound (250) sits under the
    // gen-1/static plateau on purpose.
    let bounds = [(1, 16), (2, 90), (3, 150), (4, 250), (5, 110)];
    for (id, gen2_bound) in bounds {
        let exp = userver_experiment(id, knobs());
        let (g1, g2) = replay_adaptive(&exp, Method::DynamicStatic, &bundle, BUDGET);
        assert!(g2.result.reproduced, "exp {id} gen-2 regressed to ∞");
        assert!(
            g2.result.runs <= g1.result.runs,
            "exp {id}: escalation made replay slower ({} -> {} runs)",
            g1.result.runs,
            g2.result.runs,
        );
        assert!(
            g2.result.runs <= gen2_bound,
            "exp {id} gen-2 run count {} exceeds its regression bound {gen2_bound}",
            g2.result.runs,
        );
    }
}

/// The full adaptive table against its committed golden — the pinned
/// form of the Table 3 `adaptive gen-2` column family.
#[test]
fn adaptive_table_matches_golden() {
    let table = adaptive_table(Knobs::default(), &[1, 2, 3, 4, 5], BUDGET);
    check_golden("userver_adaptive_replay.txt", &table);
}
