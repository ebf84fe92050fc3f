//! T6 + T7 — Tables 6 and 7: diff bug reproduction for two input
//! scenarios, with logged/not-logged symbolic-branch counts.
//!
//! Paper shapes: dynamic never finishes (low coverage leaves tens of
//! symbolic locations unlogged → path explosion); dynamic+static, static
//! and all-branches replay quickly with zero unlogged locations.

use instrument::Method;
use retrace_bench::experiments::{analyze_coverages, replay_one};
use retrace_bench::render;
use retrace_bench::setup::diff_experiment;

fn main() {
    let budget: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(200);
    let mut t6 = Vec::new();
    let mut t7 = Vec::new();
    for id in [1, 2] {
        let exp = diff_experiment(id);
        // Deliberately small dynamic budget: diff's input-heavy branching
        // keeps concolic coverage low, as in the paper (20%).
        let bundles = analyze_coverages(&exp.wb);
        for method in Method::ALL {
            let plan = exp.wb.plan(method, &bundles.lc);
            let (row, stats, _) = replay_one(&exp, method.name(), id, &plan, budget);
            t6.push(vec![
                format!("exp {id}"),
                method.name().to_string(),
                row.cell(),
                row.runs.to_string(),
            ]);
            t7.push(vec![
                format!("exp {id}"),
                method.name().to_string(),
                stats.logged_cell(),
                stats.unlogged_cell(),
            ]);
        }
    }
    println!(
        "{}",
        render::table(
            &format!("Table 6: diff bug reproduction (budget {budget}; ∞ = timeout)"),
            &["experiment", "config", "replay work / wall", "runs"],
            &t6,
        )
    );
    println!(
        "{}",
        render::table(
            "Table 7: symbolic branch locations logged / NOT logged (locs / execs)",
            &["experiment", "config", "logged", "not logged"],
            &t7,
        )
    );
    println!(
        "paper shape: dynamic = ∞ on both; dynamic+static/static/all reproduce quickly \
         with zero unlogged symbolic locations"
    );
}
