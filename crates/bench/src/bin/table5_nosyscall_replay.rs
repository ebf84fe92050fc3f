//! T5 + T8 — Tables 5 and 8: uServer reproduction WITHOUT syscall-result
//! logging (experiments 1 and 4).
//!
//! Paper shapes: every configuration slows down (the engine must search
//! for `read`/`select` outcomes through the symbolic models); dynamic
//! configurations suffer the most (model search compounds the branch
//! search); static can fall slightly behind all-branches.

use instrument::Method;
use retrace_bench::experiments::{analyze_coverages, replay_one, userver_analysis_bench};
use retrace_bench::render;
use retrace_bench::setup::{userver_experiments, Coverage};

fn main() {
    let budget: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(300);
    let abench = userver_analysis_bench(42);
    let bundles = analyze_coverages(&abench.wb);

    let configs: Vec<(String, Method, Coverage)> = vec![
        ("dynamic (hc)".into(), Method::Dynamic, Coverage::Hc),
        (
            "dynamic+static (hc)".into(),
            Method::DynamicStatic,
            Coverage::Hc,
        ),
        ("static".into(), Method::Static, Coverage::Hc),
        ("all branches".into(), Method::AllBranches, Coverage::Hc),
    ];

    let mut t5 = Vec::new();
    let mut t8 = Vec::new();
    for exp_def in userver_experiments(42)
        .into_iter()
        .filter(|e| e.name.ends_with('1') || e.name.ends_with('4'))
    {
        for (name, method, cov) in &configs {
            let bundle = match cov {
                Coverage::Lc => &bundles.lc,
                Coverage::Hc => &bundles.hc,
            };
            let plan = exp_def.wb.plan(*method, bundle).without_syscall_logging();
            let exp_id: usize = exp_def
                .name
                .rsplit(' ')
                .next()
                .and_then(|s| s.parse().ok())
                .unwrap_or(0);
            let (row, stats, _) = replay_one(&exp_def, name, exp_id, &plan, budget);
            t5.push(vec![
                format!("exp {exp_id}"),
                name.clone(),
                row.cell(),
                row.runs.to_string(),
            ]);
            t8.push(vec![
                format!("exp {exp_id}"),
                name.clone(),
                stats.logged_cell(),
                stats.unlogged_cell(),
            ]);
        }
    }
    println!(
        "{}",
        render::table(
            &format!(
                "Table 5: reproduction WITHOUT syscall logging (budget {budget}; ∞ = timeout)"
            ),
            &["experiment", "config", "replay work / wall", "runs"],
            &t5,
        )
    );
    println!(
        "{}",
        render::table(
            "Table 8: symbolic branch locations logged / NOT logged, no syscall log",
            &["experiment", "config", "logged", "not logged"],
            &t8,
        )
    );
    println!("paper shape: all configurations significantly slower than Table 3");
}
