//! T1 — Table 1: time to replay the real coreutils crash bugs.
//!
//! Paper: 1–1.5 seconds per bug, identical across all four configurations
//! (the programs are small enough that every method instruments the
//! decisive branches).

use instrument::Method;
use progs::Program;
use retrace_bench::experiments::{analyze_coverages, replay_one};
use retrace_bench::render;
use retrace_bench::setup::coreutil;

fn main() {
    let budget: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(512);
    let mut rows = Vec::new();
    for prog in [
        Program::Mkdir,
        Program::Mknod,
        Program::Mkfifo,
        Program::Paste,
    ] {
        let exp = coreutil(prog);
        let bundles = analyze_coverages(&exp.wb);
        for method in Method::ALL {
            let plan = exp.wb.plan(method, &bundles.hc);
            let (row, _, _) = replay_one(&exp, method.name(), 1, &plan, budget);
            rows.push(vec![
                prog.name().to_string(),
                method.name().to_string(),
                row.cell(),
                row.runs.to_string(),
                row.solver_calls.to_string(),
            ]);
        }
    }
    println!(
        "{}",
        render::table(
            "Table 1: replaying the real coreutils bugs",
            &[
                "program",
                "config",
                "replay work / wall",
                "runs",
                "solver calls"
            ],
            &rows,
        )
    );
    println!("paper: 1–1.5s for every program, same across all four configurations");
}
