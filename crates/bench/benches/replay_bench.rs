//! Criterion: end-to-end guided replay latency (the Table 1/3 quantity
//! as wall time) on the guarded-crash pattern at two instrumentation
//! levels, each with the path-prefix solve cache on and off, plus the
//! uServer exp-4 combined-row before/after measurement (the grind row
//! the cache targets).

use concolic::{realize, InputSpec, InputVars};
use criterion::{criterion_group, criterion_main, Criterion};
use instrument::{BugReport, DynLabel, LoggingHost, Method, Plan};
use minic::vm::Vm;
use oskit::{Kernel, KernelConfig};
use replay::{assignment_from_input, InputParts, ReplayConfig, ReplayEngine};
use retrace_bench::fixtures::{userver_analysis, userver_experiment, userver_replay, Knobs};
use retrace_bench::setup::Coverage;
use solver::ExprArena;

const SRC: &str = r#"
    int main(int argc, char **argv) {
        char *s = argv[1];
        if (s[0] == 'c') {
            if (s[1] == 'r') {
                if (s[2] == '8') {
                    int *p = 0;
                    return *p;
                }
            }
        }
        return 0;
    }
"#;

fn capture(cp: &minic::CompiledProgram, plan: &Plan) -> BugReport {
    let spec = InputSpec::argv_symbolic("prog", 1, 3);
    let parts = InputParts {
        argv_sym: vec![b"cr8".to_vec()],
        ..InputParts::default()
    };
    let mut arena = ExprArena::new();
    let vars = InputVars::alloc(&mut arena, &spec);
    let assignment = assignment_from_input(&spec, &parts);
    let (argv, kcfg) = realize(&spec, &vars, &assignment, &KernelConfig::default());
    let host = LoggingHost::new(Kernel::new(kcfg), plan.clone());
    let mut vm = Vm::new(cp, host);
    let crash = vm.run(&argv).crash().expect("crashes").clone();
    BugReport::capture(vm.host, crash)
}

fn bench_replay(c: &mut Criterion) {
    let cp = minic::build(&[("main", SRC)]).expect("compiles");
    let n = cp.n_branches();
    let mut group = c.benchmark_group("replay");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for (name, instrument_all) in [("full_log", true), ("no_log", false)] {
        let plan = if instrument_all {
            Plan::build(
                Method::AllBranches,
                &vec![DynLabel::Unvisited; n],
                &vec![false; n],
                n,
            )
        } else {
            Plan::none(n)
        };
        let report = capture(&cp, &plan);
        for (leg, cache) in [("cache_on", true), ("cache_off", false)] {
            group.bench_function(format!("{name}/{leg}"), |b| {
                b.iter(|| {
                    let mut rcfg = ReplayConfig::new(InputSpec::argv_symbolic("prog", 1, 3));
                    rcfg.budget.max_runs = 400;
                    rcfg.budget.prefix_cache = cache;
                    ReplayEngine::new(&cp, plan.clone(), report.clone(), rcfg).reproduce()
                })
            });
        }
    }
    group.finish();
    exp4_cache_measurement();
}

/// The ISSUE's before/after surface: the uServer exp-4 combined row —
/// the 298-run grind every cursor-format PR has been chipping at — once
/// with the prefix cache off and once with it on. The deterministic
/// columns (runs, solver calls) are bit-identical by construction; only
/// the wall time and the cache ledger move.
fn exp4_cache_measurement() {
    println!("\nexp-4 combined row (dynamic+static lc, budget 300): prefix cache before/after");
    let abench = userver_analysis(Knobs::default());
    let bundle = abench.wb.analyze(Coverage::Lc.runs());
    for cache in [false, true] {
        let exp = userver_experiment(4, Knobs { cache });
        let (res, _) = userver_replay(&exp, Method::DynamicStatic, &bundle, 300);
        println!(
            "  cache {}: reproduced={} runs={} solver_calls={} wall={}ms \
             hits={}/{} lits_saved={}",
            if cache { "on " } else { "off" },
            res.reproduced,
            res.runs,
            res.solver_calls,
            res.wall_ms,
            res.cache_hits,
            res.cache_hits + res.cache_misses,
            res.prefix_len_saved,
        );
    }
}

criterion_group!(benches, bench_replay);
criterion_main!(benches);
