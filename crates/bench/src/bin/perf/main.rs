//! `perf`: the fabric's benchmark. Five workloads, end-to-end metrics from
//! an untraced run under load, per-layer metrics from a separate traced run.
//! See `README.md` beside this file for the vocabulary and how to read the
//! output, and `BENCHMARK.json` at the repository root for the contract the
//! driver holds this program to.
//!
//! ```text
//! perf run <workload|all> [--seed S] [--quick]   end-to-end rows, checked against the model
//! perf trace <workload|all> [--seed S] [--quick] per-layer rows + target/perf/<workload>.trace.json
//! perf check [--seed S] [--quick]                two same-seed sets must agree within the bounds
//! perf baseline [--runs N] [--seed S]            median and quartiles of N sets, as baseline.json
//! perf manifest                                  the text of BENCHMARK.json
//! perf --workload W --seed S --seconds T --trace 0|1    one driver run; the last line is its result
//! ```

mod check;
mod fabric;
mod gen;
mod metrics;
mod run;
mod shapes;
mod stats;
mod store;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::{Report, END_TO_END, PER_LAYER, WORKLOADS};
use run::RunCfg;
use shapes::{OneDim, Quadtree, Trie, CHURN, READ};

/// The measured window of `perf run`, per workload, in seconds. The churn
/// and store windows are longer so that a window holds 1000 writes at the
/// seed commit's rate (55, 87 and 130 a second). (The driver's runs all use
/// `run_seconds`.)
fn default_window(workload: &str) -> u64 {
    match workload {
        "onedim_read" | "quadtree_read" => 10,
        "onedim_churn" => 20,
        _ => 15,
    }
}

/// Runs one workload in this process.
pub fn run_workload(workload: &str, cfg: &RunCfg) -> Option<Report> {
    let tail = WORKLOADS.iter().find(|w| w.name == workload)?.tail;
    Some(match workload {
        "onedim_read" => run::run::<OneDim<READ>>(workload, tail, cfg),
        "quadtree_read" => run::run::<Quadtree>(workload, tail, cfg),
        "onedim_churn" => run::run::<OneDim<CHURN>>(workload, tail, cfg),
        "trie_churn" => run::run::<Trie>(workload, tail, cfg),
        "store_kv" => store::run(workload, tail, cfg),
        _ => return None,
    })
}

/// Traces one workload in this process.
pub fn trace_workload(workload: &str, cfg: &RunCfg) -> Option<Report> {
    Some(match workload {
        "onedim_read" => trace::trace::<OneDim<READ>>(workload, cfg),
        "quadtree_read" => trace::trace::<Quadtree>(workload, cfg),
        "onedim_churn" => trace::trace::<OneDim<CHURN>>(workload, cfg),
        "trie_churn" => trace::trace::<Trie>(workload, cfg),
        "store_kv" => trace::trace_store(workload, cfg),
        _ => return None,
    })
}

/// Where result files go: `perf/` beside the profile directory the binary
/// was built into (`target/perf/`, or `.bench_build/perf/` under the
/// driver) — always inside the checkout's ignored build directory.
pub fn out_dir() -> PathBuf {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|exe| {
            // A test binary sits one level deeper, in `<profile>/deps/`.
            let profile = exe.parent()?;
            let profile = if profile.ends_with("deps") {
                profile.parent()?
            } else {
                profile
            };
            Some(profile.parent()?.join("perf"))
        })
        .unwrap_or_else(|| PathBuf::from("target/perf"));
    let _ = std::fs::create_dir_all(&dir);
    dir
}

#[derive(Debug, Default)]
struct Args {
    positional: Vec<String>,
    seed: Option<u64>,
    seconds: Option<u64>,
    workload: Option<String>,
    trace: Option<u64>,
    runs: Option<u64>,
    quick: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut number = |name: &str| -> Result<u64, String> {
            it.next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("{name} takes a whole number"))
        };
        match arg.as_str() {
            "--seed" => args.seed = Some(number("--seed")?),
            "--seconds" => args.seconds = Some(number("--seconds")?),
            "--trace" => args.trace = Some(number("--trace")?),
            "--runs" => args.runs = Some(number("--runs")?),
            "--quick" => args.quick = true,
            "--workload" => {
                args.workload = Some(it.next().ok_or("--workload takes a name")?.clone());
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            word => args.positional.push(word.to_string()),
        }
    }
    Ok(args)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perf run|trace <workload|all> [--seed S] [--seconds T] [--quick]\n       \
         perf check [--seed S] [--quick]\n       \
         perf baseline [--runs N] [--seed S]\n       \
         perf manifest\n       \
         perf --workload W --seed S --seconds T --trace 0|1\n\
         workloads: {}",
        WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(" ")
    );
    ExitCode::from(2)
}

fn cfg_for(args: &Args, workload: &str) -> RunCfg {
    let seed = args_seed(args);
    if args.quick {
        RunCfg::quick(seed)
    } else {
        RunCfg::full(
            seed,
            args.seconds.unwrap_or_else(|| default_window(workload)),
        )
    }
}

/// `perf run|trace <workload>`: one workload in this process, rows on
/// stdout, the full report as a file.
fn one(mode: &str, workload: &str, args: &Args) -> ExitCode {
    let cfg = cfg_for(args, workload);
    let report = match mode {
        "run" => run_workload(workload, &cfg),
        _ => trace_workload(workload, &cfg),
    };
    let Some(report) = report else {
        return usage();
    };
    report.print();
    let path = out_dir().join(format!("{workload}.{mode}.json"));
    if let Err(e) = std::fs::write(&path, report.to_json().pretty()) {
        eprintln!("perf: cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One run as the driver asks for it: everything but the result goes to
/// stderr, the result is the last (and only) line of stdout.
fn driver_run(args: &Args) -> ExitCode {
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) =
        (&args.workload, args.seed, args.seconds, args.trace)
    else {
        return usage();
    };
    let cfg = RunCfg {
        // One second of warm-up fills every cache this program has; the
        // driver's time belongs to the window.
        warmup: std::time::Duration::from_secs(1),
        ..RunCfg::full(seed, seconds)
    };
    let (report, list) = match trace {
        0 => (run_workload(workload, &cfg), END_TO_END),
        1 => (trace_workload(workload, &cfg), PER_LAYER),
        _ => return usage(),
    };
    let Some(report) = report else {
        return usage();
    };
    for note in &report.notes {
        eprintln!("perf: {workload}: {note}");
    }
    let missing: Vec<&str> = list
        .iter()
        .filter(|m| !report.get(m.name).is_some_and(f64::is_finite))
        .map(|m| m.name)
        .collect();
    if !missing.is_empty() {
        eprintln!("perf: {workload}: no value for {missing:?}");
        return ExitCode::FAILURE;
    }
    println!("{}", report.result_line(list));
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perf: {e}");
            return usage();
        }
    };
    let words: Vec<&str> = args.positional.iter().map(String::as_str).collect();
    match words.as_slice() {
        [] if args.workload.is_some() => driver_run(&args),
        ["manifest"] => {
            print!("{}", metrics::benchmark_json());
            ExitCode::SUCCESS
        }
        [mode @ ("run" | "trace"), "all"] => check::all(mode, args_seed(&args), args.quick),
        [mode @ ("run" | "trace"), workload] => one(mode, workload, &args),
        ["check"] => check::check(args_seed(&args), args.quick),
        ["baseline"] => check::baseline(args_seed(&args), args.runs.unwrap_or(5)),
        _ => usage(),
    }
}

fn args_seed(args: &Args) -> u64 {
    args.seed.unwrap_or(1)
}
