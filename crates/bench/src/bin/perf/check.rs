//! Sets of runs: `run all`, `trace all`, `check`, `baseline`.
//!
//! A full-size workload runs in a child process of its own — fresh threads,
//! and a peak memory that is this workload's alone. `--quick` sets run in
//! this process, which is what lets a `#[test]` drive them.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use crate::metrics::{self, Better, Report, END_TO_END, END_TO_END_PARTIAL, PER_LAYER, WORKLOADS};
use crate::run::RunCfg;
use crate::stats::{median, quartiles, Json};

/// Layer metrics that are counts of a fixed serial replay: two traced runs
/// of one seed must agree on them exactly.
#[cfg(test)]
pub const EXACT_COUNTS: &[&str] = &[
    "skipweb.query_msgs",
    "net.sent_per_op",
    "net.batch_ops_per_envelope",
    "wal.bytes_per_record",
    "engine.publishes_per_write",
    "skipweb.ranges_per_item",
    "skipweb.max_host_memory",
    "structures.search_path_len",
];

/// Reads a child's `metric` and `result` lines back into a report.
fn parse_rows(workload: &str, seed: u64, text: &str) -> Report {
    let mut report = Report::new(workload, seed);
    for line in text.lines() {
        let cols: Vec<&str> = line.split('\t').collect();
        match cols.as_slice() {
            ["metric", _, name, value, _, samples] => {
                if let (Ok(value), Ok(samples)) = (value.parse(), samples.parse()) {
                    report.push(name, value, samples);
                }
            }
            ["note", _, note] => report.notes.push(note.to_string()),
            ["result", _, attempted, failed, _] => {
                let number = |s: &str| s.split('=').nth(1).and_then(|v| v.parse().ok());
                report.attempted = number(attempted).unwrap_or(0);
                report.failed = number(failed).unwrap_or(1);
            }
            _ => {}
        }
    }
    report
}

/// One workload, one mode (`run` or `trace`): in this process when `quick`,
/// in a child otherwise. The rows are printed either way.
pub fn execute(mode: &str, workload: &str, seed: u64, quick: bool) -> Report {
    if quick {
        let cfg = RunCfg::quick(seed);
        let report = match mode {
            "run" => crate::run_workload(workload, &cfg),
            _ => crate::trace_workload(workload, &cfg),
        }
        .expect("a listed workload");
        report.print();
        return report;
    }
    let child = std::env::current_exe().and_then(|exe| {
        Command::new(exe)
            .args([mode, workload, "--seed", &seed.to_string()])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
    });
    match child {
        Ok(out) => {
            let text = String::from_utf8_lossy(&out.stdout);
            print!("{text}");
            let mut report = parse_rows(workload, seed, &text);
            if !out.status.success() && report.correct() {
                report.fail(format!("the child exited with {}", out.status));
            }
            report
        }
        Err(e) => {
            let mut report = Report::new(workload, seed);
            report.fail(format!("cannot start the child: {e}"));
            report
        }
    }
}

/// Every workload once: the reports, and the workloads that were not
/// correct.
fn set(mode: &str, seed: u64, quick: bool) -> (Vec<Report>, Vec<String>) {
    let start = Instant::now();
    let reports: Vec<Report> = WORKLOADS
        .iter()
        .map(|w| execute(mode, w.name, seed, quick))
        .collect();
    let wrong = reports
        .iter()
        .filter(|r| !r.correct())
        .map(|r| r.workload.clone())
        .collect();
    println!(
        "set\t{mode}\tseed={seed}\t{:.1}s",
        start.elapsed().as_secs_f64()
    );
    (reports, wrong)
}

fn verdict(wrong: &[String]) -> ExitCode {
    if wrong.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("perf: not correct: {}", wrong.join(" "));
        ExitCode::FAILURE
    }
}

/// `perf run all` / `perf trace all`.
pub fn all(mode: &str, seed: u64, quick: bool) -> ExitCode {
    verdict(&set(mode, seed, quick).1)
}

/// By how much the worse of two readings of `m` is worse than the better,
/// as a share of the better.
fn disagreement(m: &metrics::Metric, a: f64, b: f64) -> f64 {
    let (better, worse) = match m.better {
        Better::Lower => (a.min(b), a.max(b)),
        Better::Higher => (a.max(b), a.min(b)),
    };
    if better == worse {
        0.0
    } else {
        (worse - better).abs() / better.abs().max(f64::MIN_POSITIVE)
    }
}

/// Compares two same-seed runs of one workload metric by metric; returns
/// the metrics that disagree by more than their bound.
pub fn compare(a: &Report, b: &Report) -> Vec<&'static str> {
    let mut out = Vec::new();
    for m in END_TO_END.iter().chain(END_TO_END_PARTIAL) {
        let (Some(x), Some(y), Some(bound)) = (a.get(m.name), b.get(m.name), m.bound) else {
            continue;
        };
        let off = disagreement(m, x, y);
        let ok = off <= bound;
        println!(
            "agree\t{}\t{}\t{x}\t{y}\t{off:.4}\tbound {bound}\t{}",
            a.workload,
            m.name,
            if ok { "ok" } else { "DISAGREE" }
        );
        if !ok {
            out.push(m.name);
        }
    }
    out
}

/// `perf check`: the full set twice with one seed and once with the next.
/// Fails if any run is not correct, or if an end-to-end metric does not
/// repeat: the two same-seed runs of a workload must agree on it within its
/// bound, or — one noisy run of a 15 ms set-up does happen on this VM — a
/// third run must agree with one of them. With `--quick` (1 s windows on
/// eighth-size inputs) the timings are too short to agree and are only
/// printed.
pub fn check(seed: u64, quick: bool) -> ExitCode {
    let (first, mut wrong) = set("run", seed, quick);
    let (second, wrong_again) = set("run", seed, quick);
    let (_, wrong_other) = set("run", seed + 1, quick);
    wrong.extend(wrong_again);
    wrong.extend(wrong_other);
    let mut unrepeatable = Vec::new();
    for (a, b) in first.iter().zip(&second) {
        let mut off = compare(a, b);
        if !off.is_empty() && !quick {
            let c = execute("run", &a.workload, seed, quick);
            if !c.correct() {
                wrong.push(c.workload.clone());
            }
            let (with_a, with_b) = (compare(a, &c), compare(b, &c));
            off.retain(|m| with_a.contains(m) && with_b.contains(m));
        }
        unrepeatable.extend(off.iter().map(|m| format!("{} {m}", a.workload)));
    }
    if !unrepeatable.is_empty() {
        eprintln!(
            "perf: same-seed runs disagree beyond the bound: {}",
            unrepeatable.join(", ")
        );
        if !quick {
            return ExitCode::FAILURE;
        }
    }
    verdict(&wrong)
}

/// `perf baseline`: `runs` sets of runs and traces, each with another seed;
/// writes median, quartiles and every reading per workload and metric.
pub fn baseline(seed: u64, runs: u64) -> ExitCode {
    let mut readings: BTreeMap<(String, String), Vec<(f64, u64)>> = BTreeMap::new();
    let mut wrong = Vec::new();
    for k in 0..runs {
        for mode in ["run", "trace"] {
            let (reports, bad) = set(mode, seed + k, false);
            wrong.extend(bad);
            for r in reports {
                for row in r.rows {
                    readings
                        .entry((r.workload.clone(), row.name))
                        .or_default()
                        .push((row.value, row.samples));
                }
            }
        }
    }
    let listed = |name: &str, list: &[metrics::Metric]| list.iter().any(|m| m.name == name);
    let workloads = WORKLOADS.iter().map(|w| {
        let section = |list: &'static [metrics::Metric]| {
            Json::obj(
                readings
                    .iter()
                    .filter(|((wl, name), _)| wl == w.name && listed(name, list))
                    .map(|((_, name), values)| {
                        let v: Vec<f64> = values.iter().map(|(x, _)| *x).collect();
                        let (q1, q3) = quartiles(&v);
                        let m = metrics::find(name).expect("a listed metric");
                        let mut pairs = vec![
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.word())),
                            ("median", Json::Num(median(&v))),
                            ("q1", Json::Num(q1)),
                            ("q3", Json::Num(q3)),
                            (
                                "readings",
                                Json::Arr(v.iter().map(|x| Json::Num(*x)).collect()),
                            ),
                            ("samples", Json::Int(values[values.len() / 2].1)),
                        ];
                        if let Some(bound) = m.bound {
                            pairs.insert(2, ("bound", Json::Num(bound)));
                        }
                        (name.as_str(), Json::obj(pairs))
                    }),
            )
        };
        (
            w.name,
            Json::obj([
                ("end_to_end", section(END_TO_END)),
                ("end_to_end_partial", section(END_TO_END_PARTIAL)),
                ("per_layer", section(PER_LAYER)),
            ]),
        )
    });
    let doc = Json::obj([
        (
            "what",
            Json::str(
                "readings of `perf baseline` at the commit that added the benchmark: one `perf run` \
                 and one `perf trace` per workload and seed; re-measure before comparing",
            ),
        ),
        ("seeds", Json::Arr((0..runs).map(|k| Json::Int(seed + k)).collect())),
        (
            "cores",
            Json::Int(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("workloads", Json::obj(workloads)),
    ]);
    let path = crate::out_dir().join("baseline.json");
    if let Err(e) = std::fs::write(&path, doc.pretty()) {
        eprintln!("perf: cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("baseline\t{}", path.display());
    verdict(&wrong)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole harness on eighth-size inputs with 1 s windows: every
    /// workload answers correctly, every listed metric gets a value, and the
    /// counts of the serial replay repeat exactly.
    #[test]
    fn quick_sets_are_correct_complete_and_repeatable() {
        let (runs, wrong) = set("run", 7, true);
        assert!(wrong.is_empty(), "not correct: {wrong:?}");
        for r in &runs {
            for m in END_TO_END {
                let v = r.get(m.name);
                assert!(
                    v.is_some_and(|v| v.is_finite() && v > 0.0),
                    "{} {} = {v:?}",
                    r.workload,
                    m.name
                );
            }
            assert_eq!(r.get("failed_ops_share"), Some(0.0), "{}", r.workload);
        }
        let writes = |name: &str| runs.iter().filter(|r| r.get(name).is_some()).count();
        assert_eq!(writes("write_p50_us"), 3);
        assert_eq!(writes("recovery_ms"), 1);

        let (first, wrong) = set("trace", 7, true);
        assert!(wrong.is_empty(), "not correct: {wrong:?}");
        let (second, _) = set("trace", 7, true);
        for (a, b) in first.iter().zip(&second) {
            for m in PER_LAYER {
                assert!(
                    a.get(m.name).is_some_and(f64::is_finite),
                    "{} {}",
                    a.workload,
                    m.name
                );
            }
            for name in EXACT_COUNTS {
                assert_eq!(a.get(name), b.get(name), "{} {name}", a.workload);
            }
        }
        // The comparison itself must run; a report agrees with itself.
        assert!(runs.iter().all(|r| compare(r, &r.clone()).is_empty()));
    }

    #[test]
    fn child_rows_parse_back() {
        let mut r = Report::new("onedim_read", 3);
        r.attempted = 5;
        r.push("ops_per_s", 1234.5, 99);
        let text = "metric\tonedim_read\tops_per_s\t1234.5\t1/s\t99\nresult\tonedim_read\tattempted=5\tfailed=0\tcorrect=true\n";
        let back = parse_rows("onedim_read", 3, text);
        assert_eq!(back.get("ops_per_s"), Some(1234.5));
        assert_eq!((back.attempted, back.failed), (5, 0));
        assert!(back.correct());
    }

    #[test]
    fn disagreement_is_relative_to_the_better_reading() {
        let lower = metrics::find("read_p50_us").unwrap();
        let higher = metrics::find("ops_per_s").unwrap();
        assert!((disagreement(lower, 100.0, 110.0) - 0.1).abs() < 1e-12);
        assert!((disagreement(higher, 100.0, 80.0) - 0.2).abs() < 1e-12);
        assert_eq!(disagreement(lower, 0.0, 0.0), 0.0);
    }
}
