//! The benchmark's vocabulary in one place: workloads, metrics, units,
//! directions and regression bounds. `BENCHMARK.json` is rendered from these
//! tables (`perf manifest`), and a test holds the committed file to them.

use crate::stats::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline by which the metric may worsen before
    /// `perf check` (and the driver) call it a regression; `None` for layer
    /// metrics, which explain a number and gate nothing.
    pub bound: Option<f64>,
}

const fn bounded(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics every workload reports (none is ever 0): the
/// `end_to_end` list of `BENCHMARK.json`. The bounds are as wide as the
/// contract allows because of the machine, not the metrics: ten runs with
/// ten seeds spread (interquartile, over the median) by 0.04 to 0.12 on the
/// timings of this 2-core VM, and the machine's speed drifts by a tenth
/// over a quarter of an hour (see README, noise notes).
pub const END_TO_END: &[Metric] = &[
    bounded("setup_s", "s", Lower, 0.25),
    bounded("ops_per_s", "1/s", Higher, 0.25),
    bounded("read_p50_us", "us", Lower, 0.25),
    bounded("read_tail_us", "us", Lower, 0.25),
    bounded("msgs_per_read", "count", Lower, 0.20),
    bounded("peak_rss_mb", "MiB", Lower, 0.25),
];

/// End-to-end metrics only some workloads exercise. `BENCHMARK.json` cannot
/// carry them (each of its metrics must read non-zero on every workload), so
/// `perf run` prints them, `perf check` holds them to these bounds, and
/// `baseline.json` records them.
pub const END_TO_END_PARTIAL: &[Metric] = &[
    bounded("write_p50_us", "us", Lower, 0.25),
    bounded("write_tail_us", "us", Lower, 0.25),
    bounded("msgs_per_write", "count", Lower, 0.20),
    bounded("recovery_ms", "ms", Lower, 0.25),
    bounded("wal_bytes_per_write", "count", Lower, 0.10),
    // Any rise fails: the seed commit reads 0 on every workload.
    bounded("failed_ops_share", "ratio", Lower, 0.0),
];

/// Per-layer metrics of the traced run, by layer.
pub const PER_LAYER: &[Metric] = &[
    layer("structures.locate_ns", "ns", Lower),
    layer("structures.search_step_ns", "ns", Lower),
    layer("structures.search_path_len", "count", Lower),
    layer("structures.conflicts_ns", "ns", Lower),
    layer("structures.build_ns_per_item", "ns", Lower),
    layer("skipweb.build_ms", "ms", Lower),
    layer("skipweb.query_ns", "ns", Lower),
    layer("skipweb.query_msgs", "count", Lower),
    layer("skipweb.apply_insert_us", "us", Lower),
    layer("skipweb.apply_remove_us", "us", Lower),
    layer("skipweb.apply_scaling_4x", "ratio", Lower),
    layer("skipweb.ranges_per_item", "count", Lower),
    layer("skipweb.max_host_memory", "count", Lower),
    layer("engine.spawn_ms", "ms", Lower),
    layer("engine.read_1host_us", "us", Lower),
    layer("engine.read_us", "us", Lower),
    layer("engine.hop_us", "us", Lower),
    layer("engine.hop_self_us", "us", Lower),
    layer("engine.read_self_us", "us", Lower),
    layer("engine.write_1host_us", "us", Lower),
    layer("engine.write_self_us", "us", Lower),
    layer("engine.write_scaling_4x", "ratio", Lower),
    layer("engine.publishes_per_write", "count", Lower),
    layer("engine.batch64_read_us_per_op", "us", Lower),
    layer("engine.scatter_box_us", "us", Lower),
    layer("engine.serial_box_us", "us", Lower),
    layer("net.msg_us", "us", Lower),
    layer("net.client_rtt_us", "us", Lower),
    layer("net.sent_per_op", "count", Lower),
    layer("net.recv_skew", "ratio", Lower),
    layer("net.batch_ops_per_envelope", "count", Higher),
    layer("net.dropped", "count", Lower),
    layer("net.stale_replies", "count", Lower),
    layer("store.put_us", "us", Lower),
    layer("store.get_us", "us", Lower),
    layer("store.delete_us", "us", Lower),
    layer("store.scan_ns_per_key", "ns", Lower),
    layer("store.put_overhead_us", "us", Lower),
    layer("store.flush_us", "us", Lower),
    layer("store.open_ms", "ms", Lower),
    layer("wal.append_ns", "ns", Lower),
    layer("wal.bytes_per_record", "count", Lower),
    layer("wal.read_ns_per_record", "ns", Lower),
    layer("wal.checkpoint_write_ms", "ms", Lower),
    layer("wal.checkpoint_read_ms", "ms", Lower),
    layer("client.read_p50_us", "us", Lower),
    layer("gen.self_us_per_op", "us", Lower),
    layer("trace.overhead_share", "ratio", Lower),
];

/// Every metric, in the order reports list them.
fn all() -> impl Iterator<Item = &'static Metric> {
    END_TO_END.iter().chain(END_TO_END_PARTIAL).chain(PER_LAYER)
}

pub fn find(name: &str) -> Option<&'static Metric> {
    all().find(|m| m.name == name)
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// The percentile `read_tail_us` and `write_tail_us` report: p99 where
    /// a window holds a hundred thousand samples, p95 where it holds
    /// hundreds to a few thousand (the guide's "ten samples beyond it",
    /// with room: on `store_kv` a p99 of 7000 serial gets swung 3x between
    /// runs with the VM's disk). Fixed per workload rather than chosen from
    /// the sample count, so that a run a little faster or slower never
    /// reports a different percentile.
    pub tail: f64,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "onedim_read",
        why: "1-D nearest-key reads, n=16384, uniform: routing, messages and navigation only; bypasses apply, publish and WAL",
        tail: 99.0,
    },
    Workload {
        name: "quadtree_read",
        why: "2-D quadtree locate and box reports, n=16384, hot-range targets: same engine, another structure, large answers",
        tail: 99.0,
    },
    Workload {
        name: "onedim_churn",
        why: "1-D, half reads and half inserts/removes interleaved, n=3072: apply, state lock, publish and repair messages dominate",
        tail: 95.0,
    },
    Workload {
        name: "trie_churn",
        why: "trie over ISBN-like strings, half prefix reads and half inserts/removes, n=768: the apply path on heap items",
        tail: 95.0,
    },
    Workload {
        name: "store_kv",
        why: "skipweb-store get/put/delete/scan, Zipf(0.99) gets, n=1536, then kill-all and recover: WAL, fsync, recovery",
        tail: 95.0,
    },
];

/// Seconds one driver-run measures: `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 10;

/// Where this package lives in the repository, as `BENCHMARK.json` names it.
pub const HOME: &str = "crates/bench/src/bin/perf";

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let metric = |m: &Metric| {
        let mut pairs = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.word())),
        ];
        if let Some(bound) = m.bound {
            pairs.push(("bound", Json::Num(bound)));
        }
        Json::obj(pairs)
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        &format!("{HOME}/Cargo.toml"),
        "--",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(command.iter().map(|s| Json::str(*s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str(HOME)])),
        ("run_seconds", Json::Int(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric).collect()),
        ),
    ])
    .pretty()
}

/// One measured value. `samples` is how many observations stand behind it
/// (0 where the notion does not apply, e.g. peak memory).
#[derive(Debug, Clone)]
pub struct Row {
    pub name: String,
    pub value: f64,
    pub samples: u64,
}

/// Everything one run of one workload yields.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub rows: Vec<Row>,
    pub attempted: u64,
    pub failed: u64,
    /// Which check failed, for a person reading the output.
    pub notes: Vec<String>,
}

impl Report {
    pub fn new(workload: &str, seed: u64) -> Self {
        Report {
            workload: workload.to_string(),
            seed,
            ..Report::default()
        }
    }

    pub fn push(&mut self, name: &str, value: f64, samples: u64) {
        debug_assert!(find(name).is_some(), "unlisted metric {name}");
        self.rows.push(Row {
            name: name.to_string(),
            value,
            samples,
        });
    }

    /// Puts the rows in the tables' order (probes finish in another).
    pub fn sort(&mut self) {
        self.rows
            .sort_by_key(|r| all().position(|m| m.name == r.name));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|r| r.name == name).map(|r| r.value)
    }

    /// A model check that is not one op's reply (the final ground set, a
    /// recovered scan): one more attempt, failed unless `ok`.
    pub fn check(&mut self, ok: bool, note: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(note.to_string());
        }
    }

    pub fn fail(&mut self, note: String) {
        self.check(false, &note);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The rows named in `list`, in the list's order, as the driver's
    /// result line wants them.
    pub fn result_line(&self, list: &[Metric]) -> String {
        let metrics = list.iter().map(|m| {
            let value = self.get(m.name).unwrap_or(f64::NAN);
            (
                m.name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(m.unit))]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.attempted.max(1))),
            ("failed", Json::Int(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
        .line()
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(&self.workload)),
            ("seed", Json::Int(self.seed)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.attempted)),
            ("failed", Json::Int(self.failed)),
            (
                "notes",
                Json::Arr(self.notes.iter().map(Json::str).collect()),
            ),
            (
                "metrics",
                Json::obj(self.rows.iter().map(|r| {
                    let unit = find(&r.name).map_or("", |m| m.unit);
                    (
                        r.name.as_str(),
                        Json::obj([
                            ("value", Json::Num(r.value)),
                            ("unit", Json::str(unit)),
                            ("samples", Json::Int(r.samples)),
                        ]),
                    )
                })),
            ),
        ])
    }

    /// The human-readable table; `perf check` and `perf baseline` read the
    /// `metric` lines back from a child's output.
    pub fn print(&self) {
        for r in &self.rows {
            let unit = find(&r.name).map_or("", |m| m.unit);
            println!(
                "metric\t{}\t{}\t{}\t{}\t{}",
                self.workload, r.name, r.value, unit, r.samples
            );
        }
        for note in &self.notes {
            println!("note\t{}\t{note}", self.workload);
        }
        println!(
            "result\t{}\tattempted={}\tfailed={}\tcorrect={}",
            self.workload,
            self.attempted,
            self.failed,
            self.correct()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_manifest_limits() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(END_TO_END_PARTIAL)
            .chain(PER_LAYER)
            .map(|m| m.name)
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        let legal = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        for name in names {
            assert!(legal(name, "_.-", 64), "{name}");
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(legal(m.unit, "_/%.-", 16), "{}", m.unit);
        }
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && setup.better == Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=128).contains(&PER_LAYER.len()) && (2..=8).contains(&WORKLOADS.len()));
    }

    #[test]
    fn committed_manifest_matches_the_tables() {
        // The package sits five directories below the repository root.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        // Built as `--bin perf` of `skipweb-bench` the manifest directory is
        // `crates/bench` instead: two levels up.
        let alt = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let committed = std::fs::read_to_string(path)
            .or_else(|_| std::fs::read_to_string(alt))
            .expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed,
            benchmark_json(),
            "run `perf manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::new("onedim_read", 1);
        r.attempted = 10;
        r.push("setup_s", 0.5, 3);
        let line = r.result_line(&END_TO_END[..1]);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"}}}"#
        );
    }
}
