//! The untraced run of a fabric workload, and the shape every run shares:
//! several segments, each on a deployment of its own, and the median
//! segment reported. All end-to-end numbers come from here.
//!
//! Why segments. A skip-web's level structure comes from its own coin
//! flips, and one draw of them is worth ±10 % of throughput on this code
//! (measured: the same keys under six coin seeds). A run that measured one
//! draw would mostly report that draw's luck. So the measured window is
//! cut into [`SEGMENTS`] parts; each part builds the web afresh with its
//! own coin seed ([`coin_seed`]), warms up, and measures; the run reports
//! the median part. The set-ups that this takes are the same ones
//! `setup_s` is the median of.

use std::time::{Duration, Instant};

use skipweb_net::runtime::RuntimeError;
use skipweb_net::HostTraffic;

use crate::fabric::{deploy, Driver, Live, Shape, Structure, CLIENTS, HOSTS};
use crate::gen::Rng;
use crate::metrics::Report;
use crate::stats::{median, peak_rss_mb, percentile};

/// Parts of one measured window (see the module docs).
pub const SEGMENTS: usize = 5;

/// The coin seed of segment `k` — of the web's tower bits and of the
/// engine's generator. The same on every run: the coins are the structure's
/// own, not an input, and the inputs (`--seed`) then land on the same five
/// level shapes every time.
pub fn coin_seed(k: usize) -> u64 {
    Rng::stream(0x5eed_c015, &format!("coins-{k}")).next_u64()
}

/// How long and how large one run is. The same on every commit: a window
/// is part of the benchmark's definition, not a knob of the change under
/// test.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    pub seed: u64,
    /// The measured time, all segments together.
    pub window: Duration,
    /// Unmeasured time under load before the window, all segments together.
    pub warmup: Duration,
    /// Divides every workload's size (1, or 8 for `--quick`).
    pub shrink: usize,
    pub segments: usize,
}

impl RunCfg {
    pub fn full(seed: u64, window_s: u64) -> Self {
        RunCfg {
            seed,
            window: Duration::from_secs(window_s),
            warmup: Duration::from_secs(2),
            shrink: 1,
            segments: SEGMENTS,
        }
    }

    pub fn quick(seed: u64) -> Self {
        RunCfg {
            seed,
            window: Duration::from_secs(1),
            warmup: Duration::from_millis(200),
            shrink: 8,
            segments: 2,
        }
    }

    /// The seed of segment `k`'s op stream: `--seed`'s.
    pub fn stream_seed(&self, k: usize) -> u64 {
        Rng::stream(self.seed, &format!("segment-{k}")).next_u64()
    }

    pub fn segment_window(&self) -> Duration {
        self.window / self.segments as u32
    }

    pub fn segment_warmup(&self) -> Duration {
        self.warmup / self.segments as u32
    }
}

/// What one segment measured.
#[derive(Default)]
pub struct Segment {
    pub ops: u64,
    pub secs: f64,
    pub setup_s: f64,
    pub reads: Vec<u64>,
    pub writes: Vec<u64>,
    pub query_msgs: u64,
    pub update_msgs: u64,
}

impl Segment {
    pub fn count_msgs(&mut self, before: &HostTraffic, after: &HostTraffic) {
        self.query_msgs = after.total_query_sent() - before.total_query_sent();
        self.update_msgs = after.total_update_sent() - before.total_update_sent();
    }
}

/// `setup_s`, `ops_per_s`, the message counts and the latency rows of a
/// run, from its segments. `tail` is the workload's tail percentile (see
/// `metrics::Workload::tail`).
pub fn push_segments(
    report: &mut Report,
    segments: &mut [Segment],
    more_setups: &[f64],
    tail: f64,
) {
    let of = |f: &dyn Fn(&Segment) -> f64| -> Vec<f64> { segments.iter().map(f).collect() };
    let total = |f: &dyn Fn(&Segment) -> u64| -> u64 { segments.iter().map(f).sum() };
    let mut setups = of(&|s| s.setup_s);
    setups.extend_from_slice(more_setups);
    report.push("setup_s", median(&setups), setups.len() as u64);
    report.push(
        "ops_per_s",
        median(&of(&|s| s.ops as f64 / s.secs)),
        total(&|s| s.ops),
    );
    let (reads, writes) = (
        total(&|s| s.reads.len() as u64),
        total(&|s| s.writes.len() as u64),
    );
    if reads > 0 {
        report.push(
            "msgs_per_read",
            total(&|s| s.query_msgs) as f64 / reads as f64,
            reads,
        );
    }
    if writes > 0 {
        report.push(
            "msgs_per_write",
            total(&|s| s.update_msgs) as f64 / writes as f64,
            writes,
        );
    }
    for s in segments.iter_mut() {
        s.reads.sort_unstable();
        s.writes.sort_unstable();
    }
    push_latencies(report, segments, "read", tail, |s| &s.reads);
    push_latencies(report, segments, "write", tail, |s| &s.writes);
}

/// Median and tail of one class of latencies. Each is the median over the
/// segments of the segment's own percentile where every segment supports
/// it well (thirty samples beyond a tail, three for a median); otherwise
/// the percentile of all segments' samples together.
fn push_latencies(
    report: &mut Report,
    segments: &[Segment],
    class: &str,
    tail: f64,
    of: impl Fn(&Segment) -> &Vec<u64>,
) {
    let mut all: Vec<u64> = segments
        .iter()
        .flat_map(|s| of(s).iter().copied())
        .collect();
    if all.is_empty() {
        return;
    }
    all.sort_unstable();
    let stat = |p: f64, need: usize| {
        let ns = if segments.iter().all(|s| of(s).len() >= need) {
            let each: Vec<f64> = segments
                .iter()
                .map(|s| percentile(of(s), p) as f64)
                .collect();
            median(&each)
        } else {
            percentile(&all, p) as f64
        };
        ns / 1e3
    };
    let n = all.len() as u64;
    let beyond = (100.0 - tail) / 100.0;
    if (n as f64 * beyond) < 10.0 {
        report.notes.push(format!(
            "{class}_tail_us (p{tail}) has fewer than ten of its {n} samples beyond it"
        ));
    }
    report.push(&format!("{class}_p50_us"), stat(50.0, 3), n);
    report.push(
        &format!("{class}_tail_us"),
        stat(tail, (30.0 / beyond).ceil() as usize),
        n,
    );
}

/// A set-up of a few milliseconds is timed more often than the segments
/// need it: one page-fault storm is a large share of one of them. Calls
/// `setup` (which sets up, tears down, and returns the set-up's seconds)
/// until the segments' set-ups and these add up to [`SETUP_BUDGET`], at
/// most [`MAX_MORE_SETUPS`] times.
pub fn more_setups<E>(
    cfg: &RunCfg,
    segments: &[Segment],
    mut setup: impl FnMut(u64) -> Result<f64, E>,
) -> Result<Vec<f64>, E> {
    let mut spent: f64 = segments.iter().map(|s| s.setup_s).sum();
    let mut more = Vec::new();
    while cfg.shrink == 1 && spent < SETUP_BUDGET && more.len() < MAX_MORE_SETUPS {
        let secs = setup(coin_seed(segments.len() + more.len()))?;
        spent += secs;
        more.push(secs);
    }
    Ok(more)
}

const SETUP_BUDGET: f64 = 1.0;
const MAX_MORE_SETUPS: usize = 20;

/// The last rows of every run.
pub fn push_closing(report: &mut Report) {
    if report.failed > 0 && report.notes.is_empty() {
        report
            .notes
            .push(format!("{} replies failed the oracle", report.failed));
    }
    report.push("failed_ops_share", report.failed_share(), report.attempted);
    report.push("peak_rss_mb", peak_rss_mb(), 0);
}

/// One segment of a fabric workload: deploy, warm up, measure, drain, and
/// compare the fabric's ground set with the model's.
fn segment<S: Shape>(
    shape: &S,
    k: usize,
    cfg: &RunCfg,
    report: &mut Report,
) -> Result<Segment, RuntimeError> {
    let dep = deploy::<Structure<S>>(shape.items(), coin_seed(k), HOSTS);
    let mut seg = Segment {
        setup_s: dep.build_s + dep.spawn_s,
        ..Segment::default()
    };
    let expected = shape.model(&dep.web);
    let mut driver = Driver::new(shape, &expected, dep.web.len(), CLIENTS, cfg.stream_seed(k));
    let mut port = Live::<S> {
        fabric: &dep.fabric,
        client: &dep.client,
    };
    let outcome = (|| {
        driver.drive(&mut port, Instant::now() + cfg.segment_warmup())?;
        let before = dep.fabric.traffic();
        let first = driver.samples.len();
        let start = Instant::now();
        driver.drive(&mut port, start + cfg.segment_window())?;
        seg.secs = start.elapsed().as_secs_f64();
        seg.count_msgs(&before, &dep.fabric.traffic());
        let measured = &driver.samples[first..];
        seg.ops = measured.len() as u64;
        let of = |read: bool| {
            measured
                .iter()
                .filter(move |s| s.read == read)
                .map(|s| s.latency_ns)
                .collect()
        };
        (seg.reads, seg.writes) = (of(true), of(false));
        driver.drain(&mut port)
    })();
    report.attempted += driver.attempted;
    report.failed += driver.failed;
    if outcome.is_ok() {
        let mut ground = dep.fabric.ground();
        ground.sort();
        report.check(
            ground == driver.model_ground(),
            "the fabric's ground set differs from the model's",
        );
    }
    dep.fabric.shutdown();
    outcome.map(|()| seg)
}

pub fn run<S: Shape>(workload: &str, tail: f64, cfg: &RunCfg) -> Report {
    let mut report = Report::new(workload, cfg.seed);
    let shape = S::new(cfg.seed, cfg.shrink);
    let mut segments = Vec::new();
    for k in 0..cfg.segments {
        match segment(&shape, k, cfg, &mut report) {
            Ok(seg) => segments.push(seg),
            Err(e) => {
                report.fail(format!("segment {k} stopped early: {e}"));
                break;
            }
        }
    }
    if segments.len() == cfg.segments {
        let more = more_setups(cfg, &segments, |seed| {
            let dep = deploy::<Structure<S>>(shape.items(), seed, HOSTS);
            dep.fabric.shutdown();
            Ok::<f64, RuntimeError>(dep.build_s + dep.spawn_s)
        })
        .expect("deploying cannot fail");
        push_segments(&mut report, &mut segments, &more, tail);
    }
    push_closing(&mut report);
    report
}
