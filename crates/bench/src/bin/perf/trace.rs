//! The traced run: a serial replay of the workload's op stream with a span
//! per op, then timed calls into each layer's public functions on the same
//! inputs. Every per-layer number comes from here; no end-to-end number
//! does.
//!
//! Spans are recorded from outside the program, around the calls into each
//! layer, kept in memory, and written to `<out>/<workload>.trace.json` at
//! the end. A layer's self time is found by subtraction along the nesting
//! store ⊃ engine ⊃ {skipweb, net, structures}; each remainder is a metric
//! of its own (`engine.read_self_us`, `engine.write_self_us`,
//! `engine.hop_self_us`, `store.put_overhead_us`), so time nobody accounts
//! for stays visible.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use skipweb_core::engine::Routable;
use skipweb_core::skipweb::SkipWeb;
use skipweb_net::runtime::{Actor, ClientId, Context, Runtime, RuntimeError, Sender};
use skipweb_net::sim::MessageMeter;
use skipweb_net::{HostId, HostTraffic};
use skipweb_store::wal::{self, WalRecord};
use skipweb_store::StoreError;
use skipweb_structures::traits::RangeDetermined;
use skipweb_structures::SortedLinkedList;

use crate::fabric::{
    deploy, Deployment, Driver, Item, Live, OpKind, Request, Shape, Structure, Stub, CLIENTS, HOSTS,
};
use crate::gen::Rng;
use crate::metrics::Report;
use crate::run::RunCfg;
use crate::shapes::{OneDim, KV};
use crate::stats::{mean, median, Json};
use crate::store::{scratch_dir, value_of, KvDriver, KvInputs};

/// Ops the serial replay traces: enough reads for a steady mean, and as
/// many writes as a few seconds hold at the seed commit's ~20 ms each.
/// Fixed counts, so every count the replay yields repeats exactly.
fn replay_ops(read_only: bool, shrink: usize) -> usize {
    (if read_only { 2000 } else { 400 }) / shrink
}

#[derive(Debug)]
struct Span {
    parent: Option<usize>,
    /// The op span whose inputs this probe replays.
    cause: Option<usize>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    detail: Option<(&'static str, u32)>,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn add(
        &mut self,
        parent: Option<usize>,
        cause: Option<usize>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            parent,
            cause,
            name,
            start_ns: (start - self.origin).as_nanos() as u64,
            end_ns: (end - self.origin).as_nanos() as u64,
            detail: None,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a probe span caused by op span `cause`; returns `f`'s
    /// result and the nanoseconds it took.
    fn probe<R>(
        &mut self,
        cause: Option<usize>,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let end = Instant::now();
        self.add(None, cause, name, start, end);
        (out, (end - start).as_nanos() as f64)
    }

    fn to_json(&self, workload: &str, seed: u64) -> Json {
        let spans = self.spans.iter().enumerate().map(|(id, s)| {
            let mut pairs = vec![
                ("id", Json::Int(id as u64)),
                ("name", Json::str(s.name)),
                ("start_ns", Json::Int(s.start_ns)),
                ("end_ns", Json::Int(s.end_ns)),
            ];
            if let Some(p) = s.parent {
                pairs.push(("parent", Json::Int(p as u64)));
            }
            if let Some(c) = s.cause {
                pairs.push(("cause", Json::Int(c as u64)));
            }
            if let Some((kind, hops)) = s.detail {
                pairs.push(("kind", Json::str(kind)));
                pairs.push(("hops", Json::Int(u64::from(hops))));
            }
            Json::obj(pairs)
        });
        Json::obj([
            ("workload", Json::str(workload)),
            ("seed", Json::Int(seed)),
            ("spans", Json::Arr(spans.collect())),
        ])
    }
}

/// Samples per metric name, in the metric's own unit.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn add(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    fn count(&self, name: &str) -> usize {
        self.0.get(name).map_or(0, Vec::len)
    }

    fn mean(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| mean(v))
    }

    /// Reports the mean of every collected series under its own name.
    fn report(&self, report: &mut Report) {
        for (name, values) in &self.0 {
            report.push(name, mean(values), values.len() as u64);
        }
    }
}

/// Calls `f` at least `min` times, then until `max` calls or until `budget`
/// is spent: slow layers (a 200 ms update at n = 16 384) get a few samples,
/// fast ones a steady mean, and a traced run stays a few seconds long.
fn repeat(min: usize, max: usize, budget: Duration, mut f: impl FnMut(usize)) {
    let start = Instant::now();
    for i in 0..max {
        if i >= min && start.elapsed() >= budget {
            break;
        }
        f(i);
    }
}

const PROBE_BUDGET: Duration = Duration::from_millis(400);

fn micros(since: Instant) -> f64 {
    since.elapsed().as_nanos() as f64 / 1e3
}

/// The structure-level probes for one read: `locate`, a `search_path` from
/// an entry a few items away in canonical order (the skip-web enters each
/// level that close to the target), and the same walk by `search_step`.
fn probe_structure<D: RangeDetermined>(
    base: &D,
    item: &D::Item,
    target: &D::Query,
    cause: Option<usize>,
    tr: &mut Tracer,
    acc: &mut Samples,
) {
    const NEARBY: usize = 8;
    let ground = base.items();
    let rank = ground.partition_point(|g| D::canonical_cmp(g, item).is_lt());
    let near = if rank + NEARBY < ground.len() {
        rank + NEARBY
    } else {
        rank.saturating_sub(NEARBY)
    };
    let from = base.entry_of_item(near);
    let (_, ns) = tr.probe(cause, "probe.structures.locate", || base.locate(target));
    acc.add("structures.locate_ns", ns);
    let (path, _) = tr.probe(cause, "probe.structures.search_path", || {
        base.search_path(from, target)
    });
    acc.add("structures.search_path_len", path.len() as f64);
    let (steps, ns) = tr.probe(cause, "probe.structures.search_step", || {
        let (mut at, mut steps) = (from, 0u32);
        while let Some(next) = base.search_step(at, target) {
            at = next;
            steps += 1;
        }
        steps
    });
    if steps > 0 {
        acc.add("structures.search_step_ns", ns / f64::from(steps));
    }
}

fn probe_conflicts<D: RangeDetermined>(
    base: &D,
    item: &D::Item,
    cause: Option<usize>,
    tr: &mut Tracer,
    acc: &mut Samples,
) {
    let (_, ns) = tr.probe(cause, "probe.structures.conflicts", || {
        base.conflicts(&D::probe_range(item))
    });
    acc.add("structures.conflicts_ns", ns);
}

/// What a read stands for below the engine: the simulator's descent on
/// `web`, and the structure-level walk at level 0.
fn probe_read<S: Shape>(
    web: &SkipWeb<Structure<S>>,
    origin: usize,
    req: &Request<S>,
    cause: Option<usize>,
    tr: &mut Tracer,
    acc: &mut Samples,
) {
    let target = <Structure<S> as Routable>::target(req);
    let (out, ns) = tr.probe(cause, "probe.skipweb.query", || {
        web.query(origin, &target, &mut MessageMeter::new())
    });
    acc.add("skipweb.query_ns", ns);
    acc.add("skipweb.query_msgs", out.messages as f64);
    probe_structure(web.base(), &S::target_item(req), &target, cause, tr, acc);
}

/// The structural half of an insert, on the private web `sim`.
fn probe_insert<D: RangeDetermined>(
    sim: &mut SkipWeb<D>,
    item: &D::Item,
    bits: u64,
    cause: Option<usize>,
    tr: &mut Tracer,
    acc: &mut Samples,
) {
    let (_, ns) = tr.probe(cause, "probe.skipweb.apply_insert", || {
        sim.apply_insert_batch(vec![(item.clone(), bits)])
    });
    acc.add("skipweb.apply_insert_us", ns / 1e3);
}

/// The structural half of a remove, on the private web `sim`.
fn probe_remove<D: RangeDetermined>(
    sim: &mut SkipWeb<D>,
    item: &D::Item,
    cause: Option<usize>,
    tr: &mut Tracer,
    acc: &mut Samples,
) {
    let (_, ns) = tr.probe(cause, "probe.skipweb.apply_remove", || {
        sim.apply_remove_batch(std::slice::from_ref(item))
    });
    acc.add("skipweb.apply_remove_us", ns / 1e3);
}

/// Messages per op and receive skew (the busiest host's share over the mean:
/// the live congestion measure) between two traffic snapshots.
fn push_traffic(report: &mut Report, before: &HostTraffic, after: &HostTraffic, ops: usize) {
    report.push(
        "net.sent_per_op",
        (after.total_sent() - before.total_sent()) as f64 / ops as f64,
        ops as u64,
    );
    let received: Vec<f64> = after
        .received
        .iter()
        .zip(&before.received)
        .map(|(a, b)| (a - b) as f64)
        .collect();
    let busiest = received.iter().copied().fold(0.0, f64::max);
    report.push(
        "net.recv_skew",
        busiest / mean(&received).max(f64::MIN_POSITIVE),
        ops as u64,
    );
}

/// Serial replay of a fabric workload's op stream: one root span per op
/// with `client.submit` and `client.wait` below it, and — in lockstep on a
/// private copy of the web — the layer calls the op stands for.
fn replay<S: Shape>(
    shape: &S,
    dep: &Deployment<Structure<S>>,
    cfg: &RunCfg,
    report: &mut Report,
    tr: &mut Tracer,
    acc: &mut Samples,
) -> Result<(), RuntimeError> {
    let expected = shape.model(&dep.web);
    let mut sim = dep.web.clone();
    let mut driver = Driver::new(shape, &expected, dep.web.len(), 1, cfg.seed);
    let mut port = Live::<S> {
        fabric: &dep.fabric,
        client: &dep.client,
    };
    let traced = replay_ops(shape.mix().read == 100, cfg.shrink);
    let before = dep.fabric.traffic();
    let (mut served_us, mut recording_us, mut read_us) = (0.0, 0.0, Vec::new());
    for _ in 0..traced {
        let done = driver.step(&mut port)?;
        let op = tr.add(None, None, "op", done.t_submit, done.t_done);
        tr.spans[op].detail = Some((done.op.label(), done.hops));
        tr.add(Some(op), None, "client.submit", done.t_submit, done.t_sent);
        tr.add(Some(op), None, "client.wait", done.t_sent, done.t_done);
        let latency_us = (done.t_done - done.t_submit).as_nanos() as f64 / 1e3;
        served_us += latency_us;
        recording_us += micros(done.t_done);
        let cause = Some(op);
        match &done.op.kind {
            OpKind::Read { pool } => {
                read_us.push(latency_us);
                probe_read::<S>(&sim, done.op.origin, &shape.pool()[*pool], cause, tr, acc);
            }
            OpKind::Insert { item, bits, .. } => {
                probe_conflicts(sim.base(), item, cause, tr, acc);
                probe_insert(&mut sim, item, *bits, cause, tr, acc);
            }
            OpKind::Remove { item, .. } => {
                probe_conflicts(sim.base(), item, cause, tr, acc);
                probe_remove(&mut sim, item, cause, tr, acc);
            }
        }
    }
    let after = dep.fabric.traffic();
    push_traffic(report, &before, &after, traced);
    report.push("client.read_p50_us", median(&read_us), read_us.len() as u64);
    // What tracing adds to the serial loop: the time spent recording spans
    // over the time spent being served. (The probes run between ops and
    // delay none of them.)
    report.push(
        "trace.overhead_share",
        recording_us / served_us,
        traced as u64,
    );
    report.attempted += driver.attempted;
    report.failed += driver.failed;
    Ok(())
}

/// Timed calls into `structures`, `core.skipweb` and `core.engine` over the
/// workload's web, and the generator's own cost.
fn layer_probes<S: Shape>(
    shape: &S,
    dep: &Deployment<Structure<S>>,
    cfg: &RunCfg,
    report: &mut Report,
    tr: &mut Tracer,
    acc: &mut Samples,
) -> Result<(), RuntimeError> {
    let items = shape.items();
    let n = items.len();
    let mut rng = Rng::stream(cfg.seed, "probes");
    // Serial numbers far above any the replayed stream reaches.
    let mut fresh = {
        let mut serial = 1 << 19;
        move |rng: &mut Rng| {
            serial += 1;
            shape.fresh(rng, serial)
        }
    };

    // structures: a from-scratch build, and reads the replay did not make
    // (the store's replay goes through the store, not through `replay`).
    repeat(1, 3, PROBE_BUDGET, |_| {
        let (_, ns) = tr.probe(None, "probe.structures.build", || {
            Structure::<S>::build(items.clone())
        });
        acc.add("structures.build_ns_per_item", ns / n as f64);
    });
    let pool = shape.pool();
    let reads_missing = 200usize.saturating_sub(acc.count("skipweb.query_ns"));
    for _ in 0..reads_missing {
        let req = &pool[rng.index(pool.len())];
        probe_read::<S>(&dep.web, rng.index(n), req, None, tr, acc);
    }

    // core.skipweb: single-item applies on a private copy, here and at a
    // quarter of the size. A cost that grows like log n reads about 1.2
    // for the ratio, a linear one 4.
    let mut sim = dep.web.clone();
    let have = acc
        .count("skipweb.apply_insert_us")
        .min(acc.count("skipweb.apply_remove_us"));
    repeat(
        3usize.saturating_sub(have),
        24usize.saturating_sub(have),
        PROBE_BUDGET,
        |_| {
            let item = fresh(&mut rng);
            if acc.count("structures.conflicts_ns") < 24 {
                probe_conflicts(sim.base(), &item, None, tr, acc);
            }
            probe_insert(&mut sim, &item, rng.next_u64(), None, tr, acc);
            probe_remove(&mut sim, &item, None, tr, acc);
        },
    );
    let quarter_items: Vec<Item<S>> = items.iter().step_by(4).cloned().collect();
    let mut quarter = SkipWeb::<Structure<S>>::builder(quarter_items.clone())
        .seed(cfg.seed)
        .build();
    let mut small = Samples::default();
    repeat(3, 24, PROBE_BUDGET, |_| {
        let item = fresh(&mut rng);
        probe_insert(&mut quarter, &item, rng.next_u64(), None, tr, &mut small);
        probe_remove(&mut quarter, &item, None, tr, &mut small);
    });
    let apply_us =
        (acc.mean("skipweb.apply_insert_us") + acc.mean("skipweb.apply_remove_us")) / 2.0;
    let small_us =
        (small.mean("skipweb.apply_insert_us") + small.mean("skipweb.apply_remove_us")) / 2.0;
    report.push(
        "skipweb.apply_scaling_4x",
        apply_us / small_us,
        small.count("skipweb.apply_insert_us") as u64,
    );
    report.push(
        "skipweb.ranges_per_item",
        dep.web.total_ranges() as f64 / n as f64,
        1,
    );
    report.push(
        "skipweb.max_host_memory",
        dep.web.network().max_memory() as f64,
        1,
    );

    // core.engine, reads: serial blocking queries on the 4-host fabric and
    // on a 1-host one (the protocol with no crossing at all).
    let reads = 400 / cfg.shrink.min(4);
    let read_loop =
        |d: &Deployment<Structure<S>>, rng: &mut Rng| -> Result<(f64, f64), RuntimeError> {
            let before = d.fabric.traffic().total_query_sent();
            let start = Instant::now();
            for _ in 0..reads {
                let req = pool[rng.index(pool.len())].clone();
                std::hint::black_box(d.fabric.query(&d.client, rng.index(n), req)?);
            }
            let us = micros(start) / reads as f64;
            let msgs = (d.fabric.traffic().total_query_sent() - before) as f64 / reads as f64;
            Ok((us, msgs))
        };
    let one = deploy::<Structure<S>>(items.clone(), cfg.seed, 1);
    read_loop(&one, &mut rng)?; // warm both fabrics' threads before timing
    read_loop(dep, &mut rng)?;
    let (read_1host_us, _) = read_loop(&one, &mut rng)?;
    let (read_us, msgs_per_read) = read_loop(dep, &mut rng)?;
    let hop_us = (read_us - read_1host_us) / msgs_per_read.max(f64::MIN_POSITIVE);
    report.push("engine.read_1host_us", read_1host_us, reads as u64);
    report.push("engine.read_us", read_us, reads as u64);
    report.push("engine.hop_us", hop_us, reads as u64);
    report.push(
        "engine.read_self_us",
        read_1host_us - acc.mean("skipweb.query_ns") / 1e3,
        reads as u64,
    );

    // core.engine, writes: blocking single-item updates on one host, where
    // what is left after the structural apply is the state lock, the
    // ledger and the publish of a whole new topology.
    let write_loop = |d: &Deployment<Structure<S>>,
                      len: usize,
                      rng: &mut Rng,
                      fresh: &mut dyn FnMut(&mut Rng) -> Item<S>,
                      into: &mut Samples|
     -> Result<f64, RuntimeError> {
        let v0 = d.fabric.health().topology_version;
        let mut failed = None;
        repeat(3, 16, PROBE_BUDGET, |_| {
            let item = fresh(rng);
            let outcome = (|| {
                let start = Instant::now();
                let ins = d.fabric.insert_with(
                    &d.client,
                    rng.index(len),
                    item.clone(),
                    rng.next_u64(),
                )?;
                into.add("engine.write_1host_us", micros(start));
                let start = Instant::now();
                let rem = d.fabric.remove_with(&d.client, rng.index(len), item)?;
                into.add("engine.write_1host_us", micros(start));
                Ok::<bool, RuntimeError>(ins.applied && rem.applied)
            })();
            match outcome {
                Ok(true) => {}
                Ok(false) => failed = Some(RuntimeError::Unavailable),
                Err(e) => failed = Some(e),
            }
        });
        match failed {
            Some(e) => Err(e),
            None => Ok((d.fabric.health().topology_version - v0) as f64),
        }
    };
    let publishes = write_loop(&one, n, &mut rng, &mut fresh, acc)?;
    let writes = acc.count("engine.write_1host_us");
    report.push(
        "engine.publishes_per_write",
        publishes / writes as f64,
        writes as u64,
    );
    report.push(
        "engine.write_self_us",
        acc.mean("engine.write_1host_us") - apply_us,
        writes as u64,
    );
    one.fabric.shutdown();
    let one_quarter = deploy::<Structure<S>>(quarter_items.clone(), cfg.seed, 1);
    write_loop(
        &one_quarter,
        quarter_items.len(),
        &mut rng,
        &mut fresh,
        &mut small,
    )?;
    one_quarter.fabric.shutdown();
    report.push(
        "engine.write_scaling_4x",
        acc.mean("engine.write_1host_us") / small.mean("engine.write_1host_us"),
        small.count("engine.write_1host_us") as u64,
    );

    // Batching and scatter-gather move none of today's end-to-end rows; they
    // are recorded so that a change to either shows.
    // A fixed number of batches from a generator of their own (the one
    // above has made a time-dependent number of draws by now), so that the
    // envelope count repeats exactly.
    let mut batches = Rng::stream(cfg.seed, "batches");
    let before = dep.fabric.traffic();
    for _ in 0..8 {
        let reqs: Vec<_> = (0..64)
            .map(|_| pool[batches.index(pool.len())].clone())
            .collect();
        let start = Instant::now();
        dep.fabric
            .query_batch(&dep.client, batches.index(n), reqs)?;
        acc.add("engine.batch64_read_us_per_op", micros(start) / 64.0);
    }
    let after = dep.fabric.traffic();
    let envelopes = after.total_batch_sent() - before.total_batch_sent();
    report.push(
        "net.batch_ops_per_envelope",
        (after.total_batch_ops() - before.total_batch_ops()) as f64 / envelopes.max(1) as f64,
        envelopes,
    );
    let reports: Vec<_> = pool
        .iter()
        .filter(|r| S::reports(r))
        .take(64)
        .cloned()
        .collect();
    for req in &reports {
        let origin = rng.index(n);
        let start = Instant::now();
        let serial = dep.fabric.query(&dep.client, origin, req.clone())?;
        acc.add("engine.serial_box_us", micros(start));
        let start = Instant::now();
        let scattered = dep.fabric.query_scatter(&dep.client, origin, req.clone())?;
        acc.add("engine.scatter_box_us", micros(start));
        report.check(
            serial.answer == scattered.answer,
            "a scattered report differs from the serial one",
        );
    }

    // The benchmark itself: the generator and the oracle against a stub
    // that answers at once, at the run's own width.
    let expected = shape.model(&dep.web);
    let mut driver = Driver::new(shape, &expected, n, CLIENTS, cfg.seed);
    let mut stub = Stub::<S>::new(&expected);
    let start = Instant::now();
    let ops = 20_000 / cfg.shrink;
    for _ in 0..ops {
        driver.step(&mut stub)?;
    }
    report.push("gen.self_us_per_op", micros(start) / ops as f64, ops as u64);
    Ok(())
}

/// `net.runtime` alone: a trivial actor on a bare two-host runtime.
struct Bounce;

#[derive(Debug)]
enum Ball {
    /// Bounces between the two hosts `left` more times, then replies.
    Hop { left: u32, client: ClientId },
    /// Replies at once: client → host → client.
    Echo { client: ClientId },
}

impl Actor for Bounce {
    type Msg = Ball;
    type Reply = ();

    fn on_message(&mut self, _from: Sender, msg: Ball, ctx: &mut Context<'_, Ball, ()>) {
        match msg {
            Ball::Hop { left: 0, client } | Ball::Echo { client } => ctx.reply(client, ()),
            Ball::Hop { left, client } => {
                let other = HostId(1 - ctx.host().0);
                ctx.send(
                    other,
                    Ball::Hop {
                        left: left - 1,
                        client,
                    },
                );
            }
        }
    }
}

fn net_probes(report: &mut Report, tr: &mut Tracer) -> Result<(), RuntimeError> {
    const HOPS: u32 = 2000;
    const ECHOES: u32 = 2000;
    let rt = Runtime::spawn(2, |_| Bounce);
    let client = rt.client();
    let outcome = (|| {
        let mut best = (f64::MAX, f64::MAX);
        // The best of three: this VM's idle-core wake-ups only ever add time.
        for _ in 0..3 {
            let (sent, ns) = tr.probe(None, "probe.net.ping_pong", || {
                client.send(
                    HostId(0),
                    Ball::Hop {
                        left: HOPS,
                        client: client.id(),
                    },
                )?;
                client.recv_timeout(Duration::from_secs(30))
            });
            sent?;
            let (echoed, echo_ns) = tr.probe(None, "probe.net.client_rtt", || {
                for _ in 0..ECHOES {
                    client.send(
                        HostId(0),
                        Ball::Echo {
                            client: client.id(),
                        },
                    )?;
                    client.recv_timeout(Duration::from_secs(30))?;
                }
                Ok::<(), RuntimeError>(())
            });
            echoed?;
            best = (best.0.min(ns), best.1.min(echo_ns));
        }
        Ok::<_, RuntimeError>(best)
    })();
    rt.shutdown();
    let (hop_ns, echo_ns) = outcome?;
    report.push(
        "net.msg_us",
        hop_ns / 1e3 / f64::from(HOPS),
        u64::from(HOPS),
    );
    report.push(
        "net.client_rtt_us",
        echo_ns / 1e3 / f64::from(ECHOES),
        u64::from(ECHOES),
    );
    Ok(())
}

/// `store` and `store.wal` on a freshly bulk-loaded store of the
/// `store_kv` size, whatever workload is traced: the layers are part of the
/// system either way, and the sizes are fixed.
fn store_probes(
    cfg: &RunCfg,
    report: &mut Report,
    tr: &mut Tracer,
    acc: &mut Samples,
) -> Result<(), StoreError> {
    let inputs = KvInputs::new(cfg.seed, cfg.shrink);
    let dir = scratch_dir("probe");
    let outcome = (|| {
        let (store, wrote_s, total_s) = inputs.open(&dir, cfg.seed)?;
        report.push("wal.checkpoint_write_ms", wrote_s * 1e3, 1);
        report.push("store.open_ms", (total_s - wrote_s) * 1e3, 1);
        let (ck, ns) = tr.probe(None, "probe.wal.checkpoint_read", || {
            wal::read_checkpoint(&dir.join("checkpoint.bin"))
        });
        ck?;
        report.push("wal.checkpoint_read_ms", ns / 1e6, 1);

        let mut rng = Rng::stream(cfg.seed, "store-probes");
        for _ in 0..300 {
            let key = inputs.hot_key(&mut rng);
            let (got, ns) = tr.probe(None, "probe.store.get", || store.get(key));
            got?;
            acc.add("store.get_us", ns / 1e3);
        }
        for _ in 0..200 {
            let from = inputs.hot_key(&mut rng);
            let (rows, ns) = tr.probe(None, "probe.store.scan", || store.scan(from..).len());
            acc.add("store.scan_ns_per_key", ns / rows.max(1) as f64);
        }
        let mut failed = None;
        repeat(8, 48, PROBE_BUDGET * 2, |i| {
            let key = ((1u64 << 38) + i as u64) * 2 + 1;
            let outcome = (|| {
                let (put, ns) =
                    tr.probe(None, "probe.store.put", || store.put(key, value_of(key, 1)));
                put?;
                acc.add("store.put_us", ns / 1e3);
                let (deleted, ns) = tr.probe(None, "probe.store.delete", || store.delete(key));
                deleted?;
                acc.add("store.delete_us", ns / 1e3);
                if i % 4 == 3 {
                    let (flushed, ns) = tr.probe(None, "probe.store.flush", || store.flush());
                    flushed?;
                    acc.add("store.flush_us", ns / 1e3);
                }
                Ok::<(), StoreError>(())
            })();
            failed = failed.take().or(outcome.err());
        });
        store.shutdown();
        if let Some(e) = failed {
            return Err(e);
        }

        // The same inserts on a fabric of the same size with no durability:
        // what the store adds on top is the difference.
        let bare = deploy::<SortedLinkedList>(inputs.keys.clone(), cfg.seed, HOSTS);
        let mut bare_us = Vec::new();
        let mut failed = None;
        repeat(8, 48, PROBE_BUDGET, |i| {
            let key = ((1u64 << 38) + i as u64) * 2 + 1;
            let start = Instant::now();
            let inserted = bare.fabric.insert(&bare.client, key);
            bare_us.push(micros(start));
            failed = failed
                .take()
                .or(inserted.and(bare.fabric.remove(&bare.client, key)).err());
        });
        bare.fabric.shutdown();
        if let Some(e) = failed {
            return Err(e.into());
        }
        report.push(
            "store.put_overhead_us",
            acc.mean("store.put_us") - mean(&bare_us),
            bare_us.len() as u64,
        );

        // The log alone: framed appends to a file, and reading them back.
        const RECORDS: u64 = 2000;
        let path = dir.join("probe.log");
        let mut file = std::fs::File::create(&path)?;
        let (appended, ns) = tr.probe(None, "probe.wal.append", || {
            for seq in 0..RECORDS {
                let rec = WalRecord::Insert {
                    seq,
                    client: 0,
                    op_id: seq,
                    key: seq * 2 + 1,
                    bits: seq.wrapping_mul(0x9e37_79b9_7f4a_7c15),
                    applied: true,
                    value: value_of(seq, 1),
                };
                wal::append_record(&mut file, &rec)?;
            }
            file.sync_data()
        });
        appended?;
        report.push("wal.append_ns", ns / RECORDS as f64, RECORDS);
        report.push(
            "wal.bytes_per_record",
            std::fs::metadata(&path)?.len() as f64 / RECORDS as f64,
            RECORDS,
        );
        let (scan, ns) = tr.probe(None, "probe.wal.read", || wal::read_wal(&path));
        let read = scan?.records.len() as u64;
        report.check(read == RECORDS, "the log read back short");
        report.push("wal.read_ns_per_record", ns / RECORDS as f64, RECORDS);
        Ok(())
    })();
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

/// Everything after the replay, and the trace file.
fn finish<S: Shape>(
    shape: &S,
    dep: Deployment<Structure<S>>,
    cfg: &RunCfg,
    mut report: Report,
    mut tr: Tracer,
    mut acc: Samples,
) -> Report {
    if let Err(e) = layer_probes(shape, &dep, cfg, &mut report, &mut tr, &mut acc) {
        report.fail(format!("a fabric probe failed: {e}"));
    }
    let traffic = dep.fabric.traffic();
    report.push("net.dropped", traffic.total_dropped() as f64, 1);
    report.push("net.stale_replies", traffic.stale_replies as f64, 1);
    dep.fabric.shutdown();
    if let Err(e) = net_probes(&mut report, &mut tr) {
        report.fail(format!("a runtime probe failed: {e}"));
    }
    if let Err(e) = store_probes(cfg, &mut report, &mut tr, &mut acc) {
        report.fail(format!("a store probe failed: {e}"));
    }
    acc.report(&mut report);
    if let Some(msg_us) = report.get("net.msg_us") {
        let hop_us = report.get("engine.hop_us").unwrap_or(0.0);
        report.push("engine.hop_self_us", hop_us - msg_us, 1);
    }
    let path = crate::out_dir().join(format!("{}.trace.json", report.workload));
    if let Err(e) = std::fs::write(&path, tr.to_json(&report.workload, cfg.seed).line()) {
        report.fail(format!("cannot write {}: {e}", path.display()));
    }
    report.sort();
    report
}

/// Set-up as spans: the two halves are the first per-layer numbers.
fn traced_deploy<S: Shape>(
    shape: &S,
    cfg: &RunCfg,
    report: &mut Report,
    tr: &mut Tracer,
) -> Deployment<Structure<S>> {
    let start = Instant::now();
    let dep = deploy::<Structure<S>>(shape.items(), cfg.seed, HOSTS);
    let built = start + Duration::from_secs_f64(dep.build_s);
    let spawned = built + Duration::from_secs_f64(dep.spawn_s);
    let setup = tr.add(None, None, "setup", start, spawned);
    tr.add(Some(setup), None, "skipweb.build", start, built);
    tr.add(Some(setup), None, "engine.spawn", built, spawned);
    report.push("skipweb.build_ms", dep.build_s * 1e3, 1);
    report.push("engine.spawn_ms", dep.spawn_s * 1e3, 1);
    dep
}

pub fn trace<S: Shape>(workload: &str, cfg: &RunCfg) -> Report {
    let mut report = Report::new(workload, cfg.seed);
    let (mut tr, mut acc) = (Tracer::new(), Samples::default());
    let shape = S::new(cfg.seed, cfg.shrink);
    let dep = traced_deploy(&shape, cfg, &mut report, &mut tr);
    if let Err(e) = replay(&shape, &dep, cfg, &mut report, &mut tr, &mut acc) {
        report.fail(format!("the replay stopped early: {e}"));
    }
    finish(&shape, dep, cfg, report, tr, acc)
}

/// `store_kv` replays through the store's own API; the fabric under it is
/// probed as a 1-D web over the same keys.
pub fn trace_store(workload: &str, cfg: &RunCfg) -> Report {
    let mut report = Report::new(workload, cfg.seed);
    let (mut tr, acc) = (Tracer::new(), Samples::default());
    let inputs = KvInputs::new(cfg.seed, cfg.shrink);
    let dir = scratch_dir("trace");
    if let Err(e) = replay_store(&inputs, &dir, cfg, &mut report, &mut tr) {
        report.fail(format!("the replay stopped early: {e}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
    let shape = OneDim::<KV>::new(cfg.seed, cfg.shrink);
    let dep = traced_deploy(&shape, cfg, &mut report, &mut tr);
    finish(&shape, dep, cfg, report, tr, acc)
}

fn replay_store(
    inputs: &KvInputs,
    dir: &std::path::Path,
    cfg: &RunCfg,
    report: &mut Report,
    tr: &mut Tracer,
) -> Result<(), StoreError> {
    let (store, _, _) = inputs.open(dir, cfg.seed)?;
    let mut driver = KvDriver::new(inputs, cfg.seed);
    let log_path = dir.join("probe-lockstep.log");
    let mut log = std::fs::File::create(&log_path)?;
    let traced = 2 * replay_ops(false, cfg.shrink);
    let before = store.fabric().traffic();
    let (mut served_us, mut recording_us, mut get_us) = (0.0, 0.0, Vec::new());
    for seq in 0..traced as u64 {
        let start = Instant::now();
        let done = driver.step(&store)?;
        let end = start + Duration::from_nanos(done.latency_ns);
        let op = tr.add(None, None, "op", start, end);
        tr.spans[op].detail = Some((done.label, 0));
        tr.add(Some(op), None, "store.call", start, end);
        if let Some(ns) = done.flush_ns {
            tr.add(
                Some(op),
                None,
                "store.flush",
                end,
                end + Duration::from_nanos(ns),
            );
        }
        served_us += done.latency_ns as f64 / 1e3;
        recording_us += micros(end);
        match done.label {
            "get" => get_us.push(done.latency_ns as f64 / 1e3),
            "put" => {
                // The record a put of this size appends, on a file of its own.
                let rec = WalRecord::Insert {
                    seq,
                    client: 0,
                    op_id: seq,
                    key: seq,
                    bits: seq,
                    applied: true,
                    value: value_of(seq, 1),
                };
                let (appended, _) = tr.probe(Some(op), "probe.wal.append", || {
                    wal::append_record(&mut log, &rec)
                });
                appended?;
            }
            _ => {}
        }
    }
    let after = store.fabric().traffic();
    push_traffic(report, &before, &after, traced);
    report.push("client.read_p50_us", median(&get_us), get_us.len() as u64);
    report.push(
        "trace.overhead_share",
        recording_us / served_us,
        traced as u64,
    );
    report.attempted += driver.attempted;
    report.failed += driver.failed;
    report.check(
        driver.scan_matches(&store),
        "the store's scan differs from the model",
    );
    store.shutdown();
    Ok(())
}
