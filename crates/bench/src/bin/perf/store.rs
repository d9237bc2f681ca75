//! `store_kv`: `skipweb-store` through its public blocking API, checked
//! against a `BTreeMap`, then killed and recovered three times.
//!
//! The store is driven serially, one call at a time, from the one generator
//! thread: its API blocks, and two blocking client threads on this 2-core
//! box flip between two throughput levels from run to run (see README).

use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::time::Instant;

use skipweb_store::wal::{self, Checkpoint};
use skipweb_store::{Store, StoreBuilder, StoreError};

use crate::fabric::HOSTS;
use crate::gen::{self, Rng, Zipf};
use crate::metrics::Report;
use crate::run::{coin_seed, more_setups, push_closing, push_segments, RunCfg, Segment};
use crate::stats::median;

const VALUE_BYTES: usize = 64;
const SCAN_KEYS: usize = 16;
/// The stated flush policy: `flush()` (fsync of every WAL lane) after this
/// many writes.
const FLUSH_EVERY: u64 = 32;
const RECOVERIES: usize = 3;

/// The value written under `key` at its `version`-th write.
pub fn value_of(key: u64, version: u64) -> Vec<u8> {
    let mut rng = Rng::new(key ^ version.rotate_left(32));
    (0..VALUE_BYTES).map(|_| rng.next_u64() as u8).collect()
}

/// The seeded inputs: the bulk-loaded keys with their tower bits, and the
/// order in which Zipf ranks map to keys (so the hot keys are spread over
/// the key space and over the hosts).
pub struct KvInputs {
    pub keys: Vec<u64>,
    by_rank: Vec<u64>,
    zipf: Zipf,
}

impl KvInputs {
    pub fn new(seed: u64, shrink: usize) -> Self {
        let mut rng = Rng::stream(seed, "store");
        let keys = gen::even_keys(1536 / shrink, &mut rng);
        let mut by_rank = keys.clone();
        rng.shuffle(&mut by_rank);
        let zipf = Zipf::new(keys.len(), 0.99);
        KvInputs {
            keys,
            by_rank,
            zipf,
        }
    }

    pub fn hot_key(&self, rng: &mut Rng) -> u64 {
        self.by_rank[self.zipf.draw(rng)]
    }

    pub fn model(&self) -> BTreeMap<u64, Vec<u8>> {
        self.keys.iter().map(|&k| (k, value_of(k, 0))).collect()
    }

    /// Bulk load: write the keys as a checkpoint and cold-open it. (Loading
    /// by `put` costs milliseconds per key — an update each.) Returns the
    /// store and the seconds the checkpoint write, the read-back inside
    /// `open`, and the whole set-up took.
    pub fn open(&self, dir: &Path, seed: u64) -> Result<(Store, f64, f64), StoreError> {
        let t0 = Instant::now();
        std::fs::create_dir_all(dir)?;
        // The tower bits are the structure's coins: `seed`'s, like the
        // engine's own generator for later inserts.
        let mut coins = Rng::stream(seed, "tower-bits");
        let entries = self
            .keys
            .iter()
            .map(|&k| (k, coins.next_u64(), value_of(k, 0)))
            .collect();
        let ck = Checkpoint {
            last_seq: 0,
            entries,
            ledger: Vec::new(),
        };
        wal::write_checkpoint(&dir.join("checkpoint.bin"), &ck)?;
        let wrote = t0.elapsed().as_secs_f64();
        let store = StoreBuilder::new(dir)
            .hosts(HOSTS)
            .checkpoint_every(0)
            .seed(seed)
            .open()?;
        Ok((store, wrote, t0.elapsed().as_secs_f64()))
    }
}

/// A scratch directory under the build directory the binary runs from —
/// inside the checkout, and ignored by git like the rest of the build.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let base = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(Path::to_path_buf))
        .unwrap_or_else(std::env::temp_dir);
    base.join("perf-scratch")
        .join(format!("{tag}-{}", std::process::id()))
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The op stream and its model, shared by the run and the traced replay.
pub struct KvDriver<'a> {
    inputs: &'a KvInputs,
    rng: Rng,
    model: BTreeMap<u64, Vec<u8>>,
    versions: BTreeMap<u64, u64>,
    fresh: VecDeque<u64>,
    serial: u64,
    pub writes: u64,
    pub attempted: u64,
    pub failed: u64,
}

/// What one step did, for the caller's bookkeeping.
pub struct KvDone {
    pub label: &'static str,
    pub latency_ns: u64,
    pub flush_ns: Option<u64>,
}

impl<'a> KvDriver<'a> {
    pub fn new(inputs: &'a KvInputs, seed: u64) -> Self {
        KvDriver {
            inputs,
            rng: Rng::stream(seed, "kv-ops"),
            model: inputs.model(),
            versions: BTreeMap::new(),
            fresh: VecDeque::new(),
            serial: 0,
            writes: 0,
            attempted: 0,
            failed: 0,
        }
    }

    fn next_value(&mut self, key: u64) -> Vec<u8> {
        let v = self.versions.entry(key).or_insert(0);
        *v += 1;
        value_of(key, *v)
    }

    fn put(&mut self, store: &Store, key: u64) -> Result<bool, StoreError> {
        let value = self.next_value(key);
        let was_new = store.put(key, value.clone())?;
        Ok(was_new == self.model.insert(key, value).is_none())
    }

    /// 80 % get (Zipf over the loaded keys), 10 % put (half fresh odd keys,
    /// half overwrites of a hot key), 5 % delete (the oldest fresh key, so
    /// the store keeps its size), 5 % scan of 16 keys from a hot key.
    pub fn step(&mut self, store: &Store) -> Result<KvDone, StoreError> {
        let roll = self.rng.below(100);
        self.attempted += 1;
        let t0 = Instant::now();
        let (label, ok) = if roll < 80 {
            let key = self.inputs.hot_key(&mut self.rng);
            ("get", store.get(key)? == self.model.get(&key).cloned())
        } else if roll < 85 {
            let from = self.inputs.hot_key(&mut self.rng);
            let expected: Vec<(u64, Vec<u8>)> = self
                .model
                .range(from..)
                .take(SCAN_KEYS)
                .map(|(k, v)| (*k, v.clone()))
                .collect();
            let to = expected.last().map_or(from, |(k, _)| *k);
            ("scan", store.scan(from..=to) == expected)
        } else if roll < 90 {
            match self.fresh.pop_front() {
                Some(key) => (
                    "delete",
                    store.delete(key)? && self.model.remove(&key).is_some(),
                ),
                None => ("put", self.put_fresh(store)?),
            }
        } else if roll < 95 {
            ("put", self.put_fresh(store)?)
        } else {
            let key = self.inputs.hot_key(&mut self.rng);
            ("put", self.put(store, key)?)
        };
        let latency_ns = t0.elapsed().as_nanos() as u64;
        if !ok {
            self.failed += 1;
        }
        let read = matches!(label, "get" | "scan");
        let mut flush_ns = None;
        if !read {
            self.writes += 1;
            if self.writes.is_multiple_of(FLUSH_EVERY) {
                let t = Instant::now();
                store.flush()?;
                flush_ns = Some(t.elapsed().as_nanos() as u64);
            }
        }
        Ok(KvDone {
            label,
            latency_ns,
            flush_ns,
        })
    }

    fn put_fresh(&mut self, store: &Store) -> Result<bool, StoreError> {
        let key = (((self.rng.below(1 << 19) << 20) | (self.serial & 0xf_ffff)) << 1) | 1;
        self.serial += 1;
        self.fresh.push_back(key);
        self.put(store, key)
    }

    pub fn scan_matches(&self, store: &Store) -> bool {
        store
            .scan(..)
            .into_iter()
            .eq(self.model.iter().map(|(k, v)| (*k, v.clone())))
    }
}

/// Kills every host, recovers from disk, and checks the recovered scan
/// against the model; returns the recovery's own duration in ms.
pub fn kill_and_recover(
    store: &Store,
    driver: &KvDriver<'_>,
    report: &mut Report,
) -> Result<f64, StoreError> {
    for host in store.fabric().health().alive {
        store.fabric().kill_host(host);
    }
    let recovery = store.recover()?;
    report.check(
        driver.scan_matches(store),
        "the recovered store's scan differs from the model",
    );
    Ok(recovery.duration.as_secs_f64() * 1e3)
}

pub fn run(workload: &str, tail: f64, cfg: &RunCfg) -> Report {
    let mut report = Report::new(workload, cfg.seed);
    let inputs = KvInputs::new(cfg.seed, cfg.shrink);
    let root = scratch_dir("kv");
    if let Err(e) = measure(&inputs, tail, cfg, &root, &mut report) {
        report.fail(format!("the run stopped early: {e}"));
    }
    let _ = std::fs::remove_dir_all(&root);
    push_closing(&mut report);
    report
}

/// One segment: bulk-load and open a store of its own, warm up, measure,
/// flush, compare the scan with the model. Returns the store and its
/// driver too, for the recoveries that follow the last segment.
fn segment<'a>(
    inputs: &'a KvInputs,
    k: usize,
    cfg: &RunCfg,
    root: &Path,
    report: &mut Report,
) -> Result<(Segment, u64, Store, KvDriver<'a>), StoreError> {
    let dir = root.join(format!("segment-{k}"));
    let (store, _, setup_s) = inputs.open(&dir, coin_seed(k))?;
    let mut seg = Segment {
        setup_s,
        ..Segment::default()
    };
    let mut driver = KvDriver::new(inputs, cfg.stream_seed(k));
    let warm_until = Instant::now() + cfg.segment_warmup();
    while Instant::now() < warm_until {
        driver.step(&store)?;
    }
    let bytes_before = dir_bytes(&dir);
    let before = store.fabric().traffic();
    let start = Instant::now();
    while start.elapsed() < cfg.segment_window() {
        let done = driver.step(&store)?;
        seg.ops += 1;
        match done.label {
            "get" => seg.reads.push(done.latency_ns),
            // Served from the store's own view: an op, but no fabric read.
            "scan" => {}
            _ => seg.writes.push(done.latency_ns),
        }
    }
    seg.secs = start.elapsed().as_secs_f64();
    seg.count_msgs(&before, &store.fabric().traffic());
    store.flush()?;
    let bytes = dir_bytes(&dir) - bytes_before;
    report.check(
        driver.scan_matches(&store),
        "the store's scan differs from the model",
    );
    Ok((seg, bytes, store, driver))
}

fn measure(
    inputs: &KvInputs,
    tail: f64,
    cfg: &RunCfg,
    root: &Path,
    report: &mut Report,
) -> Result<(), StoreError> {
    let (mut segments, mut bytes) = (Vec::new(), 0);
    let mut last = None;
    for k in 0..cfg.segments {
        if let Some((store, driver)) = last.take() {
            close(store, &driver, report);
        }
        let (seg, wrote, store, driver) = segment(inputs, k, cfg, root, report)?;
        segments.push(seg);
        bytes += wrote;
        last = Some((store, driver));
    }
    let (store, mut driver) = last.expect("at least one segment");

    // Three times: lose every host, recover from disk, compare with the
    // model, and show that the recovered store still serves.
    let mut recoveries = Vec::new();
    for _ in 0..RECOVERIES {
        recoveries.push(kill_and_recover(&store, &driver, report)?);
        for _ in 0..FLUSH_EVERY {
            driver.step(&store)?;
        }
    }
    close(store, &driver, report);

    let more = more_setups(cfg, &segments, |seed| {
        let (store, _, secs) = inputs.open(&root.join(format!("set-up-{seed}")), seed)?;
        store.shutdown();
        Ok::<f64, StoreError>(secs)
    })?;
    push_segments(report, &mut segments, &more, tail);
    let writes: u64 = segments.iter().map(|s| s.writes.len() as u64).sum();
    if writes > 0 {
        report.push("wal_bytes_per_write", bytes as f64 / writes as f64, writes);
    }
    report.push("recovery_ms", median(&recoveries), recoveries.len() as u64);
    Ok(())
}

fn close(store: Store, driver: &KvDriver<'_>, report: &mut Report) {
    report.attempted += driver.attempted;
    report.failed += driver.failed;
    store.shutdown();
}
