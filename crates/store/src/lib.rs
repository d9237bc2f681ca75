#![warn(missing_docs)]

//! A durable key-value store fronting the 1-D distributed skip-web.
//!
//! [`Store`] exposes the five-call façade an application wants —
//! [`put`](Store::put), [`get`](Store::get), [`delete`](Store::delete),
//! [`scan`](Store::scan), [`flush`](Store::flush) — while keys live in a
//! [`DistributedSkipWeb`] over a [`SortedLinkedList`] and every update is
//! write-ahead logged before it becomes visible. The durability hook
//! ([`Durability`]) runs **under the engine's apply lock**, so log order
//! equals apply order and no query can observe an unlogged operation.
//!
//! # Durability model
//!
//! Replication (`k ≥ 2`) masks *crashes*: as long as one replica of each
//! range survives, the fabric keeps answering. The WAL masks *loss of the
//! whole fabric*: after every host dies — or the process cold-starts —
//! [`Store::recover`] (in place) or [`StoreBuilder::open`] (from scratch)
//! rebuilds the exact store from disk. Both are one path: `open` spawns
//! the fabric over an empty web and then runs `recover` on it, which
//! installs the directory's web and ledger with
//! [`DistributedSkipWeb::restore`], so the two cannot disagree:
//!
//! * the key set **and each key's tower bits** come from the latest
//!   [`wal::Checkpoint`] plus replayed [`wal::WalRecord`]s, so
//!   [`SkipWebBuilder::bits`](skipweb_core::skipweb::SkipWebBuilder::bits)
//!   rebuilds the *identical* hierarchy, tower for tower — range
//!   determinism (§2.1 of the paper) means nothing else about the
//!   topology needs logging;
//! * the idempotence ledger survives replay, so a client resubmitting an
//!   operation from before the crash still gets exactly-once semantics;
//! * crashed hosts **rejoin live membership** under their original ids
//!   ([`DistributedSkipWeb::rejoin_host`]) instead of staying tombstoned.
//!
//! A put of an existing key never reaches the web's apply step (the
//! insert is a duplicate), so the store logs those as value-only
//! [`Upsert`](wal::WalRecord::Upsert) records, into the same log file and
//! sequence as the applies.

pub mod wal;

use parking_lot::Mutex;
use skipweb_core::engine::{DistributedSkipWeb, Durability, DurableOp, EngineClient, Timeouts};
use skipweb_core::skipweb::{SkipWeb, Update};
use skipweb_net::runtime::RuntimeError;
use skipweb_structures::SortedLinkedList;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::ops::RangeBounds;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wal::{Checkpoint, WalRecord};

/// Anything a store call can fail with.
#[derive(Debug)]
pub enum StoreError {
    /// The distributed fabric failed the operation (host down, timeout,
    /// disconnect). The web and the log are unchanged for this operation.
    Fabric(RuntimeError),
    /// The write-ahead log or checkpoint failed. The in-memory fabric may
    /// be ahead of the log; treat the store as needing recovery.
    Io(io::Error),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Fabric(e) => write!(f, "fabric: {e}"),
            StoreError::Io(e) => write!(f, "wal: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<RuntimeError> for StoreError {
    fn from(e: RuntimeError) -> Self {
        StoreError::Fabric(e)
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// One stored key's durable companions: the tower bits that shape its
/// place in the hierarchy and the value bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Entry {
    bits: u64,
    value: Vec<u8>,
}

/// The store-side state shared with the durability hook. One lock guards
/// values, pending puts, the sequence counter, and the WAL file, so the
/// hook (already serialized by the engine's state lock) and the store's
/// own paths (upserts, flush, checkpoint) interleave atomically. Lock
/// order is engine-state → backing; nothing here ever calls back into the
/// fabric.
struct Backing {
    /// The materialized view: key → (tower bits, value), maintained
    /// write-through by the durability hook for applied operations.
    values: BTreeMap<u64, Entry>,
    /// Values of in-flight puts, registered before the insert is
    /// submitted so the apply-side hook can log them.
    pending: HashMap<u64, Vec<u8>>,
    /// Global sequence number of logged records.
    seq: u64,
    /// Records logged since the last checkpoint.
    since_checkpoint: u64,
    /// The WAL appender, [`WAL_FILE`] opened when the store is.
    wal: File,
    /// First WAL write failure, surfaced on the next store call (the hook
    /// runs under the engine's apply lock and cannot return errors).
    wal_error: Option<io::Error>,
}

impl Backing {
    /// Appends `rec` to the WAL, recording rather than returning a failure.
    fn append(&mut self, rec: &WalRecord) {
        if let Err(e) = wal::append_record(&mut self.wal, rec) {
            self.wal_error.get_or_insert(e);
        }
        self.since_checkpoint += 1;
    }

    fn take_error(&mut self) -> Result<(), StoreError> {
        match self.wal_error.take() {
            Some(e) => Err(StoreError::Io(e)),
            None => Ok(()),
        }
    }
}

/// The WAL file: the engine's applies and the store's value-only upserts,
/// in one sequence. (Stores written before the engine had one apply stage
/// kept a lane per host, `wal-NNNN.log`, and their upserts in
/// `wal-store.log`; recovery reads every `wal-*.log`, so those still
/// replay.)
const WAL_FILE: &str = "wal-apply.log";

/// The apply-path sink: invoked by the engine's apply stage under its state
/// lock, before the new topology snapshot publishes.
struct StoreDurability {
    backing: Arc<Mutex<Backing>>,
}

impl Durability<SortedLinkedList> for StoreDurability {
    fn append(&self, ops: &[DurableOp<'_, SortedLinkedList>]) {
        let mut b = self.backing.lock();
        for op in ops {
            b.seq += 1;
            let seq = b.seq;
            let rec = match *op.update {
                Update::Insert { item: key, bits } => {
                    // The put registered its value before submitting; a
                    // replayed log must not depend on that in-memory map,
                    // so the bytes ride in the record itself.
                    let value = b.pending.get(&key).cloned().unwrap_or_default();
                    if op.applied {
                        b.values.insert(
                            key,
                            Entry {
                                bits,
                                value: value.clone(),
                            },
                        );
                    }
                    WalRecord::Insert {
                        seq,
                        client: op.client.0,
                        op_id: op.op_id,
                        key,
                        bits,
                        applied: op.applied,
                        value,
                    }
                }
                Update::Remove { item: key } => {
                    if op.applied {
                        b.values.remove(&key);
                    }
                    WalRecord::Remove {
                        seq,
                        client: op.client.0,
                        op_id: op.op_id,
                        key,
                        applied: op.applied,
                    }
                }
            };
            b.append(&rec);
        }
    }
}

/// What recovery found on disk and what it did with it.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Dead hosts revived back into live membership.
    pub rejoined: usize,
    /// Keys restored straight from the checkpoint.
    pub checkpoint_ops: usize,
    /// Total WAL records found on disk (every `wal-*.log` file).
    pub wal_records: usize,
    /// Records replayed (`seq` past the checkpoint).
    pub replayed: usize,
    /// Records skipped as already covered by the checkpoint.
    pub skipped: usize,
    /// Wall-clock time of the whole recovery.
    pub duration: Duration,
}

/// Everything recovery derives from disk before touching the fabric.
struct DiskState {
    entries: BTreeMap<u64, Entry>,
    ledger: Vec<((skipweb_net::runtime::ClientId, u64), bool)>,
    seq: u64,
    checkpoint_ops: usize,
    wal_records: usize,
    replayed: usize,
    skipped: usize,
}

/// Reads the checkpoint and every WAL lane under `dir`, merges the lanes
/// by global sequence number, and replays records past the checkpoint.
fn load_disk_state(dir: &Path) -> io::Result<DiskState> {
    let ck = wal::read_checkpoint(&dir.join(CHECKPOINT_FILE))?.unwrap_or_default();
    let checkpoint_ops = ck.entries.len();
    let mut entries: BTreeMap<u64, Entry> = ck
        .entries
        .into_iter()
        .map(|(key, bits, value)| (key, Entry { bits, value }))
        .collect();
    let mut ledger: Vec<((skipweb_net::runtime::ClientId, u64), bool)> = ck
        .ledger
        .into_iter()
        .map(|(c, op, applied)| ((skipweb_net::runtime::ClientId(c), op), applied))
        .collect();

    // Each lane with its next record. Lanes are individually ordered, the
    // global order is by seq: replay merges them a record at a time, so
    // memory stays constant in the length of the log.
    let mut lanes = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("wal-") && name.ends_with(".log") {
            let mut lane = wal::WalReader::open(&entry.path())?;
            if let Some(rec) = lane.next_record()? {
                lanes.push((rec, lane));
            }
        }
    }
    let mut wal_records = 0usize;
    let mut seq = ck.last_seq;
    let mut replayed = 0usize;
    let mut skipped = 0usize;
    while let Some(i) = (0..lanes.len()).min_by_key(|&i| lanes[i].0.seq()) {
        let rec = match lanes[i].1.next_record()? {
            Some(next) => std::mem::replace(&mut lanes[i].0, next),
            None => lanes.remove(i).0,
        };
        wal_records += 1;
        if rec.seq() <= ck.last_seq {
            skipped += 1;
            continue;
        }
        replayed += 1;
        seq = seq.max(rec.seq());
        match rec {
            WalRecord::Insert {
                client,
                op_id,
                key,
                bits,
                applied,
                value,
                ..
            } => {
                ledger.push(((skipweb_net::runtime::ClientId(client), op_id), applied));
                if applied {
                    entries.insert(key, Entry { bits, value });
                }
            }
            WalRecord::Remove {
                client,
                op_id,
                key,
                applied,
                ..
            } => {
                ledger.push(((skipweb_net::runtime::ClientId(client), op_id), applied));
                if applied {
                    entries.remove(&key);
                }
            }
            WalRecord::Upsert { key, value, .. } => {
                // Upserts are only logged for keys already stored; a key
                // deleted by a racing remove stays deleted.
                if let Some(e) = entries.get_mut(&key) {
                    e.value = value;
                }
            }
        }
    }
    Ok(DiskState {
        entries,
        ledger,
        seq,
        checkpoint_ops,
        wal_records,
        replayed,
        skipped,
    })
}

/// Rebuilds the skip-web the disk state describes: keys in canonical
/// (ascending) order, each with its logged tower bits.
fn rebuild_web(
    entries: &BTreeMap<u64, Entry>,
    seed: u64,
    replication: usize,
) -> SkipWeb<SortedLinkedList> {
    let keys: Vec<u64> = entries.keys().copied().collect();
    let bits: Vec<u64> = entries.values().map(|e| e.bits).collect();
    let mut builder = SkipWeb::<SortedLinkedList>::builder(keys)
        .seed(seed)
        .bits(bits);
    if replication > 1 {
        builder = builder.replicate(replication);
    }
    builder.build()
}

/// Checkpoint file name under the store directory.
const CHECKPOINT_FILE: &str = "checkpoint.bin";

/// Configures and opens a [`Store`]. `open` on a directory with existing
/// WAL/checkpoint files is a cold-start recovery — [`Store::recover`] on a
/// freshly spawned fabric; on an empty directory it creates a fresh store.
#[derive(Debug, Clone)]
pub struct StoreBuilder {
    dir: PathBuf,
    hosts: usize,
    replication: usize,
    checkpoint_every: u64,
    timeouts: Timeouts,
    seed: u64,
}

impl StoreBuilder {
    /// A store rooted at `dir` (created if missing): 4 consolidated
    /// hosts, no replication, a checkpoint every 256 logged records.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        StoreBuilder {
            dir: dir.into(),
            hosts: 4,
            replication: 1,
            checkpoint_every: 256,
            timeouts: Timeouts::DEFAULT,
            seed: 42,
        }
    }

    /// Number of consolidated actor hosts serving the web.
    pub fn hosts(mut self, hosts: usize) -> Self {
        self.hosts = hosts;
        self
    }

    /// Replication factor `k` (1 = none): any `k - 1` hosts may crash
    /// without losing availability, orthogonally to the WAL.
    pub fn replicate(mut self, k: usize) -> Self {
        self.replication = k;
        self
    }

    /// Checkpoint after this many logged records (0 disables automatic
    /// checkpoints; [`Store::checkpoint`] still works).
    pub fn checkpoint_every(mut self, every: u64) -> Self {
        self.checkpoint_every = every;
        self
    }

    /// Wait-and-retry policy for the store's fabric clients.
    pub fn timeouts(mut self, timeouts: Timeouts) -> Self {
        self.timeouts = timeouts;
        self
    }

    /// Seed of the store's web: the fabric draws the lookup origin and the
    /// tower of every new key from a generator it seeds (default 42), so
    /// stores opened with the same seed and fed the same puts hold the
    /// same towers.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Opens the store: spawns the fabric over an empty web with the WAL
    /// hook installed, then runs [`Store::recover`] on it, so whatever the
    /// directory holds is loaded by the same code as an in-place recovery.
    /// An empty directory recovers to an empty store.
    ///
    /// # Errors
    ///
    /// I/O errors reading or creating the directory, checkpoint, or logs.
    pub fn open(self) -> Result<Store, StoreError> {
        fs::create_dir_all(&self.dir)?;
        let path = self.dir.join(WAL_FILE);
        let wal = OpenOptions::new().append(true).create(true).open(path)?;
        let backing = Arc::new(Mutex::new(Backing {
            values: BTreeMap::new(),
            pending: HashMap::new(),
            seq: 0,
            since_checkpoint: 0,
            wal,
            wal_error: None,
        }));
        let empty = rebuild_web(&BTreeMap::new(), self.seed, self.replication);
        let fabric = DistributedSkipWeb::builder(&empty)
            .consolidated(self.hosts)
            .timeouts(self.timeouts)
            .durability(Arc::new(StoreDurability {
                backing: Arc::clone(&backing),
            }))
            .spawn();
        let client = fabric.client();
        let store = Store {
            fabric,
            client,
            backing,
            dir: self.dir,
            seed: self.seed,
            replication: self.replication,
            checkpoint_every: self.checkpoint_every,
        };
        if let Err(e) = store.recover() {
            store.shutdown();
            return Err(e);
        }
        Ok(store)
    }
}

/// A durable key-value store over the distributed 1-D skip-web. See the
/// [crate docs](crate) for the durability model.
pub struct Store {
    fabric: DistributedSkipWeb<SortedLinkedList>,
    client: EngineClient<SortedLinkedList>,
    backing: Arc<Mutex<Backing>>,
    dir: PathBuf,
    seed: u64,
    replication: usize,
    checkpoint_every: u64,
}

impl Store {
    /// Opens a store rooted at `dir` with default settings — shorthand
    /// for [`StoreBuilder::new`]`(dir).open()`.
    ///
    /// # Errors
    ///
    /// As [`StoreBuilder::open`].
    pub fn open(dir: impl Into<PathBuf>) -> Result<Store, StoreError> {
        StoreBuilder::new(dir).open()
    }

    /// Stores `value` under `key`, write-ahead logged before it becomes
    /// visible. Returns `true` when the key is new, `false` when an
    /// existing key's value was overwritten.
    ///
    /// # Errors
    ///
    /// [`StoreError::Fabric`] when the distributed insert fails (the log
    /// and the view are unchanged); [`StoreError::Io`] when the WAL
    /// write failed.
    pub fn put(&self, key: u64, value: Vec<u8>) -> Result<bool, StoreError> {
        self.backing.lock().pending.insert(key, value.clone());
        let result = self.fabric.insert(&self.client, key);
        let mut b = self.backing.lock();
        b.pending.remove(&key);
        let reply = match result {
            Ok(reply) => reply,
            Err(e) => {
                b.take_error()?;
                return Err(StoreError::Fabric(e));
            }
        };
        if !reply.applied {
            // The key was already in the web, so the insert never reached
            // the apply step: log the overwrite here.
            b.seq += 1;
            let rec = WalRecord::Upsert {
                seq: b.seq,
                key,
                value: value.clone(),
            };
            b.append(&rec);
            if let Some(e) = b.values.get_mut(&key) {
                e.value = value;
            }
        }
        b.take_error()?;
        drop(b);
        self.maybe_checkpoint()?;
        Ok(reply.applied)
    }

    /// Looks `key` up, routing the membership query through the
    /// distributed web (an `O(log n)`-hop descent) and serving the bytes
    /// from the store's materialized view. Returns `None` for absent
    /// keys.
    ///
    /// # Errors
    ///
    /// [`StoreError::Fabric`] when the query cannot complete (e.g. every
    /// replica of the key's range is down).
    pub fn get(&self, key: u64) -> Result<Option<Vec<u8>>, StoreError> {
        if self.fabric.is_empty() {
            return Ok(None);
        }
        let reply = self.fabric.query(&self.client, 0, key)?;
        if reply.answer != Some(key) {
            return Ok(None);
        }
        Ok(self
            .backing
            .lock()
            .values
            .get(&key)
            .map(|e| e.value.clone()))
    }

    /// Deletes `key`, write-ahead logged. Returns `true` when the key
    /// existed.
    ///
    /// # Errors
    ///
    /// As [`put`](Self::put).
    pub fn delete(&self, key: u64) -> Result<bool, StoreError> {
        if self.fabric.is_empty() {
            // Nothing to remove, and an empty web has no host to route
            // the lookup through.
            return Ok(false);
        }
        let reply = match self.fabric.remove(&self.client, key) {
            Ok(reply) => reply,
            Err(e) => {
                self.backing.lock().take_error()?;
                return Err(StoreError::Fabric(e));
            }
        };
        self.backing.lock().take_error()?;
        self.maybe_checkpoint()?;
        Ok(reply.applied)
    }

    /// All `(key, value)` pairs with keys in `range`, ascending — served
    /// from the materialized view the durability hook maintains under the
    /// engine's apply lock.
    pub fn scan(&self, range: impl RangeBounds<u64>) -> Vec<(u64, Vec<u8>)> {
        self.backing
            .lock()
            .values
            .range(range)
            .map(|(k, e)| (*k, e.value.clone()))
            .collect()
    }

    /// Number of stored keys.
    pub fn len(&self) -> usize {
        self.backing.lock().values.len()
    }

    /// Whether the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.backing.lock().values.is_empty()
    }

    /// Forces the WAL to stable storage (`fsync`).
    ///
    /// # Errors
    ///
    /// Propagates the first WAL error, including any deferred one from
    /// the apply-path hook.
    pub fn flush(&self) -> Result<(), StoreError> {
        let mut b = self.backing.lock();
        b.take_error()?;
        b.wal.flush()?;
        b.wal.sync_data()?;
        Ok(())
    }

    /// Writes a full-state checkpoint, bounding future WAL replay. The
    /// snapshot and its `last_seq` are captured under one lock, so replay
    /// from it is always consistent; the ledger is fetched after, which
    /// can only make it *more* complete than `last_seq` requires.
    ///
    /// # Errors
    ///
    /// Propagates checkpoint I/O errors.
    pub fn checkpoint(&self) -> Result<(), StoreError> {
        let (entries, last_seq) = {
            let b = self.backing.lock();
            let entries: Vec<(u64, u64, Vec<u8>)> = b
                .values
                .iter()
                .map(|(k, e)| (*k, e.bits, e.value.clone()))
                .collect();
            (entries, b.seq)
        };
        let ledger = self
            .fabric
            .applied_ledger()
            .into_iter()
            .map(|((c, op), applied)| (c.0, op, applied))
            .collect();
        let ck = Checkpoint {
            last_seq,
            entries,
            ledger,
        };
        wal::write_checkpoint(&self.dir.join(CHECKPOINT_FILE), &ck)?;
        self.backing.lock().since_checkpoint = 0;
        Ok(())
    }

    fn maybe_checkpoint(&self) -> Result<(), StoreError> {
        if self.checkpoint_every > 0
            && self.backing.lock().since_checkpoint >= self.checkpoint_every
        {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Recovers the store from disk, in place: flushes the WAL, reads
    /// the checkpoint and WAL back, rebuilds the web tower-for-tower from
    /// the logged bits, restores the engine's state and idempotence
    /// ledger, revives every dead host under its original id, and heals
    /// the topology. After it returns the fabric answers again — even
    /// when **every** host had been killed — with a scan byte-identical
    /// to the pre-crash store. [`StoreBuilder::open`] is this call on a
    /// freshly spawned, empty fabric.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; the fabric is left as it was on failure.
    pub fn recover(&self) -> Result<RecoveryReport, StoreError> {
        let start = Instant::now();
        self.flush()?;
        let disk = load_disk_state(&self.dir)?;
        let web = rebuild_web(&disk.entries, self.seed, self.replication);
        // After a cold open the runtime hands out the previous incarnation's
        // client ids again, and their op ids live on in the ledger: keep
        // this client's ids past all of them so a fresh put never echoes a
        // logged outcome.
        let corr_floor = disk
            .ledger
            .iter()
            .map(|((_, op_id), _)| op_id + 1)
            .max()
            .unwrap_or(0);
        // Revive the dead hosts before publishing the restored topology:
        // after a total crash the placement needs at least one live host
        // to route to.
        let mut rejoined = 0;
        for host in self.fabric.health().dead {
            if self.fabric.rejoin_host(host) {
                rejoined += 1;
            }
        }
        self.fabric.restore(web, disk.ledger);
        self.client.advance_corr(corr_floor);
        {
            let mut b = self.backing.lock();
            b.values = disk.entries;
            b.seq = b.seq.max(disk.seq);
        }
        self.fabric.heal();
        Ok(RecoveryReport {
            rejoined,
            checkpoint_ops: disk.checkpoint_ops,
            wal_records: disk.wal_records,
            replayed: disk.replayed,
            skipped: disk.skipped,
            duration: start.elapsed(),
        })
    }

    /// The underlying fabric, for health checks and fault injection.
    pub fn fabric(&self) -> &DistributedSkipWeb<SortedLinkedList> {
        &self.fabric
    }

    /// The store's fabric client.
    pub fn client(&self) -> &EngineClient<SortedLinkedList> {
        &self.client
    }

    /// The directory holding the WAL and checkpoint.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Stops the fabric's hosts and workers. Does not flush; call
    /// [`flush`](Self::flush) first for a clean shutdown.
    pub fn shutdown(self) {
        self.fabric.shutdown();
    }
}
