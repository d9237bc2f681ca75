//! The on-disk write-ahead log and checkpoint formats.
//!
//! Both reuse the network layer's little-endian primitives
//! ([`skipweb_net::wire`]) so the store adds exactly one new framing
//! concept: a CRC32 trailer. A WAL file is a sequence of frames
//!
//! ```text
//! [u32 len][payload bytes][u32 crc32(payload)]
//! ```
//!
//! with `len` capped at the wire codec's [`MAX_FRAME`] (64 MiB), and the
//! payload a tagged [`WalRecord`]. Appends are atomic-enough for the
//! failure model here — a crash mid-append leaves a *torn tail* (short
//! frame or CRC mismatch) that [`read_wal`] detects and drops, keeping
//! every record before it. The log is never truncated or rewritten;
//! checkpoints bound replay instead: a [`Checkpoint`] snapshots the full
//! key → (bits, value) map plus the idempotence ledger at `last_seq`, and
//! recovery replays only WAL records with `seq > last_seq`. Replay is
//! idempotent (set / remove by key), so a checkpoint that races a
//! concurrent writer is still safe as long as its `last_seq` is captured
//! together with the snapshot — which [`crate::Store::checkpoint`] does
//! under one lock.

use skipweb_net::wire::{self, WireReader, MAX_FRAME};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::Path;

/// IEEE CRC32 lookup table, built at compile time (the container has no
/// crc crate; the polynomial is eight lines of const eval).
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// IEEE CRC32 (the `zlib`/Ethernet polynomial) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

/// One durable store operation, in global apply order (`seq` is strictly
/// increasing across *all* per-host WAL files, so recovery can merge them
/// by sorting).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A web insert that reached the apply step. Carries the tower `bits`
    /// so recovery rebuilds the identical hierarchy, the operation
    /// identity (`client`, `op_id`) so the idempotence ledger survives
    /// replay, and the value bytes the put carried. `applied = false`
    /// records a duplicate insert: logged for the ledger, no state change.
    Insert {
        /// Global apply-order sequence number.
        seq: u64,
        /// Submitting client id.
        client: u64,
        /// Client-scoped operation id (resubmits reuse it).
        op_id: u64,
        /// The key.
        key: u64,
        /// The tower's level bit string.
        bits: u64,
        /// Whether the web changed.
        applied: bool,
        /// The value bytes.
        value: Vec<u8>,
    },
    /// A web remove that reached the apply step.
    Remove {
        /// Global apply-order sequence number.
        seq: u64,
        /// Submitting client id.
        client: u64,
        /// Client-scoped operation id.
        op_id: u64,
        /// The key.
        key: u64,
        /// Whether the web changed (`false` for absent keys).
        applied: bool,
    },
    /// A value-only overwrite of a key already in the web. Puts on
    /// existing keys never reach the apply step (the insert is a
    /// duplicate), so the store logs the new bytes itself, in sequence
    /// with the applies.
    Upsert {
        /// Global apply-order sequence number.
        seq: u64,
        /// The key.
        key: u64,
        /// The new value bytes.
        value: Vec<u8>,
    },
}

const TAG_INSERT: u8 = 1;
const TAG_REMOVE: u8 = 2;
const TAG_UPSERT: u8 = 3;

impl WalRecord {
    /// The record's global sequence number.
    pub fn seq(&self) -> u64 {
        match self {
            WalRecord::Insert { seq, .. }
            | WalRecord::Remove { seq, .. }
            | WalRecord::Upsert { seq, .. } => *seq,
        }
    }

    /// Appends the tagged payload encoding (no frame) to `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            WalRecord::Insert {
                seq,
                client,
                op_id,
                key,
                bits,
                applied,
                value,
            } => {
                wire::put_u8(buf, TAG_INSERT);
                wire::put_u64(buf, *seq);
                wire::put_u64(buf, *client);
                wire::put_u64(buf, *op_id);
                wire::put_u64(buf, *key);
                wire::put_u64(buf, *bits);
                wire::put_bool(buf, *applied);
                wire::put_bytes(buf, value);
            }
            WalRecord::Remove {
                seq,
                client,
                op_id,
                key,
                applied,
            } => {
                wire::put_u8(buf, TAG_REMOVE);
                wire::put_u64(buf, *seq);
                wire::put_u64(buf, *client);
                wire::put_u64(buf, *op_id);
                wire::put_u64(buf, *key);
                wire::put_bool(buf, *applied);
            }
            WalRecord::Upsert { seq, key, value } => {
                wire::put_u8(buf, TAG_UPSERT);
                wire::put_u64(buf, *seq);
                wire::put_u64(buf, *key);
                wire::put_bytes(buf, value);
            }
        }
    }

    /// Decodes one record from a full payload, rejecting trailing garbage.
    pub fn decode(payload: &[u8]) -> Option<WalRecord> {
        let mut r = WireReader::new(payload);
        let rec = match r.read_u8()? {
            TAG_INSERT => WalRecord::Insert {
                seq: r.read_u64()?,
                client: r.read_u64()?,
                op_id: r.read_u64()?,
                key: r.read_u64()?,
                bits: r.read_u64()?,
                applied: r.read_bool()?,
                value: r.read_bytes()?.to_vec(),
            },
            TAG_REMOVE => WalRecord::Remove {
                seq: r.read_u64()?,
                client: r.read_u64()?,
                op_id: r.read_u64()?,
                key: r.read_u64()?,
                applied: r.read_bool()?,
            },
            TAG_UPSERT => WalRecord::Upsert {
                seq: r.read_u64()?,
                key: r.read_u64()?,
                value: r.read_bytes()?.to_vec(),
            },
            _ => return None,
        };
        if r.is_empty() {
            Some(rec)
        } else {
            None
        }
    }
}

/// Appends one framed record to `w`.
///
/// # Errors
///
/// `InvalidInput` when the encoded record exceeds [`MAX_FRAME`] (a value
/// near the 64 MiB cap); otherwise propagates the underlying write error.
pub fn append_record(w: &mut impl Write, rec: &WalRecord) -> io::Result<()> {
    let mut payload = Vec::new();
    rec.encode(&mut payload);
    if payload.len() > MAX_FRAME as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "WAL record of {} bytes exceeds the frame cap",
                payload.len()
            ),
        ));
    }
    // One write_all for the whole frame: a crash tears at most this frame.
    let mut frame = Vec::with_capacity(payload.len() + 8);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    w.write_all(&frame)
}

/// Why a WAL file's decoding stopped before its end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TornReason {
    /// Fewer bytes remain than the frame header + trailer demand — the
    /// classic crash-mid-append tail.
    TruncatedFrame,
    /// The payload's CRC32 does not match its trailer (torn or corrupted
    /// write).
    CrcMismatch,
    /// The frame header claims more than [`MAX_FRAME`] bytes — garbage,
    /// not a length.
    Oversized,
    /// The payload framed and checksummed correctly but is not a valid
    /// [`WalRecord`] encoding.
    Malformed,
}

/// How a WAL file ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalTail {
    /// Every byte decoded.
    Clean,
    /// Decoding stopped at `offset`; the bytes from there on were dropped.
    Torn {
        /// Byte offset of the first undecodable frame.
        offset: u64,
        /// What was wrong with it.
        reason: TornReason,
    },
}

/// The decoded contents of one WAL file.
#[derive(Debug)]
pub struct WalScan {
    /// Every cleanly framed record, in file order.
    pub records: Vec<WalRecord>,
    /// Whether the file ended cleanly or with a torn tail.
    pub tail: WalTail,
}

/// Reads a little-endian `u32` at `at`. The caller has already
/// length-checked `bytes`; going through a fixed array keeps the recovery
/// parser free of unwraps on slice conversions.
///
/// # Panics
///
/// Panics if fewer than 4 bytes remain at `at`.
fn le_u32(bytes: &[u8], at: usize) -> u32 {
    let mut buf = [0u8; 4];
    buf.copy_from_slice(&bytes[at..at + 4]);
    u32::from_le_bytes(buf)
}

/// [`le_u32`]'s `u64` counterpart.
///
/// # Panics
///
/// Panics if fewer than 8 bytes remain at `at`.
fn le_u64(bytes: &[u8], at: usize) -> u64 {
    let mut buf = [0u8; 8];
    buf.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(buf)
}

/// Reads and decodes one WAL file, tolerating a torn tail (records before
/// the tear are kept, everything from it on is dropped). A missing file is
/// an empty clean log.
///
/// # Errors
///
/// Propagates I/O errors other than the file not existing.
pub fn read_wal(path: &Path) -> io::Result<WalScan> {
    let mut reader = WalReader::open(path)?;
    let mut records = Vec::new();
    while let Some(rec) = reader.next_record()? {
        records.push(rec);
    }
    Ok(WalScan {
        records,
        tail: reader.tail(),
    })
}

/// Decodes a WAL file one record at a time through a small buffer, so
/// recovery replays a log of any length in constant memory. Stops at the
/// end of the file or at a torn tail, exactly where [`read_wal`] does.
pub struct WalReader {
    file: Option<io::BufReader<File>>,
    /// The current frame's payload and CRC trailer.
    frame: Vec<u8>,
    /// Byte offset of the next frame.
    at: u64,
    tail: WalTail,
}

impl WalReader {
    /// Opens `path`; a missing file reads as an empty clean log.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than the file not existing.
    pub fn open(path: &Path) -> io::Result<Self> {
        let file = match File::open(path) {
            Ok(f) => Some(io::BufReader::new(f)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            Err(e) => return Err(e),
        };
        Ok(WalReader {
            file,
            frame: Vec::new(),
            at: 0,
            tail: WalTail::Clean,
        })
    }

    /// The next cleanly framed record, or `None` once the log has ended
    /// ([`tail`](Self::tail) says how).
    ///
    /// # Errors
    ///
    /// Propagates read errors.
    pub fn next_record(&mut self) -> io::Result<Option<WalRecord>> {
        let Some(file) = self.file.as_mut() else {
            return Ok(None);
        };
        match read_frame(file, &mut self.frame)? {
            Ok(rec) => {
                self.at += self.frame.len() as u64 + 4;
                Ok(Some(rec))
            }
            Err(torn) => {
                if let Some(reason) = torn {
                    self.tail = WalTail::Torn {
                        offset: self.at,
                        reason,
                    };
                }
                self.file = None;
                Ok(None)
            }
        }
    }

    /// How the log ended: [`WalTail::Clean`] until a tear is met.
    pub fn tail(&self) -> WalTail {
        self.tail
    }
}

/// Reads one `[len][payload][crc]` frame into `frame` (payload and
/// trailer) and decodes it: the record, or why the log ends here (`None`
/// at a clean end of file).
fn read_frame(
    file: &mut impl Read,
    frame: &mut Vec<u8>,
) -> io::Result<Result<WalRecord, Option<TornReason>>> {
    match fill(file, frame, 4)? {
        0 => return Ok(Err(None)),
        4 => {}
        _ => return Ok(Err(Some(TornReason::TruncatedFrame))),
    }
    let len = le_u32(frame, 0) as usize;
    if len > MAX_FRAME as usize {
        return Ok(Err(Some(TornReason::Oversized)));
    }
    if fill(file, frame, len + 4)? < len + 4 {
        return Ok(Err(Some(TornReason::TruncatedFrame)));
    }
    let (payload, trailer) = frame.split_at(len);
    if crc32(payload) != le_u32(trailer, 0) {
        return Ok(Err(Some(TornReason::CrcMismatch)));
    }
    Ok(WalRecord::decode(payload).ok_or(Some(TornReason::Malformed)))
}

/// Replaces `buf` with up to `n` bytes of `file`, returning how many it
/// got. `buf` grows only as bytes arrive, so a garbage length allocates no
/// more than the file holds.
fn fill(file: &mut impl Read, buf: &mut Vec<u8>, n: usize) -> io::Result<usize> {
    buf.clear();
    file.by_ref().take(n as u64).read_to_end(buf)
}

/// Magic prefix of a checkpoint file.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"SWCK";
/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u16 = 1;

/// A full-state snapshot bounding WAL replay: everything the store needs
/// to rebuild the web (tower for tower), its values, and the idempotence
/// ledger, as of global sequence number `last_seq`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Checkpoint {
    /// Replay skips WAL records with `seq <= last_seq`.
    pub last_seq: u64,
    /// `(key, tower bits, value)` for every stored key, ascending by key —
    /// exactly the canonical ground order
    /// [`SkipWebBuilder::bits`](skipweb_core::skipweb::SkipWebBuilder::bits)
    /// expects.
    pub entries: Vec<(u64, u64, Vec<u8>)>,
    /// The idempotence ledger: `(client, op id, applied)` in eviction
    /// order.
    pub ledger: Vec<(u64, u64, bool)>,
}

impl Checkpoint {
    fn encode_body(&self) -> Vec<u8> {
        let mut body = Vec::new();
        wire::put_u16(&mut body, CHECKPOINT_VERSION);
        wire::put_u64(&mut body, self.last_seq);
        wire::put_u32(&mut body, self.entries.len() as u32);
        for (key, bits, value) in &self.entries {
            wire::put_u64(&mut body, *key);
            wire::put_u64(&mut body, *bits);
            wire::put_bytes(&mut body, value);
        }
        wire::put_u32(&mut body, self.ledger.len() as u32);
        for (client, op_id, applied) in &self.ledger {
            wire::put_u64(&mut body, *client);
            wire::put_u64(&mut body, *op_id);
            wire::put_bool(&mut body, *applied);
        }
        body
    }

    fn decode_body(body: &[u8]) -> Option<Checkpoint> {
        let mut r = WireReader::new(body);
        if r.read_u16()? != CHECKPOINT_VERSION {
            return None;
        }
        let last_seq = r.read_u64()?;
        let n = r.read_u32()? as usize;
        let mut entries = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let key = r.read_u64()?;
            let bits = r.read_u64()?;
            let value = r.read_bytes()?.to_vec();
            entries.push((key, bits, value));
        }
        let m = r.read_u32()? as usize;
        let mut ledger = Vec::with_capacity(m.min(1 << 20));
        for _ in 0..m {
            let client = r.read_u64()?;
            let op_id = r.read_u64()?;
            let applied = r.read_bool()?;
            ledger.push((client, op_id, applied));
        }
        if r.is_empty() {
            Some(Checkpoint {
                last_seq,
                entries,
                ledger,
            })
        } else {
            None
        }
    }
}

/// Writes `ck` to `path` atomically: encode, write to a sibling temp file,
/// fsync, rename over the target. The body is checksummed whole, so a
/// half-written checkpoint (or a crash before the rename) is detected and
/// ignored by [`read_checkpoint`], falling back to the previous one.
///
/// # Errors
///
/// Propagates the underlying file-system errors.
pub fn write_checkpoint(path: &Path, ck: &Checkpoint) -> io::Result<()> {
    let body = ck.encode_body();
    let tmp = path.with_extension("tmp");
    {
        let mut f = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        f.write_all(&CHECKPOINT_MAGIC)?;
        f.write_all(&(body.len() as u64).to_le_bytes())?;
        f.write_all(&body)?;
        f.write_all(&crc32(&body).to_le_bytes())?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)
}

/// Reads the checkpoint at `path`. Returns `Ok(None)` when the file is
/// missing **or corrupt in any way** (bad magic, short, CRC mismatch,
/// malformed body) — recovery then replays the WAL from the beginning, so
/// a bad checkpoint costs time, never data.
///
/// # Errors
///
/// Propagates I/O errors other than the file not existing.
pub fn read_checkpoint(path: &Path) -> io::Result<Option<Checkpoint>> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    }
    if bytes.len() < 4 + 8 + 4 || bytes[..4] != CHECKPOINT_MAGIC {
        return Ok(None);
    }
    let len = le_u64(&bytes, 4) as usize;
    if bytes.len() != 4 + 8 + len + 4 {
        return Ok(None);
    }
    let body = &bytes[12..12 + len];
    let stored = le_u32(&bytes, 12 + len);
    if crc32(body) != stored {
        return Ok(None);
    }
    Ok(Checkpoint::decode_body(body))
}
