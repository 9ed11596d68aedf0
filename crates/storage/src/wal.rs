//! Write-ahead logging for delta relations: crash durability for the ingest
//! path.
//!
//! A [`DeltaRelation`](crate::DeltaRelation)'s append buffer lives only in
//! memory, so a crash mid-ingest silently loses every operation since the last
//! materialization. This module adds the classical fix: every mutation
//! (`insert`/`delete`/`seal`/`compact`) is encoded as a [`WalOp`] and appended
//! to a per-database log **before** it is applied in memory, and batches are
//! bounded by an explicit commit marker. The format is deliberately boring:
//!
//! ```text
//! record   := [payload_len: u32 LE] [crc32(payload): u32 LE] [payload]
//! payload  := op_tag: u8, op-specific fields (names length-prefixed, values u64 LE)
//! batch    := record*  commit-record(seq)
//! ```
//!
//! * **One write per batch.** The writer frames a batch's ops and its commit
//!   marker into one buffer and appends it with a single write; a group of
//!   batches shares one fsync. The log lives in a directory of rotated
//!   segments ([`segmented`]).
//! * **Torn tails are expected, not fatal.** [`replay_bytes`] scans records
//!   until the first incomplete, over-long, checksum-failing, or undecodable
//!   record and returns exactly the batches whose commit marker was fully
//!   durable before that point: any byte prefix of a valid log recovers the
//!   committed-batch prefix and never a partial batch (property-tested in
//!   `tests/wal_recovery.rs`). [`segmented::recover_dir`] additionally
//!   truncates the last segment to its last committed byte so the writer can
//!   reopen it for appending.
//! * **Commit sequence numbers are contiguous** (1, 2, 3, …). A gap or
//!   repetition means the log was spliced rather than torn, and replay stops
//!   there exactly like a torn tail rather than guessing.
//! * **Fault injection is first-class.** A [`FaultPlan`] — parsed from the
//!   `WCOJ_FAULT` environment variable or constructed directly by tests —
//!   deterministically fails the Nth fsync or tears a write at byte k, leaving
//!   the on-disk state exactly as a crash at that point would. The crash-recovery
//!   test suite and the CI chaos leg drive recovery through these hooks.
//!
//! The replay output is storage-agnostic (`Vec<Vec<WalOp>>`); applying it to a
//! catalog (`wcoj_query::Database`) lives with the service layer, which owns
//! both sides.

use crate::error::StorageError;
use crate::Value;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;

pub mod segmented;

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) lookup table,
/// generated at compile time — no dependency, no runtime init.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `bytes` — the per-record checksum.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Records larger than this are treated as corruption: no legitimate op comes
/// close (the bound exists so a torn length field cannot ask replay to buffer
/// gigabytes).
const MAX_RECORD_BYTES: u32 = 1 << 26;

/// One logged mutation of a delta-backed relation, plus the batch commit
/// marker. The op carries everything replay needs to re-drive the public
/// `Database` mutation API; schemas are not logged — recovery starts from the
/// same catalog the writer started from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    /// `insert_delta(relation, tuple)`.
    Insert {
        /// Target relation name.
        relation: String,
        /// The inserted tuple.
        tuple: Vec<Value>,
    },
    /// `delete(relation, tuple)` (a tombstone append).
    Delete {
        /// Target relation name.
        relation: String,
        /// The deleted tuple.
        tuple: Vec<Value>,
    },
    /// `seal(relation)` — buffer sealed into a sorted run.
    Seal {
        /// Target relation name.
        relation: String,
    },
    /// `compact(relation)` — runs merged into a single base.
    Compact {
        /// Target relation name.
        relation: String,
    },
    /// Batch commit marker: everything since the previous marker is durable as
    /// one atomic unit. `seq` numbers batches contiguously from 1.
    Commit {
        /// 1-based contiguous batch sequence number.
        seq: u64,
    },
}

const TAG_INSERT: u8 = 0;
const TAG_DELETE: u8 = 1;
const TAG_SEAL: u8 = 2;
const TAG_COMPACT: u8 = 3;
const TAG_COMMIT: u8 = 4;

fn put_name(buf: &mut Vec<u8>, name: &str) {
    let bytes = name.as_bytes();
    debug_assert!(bytes.len() <= u16::MAX as usize, "relation name too long");
    buf.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
    buf.extend_from_slice(bytes);
}

fn put_tuple(buf: &mut Vec<u8>, tuple: &[Value]) {
    buf.extend_from_slice(&(tuple.len() as u16).to_le_bytes());
    for &v in tuple {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// A bounds-checked little-endian reader over one record payload.
struct PayloadReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.bytes.len() - self.pos < n {
            return Err(format!(
                "payload truncated: wanted {n} bytes at {}, have {}",
                self.pos,
                self.bytes.len() - self.pos
            ));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    fn name(&mut self) -> Result<String, String> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "relation name is not UTF-8".to_string())
    }

    fn tuple(&mut self) -> Result<Vec<Value>, String> {
        let arity = self.u16()? as usize;
        let mut tuple = Vec::with_capacity(arity);
        for _ in 0..arity {
            tuple.push(self.u64()?);
        }
        Ok(tuple)
    }

    fn done(&self) -> Result<(), String> {
        if self.pos != self.bytes.len() {
            return Err(format!(
                "trailing garbage: {} bytes after op",
                self.bytes.len() - self.pos
            ));
        }
        Ok(())
    }
}

impl WalOp {
    /// Encode the op as one record payload (tag + fields, no framing).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(32);
        match self {
            WalOp::Insert { relation, tuple } => {
                buf.push(TAG_INSERT);
                put_name(&mut buf, relation);
                put_tuple(&mut buf, tuple);
            }
            WalOp::Delete { relation, tuple } => {
                buf.push(TAG_DELETE);
                put_name(&mut buf, relation);
                put_tuple(&mut buf, tuple);
            }
            WalOp::Seal { relation } => {
                buf.push(TAG_SEAL);
                put_name(&mut buf, relation);
            }
            WalOp::Compact { relation } => {
                buf.push(TAG_COMPACT);
                put_name(&mut buf, relation);
            }
            WalOp::Commit { seq } => {
                buf.push(TAG_COMMIT);
                buf.extend_from_slice(&seq.to_le_bytes());
            }
        }
        buf
    }

    /// Decode one record payload. The error is a human-readable reason;
    /// [`replay_bytes`] treats any failure as a torn tail.
    pub fn decode(payload: &[u8]) -> Result<WalOp, String> {
        let mut r = PayloadReader {
            bytes: payload,
            pos: 0,
        };
        let tag = *r.take(1)?.first().expect("len 1");
        let op = match tag {
            TAG_INSERT => WalOp::Insert {
                relation: r.name()?,
                tuple: r.tuple()?,
            },
            TAG_DELETE => WalOp::Delete {
                relation: r.name()?,
                tuple: r.tuple()?,
            },
            TAG_SEAL => WalOp::Seal {
                relation: r.name()?,
            },
            TAG_COMPACT => WalOp::Compact {
                relation: r.name()?,
            },
            TAG_COMMIT => WalOp::Commit { seq: r.u64()? },
            other => return Err(format!("unknown op tag {other}")),
        };
        r.done()?;
        Ok(op)
    }

    /// The relation the op targets (`None` for commit markers).
    pub fn relation(&self) -> Option<&str> {
        match self {
            WalOp::Insert { relation, .. }
            | WalOp::Delete { relation, .. }
            | WalOp::Seal { relation }
            | WalOp::Compact { relation } => Some(relation),
            WalOp::Commit { .. } => None,
        }
    }
}

/// Deterministic fault injection for the durability path, parsed from the
/// `WCOJ_FAULT` environment variable (comma-separated directives) or built
/// directly by tests:
///
/// * `fsync_fail:N` — the Nth fsync (1-based) fails and poisons the writer;
/// * `torn:K` — the write that would carry the log past absolute byte offset
///   `K` stops at `K` (a torn write) and poisons the writer (for segmented
///   logs the offset counts across segments, oldest first);
/// * `ckpt_torn:K` — a checkpoint file write stops after `K` bytes, as a
///   crash mid-checkpoint would leave it (see [`segmented::write_checkpoint`]);
/// * `seal_delay:MS` — the service layer sleeps `MS` milliseconds before
///   applying a seal (widens the writer/reader race window in chaos tests).
///
/// Poisoning mirrors the only safe interpretation of a real fsync/write
/// failure: the log's durable tail is unknown, so every later append fails
/// until recovery truncates and reopens the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Fail the Nth fsync (1-based), then poison the writer.
    pub fail_fsync_at: Option<u64>,
    /// Tear the write crossing absolute byte offset `K`, then poison.
    pub torn_write_at: Option<u64>,
    /// Tear a checkpoint file write at byte `K` of the checkpoint file.
    pub ckpt_torn_at: Option<u64>,
    /// Milliseconds the service sleeps before applying a seal op.
    pub seal_delay_ms: Option<u64>,
}

impl FaultPlan {
    /// Parse a `WCOJ_FAULT` directive string (e.g. `"fsync_fail:2,torn:96"`).
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for directive in spec.split(',') {
            let directive = directive.trim();
            if directive.is_empty() {
                continue;
            }
            let (key, value) = directive
                .split_once(':')
                .ok_or_else(|| format!("fault directive `{directive}` is missing `:value`"))?;
            let value: u64 = value
                .parse()
                .map_err(|_| format!("fault directive `{directive}` needs an integer value"))?;
            match key {
                "fsync_fail" => plan.fail_fsync_at = Some(value),
                "torn" => plan.torn_write_at = Some(value),
                "ckpt_torn" => plan.ckpt_torn_at = Some(value),
                "seal_delay" => plan.seal_delay_ms = Some(value),
                other => return Err(format!("unknown fault directive `{other}`")),
            }
        }
        Ok(plan)
    }

    /// The plan from `WCOJ_FAULT`, or the all-off default when the variable is
    /// unset or unparsable (a debugging knob must never take the process down).
    pub fn from_env() -> FaultPlan {
        std::env::var("WCOJ_FAULT")
            .ok()
            .and_then(|spec| FaultPlan::parse(&spec).ok())
            .unwrap_or_default()
    }
}

/// Appends framed [`WalOp`] batches to one log file (for the service, the
/// newest segment of a [`segmented::SegmentedWal`]). Each batch is one write:
/// every op frame plus its commit marker. [`WalWriter::sync`] is the
/// durability barrier. After any I/O failure, real or injected, the writer is
/// poisoned: the durable tail is unknown, so every later call fails until the
/// log is recovered ([`segmented::recover_dir`]) and reopened.
#[derive(Debug)]
pub(crate) struct WalWriter {
    file: File,
    /// Bytes successfully handed to the OS so far (the torn-fault ruler).
    offset: u64,
    /// Fsyncs attempted so far (the fsync-fault ruler).
    fsyncs: u64,
    /// Committed batches so far; the next commit marker carries `committed + 1`.
    committed: u64,
    fault: FaultPlan,
    poisoned: bool,
}

impl WalWriter {
    /// Open `path` for appending (creating it if missing): positions at the
    /// end and resumes the commit sequence from `committed`, the last batch
    /// sequence recovery found. `fault` rulers count from this file's start.
    pub(crate) fn append_to(
        path: impl AsRef<Path>,
        committed: u64,
        fault: FaultPlan,
    ) -> Result<WalWriter, StorageError> {
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(false)
            .open(path)?;
        let offset = file.seek(SeekFrom::End(0))?;
        Ok(WalWriter {
            file,
            offset,
            fsyncs: 0,
            committed,
            fault,
            poisoned: false,
        })
    }

    /// Bytes handed to the OS so far.
    pub(crate) fn offset(&self) -> u64 {
        self.offset
    }

    /// Batches committed through this writer (plus whatever it resumed from).
    pub(crate) fn committed(&self) -> u64 {
        self.committed
    }

    /// Fsyncs attempted through this writer (the fsync-fault ruler).
    pub(crate) fn fsyncs(&self) -> u64 {
        self.fsyncs
    }

    /// Whether a prior failure poisoned the writer.
    pub(crate) fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    fn check_poisoned(&self) -> Result<(), StorageError> {
        if self.poisoned {
            return Err(StorageError::Io(
                "wal writer is poisoned by an earlier failure; recover the log first".into(),
            ));
        }
        Ok(())
    }

    /// Write `bytes` through the torn-write fault filter, poisoning on any
    /// short or failed write.
    fn write_all(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        if let Some(k) = self.fault.torn_write_at {
            if self.offset + bytes.len() as u64 > k {
                let keep = k.saturating_sub(self.offset) as usize;
                let res = self.file.write_all(&bytes[..keep]).and_then(|_| {
                    // a torn write is only observable once it reaches the disk
                    self.file.sync_data()
                });
                self.poisoned = true;
                res?;
                self.offset += keep as u64;
                return Err(StorageError::FaultInjected(format!(
                    "torn write at byte {k}"
                )));
            }
        }
        if let Err(e) = self.file.write_all(bytes) {
            self.poisoned = true;
            return Err(e.into());
        }
        self.offset += bytes.len() as u64;
        Ok(())
    }

    fn fsync(&mut self) -> Result<(), StorageError> {
        self.fsyncs += 1;
        if self.fault.fail_fsync_at == Some(self.fsyncs) {
            self.poisoned = true;
            return Err(StorageError::FaultInjected(format!(
                "fsync {} failed",
                self.fsyncs
            )));
        }
        if let Err(e) = self.file.sync_data() {
            self.poisoned = true;
            return Err(e.into());
        }
        Ok(())
    }

    /// Append a whole batch (every op frame plus its commit marker) with a
    /// **single buffered write**, unsynced. A group-commit leader appends one
    /// batch per member, then makes the group durable with one
    /// [`WalWriter::sync`]. The returned sequence number is provisional until
    /// that sync succeeds; a sync failure poisons the writer, so unacknowledged
    /// markers are never followed by later appends. An empty batch writes
    /// nothing and returns the current committed count.
    pub(crate) fn commit_batch_unsynced(&mut self, ops: &[WalOp]) -> Result<u64, StorageError> {
        self.check_poisoned()?;
        if ops.is_empty() {
            return Ok(self.committed);
        }
        let seq = self.committed + 1;
        let mut framed = Vec::with_capacity(ops.len() * 48 + 32);
        for op in ops {
            if matches!(op, WalOp::Commit { .. }) {
                return Err(StorageError::Io(
                    "commit markers are written by the batch append, not passed to it".into(),
                ));
            }
            frame_into(&mut framed, op);
        }
        frame_into(&mut framed, &WalOp::Commit { seq });
        self.write_all(&framed)?;
        self.committed = seq;
        Ok(seq)
    }

    /// Fsync the log file: the durability barrier closing a group of
    /// [`WalWriter::commit_batch_unsynced`] appends. Honors the `fsync_fail`
    /// fault and poisons the writer on failure.
    pub(crate) fn sync(&mut self) -> Result<(), StorageError> {
        self.check_poisoned()?;
        self.fsync()
    }
}

/// Append one length-prefixed, CRC-guarded frame for `op` to `buf`.
fn frame_into(buf: &mut Vec<u8>, op: &WalOp) {
    let payload = op.encode();
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&crc32(&payload).to_le_bytes());
    buf.extend_from_slice(&payload);
}

/// What [`replay_bytes`] found in a log image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalReplay {
    /// The committed batches, in commit order; each batch's ops in log order.
    pub batches: Vec<Vec<WalOp>>,
    /// Byte offset just past the last commit marker — the durable prefix.
    pub valid_bytes: u64,
    /// Total file size; `valid_bytes < file_bytes` means a tail was dropped.
    pub file_bytes: u64,
    /// Why the tail (if any) was dropped: human-readable, `None` for a clean
    /// log that ends exactly on a commit marker.
    pub tail_reason: Option<String>,
}

impl WalReplay {
    /// Whether a torn/uncommitted tail was dropped.
    pub fn torn(&self) -> bool {
        self.valid_bytes < self.file_bytes
    }
}

/// Scan the committed batches out of a log's bytes: the pure decoder behind
/// [`segmented::recover_dir`], also driven directly by the tests that fuzz
/// byte prefixes.
pub fn replay_bytes(bytes: &[u8]) -> WalReplay {
    replay_bytes_from(bytes, 1)
}

/// [`replay_bytes`] for a log whose first commit marker carries `first_seq`
/// instead of 1 — the per-segment scan of a [`segmented`] log, where each
/// segment continues the global batch sequence where its predecessor stopped.
pub fn replay_bytes_from(bytes: &[u8], first_seq: u64) -> WalReplay {
    let file_bytes = bytes.len() as u64;
    let mut batches = Vec::new();
    let mut pending: Vec<WalOp> = Vec::new();
    let mut valid_bytes = 0u64;
    let mut pos = 0usize;
    let mut tail_reason = None;
    loop {
        if pos == bytes.len() {
            if !pending.is_empty() {
                tail_reason = Some(format!("{} uncommitted trailing ops", pending.len()));
            }
            break;
        }
        let at = pos as u64;
        if bytes.len() - pos < 8 {
            tail_reason = Some(format!("truncated record header at byte {at}"));
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("len 4"));
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("len 4"));
        if len > MAX_RECORD_BYTES {
            tail_reason = Some(format!("implausible record length {len} at byte {at}"));
            break;
        }
        if bytes.len() - pos - 8 < len as usize {
            tail_reason = Some(format!("truncated record body at byte {at}"));
            break;
        }
        let payload = &bytes[pos + 8..pos + 8 + len as usize];
        if crc32(payload) != crc {
            tail_reason = Some(format!("checksum mismatch at byte {at}"));
            break;
        }
        let op = match WalOp::decode(payload) {
            Ok(op) => op,
            Err(reason) => {
                tail_reason = Some(format!("undecodable record at byte {at}: {reason}"));
                break;
            }
        };
        pos += 8 + len as usize;
        match op {
            WalOp::Commit { seq } => {
                if seq != first_seq + batches.len() as u64 {
                    tail_reason = Some(format!(
                        "commit sequence jumped to {seq} after {} batches at byte {at}",
                        batches.len()
                    ));
                    break;
                }
                batches.push(std::mem::take(&mut pending));
                valid_bytes = pos as u64;
            }
            op => pending.push(op),
        }
    }
    WalReplay {
        batches,
        valid_bytes,
        file_bytes,
        tail_reason,
    }
}

#[cfg(test)]
mod tests {
    use super::segmented::{recover_dir, SegmentedWal};
    use super::*;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "wcoj-wal-{tag}-{}-{}",
            std::process::id(),
            crate::cache::next_stamp()
        ));
        p
    }

    fn ins(rel: &str, t: &[Value]) -> WalOp {
        WalOp::Insert {
            relation: rel.into(),
            tuple: t.to_vec(),
        }
    }

    /// One durable batch: append, then the fsync barrier.
    fn commit(w: &mut WalWriter, ops: &[WalOp]) -> Result<u64, StorageError> {
        let seq = w.commit_batch_unsynced(ops)?;
        w.sync()?;
        Ok(seq)
    }

    fn framed_len(op: &WalOp) -> u64 {
        let mut buf = Vec::new();
        frame_into(&mut buf, op);
        buf.len() as u64
    }

    #[test]
    fn crc32_known_answer() {
        // the canonical IEEE CRC-32 check value
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn ops_roundtrip_through_encode_decode() {
        let ops = [
            ins("E", &[1, 2]),
            WalOp::Delete {
                relation: "edge_rel".into(),
                tuple: vec![7, 8, 9],
            },
            WalOp::Seal {
                relation: "E".into(),
            },
            WalOp::Compact {
                relation: "E".into(),
            },
            WalOp::Commit { seq: 42 },
        ];
        for op in &ops {
            assert_eq!(&WalOp::decode(&op.encode()).unwrap(), op);
        }
        assert!(WalOp::decode(&[99]).is_err(), "unknown tag");
        assert!(WalOp::decode(&[]).is_err(), "empty payload");
        let mut trailing = ops[2].encode();
        trailing.push(0);
        assert!(WalOp::decode(&trailing).is_err(), "trailing garbage");
    }

    #[test]
    fn write_then_replay_roundtrips_batches() {
        let path = temp_path("roundtrip");
        let mut w = WalWriter::append_to(&path, 0, FaultPlan::default()).unwrap();
        assert_eq!(
            commit(&mut w, &[ins("E", &[1, 2]), ins("E", &[3, 4])]).unwrap(),
            1
        );
        let seal = WalOp::Seal {
            relation: "E".into(),
        };
        assert_eq!(commit(&mut w, std::slice::from_ref(&seal)).unwrap(), 2);
        // empty batch: no marker, sequence unchanged
        assert_eq!(w.commit_batch_unsynced(&[]).unwrap(), 2);
        // markers are the writer's to place, never the caller's
        assert!(w
            .commit_batch_unsynced(&[WalOp::Commit { seq: 3 }])
            .is_err());

        let replayed = replay_bytes(&std::fs::read(&path).unwrap());
        assert_eq!(replayed.batches.len(), 2);
        assert_eq!(
            replayed.batches[0],
            vec![ins("E", &[1, 2]), ins("E", &[3, 4])]
        );
        assert_eq!(replayed.batches[1], vec![seal]);
        assert!(!replayed.torn());
        assert_eq!(replayed.tail_reason, None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn uncommitted_tail_is_dropped_and_recover_truncates() {
        // batch 2 tears right after its first op frame: a crash mid-batch
        // leaves an op on disk without its commit marker
        let dir = temp_path("tail");
        let durable = framed_len(&ins("E", &[1, 2])) + framed_len(&WalOp::Commit { seq: 1 });
        let tear = FaultPlan {
            torn_write_at: Some(durable + framed_len(&ins("E", &[5, 6]))),
            ..FaultPlan::default()
        };
        let mut w = SegmentedWal::open(&dir, &recover_dir(&dir).unwrap(), 1 << 20, tear).unwrap();
        w.commit_batch_unsynced(&[ins("E", &[1, 2])]).unwrap();
        w.sync().unwrap();
        let err = w
            .commit_batch_unsynced(&[ins("E", &[5, 6]), ins("E", &[7, 8])])
            .unwrap_err();
        assert!(matches!(err, StorageError::FaultInjected(_)), "{err}");
        drop(w);

        let rec = recover_dir(&dir).unwrap();
        assert_eq!(rec.committed, 1);
        assert!(rec.torn);
        assert!(rec.tail_reason.as_ref().unwrap().contains("uncommitted"));
        assert_eq!(rec.wal_bytes, durable, "truncated to the commit marker");
        // the writer resumes with a contiguous sequence
        let mut w = SegmentedWal::open(&dir, &rec, 1 << 20, FaultPlan::default()).unwrap();
        assert_eq!(w.commit_batch_unsynced(&[ins("E", &[7, 8])]).unwrap(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_byte_truncates_from_there() {
        let path = temp_path("corrupt");
        let mut w = WalWriter::append_to(&path, 0, FaultPlan::default()).unwrap();
        for i in 0..4u64 {
            commit(&mut w, &[ins("E", &[i, i + 1])]).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let clean = replay_bytes(&bytes);
        assert_eq!(clean.batches.len(), 4);
        // flip a byte inside batch 3's record
        let target = (clean.valid_bytes / 2) as usize;
        bytes[target] ^= 0xFF;
        let replayed = replay_bytes(&bytes);
        assert!(replayed.batches.len() < 4);
        assert!(replayed.torn() || replayed.tail_reason.is_some());
        // the surviving batches are a strict prefix of the clean ones
        assert_eq!(
            replayed.batches[..],
            clean.batches[..replayed.batches.len()]
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn injected_fsync_failure_poisons_the_writer() {
        let path = temp_path("fsync-fault");
        let fault = FaultPlan::parse("fsync_fail:2").unwrap();
        let mut w = WalWriter::append_to(&path, 0, fault).unwrap();
        assert_eq!(commit(&mut w, &[ins("E", &[1, 2])]).unwrap(), 1);
        let err = commit(&mut w, &[ins("E", &[3, 4])]).unwrap_err();
        assert!(matches!(err, StorageError::FaultInjected(_)), "{err}");
        assert!(w.is_poisoned());
        assert!(
            w.commit_batch_unsynced(&[ins("E", &[5, 6])]).is_err(),
            "poisoned writer"
        );
        assert!(w.sync().is_err(), "poisoned writer");
        // batch 2's marker reached the file but its durability was never
        // acknowledged; replay may surface it or not — what recovery must
        // guarantee is that batch 1 survives and nothing partial appears
        let replayed = replay_bytes(&std::fs::read(&path).unwrap());
        assert!(!replayed.batches.is_empty());
        assert_eq!(replayed.batches[0], vec![ins("E", &[1, 2])]);
        assert!(replayed.batches.len() <= 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn injected_torn_write_truncates_mid_record() {
        let path = temp_path("torn-fault");
        let first = [ins("E", &[1, 2])];
        // the cut lands mid-way through batch 2's first record
        let cut = framed_len(&first[0]) + framed_len(&WalOp::Commit { seq: 1 }) + 5;
        let fault = FaultPlan {
            torn_write_at: Some(cut),
            ..FaultPlan::default()
        };
        let mut w = WalWriter::append_to(&path, 0, fault).unwrap();
        commit(&mut w, &first).unwrap();
        let err = w.commit_batch_unsynced(&[ins("E", &[3, 4])]).unwrap_err();
        assert!(matches!(err, StorageError::FaultInjected(_)), "{err}");
        assert!(w.is_poisoned());
        assert_eq!(w.offset(), cut);
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.len() as u64, cut);
        let replayed = replay_bytes(&bytes);
        assert_eq!(replayed.batches.len(), 1);
        assert!(replayed.torn());
        assert_eq!(replayed.valid_bytes, cut - 5);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fault_plan_parses_and_rejects() {
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::default());
        let plan = FaultPlan::parse("fsync_fail:3, torn:128, seal_delay:50, ckpt_torn:9").unwrap();
        assert_eq!(plan.fail_fsync_at, Some(3));
        assert_eq!(plan.torn_write_at, Some(128));
        assert_eq!(plan.seal_delay_ms, Some(50));
        assert_eq!(plan.ckpt_torn_at, Some(9));
        assert!(FaultPlan::parse("fsync_fail").is_err());
        assert!(FaultPlan::parse("fsync_fail:x").is_err());
        assert!(FaultPlan::parse("explode:1").is_err());
    }

    #[test]
    fn group_of_unsynced_commits_closes_with_one_sync() {
        let path = temp_path("group");
        let fault = FaultPlan::parse("fsync_fail:2").unwrap();
        let mut w = WalWriter::append_to(&path, 0, fault).unwrap();
        for i in 0..3u64 {
            assert_eq!(
                w.commit_batch_unsynced(&[ins("E", &[i, i + 1])]).unwrap(),
                i + 1
            );
        }
        w.sync().unwrap();
        assert_eq!(w.fsyncs(), 1, "three batches, one durability barrier");
        let replayed = replay_bytes(&std::fs::read(&path).unwrap());
        assert_eq!(replayed.batches.len(), 3);
        assert!(!replayed.torn());
        // a failed group sync poisons the writer: the unacked markers can
        // never be followed by later appends
        w.commit_batch_unsynced(&[ins("E", &[9, 9])]).unwrap();
        assert!(w.sync().is_err());
        assert!(w.is_poisoned());
        assert!(w.commit_batch_unsynced(&[ins("E", &[10, 10])]).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn replay_from_offset_sequence() {
        let path = temp_path("from-seq");
        // a segment whose first batch is global seq 5
        let mut w = WalWriter::append_to(&path, 4, FaultPlan::default()).unwrap();
        assert_eq!(commit(&mut w, &[ins("E", &[1, 2])]).unwrap(), 5);
        assert_eq!(commit(&mut w, &[ins("E", &[3, 4])]).unwrap(), 6);
        let bytes = std::fs::read(&path).unwrap();
        let replayed = replay_bytes_from(&bytes, 5);
        assert_eq!(replayed.batches.len(), 2);
        assert!(!replayed.torn());
        // scanning with the wrong base sequence reads as a splice, not data
        let wrong = replay_bytes_from(&bytes, 1);
        assert!(wrong.batches.is_empty());
        assert!(wrong.tail_reason.unwrap().contains("jumped"));
        std::fs::remove_file(&path).ok();
    }
}
