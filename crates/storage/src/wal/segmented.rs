//! Segmented write-ahead logs with checkpointing: bounded recovery time.
//!
//! An unsegmented WAL replays its **entire history** at startup, so recovery
//! time grows without bound as the service runs. This module applies the
//! classical fix (ARIES-style fuzzy checkpoints over a rotated log):
//!
//! * **Segments.** The log is a directory of files `wal.000001`, `wal.000047`,
//!   … — each named by the global sequence number of the *first* batch it
//!   holds. [`SegmentedWal`] appends to the newest segment and rotates to a
//!   fresh one once the current file crosses a size threshold
//!   (`WCOJ_WAL_SEGMENT_BYTES`, default 64 MiB). Each batch is one write, so
//!   rotation always falls on a batch boundary: records never straddle
//!   segments, and every segment's commit markers continue the global
//!   sequence exactly where its predecessor stopped
//!   ([`crate::wal::replay_bytes_from`] verifies this per segment).
//! * **Checkpoints.** [`write_checkpoint`] persists an opaque per-relation
//!   state blob (the service serializes each delta relation from an MVCC
//!   snapshot, so the writer is never stalled) as `ckpt.000047`, named by the
//!   last batch sequence the state covers, CRC-guarded and written before any
//!   segment older than it is deleted. [`gc_checkpoint`] then removes
//!   checkpoints and segments the newest checkpoint fully covers — recovery
//!   replays only the tail after the checkpoint, so its cost is bounded by
//!   the tail length, not total history.
//! * **Recovery.** [`recover_dir`] picks the newest CRC-valid checkpoint
//!   (a torn or corrupt one — e.g. via the `ckpt_torn` [`FaultPlan`]
//!   directive — is discarded and recovery falls back to the previous
//!   checkpoint plus a longer tail), then replays segments in sequence order,
//!   skipping batches the checkpoint covers, truncating a torn tail in the
//!   last segment back to its last commit marker, and cutting (with the
//!   reason surfaced) at any gap the checkpoint does not cover.
//!
//! The crash-ordering discipline: a batch is acknowledged only after its
//! commit marker is fsynced; a checkpoint's file *and* directory entry are
//! fsynced before any segment it covers is deleted; so at every kill point
//! the union of (newest durable checkpoint, surviving segments) reconstructs
//! exactly the acknowledged prefix.

use super::{replay_bytes_from, FaultPlan, WalOp, WalWriter};
use crate::error::StorageError;
use crate::wal::crc32;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Default segment-rotation threshold (bytes) when `WCOJ_WAL_SEGMENT_BYTES`
/// is unset.
pub const DEFAULT_SEGMENT_BYTES: u64 = 64 << 20;

/// The rotation threshold from `WCOJ_WAL_SEGMENT_BYTES`, or
/// [`DEFAULT_SEGMENT_BYTES`] when unset/unparsable. Clamped to ≥ 1 so `0`
/// cannot force a rotation per batch with empty segments in between.
pub fn segment_bytes_from_env() -> u64 {
    std::env::var("WCOJ_WAL_SEGMENT_BYTES")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .map(|v| v.max(1))
        .unwrap_or(DEFAULT_SEGMENT_BYTES)
}

/// `wal.{first_seq:06}` — segments sort by name iff they sort by sequence
/// (within six digits; parsing is numeric, so wider numbers stay correct).
fn segment_path(dir: &Path, first_seq: u64) -> PathBuf {
    dir.join(format!("wal.{first_seq:06}"))
}

/// `ckpt.{covered_seq:06}`.
fn checkpoint_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("ckpt.{seq:06}"))
}

fn parse_numbered(name: &str, prefix: &str) -> Option<u64> {
    let digits = name.strip_prefix(prefix)?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Fsync the directory itself so created/deleted entries survive a crash
/// (file-content fsyncs do not cover the containing directory on Linux).
fn sync_dir(dir: &Path) -> Result<(), StorageError> {
    File::open(dir)?.sync_all()?;
    Ok(())
}

/// List `(number, path)` for every `prefix`-numbered file in `dir`, sorted by
/// number ascending. Unrelated names are ignored.
fn list_numbered(dir: &Path, prefix: &str) -> Result<Vec<(u64, PathBuf)>, StorageError> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(n) = entry
            .file_name()
            .to_str()
            .and_then(|s| parse_numbered(s, prefix))
        {
            out.push((n, entry.path()));
        }
    }
    out.sort_unstable_by_key(|&(n, _)| n);
    Ok(out)
}

const CKPT_MAGIC: &[u8; 8] = b"WCOJCKPT";
const CKPT_VERSION: u32 = 1;

/// A decoded, CRC-verified checkpoint: the catalog state covering every batch
/// with sequence ≤ [`Checkpoint::seq`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Last batch sequence the state covers (recovery replays only `seq+1…`).
    pub seq: u64,
    /// Per-relation opaque state blobs, as handed to [`write_checkpoint`]
    /// (the service layer owns the encoding — see
    /// `DeltaRelation::encode_state`).
    pub relations: Vec<(String, Vec<u8>)>,
}

/// Serialize a checkpoint file's bytes (magic, version, covered seq, CRC'd
/// payload of per-relation blobs).
fn encode_checkpoint(seq: u64, relations: &[(String, Vec<u8>)]) -> Vec<u8> {
    let mut payload = Vec::new();
    payload.extend_from_slice(&(relations.len() as u32).to_le_bytes());
    for (name, state) in relations {
        let name_bytes = name.as_bytes();
        debug_assert!(
            name_bytes.len() <= u16::MAX as usize,
            "relation name too long"
        );
        payload.extend_from_slice(&(name_bytes.len() as u16).to_le_bytes());
        payload.extend_from_slice(name_bytes);
        payload.extend_from_slice(&(state.len() as u64).to_le_bytes());
        payload.extend_from_slice(state);
    }
    let mut bytes = Vec::with_capacity(32 + payload.len());
    bytes.extend_from_slice(CKPT_MAGIC);
    bytes.extend_from_slice(&CKPT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&seq.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);
    bytes
}

/// Decode + verify one checkpoint file's bytes. The error is the reason the
/// file is unusable — recovery treats any failure as "this checkpoint never
/// finished" and falls back to the previous one.
fn decode_checkpoint(bytes: &[u8]) -> Result<Checkpoint, String> {
    let header = 8 + 4 + 8 + 8 + 4;
    if bytes.len() < header {
        return Err(format!("truncated header: {} bytes", bytes.len()));
    }
    if &bytes[..8] != CKPT_MAGIC {
        return Err("bad magic".into());
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("len 4"));
    if version != CKPT_VERSION {
        return Err(format!("unknown version {version}"));
    }
    let seq = u64::from_le_bytes(bytes[12..20].try_into().expect("len 8"));
    let payload_len = u64::from_le_bytes(bytes[20..28].try_into().expect("len 8")) as usize;
    let crc = u32::from_le_bytes(bytes[28..32].try_into().expect("len 4"));
    let payload = &bytes[header..];
    if payload.len() != payload_len {
        return Err(format!(
            "payload truncated: declared {payload_len}, have {}",
            payload.len()
        ));
    }
    if crc32(payload) != crc {
        return Err("payload checksum mismatch".into());
    }
    let mut relations = Vec::new();
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> Result<&[u8], String> {
        if payload.len() - *pos < n {
            return Err(format!("payload underrun at {}", *pos));
        }
        let s = &payload[*pos..*pos + n];
        *pos += n;
        Ok(s)
    };
    let count = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("len 4"));
    for _ in 0..count {
        let name_len = u16::from_le_bytes(take(&mut pos, 2)?.try_into().expect("len 2")) as usize;
        let name = String::from_utf8(take(&mut pos, name_len)?.to_vec())
            .map_err(|_| "relation name is not UTF-8".to_string())?;
        let state_len = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("len 8")) as usize;
        let state = take(&mut pos, state_len)?.to_vec();
        relations.push((name, state));
    }
    if pos != payload.len() {
        return Err(format!("trailing garbage: {} bytes", payload.len() - pos));
    }
    Ok(Checkpoint { seq, relations })
}

/// Write checkpoint `ckpt.{seq}` into `dir` and make it durable (file fsync,
/// then directory fsync — only after both may covered segments be deleted;
/// [`gc_checkpoint`] is a separate call so the service controls that order).
/// Returns the file's size in bytes.
///
/// Honors the `ckpt_torn:K` fault: the write stops after `K` bytes and the
/// file is **not** fsynced — exactly the disk state a crash mid-checkpoint
/// would leave — and the call fails with [`StorageError::FaultInjected`].
/// Recovery then discards the torn file and falls back.
pub fn write_checkpoint(
    dir: &Path,
    seq: u64,
    relations: &[(String, Vec<u8>)],
    fault: &FaultPlan,
) -> Result<u64, StorageError> {
    let bytes = encode_checkpoint(seq, relations);
    let path = checkpoint_path(dir, seq);
    let mut file = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(&path)?;
    if let Some(k) = fault.ckpt_torn_at {
        let keep = (k as usize).min(bytes.len());
        file.write_all(&bytes[..keep])?;
        // the torn file must be observable after the "crash": flush content,
        // and the entry itself, without acknowledging the checkpoint
        file.sync_data()?;
        sync_dir(dir)?;
        return Err(StorageError::FaultInjected(format!(
            "checkpoint write torn at byte {k}"
        )));
    }
    file.write_all(&bytes)?;
    file.sync_data()?;
    sync_dir(dir)?;
    Ok(bytes.len() as u64)
}

/// What [`gc_checkpoint`] removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GcReport {
    /// Segment files deleted (fully covered by the checkpoint).
    pub segments_deleted: u64,
    /// Older checkpoint files deleted.
    pub checkpoints_deleted: u64,
    /// Total bytes freed (segments + checkpoints).
    pub bytes_freed: u64,
    /// Bytes freed from segment files alone (for the live-log-size gauge;
    /// checkpoint bytes are not part of the replayable log).
    pub segment_bytes_freed: u64,
}

/// Delete everything the durable checkpoint at `keep_seq` makes redundant:
/// older checkpoint files, and every segment whose batches are all ≤
/// `keep_seq` **and** whose successor segment exists (the newest segment is
/// never deleted — it is the append target and the proof the sequence
/// reaches `keep_seq`). Call only after [`write_checkpoint`] returned `Ok`.
pub fn gc_checkpoint(dir: &Path, keep_seq: u64) -> Result<GcReport, StorageError> {
    let mut report = GcReport::default();
    for (seq, path) in list_numbered(dir, "ckpt.")? {
        if seq < keep_seq {
            report.bytes_freed += fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            fs::remove_file(&path)?;
            report.checkpoints_deleted += 1;
        }
    }
    let segments = list_numbered(dir, "wal.")?;
    for window in segments.windows(2) {
        let (_, ref path) = window[0];
        let (next_start, _) = window[1];
        // every batch in this segment is < next_start; covered iff all ≤ keep_seq
        if next_start <= keep_seq + 1 {
            let len = fs::metadata(path).map(|m| m.len()).unwrap_or(0);
            report.bytes_freed += len;
            report.segment_bytes_freed += len;
            fs::remove_file(path)?;
            report.segments_deleted += 1;
        }
    }
    if report.segments_deleted + report.checkpoints_deleted > 0 {
        sync_dir(dir)?;
    }
    Ok(report)
}

/// What [`recover_dir`] reconstructed from a log directory.
#[derive(Debug, Clone)]
pub struct DirRecovery {
    /// The newest CRC-valid checkpoint, if any (its state covers every batch
    /// with sequence ≤ `checkpoint.seq`).
    pub checkpoint: Option<Checkpoint>,
    /// Committed batches **after** the checkpoint, in sequence order — the
    /// replay tail. The first entry is batch `checkpoint_seq() + 1`.
    pub tail: Vec<Vec<WalOp>>,
    /// The last durable batch sequence (checkpoint + tail).
    pub committed: u64,
    /// Whether anything was dropped: a torn segment tail, a torn checkpoint,
    /// or a sequence gap that had to be cut.
    pub torn: bool,
    /// Why the tail (if any) was dropped; `None` for a clean log.
    pub tail_reason: Option<String>,
    /// Segment files surviving recovery.
    pub segments: usize,
    /// On-disk segment bytes after recovery truncated/deleted what it had to.
    pub wal_bytes: u64,
    /// The segment [`SegmentedWal::open`] should append to (`None` when a
    /// fresh segment must be created — empty dir, or the checkpoint is ahead
    /// of every surviving segment).
    pub last_segment: Option<PathBuf>,
    /// Bytes in surviving segments *before* the append target — the base of
    /// the absolute torn-write fault ruler.
    pub bytes_before_last: u64,
}

impl DirRecovery {
    /// The sequence the newest valid checkpoint covers (0 = none).
    pub fn checkpoint_seq(&self) -> u64 {
        self.checkpoint.as_ref().map(|c| c.seq).unwrap_or(0)
    }
}

/// Recover a segmented log directory: pick the newest valid checkpoint
/// (deleting torn/corrupt checkpoint files), replay the segment chain for the
/// batches after it, truncate a torn tail, and cut (deleting later segments)
/// at any gap or mid-chain corruption the checkpoint does not cover. A
/// missing or empty directory recovers as empty. See the
/// [module docs](self) for the invariants.
pub fn recover_dir(dir: &Path) -> Result<DirRecovery, StorageError> {
    fs::create_dir_all(dir)?;
    // 1. newest CRC-valid checkpoint wins; unusable ones are deleted so a
    //    retried checkpoint at the same sequence starts clean
    let mut checkpoint = None;
    let mut ckpt_reason = None;
    for (_, path) in list_numbered(dir, "ckpt.")?.into_iter().rev() {
        if checkpoint.is_some() {
            break;
        }
        let mut bytes = Vec::new();
        File::open(&path)?.read_to_end(&mut bytes)?;
        match decode_checkpoint(&bytes) {
            Ok(c) => checkpoint = Some(c),
            Err(reason) => {
                ckpt_reason.get_or_insert(format!(
                    "discarded checkpoint {}: {reason}",
                    path.file_name().and_then(|n| n.to_str()).unwrap_or("?")
                ));
                fs::remove_file(&path)?;
            }
        }
    }
    let ckpt_seq = checkpoint.as_ref().map(|c| c.seq).unwrap_or(0);

    // 2. replay the segment chain; `reached` = the highest sequence whose
    //    state we can reconstruct (checkpoint-seeded, advanced per segment)
    let segments = list_numbered(dir, "wal.")?;
    let mut reached = ckpt_seq;
    let mut tail: Vec<Vec<WalOp>> = Vec::new();
    let mut torn = ckpt_reason.is_some();
    let mut tail_reason = ckpt_reason;
    let mut surviving: Vec<(PathBuf, u64)> = Vec::new(); // (path, size after truncation)
    let mut cut_at: Option<usize> = None;
    for (i, (start, path)) in segments.iter().enumerate() {
        if *start > reached + 1 {
            // batches reached+1..start-1 exist nowhere: cut here, exactly as
            // replay stops at mid-segment corruption
            torn = true;
            tail_reason.get_or_insert(format!(
                "sequence gap: segment {start} follows reconstructible prefix {reached}"
            ));
            cut_at = Some(i);
            break;
        }
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        let rep = replay_bytes_from(&bytes, *start);
        for (j, batch) in rep.batches.iter().enumerate() {
            let seq = *start + j as u64;
            if seq > reached {
                debug_assert_eq!(
                    seq,
                    ckpt_seq + 1 + tail.len() as u64,
                    "tail batches are contiguous from the checkpoint"
                );
                tail.push(batch.clone());
            }
        }
        let end = *start + rep.batches.len() as u64 - 1; // start-1 when empty
        reached = reached.max(end);
        if rep.torn() {
            if i + 1 < segments.len() {
                // a torn middle segment: whatever follows is only usable if
                // the checkpoint already covers the missing part — the gap
                // check on the next iteration decides. Keep the file intact
                // (truncation is only for the append target).
                torn = true;
                tail_reason.get_or_insert(
                    rep.tail_reason
                        .clone()
                        .unwrap_or_else(|| "torn middle segment".into()),
                );
                surviving.push((path.clone(), rep.file_bytes));
            } else {
                // torn tail of the last segment: truncate so appends resume
                // cleanly on a commit marker
                torn = true;
                tail_reason.get_or_insert(rep.tail_reason.clone().unwrap_or_default());
                let f = OpenOptions::new().write(true).open(path)?;
                f.set_len(rep.valid_bytes)?;
                f.sync_data()?;
                surviving.push((path.clone(), rep.valid_bytes));
            }
        } else {
            surviving.push((path.clone(), rep.file_bytes));
        }
    }
    if let Some(i) = cut_at {
        for (_, path) in &segments[i..] {
            fs::remove_file(path)?;
        }
        // the cut makes the previous segment the append target: drop its own
        // torn tail (if any) so the writer resumes on a marker boundary
        if let Some((path, size)) = surviving.last_mut() {
            let mut bytes = Vec::new();
            File::open(&*path)?.read_to_end(&mut bytes)?;
            let start = segments[i - 1].0;
            let rep = replay_bytes_from(&bytes, start);
            if rep.torn() {
                let f = OpenOptions::new().write(true).open(&*path)?;
                f.set_len(rep.valid_bytes)?;
                f.sync_data()?;
                *size = rep.valid_bytes;
            }
        }
        sync_dir(dir)?;
    }

    // 3. the append target: the last surviving segment, but only if the
    //    global sequence actually ends inside it — when the checkpoint is
    //    ahead of every segment, appending would splice a sequence jump, so
    //    a fresh segment must be started instead
    let last_end_matches = match surviving.last() {
        Some((path, _)) => {
            // reconstruct this segment's end from its name + replay count:
            // cheaper to thread through, but recompute keeps the loop simple
            let start = segments
                .iter()
                .find(|(_, p)| p == path)
                .map(|(s, _)| *s)
                .expect("surviving paths come from the listing");
            let mut bytes = Vec::new();
            File::open(path)?.read_to_end(&mut bytes)?;
            let rep = replay_bytes_from(&bytes, start);
            start + rep.batches.len() as u64 - 1 == reached
        }
        None => false,
    };
    let wal_bytes: u64 = surviving.iter().map(|&(_, s)| s).sum();
    let (last_segment, bytes_before_last) = if last_end_matches {
        let (path, size) = surviving.last().cloned().expect("non-empty per the match");
        (Some(path), wal_bytes - size)
    } else {
        (None, wal_bytes)
    };
    Ok(DirRecovery {
        checkpoint,
        tail,
        committed: reached,
        torn,
        tail_reason,
        segments: surviving.len(),
        wal_bytes,
        last_segment,
        bytes_before_last,
    })
}

/// Translate the absolute fault rulers into a per-segment [`FaultPlan`]:
/// fsync counts and byte offsets are global across the log, while each
/// segment's writer counts from its own segment's start.
fn plan_for_segment(fault: &FaultPlan, fsyncs_done: u64, bytes_done: u64) -> FaultPlan {
    FaultPlan {
        fail_fsync_at: fault
            .fail_fsync_at
            .and_then(|n| n.checked_sub(fsyncs_done))
            .filter(|&n| n > 0),
        torn_write_at: fault.torn_write_at.map(|k| k.saturating_sub(bytes_done)),
        ..*fault
    }
}

/// The segmented log's writer: appends to the newest segment and rotates.
/// Each batch (its op frames plus commit marker) is one write and a group of
/// batches shares one [`SegmentedWal::sync`]. After any I/O failure, real or
/// injected, the writer is poisoned until [`recover_dir`] and a reopen.
/// Rotation happens only between fully-synced batches, so every segment
/// ends on a commit marker except (after a crash) the newest.
#[derive(Debug)]
pub struct SegmentedWal {
    dir: PathBuf,
    writer: WalWriter,
    segment_bytes: u64,
    /// The absolute fault plan; per-segment writers get translated copies.
    fault: FaultPlan,
    /// Fsyncs performed in rotated-out segments (fault-ruler base).
    fsyncs_base: u64,
    /// Bytes in segments before the current one (fault ruler + size gauge;
    /// monotonic — GC does not rewind it).
    bytes_completed: u64,
    /// Segments completed (rotated out) since the last checkpoint — the
    /// service's checkpoint trigger.
    segments_since_checkpoint: u64,
}

impl SegmentedWal {
    /// Open the log for appending after [`recover_dir`]: resume the last
    /// surviving segment, or start a fresh one when recovery said so. Creates
    /// the directory (and first segment) for a brand-new log.
    pub fn open(
        dir: impl AsRef<Path>,
        recovery: &DirRecovery,
        segment_bytes: u64,
        fault: FaultPlan,
    ) -> Result<SegmentedWal, StorageError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let seg_path = match &recovery.last_segment {
            Some(p) => p.clone(),
            None => segment_path(&dir, recovery.committed + 1),
        };
        let plan = plan_for_segment(&fault, 0, recovery.bytes_before_last);
        let writer = WalWriter::append_to(&seg_path, recovery.committed, plan)?;
        sync_dir(&dir)?;
        Ok(SegmentedWal {
            dir,
            writer,
            segment_bytes: segment_bytes.max(1),
            fault,
            fsyncs_base: 0,
            bytes_completed: recovery.bytes_before_last,
            segments_since_checkpoint: 0,
        })
    }

    /// Batches committed (global sequence).
    pub fn committed(&self) -> u64 {
        self.writer.committed()
    }

    /// Whether a prior failure poisoned the writer (recover + reopen to
    /// resume).
    pub fn is_poisoned(&self) -> bool {
        self.writer.is_poisoned()
    }

    /// Bytes written across all segments since open (plus what open
    /// retained). Monotonic: checkpoint GC does not rewind it.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_completed + self.writer.offset()
    }

    /// Segments completed since the last [`SegmentedWal::checkpoint_taken`].
    pub fn segments_since_checkpoint(&self) -> u64 {
        self.segments_since_checkpoint
    }

    /// Reset the checkpoint trigger counter (the service calls this after a
    /// checkpoint is durably written).
    pub fn checkpoint_taken(&mut self) {
        self.segments_since_checkpoint = 0;
    }

    /// Append a whole batch (its op frames plus commit marker) in a single
    /// buffered write, unsynced. Returns the batch's sequence number, which
    /// is provisional until the next [`SegmentedWal::sync`] succeeds. An
    /// empty batch writes nothing and returns the current committed count;
    /// a [`WalOp::Commit`] among `ops` is rejected (markers are the writer's).
    pub fn commit_batch_unsynced(&mut self, ops: &[WalOp]) -> Result<u64, StorageError> {
        self.writer.commit_batch_unsynced(ops)
    }

    /// Fsync the current segment: the durability barrier for every batch
    /// appended since the last sync. Honors the `fsync_fail` fault; a failure
    /// poisons the writer.
    pub fn sync(&mut self) -> Result<(), StorageError> {
        self.writer.sync()
    }

    /// Rotate to a fresh segment if the current one has crossed the size
    /// threshold. Call it on a healthy writer right after a successful
    /// [`SegmentedWal::sync`], so the new segment starts on a durable batch
    /// boundary. Returns whether a rotation happened. On failure to create
    /// the next segment the current writer stays in place (appends continue
    /// into the oversized segment; correctness is unaffected).
    pub fn maybe_rotate(&mut self) -> Result<bool, StorageError> {
        if self.writer.is_poisoned() || self.writer.offset() < self.segment_bytes {
            return Ok(false);
        }
        let committed = self.writer.committed();
        let fsyncs_done = self.fsyncs_base + self.writer.fsyncs();
        let bytes_done = self.bytes_completed + self.writer.offset();
        let path = segment_path(&self.dir, committed + 1);
        let plan = plan_for_segment(&self.fault, fsyncs_done, bytes_done);
        let writer = WalWriter::append_to(&path, committed, plan)?;
        sync_dir(&self.dir)?;
        self.writer = writer;
        self.fsyncs_base = fsyncs_done;
        self.bytes_completed = bytes_done;
        self.segments_since_checkpoint += 1;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;

    fn temp_dir(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "wcoj-segwal-{tag}-{}-{}",
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

    fn open_fresh(dir: &Path, segment_bytes: u64) -> SegmentedWal {
        let rec = recover_dir(dir).unwrap();
        SegmentedWal::open(dir, &rec, segment_bytes, FaultPlan::default()).unwrap()
    }

    /// One durable batch: append, then the fsync barrier.
    fn commit(w: &mut SegmentedWal, ops: &[WalOp]) -> Result<u64, StorageError> {
        let seq = w.commit_batch_unsynced(ops)?;
        w.sync()?;
        Ok(seq)
    }

    fn commit_n(w: &mut SegmentedWal, n: u64, base: u64) {
        for i in 0..n {
            commit(w, &[ins("E", &[base + i, base + i + 1])]).unwrap();
            w.maybe_rotate().unwrap();
        }
    }

    #[test]
    fn rotation_splits_batches_across_segments_and_recovery_rejoins() {
        let dir = temp_dir("rotate");
        let mut w = open_fresh(&dir, 64); // tiny: rotate nearly every batch
        commit_n(&mut w, 12, 0);
        assert!(w.segments_since_checkpoint() >= 3, "rotations happened");
        drop(w);
        let rec = recover_dir(&dir).unwrap();
        assert_eq!(rec.committed, 12);
        assert_eq!(rec.tail.len(), 12, "no checkpoint: the tail is everything");
        assert!(!rec.torn);
        assert!(rec.segments >= 3, "recovery sees the rotated chain");
        assert_eq!(rec.tail[0], vec![ins("E", &[0, 1])]);
        assert_eq!(rec.tail[11], vec![ins("E", &[11, 12])]);
        // append resumes the global sequence
        let mut w = SegmentedWal::open(&dir, &rec, 64, FaultPlan::default()).unwrap();
        assert_eq!(commit(&mut w, &[ins("E", &[99, 100])]).unwrap(), 13);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_bounds_the_tail_and_gc_deletes_covered_segments() {
        let dir = temp_dir("ckpt");
        let mut w = open_fresh(&dir, 64);
        commit_n(&mut w, 10, 0);
        // checkpoint covering the first 10 batches (opaque state blob)
        let state = vec![("E".to_string(), vec![1u8, 2, 3])];
        write_checkpoint(&dir, 10, &state, &FaultPlan::default()).unwrap();
        let gc = gc_checkpoint(&dir, 10).unwrap();
        assert!(gc.segments_deleted > 0, "covered segments are deleted");
        w.checkpoint_taken();
        commit_n(&mut w, 3, 100);
        drop(w);
        let rec = recover_dir(&dir).unwrap();
        let ckpt = rec.checkpoint.as_ref().expect("checkpoint survives");
        assert_eq!(ckpt.seq, 10);
        assert_eq!(ckpt.relations, state);
        assert_eq!(rec.committed, 13);
        assert_eq!(rec.tail.len(), 3, "only the post-checkpoint tail replays");
        assert_eq!(rec.tail[0], vec![ins("E", &[100, 101])]);
        assert!(!rec.torn);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_checkpoint_falls_back_to_previous_plus_longer_tail() {
        let dir = temp_dir("torn-ckpt");
        let mut w = open_fresh(&dir, 64);
        commit_n(&mut w, 4, 0);
        let old = vec![("E".to_string(), b"old-state".to_vec())];
        write_checkpoint(&dir, 4, &old, &FaultPlan::default()).unwrap();
        gc_checkpoint(&dir, 4).unwrap();
        commit_n(&mut w, 4, 50);
        // the newer checkpoint tears mid-write: recovery must not trust it
        let newer = vec![("E".to_string(), b"new-state".to_vec())];
        let fault = FaultPlan::parse("ckpt_torn:20").unwrap();
        let err = write_checkpoint(&dir, 8, &newer, &fault).unwrap_err();
        assert!(matches!(err, StorageError::FaultInjected(_)), "{err}");
        drop(w);
        let rec = recover_dir(&dir).unwrap();
        let ckpt = rec.checkpoint.as_ref().expect("previous checkpoint");
        assert_eq!(ckpt.seq, 4, "fell back past the torn checkpoint");
        assert_eq!(ckpt.relations, old);
        assert_eq!(rec.committed, 8);
        assert_eq!(rec.tail.len(), 4, "longer tail compensates");
        assert!(rec.torn, "the discarded checkpoint is reported");
        assert!(rec.tail_reason.as_ref().unwrap().contains("checkpoint"));
        assert!(
            !checkpoint_path(&dir, 8).exists(),
            "the torn file was removed so a retry starts clean"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_with_zero_tail_recovers_to_checkpoint_state() {
        let dir = temp_dir("zero-tail");
        let mut w = open_fresh(&dir, 1 << 20); // no rotation
        commit_n(&mut w, 5, 0);
        let state = vec![("E".to_string(), b"s".to_vec())];
        write_checkpoint(&dir, 5, &state, &FaultPlan::default()).unwrap();
        gc_checkpoint(&dir, 5).unwrap();
        drop(w);
        let rec = recover_dir(&dir).unwrap();
        assert_eq!(rec.checkpoint.as_ref().unwrap().seq, 5);
        assert_eq!(rec.committed, 5);
        assert!(rec.tail.is_empty(), "nothing after the checkpoint");
        assert!(!rec.torn);
        // appends continue at 6
        let mut w = SegmentedWal::open(&dir, &rec, 1 << 20, FaultPlan::default()).unwrap();
        assert_eq!(commit(&mut w, &[ins("E", &[7, 8])]).unwrap(), 6);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn commit_exactly_at_segment_boundary_rotates_cleanly() {
        let dir = temp_dir("boundary");
        let mut w = open_fresh(&dir, 1 << 20);
        commit(&mut w, &[ins("E", &[1, 2])]).unwrap();
        // arm the threshold to exactly the current offset: the *next*
        // maybe_rotate must fire, and the batch boundary is preserved
        let exact = w.total_bytes();
        let mut w2 = {
            drop(w);
            let rec = recover_dir(&dir).unwrap();
            SegmentedWal::open(&dir, &rec, exact, FaultPlan::default()).unwrap()
        };
        assert!(w2.maybe_rotate().unwrap(), "offset == threshold rotates");
        assert_eq!(commit(&mut w2, &[ins("E", &[3, 4])]).unwrap(), 2);
        drop(w2);
        let rec = recover_dir(&dir).unwrap();
        assert_eq!(rec.committed, 2);
        assert_eq!(rec.segments, 2);
        assert_eq!(rec.tail.len(), 2);
        assert!(!rec.torn);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_in_last_segment_is_truncated() {
        let dir = temp_dir("torn-tail");
        let mut w = open_fresh(&dir, 64);
        commit_n(&mut w, 5, 0);
        drop(w);
        // batch 6 tears after its op frame, before its commit marker
        let rec = recover_dir(&dir).unwrap();
        let op = ins("E", &[77, 78]);
        let tear = FaultPlan {
            torn_write_at: Some(rec.wal_bytes + 8 + op.encode().len() as u64),
            ..FaultPlan::default()
        };
        let mut w = SegmentedWal::open(&dir, &rec, 64, tear).unwrap();
        assert!(commit(&mut w, &[op]).is_err());
        assert!(w.is_poisoned());
        drop(w);
        let rec = recover_dir(&dir).unwrap();
        assert_eq!(rec.committed, 5);
        assert!(rec.torn);
        assert!(rec.tail_reason.as_ref().unwrap().contains("uncommitted"));
        // the truncation leaves the last segment on a marker boundary
        let rec2 = recover_dir(&dir).unwrap();
        assert!(!rec2.torn, "second recovery is clean");
        assert_eq!(rec2.committed, 5);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sequence_gap_cuts_and_reports() {
        let dir = temp_dir("gap");
        let mut w = open_fresh(&dir, 64);
        commit_n(&mut w, 9, 0);
        drop(w);
        // delete a middle segment: the chain past it is unusable
        let segments = list_numbered(&dir, "wal.").unwrap();
        assert!(segments.len() >= 3, "need a middle segment to delete");
        let (victim_start, victim) = segments[1].clone();
        fs::remove_file(&victim).unwrap();
        let rec = recover_dir(&dir).unwrap();
        assert!(rec.torn);
        assert!(rec.tail_reason.as_ref().unwrap().contains("gap"));
        assert_eq!(rec.committed, victim_start - 1, "prefix before the gap");
        assert_eq!(rec.tail.len(), rec.committed as usize);
        // later segments were cut; a fresh recovery is clean
        let rec2 = recover_dir(&dir).unwrap();
        assert!(!rec2.torn);
        assert_eq!(rec2.committed, victim_start - 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn absolute_fault_rulers_span_rotations() {
        let dir = temp_dir("fault-ruler");
        let rec = recover_dir(&dir).unwrap();
        // 3rd fsync fails, even though rotation replaces the inner writer
        let fault = FaultPlan::parse("fsync_fail:3").unwrap();
        let mut w = SegmentedWal::open(&dir, &rec, 64, fault).unwrap();
        commit(&mut w, &[ins("E", &[1, 2])]).unwrap();
        w.maybe_rotate().unwrap();
        commit(&mut w, &[ins("E", &[3, 4])]).unwrap();
        assert!(
            w.maybe_rotate().unwrap(),
            "the failing fsync is in a later segment"
        );
        let err = commit(&mut w, &[ins("E", &[5, 6])]).unwrap_err();
        assert!(matches!(err, StorageError::FaultInjected(_)), "{err}");
        assert!(w.is_poisoned());
        // the unacked batch's marker bytes may survive in the OS cache: the
        // log running ahead of acknowledgement is the allowed direction
        // (memory ahead of the log is not), so recovery may see 2 or 3
        let rec = recover_dir(&dir).unwrap();
        assert!((2..=3).contains(&rec.committed), "got {}", rec.committed);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_roundtrip_and_corruption_detection() {
        let rels = vec![
            ("E".to_string(), vec![0u8; 100]),
            ("R".to_string(), b"abc".to_vec()),
        ];
        let bytes = encode_checkpoint(42, &rels);
        let ckpt = decode_checkpoint(&bytes).unwrap();
        assert_eq!(ckpt.seq, 42);
        assert_eq!(ckpt.relations, rels);
        // any single-byte flip in the payload is caught
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        assert!(decode_checkpoint(&bad).is_err());
        // truncation at every prefix is caught
        for cut in 0..bytes.len() {
            assert!(
                decode_checkpoint(&bytes[..cut]).is_err(),
                "prefix {cut} must not decode"
            );
        }
        assert!(decode_checkpoint(b"NOTMAGIC________________________").is_err());
    }

    #[test]
    fn missing_dir_recovers_empty_and_open_creates_it() {
        let dir = temp_dir("fresh");
        let rec = recover_dir(&dir).unwrap();
        assert_eq!(rec.committed, 0);
        assert!(rec.tail.is_empty());
        assert!(rec.checkpoint.is_none());
        assert!(!rec.torn);
        let mut w = SegmentedWal::open(&dir, &rec, 1 << 20, FaultPlan::default()).unwrap();
        assert_eq!(commit(&mut w, &[ins("E", &[1, 2])]).unwrap(), 1);
        fs::remove_dir_all(&dir).ok();
    }
}
