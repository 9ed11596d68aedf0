//! The WAL recovery property, fuzzed: **recovering any byte prefix of a valid
//! log recovers exactly a committed-batch prefix — never a partial batch,
//! never a reordered op.** This is the invariant every crash point (real
//! `kill -9`, injected torn write, failed fsync) reduces to, so it is tested
//! directly over hundreds of randomized prefixes, bit-flips, and
//! fault-injected logs, all through the segmented writer and
//! [`recover_dir`], the path the service runs.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use wcoj_storage::wal::segmented::{recover_dir, DirRecovery, SegmentedWal, DEFAULT_SEGMENT_BYTES};
use wcoj_storage::wal::{FaultPlan, WalOp};
use wcoj_storage::StorageError;

/// SplitMix64 (Steele et al. 2014) — local copy so the storage crate's tests
/// stay dependency-free.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

/// A fresh, empty log directory path, unique within the process.
fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let mut p = std::env::temp_dir();
    p.push(format!(
        "wcoj-walrec-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&p).ok();
    p
}

/// Open a writer on `dir` after recovering it.
fn open(dir: &Path, segment_bytes: u64, fault: FaultPlan) -> SegmentedWal {
    let rec = recover_dir(dir).unwrap();
    SegmentedWal::open(dir, &rec, segment_bytes, fault).unwrap()
}

/// One durable batch: append, then the fsync barrier.
fn commit(w: &mut SegmentedWal, ops: &[WalOp]) -> Result<u64, StorageError> {
    let seq = w.commit_batch_unsynced(ops)?;
    w.sync()?;
    Ok(seq)
}

fn insert(rng: &mut SplitMix64) -> WalOp {
    WalOp::Insert {
        relation: "E".into(),
        tuple: vec![rng.below(64), rng.below(64)],
    }
}

/// Write a valid single-segment log of `batches` variable-size batches and
/// return the segment's bytes plus the oracle batch list.
fn build_log(seed: u64, batches: usize) -> (Vec<u8>, Vec<Vec<WalOp>>) {
    let dir = temp_dir(&format!("build-{seed}"));
    let mut w = open(&dir, DEFAULT_SEGMENT_BYTES, FaultPlan::default());
    let mut rng = SplitMix64(seed);
    let mut oracle = Vec::with_capacity(batches);
    for _ in 0..batches {
        let n = 1 + rng.below(6) as usize;
        let mut ops = Vec::with_capacity(n);
        for _ in 0..n {
            ops.push(match rng.below(4) {
                0 => WalOp::Insert {
                    relation: "E".into(),
                    tuple: vec![rng.below(100), rng.below(100)],
                },
                1 => WalOp::Delete {
                    relation: "edge_rel".into(),
                    tuple: vec![rng.below(100), rng.below(100), rng.below(100)],
                },
                2 => WalOp::Seal {
                    relation: "E".into(),
                },
                _ => WalOp::Compact {
                    relation: "E".into(),
                },
            });
        }
        commit(&mut w, &ops).unwrap();
        oracle.push(ops);
    }
    drop(w);
    let bytes = std::fs::read(segment(&dir)).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    (bytes, oracle)
}

/// The first segment of a log directory: segments are named by the sequence
/// of their first batch.
fn segment(dir: &Path) -> PathBuf {
    dir.join("wal.000001")
}

/// Assert the core property for one segment image: recovering a directory
/// that holds it recovers a complete prefix of `oracle`, and recovering the
/// truncated directory again is a clean fixpoint.
fn assert_committed_prefix(bytes: &[u8], oracle: &[Vec<WalOp>], what: &str) -> DirRecovery {
    let dir = temp_dir("image");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(segment(&dir), bytes).unwrap();
    let rec = recover_dir(&dir).unwrap();
    let k = rec.tail.len();
    assert!(k <= oracle.len(), "{what}: more batches than ever written");
    assert_eq!(
        rec.committed, k as u64,
        "{what}: sequence and tail disagree"
    );
    assert_eq!(
        rec.tail[..],
        oracle[..k],
        "{what}: recovered batches are not the committed prefix"
    );
    assert!(
        rec.wal_bytes <= bytes.len() as u64,
        "{what}: durable prefix exceeds the image"
    );
    // idempotence: recovery truncated the segment to its durable prefix, so
    // a second recovery finds the same batches and nothing torn
    let again = recover_dir(&dir).unwrap();
    assert_eq!(again.tail, rec.tail, "{what}: not a fixpoint");
    assert!(!again.torn, "{what}: durable prefix still torn");
    std::fs::remove_dir_all(&dir).ok();
    rec
}

#[test]
fn every_byte_prefix_recovers_exactly_a_committed_batch_prefix() {
    let (bytes, oracle) = build_log(0xA11CE, 40);
    // 128 random crash points plus both endpoints and every boundary ±1 of
    // the first few records — over 130 distinct prefixes
    let mut rng = SplitMix64(0xBEEF);
    let mut cuts: Vec<usize> = (0..128)
        .map(|_| rng.below(bytes.len() as u64 + 1) as usize)
        .collect();
    cuts.extend([0, 1, 7, 8, 9, bytes.len() - 1, bytes.len()]);
    for cut in cuts {
        let rec = assert_committed_prefix(&bytes[..cut], &oracle, &format!("prefix {cut}"));
        if cut == bytes.len() {
            assert_eq!(rec.tail.len(), oracle.len(), "the whole log recovers");
            assert!(!rec.torn);
        }
    }
}

#[test]
fn random_bit_flips_still_recover_a_committed_prefix() {
    let (bytes, oracle) = build_log(0xF00D, 30);
    let mut rng = SplitMix64(0xD00F);
    for i in 0..48 {
        let mut mutated = bytes.clone();
        let at = rng.below(bytes.len() as u64) as usize;
        mutated[at] ^= 1 << rng.below(8);
        // a flip can invalidate any record at-or-after `at`; everything
        // before it must still recover as a committed prefix. (A flipped
        // *length* field can make a later commit marker parse as garbage, a
        // flipped payload fails the CRC — either way recovery must stop at a
        // batch boundary at or before the flip.)
        assert_committed_prefix(&mutated, &oracle, &format!("flip #{i} at byte {at}"));
    }
}

#[test]
fn torn_write_faults_at_random_offsets_recover_like_byte_prefixes() {
    let mut rng = SplitMix64(0x7EA4);
    for round in 0..24 {
        let dir = temp_dir(&format!("torn-{round}"));
        let cut = 16 + rng.below(900);
        // 256-byte segments: the tear's absolute ruler spans rotations
        let fault = FaultPlan {
            torn_write_at: Some(cut),
            ..FaultPlan::default()
        };
        let mut w = open(&dir, 256, fault);
        let mut oracle = Vec::new();
        for _ in 0..40 {
            let ops: Vec<WalOp> = (0..1 + rng.below(4)).map(|_| insert(&mut rng)).collect();
            if commit(&mut w, &ops).is_err() {
                break; // the injected tear fired inside this batch's write
            }
            w.maybe_rotate().unwrap();
            oracle.push(ops);
        }
        assert!(w.is_poisoned(), "round {round}: the tear never fired");
        drop(w);

        let rec = recover_dir(&dir).unwrap();
        let k = rec.tail.len();
        assert_eq!(
            rec.tail[..],
            oracle[..k],
            "round {round}: torn log diverges from its committed prefix"
        );
        // every batch synced before the tear survives it
        assert_eq!(k, oracle.len(), "round {round}: a synced batch vanished");
        assert_eq!(rec.committed, k as u64);
        // after recovery the log ends on a commit marker and a fresh writer
        // resumes with a contiguous commit sequence
        let mut w = SegmentedWal::open(&dir, &rec, 256, FaultPlan::default()).unwrap();
        let seal = vec![WalOp::Seal {
            relation: "E".into(),
        }];
        assert_eq!(commit(&mut w, &seal).unwrap(), k as u64 + 1);
        drop(w);
        let clean = recover_dir(&dir).unwrap();
        assert_eq!(clean.committed, k as u64 + 1);
        assert_eq!(clean.tail.last(), Some(&seal));
        assert!(!clean.torn);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn failed_fsyncs_never_surface_a_partial_batch() {
    let mut rng = SplitMix64(0x5EED);
    for round in 0..12 {
        let dir = temp_dir(&format!("fsync-{round}"));
        let fail_at = 1 + rng.below(8);
        let fault = FaultPlan {
            fail_fsync_at: Some(fail_at),
            ..FaultPlan::default()
        };
        let mut w = open(&dir, 256, fault);
        let mut acked = Vec::new();
        let mut unacked = None;
        for _ in 0..10 {
            let ops = vec![insert(&mut rng)];
            match commit(&mut w, &ops) {
                Ok(_) => acked.push(ops),
                Err(_) => {
                    unacked = Some(ops); // its durability was never acked
                    break;
                }
            }
            w.maybe_rotate().unwrap();
        }
        assert!(w.is_poisoned());
        drop(w);

        // every *acknowledged* batch must survive; the unacked one may or may
        // not (its bytes can have reached the disk) — but nothing partial and
        // nothing beyond it
        let rec = recover_dir(&dir).unwrap();
        let k = rec.tail.len();
        assert!(k >= acked.len(), "round {round}: an acked batch vanished");
        assert!(k <= acked.len() + 1, "round {round}: phantom batches");
        assert_eq!(rec.tail[..acked.len()], acked[..]);
        if k > acked.len() {
            assert_eq!(Some(&rec.tail[k - 1]), unacked.as_ref());
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
