//! `wcoj-storage` — the in-memory relational substrate used by every join algorithm in
//! this workspace.
//!
//! The worst-case optimal join algorithms of Ngo (PODS 2018) make exactly one
//! assumption about the storage layer (Section 2 of the paper): *the intersection of
//! two sets can be enumerated in time proportional to the smaller set* (up to a log
//! factor). This crate provides data structures that satisfy that assumption and
//! expose it explicitly:
//!
//! * [`Relation`] — a sorted, deduplicated, **columnar** relation over
//!   dictionary-encoded [`Value`]s (one contiguous array per attribute) with the
//!   classical unary/binary operators (selection, projection, semijoin, union,
//!   difference, binary hash join, sort-merge join), all operating
//!   column-at-a-time;
//! * [`kernels`] — the adaptive multi-way intersection layer: branchless merge,
//!   smallest-driven galloping, and a small-domain bitmap kernel, selected per
//!   intersection by a span/size-ratio heuristic ([`kernels::KernelPolicy`]) and
//!   recorded in the [`stats::WorkCounter`] breakdown;
//! * [`trie::Trie`] — a CSR-flattened prefix trie over a chosen attribute order with a
//!   seekable cursor, the one static access path: Leapfrog Triejoin seeks in its
//!   sibling groups and Generic Join intersects them; built by a
//!   single fused argsort-and-scan pass over the relation's columns — or, with
//!   [`trie::Trie::build_parallel`], by the same pass partitioned across scoped
//!   workers with bit-identical results;
//! * [`access::TrieAccess`] — the common cursor trait over the static trie and the
//!   live delta log (`TrieCursor` and [`delta::DeltaCursor`]), so the join engines
//!   in `wcoj-core` are written once — generically, monomorphized per cursor — and
//!   run on either; [`access::CursorKind`] composes static and delta-backed atoms
//!   without vtable dispatch. Every cursor is `Send + Clone`, so parallel workers
//!   hold private cursors over one shared access structure;
//! * [`delta`] — incremental maintenance: [`delta::DeltaRelation`] stores a live
//!   relation as a base run + ordered delta runs (sorted ± mini-relations with
//!   sign prefix-sums, tombstones for deletes) + an append buffer, with
//!   size-tiered compaction; [`delta::DeltaAccess`] / [`delta::DeltaCursor`] is
//!   the **union cursor** — a [`access::TrieAccess`] implementation that n-way
//!   merges the runs and suppresses tombstoned subtrees, so both engines run
//!   unmodified (and bit-identically to a full rebuild) over live data;
//! * [`cache`] — the access-structure cache: built tries and permuted delta
//!   views ([`delta::DeltaView`]) keyed by what they were built
//!   from (relation identity stamp, column permutation, structure kind) in a
//!   shared [`cache::AccessCache`] with a byte budget and cost-aware
//!   (GreedyDual-Size) eviction; delta entries revalidate against the live
//!   log's run ids and extend **incrementally** when only new sealed runs
//!   appeared since the cached build;
//! * [`wal`] — write-ahead logging for the ingest path: every delta mutation
//!   appends a length-prefixed, CRC32-checksummed [`wal::WalOp`] record to a
//!   per-database log with batch commit markers; [`wal::recover`] replays the
//!   committed-batch prefix and truncates any torn tail, and a deterministic
//!   [`wal::FaultPlan`] (env `WCOJ_FAULT`) injects fsync failures and torn
//!   writes for crash testing;
//! * [`typed`] / [`dictionary`] — the typed-value layer over the `u64` columns:
//!   [`Schema`]s carry per-attribute [`AttrType`]s, [`typed::TypedValue`] rows
//!   encode through per-domain [`Dictionary`]s (batch interning, single-storage
//!   `Arc<str>` tables, [`Dictionary::merge`] + [`Relation::remap_columns`] for
//!   unifying per-relation dictionaries), and [`typed::TypedRows`] decodes result
//!   relations back to typed rows — the join engines themselves never leave `u64`;
//! * [`stats::WorkCounter`] / [`stats::CursorWork`] — instrumentation counting
//!   comparisons, probes, and intermediate tuples so that tests and benchmarks can
//!   check the *work* bounds the paper proves, not just wall-clock time. Parallel
//!   workers' counters merge associatively;
//! * [`simd`] — the runtime-dispatched SIMD merge intersection (AVX2 / NEON
//!   with a scalar fallback, selected once at startup; `WCOJ_FORCE_SCALAR=1`
//!   pins the fallback). It is bit-identical to scalar in both output **and**
//!   recorded work: the merge kernel replays the scalar loop's comparison tally
//!   in closed form. Kernel-selection thresholds and the seek cutoff are
//!   constants, so recorded work baselines are machine-independent.
//!
//! # Quick example
//!
//! ```
//! use wcoj_storage::{Relation, Schema};
//!
//! let r = Relation::from_rows(
//!     Schema::new(&["A", "B"]),
//!     vec![vec![1, 2], vec![1, 3], vec![2, 3]],
//! );
//! assert_eq!(r.len(), 3);
//! let s = r.select_eq("A", 1).unwrap();
//! assert_eq!(s.len(), 2);
//! let p = r.project(&["B"]).unwrap();
//! assert_eq!(p.len(), 2); // {2, 3}
//! ```

// Unsafe is denied crate-wide and allowed back in exactly one leaf module:
// `simd` (target_feature intrinsics, each `unsafe fn` guarded by runtime
// feature detection).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod cache;
pub mod delta;
pub mod dictionary;
pub mod error;
pub mod kernels;
pub mod ops;
pub mod relation;
pub mod schema;
pub mod simd;
pub mod stats;
pub mod trie;
pub mod typed;
pub mod wal;

pub use access::{CursorKind, TrieAccess};
pub use cache::{next_stamp, AccessCache, CacheKey, CacheKind, CacheStats, CachedValue};
pub use delta::{DeltaAccess, DeltaCursor, DeltaRelation, DeltaView};
pub use dictionary::{DictReader, Dictionary};
pub use error::StorageError;
pub use kernels::{KernelCalibration, KernelKind, KernelPolicy};
pub use ops::{hash_join, intersect_sorted, merge_join, nested_loop_join};
pub use relation::{Relation, Tuple};
pub use schema::{AttrType, Schema};
pub use simd::SimdLevel;
pub use stats::{CursorWork, WorkCounter};
pub use trie::{Trie, TrieCursor};
pub use typed::{encode_column, TypedRow, TypedRows, TypedValue};
pub use wal::segmented::{
    gc_checkpoint, recover_dir, segment_bytes_from_env, write_checkpoint, Checkpoint, DirRecovery,
    GcReport, SegmentedWal, DEFAULT_SEGMENT_BYTES,
};
pub use wal::{FaultPlan, WalOp, WalReplay, WalWriter};

/// A dictionary-encoded attribute value.
///
/// All algorithms in the workspace operate on `u64` values; strings and other external
/// types are interned through [`Dictionary`]. This mirrors how production WCOJ engines
/// (LogicBlox, EmptyHeaded, Umbra) execute joins over dense dictionary codes.
pub type Value = u64;
