//! Incremental maintenance: delta-log relations with mergeable access structures.
//!
//! The static access path of this crate ([`crate::Trie`]) is built over an immutable, canonically sorted [`Relation`] — and
//! [`Relation::insert`] pays O(n) per tuple to keep that order. This module adds
//! the LSM-style storage layout that makes the engines' worst-case-optimal
//! guarantees usable over a *live, continuously-ingesting* database:
//!
//! * a [`DeltaRelation`] is a **base run + ordered delta runs** — each run an
//!   immutable, sorted, canonicalized mini-relation whose rows carry a sign
//!   (+1 insert, −1 **tombstone** for a delete) — plus an unsorted **append
//!   buffer** in arrival order;
//! * [`DeltaRelation::insert`] / [`DeltaRelation::delete`] append to the buffer
//!   after an O(arity)-expected liveness probe of an incrementally-maintained
//!   live-tuple hash index (which keeps each tuple's history an alternating +/−
//!   sequence — the invariant that makes signed counting exact — at the price
//!   of one extra copy of each live tuple); unary/binary tuples pack into
//!   `u128` keys, so the hot ingest path never allocates. When the buffer
//!   reaches the seal threshold it is **sealed**: collapsed into a new sorted
//!   run, followed by **size-tiered compaction** (adjacent runs of comparable
//!   size merge — linear two-pointer passes serially, or the parallel
//!   argsort-and-merge machinery of [`Relation::sort_perm_threads`] for large
//!   multi-threaded merges); [`DeltaRelation::compact`] merges everything back
//!   into a single tombstone-free base;
//! * query-side, [`DeltaAccess`] is the run set's **mergeable access
//!   structure**: per run, the columns permuted to the query's attribute order
//!   plus a prefix-sum array of the signs, so the signed tuple count under *any*
//!   prefix range is O(1). Its [`DeltaCursor`] implements [`crate::TrieAccess`] by
//!   n-way-merging the runs' sorted sibling groups **and suppressing values whose
//!   signed subtree count is zero** — so both Generic Join and Leapfrog Triejoin
//!   run unmodified over live data, bit-identical to a full rebuild. Merge work
//!   is attributed to the `delta_merge` tally of
//!   [`crate::CursorWork`]/[`crate::WorkCounter`].
//!
//! # Cost model
//!
//! | operation | full rebuild ([`Relation`]) | delta log |
//! | --- | --- | --- |
//! | single insert/delete | O(n) shift | O(arity) expected + amortized O(log B) seal sort |
//! | seal (per `B` buffered ops) | — | O(B log B) |
//! | compaction (amortized per op) | — | O(log(n/B)) linear merge touches |
//! | extra memory | — | live-tuple hash index (packed `u128`s for arity ≤ 2) |
//! | access-structure build | O(n log n) argsort | O(n log n) worst case, identity orders skip the sort per run |
//! | cursor `open` of a prefix | O(1)–O(log n) | O(runs · log n + merged group) and memoized per depth |
//! | query result | — | **bit-identical** to rebuilding from [`DeltaRelation::snapshot`] |
//!
//! The signed-count discipline (each live tuple contributes net +1 across its
//! history, each dead tuple net 0) is what lets the cursor decide liveness of an
//! *interior* trie value in O(runs) prefix-sum lookups instead of exploring the
//! subtree: a value extends the current prefix iff the summed signed count of
//! rows under prefix·value is positive.

use crate::error::StorageError;
use crate::relation::{argsort_columns_threads, Relation, Tuple};
use crate::schema::Schema;
use crate::stats::CursorWork;
use crate::Value;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// A column (or prefix-sum) slice inside an [`AccessRun`]: borrowed straight
/// from the log when the requested order is a run's native order, owned when
/// freshly permuted (or collapsed from the unsealed buffer), or shared with
/// the access-structure cache's [`DeltaView`]. `Deref` keeps the cursor code
/// oblivious to which.
#[derive(Debug, Clone)]
enum SliceRef<'a, T> {
    Borrowed(&'a [T]),
    Owned(Vec<T>),
    Shared(Arc<[T]>),
}

impl<T> std::ops::Deref for SliceRef<'_, T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match self {
            SliceRef::Borrowed(s) => s,
            SliceRef::Owned(v) => v,
            SliceRef::Shared(a) => a,
        }
    }
}

/// The multiply-rotate "FxHash" scheme (as in rustc's `FxHasher`) behind the
/// live-tuple set: the keys are internal dense dictionary codes, so SipHash's
/// DoS resistance buys nothing there, while its per-word cost dominates the
/// per-operation liveness probe.
#[derive(Debug, Default, Clone)]
struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        // two word-adds, not the default 16 byte-adds — the packed-tuple live
        // set hashes u128 keys on the hot ingest path
        self.add(n as u64);
        self.add((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// The live-tuple membership index: one entry per live tuple, maintained
/// incrementally by `insert`/`delete` (hashed with the in-tree [`FxHasher`];
/// the keys are dense codes). This is the LSM "memtable filter" that makes the
/// per-operation liveness check O(arity) expected instead of O(runs · log n)
/// binary searches — at the cost of one extra copy of each live tuple. Unary
/// and binary tuples (the streaming graph case) pack into `u128` keys, so the
/// hot ingest path neither allocates nor hashes a heap tuple.
#[derive(Debug, Clone)]
enum LiveSet {
    /// Arity ≤ 2: tuples packed as `(t[0] << 64) | t[1]` (resp. `t[0]`).
    Packed(std::collections::HashSet<u128, BuildHasherDefault<FxHasher>>),
    /// Arity ≥ 3: owned tuples.
    General(std::collections::HashSet<Tuple, BuildHasherDefault<FxHasher>>),
}

/// Pack an arity-≤-2 tuple into its order-preserving `u128` key.
#[inline]
fn pack2(tuple: &[Value]) -> u128 {
    match tuple {
        [a] => *a as u128,
        [a, b] => ((*a as u128) << 64) | *b as u128,
        _ => unreachable!("packed keys are for arity <= 2"),
    }
}

impl LiveSet {
    fn for_arity(arity: usize) -> LiveSet {
        if arity <= 2 {
            LiveSet::Packed(Default::default())
        } else {
            LiveSet::General(Default::default())
        }
    }

    fn len(&self) -> usize {
        match self {
            LiveSet::Packed(s) => s.len(),
            LiveSet::General(s) => s.len(),
        }
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn contains(&self, tuple: &[Value]) -> bool {
        match self {
            LiveSet::Packed(s) => s.contains(&pack2(tuple)),
            LiveSet::General(s) => s.contains(tuple),
        }
    }

    /// Returns whether the tuple was newly added.
    fn insert(&mut self, tuple: &[Value]) -> bool {
        match self {
            LiveSet::Packed(s) => s.insert(pack2(tuple)),
            LiveSet::General(s) => s.insert(tuple.to_vec()),
        }
    }

    /// Returns whether the tuple was present.
    fn remove(&mut self, tuple: &[Value]) -> bool {
        match self {
            LiveSet::Packed(s) => s.remove(&pack2(tuple)),
            LiveSet::General(s) => s.remove(tuple),
        }
    }

    fn reserve(&mut self, n: usize) {
        match self {
            LiveSet::Packed(s) => s.reserve(n),
            LiveSet::General(s) => s.reserve(n),
        }
    }
}

/// The append buffer: operations in arrival order, each a tuple plus its sign
/// (+1 insert, −1 tombstone). Like [`LiveSet`], unary/binary tuples are packed
/// into `u128`s so the hot ingest path performs no heap allocation at all.
#[derive(Debug, Clone)]
enum OpBuffer {
    /// Arity ≤ 2: `(packed tuple, sign)`.
    Packed(Vec<(u128, i64)>),
    /// Arity ≥ 3: `(owned tuple, sign)`.
    General(Vec<(Tuple, i64)>),
}

impl OpBuffer {
    fn for_arity(arity: usize) -> OpBuffer {
        if arity <= 2 {
            OpBuffer::Packed(Vec::new())
        } else {
            OpBuffer::General(Vec::new())
        }
    }

    fn len(&self) -> usize {
        match self {
            OpBuffer::Packed(v) => v.len(),
            OpBuffer::General(v) => v.len(),
        }
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn clear(&mut self) {
        match self {
            OpBuffer::Packed(v) => v.clear(),
            OpBuffer::General(v) => v.clear(),
        }
    }

    fn push(&mut self, tuple: &[Value], sign: i64) {
        match self {
            OpBuffer::Packed(v) => v.push((pack2(tuple), sign)),
            OpBuffer::General(v) => v.push((tuple.to_vec(), sign)),
        }
    }
}

/// Exclusive prefix sums of per-row signs: `cum[i]` = signed count of rows
/// `[0, i)` — the shared representation behind [`Run`] and [`AccessRun`].
fn cum_from(signs: impl Iterator<Item = i64>) -> Vec<i64> {
    let (lo, _) = signs.size_hint();
    let mut cum = Vec::with_capacity(lo + 1);
    let mut acc = 0i64;
    cum.push(acc);
    for s in signs {
        acc += s;
        cum.push(acc);
    }
    cum
}

/// Unpack an order-preserving `u128` key back into `arity` column values.
#[inline]
fn unpack2(key: u128, arity: usize, out: &mut [Vec<Value>]) {
    if arity == 1 {
        out[0].push(key as Value);
    } else {
        out[0].push((key >> 64) as Value);
        out[1].push(key as Value);
    }
}

/// Buffered operations before an automatic [`DeltaRelation::seal`].
pub const DEFAULT_SEAL_THRESHOLD: usize = 1024;

/// Size-tiering growth factor: a freshly sealed run merges into its predecessor
/// while the predecessor is smaller than `GROWTH` times the new run.
const GROWTH: usize = 2;

/// One immutable sorted run: a canonical ± mini-relation plus sign prefix sums.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Run {
    /// Process-unique identity stamp ([`crate::cache::next_stamp`]): runs are
    /// immutable, so equal ids imply identical content — what the
    /// access-structure cache's [`DeltaView`] revalidates against.
    id: u64,
    /// The run's rows: sorted, distinct tuples (each tuple occurs at most once
    /// per run, with its net sign).
    rel: Relation,
    /// `cum[i]` = signed count of rows `[0, i)`: +1 per insert row, −1 per
    /// tombstone. The signed count of any row range is one subtraction.
    cum: Vec<i64>,
}

impl Run {
    /// A run of pure inserts (the base-run shape).
    fn all_insert(rel: Relation) -> Run {
        let cum = (0..=rel.len() as i64).collect();
        Run {
            id: crate::cache::next_stamp(),
            rel,
            cum,
        }
    }

    /// Build a run from canonical columns plus per-row net signs.
    fn from_parts(schema: Schema, cols: Vec<Vec<Value>>, signs: &[i64]) -> Run {
        let rel = Relation::from_canonical_columns(schema, cols);
        debug_assert_eq!(rel.len(), signs.len());
        debug_assert!(signs.iter().all(|&s| s == 1 || s == -1));
        Run {
            id: crate::cache::next_stamp(),
            rel,
            cum: cum_from(signs.iter().copied()),
        }
    }

    fn len(&self) -> usize {
        self.rel.len()
    }

    /// The sign of row `i` (+1 insert, −1 tombstone).
    fn sign(&self, i: usize) -> i64 {
        self.cum[i + 1] - self.cum[i]
    }

    /// Number of tombstone rows.
    fn tombstones(&self) -> usize {
        let net = *self.cum.last().expect("cum is never empty");
        (self.len() as i64 - net) as usize / 2
    }
}

/// Sort the rows of column-major `cols` (with parallel `signs`) lexicographically
/// and collapse equal-tuple groups to their net sign, dropping net-zero groups.
/// Concatenated runs keep chronological order within a group (the argsort breaks
/// ties by row index), though the net sum does not depend on it. Returns
/// canonical (sorted, distinct) columns plus per-row net signs — always ±1 under
/// the alternating-history invariant.
fn collapse_signed(
    cols: &[Vec<Value>],
    signs: &[i64],
    threads: usize,
) -> (Vec<Vec<Value>>, Vec<i64>) {
    let len = signs.len();
    let positions: Vec<usize> = (0..cols.len()).collect();
    let perm = argsort_columns_threads(cols, &positions, len, threads);
    let mut out_cols: Vec<Vec<Value>> = vec![Vec::new(); cols.len()];
    let mut out_signs = Vec::new();
    let mut i = 0;
    while i < len {
        let a = perm[i];
        let mut net = signs[a];
        let mut j = i + 1;
        while j < len && cols.iter().all(|c| c[perm[j]] == c[a]) {
            net += signs[perm[j]];
            j += 1;
        }
        debug_assert!(
            (-1..=1).contains(&net),
            "a tuple's +/− history must alternate"
        );
        if net != 0 {
            for (col, src) in out_cols.iter_mut().zip(cols) {
                col.push(src[a]);
            }
            out_signs.push(net);
        }
        i = j;
    }
    (out_cols, out_signs)
}

/// Linear two-pointer merge of two sorted runs (`a` older, `b` newer): rows in
/// exactly one run pass through with their sign; rows in both annihilate to
/// their net (0 drops the tuple — under the alternating-history invariant the
/// signs are opposite). O(|a| + |b|), the serial tier-merge primitive.
fn merge_two(a: &Run, b: &Run) -> (Vec<Vec<Value>>, Vec<i64>) {
    use std::cmp::Ordering;
    let arity = a.rel.arity();
    if arity <= 2 {
        return merge_two_packed(a, b, arity);
    }
    let (an, bn) = (a.len(), b.len());
    let mut cols: Vec<Vec<Value>> = (0..arity).map(|_| Vec::with_capacity(an + bn)).collect();
    let mut signs: Vec<i64> = Vec::with_capacity(an + bn);
    let cmp = |i: usize, j: usize| -> Ordering {
        for c in 0..arity {
            match a.rel.column(c)[i].cmp(&b.rel.column(c)[j]) {
                Ordering::Equal => continue,
                o => return o,
            }
        }
        Ordering::Equal
    };
    let (mut i, mut j) = (0usize, 0usize);
    while i < an && j < bn {
        match cmp(i, j) {
            Ordering::Less => {
                for (c, col) in cols.iter_mut().enumerate() {
                    col.push(a.rel.column(c)[i]);
                }
                signs.push(a.sign(i));
                i += 1;
            }
            Ordering::Greater => {
                for (c, col) in cols.iter_mut().enumerate() {
                    col.push(b.rel.column(c)[j]);
                }
                signs.push(b.sign(j));
                j += 1;
            }
            Ordering::Equal => {
                let net = a.sign(i) + b.sign(j);
                debug_assert_eq!(net, 0, "a tuple's +/− history must alternate");
                if net != 0 {
                    for (c, col) in cols.iter_mut().enumerate() {
                        col.push(a.rel.column(c)[i]);
                    }
                    signs.push(net.signum());
                }
                i += 1;
                j += 1;
            }
        }
    }
    while i < an {
        for (c, col) in cols.iter_mut().enumerate() {
            col.push(a.rel.column(c)[i]);
        }
        signs.push(a.sign(i));
        i += 1;
    }
    while j < bn {
        for (c, col) in cols.iter_mut().enumerate() {
            col.push(b.rel.column(c)[j]);
        }
        signs.push(b.sign(j));
        j += 1;
    }
    (cols, signs)
}

/// [`merge_two`] over order-preserving packed `u128` keys — single-word
/// comparisons and pushes for the unary/binary (streaming graph) case; columns
/// are unpacked once at the end.
fn merge_two_packed(a: &Run, b: &Run, arity: usize) -> (Vec<Vec<Value>>, Vec<i64>) {
    let pack_run = |r: &Run| -> Vec<u128> {
        match arity {
            1 => r.rel.column(0).iter().map(|&v| v as u128).collect(),
            _ => r
                .rel
                .column(0)
                .iter()
                .zip(r.rel.column(1))
                .map(|(&x, &y)| ((x as u128) << 64) | y as u128)
                .collect(),
        }
    };
    let (ka, kb) = (pack_run(a), pack_run(b));
    let mut keys: Vec<u128> = Vec::with_capacity(ka.len() + kb.len());
    let mut signs: Vec<i64> = Vec::with_capacity(ka.len() + kb.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < ka.len() && j < kb.len() {
        if ka[i] < kb[j] {
            keys.push(ka[i]);
            signs.push(a.sign(i));
            i += 1;
        } else if ka[i] > kb[j] {
            keys.push(kb[j]);
            signs.push(b.sign(j));
            j += 1;
        } else {
            let net = a.sign(i) + b.sign(j);
            debug_assert_eq!(net, 0, "a tuple's +/− history must alternate");
            if net != 0 {
                keys.push(ka[i]);
                signs.push(net.signum());
            }
            i += 1;
            j += 1;
        }
    }
    keys.extend_from_slice(&ka[i..]);
    signs.extend((i..ka.len()).map(|k| a.sign(k)));
    keys.extend_from_slice(&kb[j..]);
    signs.extend((j..kb.len()).map(|k| b.sign(k)));
    let mut cols: Vec<Vec<Value>> = (0..arity).map(|_| Vec::with_capacity(keys.len())).collect();
    for &k in &keys {
        unpack2(k, arity, &mut cols);
    }
    (cols, signs)
}

/// A relation stored as a delta log: base run + ordered delta runs + append
/// buffer. See the [module docs](crate::delta) for the layout and cost model.
///
/// Runs are immutable and `Arc`-shared, and the live-tuple index is
/// copy-on-write, so **cloning is cheap**: O(runs) refcount bumps plus one
/// copy of the (threshold-bounded) append buffer. That is what MVCC snapshots
/// (`wcoj_query`'s `Database::snapshot`) pin — a clone freezes the
/// `(base, sealed-run-list, buffer)` state by refcount while the original
/// keeps ingesting; the first post-clone `insert`/`delete` pays a one-time
/// O(live) copy of the shared live-tuple index.
#[derive(Debug, Clone)]
pub struct DeltaRelation {
    schema: Schema,
    /// `runs[0]` is the oldest (the base after a [`DeltaRelation::compact`]);
    /// later runs are newer and shadow earlier ones via signed counting.
    /// `Arc`-shared: snapshot clones pin runs by refcount, never by copying.
    runs: Vec<Arc<Run>>,
    /// Unsealed operations in arrival order: (tuple, +1 insert / −1 tombstone).
    buffer: OpBuffer,
    /// Exactly the live tuples, maintained incrementally — O(1) liveness and
    /// the alternating-history guard, without per-op run searches.
    /// Copy-on-write (`Arc::make_mut`): queries never read it beyond `len()`,
    /// so snapshot clones share it until the writer's next mutation.
    live_set: Arc<LiveSet>,
    seal_threshold: usize,
    /// Modification epoch: a fresh process-unique stamp
    /// ([`crate::cache::next_stamp`]) on every mutation, so equal epochs imply
    /// identical visible state — the access-structure cache's fast-path
    /// freshness check (run-id matching is the authoritative one).
    epoch: u64,
}

impl DeltaRelation {
    /// An empty delta relation with the given schema. Panics on a zero-arity
    /// schema (use [`DeltaRelation::try_new`] for a fallible version).
    pub fn new(schema: Schema) -> Self {
        Self::try_new(schema).expect("delta relations need at least one column")
    }

    /// An empty delta relation with the given schema, rejecting zero-arity
    /// schemas with [`StorageError::EmptySchema`].
    pub fn try_new(schema: Schema) -> Result<Self, StorageError> {
        if schema.arity() == 0 {
            return Err(StorageError::EmptySchema);
        }
        let live_set = Arc::new(LiveSet::for_arity(schema.arity()));
        let buffer = OpBuffer::for_arity(schema.arity());
        Ok(DeltaRelation {
            schema,
            runs: Vec::new(),
            buffer,
            live_set,
            seal_threshold: DEFAULT_SEAL_THRESHOLD,
            epoch: crate::cache::next_stamp(),
        })
    }

    /// Wrap an existing relation as the base run of a new delta log. Panics on
    /// a zero-arity relation (use [`DeltaRelation::try_from_relation`]).
    pub fn from_relation(rel: Relation) -> Self {
        Self::try_from_relation(rel).expect("delta relations need at least one column")
    }

    /// Wrap an existing relation as the base run of a new delta log, rejecting
    /// zero-arity relations with [`StorageError::EmptySchema`].
    pub fn try_from_relation(rel: Relation) -> Result<Self, StorageError> {
        if rel.arity() == 0 {
            return Err(StorageError::EmptySchema);
        }
        let schema = rel.schema().clone();
        let mut live_set = LiveSet::for_arity(schema.arity());
        live_set.reserve(rel.len());
        for row in rel.iter() {
            live_set.insert(&row);
        }
        let runs = if rel.is_empty() {
            Vec::new()
        } else {
            vec![Arc::new(Run::all_insert(rel))]
        };
        let buffer = OpBuffer::for_arity(schema.arity());
        Ok(DeltaRelation {
            schema,
            runs,
            buffer,
            live_set: Arc::new(live_set),
            seal_threshold: DEFAULT_SEAL_THRESHOLD,
            epoch: crate::cache::next_stamp(),
        })
    }

    /// Take a fresh epoch stamp; called on every visible mutation (ingest,
    /// seal, tier merge). Over-stamping is harmless — a changed epoch only
    /// means cached views re-check run identity.
    fn touch(&mut self) {
        self.epoch = crate::cache::next_stamp();
    }

    /// The modification epoch: refreshed from the process-global stamp source
    /// on every mutation. Because stamps are process-unique, **equal epochs
    /// imply identical visible state**, even across clones of the log; an
    /// unequal epoch says nothing more than "re-examine" (see
    /// [`DeltaView::matches`] for the authoritative check).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The sealed runs' unique identity stamps, oldest first. Runs are
    /// immutable, so any cached structure recording these ids can revalidate
    /// exactly: same list = same sealed content; a proper prefix = only new
    /// runs were sealed since (the incremental-maintenance case); anything
    /// else = a structural rewrite (tier merge, compaction).
    pub fn run_ids(&self) -> Vec<u64> {
        self.runs.iter().map(|r| r.id).collect()
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Arity (number of attributes).
    pub fn arity(&self) -> usize {
        self.schema.arity()
    }

    /// Number of **live** tuples (inserts minus effective deletes).
    pub fn len(&self) -> usize {
        self.live_set.len()
    }

    /// Whether no tuple is live.
    pub fn is_empty(&self) -> bool {
        self.live_set.is_empty()
    }

    /// Number of sealed runs (the delta depth the union cursor merges over).
    pub fn num_runs(&self) -> usize {
        self.runs.len()
    }

    /// Sizes of the sealed runs, oldest first.
    pub fn run_sizes(&self) -> Vec<usize> {
        self.runs.iter().map(|r| r.len()).collect()
    }

    /// Number of buffered (unsealed) operations.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Total tombstone rows across the sealed runs.
    pub fn tombstones(&self) -> usize {
        self.runs.iter().map(|r| r.tombstones()).sum()
    }

    /// Override the automatic seal threshold (buffered operations before
    /// [`DeltaRelation::seal`] runs implicitly). Lower values mean more, smaller
    /// runs — useful for testing deep run stacks.
    pub fn set_seal_threshold(&mut self, threshold: usize) {
        self.seal_threshold = threshold.max(1);
    }

    /// Pre-size the live-tuple index for `n` expected live tuples (avoids
    /// rehash pauses during bulk ingest).
    pub fn reserve(&mut self, n: usize) {
        Arc::make_mut(&mut self.live_set).reserve(n);
    }

    /// Whether `tuple` is currently live. O(arity) expected — one probe of the
    /// live-tuple membership index.
    pub fn is_live(&self, tuple: &[Value]) -> bool {
        tuple.len() == self.arity() && self.live_set.contains(tuple)
    }

    fn check_arity(&self, found: usize) -> Result<(), StorageError> {
        if found != self.arity() {
            return Err(StorageError::ArityMismatch {
                expected: self.arity(),
                found,
            });
        }
        Ok(())
    }

    /// Insert a tuple. Returns whether it was newly inserted (`false` if already
    /// live). Amortized O(arity) expected per call: one membership-index update
    /// plus a buffer append, with each operation's share of the seal sort
    /// (O(log B)) and its O(log(n/B)) lifetime tier merges. For unary/binary
    /// relations the whole path is allocation-free (see [`DeltaRelation::insert_ref`]).
    pub fn insert(&mut self, tuple: Tuple) -> Result<bool, StorageError> {
        self.insert_ref(&tuple)
    }

    /// [`DeltaRelation::insert`] from a borrowed tuple — the zero-copy ingest
    /// entry: for arity ≤ 2 the tuple is packed into integer keys and never
    /// heap-allocated.
    pub fn insert_ref(&mut self, tuple: &[Value]) -> Result<bool, StorageError> {
        self.check_arity(tuple.len())?;
        if Arc::strong_count(&self.live_set) > 1 && self.live_set.contains(tuple) {
            return Ok(false); // no-op while snapshot-shared: skip the copy-on-write
        }
        if !Arc::make_mut(&mut self.live_set).insert(tuple) {
            return Ok(false); // already live: blind re-insert is a no-op
        }
        self.buffer.push(tuple, 1);
        self.touch();
        self.maybe_seal();
        Ok(true)
    }

    /// Delete a tuple (a tombstone append). Returns whether it was live. Same
    /// amortized cost as [`DeltaRelation::insert`].
    pub fn delete(&mut self, tuple: &[Value]) -> Result<bool, StorageError> {
        self.check_arity(tuple.len())?;
        if Arc::strong_count(&self.live_set) > 1 && !self.live_set.contains(tuple) {
            return Ok(false); // no-op while snapshot-shared: skip the copy-on-write
        }
        if !Arc::make_mut(&mut self.live_set).remove(tuple) {
            return Ok(false); // not live: blind delete is a no-op
        }
        self.buffer.push(tuple, -1);
        self.touch();
        self.maybe_seal();
        Ok(true)
    }

    fn maybe_seal(&mut self) {
        if self.buffer.len() >= self.seal_threshold {
            self.seal();
        }
    }

    /// Collapse the buffered operations (arrival order) into canonical columns
    /// plus net signs — the seal sort. Unary/binary tuples (the streaming graph
    /// case) sort as packed integers with no heap access at all; wider tuples
    /// take the generic lexicographic path. (Order within an equal-tuple group
    /// does not matter: only the net sign is kept.)
    fn buffer_parts(&self) -> (Vec<Vec<Value>>, Vec<i64>) {
        let arity = self.arity();
        let mut cols: Vec<Vec<Value>> = vec![Vec::new(); arity];
        let mut signs = Vec::new();
        match &self.buffer {
            OpBuffer::Packed(ops) => {
                let mut keyed = ops.clone();
                keyed.sort_unstable_by_key(|&(k, _)| k);
                let n = keyed.len();
                let mut i = 0;
                while i < n {
                    let (key, mut net) = keyed[i];
                    let mut j = i + 1;
                    while j < n && keyed[j].0 == key {
                        net += keyed[j].1;
                        j += 1;
                    }
                    debug_assert!(
                        (-1..=1).contains(&net),
                        "a tuple's +/− history must alternate"
                    );
                    if net != 0 {
                        unpack2(key, arity, &mut cols);
                        signs.push(net);
                    }
                    i = j;
                }
            }
            OpBuffer::General(ops) => {
                let n = ops.len();
                let mut order: Vec<u32> = (0..n as u32).collect();
                order.sort_unstable_by(|&a, &b| ops[a as usize].0.cmp(&ops[b as usize].0));
                let mut i = 0;
                while i < n {
                    let a = order[i] as usize;
                    let mut net = ops[a].1;
                    let mut j = i + 1;
                    while j < n && ops[order[j] as usize].0 == ops[a].0 {
                        net += ops[order[j] as usize].1;
                        j += 1;
                    }
                    debug_assert!(
                        (-1..=1).contains(&net),
                        "a tuple's +/− history must alternate"
                    );
                    if net != 0 {
                        for (c, col) in cols.iter_mut().enumerate() {
                            col.push(ops[a].0[c]);
                        }
                        signs.push(net);
                    }
                    i = j;
                }
            }
        }
        (cols, signs)
    }

    /// Seal the append buffer into a new sorted run, then apply size-tiered
    /// compaction: while the previous run is smaller than twice the newest, the
    /// two merge (annihilating matched insert/tombstone pairs).
    ///
    /// Sealing an **empty** buffer is a complete no-op: no run is pushed, the
    /// epoch is not bumped, and — because the run list is untouched — cached
    /// [`DeltaView`]s stay valid (no spurious invalidation). The tiering
    /// invariant is re-established by the seals that actually add runs.
    pub fn seal(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        let (cols, signs) = self.buffer_parts();
        self.buffer.clear();
        self.touch();
        if !signs.is_empty() {
            self.runs
                .push(Arc::new(Run::from_parts(self.schema.clone(), cols, &signs)));
        }
        while self.runs.len() >= 2
            && self.runs[self.runs.len() - 2].len() < GROWTH * self.runs[self.runs.len() - 1].len()
        {
            self.merge_tail(self.runs.len() - 2, 1);
        }
    }

    /// Serialize the log's full state — run partitioning, per-row signs,
    /// unsealed buffer (arrival order), seal threshold — as an opaque blob for
    /// a WAL checkpoint. [`DeltaRelation::decode_state`] reconstructs a log
    /// that is **bit-exact** for recovery: same run sizes, same tombstones,
    /// same buffered ops, so replaying the same WAL tail yields the same seal
    /// and tier-merge decisions as the original process would have made.
    /// (Run ids and the epoch are process-local identities and are *not*
    /// persisted; decode mints fresh ones.)
    pub fn encode_state(&self) -> Vec<u8> {
        let arity = self.arity();
        let mut out = Vec::new();
        out.extend_from_slice(&(self.seal_threshold as u64).to_le_bytes());
        out.extend_from_slice(&(self.runs.len() as u32).to_le_bytes());
        for run in &self.runs {
            let rows = run.len();
            out.extend_from_slice(&(rows as u64).to_le_bytes());
            for c in 0..arity {
                for &v in run.rel.column(c) {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            for i in 0..rows {
                out.push(if run.sign(i) == 1 { 1 } else { 0 });
            }
        }
        out.extend_from_slice(&(self.buffer.len() as u64).to_le_bytes());
        let mut push_op = |tuple: &[Value], sign: i64| {
            out.push(if sign == 1 { 1 } else { 0 });
            for &v in tuple {
                out.extend_from_slice(&v.to_le_bytes());
            }
        };
        match &self.buffer {
            OpBuffer::Packed(ops) => {
                let mut cols: Vec<Vec<Value>> = vec![Vec::new(); arity];
                for &(key, sign) in ops {
                    cols.iter_mut().for_each(|c| c.clear());
                    unpack2(key, arity, &mut cols);
                    let tuple: Vec<Value> = cols.iter().map(|c| c[0]).collect();
                    push_op(&tuple, sign);
                }
            }
            OpBuffer::General(ops) => {
                for (tuple, sign) in ops {
                    push_op(tuple, *sign);
                }
            }
        }
        out
    }

    /// Reconstruct a delta log from [`DeltaRelation::encode_state`] bytes. The
    /// live-tuple index is rebuilt by replaying the runs (oldest first) and
    /// then the buffer in arrival order — tombstones in newer runs cancel
    /// inserts in older ones exactly as they did live. Fails with
    /// [`StorageError::WalCorrupt`] on any truncation or malformed content
    /// (a CRC-valid checkpoint should never produce this; it guards against
    /// version skew).
    pub fn decode_state(schema: Schema, bytes: &[u8]) -> Result<DeltaRelation, StorageError> {
        let corrupt = |pos: usize, reason: &str| StorageError::WalCorrupt {
            offset: pos as u64,
            reason: format!("delta state: {reason}"),
        };
        let arity = schema.arity();
        let mut log = DeltaRelation::try_new(schema)?;
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], StorageError> {
            if bytes.len() - *pos < n {
                return Err(corrupt(*pos, "truncated"));
            }
            let s = &bytes[*pos..*pos + n];
            *pos += n;
            Ok(s)
        };
        let take_u64 = |pos: &mut usize| -> Result<u64, StorageError> {
            Ok(u64::from_le_bytes(take(pos, 8)?.try_into().expect("len 8")))
        };
        log.seal_threshold = (take_u64(&mut pos)? as usize).max(1);
        let num_runs = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("len 4"));
        let mut live = LiveSet::for_arity(arity);
        for _ in 0..num_runs {
            let rows = take_u64(&mut pos)? as usize;
            let mut cols: Vec<Vec<Value>> = Vec::with_capacity(arity);
            for _ in 0..arity {
                let raw = take(&mut pos, rows * 8)?;
                cols.push(
                    raw.chunks_exact(8)
                        .map(|c| Value::from_le_bytes(c.try_into().expect("len 8")))
                        .collect(),
                );
            }
            let sign_bytes = take(&mut pos, rows)?;
            let signs: Vec<i64> = sign_bytes
                .iter()
                .map(|&b| if b == 1 { 1 } else { -1 })
                .collect();
            let run = Run::from_parts(log.schema.clone(), cols, &signs);
            let mut row = Vec::with_capacity(arity);
            for i in 0..rows {
                row.clear();
                for c in 0..arity {
                    row.push(run.rel.column(c)[i]);
                }
                if run.sign(i) == 1 {
                    live.insert(&row);
                } else if !live.remove(&row) {
                    return Err(corrupt(pos, "tombstone for a tuple that is not live"));
                }
            }
            log.runs.push(Arc::new(run));
        }
        let buffered = take_u64(&mut pos)? as usize;
        for _ in 0..buffered {
            let sign: i64 = if take(&mut pos, 1)?[0] == 1 { 1 } else { -1 };
            let raw = take(&mut pos, arity * 8)?;
            let tuple: Vec<Value> = raw
                .chunks_exact(8)
                .map(|c| Value::from_le_bytes(c.try_into().expect("len 8")))
                .collect();
            if sign == 1 {
                if !live.insert(&tuple) {
                    return Err(corrupt(pos, "buffered insert of a live tuple"));
                }
            } else if !live.remove(&tuple) {
                return Err(corrupt(pos, "buffered delete of a dead tuple"));
            }
            log.buffer.push(&tuple, sign);
        }
        if pos != bytes.len() {
            return Err(corrupt(pos, "trailing garbage"));
        }
        log.live_set = Arc::new(live);
        Ok(log)
    }

    /// Merge `runs[start..]` into one run (signed annihilation); when `start ==
    /// 0` the result is the new base and must carry no tombstones.
    ///
    /// Serial merges run as pairwise linear two-pointer passes over the sorted
    /// runs (newest pair first — the cheapest order under tiered sizes); with
    /// `threads > 1` and enough rows, the runs are concatenated and re-collapsed
    /// through the parallel argsort-and-merge machinery of
    /// [`Relation::sort_perm_threads`] instead. Both paths produce identical
    /// runs (net signs are associative over a tuple's alternating history).
    fn merge_tail(&mut self, start: usize, threads: usize) {
        const PAR_MERGE_MIN: usize = 4096;
        if self.runs.len() - start < 2 {
            return;
        }
        self.touch();
        let total: usize = self.runs[start..].iter().map(|r| r.len()).sum();
        if threads > 1 && total >= PAR_MERGE_MIN {
            let arity = self.arity();
            let mut cols: Vec<Vec<Value>> = (0..arity).map(|_| Vec::with_capacity(total)).collect();
            let mut signs = Vec::with_capacity(total);
            for run in &self.runs[start..] {
                for (col, src) in cols.iter_mut().zip(run.rel.columns()) {
                    col.extend_from_slice(src);
                }
                signs.extend((0..run.len()).map(|i| run.sign(i)));
            }
            let (cols, signs) = collapse_signed(&cols, &signs, threads);
            self.runs.truncate(start);
            if !signs.is_empty() {
                self.runs
                    .push(Arc::new(Run::from_parts(self.schema.clone(), cols, &signs)));
            }
        } else {
            while self.runs.len() - start >= 2 {
                let b = self.runs.pop().expect("len checked");
                let a = self.runs.pop().expect("len checked");
                let (cols, signs) = merge_two(&a, &b);
                if !signs.is_empty() {
                    self.runs
                        .push(Arc::new(Run::from_parts(self.schema.clone(), cols, &signs)));
                }
            }
        }
        debug_assert!(
            start > 0
                || self
                    .runs
                    .get(start)
                    .is_none_or(|r| (0..r.len()).all(|i| r.sign(i) > 0)),
            "a merged base cannot carry tombstones"
        );
    }

    /// One compaction step: merge the two **newest** runs. Returns `false` when
    /// fewer than two sealed runs exist (nothing to do).
    pub fn compact_step(&mut self, threads: usize) -> bool {
        if self.runs.len() < 2 {
            return false;
        }
        let start = self.runs.len() - 2;
        self.merge_tail(start, threads);
        true
    }

    /// Full compaction: seal the buffer, then merge every run into a single
    /// tombstone-free base, using `threads` scoped workers for the argsort-and-
    /// merge passes (the [`Relation::sort_perm_threads`] machinery).
    pub fn compact(&mut self, threads: usize) {
        self.seal();
        self.merge_tail(0, threads);
    }

    /// Materialize the live tuples as a canonical [`Relation`] — the "full
    /// rebuild" the union cursor is differential-tested against. Does not mutate
    /// the log (the buffer is collapsed into a temporary copy).
    pub fn snapshot(&self) -> Relation {
        let arity = self.arity();
        let total: usize = self.runs.iter().map(|r| r.len()).sum::<usize>() + self.buffer.len();
        let mut cols: Vec<Vec<Value>> = (0..arity).map(|_| Vec::with_capacity(total)).collect();
        let mut signs = Vec::with_capacity(total);
        for run in &self.runs {
            for (col, src) in cols.iter_mut().zip(run.rel.columns()) {
                col.extend_from_slice(src);
            }
            signs.extend((0..run.len()).map(|i| run.sign(i)));
        }
        let (bcols, bsigns) = self.buffer_parts();
        for (col, src) in cols.iter_mut().zip(&bcols) {
            col.extend_from_slice(src);
        }
        signs.extend_from_slice(&bsigns);
        let (cols, signs) = collapse_signed(&cols, &signs, 1);
        debug_assert!(
            signs.iter().all(|&s| s > 0),
            "full-history nets are 0 or +1"
        );
        Relation::from_canonical_columns(self.schema.clone(), cols)
    }
}

/// Check that `positions` is a permutation of `0..arity`; returns whether it
/// is the identity (the native-order short-circuit: runs are already sorted
/// and prefix-summed in that order, so nothing needs permuting — or caching).
fn validate_positions(arity: usize, positions: &[usize]) -> Result<bool, StorageError> {
    if positions.len() != arity {
        return Err(StorageError::ArityMismatch {
            expected: arity,
            found: positions.len(),
        });
    }
    let mut seen = vec![false; arity];
    for &p in positions {
        if p >= arity || seen[p] {
            return Err(StorageError::DuplicateAttribute(format!("column {p}")));
        }
        seen[p] = true;
    }
    Ok(positions.iter().enumerate().all(|(i, &p)| i == p))
}

/// One run's view inside a [`DeltaAccess`]: columns permuted to the requested
/// attribute order, rows re-sorted in that order, plus the permuted sign
/// prefix sums. For the run's native order both columns **and** prefix sums
/// are borrowed straight from the log — zero per-query work; cache hits hand
/// out [`SliceRef::Shared`] slices instead.
#[derive(Debug, Clone)]
struct AccessRun<'a> {
    cols: Vec<SliceRef<'a, Value>>,
    cum: SliceRef<'a, i64>,
}

impl AccessRun<'_> {
    fn len(&self) -> usize {
        self.cum.len() - 1
    }

    fn signed_count(&self, lo: usize, hi: usize) -> i64 {
        self.cum[hi] - self.cum[lo]
    }
}

/// The mergeable access structure over a [`DeltaRelation`]'s runs for one
/// attribute order: what a [`crate::Trie`] is to a static
/// [`Relation`], this is to a delta log — except construction only re-sorts runs
/// whose native order differs from the requested one, and a still-unsealed
/// buffer is collapsed into an ephemeral extra run without mutating the log.
/// Obtain cursors with [`DeltaAccess::cursor`].
#[derive(Debug, Clone)]
pub struct DeltaAccess<'a> {
    arity: usize,
    runs: Vec<AccessRun<'a>>,
}

impl<'a> DeltaAccess<'a> {
    /// Build the access structure with the attribute order given as **column
    /// positions** (a permutation of `0..arity`); `threads` parallelizes the
    /// per-run argsorts. This is the entry the execution layer uses, where atom
    /// variables map to stored columns positionally.
    pub fn build_positions(
        delta: &'a DeltaRelation,
        positions: &[usize],
        threads: usize,
    ) -> Result<Self, StorageError> {
        let arity = delta.arity();
        let identity = validate_positions(arity, positions)?;
        let mut runs: Vec<AccessRun<'a>> = Vec::with_capacity(delta.runs.len() + 1);
        for run in &delta.runs {
            runs.push(Self::run_view(run, positions, identity, threads));
        }
        if !delta.buffer.is_empty() {
            // collapse a copy of the unsealed buffer into an ephemeral owned
            // run; the log itself stays untouched (queries take `&DeltaRelation`)
            let (cols, signs) = delta.buffer_parts();
            if !signs.is_empty() {
                runs.push(Self::owned_view(cols, &signs, positions, identity));
            }
        }
        Ok(DeltaAccess { arity, runs })
    }

    /// [`DeltaAccess::build_positions`] with the order given by attribute names.
    pub fn build(
        delta: &'a DeltaRelation,
        attr_order: &[&str],
        threads: usize,
    ) -> Result<Self, StorageError> {
        if attr_order.len() != delta.arity() {
            return Err(StorageError::ArityMismatch {
                expected: delta.arity(),
                found: attr_order.len(),
            });
        }
        let mut positions = Vec::with_capacity(attr_order.len());
        for attr in attr_order {
            positions.push(delta.schema.require(attr)?);
        }
        Self::build_positions(delta, &positions, threads)
    }

    /// An [`AccessRun`] over owned (ephemeral) columns + signs — the unsealed
    /// buffer's collapsed view, which cannot borrow from the log.
    fn owned_view(
        cols: Vec<Vec<Value>>,
        signs: &[i64],
        positions: &[usize],
        identity: bool,
    ) -> AccessRun<'static> {
        if identity {
            return AccessRun {
                cum: SliceRef::Owned(cum_from(signs.iter().copied())),
                cols: cols.into_iter().map(SliceRef::Owned).collect(),
            };
        }
        let len = signs.len();
        let perm = crate::relation::argsort_columns(&cols, positions, len);
        let permuted: Vec<SliceRef<'static, Value>> = positions
            .iter()
            .map(|&p| SliceRef::Owned(perm.iter().map(|&i| cols[p][i]).collect::<Vec<Value>>()))
            .collect();
        AccessRun {
            cum: SliceRef::Owned(cum_from(perm.iter().map(|&i| signs[i]))),
            cols: permuted,
        }
    }

    /// Re-sort one sealed run's rows into the order given by `positions`,
    /// returning the permuted columns and sign prefix sums. Shared by the
    /// borrowing build path and [`DeltaView`]'s cacheable (Arc-backed) builds.
    fn permuted_parts(
        run: &Run,
        positions: &[usize],
        threads: usize,
    ) -> (Vec<Vec<Value>>, Vec<i64>) {
        let perm = run.rel.sort_perm_threads(positions, threads);
        let cols = positions
            .iter()
            .map(|&p| {
                let src = run.rel.column(p);
                perm.iter().map(|&i| src[i]).collect::<Vec<Value>>()
            })
            .collect();
        let cum = cum_from(perm.iter().map(|&i| run.sign(i)));
        (cols, cum)
    }

    fn run_view<'r>(
        run: &'r Run,
        positions: &[usize],
        identity: bool,
        threads: usize,
    ) -> AccessRun<'r> {
        if identity {
            // native order: the run is already sorted and prefix-summed this
            // way — borrow both, permute (and allocate) nothing
            return AccessRun {
                cols: run
                    .rel
                    .columns()
                    .iter()
                    .map(|c| SliceRef::Borrowed(c.as_slice()))
                    .collect(),
                cum: SliceRef::Borrowed(&run.cum),
            };
        }
        let (cols, cum) = Self::permuted_parts(run, positions, threads);
        AccessRun {
            cols: cols.into_iter().map(SliceRef::Owned).collect(),
            cum: SliceRef::Owned(cum),
        }
    }

    /// Rehydrate a cached [`DeltaView`] into a queryable access structure: the
    /// sealed-run columns are shared (`Arc` clones, no copying), and the live
    /// unsealed buffer — never cached — is collapsed into an ephemeral owned
    /// run exactly as [`DeltaAccess::build_positions`] does. The caller must
    /// have revalidated `view` against `delta` (see [`DeltaView::matches`] /
    /// [`DeltaView::extend`]); run order is preserved, so the result is
    /// bit-identical to an uncached build.
    pub fn from_view(view: &DeltaView, delta: &DeltaRelation) -> DeltaAccess<'static> {
        debug_assert!(view.matches(delta), "view must be revalidated before use");
        let identity = view.positions.iter().enumerate().all(|(i, &p)| i == p);
        let mut runs: Vec<AccessRun<'static>> = view
            .runs
            .iter()
            .map(|r| AccessRun {
                cols: r
                    .cols
                    .iter()
                    .map(|c| SliceRef::Shared(Arc::clone(c)))
                    .collect(),
                cum: SliceRef::Shared(Arc::clone(&r.cum)),
            })
            .collect();
        if !delta.buffer.is_empty() {
            let (cols, signs) = delta.buffer_parts();
            if !signs.is_empty() {
                runs.push(Self::owned_view(cols, &signs, &view.positions, identity));
            }
        }
        DeltaAccess {
            arity: delta.arity(),
            runs,
        }
    }

    /// Number of levels (the relation's arity).
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// A [`DeltaCursor`] positioned at the root.
    pub fn cursor(&self) -> DeltaCursor<'_> {
        DeltaCursor {
            access: self,
            frames: Vec::new(),
            memo: vec![None; self.arity],
            prefix_buf: Vec::with_capacity(self.arity),
            work: CursorWork::default(),
        }
    }
}

/// One sealed run's permuted columns and sign prefix sums, `Arc`-backed so a
/// cached view, its incremental extensions, and every in-flight query share
/// the same allocations.
#[derive(Debug, Clone)]
struct ViewRun {
    cols: Vec<Arc<[Value]>>,
    cum: Arc<[i64]>,
}

/// A cacheable permuted view of a [`DeltaRelation`]'s **sealed** runs for one
/// attribute order — the owned counterpart of the borrowing [`DeltaAccess`],
/// and the delta payload of [`crate::AccessCache`]. The view records the
/// identity stamps of the runs it was built over ([`DeltaRelation::run_ids`]),
/// so freshness is decidable exactly: [`DeltaView::matches`] accepts when the
/// live run list is identical, and [`DeltaView::extend`] handles the
/// incremental-maintenance case — only new sealed runs appended — by permuting
/// *just those runs* and sharing everything already built. Anything else
/// (tier merge, compaction, relation replacement) is a rebuild. The unsealed
/// append buffer is deliberately absent: [`DeltaAccess::from_view`] collapses
/// it per query, exactly like an uncached build.
#[derive(Debug, Clone)]
pub struct DeltaView {
    positions: Vec<usize>,
    run_ids: Vec<u64>,
    runs: Vec<ViewRun>,
}

impl DeltaView {
    /// Build a view of `delta`'s sealed runs in the order given by column
    /// `positions` (a permutation of `0..arity`); `threads` parallelizes the
    /// per-run argsorts, with bit-identical results to serial.
    pub fn build(
        delta: &DeltaRelation,
        positions: &[usize],
        threads: usize,
    ) -> Result<DeltaView, StorageError> {
        let identity = validate_positions(delta.arity(), positions)?;
        Ok(DeltaView {
            positions: positions.to_vec(),
            run_ids: delta.run_ids(),
            runs: delta
                .runs
                .iter()
                .map(|r| Self::view_run(r, positions, identity, threads))
                .collect(),
        })
    }

    fn view_run(run: &Run, positions: &[usize], identity: bool, threads: usize) -> ViewRun {
        if identity {
            // native order still copies once into the shared allocation: a
            // cached view may not borrow from (and thereby pin) the log —
            // which is why identity orders skip the cache entirely
            return ViewRun {
                cols: run
                    .rel
                    .columns()
                    .iter()
                    .map(|c| Arc::from(c.as_slice()))
                    .collect(),
                cum: Arc::from(run.cum.as_slice()),
            };
        }
        let (cols, cum) = DeltaAccess::permuted_parts(run, positions, threads);
        ViewRun {
            cols: cols
                .into_iter()
                .map(|c| Arc::from(c.into_boxed_slice()))
                .collect(),
            cum: Arc::from(cum.into_boxed_slice()),
        }
    }

    /// Whether the view covers exactly `delta`'s current sealed runs (the
    /// authoritative freshness check — run ids are process-unique and runs
    /// immutable, so a match guarantees identical sealed content).
    pub fn matches(&self, delta: &DeltaRelation) -> bool {
        self.run_ids.len() == delta.runs.len()
            && self
                .run_ids
                .iter()
                .zip(&delta.runs)
                .all(|(id, r)| *id == r.id)
    }

    /// The incremental-maintenance path: when `delta`'s run list **extends**
    /// this view's (same runs, plus newly sealed ones appended), return a new
    /// view that shares every already-permuted run and permutes only the new
    /// tail. `None` means the run list diverged (tier merge, compaction,
    /// replacement) and the caller must rebuild.
    pub fn extend(&self, delta: &DeltaRelation, threads: usize) -> Option<DeltaView> {
        if delta.runs.len() <= self.run_ids.len()
            || !self
                .run_ids
                .iter()
                .zip(&delta.runs)
                .all(|(id, r)| *id == r.id)
        {
            return None;
        }
        let identity = self.positions.iter().enumerate().all(|(i, &p)| i == p);
        let mut run_ids = self.run_ids.clone();
        let mut runs = self.runs.clone();
        for run in &delta.runs[self.run_ids.len()..] {
            run_ids.push(run.id);
            runs.push(Self::view_run(run, &self.positions, identity, threads));
        }
        Some(DeltaView {
            positions: self.positions.clone(),
            run_ids,
            runs,
        })
    }

    /// The column positions the view was built over.
    pub fn positions(&self) -> &[usize] {
        &self.positions
    }

    /// Number of sealed runs covered.
    pub fn num_runs(&self) -> usize {
        self.runs.len()
    }

    /// Total rows across the covered runs — the rebuild-cost proxy used for
    /// cache eviction priorities.
    pub fn num_rows(&self) -> usize {
        self.runs
            .iter()
            .map(|r| r.cum.len().saturating_sub(1))
            .sum()
    }

    /// Approximate heap footprint in bytes — the cache's budget accounting.
    pub fn heap_bytes(&self) -> usize {
        let runs: usize = self
            .runs
            .iter()
            .map(|r| {
                r.cols
                    .iter()
                    .map(|c| std::mem::size_of_val(&c[..]))
                    .sum::<usize>()
                    + std::mem::size_of_val(&r.cum[..])
            })
            .sum();
        runs + self.positions.len() * std::mem::size_of::<usize>()
            + self.run_ids.len() * std::mem::size_of::<u64>()
    }
}

/// A merged (tombstone-suppressed) sibling group: the sorted live values
/// extending one prefix, plus the per-run row ranges matching that prefix (the
/// input the next-deeper merge narrows). Shared via `Arc` so memo hits and
/// cursor clones cost a refcount, not a copy.
#[derive(Debug)]
struct MergedGroup {
    values: Vec<Value>,
    /// Per-run `(lo, hi)` row ranges of the rows matching the group's prefix.
    ranges: Vec<(usize, usize)>,
}

#[derive(Debug, Clone)]
struct DeltaFrame {
    group: Arc<MergedGroup>,
    pos: usize,
}

/// One-entry memo per depth: the last prefix merged there, its group, and the
/// merge work that was charged — hits re-charge the same work so the tallies
/// stay a pure function of the visited values (scheduling-independent).
#[derive(Debug, Clone)]
struct DeltaMemo {
    prefix: Vec<Value>,
    group: Arc<MergedGroup>,
    merge_steps: u64,
}

/// A [`crate::TrieAccess`] cursor over a [`DeltaAccess`] — the **union cursor**: each
/// `open` materializes the merged sibling group of the current prefix by an
/// n-way sorted merge over the runs' ranges, keeping a value iff its signed
/// subtree count is positive. The root group's merge is uncounted (it is
/// computed once per run and amortized, like the root group of a
/// [`crate::TrieCursor`]); deeper merges charge `delta_merge` work that
/// depends only on the prefix, which is what keeps parallel merged counters
/// bit-identical to serial execution.
#[derive(Debug, Clone)]
pub struct DeltaCursor<'a> {
    access: &'a DeltaAccess<'a>,
    frames: Vec<DeltaFrame>,
    memo: Vec<Option<DeltaMemo>>,
    /// Reused per-`open` prefix assembly buffer: memo hits — the common
    /// case — never allocate.
    prefix_buf: Vec<Value>,
    work: CursorWork,
}

impl DeltaCursor<'_> {
    /// Merge the runs' groups for the prefix whose per-run ranges (at `depth`)
    /// are given, returning the live values and counting merge steps.
    fn merge_group(&self, depth: usize, ranges: &[(usize, usize)]) -> (Vec<Value>, u64) {
        let mut steps = 0u64;
        let mut values = Vec::new();
        // per-run head position within its range
        let mut heads: Vec<usize> = ranges.iter().map(|&(lo, _)| lo).collect();
        loop {
            let mut min: Option<Value> = None;
            for (r, run) in self.access.runs.iter().enumerate() {
                if heads[r] < ranges[r].1 {
                    let v = run.cols[depth][heads[r]];
                    min = Some(min.map_or(v, |m: Value| m.min(v)));
                }
            }
            let Some(v) = min else { break };
            let mut net = 0i64;
            for (r, run) in self.access.runs.iter().enumerate() {
                let (_, hi) = ranges[r];
                let pos = heads[r];
                if pos >= hi || run.cols[depth][pos] != v {
                    continue;
                }
                let end = if v == Value::MAX {
                    hi // sorted tail ≥ MAX is all MAX
                } else {
                    let (end, probes) = crate::ops::gallop_lub(&run.cols[depth], pos, hi, v + 1);
                    steps += probes;
                    end
                };
                net += run.signed_count(pos, end);
                heads[r] = end;
                steps += 1;
            }
            if net > 0 {
                values.push(v);
            }
        }
        (values, steps)
    }

    /// Narrow the parent's per-run ranges to the rows whose `depth − 1` column
    /// equals `v` (the parent's current key), counting one step per run probed.
    fn narrow(&self, depth: usize, parent: &MergedGroup, v: Value) -> (Vec<(usize, usize)>, u64) {
        let mut steps = 0u64;
        let mut ranges = Vec::with_capacity(self.access.runs.len());
        for (r, run) in self.access.runs.iter().enumerate() {
            let (lo, hi) = parent.ranges[r];
            let col = &run.cols[depth - 1][lo..hi];
            let start = lo + col.partition_point(|&x| x < v);
            let end = lo + col.partition_point(|&x| x <= v);
            ranges.push((start, end));
            steps += 1;
        }
        (ranges, steps)
    }
}

impl crate::access::TrieAccess for DeltaCursor<'_> {
    fn arity(&self) -> usize {
        self.access.arity
    }

    fn depth(&self) -> usize {
        self.frames.len()
    }

    fn open(&mut self) -> bool {
        let depth = self.frames.len();
        if depth >= self.access.arity {
            return false;
        }
        self.prefix_buf.clear();
        for f in &self.frames {
            debug_assert!(
                f.pos < f.group.values.len(),
                "open below an exhausted level"
            );
            self.prefix_buf.push(f.group.values[f.pos]);
        }
        if let Some(memo) = &self.memo[depth] {
            if memo.prefix == self.prefix_buf {
                if depth > 0 {
                    // memo hits charge the same work as the merge they skip, so
                    // tallies stay a pure function of the visited values
                    self.work.delta_merge += memo.merge_steps;
                }
                if memo.group.values.is_empty() {
                    return false;
                }
                let group = Arc::clone(&memo.group);
                self.frames.push(DeltaFrame { group, pos: 0 });
                return true;
            }
        }
        let (ranges, narrow_steps) = if depth == 0 {
            (
                self.access.runs.iter().map(|r| (0, r.len())).collect(),
                0u64,
            )
        } else {
            let parent = Arc::clone(&self.frames[depth - 1].group);
            self.narrow(depth, &parent, self.prefix_buf[depth - 1])
        };
        let (values, merge_steps) = self.merge_group(depth, &ranges);
        let steps = narrow_steps + merge_steps;
        if depth > 0 {
            // the root merge is uncounted: parallel workers each materialize it
            // once per private cursor, so charging it would make merged counters
            // depend on the worker count
            self.work.delta_merge += steps;
        }
        let group = Arc::new(MergedGroup { values, ranges });
        let empty = group.values.is_empty();
        self.memo[depth] = Some(DeltaMemo {
            prefix: self.prefix_buf.clone(),
            group: Arc::clone(&group),
            merge_steps: steps,
        });
        if empty {
            return false;
        }
        self.frames.push(DeltaFrame { group, pos: 0 });
        true
    }

    fn up(&mut self) {
        self.frames.pop();
    }

    fn key(&self) -> Value {
        let f = self.frames.last().expect("cursor is at the root");
        assert!(
            f.pos < f.group.values.len(),
            "cursor is at end of its group"
        );
        f.group.values[f.pos]
    }

    fn at_end(&self) -> bool {
        match self.frames.last() {
            None => true,
            Some(f) => f.pos >= f.group.values.len(),
        }
    }

    fn next(&mut self) -> bool {
        self.work.intersect_steps += 1;
        let f = self.frames.last_mut().expect("cursor is at the root");
        if f.pos < f.group.values.len() {
            f.pos += 1;
        }
        f.pos < f.group.values.len()
    }

    fn seek(&mut self, target: Value) -> bool {
        let f = self.frames.last_mut().expect("cursor is at the root");
        let values = &f.group.values;
        if f.pos >= values.len() {
            return false;
        }
        let (pos, probes, cmps) = crate::ops::seek_lub(values, f.pos, values.len(), target);
        self.work.probes += probes;
        self.work.comparisons += cmps;
        f.pos = pos;
        f.pos < values.len()
    }

    fn reposition(&mut self, target: Value) -> bool {
        let f = self.frames.last_mut().expect("cursor is at the root");
        match f.group.values.binary_search(&target) {
            Ok(i) => {
                f.pos = i;
                true
            }
            Err(i) => {
                f.pos = i;
                false
            }
        }
    }

    fn advance_to(&mut self, target: Value) -> bool {
        let f = self.frames.last_mut().expect("cursor is at the root");
        let values = &f.group.values;
        if f.pos >= values.len() {
            return false;
        }
        if values[f.pos] >= target {
            return values[f.pos] == target;
        }
        let (pos, _, _) = crate::ops::seek_lub(values, f.pos, values.len(), target);
        f.pos = pos;
        pos < values.len() && values[pos] == target
    }

    fn remaining(&self) -> &[Value] {
        match self.frames.last() {
            None => &[],
            Some(f) => &f.group.values[f.pos..],
        }
    }

    fn take_work(&mut self) -> CursorWork {
        std::mem::take(&mut self.work)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::TrieAccess;

    fn schema_ab() -> Schema {
        Schema::new(&["A", "B"])
    }

    fn enumerate(c: &mut DeltaCursor<'_>, arity: usize) -> Vec<Tuple> {
        fn walk(c: &mut DeltaCursor<'_>, arity: usize, prefix: &mut Tuple, out: &mut Vec<Tuple>) {
            if !c.open() {
                return;
            }
            while !c.at_end() {
                prefix.push(c.key());
                if prefix.len() == arity {
                    out.push(prefix.clone());
                } else {
                    walk(c, arity, prefix, out);
                }
                prefix.pop();
                if !c.next() {
                    break;
                }
            }
            c.up();
        }
        let mut out = Vec::new();
        walk(c, arity, &mut Vec::new(), &mut out);
        out
    }

    /// The union cursor must enumerate exactly the snapshot, for every order.
    fn assert_cursor_matches_snapshot(d: &DeltaRelation) {
        let snap = d.snapshot();
        for order in [vec!["A", "B"], vec!["B", "A"]] {
            let access = DeltaAccess::build(d, &order, 1).unwrap();
            let mut cursor = access.cursor();
            let got = enumerate(&mut cursor, 2);
            let expected = snap.reorder(&order).unwrap();
            assert_eq!(got, expected.rows(), "order {order:?}");
        }
        assert_eq!(d.len(), snap.len());
    }

    #[test]
    fn encode_decode_state_is_bit_exact() {
        let mut d = DeltaRelation::new(schema_ab());
        d.set_seal_threshold(8);
        // a mixed history: sealed runs with tombstones plus a partial buffer
        for i in 0..40u64 {
            d.insert(vec![i % 10, i / 2]).unwrap();
            if i % 3 == 0 {
                d.delete(&[i % 10, i / 2]).unwrap();
            }
        }
        assert!(d.num_runs() >= 1);
        assert!(d.buffered() > 0 || d.tombstones() > 0);
        let bytes = d.encode_state();
        let d2 = DeltaRelation::decode_state(schema_ab(), &bytes).unwrap();
        assert_eq!(d2.run_sizes(), d.run_sizes(), "run partitioning preserved");
        assert_eq!(d2.tombstones(), d.tombstones());
        assert_eq!(d2.buffered(), d.buffered());
        assert_eq!(d2.len(), d.len(), "live set rebuilt");
        assert_eq!(d2.snapshot().rows(), d.snapshot().rows());
        assert_cursor_matches_snapshot(&d2);
        // future mutations behave identically: same seal decisions
        let (mut a, mut b) = (d, d2);
        for i in 100..140u64 {
            a.insert(vec![i, i + 1]).unwrap();
            b.insert(vec![i, i + 1]).unwrap();
        }
        assert_eq!(a.run_sizes(), b.run_sizes());
        assert_eq!(a.buffered(), b.buffered());
        // every truncation is rejected, never a panic or silent success
        for cut in 0..bytes.len() {
            assert!(
                DeltaRelation::decode_state(schema_ab(), &bytes[..cut]).is_err(),
                "prefix {cut} must not decode"
            );
        }
    }

    #[test]
    fn insert_delete_roundtrip_and_liveness() {
        let mut d = DeltaRelation::new(schema_ab());
        assert!(d.insert(vec![1, 2]).unwrap());
        assert!(!d.insert(vec![1, 2]).unwrap());
        assert!(d.insert(vec![2, 1]).unwrap());
        assert!(d.is_live(&[1, 2]));
        assert!(d.delete(&[1, 2]).unwrap());
        assert!(!d.delete(&[1, 2]).unwrap());
        assert!(!d.is_live(&[1, 2]));
        assert_eq!(d.len(), 1);
        assert!(d.insert(vec![1, 2]).unwrap(), "re-insert after delete");
        assert_eq!(d.snapshot().rows(), vec![vec![1, 2], vec![2, 1]]);
        assert!(d.insert(vec![1]).is_err());
        assert!(d.delete(&[1]).is_err());
    }

    #[test]
    fn seal_collapses_and_annihilates() {
        let mut d = DeltaRelation::new(schema_ab());
        d.insert(vec![1, 2]).unwrap();
        d.insert(vec![3, 4]).unwrap();
        d.delete(&[1, 2]).unwrap(); // cancels within the buffer
        assert_eq!(d.buffered(), 3);
        d.seal();
        assert_eq!(d.buffered(), 0);
        assert_eq!(d.num_runs(), 1);
        assert_eq!(d.run_sizes(), vec![1]); // only (3,4) survives
        assert_eq!(d.tombstones(), 0);
        assert_eq!(d.snapshot().rows(), vec![vec![3, 4]]);
    }

    #[test]
    fn tombstones_cross_runs_and_compact_annihilates() {
        let mut d = DeltaRelation::from_relation(Relation::from_rows(
            schema_ab(),
            vec![vec![1, 2], vec![1, 3], vec![2, 2], vec![3, 3], vec![4, 4]],
        ));
        d.delete(&[1, 3]).unwrap();
        d.insert(vec![5, 5]).unwrap();
        d.seal();
        // base (5 rows) >= 2 x the new run (2 rows): tiering keeps both runs
        assert_eq!(d.num_runs(), 2);
        assert_eq!(d.tombstones(), 1);
        assert_cursor_matches_snapshot(&d);
        let expected = vec![vec![1, 2], vec![2, 2], vec![3, 3], vec![4, 4], vec![5, 5]];
        assert_eq!(d.snapshot().rows(), expected);
        d.compact(1);
        assert_eq!(d.num_runs(), 1);
        assert_eq!(d.tombstones(), 0);
        assert_eq!(d.snapshot().rows(), expected);
        assert_cursor_matches_snapshot(&d);
    }

    #[test]
    fn interior_value_fully_tombstoned_is_suppressed() {
        // base holds both tuples under A=1; delete BOTH -> the union cursor must
        // not present A=1 at depth 1 even though base rows still exist
        let mut d = DeltaRelation::from_relation(Relation::from_rows(
            schema_ab(),
            vec![vec![1, 10], vec![1, 11], vec![2, 20]],
        ));
        d.delete(&[1, 10]).unwrap();
        d.delete(&[1, 11]).unwrap();
        d.seal();
        let access = DeltaAccess::build(&d, &["A", "B"], 1).unwrap();
        let mut c = access.cursor();
        assert!(c.open());
        assert_eq!(TrieAccess::remaining(&c), &[2]);
        assert_cursor_matches_snapshot(&d);
    }

    #[test]
    fn unsealed_buffer_is_visible_to_queries() {
        let mut d = DeltaRelation::new(schema_ab());
        d.insert(vec![7, 8]).unwrap();
        assert_eq!(d.num_runs(), 0);
        assert_eq!(d.buffered(), 1);
        assert_cursor_matches_snapshot(&d); // ephemeral run path
        assert_eq!(d.snapshot().rows(), vec![vec![7, 8]]);
    }

    #[test]
    fn size_tiered_sealing_bounds_run_count() {
        let mut d = DeltaRelation::new(schema_ab());
        d.set_seal_threshold(8);
        for i in 0..512u64 {
            d.insert(vec![i / 16, i % 16]).unwrap();
        }
        d.seal();
        // factor-2 tiering keeps the run count logarithmic in n / threshold
        assert!(d.num_runs() <= 8, "tiering failed: {:?}", d.run_sizes());
        // sizes are (weakly) tiered: each run at least GROWTH x its successor
        let sizes = d.run_sizes();
        for w in sizes.windows(2) {
            assert!(w[0] >= GROWTH * w[1], "not tiered: {sizes:?}");
        }
        assert_eq!(d.len(), 512);
        assert_cursor_matches_snapshot(&d);
    }

    #[test]
    fn compact_step_walks_to_single_run() {
        let mut d = DeltaRelation::new(schema_ab());
        d.set_seal_threshold(usize::MAX);
        // decreasing chunk sizes survive the tiering check, leaving a deep stack
        for (chunk, size) in [(0u64, 64u64), (1, 16), (2, 4), (3, 1)] {
            for i in 0..size {
                d.insert(vec![chunk, i]).unwrap();
            }
            d.seal();
        }
        assert_eq!(d.num_runs(), 4, "{:?}", d.run_sizes());
        let expected = d.snapshot();
        let mut steps = 0;
        while d.compact_step(1) {
            steps += 1;
            assert_eq!(d.snapshot(), expected, "after compaction step {steps}");
            assert_cursor_matches_snapshot(&d);
        }
        assert_eq!(steps, 3);
        assert_eq!(d.num_runs(), 1);
        assert_eq!(d.tombstones(), 0);
    }

    #[test]
    fn random_ops_match_reference_set() {
        use std::collections::BTreeSet;
        let mut d = DeltaRelation::new(schema_ab());
        d.set_seal_threshold(16);
        let mut reference: BTreeSet<Tuple> = BTreeSet::new();
        let mut state = 0xD17Au64;
        let mut rng = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for step in 0..600 {
            let t = vec![rng() % 12, rng() % 12];
            if rng() % 3 == 0 {
                assert_eq!(d.delete(&t).unwrap(), reference.remove(&t));
            } else {
                assert_eq!(d.insert(t.clone()).unwrap(), reference.insert(t));
            }
            if step % 97 == 0 {
                let rows: Vec<Tuple> = reference.iter().cloned().collect();
                assert_eq!(d.snapshot().rows(), rows, "step {step}");
                assert_cursor_matches_snapshot(&d);
            }
        }
        d.compact(2);
        let rows: Vec<Tuple> = reference.iter().cloned().collect();
        assert_eq!(d.snapshot().rows(), rows);
        assert_eq!(d.len(), rows.len());
        assert_cursor_matches_snapshot(&d);
    }

    #[test]
    fn cursor_navigation_and_work() {
        let mut d = DeltaRelation::new(schema_ab());
        for i in 0..100u64 {
            d.insert(vec![i % 4, i]).unwrap();
        }
        d.seal();
        d.delete(&[0, 0]).unwrap();
        d.seal();
        let access = DeltaAccess::build(&d, &["A", "B"], 1).unwrap();
        let mut c = access.cursor();
        assert_eq!(c.arity(), 2);
        assert!(c.at_end()); // root
        assert!(c.open());
        assert!(c.take_work().is_zero(), "root merge is uncounted");
        assert_eq!(TrieAccess::remaining(&c), &[0, 1, 2, 3]);
        assert!(c.seek(2));
        assert_eq!(c.key(), 2);
        assert!(c.reposition(0));
        assert!(c.open()); // B under A=0: 4, 8, ... (0 was deleted)
        let w = c.take_work();
        assert!(w.delta_merge > 0, "deep opens charge delta_merge");
        assert_eq!(c.key(), 4);
        assert!(c.advance_to(8));
        c.up();
        c.up();
        assert_eq!(c.depth(), 0);
    }

    #[test]
    fn memo_hits_recharge_identical_work() {
        let mut d = DeltaRelation::new(schema_ab());
        for i in 0..64u64 {
            d.insert(vec![i % 2, i]).unwrap();
        }
        d.seal();
        let access = DeltaAccess::build(&d, &["A", "B"], 1).unwrap();
        let mut c = access.cursor();
        assert!(c.open());
        c.take_work();
        assert!(c.open()); // miss
        let first = c.take_work();
        c.up();
        assert!(c.open()); // memo hit, same prefix
        let second = c.take_work();
        assert_eq!(first.delta_merge, second.delta_merge);
        c.up();
        assert!(c.next());
        assert!(c.open()); // different prefix: fresh merge
        assert!(c.take_work().delta_merge > 0);
    }

    #[test]
    fn build_rejects_bad_orders_and_cursors_are_send_clone() {
        let d = DeltaRelation::new(schema_ab());
        assert!(DeltaAccess::build(&d, &["A"], 1).is_err());
        assert!(DeltaAccess::build(&d, &["A", "A"], 1).is_err());
        assert!(DeltaAccess::build(&d, &["A", "Z"], 1).is_err());
        assert!(DeltaAccess::build_positions(&d, &[0, 0], 1).is_err());
        fn assert_send_clone<T: Send + Clone>() {}
        fn assert_sync<T: Sync>() {}
        assert_send_clone::<DeltaCursor<'_>>();
        assert_sync::<DeltaAccess<'_>>();
    }

    #[test]
    fn epoch_advances_on_every_visible_mutation() {
        let mut d = DeltaRelation::new(schema_ab());
        let e0 = d.epoch();
        assert!(d.insert(vec![1, 2]).unwrap());
        let e1 = d.epoch();
        assert!(e1 > e0, "insert bumps");
        assert!(!d.insert(vec![1, 2]).unwrap());
        assert_eq!(d.epoch(), e1, "no-op re-insert does not bump");
        d.delete(&[1, 2]).unwrap();
        let e2 = d.epoch();
        assert!(e2 > e1, "delete bumps");
        assert!(!d.delete(&[1, 2]).unwrap());
        assert_eq!(d.epoch(), e2, "no-op delete does not bump");
        d.insert(vec![3, 4]).unwrap();
        let e3 = d.epoch();
        d.seal();
        assert!(d.epoch() > e3, "seal bumps");
        // distinct logs never share an epoch (stamps are process-unique)
        let other = DeltaRelation::new(schema_ab());
        assert_ne!(other.epoch(), d.epoch());
    }

    #[test]
    fn run_ids_are_stable_until_a_structural_rewrite() {
        let mut d = DeltaRelation::new(schema_ab());
        d.set_seal_threshold(usize::MAX);
        for i in 0..64u64 {
            d.insert(vec![i, i]).unwrap();
        }
        d.seal();
        let base = d.run_ids();
        assert_eq!(base.len(), 1);
        // a small second seal survives tiering: old ids stay a prefix
        d.insert(vec![100, 100]).unwrap();
        d.insert(vec![101, 101]).unwrap();
        d.seal();
        let extended = d.run_ids();
        assert_eq!(extended.len(), 2);
        assert_eq!(
            extended[0], base[0],
            "old run untouched by append-only seal"
        );
        // compaction rewrites: a fresh id, not a prefix of the old list
        d.compact(1);
        let compacted = d.run_ids();
        assert_eq!(compacted.len(), 1);
        assert!(!extended.contains(&compacted[0]));
    }

    #[test]
    fn view_matches_extends_and_rehydrates_bit_identically() {
        let mut d = DeltaRelation::new(schema_ab());
        d.set_seal_threshold(usize::MAX);
        for i in 0..200u64 {
            d.insert(vec![i % 13, (i * 11) % 17]).unwrap();
        }
        d.seal();
        for positions in [vec![0usize, 1], vec![1usize, 0]] {
            let view = DeltaView::build(&d, &positions, 1).unwrap();
            assert!(view.matches(&d));
            assert!(view.heap_bytes() > 0);
            assert_eq!(view.num_rows(), d.run_sizes().iter().sum::<usize>());
            let fresh = DeltaAccess::build_positions(&d, &positions, 1).unwrap();
            let cached = DeltaAccess::from_view(&view, &d);
            assert_eq!(
                enumerate(&mut fresh.cursor(), 2),
                enumerate(&mut cached.cursor(), 2),
                "rehydrated view must equal a fresh build ({positions:?})"
            );

            // mutate: unsealed ops are visible through the ephemeral run even
            // on a stale-free (matching) view
            let mut d2 = d.clone();
            d2.insert(vec![999, 1]).unwrap();
            d2.delete(&[0, 0]).unwrap();
            assert!(view.matches(&d2), "buffer-only changes keep run ids");
            let fresh2 = DeltaAccess::build_positions(&d2, &positions, 1).unwrap();
            let cached2 = DeltaAccess::from_view(&view, &d2);
            assert_eq!(
                enumerate(&mut fresh2.cursor(), 2),
                enumerate(&mut cached2.cursor(), 2),
                "unsealed buffer visible through cached view ({positions:?})"
            );

            // seal: the view no longer matches, but extends incrementally
            d2.set_seal_threshold(usize::MAX);
            d2.seal();
            assert!(!view.matches(&d2));
            let extended = view.extend(&d2, 1).expect("append-only seal extends");
            assert!(extended.matches(&d2));
            assert_eq!(extended.num_runs(), d2.num_runs());
            let fresh3 = DeltaAccess::build_positions(&d2, &positions, 1).unwrap();
            let cached3 = DeltaAccess::from_view(&extended, &d2);
            assert_eq!(
                enumerate(&mut fresh3.cursor(), 2),
                enumerate(&mut cached3.cursor(), 2),
                "incrementally extended view must equal a fresh build ({positions:?})"
            );

            // compaction diverges the run list: no extension possible
            let mut d3 = d2.clone();
            d3.compact(1);
            assert!(!extended.matches(&d3));
            assert!(
                extended.extend(&d3, 1).is_none(),
                "compaction forces rebuild"
            );
        }
        assert!(DeltaView::build(&d, &[0, 0], 1).is_err());
        assert!(DeltaView::build(&d, &[0], 1).is_err());
    }

    #[test]
    fn parallel_access_build_matches_serial() {
        let mut d = DeltaRelation::new(schema_ab());
        d.set_seal_threshold(1024);
        for i in 0..6000u64 {
            d.insert(vec![i % 97, (i * 7) % 89]).unwrap();
        }
        d.seal();
        for threads in [2, 4] {
            for order in [vec!["A", "B"], vec!["B", "A"]] {
                let serial = DeltaAccess::build(&d, &order, 1).unwrap();
                let par = DeltaAccess::build(&d, &order, threads).unwrap();
                let mut cs = serial.cursor();
                let mut cp = par.cursor();
                assert_eq!(enumerate(&mut cs, 2), enumerate(&mut cp, 2), "x{threads}");
            }
        }
    }
}
