//! CSR-flattened prefix tries with seekable cursors — the access path required by
//! Leapfrog Triejoin (Veldhuizen 2014), the WCOJ algorithm that inspired Generic Join
//! in the paper's historical account (Section 1.2).
//!
//! A [`Trie`] stores a relation's tuples, reordered by a chosen attribute order, as
//! one sorted value array per level plus child-range offsets. Construction is a
//! **fused pass over the relation's columns**: one argsort of row indices (skipped
//! entirely when the requested order is the relation's native order), then a single
//! scan that emits every level's values and child offsets simultaneously — no row
//! materialization, no per-level re-grouping.
//!
//! A [`TrieCursor`] implements the linear-iterator interface Leapfrog needs: `open`,
//! `up`, `next`, `seek` (least upper bound within the current sibling group), `key`,
//! `at_end`. `seek` uses galloping (exponential then binary) search so that a full
//! leapfrog intersection of `k` sorted sets costs `O(k · min_size · log(max/min))`.
//! Cursors are `Send + Clone` — they borrow the (immutable, `Sync`) trie and own
//! their stack plus private [`CursorWork`] tallies, so independent parallel workers
//! can each hold their own cursor over one shared trie.

use crate::error::StorageError;
use crate::relation::Relation;
use crate::stats::CursorWork;
use crate::Value;

/// One level of the trie: all node values at this depth (grouped by parent, each group
/// sorted), plus the start offset of each node's children in the next level.
#[derive(Debug, Clone, PartialEq, Eq)]
struct TrieLevel {
    /// Node values at this depth, concatenated parent group by parent group.
    values: Vec<Value>,
    /// `child_start[i]..child_start[i+1]` is the range of node `i`'s children in the
    /// next level's `values`. Empty for the deepest level (never dereferenced there).
    child_start: Vec<usize>,
}

/// A prefix trie over a relation in a fixed attribute order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trie {
    attr_order: Vec<String>,
    levels: Vec<TrieLevel>,
    num_tuples: usize,
}

/// Validate that `attr_order` is a permutation of `rel`'s attributes and return the
/// column position of each ordered attribute.
pub(crate) fn order_positions(
    rel: &Relation,
    attr_order: &[&str],
) -> Result<Vec<usize>, StorageError> {
    if attr_order.len() != rel.arity() {
        return Err(StorageError::ArityMismatch {
            expected: rel.arity(),
            found: attr_order.len(),
        });
    }
    let mut positions = Vec::with_capacity(attr_order.len());
    let mut seen = vec![false; rel.arity()];
    for attr in attr_order {
        let p = rel.schema().require(attr)?;
        if seen[p] {
            return Err(StorageError::DuplicateAttribute(attr.to_string()));
        }
        seen[p] = true;
        positions.push(p);
    }
    Ok(positions)
}

/// Validate that `positions` is a permutation of `0..rel.arity()` and synthesize the
/// attribute names of that order from the relation's stored schema. The positional
/// twin of [`order_positions`], used by the cache-keyed builds
/// ([`Trie::build_positions`]) where atom variables bind to stored columns
/// positionally.
pub(crate) fn positions_order(
    rel: &Relation,
    positions: &[usize],
) -> Result<Vec<String>, StorageError> {
    if positions.len() != rel.arity() {
        return Err(StorageError::ArityMismatch {
            expected: rel.arity(),
            found: positions.len(),
        });
    }
    let mut seen = vec![false; rel.arity()];
    for &p in positions {
        if p >= rel.arity() || seen[p] {
            return Err(StorageError::DuplicateAttribute(format!("column {p}")));
        }
        seen[p] = true;
    }
    Ok(positions
        .iter()
        .map(|&p| rel.schema().attrs()[p].clone())
        .collect())
}

/// Argsort of `rel`'s rows by the permuted columns, or `None` when the permutation
/// is the identity (the relation is already sorted in that order). Rows of a
/// full-attribute permutation are distinct, so `sort_perm`'s index tie-break never
/// fires.
pub(crate) fn order_perm(rel: &Relation, positions: &[usize]) -> Option<Vec<usize>> {
    if positions.iter().enumerate().all(|(i, &p)| i == p) {
        return None;
    }
    Some(rel.sort_perm(positions))
}

/// The shared fused-build scan: visit `rel`'s rows in the order of the permuted
/// columns `positions`, calling `visit(row, depth)` where `depth` is the first
/// position (in the permuted order) at which the row differs from its predecessor
/// (0 for the first row). [`Trie::build`] drives its single-pass construction off
/// this boundary stream.
pub(crate) fn fused_scan(rel: &Relation, positions: &[usize], mut visit: impl FnMut(usize, usize)) {
    let arity = positions.len();
    let perm = order_perm(rel, positions);
    let cols: Vec<&[Value]> = positions.iter().map(|&p| rel.column(p)).collect();
    let mut prev: Option<usize> = None;
    for idx in 0..rel.len() {
        let r = perm.as_ref().map_or(idx, |p| p[idx]);
        let d = match prev {
            None => 0,
            Some(pr) => {
                let mut d = 0;
                while d < arity && cols[d][r] == cols[d][pr] {
                    d += 1;
                }
                d
            }
        };
        debug_assert!(d < arity, "relations are deduplicated");
        visit(r, d);
        prev = Some(r);
    }
}

/// Relations below this many rows build serially even when worker threads are
/// requested: the scoped-thread spawn cost would exceed the build itself.
pub(crate) const PAR_BUILD_MIN: usize = 4096;

/// [`order_perm`] with the argsort spread across `threads` scoped workers
/// ([`Relation::sort_perm_threads`]); bit-identical to the serial argsort.
pub(crate) fn order_perm_threads(
    rel: &Relation,
    positions: &[usize],
    threads: usize,
) -> Option<Vec<usize>> {
    if positions.iter().enumerate().all(|(i, &p)| i == p) {
        return None;
    }
    Some(rel.sort_perm_threads(positions, threads))
}

/// The level-boundary stream of [`fused_scan`] as data: `bounds[idx]` is the first
/// depth at which sorted row `idx` differs from row `idx - 1` (0 for row 0).
/// Computed across `threads` scoped workers — each chunk's boundaries depend only
/// on the rows at its edges, so the partition is embarrassingly parallel.
pub(crate) fn boundary_depths(
    rel: &Relation,
    positions: &[usize],
    perm: Option<&[usize]>,
    threads: usize,
) -> Vec<usize> {
    let arity = positions.len();
    let n = rel.len();
    let cols: Vec<&[Value]> = positions.iter().map(|&p| rel.column(p)).collect();
    let mut bounds = vec![0usize; n];
    let diff = |idx: usize| -> usize {
        let r = perm.map_or(idx, |p| p[idx]);
        let pr = perm.map_or(idx - 1, |p| p[idx - 1]);
        let mut d = 0;
        while d < arity && cols[d][r] == cols[d][pr] {
            d += 1;
        }
        debug_assert!(d < arity, "relations are deduplicated");
        d
    };
    if n == 0 {
        return bounds;
    }
    if threads <= 1 || n < PAR_BUILD_MIN {
        for (idx, b) in bounds.iter_mut().enumerate().skip(1) {
            *b = diff(idx);
        }
    } else {
        let chunk = n.div_ceil(threads);
        std::thread::scope(|scope| {
            let diff = &diff;
            // skip row 0 (boundary 0 by definition), then hand out chunks
            let mut rest: &mut [usize] = &mut bounds[1..];
            let mut start = 1usize;
            while !rest.is_empty() {
                let take = chunk.min(rest.len());
                let (head, tail) = rest.split_at_mut(take);
                let begin = start;
                scope.spawn(move || {
                    for (off, b) in head.iter_mut().enumerate() {
                        *b = diff(begin + off);
                    }
                });
                rest = tail;
                start += take;
            }
        });
    }
    bounds
}

impl Trie {
    /// Build a trie for `rel` with attributes reordered to `attr_order` (a permutation
    /// of the relation's attributes).
    ///
    /// Single fused pass: argsort the row indices by the permuted columns (skipped
    /// when the order is native), then scan once, pushing a node at depth `d`
    /// whenever the current row first differs from the previous row at depth `≤ d`.
    pub fn build(rel: &Relation, attr_order: &[&str]) -> Result<Self, StorageError> {
        let positions = order_positions(rel, attr_order)?;
        Ok(Self::build_ordered(
            rel,
            &positions,
            attr_order.iter().map(|s| s.to_string()).collect(),
        ))
    }

    /// [`Trie::build`] with the order given as **column positions** (a permutation of
    /// `0..arity`, names synthesized from the stored schema) — the entry used by the
    /// execution layer's access-structure cache, whose keys are positional so that
    /// per-query variable names never reach (or fragment) the cache.
    pub fn build_positions(rel: &Relation, positions: &[usize]) -> Result<Self, StorageError> {
        let attr_order = positions_order(rel, positions)?;
        Ok(Self::build_ordered(rel, positions, attr_order))
    }

    fn build_ordered(rel: &Relation, positions: &[usize], attr_order: Vec<String>) -> Self {
        let arity = rel.arity();
        let n = rel.len();
        let cols: Vec<&[Value]> = positions.iter().map(|&p| rel.column(p)).collect();

        let mut values: Vec<Vec<Value>> = vec![Vec::new(); arity];
        let mut child_start: Vec<Vec<usize>> = vec![Vec::new(); arity];
        fused_scan(rel, positions, |r, d| {
            // the row starts a new node at every depth >= d
            for (depth, col) in cols.iter().enumerate().skip(d) {
                if depth + 1 < arity {
                    child_start[depth].push(values[depth + 1].len());
                }
                values[depth].push(col[r]);
            }
        });
        // closing sentinels: node i's children end where node i+1's begin
        for depth in 0..arity.saturating_sub(1) {
            child_start[depth].push(values[depth + 1].len());
        }

        let levels = values
            .into_iter()
            .zip(child_start)
            .map(|(values, child_start)| TrieLevel {
                values,
                child_start,
            })
            .collect();
        Trie {
            attr_order,
            levels,
            num_tuples: n,
        }
    }

    /// [`Trie::build`] with the fused argsort-and-scan pass partitioned across
    /// `threads` scoped workers.
    ///
    /// Three parallel stages, each bit-identical to its serial counterpart:
    /// the argsort runs as sorted runs + parallel merges
    /// ([`Relation::sort_perm_threads`]), the level-boundary stream is chunked
    /// (`boundary_depths`), and the level arrays are filled through
    /// exclusive per-chunk output slices whose offsets come from a prefix sum of
    /// per-chunk node counts — so the result is guaranteed equal to
    /// [`Trie::build`] for every thread count (property-tested for
    /// threads ∈ {1, 2, 4, 8}). Small relations and `threads <= 1` fall back to
    /// the serial build.
    pub fn build_parallel(
        rel: &Relation,
        attr_order: &[&str],
        threads: usize,
    ) -> Result<Self, StorageError> {
        let positions = order_positions(rel, attr_order)?;
        Ok(Self::build_parallel_ordered(
            rel,
            &positions,
            attr_order.iter().map(|s| s.to_string()).collect(),
            threads,
        ))
    }

    /// [`Trie::build_positions`] with the parallel fused pass of
    /// [`Trie::build_parallel`]; bit-identical for every thread count.
    pub fn build_positions_parallel(
        rel: &Relation,
        positions: &[usize],
        threads: usize,
    ) -> Result<Self, StorageError> {
        let attr_order = positions_order(rel, positions)?;
        Ok(Self::build_parallel_ordered(
            rel, positions, attr_order, threads,
        ))
    }

    fn build_parallel_ordered(
        rel: &Relation,
        positions: &[usize],
        attr_order: Vec<String>,
        threads: usize,
    ) -> Self {
        if threads <= 1 || rel.len() < PAR_BUILD_MIN {
            return Self::build_ordered(rel, positions, attr_order);
        }
        let arity = rel.arity();
        let n = rel.len();
        let perm = order_perm_threads(rel, positions, threads);
        let bounds = boundary_depths(rel, positions, perm.as_deref(), threads);
        let cols: Vec<&[Value]> = positions.iter().map(|&p| rel.column(p)).collect();

        // per-chunk node counts per depth (a row with boundary b creates one node
        // at every depth >= b), then exclusive prefix sums -> chunk output offsets
        let chunk = n.div_ceil(threads);
        let ranges: Vec<std::ops::Range<usize>> = (0..n)
            .step_by(chunk)
            .map(|s| s..(s + chunk).min(n))
            .collect();
        let counts: Vec<Vec<usize>> = std::thread::scope(|scope| {
            let bounds = &bounds;
            let handles: Vec<_> = ranges
                .iter()
                .map(|range| {
                    let range = range.clone();
                    scope.spawn(move || {
                        let mut c = vec![0usize; arity];
                        for idx in range {
                            for slot in c.iter_mut().skip(bounds[idx]) {
                                *slot += 1;
                            }
                        }
                        c
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("count worker"))
                .collect()
        });
        let mut offsets: Vec<Vec<usize>> = Vec::with_capacity(counts.len());
        let mut totals = vec![0usize; arity];
        for c in &counts {
            offsets.push(totals.clone());
            for (t, &k) in totals.iter_mut().zip(c) {
                *t += k;
            }
        }

        // exact-size level arrays, handed to workers as exclusive per-chunk slices
        let mut values: Vec<Vec<Value>> = totals.iter().map(|&t| vec![0; t]).collect();
        let mut child_start: Vec<Vec<usize>> = (0..arity)
            .map(|d| {
                if d + 1 < arity {
                    vec![0usize; totals[d] + 1] // + 1 for the closing sentinel
                } else {
                    Vec::new()
                }
            })
            .collect();
        {
            let mut val_rem: Vec<&mut [Value]> =
                values.iter_mut().map(|v| v.as_mut_slice()).collect();
            let mut cs_rem: Vec<&mut [usize]> =
                child_start.iter_mut().map(|v| v.as_mut_slice()).collect();
            std::thread::scope(|scope| {
                let bounds = &bounds;
                let cols = &cols;
                let perm = perm.as_deref();
                for (c, range) in ranges.iter().enumerate() {
                    let mut vs: Vec<&mut [Value]> = Vec::with_capacity(arity);
                    let mut cs: Vec<&mut [usize]> = Vec::with_capacity(arity);
                    for d in 0..arity {
                        let (head, tail) =
                            std::mem::take(&mut val_rem[d]).split_at_mut(counts[c][d]);
                        vs.push(head);
                        val_rem[d] = tail;
                        if d + 1 < arity {
                            let (head, tail) =
                                std::mem::take(&mut cs_rem[d]).split_at_mut(counts[c][d]);
                            cs.push(head);
                            cs_rem[d] = tail;
                        }
                    }
                    let range = range.clone();
                    let offs = offsets[c].clone();
                    scope.spawn(move || {
                        let mut vs = vs;
                        let mut cs = cs;
                        let mut local = vec![0usize; arity];
                        for idx in range {
                            let r = perm.map_or(idx, |p| p[idx]);
                            for depth in bounds[idx]..arity {
                                if depth + 1 < arity {
                                    // first child of this node = depth+1 nodes
                                    // emitted so far, globally
                                    cs[depth][local[depth]] = offs[depth + 1] + local[depth + 1];
                                }
                                vs[depth][local[depth]] = cols[depth][r];
                                local[depth] += 1;
                            }
                        }
                    });
                }
            });
            // closing sentinels: node i's children end where node i + 1's begin
            for d in 0..arity.saturating_sub(1) {
                debug_assert_eq!(cs_rem[d].len(), 1);
                cs_rem[d][0] = totals[d + 1];
            }
        }

        let levels = values
            .into_iter()
            .zip(child_start)
            .map(|(values, child_start)| TrieLevel {
                values,
                child_start,
            })
            .collect();
        Trie {
            attr_order,
            levels,
            num_tuples: n,
        }
    }

    /// The attribute order of the trie.
    pub fn attr_order(&self) -> &[String] {
        &self.attr_order
    }

    /// Approximate heap footprint in bytes (level value and offset arrays plus
    /// order metadata) — the byte accounting behind the access-structure
    /// cache's budget.
    pub fn heap_bytes(&self) -> usize {
        self.levels
            .iter()
            .map(|l| {
                l.values.len() * std::mem::size_of::<Value>()
                    + l.child_start.len() * std::mem::size_of::<usize>()
            })
            .sum::<usize>()
            + self.attr_order.iter().map(|s| s.len()).sum::<usize>()
    }

    /// Arity (number of levels).
    pub fn arity(&self) -> usize {
        self.attr_order.len()
    }

    /// Number of tuples in the underlying relation.
    pub fn num_tuples(&self) -> usize {
        self.num_tuples
    }

    /// Number of trie nodes at `depth` (distinct prefixes of length `depth + 1`).
    pub fn nodes_at(&self, depth: usize) -> usize {
        self.levels.get(depth).map_or(0, |l| l.values.len())
    }

    /// The sorted distinct values of the first attribute (the root sibling group) —
    /// what a cursor enumerates after its first `open`. Used by the execution layer
    /// to compute the first join variable's extension set up front.
    pub fn root_values(&self) -> &[Value] {
        self.levels.first().map_or(&[], |l| l.values.as_slice())
    }

    /// A cursor positioned at the root.
    pub fn cursor(&self) -> TrieCursor<'_> {
        TrieCursor {
            trie: self,
            stack: Vec::new(),
            work: CursorWork::default(),
        }
    }
}

/// A cursor frame: the sibling group `[start, end)` at this level and the position
/// within it.
#[derive(Debug, Clone, Copy)]
struct Frame {
    start: usize,
    pos: usize,
    end: usize,
}

/// A seekable cursor over a [`Trie`], implementing the Leapfrog Triejoin iterator
/// interface. `Send + Clone`: it borrows the shared trie and owns its stack and
/// work tallies.
#[derive(Debug, Clone)]
pub struct TrieCursor<'a> {
    trie: &'a Trie,
    stack: Vec<Frame>,
    work: CursorWork,
}

impl<'a> TrieCursor<'a> {
    /// Current depth: number of levels that have been opened (0 = at root).
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Arity of the underlying trie (total number of levels).
    pub fn arity(&self) -> usize {
        self.trie.arity()
    }

    /// Descend into the first child of the current node (or into the first root-level
    /// value when at the root). Returns `false` without moving if there are no
    /// children (already at the deepest level, or the trie is empty).
    pub fn open(&mut self) -> bool {
        let next_level = self.stack.len();
        if next_level >= self.trie.levels.len() {
            return false;
        }
        let (begin, end) = match self.stack.last() {
            None => (0, self.trie.levels[0].values.len()),
            Some(frame) => {
                let cs = &self.trie.levels[next_level - 1].child_start;
                (cs[frame.pos], cs[frame.pos + 1])
            }
        };
        if begin == end {
            return false;
        }
        self.stack.push(Frame {
            start: begin,
            pos: begin,
            end,
        });
        true
    }

    /// Ascend one level. No-op at the root.
    pub fn up(&mut self) {
        self.stack.pop();
    }

    /// The value at the cursor's current position. Panics if the cursor is at the root
    /// or at the end of its sibling group.
    pub fn key(&self) -> Value {
        let frame = self.stack.last().expect("cursor is at the root");
        assert!(frame.pos < frame.end, "cursor is at end of its group");
        self.trie.levels[self.stack.len() - 1].values[frame.pos]
    }

    /// Whether the cursor has run past the last sibling at the current level.
    pub fn at_end(&self) -> bool {
        match self.stack.last() {
            None => true,
            Some(f) => f.pos >= f.end,
        }
    }

    /// Advance to the next sibling. Returns `false` if that moves past the end.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> bool {
        self.work.intersect_steps += 1;
        let frame = self.stack.last_mut().expect("cursor is at the root");
        if frame.pos < frame.end {
            frame.pos += 1;
        }
        frame.pos < frame.end
    }

    /// Seek to the least sibling with value `>= target` (adaptive: linear scan for
    /// short groups, galloping search otherwise). Returns `false` if no such
    /// sibling exists (the cursor is then `at_end`).
    pub fn seek(&mut self, target: Value) -> bool {
        let depth = self.stack.len();
        let frame = self.stack.last_mut().expect("cursor is at the root");
        let values = &self.trie.levels[depth - 1].values;
        if frame.pos >= frame.end {
            return false;
        }
        let (pos, probes, cmps) = crate::ops::seek_lub(values, frame.pos, frame.end, target);
        self.work.probes += probes;
        self.work.comparisons += cmps;
        frame.pos = pos;
        frame.pos < frame.end
    }

    /// Position at the sibling with value exactly `target`, searching the *whole*
    /// group (may move backward). Uncounted: used by the execution layer to
    /// re-position at keys whose discovery cost was already accounted elsewhere
    /// (e.g. the first-variable extension set shared across parallel workers).
    pub fn reposition(&mut self, target: Value) -> bool {
        let depth = self.stack.len();
        let frame = self.stack.last_mut().expect("cursor is at the root");
        let values = &self.trie.levels[depth - 1].values[frame.start..frame.end];
        match values.binary_search(&target) {
            Ok(i) => {
                frame.pos = frame.start + i;
                true
            }
            Err(i) => {
                frame.pos = frame.start + i;
                false
            }
        }
    }

    /// Forward-only, uncounted positioning at exactly `target`, which must be
    /// `>=` the current key: the fast path for re-positioning at
    /// kernel-discovered keys visited in ascending order (their search cost was
    /// already accounted by the intersection kernel). Returns whether the value
    /// is present.
    pub fn advance_to(&mut self, target: Value) -> bool {
        let depth = self.stack.len();
        let frame = self.stack.last_mut().expect("cursor is at the root");
        let values = &self.trie.levels[depth - 1].values;
        if frame.pos >= frame.end {
            return false;
        }
        if values[frame.pos] >= target {
            return values[frame.pos] == target;
        }
        let (pos, _, _) = crate::ops::seek_lub(values, frame.pos, frame.end, target);
        frame.pos = pos;
        pos < frame.end && values[pos] == target
    }

    /// Convenience: the values remaining in the current sibling group, from the
    /// cursor's position onward.
    pub fn remaining(&self) -> &'a [Value] {
        match self.stack.last() {
            None => &[],
            Some(f) => &self.trie.levels[self.stack.len() - 1].values[f.pos..f.end],
        }
    }

    /// Drain the cursor's private work tallies (resetting them to zero).
    pub fn take_work(&mut self) -> CursorWork {
        std::mem::take(&mut self.work)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn rel() -> Relation {
        Relation::from_rows(
            Schema::new(&["A", "B", "C"]),
            vec![
                vec![1, 2, 10],
                vec![1, 2, 11],
                vec![1, 3, 10],
                vec![2, 2, 12],
                vec![4, 1, 1],
                vec![4, 1, 2],
            ],
        )
    }

    #[test]
    fn positional_build_matches_named_build() {
        let r = rel();
        let by_name = Trie::build(&r, &["C", "A", "B"]).unwrap();
        let by_pos = Trie::build_positions(&r, &[2, 0, 1]).unwrap();
        assert_eq!(by_pos, by_name);
        assert_eq!(
            by_pos.attr_order(),
            &["C".to_string(), "A".to_string(), "B".to_string()]
        );
        assert!(by_pos.heap_bytes() > 0);
        let par = Trie::build_positions_parallel(&r, &[2, 0, 1], 4).unwrap();
        assert_eq!(par, by_name);
        assert!(Trie::build_positions(&r, &[0, 1]).is_err());
        assert!(Trie::build_positions(&r, &[0, 1, 1]).is_err());
        assert!(Trie::build_positions(&r, &[0, 1, 3]).is_err());
    }

    #[test]
    fn build_counts_nodes() {
        let t = Trie::build(&rel(), &["A", "B", "C"]).unwrap();
        assert_eq!(t.arity(), 3);
        assert_eq!(t.num_tuples(), 6);
        assert_eq!(t.nodes_at(0), 3); // A in {1, 2, 4}
        assert_eq!(t.nodes_at(1), 4); // (1,2) (1,3) (2,2) (4,1)
        assert_eq!(t.nodes_at(2), 6); // all tuples distinct
        assert_eq!(t.root_values(), &[1, 2, 4]);
        assert_eq!(
            t.attr_order(),
            &["A".to_string(), "B".to_string(), "C".to_string()]
        );
    }

    #[test]
    fn cursor_walks_first_level() {
        let t = Trie::build(&rel(), &["A", "B", "C"]).unwrap();
        let mut c = t.cursor();
        assert!(c.at_end()); // root has no key
        assert!(c.open());
        assert_eq!(c.depth(), 1);
        assert_eq!(c.key(), 1);
        assert!(c.next());
        assert_eq!(c.key(), 2);
        assert!(c.next());
        assert_eq!(c.key(), 4);
        assert!(!c.next());
        assert!(c.at_end());
        c.up();
        assert_eq!(c.depth(), 0);
    }

    #[test]
    fn cursor_descends_into_correct_children() {
        let t = Trie::build(&rel(), &["A", "B", "C"]).unwrap();
        let mut c = t.cursor();
        c.open();
        // move to A = 4
        assert!(c.seek(4));
        assert_eq!(c.key(), 4);
        assert!(c.open());
        assert_eq!(c.key(), 1); // B values under A=4: {1}
        assert!(c.open());
        assert_eq!(c.remaining(), &[1, 2]); // C values under (4,1)
        assert_eq!(c.key(), 1);
        assert!(c.next());
        assert_eq!(c.key(), 2);
        assert!(!c.next());
    }

    #[test]
    fn seek_is_least_upper_bound() {
        let t = Trie::build(&rel(), &["A", "B", "C"]).unwrap();
        let mut c = t.cursor();
        c.open();
        assert!(c.seek(2));
        assert_eq!(c.key(), 2);
        assert!(c.seek(3));
        assert_eq!(c.key(), 4); // 3 absent, lub is 4
        assert!(!c.seek(5)); // nothing >= 5
        assert!(c.at_end());
    }

    #[test]
    fn seek_within_child_group_does_not_escape() {
        let t = Trie::build(&rel(), &["A", "B", "C"]).unwrap();
        let mut c = t.cursor();
        c.open();
        // A = 1, children B in {2, 3}
        assert_eq!(c.key(), 1);
        c.open();
        assert!(c.seek(3));
        assert_eq!(c.key(), 3);
        assert!(!c.seek(4)); // 4 exists at level B only under A=2/A=4 groups, not here
    }

    #[test]
    fn reposition_is_bidirectional_within_group() {
        let t = Trie::build(&rel(), &["A", "B", "C"]).unwrap();
        let mut c = t.cursor();
        c.open();
        assert!(c.seek(4));
        assert_eq!(c.key(), 4);
        // reposition can move backward, unlike seek
        assert!(c.reposition(1));
        assert_eq!(c.key(), 1);
        assert!(c.reposition(4));
        assert_eq!(c.key(), 4);
        assert!(!c.reposition(3)); // absent
                                   // and it is uncounted work
        assert!(!c.take_work().is_zero()); // from the earlier seek only
        assert!(c.reposition(2));
        assert_eq!(c.take_work(), CursorWork::default());
    }

    #[test]
    fn reordered_trie() {
        let t = Trie::build(&rel(), &["C", "B", "A"]).unwrap();
        let mut c = t.cursor();
        c.open();
        // C values overall: 1, 2, 10, 11, 12
        assert_eq!(c.remaining(), &[1, 2, 10, 11, 12]);
        assert!(c.seek(10));
        c.open();
        assert_eq!(c.remaining(), &[2, 3]); // B values with C=10
    }

    #[test]
    fn reordered_trie_enumerates_reordered_tuples() {
        // the fused argsort build must agree with reorder-then-build
        let r = rel();
        for order in [
            ["A", "B", "C"],
            ["A", "C", "B"],
            ["B", "A", "C"],
            ["B", "C", "A"],
            ["C", "A", "B"],
            ["C", "B", "A"],
        ] {
            let t = Trie::build(&r, &order).unwrap();
            let reordered = r.reorder(&order).unwrap();
            let mut out = Vec::new();
            let mut c = t.cursor();
            walk(&mut c, 3, &mut Vec::new(), &mut out);
            assert_eq!(out, reordered.rows(), "order {order:?}");
        }
    }

    #[test]
    fn empty_relation_trie() {
        let t = Trie::build(&Relation::empty(Schema::new(&["A", "B"])), &["A", "B"]).unwrap();
        let mut c = t.cursor();
        assert!(!c.open());
        assert_eq!(t.nodes_at(0), 0);
        assert_eq!(t.num_tuples(), 0);
        assert!(t.root_values().is_empty());
    }

    #[test]
    fn unary_relation_trie() {
        let r = Relation::from_rows(Schema::new(&["A"]), vec![vec![5], vec![2], vec![9]]);
        let t = Trie::build(&r, &["A"]).unwrap();
        let mut c = t.cursor();
        assert!(c.open());
        assert_eq!(c.remaining(), &[2, 5, 9]);
        assert!(!c.open()); // no deeper level
        assert!(c.seek(6));
        assert_eq!(c.key(), 9);
    }

    #[test]
    fn cursor_records_work_privately() {
        let r = Relation::from_rows(Schema::new(&["A"]), (0..1000).map(|i| vec![i]).collect());
        let t = Trie::build(&r, &["A"]).unwrap();
        let mut c = t.cursor();
        c.open();
        c.seek(900);
        c.next();
        let w = c.take_work();
        assert!(w.probes > 0);
        assert!(w.intersect_steps > 0);
        // take_work drains
        assert!(c.take_work().is_zero());
    }

    #[test]
    fn cursors_are_send_and_clone() {
        fn assert_send_clone<T: Send + Clone>() {}
        fn assert_sync<T: Sync>() {}
        assert_send_clone::<TrieCursor<'_>>();
        assert_sync::<Trie>();
        // a clone is an independent cursor with its own stack
        let r = rel();
        let t = Trie::build(&r, &["A", "B", "C"]).unwrap();
        let mut a = t.cursor();
        a.open();
        a.seek(2);
        let mut b = a.clone();
        b.next();
        assert_eq!(a.key(), 2);
        assert_eq!(b.key(), 4);
    }

    #[test]
    fn bad_attr_order_rejected() {
        assert!(Trie::build(&rel(), &["A", "B"]).is_err());
        assert!(Trie::build(&rel(), &["A", "B", "Z"]).is_err());
        assert!(Trie::build(&rel(), &["A", "B", "B"]).is_err());
    }

    fn walk(
        c: &mut TrieCursor<'_>,
        arity: usize,
        prefix: &mut Vec<Value>,
        out: &mut Vec<Vec<Value>>,
    ) {
        if !c.open() {
            return;
        }
        loop {
            if c.at_end() {
                break;
            }
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

    #[test]
    fn trie_enumerates_all_tuples() {
        // depth-first walk of the trie must reproduce the sorted tuple set
        let r = rel();
        let t = Trie::build(&r, &["A", "B", "C"]).unwrap();
        let mut out = Vec::new();
        let mut c = t.cursor();
        walk(&mut c, 3, &mut Vec::new(), &mut out);
        assert_eq!(out, r.rows());
    }
}
