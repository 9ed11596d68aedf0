//! Sorted, deduplicated, **columnar** relations.
//!
//! A relation stores one contiguous `Vec<Value>` per attribute; row `i` is the tuple
//! `(columns[0][i], …, columns[k-1][i])`. Rows are kept lexicographically sorted and
//! deduplicated, which gives set semantics, O(log n) membership and prefix range
//! lookups, and lets [`crate::Trie::build`] run as a single fused pass over the
//! columns (an argsort of row indices — no row materialization).
//!
//! The columnar layout is the storage half of the PR's performance story: scans touch
//! one cache-friendly array per attribute instead of chasing one heap allocation per
//! row, and access-path construction sorts 4-byte/8-byte indices instead of moving
//! `Vec<u64>` rows around.

use crate::error::StorageError;
use crate::schema::Schema;
use crate::Value;
use std::cmp::Ordering;

/// A tuple is a row of dictionary-encoded values, one per schema attribute.
///
/// Tuples are a *materialization* format (query outputs, test fixtures); the relation
/// itself stores columns.
pub type Tuple = Vec<Value>;

/// An in-memory relation: a [`Schema`] plus a lexicographically sorted, deduplicated
/// set of rows stored column-major.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relation {
    schema: Schema,
    /// One sorted-by-row column per attribute; all columns share the same length.
    columns: Vec<Vec<Value>>,
    /// Number of rows (kept explicitly so 0-arity edge cases stay well-defined).
    len: usize,
}

impl Relation {
    /// An empty relation with the given schema.
    pub fn empty(schema: Schema) -> Self {
        let arity = schema.arity();
        Relation {
            schema,
            columns: vec![Vec::new(); arity],
            len: 0,
        }
    }

    /// Build a relation from rows, sorting and deduplicating. Panics if any row's
    /// arity does not match the schema; use [`Relation::try_from_rows`] for a fallible
    /// version.
    pub fn from_rows(schema: Schema, rows: Vec<Tuple>) -> Self {
        Self::try_from_rows(schema, rows).expect("row arity must match schema arity")
    }

    /// Build a relation from rows, sorting and deduplicating.
    pub fn try_from_rows(schema: Schema, rows: Vec<Tuple>) -> Result<Self, StorageError> {
        for row in &rows {
            if row.len() != schema.arity() {
                return Err(StorageError::ArityMismatch {
                    expected: schema.arity(),
                    found: row.len(),
                });
            }
        }
        let mut rows = rows;
        rows.sort_unstable();
        rows.dedup();
        let len = rows.len();
        let mut columns: Vec<Vec<Value>> = (0..schema.arity())
            .map(|_| Vec::with_capacity(len))
            .collect();
        for row in &rows {
            for (c, &v) in row.iter().enumerate() {
                columns[c].push(v);
            }
        }
        Ok(Relation {
            schema,
            columns,
            len,
        })
    }

    /// Build a relation from a row-major flat value buffer (`values.len()` must be
    /// a multiple of the schema arity) — the zero-allocation-per-row result path
    /// of the join engines. When the rows are already in canonical order (sorted,
    /// distinct — which the engines' depth-first enumeration guarantees), the
    /// argsort-and-dedup pass is skipped entirely.
    pub fn try_from_flat_rows(schema: Schema, values: Vec<Value>) -> Result<Self, StorageError> {
        let arity = schema.arity();
        if arity == 0 {
            return Ok(Relation::empty(schema));
        }
        if !values.len().is_multiple_of(arity) {
            return Err(StorageError::ArityMismatch {
                expected: arity,
                found: values.len() % arity,
            });
        }
        let n = values.len() / arity;
        let columns: Vec<Vec<Value>> = (0..arity)
            .map(|c| values.iter().skip(c).step_by(arity).copied().collect())
            .collect();
        let row_cmp = |a: usize, b: usize| -> Ordering {
            for col in &columns {
                match col[a].cmp(&col[b]) {
                    Ordering::Equal => continue,
                    o => return o,
                }
            }
            Ordering::Equal
        };
        let canonical = (1..n).all(|i| row_cmp(i - 1, i) == Ordering::Less);
        if canonical {
            Ok(Self::from_canonical_columns(schema, columns))
        } else {
            Self::try_from_columns(schema, columns)
        }
    }

    /// Build a relation from a row-major flat value buffer whose fields are then
    /// *permuted* per row: output column `c` is field `perm[c]` of each input row.
    /// This fuses the engines' result-packaging pipeline (flat rows in join-variable
    /// order → reorder columns to schema order → canonical sort + dedup) into a
    /// single pack-sort-split pass over contiguous rows, instead of materializing an
    /// intermediate relation and re-sorting it through an index argsort.
    pub fn try_from_flat_rows_permuted(
        schema: Schema,
        values: &[Value],
        perm: &[usize],
    ) -> Result<Self, StorageError> {
        let arity = schema.arity();
        if perm.len() != arity || perm.iter().any(|&p| p >= arity) {
            return Err(StorageError::ArityMismatch {
                expected: arity,
                found: perm.len(),
            });
        }
        if arity == 0 {
            return Ok(Relation::empty(schema));
        }
        if !values.len().is_multiple_of(arity) {
            return Err(StorageError::ArityMismatch {
                expected: arity,
                found: values.len() % arity,
            });
        }
        if arity == 1 {
            let mut col: Vec<Value> = values.to_vec();
            col.sort_unstable();
            col.dedup();
            let len = col.len();
            return Ok(Relation {
                schema,
                columns: vec![col],
                len,
            });
        }
        // Pack each permuted row into a single scalar sort key straight from the
        // flat buffer (no intermediate row materialization) whenever the fields'
        // bit widths fit in one u64.
        if arity <= 8 {
            let mut field_max = vec![0u64; arity];
            for chunk in values.chunks_exact(arity) {
                for (m, &v) in field_max.iter_mut().zip(chunk) {
                    if v > *m {
                        *m = v;
                    }
                }
            }
            let widths: Vec<u32> = perm
                .iter()
                .map(|&p| 64 - field_max[p].leading_zeros())
                .collect();
            let total: u32 = widths.iter().sum();
            if total <= 64 {
                let mut keys: Vec<u64> = values
                    .chunks_exact(arity)
                    .map(|chunk| {
                        let mut k = 0u64;
                        for (&p, &w) in perm.iter().zip(&widths) {
                            // w == 64 implies every other width is 0 and k is still 0
                            k = if w == 64 {
                                chunk[p]
                            } else {
                                (k << w) | chunk[p]
                            };
                        }
                        k
                    })
                    .collect();
                keys.sort_unstable();
                keys.dedup();
                let columns = unpack_keys::<u64>(&keys, &widths);
                let len = keys.len();
                return Ok(Relation {
                    schema,
                    columns,
                    len,
                });
            }
        }
        let columns: Vec<Vec<Value>> = perm
            .iter()
            .map(|&p| values.iter().skip(p).step_by(arity).copied().collect())
            .collect();
        Self::try_from_columns(schema, columns)
    }

    /// Sort + dedup rows already packed as fixed-arity arrays, then split back into
    /// columns. When the per-field bit widths fit, rows are squeezed into single
    /// `u64`/`u128` sort keys (lexicographic order is preserved because each field
    /// occupies a disjoint, more-significant bit range) — sorting scalar keys is
    /// ~3x faster than sorting `[Value; K]` arrays, which in turn beats an index
    /// argsort chasing per-column vectors. This is the canonicalization core for
    /// every low-arity constructor.
    fn canonicalize_packed<const K: usize>(schema: Schema, mut rows: Vec<[Value; K]>) -> Self {
        let mut maxes = [0u64; K];
        for row in &rows {
            for (c, m) in maxes.iter_mut().enumerate() {
                *m = (*m).max(row[c]);
            }
        }
        let widths = maxes.map(|m| 64 - m.leading_zeros());
        let total: u32 = widths.iter().sum();
        let columns = if total <= 64 {
            let mut keys: Vec<u64> = rows
                .iter()
                .map(|row| {
                    let mut k = 0u64;
                    for (c, &w) in widths.iter().enumerate() {
                        // w == 64 implies every other width is 0 and k is still 0
                        k = if w == 64 { row[c] } else { (k << w) | row[c] };
                    }
                    k
                })
                .collect();
            keys.sort_unstable();
            keys.dedup();
            unpack_keys::<u64>(&keys, &widths)
        } else if total <= 128 {
            let mut keys: Vec<u128> = rows
                .iter()
                .map(|row| {
                    let mut k = 0u128;
                    for (c, &w) in widths.iter().enumerate() {
                        k = (k << w) | row[c] as u128;
                    }
                    k
                })
                .collect();
            keys.sort_unstable();
            keys.dedup();
            unpack_keys::<u128>(&keys, &widths)
        } else {
            rows.sort_unstable();
            rows.dedup();
            let mut columns: Vec<Vec<Value>> =
                (0..K).map(|_| Vec::with_capacity(rows.len())).collect();
            for row in &rows {
                for (c, col) in columns.iter_mut().enumerate() {
                    col.push(row[c]);
                }
            }
            columns
        };
        let len = columns.first().map_or(0, |c| c.len());
        Relation {
            schema,
            columns,
            len,
        }
    }

    /// Build a relation directly from columns (all of equal length), sorting rows
    /// lexicographically and deduplicating — the bulk-load path that never touches a
    /// row representation.
    pub fn try_from_columns(
        schema: Schema,
        columns: Vec<Vec<Value>>,
    ) -> Result<Self, StorageError> {
        if columns.len() != schema.arity() {
            return Err(StorageError::ArityMismatch {
                expected: schema.arity(),
                found: columns.len(),
            });
        }
        let n = columns.first().map_or(0, |c| c.len());
        if let Some(bad) = columns.iter().find(|c| c.len() != n) {
            return Err(StorageError::ArityMismatch {
                expected: n,
                found: bad.len(),
            });
        }
        // Low arities (the overwhelmingly common case) repack into contiguous
        // fixed-size rows and sort those; wider schemas fall back to an argsort of
        // row indices gathered through the permutation.
        match columns.len() {
            1 => {
                let mut col = columns.into_iter().next().expect("arity checked");
                col.sort_unstable();
                col.dedup();
                let len = col.len();
                return Ok(Relation {
                    schema,
                    columns: vec![col],
                    len,
                });
            }
            2 => {
                return Ok(Self::canonicalize_packed::<2>(
                    schema,
                    pack_columns::<2>(&columns, n),
                ))
            }
            3 => {
                return Ok(Self::canonicalize_packed::<3>(
                    schema,
                    pack_columns::<3>(&columns, n),
                ))
            }
            4 => {
                return Ok(Self::canonicalize_packed::<4>(
                    schema,
                    pack_columns::<4>(&columns, n),
                ))
            }
            _ => {}
        }
        let cmp = |&a: &usize, &b: &usize| -> Ordering {
            for col in &columns {
                match col[a].cmp(&col[b]) {
                    Ordering::Equal => continue,
                    o => return o,
                }
            }
            Ordering::Equal
        };
        let mut perm: Vec<usize> = (0..n).collect();
        perm.sort_unstable_by(cmp);
        perm.dedup_by(|a, b| cmp(a, b) == Ordering::Equal);
        let sorted: Vec<Vec<Value>> = columns
            .iter()
            .map(|col| perm.iter().map(|&i| col[i]).collect())
            .collect();
        Ok(Relation {
            schema,
            len: perm.len(),
            columns: sorted,
        })
    }

    /// Internal constructor for columns already in canonical (sorted, deduplicated)
    /// row order — used by operators that filter or merge canonical inputs.
    pub(crate) fn from_canonical_columns(schema: Schema, columns: Vec<Vec<Value>>) -> Self {
        debug_assert_eq!(columns.len(), schema.arity());
        let len = columns.first().map_or(0, |c| c.len());
        debug_assert!(columns.iter().all(|c| c.len() == len));
        Relation {
            schema,
            columns,
            len,
        }
    }

    /// Build a binary relation over attributes `(a, b)` from `(Value, Value)` pairs —
    /// the common case of edge relations in graph workloads.
    pub fn from_pairs(a: &str, b: &str, pairs: impl IntoIterator<Item = (Value, Value)>) -> Self {
        let iter = pairs.into_iter();
        let (lo, _) = iter.size_hint();
        let mut ca = Vec::with_capacity(lo);
        let mut cb = Vec::with_capacity(lo);
        for (x, y) in iter {
            ca.push(x);
            cb.push(y);
        }
        Self::try_from_columns(Schema::new(&[a, b]), vec![ca, cb])
            .expect("two columns match binary schema")
    }

    /// The schema of this relation.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Arity (number of attributes).
    pub fn arity(&self) -> usize {
        self.schema.arity()
    }

    /// The column of attribute position `pos` (length [`Relation::len`]).
    pub fn column(&self, pos: usize) -> &[Value] {
        &self.columns[pos]
    }

    /// All columns, in schema order.
    pub fn columns(&self) -> &[Vec<Value>] {
        &self.columns
    }

    /// The column of the named attribute.
    pub fn column_of(&self, attr: &str) -> Result<&[Value], StorageError> {
        Ok(&self.columns[self.schema.require(attr)?])
    }

    /// Materialize row `i` as a tuple.
    pub fn row(&self, i: usize) -> Tuple {
        self.columns.iter().map(|c| c[i]).collect()
    }

    /// Materialize all rows, in sorted order.
    pub fn rows(&self) -> Vec<Tuple> {
        (0..self.len).map(|i| self.row(i)).collect()
    }

    /// Iterator over the sorted rows (each materialized as a [`Tuple`]).
    pub fn iter(&self) -> impl Iterator<Item = Tuple> + '_ {
        (0..self.len).map(|i| self.row(i))
    }

    /// Compare row `i` against `tuple` lexicographically over the leading
    /// `tuple.len()` attributes.
    fn cmp_row_prefix(&self, i: usize, tuple: &[Value]) -> Ordering {
        for (c, &v) in tuple.iter().enumerate() {
            match self.columns[c][i].cmp(&v) {
                Ordering::Equal => continue,
                o => return o,
            }
        }
        Ordering::Equal
    }

    /// Compare row `i` of `self` against row `j` of `other` column-wise (the
    /// schemas must have equal arity). Allocation-free cross-relation comparison.
    fn cmp_rows_across(&self, i: usize, other: &Relation, j: usize) -> Ordering {
        debug_assert_eq!(self.arity(), other.arity());
        for (a, b) in self.columns.iter().zip(&other.columns) {
            match a[i].cmp(&b[j]) {
                Ordering::Equal => continue,
                o => return o,
            }
        }
        Ordering::Equal
    }

    /// Whether `other`'s row `j` occurs in `self` (binary search, no allocation).
    fn contains_row_of(&self, other: &Relation, j: usize) -> bool {
        let pos = self.partition_point(|r, i| r.cmp_rows_across(i, other, j) == Ordering::Less);
        pos < self.len && self.cmp_rows_across(pos, other, j) == Ordering::Equal
    }

    /// Argsort of the rows by the given column positions (ties broken by row index,
    /// i.e. by the canonical lexicographic order — deterministic).
    pub fn sort_perm(&self, positions: &[usize]) -> Vec<usize> {
        argsort_columns(&self.columns, positions, self.len)
    }

    /// [`Relation::sort_perm`] across `threads` scoped workers: each sorts one run
    /// of row indices, then runs are pairwise-merged (also in parallel). The
    /// comparator is a strict total order, so the result is **bit-identical** to
    /// the serial argsort for every thread count. Small relations (or
    /// `threads <= 1`) fall back to the serial sort.
    pub fn sort_perm_threads(&self, positions: &[usize], threads: usize) -> Vec<usize> {
        argsort_columns_threads(&self.columns, positions, self.len, threads)
    }

    /// Insert a single tuple, keeping the relation sorted.
    ///
    /// # Cost model
    ///
    /// **O(n) per call** (every column shifts its tail to make room), i.e.
    /// O(n log n)-per-tuple workloads when access structures are rebuilt per
    /// change — fine for test fixtures and occasional patches, quadratic for
    /// sustained ingest. Live, continuously-mutating relations should go through
    /// the delta-log path instead: [`crate::delta::DeltaRelation::insert`] appends
    /// to an unsorted buffer in O(arity + runs · log n) amortized (membership
    /// check plus its share of seal/compaction merges), and queries run over the
    /// runs directly via the union cursor — see the [`crate::delta`] module docs
    /// for the full cost table. Bulk loads should use [`Relation::from_rows`].
    pub fn insert(&mut self, tuple: Tuple) -> Result<bool, StorageError> {
        if tuple.len() != self.schema.arity() {
            return Err(StorageError::ArityMismatch {
                expected: self.schema.arity(),
                found: tuple.len(),
            });
        }
        let pos = self.partition_point(|r, i| r.cmp_row_prefix(i, &tuple) == Ordering::Less);
        if pos < self.len && self.cmp_row_prefix(pos, &tuple) == Ordering::Equal {
            return Ok(false);
        }
        for (c, &v) in tuple.iter().enumerate() {
            self.columns[c].insert(pos, v);
        }
        self.len += 1;
        Ok(true)
    }

    /// Remove a single tuple, keeping the relation sorted. Returns whether the
    /// tuple was present. O(n) per call, like [`Relation::insert`] — the
    /// full-rebuild baseline for deletes; sustained delete streams should use
    /// [`crate::delta::DeltaRelation::delete`] (tombstones) instead.
    pub fn remove(&mut self, tuple: &[Value]) -> Result<bool, StorageError> {
        if tuple.len() != self.schema.arity() {
            return Err(StorageError::ArityMismatch {
                expected: self.schema.arity(),
                found: tuple.len(),
            });
        }
        let pos = self.partition_point(|r, i| r.cmp_row_prefix(i, tuple) == Ordering::Less);
        if pos >= self.len || self.cmp_row_prefix(pos, tuple) != Ordering::Equal {
            return Ok(false);
        }
        for col in self.columns.iter_mut() {
            col.remove(pos);
        }
        self.len -= 1;
        Ok(true)
    }

    /// First row index for which `pred(self, i)` is false (rows are assumed
    /// partitioned: all `true` rows precede all `false` rows).
    fn partition_point<F: Fn(&Self, usize) -> bool>(&self, pred: F) -> usize {
        let (mut lo, mut hi) = (0usize, self.len);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if pred(self, mid) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Membership test (binary search).
    pub fn contains(&self, tuple: &[Value]) -> bool {
        if tuple.len() != self.arity() {
            return false;
        }
        let lo = self.partition_point(|r, i| r.cmp_row_prefix(i, tuple) == Ordering::Less);
        lo < self.len && self.cmp_row_prefix(lo, tuple) == Ordering::Equal
    }

    /// The contiguous range of row indices whose first `prefix.len()` values equal
    /// `prefix`.
    ///
    /// This is the primitive behind `σ_{A_S = a_S}` selections on the leading
    /// attributes; it runs in O(log n) time.
    pub fn prefix_range(&self, prefix: &[Value]) -> std::ops::Range<usize> {
        let lo = self.partition_point(|r, i| r.cmp_row_prefix(i, prefix) == Ordering::Less);
        let hi = self.partition_point(|r, i| r.cmp_row_prefix(i, prefix) != Ordering::Greater);
        lo..hi
    }

    /// Sorted distinct values of attribute `attr`.
    pub fn distinct_values(&self, attr: &str) -> Result<Vec<Value>, StorageError> {
        let pos = self.schema.require(attr)?;
        let mut vals = self.columns[pos].clone();
        vals.sort_unstable();
        vals.dedup();
        Ok(vals)
    }

    /// Keep the rows whose indices satisfy `keep`, preserving canonical order.
    fn filter_rows<F: Fn(usize) -> bool>(&self, keep: F) -> Relation {
        let mut columns: Vec<Vec<Value>> = vec![Vec::new(); self.arity()];
        for i in 0..self.len {
            if keep(i) {
                for (c, col) in columns.iter_mut().enumerate() {
                    col.push(self.columns[c][i]);
                }
            }
        }
        Relation::from_canonical_columns(self.schema.clone(), columns)
    }

    /// Selection `σ_{attr = value}`.
    pub fn select_eq(&self, attr: &str, value: Value) -> Result<Relation, StorageError> {
        let pos = self.schema.require(attr)?;
        Ok(self.filter_rows(|i| self.columns[pos][i] == value))
    }

    /// Selection by an arbitrary predicate over whole tuples.
    pub fn select_where<F: Fn(&[Value]) -> bool>(&self, pred: F) -> Relation {
        let mut scratch: Tuple = vec![0; self.arity()];
        let mut columns: Vec<Vec<Value>> = vec![Vec::new(); self.arity()];
        for i in 0..self.len {
            for (c, s) in scratch.iter_mut().enumerate() {
                *s = self.columns[c][i];
            }
            if pred(&scratch) {
                for (c, col) in columns.iter_mut().enumerate() {
                    col.push(self.columns[c][i]);
                }
            }
        }
        Relation::from_canonical_columns(self.schema.clone(), columns)
    }

    /// Projection `π_{attrs}` (deduplicating).
    pub fn project(&self, attrs: &[&str]) -> Result<Relation, StorageError> {
        let schema = self.schema.project(attrs)?;
        let positions = self.schema.positions(attrs)?;
        let columns: Vec<Vec<Value>> = positions.iter().map(|&p| self.columns[p].clone()).collect();
        Relation::try_from_columns(schema, columns)
    }

    /// Rename the attributes (positionally), keeping each attribute's type. The new
    /// schema must have the same arity.
    pub fn rename(&self, new_attrs: &[&str]) -> Result<Relation, StorageError> {
        let schema = self.schema.renamed(new_attrs)?;
        Ok(Relation {
            schema,
            columns: self.columns.clone(),
            len: self.len,
        })
    }

    /// Rewrite each column through a per-attribute code remap table and
    /// re-canonicalize: `maps[p]`, when present, maps every old code `c` of column
    /// `p` to `maps[p][c]`; `None` leaves the column untouched. Codes outside a
    /// map's range fail with [`StorageError::UnknownCode`].
    ///
    /// This is the column-rewrite half of dictionary unification: after
    /// [`crate::Dictionary::merge`] produces the remap for a per-relation
    /// dictionary, this rewrites the relation onto the shared dictionary's codes.
    /// Remapping permutes values, so rows are re-sorted and re-deduplicated.
    pub fn remap_columns(&self, maps: &[Option<&[Value]>]) -> Result<Relation, StorageError> {
        if maps.len() != self.arity() {
            return Err(StorageError::ArityMismatch {
                expected: self.arity(),
                found: maps.len(),
            });
        }
        let columns: Vec<Vec<Value>> = self
            .columns
            .iter()
            .zip(maps)
            .map(|(col, map)| match map {
                None => Ok(col.clone()),
                Some(m) => col
                    .iter()
                    .map(|&c| {
                        m.get(c as usize)
                            .copied()
                            .ok_or(StorageError::UnknownCode(c))
                    })
                    .collect(),
            })
            .collect::<Result<_, _>>()?;
        Relation::try_from_columns(self.schema.clone(), columns)
    }

    /// Reorder columns to the order given by `attrs` (which must be a permutation of
    /// the schema) — used to build tries over a global variable order.
    pub fn reorder(&self, attrs: &[&str]) -> Result<Relation, StorageError> {
        if attrs.len() != self.schema.arity() {
            return Err(StorageError::ArityMismatch {
                expected: self.schema.arity(),
                found: attrs.len(),
            });
        }
        self.project(attrs)
    }

    /// Set union (schemas must match exactly).
    pub fn union(&self, other: &Relation) -> Result<Relation, StorageError> {
        self.check_same_schema(other)?;
        let columns: Vec<Vec<Value>> = self
            .columns
            .iter()
            .zip(&other.columns)
            .map(|(a, b)| {
                let mut col = a.clone();
                col.extend_from_slice(b);
                col
            })
            .collect();
        Relation::try_from_columns(self.schema.clone(), columns)
    }

    /// Set difference `self \ other` (schemas must match exactly).
    pub fn difference(&self, other: &Relation) -> Result<Relation, StorageError> {
        self.check_same_schema(other)?;
        Ok(self.filter_rows(|i| !other.contains_row_of(self, i)))
    }

    /// Set intersection (schemas must match exactly).
    pub fn intersect(&self, other: &Relation) -> Result<Relation, StorageError> {
        self.check_same_schema(other)?;
        let (small, large) = if self.len() <= other.len() {
            (self, other)
        } else {
            (other, self)
        };
        Ok(small.filter_rows(|i| large.contains_row_of(small, i)))
    }

    /// Semijoin `self ⋉ other`: keep the tuples of `self` whose projection onto the
    /// shared attributes appears in `other`.
    pub fn semijoin(&self, other: &Relation) -> Result<Relation, StorageError> {
        let common = self.schema.common_attrs(other.schema());
        if common.is_empty() {
            return Err(StorageError::NoJoinAttributes);
        }
        let common_refs: Vec<&str> = common.iter().map(|s| s.as_str()).collect();
        let my_pos = self.schema.positions(&common_refs)?;
        let other_proj = other.project(&common_refs)?;
        Ok(self.filter_rows(|i| {
            let key: Tuple = my_pos.iter().map(|&p| self.columns[p][i]).collect();
            other_proj.contains(&key)
        }))
    }

    /// Antijoin `self ▷ other`: keep the tuples of `self` whose projection onto the
    /// shared attributes does *not* appear in `other`.
    pub fn antijoin(&self, other: &Relation) -> Result<Relation, StorageError> {
        let keep = self.semijoin(other)?;
        self.difference(&keep)
    }

    /// Maximum degree `deg(A_Y | A_X)` of Definition 1 in the paper: the maximum over
    /// bindings `t` of the `X` attributes of the number of distinct `Y`-projections of
    /// tuples matching `t`. With `x_attrs` empty this is simply the number of distinct
    /// `Y`-projections (a cardinality).
    pub fn max_degree(&self, x_attrs: &[&str], y_attrs: &[&str]) -> Result<u64, StorageError> {
        let y_pos = self.schema.positions(y_attrs)?;
        if x_attrs.is_empty() {
            let mut ys: Vec<Tuple> = (0..self.len)
                .map(|i| y_pos.iter().map(|&p| self.columns[p][i]).collect())
                .collect();
            ys.sort_unstable();
            ys.dedup();
            return Ok(ys.len() as u64);
        }
        let x_pos = self.schema.positions(x_attrs)?;
        use std::collections::HashMap;
        let mut groups: HashMap<Tuple, Vec<Tuple>> = HashMap::new();
        for i in 0..self.len {
            let x: Tuple = x_pos.iter().map(|&p| self.columns[p][i]).collect();
            let y: Tuple = y_pos.iter().map(|&p| self.columns[p][i]).collect();
            groups.entry(x).or_default().push(y);
        }
        let mut max = 0u64;
        for (_, mut ys) in groups {
            ys.sort_unstable();
            ys.dedup();
            max = max.max(ys.len() as u64);
        }
        Ok(max)
    }

    /// Whether the functional dependency `X → Y` holds in this relation (every binding
    /// of the `X` attributes determines at most one binding of the `Y` attributes).
    pub fn fd_holds(&self, x_attrs: &[&str], y_attrs: &[&str]) -> Result<bool, StorageError> {
        Ok(self.max_degree(x_attrs, y_attrs)? <= 1)
    }

    fn check_same_schema(&self, other: &Relation) -> Result<(), StorageError> {
        if self.schema != other.schema {
            return Err(StorageError::SchemaMismatch {
                left: self.schema.attrs().to_vec(),
                right: other.schema.attrs().to_vec(),
            });
        }
        Ok(())
    }
}

/// The strict total row order behind [`Relation::sort_perm`] and the delta-log
/// merges: lexicographic on the permuted columns, ties broken by row index (so
/// rows duplicated across concatenated runs keep their run order).
#[inline]
pub(crate) fn cmp_columns_at(
    columns: &[Vec<Value>],
    positions: &[usize],
    a: usize,
    b: usize,
) -> Ordering {
    for &p in positions {
        match columns[p][a].cmp(&columns[p][b]) {
            Ordering::Equal => continue,
            o => return o,
        }
    }
    a.cmp(&b)
}

/// Scalar sort keys that packed rows can be squeezed into: shift/extract in
/// word-sized chunks with per-field widths summing to at most `Self::BITS`.
trait PackedKey: Copy {
    fn field(self, shift: u32, width: u32) -> Value;
}

impl PackedKey for u64 {
    fn field(self, shift: u32, width: u32) -> Value {
        if width == 0 {
            0
        } else {
            (self >> shift) & (u64::MAX >> (64 - width))
        }
    }
}

impl PackedKey for u128 {
    fn field(self, shift: u32, width: u32) -> Value {
        if width == 0 {
            0
        } else {
            ((self >> shift) as u64) & (u64::MAX >> (64 - width))
        }
    }
}

/// Split sorted packed keys back into per-field columns using the bit widths the
/// keys were packed with (field 0 most significant).
fn unpack_keys<T: PackedKey>(keys: &[T], widths: &[u32]) -> Vec<Vec<Value>> {
    let mut shifts = vec![0u32; widths.len()];
    let mut acc = 0u32;
    for c in (0..widths.len()).rev() {
        shifts[c] = acc;
        acc += widths[c];
    }
    let mut columns: Vec<Vec<Value>> = (0..widths.len())
        .map(|_| Vec::with_capacity(keys.len()))
        .collect();
    for &k in keys {
        for (c, col) in columns.iter_mut().enumerate() {
            col.push(k.field(shifts[c], widths[c]));
        }
    }
    columns
}

/// Gather `n` column-major rows into contiguous fixed-arity arrays.
fn pack_columns<const K: usize>(columns: &[Vec<Value>], n: usize) -> Vec<[Value; K]> {
    let mut rows: Vec<[Value; K]> = vec![[0; K]; n];
    for (c, col) in columns.iter().enumerate() {
        for (row, &v) in rows.iter_mut().zip(col) {
            row[c] = v;
        }
    }
    rows
}

/// Argsort of `len` rows of column-major `columns` by `positions` — the serial
/// core of [`Relation::sort_perm`], shared with the delta-log subsystem (whose
/// run concatenations are *not* canonical relations, so this works on raw
/// columns).
pub(crate) fn argsort_columns(
    columns: &[Vec<Value>],
    positions: &[usize],
    len: usize,
) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..len).collect();
    perm.sort_unstable_by(|&a, &b| cmp_columns_at(columns, positions, a, b));
    perm
}

/// [`argsort_columns`] across `threads` scoped workers: sorted runs plus pairwise
/// parallel merges. The comparator is a strict total order, so the result is
/// bit-identical to the serial argsort for every thread count; small inputs (or
/// `threads <= 1`) fall back to the serial sort. This is the parallel merge
/// machinery behind both [`Relation::sort_perm_threads`] and delta-run
/// compaction.
pub(crate) fn argsort_columns_threads(
    columns: &[Vec<Value>],
    positions: &[usize],
    len: usize,
    threads: usize,
) -> Vec<usize> {
    const PAR_SORT_MIN: usize = 4096;
    if threads <= 1 || len < PAR_SORT_MIN {
        return argsort_columns(columns, positions, len);
    }
    let chunk = len.div_ceil(threads);
    let mut runs: Vec<Vec<usize>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..len)
            .step_by(chunk)
            .map(|start| {
                let end = (start + chunk).min(len);
                scope.spawn(move || {
                    let mut run: Vec<usize> = (start..end).collect();
                    run.sort_unstable_by(|&a, &b| cmp_columns_at(columns, positions, a, b));
                    run
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("argsort worker"))
            .collect()
    });
    while runs.len() > 1 {
        runs = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            let mut iter = runs.into_iter();
            while let Some(a) = iter.next() {
                match iter.next() {
                    Some(b) => handles.push(scope.spawn(move || {
                        let mut out = Vec::with_capacity(a.len() + b.len());
                        let (mut i, mut j) = (0usize, 0usize);
                        while i < a.len() && j < b.len() {
                            if cmp_columns_at(columns, positions, a[i], b[j]) == Ordering::Less {
                                out.push(a[i]);
                                i += 1;
                            } else {
                                out.push(b[j]);
                                j += 1;
                            }
                        }
                        out.extend_from_slice(&a[i..]);
                        out.extend_from_slice(&b[j..]);
                        out
                    })),
                    None => handles.push(scope.spawn(move || a)),
                }
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("merge worker"))
                .collect()
        });
    }
    runs.pop().unwrap_or_default()
}

impl std::fmt::Display for Relation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{} [{} tuples]", self.schema, self.len())?;
        for t in self.iter().take(20) {
            writeln!(f, "  {t:?}")?;
        }
        if self.len() > 20 {
            writeln!(f, "  ... ({} more)", self.len() - 20)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r_ab() -> Relation {
        Relation::from_rows(
            Schema::new(&["A", "B"]),
            vec![vec![1, 2], vec![1, 3], vec![2, 3], vec![1, 2]],
        )
    }

    #[test]
    fn from_rows_sorts_and_dedups() {
        let r = r_ab();
        assert_eq!(r.len(), 3);
        assert_eq!(r.rows(), vec![vec![1, 2], vec![1, 3], vec![2, 3]]);
        assert_eq!(r.arity(), 2);
        assert!(!r.is_empty());
    }

    #[test]
    fn columnar_layout_is_exposed() {
        let r = r_ab();
        assert_eq!(r.column(0), &[1, 1, 2]);
        assert_eq!(r.column(1), &[2, 3, 3]);
        assert_eq!(r.column_of("B").unwrap(), &[2, 3, 3]);
        assert!(r.column_of("Z").is_err());
        assert_eq!(r.columns().len(), 2);
        assert_eq!(r.row(1), vec![1, 3]);
    }

    #[test]
    fn from_columns_sorts_and_dedups() {
        let r = Relation::try_from_columns(
            Schema::new(&["A", "B"]),
            vec![vec![2, 1, 1, 1], vec![3, 3, 2, 3]],
        )
        .unwrap();
        assert_eq!(r, r_ab());
        // mismatched column lengths rejected
        assert!(
            Relation::try_from_columns(Schema::new(&["A", "B"]), vec![vec![1], vec![]]).is_err()
        );
        // wrong column count rejected
        assert!(Relation::try_from_columns(Schema::new(&["A", "B"]), vec![vec![1]]).is_err());
    }

    #[test]
    fn arity_mismatch_rejected() {
        let err = Relation::try_from_rows(Schema::new(&["A", "B"]), vec![vec![1]]).unwrap_err();
        assert_eq!(
            err,
            StorageError::ArityMismatch {
                expected: 2,
                found: 1
            }
        );
    }

    #[test]
    fn from_pairs_builds_edge_relation() {
        let r = Relation::from_pairs("A", "B", vec![(3, 4), (1, 2), (3, 4)]);
        assert_eq!(r.len(), 2);
        assert_eq!(r.schema().attrs(), &["A".to_string(), "B".to_string()]);
    }

    #[test]
    fn insert_keeps_sorted_and_reports_novelty() {
        let mut r = Relation::empty(Schema::new(&["A"]));
        assert!(r.insert(vec![5]).unwrap());
        assert!(r.insert(vec![1]).unwrap());
        assert!(!r.insert(vec![5]).unwrap());
        assert_eq!(r.rows(), vec![vec![1], vec![5]]);
        assert!(r.insert(vec![1, 2]).is_err());
    }

    #[test]
    fn remove_deletes_and_reports_presence() {
        let mut r = r_ab();
        assert!(r.remove(&[1, 3]).unwrap());
        assert!(!r.remove(&[1, 3]).unwrap());
        assert_eq!(r.rows(), vec![vec![1, 2], vec![2, 3]]);
        assert!(r.remove(&[1]).is_err());
    }

    #[test]
    fn contains_and_prefix_range() {
        let r = r_ab();
        assert!(r.contains(&[1, 3]));
        assert!(!r.contains(&[3, 1]));
        assert!(!r.contains(&[1])); // arity mismatch is simply absent
        assert_eq!(r.prefix_range(&[1]), 0..2);
        assert_eq!(r.prefix_range(&[2]), 2..3);
        assert!(r.prefix_range(&[9]).is_empty());
        assert_eq!(r.prefix_range(&[]), 0..3);
    }

    #[test]
    fn distinct_values_sorted() {
        let r = r_ab();
        assert_eq!(r.distinct_values("A").unwrap(), vec![1, 2]);
        assert_eq!(r.distinct_values("B").unwrap(), vec![2, 3]);
        assert!(r.distinct_values("Z").is_err());
    }

    #[test]
    fn select_eq_and_where() {
        let r = r_ab();
        let s = r.select_eq("A", 1).unwrap();
        assert_eq!(s.len(), 2);
        let w = r.select_where(|t| t[0] + t[1] == 5);
        assert_eq!(w.len(), 1); // only (2,3) sums to 5
        assert_eq!(w.rows(), vec![vec![2, 3]]);
    }

    #[test]
    fn project_dedups() {
        let r = r_ab();
        let p = r.project(&["A"]).unwrap();
        assert_eq!(p.rows(), vec![vec![1], vec![2]]);
        let p2 = r.project(&["B", "A"]).unwrap();
        assert_eq!(p2.schema().attrs(), &["B".to_string(), "A".to_string()]);
        assert!(p2.contains(&[2, 1]));
    }

    #[test]
    fn rename_and_reorder() {
        let r = r_ab();
        let rn = r.rename(&["X", "Y"]).unwrap();
        assert_eq!(rn.schema().attrs(), &["X".to_string(), "Y".to_string()]);
        assert_eq!(rn.len(), r.len());
        assert!(r.rename(&["X"]).is_err());
        let ro = r.reorder(&["B", "A"]).unwrap();
        assert!(ro.contains(&[2, 1]));
        assert!(r.reorder(&["A"]).is_err());
    }

    #[test]
    fn union_difference_intersect() {
        let r = r_ab();
        let s = Relation::from_rows(Schema::new(&["A", "B"]), vec![vec![1, 2], vec![9, 9]]);
        let u = r.union(&s).unwrap();
        assert_eq!(u.len(), 4);
        let d = r.difference(&s).unwrap();
        assert_eq!(d.len(), 2);
        assert!(!d.contains(&[1, 2]));
        let i = r.intersect(&s).unwrap();
        assert_eq!(i.rows(), vec![vec![1, 2]]);
        let bad = Relation::empty(Schema::new(&["X"]));
        assert!(r.union(&bad).is_err());
        assert!(r.difference(&bad).is_err());
        assert!(r.intersect(&bad).is_err());
    }

    #[test]
    fn semijoin_and_antijoin() {
        let r = r_ab();
        let s = Relation::from_rows(Schema::new(&["B", "C"]), vec![vec![3, 7]]);
        let sj = r.semijoin(&s).unwrap();
        assert_eq!(sj.rows(), vec![vec![1, 3], vec![2, 3]]);
        let aj = r.antijoin(&s).unwrap();
        assert_eq!(aj.rows(), vec![vec![1, 2]]);
        let disjoint = Relation::empty(Schema::new(&["Z"]));
        assert_eq!(
            r.semijoin(&disjoint).unwrap_err(),
            StorageError::NoJoinAttributes
        );
    }

    #[test]
    fn degrees_and_fds() {
        // A=1 has B in {2,3}; A=2 has B in {3}
        let r = r_ab();
        assert_eq!(r.max_degree(&["A"], &["B"]).unwrap(), 2);
        assert_eq!(r.max_degree(&["B"], &["A"]).unwrap(), 2);
        assert_eq!(r.max_degree(&[], &["A"]).unwrap(), 2);
        assert_eq!(r.max_degree(&[], &["A", "B"]).unwrap(), 3);
        assert!(!r.fd_holds(&["A"], &["B"]).unwrap());
        let key = Relation::from_rows(Schema::new(&["K", "V"]), vec![vec![1, 10], vec![2, 20]]);
        assert!(key.fd_holds(&["K"], &["V"]).unwrap());
    }

    #[test]
    fn sort_perm_orders_by_requested_columns() {
        let r = Relation::from_rows(
            Schema::new(&["A", "B"]),
            vec![vec![1, 9], vec![2, 3], vec![3, 3]],
        );
        // sort by B then A: rows (2,3)=idx1, (3,3)=idx2, (1,9)=idx0
        assert_eq!(r.sort_perm(&[1, 0]), vec![1, 2, 0]);
        // identity prefix: already canonical
        assert_eq!(r.sort_perm(&[0, 1]), vec![0, 1, 2]);
    }

    #[test]
    fn flat_rows_build_canonical_and_noncanonical() {
        // already canonical: the fast path must not reorder anything
        let canon =
            Relation::try_from_flat_rows(Schema::new(&["A", "B"]), vec![1, 2, 1, 3, 2, 1]).unwrap();
        assert_eq!(canon.rows(), vec![vec![1, 2], vec![1, 3], vec![2, 1]]);
        // unsorted + duplicated input takes the canonicalizing path
        let messy =
            Relation::try_from_flat_rows(Schema::new(&["A", "B"]), vec![2, 1, 1, 2, 2, 1, 1, 2])
                .unwrap();
        assert_eq!(messy.rows(), vec![vec![1, 2], vec![2, 1]]);
        // arity mismatch is rejected; empty input and 0-arity degenerate cleanly
        assert!(Relation::try_from_flat_rows(Schema::new(&["A", "B"]), vec![1, 2, 3]).is_err());
        assert!(Relation::try_from_flat_rows(Schema::new(&["A"]), vec![])
            .unwrap()
            .is_empty());
    }

    #[test]
    fn rename_preserves_types() {
        use crate::schema::AttrType;
        let schema = Schema::with_types(&["name", "n"], &[AttrType::Str, AttrType::Int]);
        let r = Relation::from_rows(schema, vec![vec![0, 10], vec![1, 20]]);
        let rn = r.rename(&["X", "Y"]).unwrap();
        assert_eq!(rn.schema().types(), &[AttrType::Str, AttrType::Int]);
    }

    #[test]
    fn remap_columns_rewrites_and_recanonicalizes() {
        let r = Relation::from_rows(
            Schema::new(&["A", "B"]),
            vec![vec![0, 1], vec![1, 0], vec![2, 2]],
        );
        // remap column A through [2, 0, 1] (0->2, 1->0, 2->1), leave B untouched
        let map: Vec<Value> = vec![2, 0, 1];
        let out = r.remap_columns(&[Some(&map), None]).unwrap();
        assert_eq!(out.rows(), vec![vec![0, 0], vec![1, 2], vec![2, 1]]);
        // out-of-range codes fail loudly
        let short: Vec<Value> = vec![0];
        assert_eq!(
            r.remap_columns(&[Some(&short), None]).unwrap_err(),
            StorageError::UnknownCode(1)
        );
        // map count must match arity
        assert!(matches!(
            r.remap_columns(&[None]).unwrap_err(),
            StorageError::ArityMismatch { .. }
        ));
    }

    #[test]
    fn display_truncates() {
        let rows: Vec<Tuple> = (0..30).map(|i| vec![i]).collect();
        let r = Relation::from_rows(Schema::new(&["A"]), rows);
        let s = format!("{r}");
        assert!(s.contains("30 tuples"));
        assert!(s.contains("more"));
    }

    #[test]
    fn empty_relation_behaves() {
        let r = Relation::empty(Schema::new(&["A", "B"]));
        assert!(r.is_empty());
        assert_eq!(r.distinct_values("A").unwrap(), Vec::<Value>::new());
        assert_eq!(r.max_degree(&["A"], &["B"]).unwrap(), 0);
        assert!(r.fd_holds(&["A"], &["B"]).unwrap());
        assert!(r.prefix_range(&[1]).is_empty());
    }
}
