//! [`TrieAccess`] — the common cursor interface both join algorithms are written
//! against.
//!
//! The worst-case optimal join algorithms of the paper need exactly one capability
//! from storage: positioned enumeration of the sorted set of values extending a bound
//! prefix, with a least-upper-bound `seek` so that set intersections run in time
//! proportional to the smallest set (Section 2). Two cursors provide it:
//!
//! * [`crate::TrieCursor`] over a CSR-flattened [`crate::Trie`] — contiguous sorted
//!   sibling groups, galloping `seek`; the one static access path, shared by
//!   Generic Join and Leapfrog Triejoin;
//! * [`crate::DeltaCursor`] over a [`crate::DeltaAccess`] — the union cursor over a
//!   live delta log's runs, merging each sibling group on `open`.
//!
//! `TrieAccess` abstracts over both so that Generic Join and Leapfrog Triejoin in
//! `wcoj-core` are written once. The engines are *generic* over `C: TrieAccess`, so
//! the hot loops monomorphize — no per-seek virtual dispatch. To mix static and
//! delta-backed atoms within one query, wrap each cursor in [`CursorKind`] (a
//! two-variant enum whose dispatch is a predictable branch, not a vtable call);
//! the trait remains object-safe for callers that really want `dyn`.
//!
//! Every cursor is `Send + Clone`: it borrows its (immutable, `Sync`) access
//! structure and owns its stack plus private [`CursorWork`] tallies, which the
//! engine drains via [`TrieAccess::take_work`]. That is what lets morsel-driven
//! parallel workers each hold a private cursor over one shared structure.
//!
//! # Contract
//!
//! A cursor is a stack of *sibling groups*. At depth `d` the cursor is positioned at
//! one value of the sorted group of distinct values extending the length-`d-1` prefix
//! chosen at shallower depths. `open` descends into the children of the current value,
//! `up` pops back, `next`/`seek` move within the current group and never escape it.
//! `seek` only moves forward (targets must be non-decreasing between `open`s — the
//! leapfrog discipline); `reposition` may move in either direction but only to keys
//! whose discovery was already paid for elsewhere, so it records no work.

use crate::delta::DeltaCursor;
use crate::stats::CursorWork;
use crate::trie::TrieCursor;
use crate::Value;

/// The linear-iterator interface over a trie-shaped view of a relation, as required
/// by Leapfrog Triejoin (Veldhuizen 2014) and Generic Join (Algorithm 2 of the
/// paper).
pub trait TrieAccess {
    /// Number of levels (the arity of the underlying relation).
    fn arity(&self) -> usize;

    /// Current depth: number of levels opened (0 = at the root, no key).
    fn depth(&self) -> usize;

    /// Descend into the sorted group of values extending the current prefix.
    /// Returns `false` without moving if there is no deeper level or the group is
    /// empty.
    fn open(&mut self) -> bool;

    /// Ascend one level; no-op at the root.
    fn up(&mut self);

    /// The value at the cursor's position. Panics at the root or past the end of the
    /// current group.
    fn key(&self) -> Value;

    /// Whether the cursor has run past the last value of its current group (always
    /// true at the root).
    fn at_end(&self) -> bool;

    /// Advance to the next value in the group. Returns `false` when that moves past
    /// the end.
    fn next(&mut self) -> bool;

    /// Position at the least value `>= target` in the current group. Returns `false`
    /// (and leaves the cursor `at_end`) if there is none. Forward-only.
    fn seek(&mut self, target: Value) -> bool;

    /// Position at the value exactly `target`, searching the whole group (may move
    /// backward). Records no work: callers use it to re-position at keys whose
    /// search cost was already accounted (see the module docs). Returns whether the
    /// value is present.
    fn reposition(&mut self, target: Value) -> bool;

    /// Forward-only [`TrieAccess::reposition`]: `target` must be `>=` the current
    /// key. Uncounted like `reposition`, but monotone, so implementations can
    /// search from the cursor's position instead of the whole group — the fast
    /// path for visiting kernel-discovered keys in ascending order. Returns
    /// whether the value is present.
    fn advance_to(&mut self, target: Value) -> bool {
        self.reposition(target)
    }

    /// The sorted values remaining in the current group from the cursor's position
    /// onward (empty at the root).
    fn remaining(&self) -> &[Value];

    /// Number of values remaining in the current group from the cursor's position —
    /// the fan-out estimate Generic Join uses to intersect smallest-first. Returns 0
    /// at the root.
    fn group_size(&self) -> usize {
        self.remaining().len()
    }

    /// Drain the cursor's private work tallies (resetting them to zero). Engines
    /// call this once per cursor at the end of a run and absorb the result into
    /// their [`crate::WorkCounter`].
    fn take_work(&mut self) -> CursorWork;
}

impl TrieAccess for TrieCursor<'_> {
    fn arity(&self) -> usize {
        TrieCursor::arity(self)
    }

    fn depth(&self) -> usize {
        TrieCursor::depth(self)
    }

    fn open(&mut self) -> bool {
        TrieCursor::open(self)
    }

    fn up(&mut self) {
        TrieCursor::up(self)
    }

    fn key(&self) -> Value {
        TrieCursor::key(self)
    }

    fn at_end(&self) -> bool {
        TrieCursor::at_end(self)
    }

    fn next(&mut self) -> bool {
        TrieCursor::next(self)
    }

    fn seek(&mut self, target: Value) -> bool {
        TrieCursor::seek(self, target)
    }

    fn reposition(&mut self, target: Value) -> bool {
        TrieCursor::reposition(self, target)
    }

    fn advance_to(&mut self, target: Value) -> bool {
        TrieCursor::advance_to(self, target)
    }

    fn remaining(&self) -> &[Value] {
        TrieCursor::remaining(self)
    }

    fn take_work(&mut self) -> CursorWork {
        TrieCursor::take_work(self)
    }
}

/// A cursor over either structure, dispatching through a two-variant enum instead
/// of a vtable — the composition point for queries that mix static (trie-backed)
/// and delta-backed atoms while keeping the engines' hot loops monomorphized.
#[derive(Debug, Clone)]
pub enum CursorKind<'a> {
    /// A cursor over a CSR [`crate::Trie`].
    Trie(TrieCursor<'a>),
    /// A delta-log union cursor over a [`crate::delta::DeltaAccess`] — the live
    /// (base + delta runs + tombstones) view of a
    /// [`crate::delta::DeltaRelation`].
    Delta(DeltaCursor<'a>),
}

impl<'a> From<TrieCursor<'a>> for CursorKind<'a> {
    fn from(c: TrieCursor<'a>) -> Self {
        CursorKind::Trie(c)
    }
}

impl<'a> From<DeltaCursor<'a>> for CursorKind<'a> {
    fn from(c: DeltaCursor<'a>) -> Self {
        CursorKind::Delta(c)
    }
}

macro_rules! dispatch {
    ($self:ident, $c:ident => $e:expr) => {
        match $self {
            CursorKind::Trie($c) => $e,
            CursorKind::Delta($c) => $e,
        }
    };
}

impl TrieAccess for CursorKind<'_> {
    fn arity(&self) -> usize {
        dispatch!(self, c => c.arity())
    }

    fn depth(&self) -> usize {
        dispatch!(self, c => c.depth())
    }

    fn open(&mut self) -> bool {
        dispatch!(self, c => c.open())
    }

    fn up(&mut self) {
        dispatch!(self, c => c.up())
    }

    fn key(&self) -> Value {
        dispatch!(self, c => c.key())
    }

    fn at_end(&self) -> bool {
        dispatch!(self, c => c.at_end())
    }

    fn next(&mut self) -> bool {
        dispatch!(self, c => c.next())
    }

    fn seek(&mut self, target: Value) -> bool {
        dispatch!(self, c => c.seek(target))
    }

    fn reposition(&mut self, target: Value) -> bool {
        dispatch!(self, c => c.reposition(target))
    }

    fn advance_to(&mut self, target: Value) -> bool {
        dispatch!(self, c => TrieAccess::advance_to(c, target))
    }

    fn remaining(&self) -> &[Value] {
        dispatch!(self, c => TrieAccess::remaining(c))
    }

    fn group_size(&self) -> usize {
        dispatch!(self, c => c.group_size())
    }

    fn take_work(&mut self) -> CursorWork {
        dispatch!(self, c => c.take_work())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::{DeltaAccess, DeltaRelation};
    use crate::relation::Relation;
    use crate::schema::Schema;
    use crate::trie::Trie;

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

    /// Depth-first enumeration through the trait — must reproduce the sorted tuples
    /// identically for both cursors.
    fn enumerate<C: TrieAccess>(c: &mut C, arity: usize) -> Vec<Vec<Value>> {
        let mut out = Vec::new();
        let mut prefix = Vec::new();
        walk(c, arity, &mut prefix, &mut out);
        out
    }

    fn walk<C: TrieAccess>(
        c: &mut C,
        arity: usize,
        prefix: &mut Vec<Value>,
        out: &mut Vec<Vec<Value>>,
    ) {
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

    #[test]
    fn both_backends_enumerate_identically() {
        let r = rel();
        let trie = Trie::build(&r, &["A", "B", "C"]).unwrap();
        let delta = DeltaRelation::from_relation(r.clone());
        let access = DeltaAccess::build(&delta, &["A", "B", "C"], 1).unwrap();
        let from_trie = enumerate(&mut trie.cursor(), 3);
        let from_delta = enumerate(&mut access.cursor(), 3);
        assert_eq!(from_trie, r.rows());
        assert_eq!(from_delta, r.rows());
    }

    #[test]
    fn cursor_kind_matches_concrete_navigation() {
        let r = rel();
        let trie = Trie::build(&r, &["A", "B", "C"]).unwrap();
        let delta = DeltaRelation::from_relation(r.clone());
        let access = DeltaAccess::build(&delta, &["A", "B", "C"], 1).unwrap();
        let mut cursors: Vec<CursorKind> = vec![trie.cursor().into(), access.cursor().into()];
        for c in cursors.iter_mut() {
            assert_eq!(c.arity(), 3);
            assert!(c.at_end()); // root
            assert_eq!(c.group_size(), 0);
            assert!(c.open());
            assert_eq!(c.depth(), 1);
            assert_eq!(c.key(), 1);
            assert_eq!(c.group_size(), 3); // A in {1, 2, 4}
            assert_eq!(TrieAccess::remaining(c), &[1, 2, 4]);
            assert!(c.seek(3));
            assert_eq!(c.key(), 4); // lub of 3
            assert!(c.reposition(1)); // backward, uncounted
            assert_eq!(c.key(), 1);
            assert!(c.reposition(4));
            assert!(c.open());
            assert_eq!(c.key(), 1); // B under A=4
            assert!(c.open());
            assert_eq!(c.group_size(), 2); // C in {1, 2}
            assert!(c.next());
            assert_eq!(c.key(), 2);
            assert!(!c.next());
            assert!(c.at_end());
            c.up();
            c.up();
            assert_eq!(c.depth(), 1);
            assert!(!c.seek(5)); // nothing >= 5 at level A
            assert!(c.at_end());
            assert!(!c.take_work().is_zero());
        }
    }

    #[test]
    fn trait_remains_object_safe() {
        let r = rel();
        let trie = Trie::build(&r, &["A", "B", "C"]).unwrap();
        let mut boxed: Box<dyn TrieAccess + '_> = Box::new(trie.cursor());
        assert!(boxed.open());
        assert_eq!(boxed.key(), 1);
    }

    #[test]
    fn cursors_are_send_clone_and_indexes_sync() {
        fn assert_send_clone<T: Send + Clone>() {}
        fn assert_sync<T: Sync>() {}
        assert_send_clone::<TrieCursor<'_>>();
        assert_send_clone::<DeltaCursor<'_>>();
        assert_send_clone::<CursorKind<'_>>();
        assert_sync::<Trie>();
        assert_sync::<DeltaAccess<'_>>();
    }

    #[test]
    fn empty_relation_cursors() {
        let r = Relation::empty(Schema::new(&["A", "B"]));
        let trie = Trie::build(&r, &["A", "B"]).unwrap();
        let delta = DeltaRelation::from_relation(r);
        let access = DeltaAccess::build(&delta, &["A", "B"], 1).unwrap();
        let mut tc = trie.cursor();
        let mut dc = access.cursor();
        assert!(!TrieAccess::open(&mut tc));
        assert!(!TrieAccess::open(&mut dc));
        assert_eq!(TrieAccess::arity(&dc), 2);
    }
}
