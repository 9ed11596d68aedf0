//! Adaptive multi-way sorted-set intersection kernels.
//!
//! Every variable extension in a worst-case optimal join is a multi-way
//! intersection of sorted sets (the "intersection in time proportional to the
//! smaller set" primitive of Section 2 of the paper). The asymptotic discipline —
//! iterate the smallest set, search the others — admits a log-factor of freedom
//! that dominates *constants* in practice: the best machine kernel depends on the
//! relative sizes and the value density of the sets being intersected.
//!
//! This module offers three kernels plus a per-intersection heuristic:
//!
//! * [`KernelKind::Merge`] — branchless two-pointer merge, pairwise
//!   smallest-first. `O(Σ|L_i|)` with no data-dependent branches in the hot loop;
//!   the fastest choice when the sets have comparable sizes.
//! * [`KernelKind::Gallop`] — iterate the smallest set, gallop (exponential then
//!   binary search) in the others with monotone frontiers.
//!   `O(k · m · log(M/m))`; the only safe choice when one set dwarfs another,
//!   and the kernel whose cost telescopes into the AGM bound.
//! * [`KernelKind::Bitmap`] — for small dense domains: materialize each set's
//!   span-window as a bitset and intersect word-parallel (64 values per AND).
//!   `O(Σ|L_i| + k · span/64)`; wins when the common span is a few thousand
//!   values or less, as in skewed hub-and-spoke data and small-domain cliques.
//!
//! [`KernelPolicy::Adaptive`] (the default) picks per intersection using the
//! common span and the size ratio; the other policy values force one kernel,
//! which is what the differential tests use to prove all kernels compute
//! bit-identical results. Every invocation is recorded in the
//! [`WorkCounter`] kernel breakdown (`kernel_merge` / `kernel_gallop` /
//! `kernel_bitmap`), so adaptivity is auditable per query.
//!
//! # Work accounting
//!
//! * Gallop records `intersect_steps` (smallest-set elements consumed) and
//!   `probes` (galloping search probes) — the classic tallies.
//! * Merge records `comparisons` (two-pointer loop iterations).
//! * Bitmap records `comparisons` (elements scanned into bitsets) and `probes`
//!   (bitset words touched).
//!
//! The adaptive policy only chooses merge when `max/min ≤ 8` and bitmap when the
//! span is within a constant factor of the smallest set, so every kernel's cost
//! stays `O(m)` up to the same log/constant factors the paper's analyses absorb —
//! adaptivity never gives up worst-case optimality.

use crate::simd::{self, SimdLevel};
use crate::stats::WorkCounter;
use crate::Value;

/// Which intersection kernel the execution layer should run. Carried through
/// `ExecOptions` in `wcoj-core`; [`KernelPolicy::Adaptive`] is the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelPolicy {
    /// Choose per intersection by the span/size-ratio heuristic ([`choose_kernel`]).
    #[default]
    Adaptive,
    /// Force the branchless pairwise merge kernel.
    Merge,
    /// Force the smallest-driven galloping kernel.
    Gallop,
    /// Force the small-domain bitmap kernel (falls back to galloping when the
    /// common span is too wide for bitsets to be affordable).
    Bitmap,
}

impl KernelPolicy {
    /// All policy values, for differential tests sweeping the policy space.
    pub const ALL: [KernelPolicy; 4] = [
        KernelPolicy::Adaptive,
        KernelPolicy::Merge,
        KernelPolicy::Gallop,
        KernelPolicy::Bitmap,
    ];
}

/// The concrete kernel that ran — what the adaptive policy chose (or the forced
/// kernel after fallbacks). Recorded per invocation in the [`WorkCounter`]
/// breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Branchless pairwise merge.
    Merge,
    /// Smallest-driven galloping search.
    Gallop,
    /// Span-windowed bitset AND.
    Bitmap,
}

/// Merge is chosen when the largest list is at most this many times the smallest:
/// below that ratio the merge kernel's `O(m + M)` beats galloping's branchy
/// `O(m log(M/m))` on real hardware.
pub const MERGE_MAX_RATIO: usize = 8;

/// Bitmap is considered only when the common span is at most this many values
/// (64 machine words — small enough to live in L1).
pub const BITMAP_MAX_SPAN: u64 = 4096;

/// ... and the span must be within this factor of the smallest list, so the
/// `span/64` word walk stays proportional to the smallest set.
pub const BITMAP_SPAN_PER_ELEMENT: u64 = 16;

/// The kernel-selection thresholds above plus the cursors' linear-seek cutoff,
/// as one value. The engines read the constants directly; this struct exists
/// only so the end-to-end benchmark (`svcbench`) can print them in its host
/// report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelCalibration {
    /// [`MERGE_MAX_RATIO`].
    pub merge_max_ratio: usize,
    /// [`BITMAP_MAX_SPAN`].
    pub bitmap_max_span: u64,
    /// [`BITMAP_SPAN_PER_ELEMENT`].
    pub bitmap_span_per_element: u64,
    /// Seek windows at or below this length use a linear scan instead of galloping.
    pub linear_seek_max: usize,
}

impl KernelCalibration {
    /// The thresholds every query runs with: the module constants.
    pub const fn host() -> KernelCalibration {
        KernelCalibration {
            merge_max_ratio: MERGE_MAX_RATIO,
            bitmap_max_span: BITMAP_MAX_SPAN,
            bitmap_span_per_element: BITMAP_SPAN_PER_ELEMENT,
            linear_seek_max: crate::ops::LINEAR_SEEK_MAX,
        }
    }

    /// Serialize as a single-line JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"merge_max_ratio\":{},\"bitmap_max_span\":{},\"bitmap_span_per_element\":{},\"linear_seek_max\":{}}}",
            self.merge_max_ratio, self.bitmap_max_span, self.bitmap_span_per_element, self.linear_seek_max
        )
    }
}

/// Lists at or below this length skip the heuristic and merge directly — the
/// kernel-choice arithmetic would cost more than the intersection.
const TINY_LIST: usize = 4;

/// Stack-allocated frontier capacity: intersections of up to this many lists run
/// without heap allocation for their bookkeeping (queries with more atoms per
/// variable fall back to a `Vec`). The execution layer sizes its slice-gather
/// buffers against the same constant.
pub const MAX_INLINE_LISTS: usize = 16;

/// Pick the kernel for `lists` (all non-empty) whose common span is `[lo, hi]`.
/// Exposed so tests and experiments can audit the heuristic directly.
pub fn choose_kernel(lists: &[&[Value]], lo: Value, hi: Value) -> KernelKind {
    let m = lists.iter().map(|l| l.len()).min().unwrap_or(0);
    let max_len = lists.iter().map(|l| l.len()).max().unwrap_or(0);
    if m <= TINY_LIST {
        return if max_len <= MERGE_MAX_RATIO * m.max(1) {
            KernelKind::Merge
        } else {
            KernelKind::Gallop
        };
    }
    let span = hi - lo + 1;
    if span <= BITMAP_MAX_SPAN && span <= BITMAP_SPAN_PER_ELEMENT * m as u64 {
        KernelKind::Bitmap
    } else if max_len <= MERGE_MAX_RATIO * m {
        KernelKind::Merge
    } else {
        KernelKind::Gallop
    }
}

/// Intersect any number of sorted, deduplicated value slices under `policy`,
/// returning a fresh vector. See [`intersect_into`] for the allocation-reusing
/// variant the engines' hot loops use.
pub fn intersect(lists: &[&[Value]], policy: KernelPolicy, counter: &WorkCounter) -> Vec<Value> {
    let mut out = Vec::new();
    intersect_into(&mut out, lists, policy, counter);
    out
}

/// Intersect `lists` into `out` (cleared first) under `policy`, recording work
/// and the kernel choice into `counter`. All kernels produce identical output:
/// the ascending sorted intersection. Runs at the detected SIMD level; the SIMD
/// level never changes output or counters. Returns the kernel that ran (`None`
/// when a short-circuit skipped the kernel layer).
pub fn intersect_into(
    out: &mut Vec<Value>,
    lists: &[&[Value]],
    policy: KernelPolicy,
    counter: &WorkCounter,
) -> Option<KernelKind> {
    intersect_into_at(simd::active_level(), out, lists, policy, counter)
}

/// [`intersect_into`] at an explicit SIMD level — the entry point the execution
/// layer calls in its hot loop (it resolves the level once per query) and
/// differential tests use to pin the code path. Returns the kernel that ran,
/// so tracing can attribute the choice per level; `None` means a short-circuit
/// (empty operand, single list, disjoint spans) answered before any kernel
/// dispatched. The return value is derived from state the function computes
/// anyway, so ignoring it costs nothing.
pub fn intersect_into_at(
    level: SimdLevel,
    out: &mut Vec<Value>,
    lists: &[&[Value]],
    policy: KernelPolicy,
    counter: &WorkCounter,
) -> Option<KernelKind> {
    out.clear();
    if lists.is_empty() || lists.iter().any(|l| l.is_empty()) {
        return None;
    }
    if lists.len() == 1 {
        // degenerate "intersection": enumerate the single set
        counter.add_intersect_steps(lists[0].len() as u64);
        out.extend_from_slice(lists[0]);
        return None;
    }
    // Common span prefilter: the intersection lives in [max of firsts, min of
    // lasts]. Disjoint spans short-circuit before any kernel runs.
    let lo = lists.iter().map(|l| l[0]).max().expect("non-empty");
    let hi = lists
        .iter()
        .map(|l| *l.last().unwrap())
        .min()
        .expect("non-empty");
    if lo > hi {
        return None;
    }
    let kind = match policy {
        KernelPolicy::Adaptive => choose_kernel(lists, lo, hi),
        KernelPolicy::Merge => KernelKind::Merge,
        KernelPolicy::Gallop => KernelKind::Gallop,
        KernelPolicy::Bitmap => {
            // a forced bitmap over a wide sparse span would allocate far more
            // words than there are elements; degrade to galloping
            let words = (hi - lo) / 64 + 1;
            let total: usize = lists.iter().map(|l| l.len()).sum();
            if words > 2 * (total as u64 + 8) {
                KernelKind::Gallop
            } else {
                KernelKind::Bitmap
            }
        }
    };
    counter.add_kernel(kind);
    match kind {
        KernelKind::Merge => merge_intersect(level, out, lists, counter),
        KernelKind::Gallop => gallop_intersect(out, lists, counter),
        KernelKind::Bitmap => bitmap_intersect(out, lists, lo, hi, counter),
    }
    Some(kind)
}

/// Branchless two-pointer intersection of two sorted slices, appending to `out`.
/// Returns the number of loop iterations (= comparisons).
#[inline]
fn merge2(out: &mut Vec<Value>, a: &[Value], b: &[Value]) -> u64 {
    let (mut i, mut j) = (0usize, 0usize);
    let mut cmps = 0u64;
    while i < a.len() && j < b.len() {
        let x = a[i];
        let y = b[j];
        if x == y {
            out.push(x);
        }
        // both advances are data-independent selects, not branches
        i += (x <= y) as usize;
        j += (y <= x) as usize;
        cmps += 1;
    }
    cmps
}

/// The comparison count the scalar [`merge2`] loop performs on `(a, b)`, in
/// closed form, given the number of matches `m`.
///
/// Every scalar iteration advances `i + j` by 1 (strict inequality) or 2
/// (match), so with terminal positions `(fi, fj)` the iteration count is
/// `fi + fj - m`. The terminal positions follow from the last elements: if
/// `a_last < b_last` the loop ends by exhausting `a` with `j` at the number of
/// `b` values `<= a_last` (symmetrically for `>`); equal last elements exhaust
/// both. This lets the SIMD block kernel — which takes a different path through
/// the data — charge *exactly* the scalar comparison tally.
fn merge2_cost(a: &[Value], b: &[Value], m: u64) -> u64 {
    if a.is_empty() || b.is_empty() {
        return 0;
    }
    let a_last = a[a.len() - 1];
    let b_last = b[b.len() - 1];
    let (fi, fj) = match a_last.cmp(&b_last) {
        std::cmp::Ordering::Equal => (a.len(), b.len()),
        std::cmp::Ordering::Less => (a.len(), b.partition_point(|&y| y <= a_last)),
        std::cmp::Ordering::Greater => (a.partition_point(|&x| x <= b_last), b.len()),
    };
    (fi + fj) as u64 - m
}

/// Two-way merge intersection at `level`, appending to `out` and returning the
/// scalar-equivalent comparison count (direct for scalar, closed-form for SIMD).
fn merge2_counted(level: SimdLevel, out: &mut Vec<Value>, a: &[Value], b: &[Value]) -> u64 {
    match level {
        SimdLevel::Scalar => merge2(out, a, b),
        _ => {
            let before = out.len();
            simd::merge2_into(level, out, a, b);
            let m = (out.len() - before) as u64;
            debug_assert_eq!(
                merge2_cost(a, b, m),
                {
                    let mut chk = Vec::new();
                    merge2(&mut chk, a, b)
                },
                "closed-form merge cost diverged from the scalar loop"
            );
            merge2_cost(a, b, m)
        }
    }
}

/// Pairwise merge intersection, smallest lists first so the accumulator shrinks
/// as early as possible.
fn merge_intersect(
    level: SimdLevel,
    out: &mut Vec<Value>,
    lists: &[&[Value]],
    counter: &WorkCounter,
) {
    debug_assert!(lists.len() >= 2);
    let mut order_buf = [0usize; MAX_INLINE_LISTS];
    let mut order_vec;
    let order: &mut [usize] = if lists.len() <= MAX_INLINE_LISTS {
        let o = &mut order_buf[..lists.len()];
        for (i, slot) in o.iter_mut().enumerate() {
            *slot = i;
        }
        o
    } else {
        order_vec = (0..lists.len()).collect::<Vec<_>>();
        &mut order_vec
    };
    order.sort_unstable_by_key(|&i| lists[i].len());

    let mut cmps = merge2_counted(level, out, lists[order[0]], lists[order[1]]);
    match level {
        SimdLevel::Scalar => {
            for &i in &order[2..] {
                if out.is_empty() {
                    break;
                }
                cmps += retain_common(out, lists[i]);
            }
        }
        _ => {
            // The SIMD block kernel can't retain in place (block writes may
            // overrun the read frontier), so extra lists ping-pong between the
            // caller's buffer and one scratch vector. retain_common is the same
            // two-pointer loop as merge2, so the closed-form cost still applies.
            let mut scratch: Vec<Value> = Vec::new();
            for &i in &order[2..] {
                if out.is_empty() {
                    break;
                }
                std::mem::swap(out, &mut scratch);
                out.clear();
                cmps += merge2_counted(level, out, &scratch, lists[i]);
            }
        }
    }
    counter.add_comparisons(cmps);
}

/// Drop every element of `out` (sorted, distinct) not also present in `b`, via a
/// two-pointer pass with an in-place write cursor — the intersection is a subset
/// of `out`, so no scratch buffer is needed and the caller's reused allocation
/// survives. Returns the number of loop iterations (= comparisons).
fn retain_common(out: &mut Vec<Value>, b: &[Value]) -> u64 {
    let (mut r, mut j, mut w) = (0usize, 0usize, 0usize);
    let mut cmps = 0u64;
    while r < out.len() && j < b.len() {
        let x = out[r];
        let y = b[j];
        if x == y {
            out[w] = x;
            w += 1;
        }
        r += (x <= y) as usize;
        j += (y <= x) as usize;
        cmps += 1;
    }
    out.truncate(w);
    cmps
}

/// Smallest-driven galloping intersection: enumerate the smallest list, gallop in
/// the others with monotone frontiers, early-exiting when any frontier runs out.
fn gallop_intersect(out: &mut Vec<Value>, lists: &[&[Value]], counter: &WorkCounter) {
    debug_assert!(lists.len() >= 2);
    let smallest = lists
        .iter()
        .enumerate()
        .min_by_key(|(_, l)| l.len())
        .map(|(i, _)| i)
        .expect("non-empty list set");
    let mut pos_buf = [0usize; MAX_INLINE_LISTS];
    let mut pos_vec;
    let positions: &mut [usize] = if lists.len() <= MAX_INLINE_LISTS {
        &mut pos_buf[..lists.len()]
    } else {
        pos_vec = vec![0usize; lists.len()];
        &mut pos_vec
    };

    let mut steps = 0u64;
    'outer: for &v in lists[smallest] {
        steps += 1;
        for (i, list) in lists.iter().enumerate() {
            if i == smallest {
                continue;
            }
            let pos = crate::ops::gallop(list, positions[i], v, counter);
            positions[i] = pos;
            if pos >= list.len() {
                break 'outer; // this list is exhausted: nothing further matches
            }
            if list[pos] != v {
                continue 'outer;
            }
        }
        out.push(v);
    }
    counter.add_intersect_steps(steps);
}

/// Span-windowed bitset intersection: seed a bitset over `[lo, hi]` from the
/// smallest list, AND in a bitset of each other list, then decode set bits (in
/// word order, so the output is ascending).
fn bitmap_intersect(
    out: &mut Vec<Value>,
    lists: &[&[Value]],
    lo: Value,
    hi: Value,
    counter: &WorkCounter,
) {
    debug_assert!(lists.len() >= 2);
    let words = ((hi - lo) / 64 + 1) as usize;
    let smallest = lists
        .iter()
        .enumerate()
        .min_by_key(|(_, l)| l.len())
        .map(|(i, _)| i)
        .expect("non-empty list set");

    // the adaptive policy caps the span at BITMAP_MAX_SPAN (64 words), so the
    // common case runs on a stack buffer; only a forced wide-span Bitmap (within
    // its own affordability cap) spills to the heap
    const STACK_WORDS: usize = (BITMAP_MAX_SPAN / 64) as usize;
    let mut acc_buf = [0u64; STACK_WORDS];
    let mut acc_vec;
    let acc: &mut [u64] = if words <= STACK_WORDS {
        &mut acc_buf[..words]
    } else {
        acc_vec = vec![0u64; words];
        &mut acc_vec
    };

    // Each list's in-span window is ascending, so the values hitting one bitset
    // word are contiguous: accumulate each word's bits in a register and touch
    // memory once per (list, word) instead of once per element. The other lists
    // AND straight into `acc` — words they skip are zeroed in passing — so no
    // second bitset buffer (with its zero + AND passes) exists at all. Scanned
    // elements and words touched are unchanged, so the counter tallies are
    // identical to the two-buffer formulation.
    let mut scanned = 0u64;
    let in_span = |l: &[Value]| -> std::ops::Range<usize> {
        let start = l.partition_point(|&x| x < lo);
        let end = l.partition_point(|&x| x <= hi);
        start..end
    };
    {
        let window = &lists[smallest][in_span(lists[smallest])];
        scanned += window.len() as u64;
        let mut run_word = usize::MAX;
        let mut run_bits = 0u64;
        for &v in window {
            let off = (v - lo) as usize;
            let w = off / 64;
            if w != run_word {
                if run_word != usize::MAX {
                    acc[run_word] = run_bits;
                }
                run_word = w;
                run_bits = 0;
            }
            run_bits |= 1u64 << (off % 64);
        }
        if run_word != usize::MAX {
            acc[run_word] = run_bits;
        }
    }
    for (i, list) in lists.iter().enumerate() {
        if i == smallest {
            continue;
        }
        let window = &list[in_span(list)];
        scanned += window.len() as u64;
        let mut next_unflushed = 0usize;
        let mut run_word = usize::MAX;
        let mut run_bits = 0u64;
        for &v in window {
            let off = (v - lo) as usize;
            let w = off / 64;
            if w != run_word {
                if run_word != usize::MAX {
                    acc[next_unflushed..run_word].fill(0);
                    acc[run_word] &= run_bits;
                    next_unflushed = run_word + 1;
                }
                run_word = w;
                run_bits = 0;
            }
            run_bits |= 1u64 << (off % 64);
        }
        if run_word != usize::MAX {
            acc[next_unflushed..run_word].fill(0);
            acc[run_word] &= run_bits;
            next_unflushed = run_word + 1;
        }
        acc[next_unflushed..].fill(0);
    }
    counter.add_comparisons(scanned);
    counter.add_probes((words * lists.len()) as u64);

    for (w, &bits) in acc.iter().enumerate() {
        let mut bits = bits;
        while bits != 0 {
            let b = bits.trailing_zeros() as u64;
            out.push(lo + (w as u64) * 64 + b);
            bits &= bits - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(lists: &[&[Value]], policy: KernelPolicy) -> Vec<Value> {
        intersect(lists, policy, &WorkCounter::new())
    }

    /// Ground truth by brute force membership.
    fn naive(lists: &[&[Value]]) -> Vec<Value> {
        if lists.is_empty() {
            return Vec::new();
        }
        lists[0]
            .iter()
            .copied()
            .filter(|v| lists[1..].iter().all(|l| l.contains(v)))
            .collect()
    }

    #[test]
    fn all_kernels_agree_on_shapes() {
        let shapes: Vec<Vec<Vec<Value>>> = vec![
            vec![vec![], vec![1, 2, 3]],                     // empty operand
            vec![vec![5]],                                   // singleton, k = 1
            vec![vec![5], vec![5]],                          // singleton match
            vec![vec![5], vec![6]],                          // singleton miss
            vec![vec![1, 2, 3], vec![10, 20]],               // disjoint spans
            vec![vec![1, 5, 9], vec![2, 6, 10], vec![3, 7]], // interleaved, empty
            vec![vec![1, 2, 3, 4], vec![1, 2, 3, 4]],        // fully overlapping
            vec![(0..100).collect(), (0..100).collect(), (50..150).collect()],
            vec![(0..1000).collect(), vec![3, 500, 999]], // extreme ratio
            vec![
                (0..1000).map(|i| i * 97).collect(),
                (0..1000).map(|i| i * 31).collect(),
            ],
            vec![
                vec![0, 63, 64, 127, 128],
                vec![0, 64, 128],
                vec![0, 1, 64, 100, 128],
            ],
        ];
        for lists in &shapes {
            let refs: Vec<&[Value]> = lists.iter().map(|l| l.as_slice()).collect();
            let expected = naive(&refs);
            for policy in KernelPolicy::ALL {
                assert_eq!(
                    run(&refs, policy),
                    expected,
                    "policy {policy:?} diverges on {lists:?}"
                );
            }
        }
    }

    #[test]
    fn heuristic_picks_each_kernel() {
        // dense small span -> bitmap
        let a: Vec<Value> = (0..200).collect();
        let b: Vec<Value> = (100..300).collect();
        assert_eq!(choose_kernel(&[&a, &b], 100, 199), KernelKind::Bitmap);
        // comparable sizes, wide sparse span -> merge
        let c: Vec<Value> = (0..200).map(|i| i * 1000).collect();
        let d: Vec<Value> = (0..220).map(|i| i * 997).collect();
        assert_eq!(choose_kernel(&[&c, &d], 0, 199_000), KernelKind::Merge);
        // extreme size ratio -> gallop
        let e: Vec<Value> = (0..100_000).collect();
        let f: Vec<Value> = vec![17, 40_000, 99_999];
        assert_eq!(choose_kernel(&[&e, &f], 17, 99_999), KernelKind::Gallop);
    }

    #[test]
    fn adaptive_records_kernel_breakdown() {
        let w = WorkCounter::new();
        let a: Vec<Value> = (0..200).collect();
        let b: Vec<Value> = (100..300).collect();
        let out = intersect(&[&a, &b], KernelPolicy::Adaptive, &w);
        assert_eq!(out, (100..200).collect::<Vec<_>>());
        assert_eq!(w.kernel_bitmap(), 1);
        assert_eq!(w.kernel_calls(), 1);
        assert!(w.comparisons() > 0, "bitmap counts scanned elements");
        assert!(w.probes() > 0, "bitmap counts words touched");
    }

    #[test]
    fn merge_kernel_counts_comparisons() {
        let w = WorkCounter::new();
        let a: Vec<Value> = (0..100).map(|i| i * 3).collect();
        let b: Vec<Value> = (0..100).map(|i| i * 5).collect();
        let out = intersect(&[&a, &b], KernelPolicy::Merge, &w);
        assert_eq!(out, (0..20).map(|i| i * 15).collect::<Vec<_>>());
        assert_eq!(w.kernel_merge(), 1);
        assert!(w.comparisons() > 0);
        assert_eq!(w.probes(), 0);
    }

    #[test]
    fn gallop_kernel_work_proportional_to_smallest() {
        let w = WorkCounter::new();
        let small: Vec<Value> = vec![10, 500, 900];
        let large: Vec<Value> = (0..100_000).collect();
        let out = intersect(&[&large, &small], KernelPolicy::Gallop, &w);
        assert_eq!(out, small);
        assert_eq!(w.intersect_steps(), 3);
        assert!(w.probes() < 200, "probes = {}", w.probes());
        assert_eq!(w.kernel_gallop(), 1);
    }

    #[test]
    fn forced_bitmap_on_wide_span_degrades_to_gallop() {
        let w = WorkCounter::new();
        let a: Vec<Value> = vec![0, 1, 1 << 40];
        let b: Vec<Value> = vec![1, 1 << 40, 1 << 41];
        let out = intersect(&[&a, &b], KernelPolicy::Bitmap, &w);
        assert_eq!(out, vec![1, 1 << 40]);
        assert_eq!(
            w.kernel_gallop(),
            1,
            "fallback must not allocate 2^34 words"
        );
        assert_eq!(w.kernel_bitmap(), 0);
    }

    #[test]
    fn kway_intersections_agree() {
        let a: Vec<Value> = (0..64).map(|i| i * 2).collect();
        let b: Vec<Value> = (0..64).map(|i| i * 3).collect();
        let c: Vec<Value> = (0..64).map(|i| i * 4).collect();
        let d: Vec<Value> = (0..128).collect();
        let refs: [&[Value]; 4] = [&a, &b, &c, &d];
        let expected = naive(&refs);
        assert!(!expected.is_empty());
        for policy in KernelPolicy::ALL {
            assert_eq!(run(&refs, policy), expected, "{policy:?}");
        }
    }

    #[test]
    fn intersect_into_reuses_allocation_and_clears() {
        let w = WorkCounter::new();
        let mut out = vec![99, 98, 97];
        let a: Vec<Value> = vec![1, 2, 3];
        intersect_into(&mut out, &[&a, &a], KernelPolicy::Merge, &w);
        assert_eq!(out, vec![1, 2, 3]);
        intersect_into(&mut out, &[], KernelPolicy::Adaptive, &w);
        assert!(out.is_empty());
    }

    #[test]
    fn calibration_reports_the_constants() {
        // the thresholds every recorded baseline was measured with
        let cal = KernelCalibration::host();
        assert_eq!(
            cal,
            KernelCalibration {
                merge_max_ratio: 8,
                bitmap_max_span: 4096,
                bitmap_span_per_element: 16,
                linear_seek_max: 16,
            }
        );
    }

    #[test]
    fn calibration_json_lists_every_field() {
        // distinct values, so a field printed under the wrong key shows
        let cal = KernelCalibration {
            merge_max_ratio: 32,
            bitmap_max_span: 2048,
            bitmap_span_per_element: 8,
            linear_seek_max: 64,
        };
        assert_eq!(
            cal.to_json(),
            "{\"merge_max_ratio\":32,\"bitmap_max_span\":2048,\"bitmap_span_per_element\":8,\"linear_seek_max\":64}"
        );
        assert_eq!(
            KernelCalibration::host().to_json(),
            "{\"merge_max_ratio\":8,\"bitmap_max_span\":4096,\"bitmap_span_per_element\":16,\"linear_seek_max\":16}"
        );
    }
}
