//! Generic Join (Algorithm 2 of the paper), written generically against
//! [`TrieAccess`] so the hot loop monomorphizes per cursor type.
//!
//! Variables are bound in the fixed global order. The **first** variable's extension
//! set is computed up front by one multi-way sorted intersection of the root sibling
//! groups — that set is the natural parallelization seam: its values can be processed
//! independently, so the morsel scheduler in [`crate::exec::parallel`] partitions
//! exactly this set, and serial execution is simply the one-morsel special case
//! (which is what makes serial and merged parallel work counters *identical*).
//!
//! At each deeper level the cursors of the atoms containing the current variable are
//! opened one level deeper and their sorted candidate groups are intersected through
//! the **adaptive kernel layer** ([`wcoj_storage::kernels`], via
//! `crate::exec::level_extension_into`): branchless merge, smallest-driven
//! galloping, or a small-domain bitmap kernel, chosen per intersection by the
//! [`wcoj_storage::KernelPolicy`] in force. Every kernel honors the "intersection in
//! time proportional to the smallest set" discipline whose per-level cost telescopes
//! into the AGM bound `O(N^{ρ*})` (Theorem 4.3 / the analysis of Section 4.2).
//! Matched values re-position the participant cursors (uncounted — the kernel
//! already paid for their discovery) before the engine recurses; at the **deepest**
//! level the extension set *is* the tuple tail, so results are emitted straight from
//! the kernel output with no per-value cursor movement at all.

use super::{first_extension_set, flush_cursor_work, level_extension_into};
use wcoj_obs::LevelRecorder;
use wcoj_storage::{KernelCalibration, KernelPolicy, TrieAccess, Tuple, Value, WorkCounter};

/// Run Generic Join over one cursor per atom.
///
/// `participants[l]` lists the cursor indices whose relations contain the variable
/// bound at level `l` of the global order; every cursor's own attribute order must be
/// sorted by global position (see `wcoj_query::plan::atom_attr_order`). Returns the
/// result tuples in global-order layout as one row-major **flat buffer** (arity =
/// `participants.len()`, no per-row allocation); output tuples are tallied in
/// `counter`.
pub fn generic_join<C: TrieAccess>(
    cursors: &mut [C],
    participants: &[Vec<usize>],
    policy: KernelPolicy,
    cal: &KernelCalibration,
    counter: &WorkCounter,
) -> Vec<Value> {
    let mut out = Vec::new();
    let e0 = first_extension_set(cursors, &participants[0], policy, cal, counter, None);
    join_extensions(
        cursors,
        participants,
        &e0,
        policy,
        cal,
        counter,
        None,
        &mut out,
    );
    for &ci in &participants[0] {
        cursors[ci].up();
    }
    out
}

/// Process a slice of the first variable's extension set: for each value, re-position
/// the level-0 participant cursors (uncounted — the intersection already paid for the
/// discovery) and recurse over the remaining levels. The level-0 participant cursors
/// must already be open at their root group. This is the serial engine body that
/// morsel workers run on their private cursor sets.
///
/// With `trace` present, per-level extension statistics are recorded into the
/// shared [`LevelRecorder`] (relaxed atomic sums — commutative, so parallel
/// traced runs report the same deterministic totals as serial ones).
#[allow(clippy::too_many_arguments)] // mirrors the exec layer's dispatch seam
pub(crate) fn join_extensions<C: TrieAccess>(
    cursors: &mut [C],
    participants: &[Vec<usize>],
    values: &[Value],
    policy: KernelPolicy,
    cal: &KernelCalibration,
    counter: &WorkCounter,
    trace: Option<&LevelRecorder>,
    out: &mut Vec<Value>,
) {
    if let Some(rec) = trace {
        // level 0's candidates were recorded by the driver's intersection;
        // each processed slice contributes its share of the emitted tally
        rec.record_emitted(0, values.len() as u64);
    }
    let mut binding: Tuple = Vec::with_capacity(participants.len());
    let mut scratch: Vec<Vec<Value>> = vec![Vec::new(); participants.len()];
    for (i, &v) in values.iter().enumerate() {
        for &ci in &participants[0] {
            // the slice ascends, so after the first (bidirectional) reposition —
            // morsels arrive in arbitrary order — forward advances suffice
            let found = if i == 0 {
                cursors[ci].reposition(v)
            } else {
                cursors[ci].advance_to(v)
            };
            debug_assert!(found, "extension-set values occur in every participant");
        }
        binding.push(v);
        descend(
            cursors,
            participants,
            1,
            &mut binding,
            out,
            policy,
            cal,
            &mut scratch,
            counter,
            trace,
        );
        binding.pop();
    }
    flush_cursor_work(cursors, counter);
}

#[allow(clippy::too_many_arguments)]
fn descend<C: TrieAccess>(
    cursors: &mut [C],
    participants: &[Vec<usize>],
    level: usize,
    binding: &mut Tuple,
    out: &mut Vec<Value>,
    policy: KernelPolicy,
    cal: &KernelCalibration,
    scratch: &mut [Vec<Value>],
    counter: &WorkCounter,
    trace: Option<&LevelRecorder>,
) {
    if level == participants.len() {
        // only reachable for single-variable queries (deeper levels emit below)
        counter.add_output(1);
        out.extend_from_slice(binding);
        return;
    }
    let parts = &participants[level];

    // open every participating cursor one level deeper
    let mut opened = 0;
    while opened < parts.len() && cursors[parts[opened]].open() {
        opened += 1;
    }
    if opened < parts.len() {
        for &ci in &parts[..opened] {
            cursors[ci].up();
        }
        return;
    }

    // this level's extension set, through the adaptive kernel layer (the scratch
    // buffer is reused across all visits of this level)
    let mut ext = std::mem::take(&mut scratch[level]);
    level_extension_into(
        &mut ext,
        cursors,
        parts,
        policy,
        cal,
        counter,
        trace.map(|t| (t, level)),
    );
    if let Some(rec) = trace {
        // Generic Join binds every candidate, so this level emits all of them
        rec.record_emitted(level, ext.len() as u64);
    }

    if level + 1 == participants.len() {
        // deepest variable: the extension set is the tuple tail — emit directly,
        // no per-value cursor repositioning
        counter.add_output(ext.len() as u64);
        out.reserve(ext.len() * (binding.len() + 1));
        for &v in &ext {
            out.extend_from_slice(binding);
            out.push(v);
        }
    } else {
        for &v in &ext {
            // ext is ascending, so the forward-only uncounted advance suffices
            for &ci in parts.iter() {
                let found = cursors[ci].advance_to(v);
                debug_assert!(found, "extension values occur in every participant");
            }
            binding.push(v);
            descend(
                cursors,
                participants,
                level + 1,
                binding,
                out,
                policy,
                cal,
                scratch,
                counter,
                trace,
            );
            binding.pop();
        }
    }
    scratch[level] = ext;

    for &ci in parts.iter() {
        cursors[ci].up();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcoj_storage::{CursorKind, DeltaAccess, DeltaRelation, Relation, Trie};

    /// Triangle query over tries and delta-log union cursors must agree.
    #[test]
    fn triangle_over_both_backends() {
        let r = Relation::from_pairs("A", "B", vec![(1, 2), (2, 3), (1, 3)]);
        let s = Relation::from_pairs("B", "C", vec![(2, 3), (3, 1), (3, 4)]);
        let t = Relation::from_pairs("A", "C", vec![(1, 3), (2, 1), (1, 4)]);
        // global order A, B, C: R binds levels {0,1}, S {1,2}, T {0,2}
        let participants = vec![vec![0, 2], vec![0, 1], vec![1, 2]];

        let tries = [
            Trie::build(&r, &["A", "B"]).unwrap(),
            Trie::build(&s, &["B", "C"]).unwrap(),
            Trie::build(&t, &["A", "C"]).unwrap(),
        ];
        let w = WorkCounter::new();
        let mut cursors: Vec<_> = tries.iter().map(|t| t.cursor()).collect();
        let from_tries = generic_join(
            &mut cursors,
            &participants,
            KernelPolicy::Adaptive,
            &KernelCalibration::fixed(),
            &w,
        );

        let deltas = [
            DeltaRelation::from_relation(r),
            DeltaRelation::from_relation(s),
            DeltaRelation::from_relation(t),
        ];
        let accesses = [
            DeltaAccess::build(&deltas[0], &["A", "B"], 1).unwrap(),
            DeltaAccess::build(&deltas[1], &["B", "C"], 1).unwrap(),
            DeltaAccess::build(&deltas[2], &["A", "C"], 1).unwrap(),
        ];
        let mut cursors: Vec<_> = accesses.iter().map(|a| a.cursor()).collect();
        let from_deltas = generic_join(
            &mut cursors,
            &participants,
            KernelPolicy::Adaptive,
            &KernelCalibration::fixed(),
            &w,
        );

        // row-major flat output: (1,2,3), (1,3,4), (2,3,1)
        let expected = vec![1, 2, 3, 1, 3, 4, 2, 3, 1];
        assert_eq!(from_tries, expected);
        assert_eq!(from_deltas, expected);
        assert_eq!(w.output_tuples(), 6); // both runs tallied
    }

    /// Mixed trie/delta cursors compose through [`CursorKind`] without `dyn`.
    #[test]
    fn triangle_over_mixed_backends() {
        let r = Relation::from_pairs("A", "B", vec![(1, 2), (2, 3), (1, 3)]);
        let s = Relation::from_pairs("B", "C", vec![(2, 3), (3, 1), (3, 4)]);
        let t = Relation::from_pairs("A", "C", vec![(1, 3), (2, 1), (1, 4)]);
        let trie_r = Trie::build(&r, &["A", "B"]).unwrap();
        let delta_s = DeltaRelation::from_relation(s);
        let access_s = DeltaAccess::build(&delta_s, &["B", "C"], 1).unwrap();
        let trie_t = Trie::build(&t, &["A", "C"]).unwrap();
        let w = WorkCounter::new();
        let mut cursors: Vec<CursorKind> = vec![
            trie_r.cursor().into(),
            access_s.cursor().into(),
            trie_t.cursor().into(),
        ];
        let participants = vec![vec![0, 2], vec![0, 1], vec![1, 2]];
        let out = generic_join(
            &mut cursors,
            &participants,
            KernelPolicy::Adaptive,
            &KernelCalibration::fixed(),
            &w,
        );
        assert_eq!(out, vec![1, 2, 3, 1, 3, 4, 2, 3, 1]);
        assert!(
            w.delta_merge() > 0,
            "the delta atom runs on the union cursor"
        );
    }

    #[test]
    fn empty_input_short_circuits() {
        let r = Relation::from_pairs("A", "B", Vec::<(u64, u64)>::new());
        let s = Relation::from_pairs("B", "C", vec![(1, 2)]);
        let tries = [
            Trie::build(&r, &["A", "B"]).unwrap(),
            Trie::build(&s, &["B", "C"]).unwrap(),
        ];
        let w = WorkCounter::new();
        let mut cursors: Vec<_> = tries.iter().map(|t| t.cursor()).collect();
        let out = generic_join(
            &mut cursors,
            &[vec![0], vec![0, 1], vec![1]],
            KernelPolicy::Adaptive,
            &KernelCalibration::fixed(),
            &w,
        );
        assert!(out.is_empty());
    }
}
