//! Leapfrog Triejoin (Veldhuizen 2014) — the k-way leapfrog intersection over sorted
//! trie cursors, written generically against [`TrieAccess`].
//!
//! The first variable's extension set is computed up front by one multi-way sorted
//! intersection through the adaptive kernel layer — the shared level-0 discipline of
//! this execution layer (see [`crate::exec::generic`] for why: it is the morsel
//! parallelization seam, and it makes serial and merged parallel work counters
//! identical). At every *interior* level of the global variable order the
//! participating cursors are kept sorted in a circular array; the cursor with the
//! least key repeatedly `seek`s to the current maximum until all keys coincide (a
//! match) or one cursor is exhausted. Each seek is adaptive (linear scan for short
//! groups, galloping otherwise), so a level's intersection costs
//! `O(k · m · log(M/m))` for smallest set `m` / largest `M` — the same primitive
//! Generic Join relies on, arranged as mutual leapfrogging instead of
//! smallest-enumerates. At the **deepest** level, where nothing remains to bind
//! below, the mutual leapfrog degenerates into a pure intersection: that level runs
//! through the adaptive kernel layer (`crate::exec::level_extension_into`) and
//! emits result tuples straight from the kernel output. Leapfrog Triejoin is
//! worst-case optimal (up to a log factor) by the same fractional-cover argument
//! (Section 1.2 of the paper).

use super::{first_extension_set, flush_cursor_work, level_extension_into};
use wcoj_obs::LevelRecorder;
use wcoj_storage::{KernelPolicy, TrieAccess, Tuple, Value, WorkCounter};

/// Run Leapfrog Triejoin over one cursor per atom.
///
/// Contracts are identical to [`crate::exec::generic::generic_join`]: cursors are
/// positioned at the root, their attribute orders are sorted by global position, and
/// `participants[l]` lists the cursors containing the level-`l` variable.
pub fn leapfrog_triejoin<C: TrieAccess>(
    cursors: &mut [C],
    participants: &[Vec<usize>],
    policy: KernelPolicy,
    counter: &WorkCounter,
) -> Vec<Value> {
    let mut out = Vec::new();
    let e0 = first_extension_set(cursors, &participants[0], policy, counter, None);
    join_extensions(cursors, participants, &e0, policy, counter, None, &mut out);
    for &ci in &participants[0] {
        cursors[ci].up();
    }
    out
}

/// The morsel body: process a slice of the first variable's extension set with
/// leapfrogging below level 0. See [`crate::exec::generic::join_extensions`] for the
/// shared contract (including the `trace` recording discipline).
///
/// Leapfrog's *interior* levels run the ring-based mutual seek, not the kernel
/// layer, so their trace rows report only `emitted` (matches found) — no
/// candidates and no kernel choice. Only the deepest level (a pure
/// intersection) gets kernel attribution.
#[allow(clippy::too_many_arguments)] // mirrors the exec layer's dispatch seam
pub(crate) fn join_extensions<C: TrieAccess>(
    cursors: &mut [C],
    participants: &[Vec<usize>],
    values: &[Value],
    policy: KernelPolicy,
    counter: &WorkCounter,
    trace: Option<&LevelRecorder>,
    out: &mut Vec<Value>,
) {
    if let Some(rec) = trace {
        // level 0's candidates were recorded by the driver's intersection
        rec.record_emitted(0, values.len() as u64);
    }
    let mut binding: Tuple = Vec::with_capacity(participants.len());
    let mut scratch: Vec<Value> = Vec::new();
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
    scratch: &mut Vec<Value>,
    counter: &WorkCounter,
    trace: Option<&LevelRecorder>,
) {
    if level == participants.len() {
        // only reachable for single-variable queries (the deepest level emits below)
        counter.add_output(1);
        out.extend_from_slice(binding);
        return;
    }
    let parts = &participants[level];

    // triejoin_open: descend every participating cursor
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

    if level + 1 == participants.len() {
        // deepest variable: the leapfrog degenerates into a pure intersection —
        // run it through the kernel layer and emit tuples straight from its output
        // (only this level needs the scratch buffer, so one Vec suffices)
        let mut ext = std::mem::take(scratch);
        level_extension_into(
            &mut ext,
            cursors,
            parts,
            policy,
            counter,
            trace.map(|t| (t, level)),
        );
        if let Some(rec) = trace {
            rec.record_emitted(level, ext.len() as u64);
        }
        counter.add_output(ext.len() as u64);
        out.reserve(ext.len() * (binding.len() + 1));
        for &v in &ext {
            out.extend_from_slice(binding);
            out.push(v);
        }
        *scratch = ext;
        for &ci in parts.iter() {
            cursors[ci].up();
        }
        return;
    }

    // leapfrog_init: circular order sorted by current key; p points at the least
    let mut ring: Vec<usize> = parts.clone();
    ring.sort_by_key(|&ci| cursors[ci].key());
    let k = ring.len();
    let mut p = 0usize;

    // leapfrog_search / leapfrog_next
    let mut matches = 0u64;
    loop {
        let max_key = cursors[ring[(p + k - 1) % k]].key();
        let cur = ring[p];
        let key = cursors[cur].key();
        if key == max_key {
            // all k cursors agree
            matches += 1;
            binding.push(key);
            descend(
                cursors,
                participants,
                level + 1,
                binding,
                out,
                policy,
                scratch,
                counter,
                trace,
            );
            binding.pop();
            if !cursors[cur].next() {
                break;
            }
            p = (p + 1) % k;
        } else {
            if !cursors[cur].seek(max_key) {
                break;
            }
            p = (p + 1) % k;
        }
    }
    if let Some(rec) = trace {
        // interior leapfrog level: `matches` keys survived the mutual seek
        rec.record_emitted(level, matches);
    }

    for &ci in parts.iter() {
        cursors[ci].up();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::generic::generic_join;
    use wcoj_storage::{Relation, Trie};

    #[test]
    fn triangle_matches_generic_join() {
        let r = Relation::from_pairs("A", "B", vec![(1, 2), (2, 3), (1, 3), (4, 5)]);
        let s = Relation::from_pairs("B", "C", vec![(2, 3), (3, 1), (3, 4), (5, 6)]);
        let t = Relation::from_pairs("A", "C", vec![(1, 3), (2, 1), (1, 4), (4, 6)]);
        let participants = vec![vec![0, 2], vec![0, 1], vec![1, 2]];
        let tries = [
            Trie::build(&r, &["A", "B"]).unwrap(),
            Trie::build(&s, &["B", "C"]).unwrap(),
            Trie::build(&t, &["A", "C"]).unwrap(),
        ];
        let w = WorkCounter::new();
        let mut cursors: Vec<_> = tries.iter().map(|t| t.cursor()).collect();
        let lf = leapfrog_triejoin(&mut cursors, &participants, KernelPolicy::Adaptive, &w);

        let mut cursors: Vec<_> = tries.iter().map(|t| t.cursor()).collect();
        let gj = generic_join(&mut cursors, &participants, KernelPolicy::Adaptive, &w);
        assert_eq!(lf, gj);
        // row-major flat output: (1,2,3), (1,3,4), (2,3,1), (4,5,6)
        assert_eq!(lf, vec![1, 2, 3, 1, 3, 4, 2, 3, 1, 4, 5, 6]);
    }

    #[test]
    fn single_atom_query_enumerates_relation() {
        let r = Relation::from_pairs("A", "B", vec![(3, 4), (1, 2)]);
        let tries = [Trie::build(&r, &["A", "B"]).unwrap()];
        let w = WorkCounter::new();
        let mut cursors: Vec<_> = tries.iter().map(|t| t.cursor()).collect();
        let out = leapfrog_triejoin(
            &mut cursors,
            &[vec![0], vec![0]],
            KernelPolicy::Adaptive,
            &w,
        );
        assert_eq!(out, vec![1, 2, 3, 4]);
    }
}
