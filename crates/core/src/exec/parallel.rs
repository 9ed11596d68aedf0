//! Morsel-driven parallel WCOJ execution (à la HyPer's morsel-driven parallelism,
//! Leis et al. 2014, applied to the Generic Join / Leapfrog Triejoin engines).
//!
//! # Architecture
//!
//! The access structures (tries / delta views) are built **once** and shared
//! immutably (`Sync`) across workers. The driver computes the first join variable's
//! extension set — the multi-way intersection of the root sibling groups, exactly
//! what serial execution computes first — and partitions it into contiguous
//! **morsels** (small value ranges, several per thread so that skewed values cannot
//! starve the schedule). `std::thread::scope` workers then claim morsels from a
//! shared atomic counter; each worker owns
//!
//! * a **private cursor set** (cursors are `Send + Clone`: they borrow the shared
//!   trie and own their stack), and
//! * a **private [`WorkCounter`]**,
//!
//! and runs the *serial engine body* (`join_extensions`) on each claimed morsel.
//! No locks are taken on the hot path; the single mutex is touched once per worker
//! at shutdown to deposit results.
//!
//! # Determinism
//!
//! Results are concatenated in morsel order (morsels are ascending ranges of the
//! first variable, and each morsel's output is sorted), so the output tuple sequence
//! is identical to serial execution regardless of scheduling. Work counters are
//! deterministic too: the driver's intersection is counted exactly once, per-value
//! re-positioning is uncounted (`TrieAccess::reposition`), and all counted work below
//! level 0 is a pure function of the value being extended — so the merged counters
//! equal the serial engine's for *any* thread count. The differential test suite
//! asserts both properties for threads ∈ {1, 2, 4, 8}.

use super::{engine_join_extensions, first_extension_set, CancelToken, Engine, TraceCtx};
use crate::error::ExecError;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use wcoj_obs::{MorselTrace, WorkerTrace};
use wcoj_storage::{KernelPolicy, TrieAccess, Value, WorkCounter};

/// Morsels handed out per worker thread: small enough that a skewed heavy-hitter
/// value cannot leave threads idle, large enough that the scheduling atomics are
/// noise.
const MORSELS_PER_THREAD: usize = 8;

/// Run `engine` over `threads` workers, each holding a private cursor set produced
/// by `make_cursors` (one cursor per atom, positioned at the root). Returns the
/// result tuples in the same order as serial execution; merged worker counters and
/// the driver's intersection work are recorded into `counter`. A `token` is
/// polled in every worker's morsel claim loop: once it fires, workers stop
/// claiming, the scope drains, and the call returns [`ExecError::Canceled`]
/// (partial output is discarded) — with a token that never fires, rows and
/// counters are bit-identical to a token-less run.
#[allow(clippy::too_many_arguments)] // mirrors the exec layer's dispatch seam
pub(crate) fn morsel_join<C, F>(
    engine: Engine,
    make_cursors: F,
    participants: &[Vec<usize>],
    threads: usize,
    policy: KernelPolicy,
    counter: &WorkCounter,
    token: Option<&CancelToken>,
    trace: Option<&TraceCtx>,
) -> Result<Vec<Value>, ExecError>
where
    C: TrieAccess,
    F: Fn() -> Vec<C> + Sync,
{
    debug_assert!(threads >= 1);
    if let Some(t) = token {
        t.check()?;
    }
    let levels = trace.map(|t| &t.levels);
    // The driver computes the extension set once, charging the intersection work to
    // the main counter — the same charge serial execution makes.
    let extensions = {
        let mut driver_cursors = make_cursors();
        first_extension_set(
            &mut driver_cursors,
            &participants[0],
            policy,
            counter,
            levels,
        )
    };
    if extensions.is_empty() {
        if let Some(t) = trace {
            *t.morsels.lock().expect("morsel trace slot") = Some(MorselTrace {
                morsels: 0,
                workers: Vec::new(),
            });
        }
        return Ok(Vec::new());
    }

    let morsel_len = extensions
        .len()
        .div_ceil(threads * MORSELS_PER_THREAD)
        .max(1);
    let morsels: Vec<&[Value]> = extensions.chunks(morsel_len).collect();
    // the next unclaimed morsel id, shared by every worker
    let next = AtomicUsize::new(0);
    // (morsel id, flat rows) pairs plus one counter per worker, deposited at
    // shutdown
    let results: Mutex<Vec<(usize, Vec<Value>)>> = Mutex::new(Vec::with_capacity(morsels.len()));
    let worker_counters: Mutex<Vec<WorkCounter>> = Mutex::new(Vec::with_capacity(threads));
    // per-worker scheduling reports, deposited only when tracing (worker id
    // keyed so the trace lists workers in order regardless of finish order)
    let worker_traces: Mutex<Vec<(usize, WorkerTrace)>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        for w in 0..threads {
            let next = &next;
            let make_cursors = &make_cursors;
            let morsels = &morsels;
            let results = &results;
            let worker_counters = &worker_counters;
            let worker_traces = &worker_traces;
            scope.spawn(move || {
                let local = WorkCounter::new();
                let mut cursors = make_cursors();
                let mut opened = false;
                let mut claimed = 0u64;
                let mut produced: Vec<(usize, Vec<Value>)> = Vec::new();
                loop {
                    let m = next.fetch_add(1, Ordering::Relaxed);
                    if m >= morsels.len() {
                        break;
                    }
                    // cooperative cancellation: stop claiming once the token
                    // fires; the partial output is discarded by the caller
                    if token.is_some_and(|t| t.is_canceled()) {
                        break;
                    }
                    claimed += 1;
                    if !opened {
                        // lazily open the level-0 participants: workers that never
                        // claim a morsel touch nothing
                        for &ci in &participants[0] {
                            let ok = cursors[ci].open();
                            debug_assert!(ok, "non-empty extension set implies children");
                        }
                        opened = true;
                    }
                    let mut rows = Vec::new();
                    engine_join_extensions(
                        engine,
                        &mut cursors,
                        participants,
                        morsels[m],
                        policy,
                        &local,
                        levels,
                        &mut rows,
                    );
                    produced.push((m, rows));
                }
                results.lock().expect("result sink").extend(produced);
                worker_counters.lock().expect("counter sink").push(local);
                if trace.is_some() {
                    worker_traces
                        .lock()
                        .expect("trace sink")
                        .push((w, WorkerTrace { claimed }));
                }
            });
        }
    });

    if let Some(t) = trace {
        let mut per_worker = worker_traces.into_inner().expect("trace sink");
        per_worker.sort_unstable_by_key(|&(w, _)| w);
        *t.morsels.lock().expect("morsel trace slot") = Some(MorselTrace {
            morsels: morsels.len() as u64,
            workers: per_worker.into_iter().map(|(_, wt)| wt).collect(),
        });
    }
    if let Some(t) = token {
        t.check()?; // cancelled mid-run: the deposited output is partial
    }
    for local in worker_counters.into_inner().expect("counter sink") {
        counter.merge(&local);
    }
    let mut per_morsel = results.into_inner().expect("result sink");
    per_morsel.sort_unstable_by_key(|&(m, _)| m);
    let mut out = Vec::new();
    for (_, mut rows) in per_morsel {
        out.append(&mut rows);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::generic::generic_join;
    use wcoj_storage::{Relation, Trie};

    fn triangle_tries() -> [Trie; 3] {
        let r = Relation::from_pairs("A", "B", (0..200u64).map(|i| (i % 20, (i * 7) % 23)));
        let s = Relation::from_pairs("B", "C", (0..200u64).map(|i| ((i * 7) % 23, (i * 5) % 19)));
        let t = Relation::from_pairs("A", "C", (0..200u64).map(|i| (i % 20, (i * 5) % 19)));
        [
            Trie::build(&r, &["A", "B"]).unwrap(),
            Trie::build(&s, &["B", "C"]).unwrap(),
            Trie::build(&t, &["A", "C"]).unwrap(),
        ]
    }

    #[test]
    fn morsel_join_matches_serial_rows_and_counters() {
        let tries = triangle_tries();
        let participants = vec![vec![0, 2], vec![0, 1], vec![1, 2]];

        let serial_counter = WorkCounter::new();
        let mut cursors: Vec<_> = tries.iter().map(|t| t.cursor()).collect();
        let serial = generic_join(
            &mut cursors,
            &participants,
            KernelPolicy::Adaptive,
            &serial_counter,
        );
        assert!(!serial.is_empty(), "fixture should produce triangles");

        for threads in [1, 2, 4, 8] {
            let parallel_counter = WorkCounter::new();
            let out = morsel_join(
                Engine::GenericJoin,
                || tries.iter().map(|t| t.cursor()).collect(),
                &participants,
                threads,
                KernelPolicy::Adaptive,
                &parallel_counter,
                None,
                None,
            )
            .unwrap();
            assert_eq!(out, serial, "rows with {threads} threads");
            assert_eq!(
                parallel_counter, serial_counter,
                "work counters with {threads} threads"
            );
        }
    }

    #[test]
    fn empty_extension_set_spawns_nothing() {
        let r = Relation::from_pairs("A", "B", vec![(1, 2)]);
        let s = Relation::from_pairs("A", "C", vec![(9, 1)]); // A-sets disjoint
        let tries = [
            Trie::build(&r, &["A", "B"]).unwrap(),
            Trie::build(&s, &["A", "C"]).unwrap(),
        ];
        let w = WorkCounter::new();
        let out = morsel_join(
            Engine::Leapfrog,
            || tries.iter().map(|t| t.cursor()).collect(),
            &[vec![0, 1], vec![0], vec![1]],
            4,
            KernelPolicy::Adaptive,
            &w,
            None,
            None,
        )
        .unwrap();
        assert!(out.is_empty());
        assert_eq!(w.output_tuples(), 0);
    }
}
