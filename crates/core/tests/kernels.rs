//! Differential tests for the adaptive intersection-kernel layer at the engine
//! level: every kernel policy (adaptive, forced merge, forced gallop, forced
//! bitmap) must produce bit-identical engine output across the full workload
//! suite (and, on a representative few, over delta-log union cursors and in
//! parallel), and the adaptive policy must actually record its per-kernel
//! choices in the `WorkCounter` breakdown.

use wcoj_core::exec::{execute_opts, Engine, ExecOptions};
use wcoj_query::Database;
use wcoj_storage::KernelPolicy;
use wcoj_workloads::differential_suite;

#[test]
fn every_kernel_policy_gives_identical_results() {
    for w in differential_suite(0x6E12) {
        for engine in [Engine::GenericJoin, Engine::Leapfrog] {
            let reference = execute_opts(&w.query, &w.db, &ExecOptions::new(engine))
                .unwrap_or_else(|e| panic!("{}: {engine:?} failed: {e}", w.name));
            for policy in KernelPolicy::ALL {
                let opts = ExecOptions::new(engine).with_kernel(policy);
                let out = execute_opts(&w.query, &w.db, &opts)
                    .unwrap_or_else(|e| panic!("{}: {engine:?}/{policy:?} failed: {e}", w.name));
                assert_eq!(
                    out.result, reference.result,
                    "{}: {engine:?} output depends on kernel policy {policy:?}",
                    w.name
                );
            }
        }
    }
}

/// `db` with every relation moved onto the delta log, so each atom runs on the
/// union cursor instead of a static trie.
fn delta_backed(db: &Database) -> Database {
    let mut out = db.clone();
    for name in db.relation_names() {
        out.to_delta(name).expect("relation exists");
    }
    out
}

#[test]
fn kernel_policies_agree_on_both_backends_and_threads() {
    // policy identity is storage- and schedule-independent: check a
    // representative cyclic and a wide-atom workload on static tries, on
    // delta-log union cursors, and under parallel execution
    for w in [
        wcoj_workloads::hub_spoke(128, 0xB17),
        wcoj_workloads::kclique(4, 64, 0xB18),
        wcoj_workloads::lw4(64, 0xB19),
    ] {
        let delta_db = delta_backed(&w.db);
        for engine in [Engine::GenericJoin, Engine::Leapfrog] {
            let reference = execute_opts(&w.query, &w.db, &ExecOptions::new(engine)).unwrap();
            for policy in KernelPolicy::ALL {
                for (storage, db) in [("trie", &w.db), ("delta", &delta_db)] {
                    for threads in [1usize, 4] {
                        let opts = ExecOptions::new(engine)
                            .with_kernel(policy)
                            .with_threads(threads);
                        let out = execute_opts(&w.query, db, &opts).unwrap();
                        assert_eq!(
                            out.result, reference.result,
                            "{}: {engine:?}/{policy:?}/{storage} x{threads}",
                            w.name
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn adaptive_policy_records_kernel_breakdown() {
    // the small dense hub-and-spoke domain must trigger the bitmap kernel, and
    // every workload must record at least one kernel invocation per WCOJ run
    let w = wcoj_workloads::hub_spoke(4096, 0xAB);
    for engine in [Engine::GenericJoin, Engine::Leapfrog] {
        let out = execute_opts(&w.query, &w.db, &ExecOptions::new(engine)).unwrap();
        assert!(out.work.kernel_calls() > 0, "{engine:?} ran no kernels");
        assert!(
            out.work.kernel_bitmap() > 0,
            "{engine:?} never chose the bitmap kernel on a dense small domain"
        );
    }
    for w in differential_suite(0x6E13) {
        // single-atom levels are plain enumerations (no kernel), and empty
        // results can short-circuit before any multi-way intersection runs —
        // only a non-empty Generic Join result over a genuinely joined variable
        // guarantees a kernel invocation (Leapfrog kernels only level 0 and the
        // deepest level, which on path-shaped queries are single-atom)
        let joined_var = (0..w.query.num_vars()).any(|v| w.query.atoms_containing(v).len() >= 2);
        let out = execute_opts(&w.query, &w.db, &ExecOptions::new(Engine::GenericJoin)).unwrap();
        if joined_var && !out.result.is_empty() {
            assert!(out.work.kernel_calls() > 0, "{}", w.name);
        }
    }
}

#[test]
fn forced_policies_shift_the_breakdown() {
    let w = wcoj_workloads::triangle(512, 0xF0);
    let opts = ExecOptions::new(Engine::GenericJoin);
    let merge = execute_opts(&w.query, &w.db, &opts.with_kernel(KernelPolicy::Merge)).unwrap();
    assert!(merge.work.kernel_merge() > 0);
    assert_eq!(merge.work.kernel_gallop(), 0);
    assert_eq!(merge.work.kernel_bitmap(), 0);
    let gallop = execute_opts(&w.query, &w.db, &opts.with_kernel(KernelPolicy::Gallop)).unwrap();
    assert!(gallop.work.kernel_gallop() > 0);
    assert_eq!(gallop.work.kernel_merge(), 0);
    // comparisons (dead in the pre-kernel engine: always 0) are now populated by
    // the merge kernel
    assert!(merge.work.comparisons() > 0);
}
