//! Property tests for morsel-driven parallel execution.
//!
//! For every workload in the differential suite, both WCOJ engines, and thread
//! counts 1, 2, 4, 8: the parallel result relation must equal the serial engine's
//! (which is already sorted canonically), and the merged work counters must equal
//! the serial counters *exactly* — the determinism guarantee of
//! `wcoj_core::exec::parallel` (driver-counted intersection + scheduling-independent
//! per-extension work).

use wcoj_core::exec::{execute, execute_opts, Engine, ExecOptions};
use wcoj_query::Database;
use wcoj_workloads::differential_suite;

#[test]
fn parallel_results_and_merged_counters_equal_serial() {
    for w in differential_suite(0x9A11E1) {
        for engine in [Engine::GenericJoin, Engine::Leapfrog] {
            let serial = execute(&w.query, &w.db, engine)
                .unwrap_or_else(|e| panic!("{}: serial {engine:?} failed: {e}", w.name));
            for threads in [1usize, 2, 4, 8] {
                let opts = ExecOptions::new(engine).with_threads(threads);
                let out = execute_opts(&w.query, &w.db, &opts)
                    .unwrap_or_else(|e| panic!("{}: {engine:?} x{threads} failed: {e}", w.name));
                assert_eq!(
                    out.result, serial.result,
                    "{}: {engine:?} x{threads} result diverges from serial",
                    w.name
                );
                assert_eq!(
                    out.work, serial.work,
                    "{}: {engine:?} x{threads} merged counters diverge from serial",
                    w.name
                );
                assert_eq!(out.order, serial.order);
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
fn parallel_equality_holds_on_both_backends() {
    // the guarantee is storage-independent: repeat the check with every atom
    // on a static trie and with every atom on a delta-log union cursor
    for w in [
        wcoj_workloads::triangle(256, 0xBAC0),
        wcoj_workloads::lw4(64, 0xBAC1),
    ] {
        for (storage, db) in [("trie", w.db.clone()), ("delta", delta_backed(&w.db))] {
            for engine in [Engine::GenericJoin, Engine::Leapfrog] {
                let serial_opts = ExecOptions::new(engine);
                let serial = execute_opts(&w.query, &db, &serial_opts).unwrap();
                for threads in [2usize, 4] {
                    let opts = serial_opts.with_threads(threads);
                    let out = execute_opts(&w.query, &db, &opts).unwrap();
                    assert_eq!(
                        out.result, serial.result,
                        "{}: {engine:?}/{storage} x{threads}",
                        w.name
                    );
                    assert_eq!(
                        out.work, serial.work,
                        "{}: {engine:?}/{storage} x{threads} counters",
                        w.name
                    );
                }
            }
        }
    }
}

#[test]
fn oversubscribed_threads_are_harmless() {
    // more threads than extension values: extra workers claim nothing and exit
    let w = wcoj_workloads::triangle(32, 0xFEED);
    let serial = execute(&w.query, &w.db, Engine::GenericJoin).unwrap();
    let opts = ExecOptions::new(Engine::GenericJoin).with_threads(64);
    let out = execute_opts(&w.query, &w.db, &opts).unwrap();
    assert_eq!(out.result, serial.result);
    assert_eq!(out.work, serial.work);
}
