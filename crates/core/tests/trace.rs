//! Trace-neutrality property suite — the observability PR's acceptance
//! criterion:
//!
//! installing a [`TraceSink`] must not perturb execution. For every engine ×
//! threads {1, 4} × cache mode, rows AND work counters must be
//! **bit-identical** with tracing on or off; two traced runs of the same plan
//! must agree on every deterministic trace field (only wall-clock fields may
//! differ — [`QueryTrace::strip_nondeterministic`] removes exactly those); and
//! the per-level extension statistics must be thread-count independent
//! (relaxed atomic sums are commutative, so scheduling cannot change them).

use std::sync::Arc;
use wcoj_core::exec::{execute_explain, execute_opts_with_order, CacheMode, Engine, ExecOptions};
use wcoj_core::planner::agm_variable_order;
use wcoj_core::{QueryTrace, TraceSink};
use wcoj_obs::Json;
use wcoj_query::query::examples;
use wcoj_query::Database;
use wcoj_storage::Relation;
use wcoj_workloads::{four_cycle, triangle};

const ENGINES: [Engine; 3] = [Engine::BinaryHash, Engine::GenericJoin, Engine::Leapfrog];

/// Run one configuration traced and return `(output, trace)`.
fn run_traced(
    query: &wcoj_query::ConjunctiveQuery,
    db: &Database,
    opts: &ExecOptions,
    order: &[usize],
) -> (wcoj_core::ExecOutput, QueryTrace) {
    let sink = Arc::new(TraceSink::new());
    let out = execute_opts_with_order(query, db, &opts.with_trace(Arc::clone(&sink)), order)
        .expect("traced run");
    let trace = sink.take().expect("trace deposited");
    (out, trace)
}

#[test]
fn tracing_never_perturbs_rows_or_counters() {
    for w in [triangle(300, 7), four_cycle(200, 11)] {
        let order = agm_variable_order(&w.query, &w.db).expect("planner");
        for engine in ENGINES {
            for threads in [1usize, 4] {
                for cache in [CacheMode::Off, CacheMode::On] {
                    let base = ExecOptions::new(engine)
                        .with_threads(threads)
                        .with_cache(cache);
                    let label = format!("{engine:?}/t{threads}/{cache:?}");
                    let plain =
                        execute_opts_with_order(&w.query, &w.db, &base, &order).expect("plain");
                    let (traced, trace) = run_traced(&w.query, &w.db, &base, &order);
                    assert_eq!(traced.result, plain.result, "{label}: rows perturbed");
                    assert_eq!(traced.work, plain.work, "{label}: counters perturbed");
                    // the trace's work pairs are the counter, re-spelled
                    assert_eq!(
                        trace.work_value("total_work"),
                        Some(plain.work.total_work()),
                        "{label}"
                    );
                    assert_eq!(
                        trace.work_value("kernel_merge"),
                        Some(plain.work.kernel_merge()),
                        "{label}"
                    );
                    assert_eq!(
                        trace.work_value("output_tuples"),
                        Some(plain.work.output_tuples()),
                        "{label}"
                    );
                    assert_eq!(trace.rows, plain.result.len() as u64, "{label}");
                    assert_eq!(trace.cache_hits, traced.cache_stats.hits, "{label}");
                    assert_eq!(trace.cache_misses, traced.cache_stats.misses, "{label}");
                    // two traced runs agree on every deterministic field
                    let (traced2, trace2) = run_traced(&w.query, &w.db, &base, &order);
                    assert_eq!(traced2.result, plain.result, "{label}: rerun rows");
                    assert_eq!(traced2.work, plain.work, "{label}: rerun counters");
                    let mut a = trace.clone();
                    let mut b = trace2.clone();
                    a.strip_nondeterministic();
                    b.strip_nondeterministic();
                    // cache mode On: the second traced run may hit where the
                    // first missed, so compare cache-independent forms
                    for t in [&mut a, &mut b] {
                        t.cache_hits = 0;
                        t.cache_misses = 0;
                        t.cache_incremental = 0;
                        t.cache_evictions = 0;
                    }
                    for t in [&mut a, &mut b] {
                        for atom in &mut t.atoms {
                            atom.outcome.clear();
                        }
                    }
                    assert_eq!(a, b, "{label}: deterministic trace fields diverge");
                }
            }
        }
    }
}

#[test]
fn per_level_statistics_are_thread_count_independent() {
    let w = triangle(400, 21);
    let order = agm_variable_order(&w.query, &w.db).expect("planner");
    for engine in [Engine::GenericJoin, Engine::Leapfrog] {
        let base = ExecOptions::new(engine).with_cache(CacheMode::Off);
        let (_, serial) = run_traced(&w.query, &w.db, &base, &order);
        for threads in [2usize, 4, 8] {
            let (_, parallel) = run_traced(&w.query, &w.db, &base.with_threads(threads), &order);
            assert_eq!(
                serial.levels, parallel.levels,
                "{engine:?}: per-level stats differ at t{threads}"
            );
            let morsels = parallel.morsels.expect("parallel runs report morsels");
            assert_eq!(morsels.workers.len(), threads);
            let claimed: u64 = morsels.workers.iter().map(|w| w.claimed).sum();
            assert_eq!(
                claimed, morsels.morsels,
                "every morsel claimed exactly once"
            );
        }
        assert!(serial.morsels.is_none(), "serial runs schedule no morsels");
        // the deepest level emits exactly the output rows
        let deepest = serial.levels.last().expect("triangle has levels");
        assert_eq!(deepest.emitted, serial.rows);
    }
}

#[test]
fn explain_analyze_profiles_a_delta_backed_triangle() {
    // triangle over one delta-backed edge relation: the EXPLAIN ANALYZE
    // acceptance scenario — per-level tree with kernel choice and cache
    // outcome, JSON that round-trips through the parser
    let q = examples::clique(3);
    let mut db = Database::new();
    db.insert(
        "E",
        Relation::from_pairs(
            "src",
            "dst",
            (0..400u64).flat_map(|i| [(i % 25, (i * 7) % 23), ((i * 3) % 25, (i * 11) % 23)]),
        ),
    );
    db.set_cache_budget(64 << 20);
    db.insert_delta("E", vec![100, 101]).unwrap();
    db.delete("E", &[100, 101]).unwrap();
    db.insert_delta("E", vec![1, 2]).unwrap();
    db.seal("E").unwrap();
    assert!(db.delta("E").is_some(), "E must stay delta-backed");

    let opts = ExecOptions::new(Engine::GenericJoin);
    let (out, trace) = execute_explain(&q, &db, &opts).expect("explain");
    let (out2, trace2) = execute_explain(&q, &db, &opts).expect("explain warm");
    assert_eq!(out.result, out2.result);
    assert_eq!(out.work, out2.work, "explain never perturbs counters");

    assert_eq!(trace.engine, "generic_join");
    assert_eq!(trace.order.len(), 3);
    assert!(trace.agm_log2.is_finite(), "AGM estimate recorded");
    assert_eq!(trace.atoms.len(), 3, "one build record per atom");
    assert!(
        trace.atoms.iter().all(|a| a.kind == "delta"),
        "clique atoms are views of the delta-backed E"
    );
    assert_eq!(trace.levels.len(), 3, "one level record per variable");
    assert!(
        trace.levels.iter().any(|l| l.candidates > 0),
        "kernel-layer levels report candidates"
    );
    // the planner's order keeps every atom in the relation's native column
    // order, and identity-order delta views borrow the log directly — the
    // trace reports that honestly as a cache bypass
    assert!(
        trace2.atoms.iter().all(|a| a.outcome == "bypass"),
        "identity-order delta views bypass the cache: {:?}",
        trace2.atoms
    );

    // a reversed order forces permuted delta views, which do flow through the
    // access cache: cold run misses (then hits the just-inserted view for the
    // remaining same-keyed atoms), warm run hits throughout
    let rev = vec![2usize, 1, 0];
    let (_, cold) = run_traced(&q, &db, &opts, &rev);
    assert!(
        cold.atoms.iter().any(|a| a.outcome == "miss"),
        "cold reversed-order run builds a permuted view: {:?}",
        cold.atoms
    );
    let (_, warm) = run_traced(&q, &db, &opts, &rev);
    assert!(
        warm.atoms.iter().all(|a| a.outcome == "hit"),
        "warm reversed-order run hits the access cache: {:?}",
        warm.atoms
    );

    // the human tree names the phases, levels, and kernels
    let tree = trace.render_tree();
    for needle in ["plan", "build", "join", "level 0", "cache", "work"] {
        assert!(tree.contains(needle), "tree missing {needle:?}:\n{tree}");
    }

    // the JSON form round-trips through the crate's own parser
    let json = Json::parse(&trace.to_json()).expect("trace JSON parses");
    assert_eq!(
        json.get("rows").and_then(Json::as_u64),
        Some(out.result.len() as u64)
    );
    assert_eq!(
        json.get("levels").and_then(Json::as_arr).map(|a| a.len()),
        Some(3)
    );
    assert_eq!(
        json.get("engine").and_then(Json::as_str),
        Some("generic_join")
    );
}
