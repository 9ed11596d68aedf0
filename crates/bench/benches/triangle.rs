//! Join benchmark: binary hash-join plan vs. Generic Join vs. Leapfrog Triejoin —
//! serial and morsel-parallel — over uniform and Zipf-skewed triangle instances,
//! high-skew small-domain hub-and-spoke triangles (the bitmap-kernel regime), and
//! 4-clique self-joins (deep multi-way intersections).
//!
//! Dependency-free harness (no criterion in this environment): each configuration is
//! warmed up once, then timed over several iterations with `std::time::Instant`; the
//! median wall-clock time and the `WorkCounter` totals are reported side by side with
//! the AGM bound so the work numbers can be read against `N^{3/2}`. WCOJ engines run
//! at thread counts {1, 2, 4} to expose the morsel-parallel scaling axis.
//!
//! Besides the plain-text table, every measurement is appended to
//! `BENCH_joins.json` at the repository root (workload, engine, threads, median
//! wall-clock, work tallies) so the perf trajectory is machine-readable across PRs.
//!
//! Run with `cargo bench -p wcoj-bench` (see `EXPERIMENTS.md`, experiment E2).
//! Pass `-- --smoke` for a seconds-scale subset used by CI to catch perf-path
//! panics and gross regressions.

use std::time::Instant;
use wcoj_bench::{bench_matrix, BenchRecord, ExperimentTable};
use wcoj_bounds::agm::agm_bound;
use wcoj_core::exec::{execute_opts_with_order, Engine, ExecOptions};
use wcoj_core::planner::agm_variable_order;

fn median_time_ms<F: FnMut()>(mut f: F, iters: usize) -> f64 {
    let mut samples: Vec<f64> = Vec::with_capacity(iters);
    for _ in 0..iters {
        let start = Instant::now();
        f();
        samples.push(start.elapsed().as_secs_f64() * 1e3);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

fn thread_counts(engine: Engine) -> &'static [usize] {
    match engine {
        Engine::BinaryHash => &[1],
        _ => &[1, 2, 4],
    }
}

fn bench_workload(
    table: &mut ExperimentTable,
    records: &mut Vec<BenchRecord>,
    label: &str,
    w: &wcoj_workloads::Workload,
    iters: usize,
) {
    let order = agm_variable_order(&w.query, &w.db).expect("planner");
    let agm = agm_bound(&w.query, &w.db).expect("agm").tuple_bound();
    for engine in [Engine::BinaryHash, Engine::GenericJoin, Engine::Leapfrog] {
        for &threads in thread_counts(engine) {
            let opts = ExecOptions::new(engine).with_threads(threads);
            // warm-up run also gives us the output size and work counters
            let out = execute_opts_with_order(&w.query, &w.db, &opts, &order).expect("execute");
            let ms = median_time_ms(
                || {
                    let _ = execute_opts_with_order(&w.query, &w.db, &opts, &order).unwrap();
                },
                iters,
            );
            table.push(
                format!("{label}/{engine:?}/t{threads}"),
                vec![
                    ms,
                    out.work.total_work() as f64,
                    out.result.len() as f64,
                    agm,
                ],
            );
            records.push(BenchRecord {
                workload: label.to_string(),
                engine: format!("{engine:?}"),
                threads,
                median_ms: ms,
                out_tuples: out.result.len() as u64,
                agm_bound: agm,
                work: vec![
                    ("intersect_steps".into(), out.work.intersect_steps()),
                    ("probes".into(), out.work.probes()),
                    ("intermediate_tuples".into(), out.work.intermediate_tuples()),
                    ("output_tuples".into(), out.work.output_tuples()),
                    ("comparisons".into(), out.work.comparisons()),
                    ("delta_merge".into(), out.work.delta_merge()),
                    ("total_work".into(), out.work.total_work()),
                    ("kernel_merge".into(), out.work.kernel_merge()),
                    ("kernel_gallop".into(), out.work.kernel_gallop()),
                    ("kernel_bitmap".into(), out.work.kernel_bitmap()),
                ],
            });
        }
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (sizes, iters): (&[usize], usize) = if smoke {
        (&[256, 1_024], 1)
    } else {
        (&[1_024, 4_096, 16_384], 5)
    };

    let mut table = ExperimentTable::new(
        "E2: triangle query — binary plan vs Generic Join vs Leapfrog Triejoin (t = threads)",
        &["median_ms", "work", "out_tuples", "agm_bound"],
    );
    let mut records: Vec<BenchRecord> = Vec::new();
    // clique4 output grows ~quadratically in n: cap the sizes below the triangles'
    let clique_sizes: &[usize] = if smoke { &[256] } else { &[1_024, 4_096] };
    for (label, w) in bench_matrix(sizes, clique_sizes) {
        bench_workload(&mut table, &mut records, &label, &w, iters);
    }
    table.print();

    if !smoke {
        // cargo runs benches with CWD = the package dir; anchor at the workspace root
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("BENCH_joins.json");
        match wcoj_bench::report::write_bench_json(&path, "cargo bench -p wcoj-bench", &records) {
            Ok(()) => println!("wrote {} records to {}", records.len(), path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
}
