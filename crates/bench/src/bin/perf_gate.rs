//! CI perf-regression gate (the ROADMAP's perf-trajectory item).
//!
//! Re-measures the serial benchmark matrix at smoke-scale sizes and diffs every
//! row against the committed `BENCH_joins.json` baseline (matched on
//! workload/engine, `threads == 1`). Two checks per row:
//!
//! * **work** — the deterministic `total_work` tally must not exceed the
//!   baseline by more than the threshold (default 10%). Work counters are exactly
//!   reproducible, so this catches algorithmic regressions on any machine.
//! * **kernel breakdown** — the per-kernel tallies (`kernel_merge`,
//!   `kernel_gallop`, `kernel_bitmap`) and the incremental-path `delta_merge`
//!   tally must match the baseline **exactly**. The gate runs the default
//!   [`ExecOptions`] the service runs, and the kernel thresholds are constants,
//!   so the adaptive policy's choices are a pure function of the data: any drift means the kernel-selection logic (or
//!   a counted kernel's accounting) changed, and the baseline must be re-recorded
//!   deliberately rather than absorbed silently.
//! * **wall-clock** — the fresh time must not exceed the baseline median by more
//!   than `--time-factor` (default 1.10). The fresh measurement is the **minimum**
//!   of the timed iterations: scheduler noise and co-tenant interference only ever
//!   *add* time, so the minimum is the robust estimator for "did the code get
//!   slower". Wall-clock comparisons are only meaningful against a baseline
//!   recorded on comparable hardware, so CI runs with a looser
//!   `--time-factor 1.5` and relies on the work gate for precision.
//! * **cache differential** — every row is additionally executed once with the
//!   access-structure cache off ([`CacheMode::Off`]), and the output relation
//!   plus the **entire** work counter — including the exact per-kernel
//!   breakdown — must be bit-identical to the cached run. Caching may only
//!   change *when* structures are built, never *what* the join does; any
//!   divergence here means a stale or mispermuted structure leaked out of the
//!   cache. The timed iterations run with the cache enabled (the default), so
//!   `fresh_ms` is the warm repeated-query path; the `off_ms` / `warm_ratio`
//!   columns report the uncached time alongside it for visibility (informative,
//!   not gated — cold builds dominate small smoke sizes unevenly across hosts).
//! * **trace differential** — every row is executed once more with a
//!   [`TraceSink`] installed, and the output relation plus the entire work
//!   counter must again be bit-identical: observability may watch the join but
//!   never steer it. The timed iterations run trace-off, so the gate also
//!   bounds any residual cost of the disabled trace path.
//!
//! Exits non-zero if any row regresses — wire as a CI step:
//! `cargo run --release -p wcoj-bench --bin perf_gate -- --time-factor 1.5`.
//!
//! Options: `--baseline <path>` (default `BENCH_joins.json` at the workspace
//! root), `--time-factor <f>`, `--work-factor <f>`, `--full` (measure the full
//! non-smoke size matrix; slower).

use std::sync::Arc;
use std::time::Instant;
use wcoj_bench::report::parse_bench_json;
use wcoj_bench::{bench_matrix, ExperimentTable};
use wcoj_core::exec::{execute_opts_with_order, CacheMode, Engine, ExecOptions};
use wcoj_core::planner::agm_variable_order;
use wcoj_core::TraceSink;

fn min_time_ms<F: FnMut()>(mut f: F, iters: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

fn arg_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let time_factor: f64 = arg_value(&args, "--time-factor")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.10);
    let work_factor: f64 = arg_value(&args, "--work-factor")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.10);
    let full = args.iter().any(|a| a == "--full");
    let baseline_path = arg_value(&args, "--baseline")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| {
            std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join("BENCH_joins.json")
        });

    let doc = match std::fs::read_to_string(&baseline_path) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("perf_gate: cannot read {}: {e}", baseline_path.display());
            std::process::exit(2);
        }
    };
    let Some(baseline) = parse_bench_json(&doc) else {
        eprintln!(
            "perf_gate: {} is not a bench document",
            baseline_path.display()
        );
        std::process::exit(2);
    };

    let (sizes, clique_sizes): (&[usize], &[usize]) = if full {
        (&[1_024, 4_096, 16_384], &[1_024, 4_096])
    } else {
        (&[1_024, 4_096], &[1_024])
    };
    let iters = 5;

    let mut table = ExperimentTable::new(
        format!(
            "perf gate: fresh serial medians vs {} (work x{work_factor:.2}, time x{time_factor:.2})",
            baseline_path.display()
        ),
        &[
            "base_ms",
            "fresh_ms",
            "time_ratio",
            "base_work",
            "fresh_work",
            "work_ratio",
            "off_ms",
            "warm_ratio",
        ],
    );
    let mut failures = Vec::new();
    let mut compared = 0usize;

    for (label, w) in bench_matrix(sizes, clique_sizes) {
        let order = agm_variable_order(&w.query, &w.db).expect("planner");
        for engine in [Engine::BinaryHash, Engine::GenericJoin, Engine::Leapfrog] {
            let engine_name = format!("{engine:?}");
            let Some(base) = baseline
                .iter()
                .find(|r| r.workload == label && r.engine == engine_name && r.threads == 1)
            else {
                continue; // workload/engine not in the committed baseline yet
            };
            let opts = ExecOptions::new(engine);
            let out = execute_opts_with_order(&w.query, &w.db, &opts, &order).expect("execute");
            let fresh_ms = min_time_ms(
                || {
                    let _ = execute_opts_with_order(&w.query, &w.db, &opts, &order).unwrap();
                },
                iters,
            );
            // cache differential: the uncached execution must be bit-identical
            // in output rows and in the full work counter — caching can only
            // move structure *builds* around, never change what the join does
            let off_opts = opts.with_cache(CacheMode::Off);
            let off =
                execute_opts_with_order(&w.query, &w.db, &off_opts, &order).expect("execute off");
            if off.result != out.result {
                failures.push(format!(
                    "{label}/{engine_name}: cache-off output diverges from cache-on ({} vs {} rows)",
                    off.result.len(),
                    out.result.len()
                ));
            }
            for (tally, on_value, off_value) in [
                ("total_work", out.work.total_work(), off.work.total_work()),
                (
                    "kernel_merge",
                    out.work.kernel_merge(),
                    off.work.kernel_merge(),
                ),
                (
                    "kernel_gallop",
                    out.work.kernel_gallop(),
                    off.work.kernel_gallop(),
                ),
                (
                    "kernel_bitmap",
                    out.work.kernel_bitmap(),
                    off.work.kernel_bitmap(),
                ),
                (
                    "delta_merge",
                    out.work.delta_merge(),
                    off.work.delta_merge(),
                ),
            ] {
                if on_value != off_value {
                    failures.push(format!(
                        "{label}/{engine_name}: {tally} differs under caching ({off_value} off vs {on_value} on — breakdown must be exactly unchanged)"
                    ));
                }
            }
            if off.work != out.work {
                failures.push(format!(
                    "{label}/{engine_name}: work counters differ under caching (must be bit-identical)"
                ));
            }
            let off_ms = min_time_ms(
                || {
                    let _ = execute_opts_with_order(&w.query, &w.db, &off_opts, &order).unwrap();
                },
                iters,
            );
            // trace differential: a traced run must not drift a single counter
            let sink = Arc::new(TraceSink::new());
            let traced_opts = opts.with_trace(Arc::clone(&sink));
            let traced = execute_opts_with_order(&w.query, &w.db, &traced_opts, &order)
                .expect("execute traced");
            if traced.result != out.result || traced.work != out.work {
                failures.push(format!(
                    "{label}/{engine_name}: tracing perturbed execution (rows or work \
                     counters differ from the untraced run)"
                ));
            }
            match sink.take() {
                Some(trace) => {
                    if trace.work_value("total_work") != Some(out.work.total_work()) {
                        failures.push(format!(
                            "{label}/{engine_name}: trace work tally disagrees with the counter"
                        ));
                    }
                }
                None => failures.push(format!(
                    "{label}/{engine_name}: traced run deposited no trace"
                )),
            }
            let fresh_work = out.work.total_work();
            let base_work = base.work_value("total_work").unwrap_or(0);
            let time_ratio = fresh_ms / base.median_ms;
            let warm_ratio = fresh_ms / off_ms.max(f64::MIN_POSITIVE);
            let work_ratio = if base_work == 0 {
                // a zero/missing baseline tally must not silently disable the
                // deterministic gate: any fresh work over a zero base fails below
                if fresh_work == 0 {
                    1.0
                } else {
                    f64::INFINITY
                }
            } else {
                fresh_work as f64 / base_work as f64
            };
            compared += 1;
            table.push(
                format!("{label}/{engine_name}"),
                vec![
                    base.median_ms,
                    fresh_ms,
                    time_ratio,
                    base_work as f64,
                    fresh_work as f64,
                    work_ratio,
                    off_ms,
                    warm_ratio,
                ],
            );
            if work_ratio > work_factor {
                failures.push(format!(
                    "{label}/{engine_name}: total_work {base_work} -> {fresh_work} (x{work_ratio:.3} > x{work_factor:.2})"
                ));
            }
            // deterministic per-kernel breakdown: exact match required (see module
            // docs) — skipped per tally when the baseline predates the tally
            for (tally, fresh_value) in [
                ("kernel_merge", out.work.kernel_merge()),
                ("kernel_gallop", out.work.kernel_gallop()),
                ("kernel_bitmap", out.work.kernel_bitmap()),
                ("delta_merge", out.work.delta_merge()),
            ] {
                let Some(base_value) = base.work_value(tally) else {
                    continue;
                };
                if fresh_value != base_value {
                    failures.push(format!(
                        "{label}/{engine_name}: {tally} {base_value} -> {fresh_value} (breakdown must match exactly)"
                    ));
                }
            }
            if time_ratio > time_factor {
                failures.push(format!(
                    "{label}/{engine_name}: baseline median {:.3}ms -> fresh min {fresh_ms:.3}ms (x{time_ratio:.3} > x{time_factor:.2})",
                    base.median_ms
                ));
            }
        }
    }

    table.print();
    if compared == 0 {
        eprintln!("perf_gate: no overlapping rows between the fresh matrix and the baseline");
        std::process::exit(2);
    }
    if failures.is_empty() {
        println!("perf gate PASSED: {compared} rows within budget");
    } else {
        eprintln!("perf gate FAILED ({} of {compared} rows):", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}
