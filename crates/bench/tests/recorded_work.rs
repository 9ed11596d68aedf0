//! The service's default execution reproduces the gated work counters.
//!
//! `perf_gate` compares fresh runs against the serial rows of the committed
//! `BENCH_joins.json`. Those tallies are only worth gating if they are what a
//! live query does: the service executes with plain `ExecOptions::new(engine)`
//! and the planner's order, so this test runs exactly that and requires every
//! recorded work tally — including the per-kernel breakdown — to match.

use wcoj_bench::bench_matrix;
use wcoj_bench::report::parse_bench_json;
use wcoj_core::exec::{execute_opts, Engine, ExecOptions};

#[test]
fn service_defaults_reproduce_recorded_work() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_joins.json");
    let doc = std::fs::read_to_string(&path).expect("read BENCH_joins.json");
    let baseline = parse_bench_json(&doc).expect("BENCH_joins.json parses");

    let wanted = ["uniform_n1024", "zipf_n1024", "hub_n1024"];
    let mut checked = 0;
    for (label, w) in bench_matrix(&[1_024], &[]) {
        assert!(wanted.contains(&label.as_str()), "unexpected row {label}");
        for engine in [Engine::GenericJoin, Engine::Leapfrog] {
            let name = format!("{engine:?}");
            let row = baseline
                .iter()
                .find(|r| r.workload == label && r.engine == name && r.threads == 1)
                .unwrap_or_else(|| panic!("{label}/{name}: no serial row recorded"));
            let out = execute_opts(&w.query, &w.db, &ExecOptions::new(engine)).expect("execute");
            assert_eq!(
                out.result.len() as u64,
                row.out_tuples,
                "{label}/{name} rows"
            );
            let w = &out.work;
            let fresh = [
                ("intersect_steps", w.intersect_steps()),
                ("probes", w.probes()),
                ("intermediate_tuples", w.intermediate_tuples()),
                ("output_tuples", w.output_tuples()),
                ("comparisons", w.comparisons()),
                ("delta_merge", w.delta_merge()),
                ("total_work", w.total_work()),
                ("kernel_merge", w.kernel_merge()),
                ("kernel_gallop", w.kernel_gallop()),
                ("kernel_bitmap", w.kernel_bitmap()),
            ];
            assert_eq!(
                row.work.len(),
                fresh.len(),
                "{label}/{name}: recorded tallies"
            );
            for (tally, value) in fresh {
                assert_eq!(
                    row.work_value(tally),
                    Some(value),
                    "{label}/{name}: {tally}"
                );
            }
            checked += 1;
        }
    }
    assert_eq!(checked, 6);
}
