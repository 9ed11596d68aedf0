//! E10: group commit, checkpointed recovery, and the E9.4 cache-thrash fix —
//! the measurements behind the `EXPERIMENTS.md` E10 writeup.
//!
//! Four sections:
//!
//! 1. **Durable ingest vs committers** — concurrent writers drive blind
//!    batches through the group-commit coordinator; batches/s at 1–8
//!    committers, coalescing window off and on. The solo row is the E9.1
//!    baseline shape (one fsync per batch); the scaling above it is what the
//!    shared fsync buys.
//! 2. **Recovery time vs history length** — logs of growing batch counts are
//!    reopened with checkpoints enabled (tiny segments, checkpoint per
//!    rotation) and disabled; checkpointed recovery replays only the tail and
//!    stays flat while uncheckpointed recovery grows linearly.
//! 3. **Snapshot/live cache thrash (E9.4)** — a pinned snapshot and an
//!    advanced live catalog alternate the same query; the epoch-aware cache
//!    partition keeps both warm (zero misses and re-merges after the first
//!    alternation).
//! 4. **Solo-writer latency** — the group path must not tax the uncontended
//!    writer: solo apply latency with the coordinator (and the honest cost of
//!    turning the coalescing window on for a solo writer).
//!
//! `--smoke` shrinks sizes for CI (correctness asserts stay on); the full run
//! backs the numbers quoted in `EXPERIMENTS.md` and records `e10_*` rows into
//! `BENCH_joins.json`.

use std::time::{Duration, Instant};
use wcoj_bench::report::{parse_bench_json, write_bench_json, BenchRecord};
use wcoj_core::exec::{execute_opts_with_order, ExecOptions};
use wcoj_core::planner::agm_variable_order;
use wcoj_query::query::examples;
use wcoj_query::Database;
use wcoj_service::{QueryService, ServiceConfig, WriteBatch};
use wcoj_storage::{DeltaRelation, Schema};
use wcoj_workloads::{random_pairs, SplitMix64};

fn edge_db() -> Database {
    let mut db = Database::new();
    let mut delta = DeltaRelation::new(Schema::new(&["a", "b"]));
    delta.set_seal_threshold(usize::MAX);
    db.insert_delta_relation("E", delta);
    db
}

fn wal_dir(tag: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("wcoj-e10-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&p).ok();
    p
}

/// `threads` committers push `per_thread` blind batches (`ops` inserts each)
/// through one durable service; returns (batches/s, groups, histogram).
fn ingest_rate(
    tag: &str,
    config: ServiceConfig,
    threads: u64,
    per_thread: u64,
    ops: u64,
) -> (f64, u64, [u64; 6]) {
    let path = wal_dir(tag);
    let (service, _) = QueryService::open(&path, edge_db(), config).unwrap();
    let t = Instant::now();
    std::thread::scope(|scope| {
        for thread in 0..threads {
            let service = &service;
            scope.spawn(move || {
                let mut rng = SplitMix64::new(0xE10 ^ thread);
                for _ in 0..per_thread {
                    let mut batch = WriteBatch::new();
                    for _ in 0..ops {
                        batch =
                            batch.insert("E", vec![rng.next_u64() % 4096, rng.next_u64() % 4096]);
                    }
                    service.apply(&batch).unwrap();
                }
            });
        }
    });
    let secs = t.elapsed().as_secs_f64();
    let stats = service.stats();
    assert_eq!(stats.batches_committed, threads * per_thread);
    assert_eq!(
        stats.batches_per_fsync.iter().sum::<u64>(),
        stats.group_commits
    );
    drop(service);
    std::fs::remove_dir_all(&path).ok();
    (
        (threads * per_thread) as f64 / secs,
        stats.group_commits,
        stats.batches_per_fsync,
    )
}

fn service_record(workload: &str, engine: &str, ms: f64, work: Vec<(String, u64)>) -> BenchRecord {
    BenchRecord {
        workload: workload.to_string(),
        engine: engine.to_string(),
        threads: 1,
        median_ms: ms,
        out_tuples: 0,
        agm_bound: 0.0,
        work,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let trailing = if smoke { " (smoke)" } else { "" };
    println!("E10: group commit + checkpointed recovery{trailing}\n");
    let mut e10_records: Vec<BenchRecord> = Vec::new();

    // ---- 1. durable ingest vs committers ---------------------------------
    println!("E10.1 durable ingest (8-op blind batches, batches/s):");
    let per_thread = if smoke { 50 } else { 400 };
    let mut solo_rate = 0.0;
    let mut rate_at_8 = 0.0;
    let mut amortization_at_8 = 0.0;
    for window_us in [0u64, 200] {
        let label = if window_us == 0 {
            "window off"
        } else {
            "window 200us"
        };
        for threads in [1u64, 2, 4, 8] {
            let config =
                ServiceConfig::default().with_group_commit_window(Duration::from_micros(window_us));
            let (rate, groups, hist) = ingest_rate(
                &format!("ingest-w{window_us}-t{threads}"),
                config,
                threads,
                per_thread,
                8,
            );
            let batches = threads * per_thread;
            println!(
                "  {label}, {threads} committer(s): {rate:>9.0} batches/s ({groups:>4} fsyncs for {batches:>4} batches, {:.2} batches/fsync, histogram {hist:?})",
                batches as f64 / groups as f64
            );
            if window_us == 0 && threads == 1 {
                solo_rate = rate;
            }
            if window_us == 0 && threads == 8 {
                rate_at_8 = rate;
                amortization_at_8 = batches as f64 / groups as f64;
            }
            e10_records.push(service_record(
                &format!("e10_ingest_c{threads}_w{window_us}"),
                "service[group]",
                batches as f64 / rate / 1e-3 / batches as f64, // ms per batch
                vec![
                    ("batches".into(), batches),
                    ("group_commits".into(), groups),
                ],
            ));
        }
    }
    println!(
        "  => 8-committer group commit: x{:.2} over the solo one-fsync-per-batch baseline ({:.0} vs {:.0} batches/s), {:.1} batches amortized per fsync",
        rate_at_8 / solo_rate,
        rate_at_8,
        solo_rate,
        amortization_at_8,
    );
    println!(
        "     (vs the E9.1 PR 8 baseline of ~4.5k batches/s: x{:.1}; the wall-clock \
         ceiling on this container is (c+f)/(c+f/8) with fsync f ~ 115us and serial \
         per-batch CPU c ~ 22us — see EXPERIMENTS.md E10 for the honest accounting)",
        rate_at_8 / 4500.0
    );
    if !smoke {
        // what group commit actually guarantees, robust to this container's
        // cheap fsync: real fsync amortization and a real wall-clock win
        assert!(
            amortization_at_8 >= 3.0,
            "acceptance: 8 committers must amortize >= 3 batches per fsync \
             (got {amortization_at_8:.2})",
        );
        assert!(
            rate_at_8 >= 1.8 * solo_rate,
            "acceptance: 8 committers must sustain >= 1.8x the solo fsync-per-batch rate \
             (got x{:.2}: {rate_at_8:.0} vs {solo_rate:.0} batches/s)",
            rate_at_8 / solo_rate
        );
        assert!(
            rate_at_8 >= 3.0 * 4500.0,
            "acceptance: 8-committer durable ingest must clear 3x the E9.1 ~4.5k \
             batches/s baseline (got {rate_at_8:.0} batches/s)",
        );
    }

    // ---- 2. recovery time vs history length ------------------------------
    println!("\nE10.2 recovery time vs history (16-op batches):");
    let histories: &[u64] = if smoke {
        &[100, 400]
    } else {
        &[500, 2000, 8000]
    };
    let segment_bytes: u64 = if smoke { 8 * 1024 } else { 64 * 1024 };
    for &with_ckpt in &[false, true] {
        let label = if with_ckpt {
            "checkpoints on (rotating)"
        } else {
            "checkpoints off          "
        };
        for &batches in histories {
            let config = if with_ckpt {
                ServiceConfig::default()
                    .with_segment_bytes(segment_bytes)
                    .with_checkpoint_after_segments(1)
            } else {
                ServiceConfig::default().with_checkpoint_after_segments(0)
            };
            let path = wal_dir(&format!("rec-{with_ckpt}-{batches}"));
            let (service, _) = QueryService::open(&path, edge_db(), config.clone()).unwrap();
            let mut rng = SplitMix64::new(0xEC);
            for i in 0..batches {
                let mut batch = WriteBatch::new();
                for _ in 0..16 {
                    batch = batch.insert("E", vec![rng.next_u64() % 4096, rng.next_u64() % 4096]);
                }
                if i % 16 == 15 {
                    batch = batch.seal("E");
                }
                service.apply(&batch).unwrap();
            }
            let rows = service.with_db(|db| db.delta("E").unwrap().len());
            drop(service); // crash
            let t = Instant::now();
            let (recovered, replayed) = QueryService::open(&path, edge_db(), config).unwrap();
            let ms = t.elapsed().as_secs_f64() * 1e3;
            assert_eq!(replayed.committed, batches);
            recovered.with_db(|db| assert_eq!(db.delta("E").unwrap().len(), rows));
            if with_ckpt {
                assert!(
                    (replayed.tail.len() as u64) < batches,
                    "checkpoints must bound the replay tail"
                );
            } else {
                assert_eq!(
                    replayed.tail.len() as u64,
                    batches,
                    "no checkpoint: full replay"
                );
            }
            println!(
                "  {label} {batches:>5} batches: reopen {ms:>8.2} ms (tail {:>5} batches, wal {:>8} bytes)",
                replayed.tail.len(),
                replayed.wal_bytes
            );
            e10_records.push(service_record(
                &format!(
                    "e10_recovery_{}_{batches}",
                    if with_ckpt { "ckpt" } else { "nockpt" }
                ),
                "service[recover]",
                ms,
                vec![
                    ("tail_batches".into(), replayed.tail.len() as u64),
                    ("wal_bytes".into(), replayed.wal_bytes),
                ],
            ));
            std::fs::remove_dir_all(&path).ok();
        }
    }

    // ---- 3. snapshot/live cache thrash (E9.4) ----------------------------
    println!("\nE10.3 snapshot/live cache thrash — the E9.4 fix:");
    let n = if smoke { 2_000 } else { 20_000 };
    let iters = if smoke { 20 } else { 100 };
    let q = examples::triangle();
    let mut db = Database::new();
    for (name, cols, salt) in [
        ("R", ["a", "b"], 1u64),
        ("S", ["b", "c"], 2),
        ("T", ["a", "c"], 3),
    ] {
        let mut delta = DeltaRelation::new(Schema::new(&cols));
        delta.set_seal_threshold(usize::MAX);
        for (a, b) in random_pairs(n, (n as u64 / 8).max(16), 0xE94 ^ salt) {
            delta.insert(vec![a, b]).unwrap();
        }
        delta.seal();
        db.insert_delta_relation(name, delta);
    }
    let order = agm_variable_order(&q, &db).expect("planner");
    let opts = ExecOptions::default();
    // pin the "old" state, then advance the live catalog past it
    let snap = db.snapshot();
    for name in ["R", "S", "T"] {
        db.insert_delta(name, vec![1, 2]).unwrap();
        db.seal(name).unwrap();
    }
    db.access_cache().clear();
    // first alternation builds both sides; afterwards both should be warm
    let live0 = execute_opts_with_order(&q, &db, &opts, &order).unwrap();
    let snap0 = execute_opts_with_order(&q, &snap, &opts, &order).unwrap();
    let mut misses = 0u64;
    let mut merges = 0u64;
    let t = Instant::now();
    for _ in 0..iters {
        let live = execute_opts_with_order(&q, &db, &opts, &order).unwrap();
        let pinned = execute_opts_with_order(&q, &snap, &opts, &order).unwrap();
        assert_eq!(live.result, live0.result, "live rows stable");
        assert_eq!(pinned.result, snap0.result, "pinned rows stable");
        misses += live.cache_stats.misses + pinned.cache_stats.misses;
        merges += live.cache_stats.incremental_merges + pinned.cache_stats.incremental_merges;
    }
    let ms = t.elapsed().as_secs_f64() * 1e3 / (2 * iters) as f64;
    println!(
        "  partitioned: {misses:>4} misses + {merges:>4} re-merges over {iters} alternations ({ms:.3} ms/query)",
    );
    e10_records.push(service_record(
        "e10_thrash_on",
        "GenericJoin[alt]",
        ms,
        vec![("misses".into(), misses), ("remerges".into(), merges)],
    ));
    assert_eq!(
        misses + merges,
        0,
        "with epoch-aware partitions the alternation runs fully warm"
    );

    // ---- 4. solo-writer latency ------------------------------------------
    println!("\nE10.4 solo-writer apply latency (24-op batches, durable):");
    let solo_batches = if smoke { 100 } else { 1000 };
    let mut base_us = 0.0;
    for (label, window) in [
        ("window off (default)", Duration::ZERO),
        ("window 200us        ", Duration::from_micros(200)),
    ] {
        let path = wal_dir(&format!("solo-{}", window.as_micros()));
        let config = ServiceConfig::default().with_group_commit_window(window);
        let (service, _) = QueryService::open(&path, edge_db(), config).unwrap();
        let mut rng = SplitMix64::new(0x5010);
        let mut lat: Vec<f64> = Vec::with_capacity(solo_batches);
        for _ in 0..solo_batches {
            let mut batch = WriteBatch::new();
            for _ in 0..24 {
                batch = batch.insert("E", vec![rng.next_u64() % 4096, rng.next_u64() % 4096]);
            }
            let t = Instant::now();
            service.apply(&batch).unwrap();
            lat.push(t.elapsed().as_secs_f64() * 1e6);
        }
        lat.sort_by(|a, b| a.total_cmp(b));
        let median = lat[lat.len() / 2];
        let p99 = lat[(lat.len() * 99) / 100];
        let stats = service.stats();
        assert_eq!(
            stats.group_commits, solo_batches as u64,
            "a solo writer commits every batch in its own group"
        );
        assert_eq!(
            stats.batches_per_fsync[0], solo_batches as u64,
            "...of size exactly 1 (the degenerate PR 8 path)"
        );
        println!("  {label}: median {median:>7.1} us, p99 {p99:>7.1} us");
        if window.is_zero() {
            base_us = median;
            e10_records.push(service_record(
                "e10_solo_apply",
                "service[solo]",
                median / 1e3,
                vec![("batches".into(), solo_batches as u64)],
            ));
        } else {
            println!(
                "  honest negative: the coalescing window is pure added latency for a solo writer (+{:.0} us vs {:.0} us median) — that is why it defaults to off",
                median - base_us,
                base_us
            );
        }
        drop(service);
        std::fs::remove_dir_all(&path).ok();
    }

    // ---- record E10 rows into BENCH_joins.json (full runs only) ----------
    if !smoke {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("BENCH_joins.json");
        let mut records: Vec<BenchRecord> = std::fs::read_to_string(&path)
            .ok()
            .and_then(|doc| parse_bench_json(&doc))
            .unwrap_or_default();
        records.retain(|r| !r.workload.starts_with("e10_"));
        records.extend(e10_records);
        match write_bench_json(
            &path,
            "cargo bench -p wcoj-bench (+ e8_view_cache, e10_group_commit)",
            &records,
        ) {
            Ok(()) => println!("\nwrote E10 rows into {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }

    println!("\nE10 PASSED");
}
