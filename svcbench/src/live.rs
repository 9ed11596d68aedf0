//! `live`: a durable service (WAL directory, one fsync per commit group)
//! over the cache-replay catalog — delta-backed `R` and `S` receiving writes,
//! static `T`. One closed-loop reader runs the triangle; one open-loop
//! writer sends, at a fixed rate, insert batches with sliding-window deletes,
//! a periodic seal and a rare compact. Each write is timed from the moment
//! it was due. Segments are small, so checkpoints cycle several times a run.
//!
//! Why: reads and writes contend for the CPUs and the catalog lock, and MVCC
//! snapshots, delta union cursors, cache revalidation under epoch churn,
//! group commit, fsync and checkpoints all sit in the foreground. A read-path
//! gain that costs writes, or the reverse, shows up here.

use std::collections::{BTreeSet, VecDeque};
use std::path::Path;
use std::time::{Duration, Instant};

use wcoj_core::{execute_opts, CacheMode, Engine, ExecOptions};
use wcoj_query::{parse_query, Database, Snapshot};
use wcoj_service::{QueryService, ServiceConfig, WriteBatch};
use wcoj_storage::wal::WalOp;
use wcoj_workloads::{query_replay, zipf_pairs};

use crate::client::{digest, query_op, Tracer};
use crate::stats::{quantile, Hist};
use crate::{host, phase_seconds, push, timed_setups, Config, Phase, Scale, Tally, WorkloadRun};

/// The reader's query.
pub const TRIANGLE: &str = "Q(A,B,C) :- R(A,B), S(B,C), T(A,C).";

/// Sizes and the write schedule.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Size of the replay catalog (`query_replay(n, ..)`).
    pub n: usize,
    /// Write batches per second.
    pub rate_hz: f64,
    /// Inserted tuples per batch.
    pub inserts: usize,
    /// Sliding window of writer-inserted tuples kept live per relation.
    pub window: usize,
    /// Every `seal_every`-th batch also seals its relation.
    pub seal_every: u64,
    /// Every `compact_every`-th batch also compacts its relation.
    pub compact_every: u64,
    /// WAL segment size; a checkpoint follows every rotated segment.
    pub segment_bytes: u64,
    /// The writer may run at most this late before the run is invalid.
    pub lag_limit: Duration,
}

/// The plan at each scale.
pub fn plan(scale: Scale) -> Plan {
    match scale {
        Scale::Full => Plan {
            n: 8192,
            rate_hz: 200.0,
            inserts: 8,
            window: 2048,
            seal_every: 16,
            compact_every: 400,
            segment_bytes: 128 << 10,
            lag_limit: Duration::from_millis(1000),
        },
        Scale::Short => Plan {
            n: 512,
            rate_hz: 200.0,
            inserts: 4,
            window: 64,
            seal_every: 8,
            compact_every: 50,
            segment_bytes: 8 << 10,
            lag_limit: Duration::from_millis(250),
        },
    }
}

/// The relations the writer touches.
const WRITTEN: [&str; 2] = ["R", "S"];

/// The live tuple set of every written relation.
pub type Model = [BTreeSet<(u64, u64)>; 2];

/// The live tuples of `WRITTEN` in `db`.
pub fn model_of(db: &Database) -> Result<Model, String> {
    let one = |name: &str| -> Result<BTreeSet<(u64, u64)>, String> {
        let rel = db
            .delta(name)
            .ok_or_else(|| format!("{name} is not delta-backed"))?
            .snapshot();
        let (a, b) = (rel.column(0), rel.column(1));
        Ok(a.iter().copied().zip(b.iter().copied()).collect())
    };
    Ok([one(WRITTEN[0])?, one(WRITTEN[1])?])
}

/// Apply one acknowledged batch to the model.
pub fn apply_to_model(model: &mut Model, ops: &[WalOp]) {
    for op in ops {
        match op {
            WalOp::Insert { relation, tuple } => {
                let i = usize::from(relation != WRITTEN[0]);
                model[i].insert((tuple[0], tuple[1]));
            }
            WalOp::Delete { relation, tuple } => {
                let i = usize::from(relation != WRITTEN[0]);
                model[i].remove(&(tuple[0], tuple[1]));
            }
            _ => {}
        }
    }
}

/// A seeded stream of write batches: batch `k` writes relation `k % 2`,
/// inserts Zipf-skewed edges, deletes the oldest writer-inserted edges
/// beyond the window, and seals / compacts on its schedule.
pub fn write_stream(plan: &Plan, domain: u64, batches: usize, seed: u64) -> Vec<Vec<WalOp>> {
    let mut edges = zipf_pairs(batches * plan.inserts, domain, 1.1, seed).into_iter();
    let mut windows: [VecDeque<(u64, u64)>; 2] = [VecDeque::new(), VecDeque::new()];
    let mut out = Vec::with_capacity(batches);
    for k in 0..batches as u64 {
        let r = (k % 2) as usize;
        let relation = WRITTEN[r].to_string();
        let mut ops = Vec::new();
        for _ in 0..plan.inserts {
            let e = edges.next().expect("stream sized for every batch");
            ops.push(WalOp::Insert {
                relation: relation.clone(),
                tuple: vec![e.0, e.1],
            });
            windows[r].push_back(e);
            if windows[r].len() > plan.window {
                let old = windows[r].pop_front().expect("window is non-empty");
                ops.push(WalOp::Delete {
                    relation: relation.clone(),
                    tuple: vec![old.0, old.1],
                });
            }
        }
        // counted per relation, so each relation gets its own cadence
        let nth = k / 2 + 1;
        if nth % plan.seal_every == 0 {
            ops.push(WalOp::Seal {
                relation: relation.clone(),
            });
        }
        if nth % plan.compact_every == 0 {
            ops.push(WalOp::Compact { relation });
        }
        out.push(ops);
    }
    out
}

/// The `WriteBatch` (blind: no epoch expectations) carrying `ops`.
pub fn batch_of(ops: &[WalOp]) -> WriteBatch {
    ops.iter().fold(WriteBatch::new(), |b, op| match op {
        WalOp::Insert { relation, tuple } => b.insert(relation.clone(), tuple.clone()),
        WalOp::Delete { relation, tuple } => b.delete(relation.clone(), tuple.clone()),
        WalOp::Seal { relation } => b.seal(relation.clone()),
        WalOp::Compact { relation } => b.compact(relation.clone()),
        WalOp::Commit { .. } => b,
    })
}

/// The `~2·sqrt(n)` domain the replay catalog draws from.
fn replay_domain(n: usize) -> u64 {
    (2.0 * (n as f64).sqrt()).ceil() as u64 + 1
}

/// A set-up live service: the service, the catalog pin used for decoding,
/// and the model of `R` and `S` at start.
struct Live {
    svc: QueryService,
    pin: Snapshot,
    model: Model,
}

fn setup(cfg: &Config, plan: &Plan, dir: &Path, traced: bool) -> Result<Live, String> {
    let base = query_replay(plan.n, cfg.seed).db;
    let model = model_of(&base)?;
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut config = ServiceConfig::default()
        .with_segment_bytes(plan.segment_bytes)
        .with_checkpoint_after_segments(1);
    if traced {
        config = config.with_slow_query(Duration::ZERO);
    }
    let (svc, _) = QueryService::open(dir, base, config).map_err(|e| format!("open: {e}"))?;
    let pin = svc.snapshot();
    query_op(&svc, TRIANGLE, Some(&pin), None).map_err(|e| format!("warm-up: {e}"))?;
    Ok(Live { svc, pin, model })
}

/// What the writer thread reports.
#[derive(Default)]
struct WriterOut {
    tally: Tally,
    latency_ms: Vec<f64>,
    lag_max_ms: f64,
    wall_s: f64,
}

fn writer(
    svc: &QueryService,
    plan: &Plan,
    stream: &[Vec<WalOp>],
    model: &mut Model,
    deadline: Instant,
    stall: Option<Duration>,
) -> WriterOut {
    let mut out = WriterOut::default();
    let started = Instant::now();
    let interval = Duration::from_secs_f64(1.0 / plan.rate_hz);
    for (k, ops) in stream.iter().enumerate() {
        let due = started + interval * k as u32;
        if due >= deadline {
            break;
        }
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        out.lag_max_ms = out
            .lag_max_ms
            .max(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
        match svc.apply(&batch_of(ops)) {
            Ok(_) => {
                apply_to_model(model, ops);
                out.latency_ms.push(due.elapsed().as_secs_f64() * 1e3);
                out.tally.ok();
            }
            Err(e) => out.tally.fail(format!("apply batch {k}: {e}")),
        }
        if let (Some(stall), true) = (stall, k == 10) {
            std::thread::sleep(stall);
        }
    }
    out.wall_s = started.elapsed().as_secs_f64();
    out
}

/// The closed-loop reader; the traced reader also compares every eighth
/// answer with the binary-join baseline on the same snapshot.
fn reader(svc: &QueryService, pin: &Database, deadline: Instant, tracer: Option<Tracer>) -> Phase {
    let mut phase = Phase::new(tracer);
    let engine = ExecOptions::default();
    let baseline = ExecOptions::new(Engine::BinaryHash).with_cache(CacheMode::Off);
    let query = parse_query(TRIANGLE).expect("the triangle parses");
    let mut i = 0u64;
    while Instant::now() < deadline {
        i += 1;
        match query_op(svc, TRIANGLE, Some(pin), phase.tracer.as_mut()) {
            Err(e) => phase.tally.fail(e),
            Ok(answer) => {
                phase.answered(answer.latency_ms, answer.latency_ms / 1e3);
                match answer.snapshot.filter(|_| i % 8 == 1) {
                    None => phase.tally.ok(),
                    Some(snap) => {
                        let got = execute_opts(&query, &snap, &engine).map(|o| digest(&o.result));
                        let want =
                            execute_opts(&query, &snap, &baseline).map(|o| digest(&o.result));
                        match (got, want) {
                            (Ok(g), Ok(w)) if g == w => phase.tally.ok(),
                            (g, w) => phase.tally.fail(format!(
                                "sampled answer {g:?} differs from the baseline {w:?}"
                            )),
                        }
                    }
                }
            }
        }
    }
    phase
}

/// One measured phase over a freshly set-up service.
fn measure(
    cfg: &Config,
    plan: &Plan,
    live: Live,
    seconds: f64,
    traced: bool,
) -> Result<Phase, String> {
    let Live {
        svc,
        pin,
        mut model,
    } = live;
    let batches = (plan.rate_hz * seconds).ceil() as usize + 1;
    let stream = write_stream(plan, replay_domain(plan.n), batches, cfg.seed ^ 0x11FE);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let stall = cfg.faults.writer_stall;
    let (mut phase, w) = std::thread::scope(|s| {
        let writer = s.spawn(|| writer(&svc, plan, &stream, &mut model, deadline, stall));
        let phase = reader(&svc, &pin, deadline, traced.then(Tracer::default));
        (phase, writer.join().expect("writer thread panicked"))
    });
    phase.tally.absorb(w.tally);
    if w.lag_max_ms > plan.lag_limit.as_secs_f64() * 1e3 {
        phase.tally.invalid = true;
    }
    // every acknowledged batch, and nothing else, is in the final catalog
    if cfg.faults.wrong_reference {
        model[0].insert((u64::MAX, u64::MAX));
    }
    let got = svc.with_db(model_of)?;
    if got != model {
        phase.tally.mark_failed(
            1,
            format!(
                "final catalog (R {} rows, S {} rows) differs from the model of acknowledged batches (R {}, S {})",
                got[0].len(),
                got[1].len(),
                model[0].len(),
                model[1].len()
            ),
        );
    }
    let reg = svc.registry().snapshot();
    let fsync = Hist::read(&reg, "wal.fsync_us");
    let wait = Hist::read(&reg, "wal.commit_wait_us");
    let apply = Hist::read(&reg, "wal.apply_us");
    let group = Hist::read(&reg, "wal.batches_per_fsync");
    let ckpt = Hist::read(&reg, "wal.checkpoint_us");
    let e = &mut phase.extra;
    push(e, "apply_p50_ms", "ms", quantile(&w.latency_ms, 0.5));
    push(e, "apply_p99_ms", "ms", quantile(&w.latency_ms, 0.99));
    push(
        e,
        "applies_per_s",
        "1/s",
        w.latency_ms.len() as f64 / w.wall_s.max(1e-9),
    );
    let l = &mut phase.layers;
    push(l, "loadgen.lag_max_ms", "ms", w.lag_max_ms);
    push(l, "wal.fsync_us.p50", "us", fsync.quantile(0.5));
    push(l, "wal.fsync_us.p99", "us", fsync.quantile(0.99));
    push(l, "wal.commit_wait_us.p50", "us", wait.quantile(0.5));
    push(l, "wal.commit_wait_us.p99", "us", wait.quantile(0.99));
    push(l, "wal.apply_us.p50", "us", apply.quantile(0.5));
    push(l, "wal.batches_per_fsync", "ratio", group.mean());
    push(l, "wal.checkpoint_ms", "ms", ckpt.mean() / 1e3);
    push(
        l,
        "wal.checkpoints",
        "count",
        reg.counter_value("wal.checkpoints").unwrap_or(0) as f64,
    );
    Ok(phase)
}

/// Run the workload.
pub fn run(cfg: &Config) -> Result<WorkloadRun, String> {
    let plan = plan(cfg.scale);
    let seconds = phase_seconds(cfg);
    let dir = cfg.work_dir.join("live-wal");
    let (live, setup_s) = timed_setups(cfg.scale, || setup(cfg, &plan, &dir, false))?;
    let plain = measure(cfg, &plan, live, seconds, false)?;
    let peak_rss_mb = host::peak_rss_mb();
    let traced = if cfg.trace {
        let live = setup(cfg, &plan, &dir, true)?;
        Some(measure(cfg, &plan, live, seconds, true)?)
    } else {
        None
    };
    Ok(WorkloadRun {
        setup_s,
        plain,
        traced,
        peak_rss_mb,
        notes: vec![format!(
            "live: replay catalog n={}, writer {} batches/s ({} inserts + window-{} deletes, seal every {}, compact every {} per relation), segments {} KiB, lag limit {} ms",
            plan.n,
            plan.rate_hz,
            plan.inserts,
            plan.window,
            plan.seal_every,
            plan.compact_every,
            plan.segment_bytes >> 10,
            plan.lag_limit.as_millis()
        )],
    })
}
