//! `ingest_recover`: every iteration starts from an identical prepared WAL
//! directory (a checkpoint plus a fixed-length tail), runs
//! `QueryService::open`, one cold triangle query, then a fixed burst from two
//! closed-loop concurrent committers, and drops the service.
//!
//! Why: this is the only workload where recovery (segment scan, checkpoint
//! decode, tail replay), cold trie/index/delta-view builds, and group commit
//! with more than one committer do most of the work. Join kernels run once
//! per iteration.

use std::path::Path;
use std::time::{Duration, Instant};

use wcoj_query::Database;
use wcoj_service::{replay_into, QueryService, ServiceConfig};
use wcoj_storage::wal::segmented::recover_dir;
use wcoj_storage::wal::WalOp;
use wcoj_workloads::query_replay;

use crate::client::{query_op, Tracer};
use crate::live::{apply_to_model, batch_of, model_of, write_stream, Model, TRIANGLE};
use crate::stats::{median, quantile, Hist};
use crate::{
    fresh_clone, host, live, phase_seconds, push, timed_setups, Config, Phase, Scale, Tally,
    WorkloadRun,
};

/// Sizes of the prepared directory and the burst.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Size of the replay catalog (`query_replay(n, ..)`). Small enough that
    /// a cold start's structures stay in the core's own caches: at n = 8192
    /// they spill into the shared last-level cache, and the cold query's
    /// latency then swung 1.6x between runs on a shared host, with the
    /// neighbours' load.
    pub n: usize,
    /// Batches covered by the checkpoint.
    pub prefix: usize,
    /// Commits the prefix is written in (a few large ones: the checkpoint
    /// holds the prefix's state whatever its batching, and fewer fsyncs keep
    /// the set-up steady on a shared disk).
    pub prefix_commits: usize,
    /// Batches in the tail replayed after the checkpoint.
    pub tail: usize,
    /// Batches each of the two committers applies per iteration.
    pub burst: usize,
}

/// The plan at each scale.
pub fn plan(scale: Scale) -> Plan {
    match scale {
        Scale::Full => Plan {
            n: 1024,
            prefix: 64,
            prefix_commits: 4,
            tail: 16,
            burst: 8,
        },
        Scale::Short => Plan {
            n: 512,
            prefix: 8,
            prefix_commits: 2,
            tail: 4,
            burst: 2,
        },
    }
}

/// Everything an iteration needs, prepared once per run.
struct Prepared {
    /// The catalog the log's writer started from (schemas are not logged).
    base: Database,
    /// The prepared WAL directory every iteration copies.
    template: std::path::PathBuf,
    /// The oracle: `base` with every prepared batch replayed.
    oracle: Database,
    /// Each committer's burst batches (committer 0 writes `R`, 1 writes `S`).
    bursts: [Vec<Vec<WalOp>>; 2],
    /// The live tuples expected after an iteration's burst.
    after_burst: Model,
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
}

/// Write the prepared directory through a durable service: the prefix's
/// ops in `prefix_commits` commits, a checkpoint, then one commit per tail
/// batch.
fn write_template(
    base: &Database,
    dir: &Path,
    stream: &[Vec<WalOp>],
    plan: &Plan,
) -> Result<(), String> {
    fresh_dir(dir)?;
    let (svc, _) = QueryService::open(dir, fresh_clone(base), ServiceConfig::default())
        .map_err(|e| format!("open template: {e}"))?;
    let (prefix, tail) = stream.split_at(plan.prefix);
    for group in prefix.chunks(plan.prefix.div_ceil(plan.prefix_commits)) {
        let ops: Vec<WalOp> = group.concat();
        svc.apply(&batch_of(&ops))
            .map_err(|e| format!("template prefix: {e}"))?;
    }
    svc.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
    for (i, ops) in tail.iter().enumerate() {
        svc.apply(&batch_of(ops))
            .map_err(|e| format!("template tail batch {i}: {e}"))?;
    }
    Ok(())
}

/// The write stream of the prepared log and the bursts: the live
/// workload's batches made four times larger (so the prepared log takes a
/// quarter of the fsyncs to write), with a window small enough that deletes
/// start early.
fn stream(cfg: &Config, plan: &Plan, batches: usize) -> Vec<Vec<WalOp>> {
    let live = live::plan(cfg.scale);
    let write_plan = live::Plan {
        inserts: live.inserts * 4,
        window: live.window / 2,
        seal_every: live.seal_every / 4,
        ..live
    };
    let domain = (2.0 * (plan.n as f64).sqrt()).ceil() as u64 + 1;
    write_stream(&write_plan, domain, batches, cfg.seed ^ 0x1A6E)
}

/// The timed set-up: load the catalog and write the prepared directory.
fn setup(cfg: &Config, plan: &Plan, template: &Path) -> Result<Database, String> {
    let base = query_replay(plan.n, cfg.seed).db;
    let prepared = stream(cfg, plan, plan.prefix + plan.tail);
    write_template(&base, template, &prepared, plan)?;
    Ok(base)
}

/// The checks' side of the set-up (untimed): the oracle and the bursts.
fn prepare(cfg: &Config, plan: &Plan, base: Database, template: &Path) -> Result<Prepared, String> {
    let logged = plan.prefix + plan.tail;
    // the burst continues the prepared stream; even batches write R, odd S
    let all = stream(cfg, plan, logged + 2 * plan.burst);
    let mut oracle = fresh_clone(&base);
    replay_into(&mut oracle, &all[..logged]).map_err(|e| format!("oracle replay: {e}"))?;
    let burst = &all[logged..];
    let mut bursts: [Vec<Vec<WalOp>>; 2] = [Vec::new(), Vec::new()];
    for (k, ops) in burst.iter().enumerate() {
        bursts[(logged + k) % 2].push(ops.clone());
    }
    let mut after_burst = model_of(&oracle)?;
    for ops in burst {
        apply_to_model(&mut after_burst, ops);
    }
    Ok(Prepared {
        base,
        template: template.to_path_buf(),
        oracle,
        bursts,
        after_burst,
    })
}

/// Give `to` the prepared directory's contents. Checkpoints are only ever
/// read, so they are hard-linked; log segments get appended to, so they are
/// copied and synced, leaving no dirty pages for the measured part to flush.
/// (A service that wrote into a linked checkpoint would change the template,
/// and the next iteration's oracle check would fail.)
fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    fresh_dir(to)?;
    let entries = std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let (src, dst) = (entry.path(), to.join(entry.file_name()));
        let copied = if entry.file_name().to_string_lossy().starts_with("ckpt.") {
            std::fs::hard_link(&src, &dst)
        } else {
            std::fs::copy(&src, &dst).and_then(|_| std::fs::File::open(&dst)?.sync_all())
        };
        copied.map_err(|e| format!("copy {}: {e}", src.display()))?;
    }
    Ok(())
}

/// Whether the recovered catalog is the oracle's, bit for bit: live rows,
/// run structure, buffered tail and tombstones of every written relation.
fn same_as_oracle(got: &Database, oracle: &Database) -> bool {
    ["R", "S"]
        .iter()
        .all(|name| match (got.delta(name), oracle.delta(name)) {
            (Some(g), Some(o)) => {
                g.snapshot() == o.snapshot()
                    && g.run_sizes() == o.run_sizes()
                    && g.buffered() == o.buffered()
                    && g.tombstones() == o.tombstones()
            }
            _ => false,
        })
}

/// Per-run accumulators beyond [`Phase`].
#[derive(Default)]
struct Acc {
    recovery_ms: Vec<f64>,
    apply_ms: Vec<f64>,
    burst_rate: Vec<f64>,
    fsync: Hist,
    wait: Hist,
    apply_us: Hist,
    group: Hist,
    bytes_per_op: Vec<f64>,
}

/// One iteration: open, cold query, burst, drop.
fn iteration(
    cfg: &Config,
    p: &Prepared,
    dir: &Path,
    config: &ServiceConfig,
    phase: &mut Phase,
    acc: &mut Acc,
) -> Result<(), String> {
    copy_dir(&p.template, dir)?;
    let base = fresh_clone(&p.base);
    if let Some(tr) = phase.tracer.as_mut() {
        let op = tr.begin_op();
        let (scan, scan_s) = tr.span(op, "recovery.scan", "", || recover_dir(dir));
        scan.map_err(|e| format!("recover_dir: {e}"))?;
        tr.sample("recovery.scan_ms", scan_s * 1e3);
    }
    let started = Instant::now();
    let opened = QueryService::open(dir, base, config.clone());
    let recovery_s = started.elapsed().as_secs_f64();
    let (svc, report) = match opened {
        Ok(ok) => ok,
        Err(e) => {
            phase.tally.fail(format!("open: {e}"));
            return Ok(());
        }
    };
    phase.tally.ok();
    acc.recovery_ms.push(recovery_s * 1e3);
    // a cold start (open + first answer) is the busy time behind
    // `queries_per_s`; the burst's fsyncs are reported, not gated
    let mut busy = recovery_s;
    let plan = plan(cfg.scale);
    if report.checkpoint_seq != plan.prefix_commits as u64 || report.tail.len() != plan.tail {
        phase.tally.mark_failed(
            1,
            format!(
                "recovered checkpoint {} + tail {}, prepared {} + {}",
                report.checkpoint_seq,
                report.tail.len(),
                plan.prefix_commits,
                plan.tail
            ),
        );
    }
    if let Some(tr) = phase.tracer.as_mut() {
        let reg = svc.registry().snapshot();
        let gauge = |name| reg.gauge_value(name).unwrap_or(0) as f64 / 1e3;
        tr.sample(
            "recovery.install_ms",
            gauge("recovery.checkpoint_install_us"),
        );
        tr.sample("recovery.replay_ms", gauge("recovery.replay_us"));
    }

    let pin = svc.snapshot();
    let first_query_ms = match query_op(&svc, TRIANGLE, Some(&pin), phase.tracer.as_mut()) {
        Ok(answer) => {
            busy += answer.latency_ms / 1e3;
            phase.tally.ok();
            Some(answer.latency_ms)
        }
        Err(e) => {
            phase.tally.fail(format!("cold query: {e}"));
            None
        }
    };
    // the recovered catalog must be the oracle replay of the prepared log
    let oracle_ok = svc.with_db(|db| same_as_oracle(db, &p.oracle));
    if !oracle_ok || cfg.faults.wrong_reference {
        phase
            .tally
            .mark_failed(1, "recovered catalog differs from the oracle replay");
    }

    let wal_before = svc
        .registry()
        .snapshot()
        .gauge_value("wal.bytes")
        .unwrap_or(0);
    let burst_started = Instant::now();
    let outcomes: Vec<(Tally, Vec<f64>)> = std::thread::scope(|s| {
        let handles: Vec<_> = p
            .bursts
            .iter()
            .map(|batches| {
                let svc = &svc;
                s.spawn(move || {
                    let mut tally = Tally::default();
                    let mut lat = Vec::with_capacity(batches.len());
                    for ops in batches {
                        let t = Instant::now();
                        match svc.apply(&batch_of(ops)) {
                            Ok(_) => {
                                lat.push(t.elapsed().as_secs_f64() * 1e3);
                                tally.ok();
                            }
                            Err(e) => tally.fail(format!("burst apply: {e}")),
                        }
                    }
                    (tally, lat)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("committer thread panicked"))
            .collect()
    });
    let burst_s = burst_started.elapsed().as_secs_f64();
    let mut applied = 0usize;
    for (tally, lat) in outcomes {
        applied += lat.len();
        acc.apply_ms.extend(lat);
        phase.tally.absorb(tally);
    }
    acc.burst_rate.push(applied as f64 / burst_s);
    let reg = svc.registry().snapshot();
    let ops = reg.counter_value("wal.ops_committed").unwrap_or(0);
    let wal_after = reg.gauge_value("wal.bytes").unwrap_or(0);
    if ops > 0 {
        acc.bytes_per_op
            .push(wal_after.saturating_sub(wal_before) as f64 / ops as f64);
    }
    acc.fsync.absorb(&Hist::read(&reg, "wal.fsync_us"));
    acc.wait.absorb(&Hist::read(&reg, "wal.commit_wait_us"));
    acc.apply_us.absorb(&Hist::read(&reg, "wal.apply_us"));
    acc.group.absorb(&Hist::read(&reg, "wal.batches_per_fsync"));
    // every acknowledged burst batch is in the catalog
    let after = svc.with_db(model_of)?;
    if after != p.after_burst {
        phase
            .tally
            .mark_failed(1, "catalog after the burst differs from the model");
    }
    if let Some(latency_ms) = first_query_ms {
        phase.answered(latency_ms, busy);
    }
    Ok(())
}

fn measure(cfg: &Config, p: &Prepared, seconds: f64, traced: bool) -> Result<Phase, String> {
    let dir = cfg.work_dir.join("ingest-wal");
    let mut config = ServiceConfig::default();
    if traced {
        config = config.with_slow_query(Duration::ZERO);
    }
    let mut phase = Phase::new(traced.then(Tracer::default));
    let mut acc = Acc::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        iteration(cfg, p, &dir, &config, &mut phase, &mut acc)?;
    }
    let e = &mut phase.extra;
    push(e, "recovery_ms", "ms", median(&acc.recovery_ms));
    push(e, "first_query_ms", "ms", median(&phase.query_ms));
    push(e, "apply_p50_ms", "ms", quantile(&acc.apply_ms, 0.5));
    push(e, "apply_p99_ms", "ms", quantile(&acc.apply_ms, 0.99));
    push(e, "applies_per_s", "1/s", median(&acc.burst_rate));
    let l = &mut phase.layers;
    push(l, "wal.fsync_us.p50", "us", acc.fsync.quantile(0.5));
    push(l, "wal.fsync_us.p99", "us", acc.fsync.quantile(0.99));
    push(l, "wal.commit_wait_us.p50", "us", acc.wait.quantile(0.5));
    push(l, "wal.commit_wait_us.p99", "us", acc.wait.quantile(0.99));
    push(l, "wal.apply_us.p50", "us", acc.apply_us.quantile(0.5));
    push(l, "wal.batches_per_fsync", "ratio", acc.group.mean());
    push(l, "wal.bytes_per_op", "B", median(&acc.bytes_per_op));
    if let Some(tr) = &phase.tracer {
        let parts: Vec<f64> = [
            "recovery.scan_ms",
            "recovery.install_ms",
            "recovery.replay_ms",
        ]
        .iter()
        .map(|name| median(tr.samples(name)))
        .collect();
        for (name, v) in [
            "recovery.scan_ms",
            "recovery.install_ms",
            "recovery.replay_ms",
        ]
        .iter()
        .zip(&parts)
        {
            push(l, *name, "ms", *v);
        }
        push(l, "recovery.parts_sum_ms", "ms", parts.iter().sum());
    }
    Ok(phase)
}

/// Run the workload.
pub fn run(cfg: &Config) -> Result<WorkloadRun, String> {
    let plan = plan(cfg.scale);
    let seconds = phase_seconds(cfg);
    let template = cfg.work_dir.join("ingest-template");
    let (base, setup_s) = timed_setups(cfg.scale, || setup(cfg, &plan, &template))?;
    let prepared = prepare(cfg, &plan, base, &template)?;
    let plain = measure(cfg, &prepared, seconds, false)?;
    let peak_rss_mb = host::peak_rss_mb();
    let traced = if cfg.trace {
        Some(measure(cfg, &prepared, seconds, true)?)
    } else {
        None
    };
    let mut notes = vec![format!(
        "ingest_recover: replay catalog n={}, checkpoint after {} batches (in {} commits) + {} tail batches, burst 2 committers x {} batches; each iteration copies the prepared directory, opens, queries once cold, bursts, drops",
        plan.n, plan.prefix, plan.prefix_commits, plan.tail, plan.burst
    )];
    if let Some(phase) = &traced {
        let find = |list: &[crate::Metric], name: &str| {
            list.iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value)
        };
        let parts = find(&phase.layers, "recovery.parts_sum_ms");
        let total = find(&phase.extra, "recovery_ms");
        notes.push(format!(
            "recovery split: scan + install + replay = {parts:.3} ms {} recovery_ms = {total:.3} ms",
            if parts <= total { "<=" } else { "EXCEEDS" }
        ));
    }
    Ok(WorkloadRun {
        setup_s,
        plain,
        traced,
        peak_rss_mb,
        notes,
    })
}
