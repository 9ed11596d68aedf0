//! `svcbench` — the end-to-end benchmark of the join service.
//!
//! A seeded load generator drives [`wcoj_service::QueryService`] the way a
//! user would: it sends query text, which goes through `parse_query` and then
//! `query` / `apply` / `open`, and it checks every answer. Three workloads
//! ([`Kind`]) stress different layers; the module docs of each say why it
//! exists. A traced run ([`Config::trace`]) times each layer's public call
//! from outside and reports the per-layer metrics, plus the tracing overhead
//! against an untraced phase of the same run. See `README.md` next to this
//! crate for the workload sizes and the layer table.

#![forbid(unsafe_code)]

pub mod client;
pub mod host;
pub mod ingest;
pub mod live;
pub mod read_static;
pub mod stats;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use client::Tracer;
use host::HostRecord;
use stats::{mean, median, quantile};
use wcoj_query::Database;

/// The end-to-end metrics every workload reports in an untraced run, with
/// their units — the `end_to_end` list of `BENCHMARK.json`. The report also
/// prints `query_p95_ms`, but it is not gated: across ten seeded runs on a
/// shared 2-vCPU host its spread reached 0.29 of its median, above any
/// allowed bound.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every workload reports in a traced run, with their
/// units — the `per_layer` list of `BENCHMARK.json`. Times and counts are
/// means per traced query.
pub const PER_LAYER: [(&str, &str); 24] = [
    ("query.parse_us", "us"),
    ("query.snapshot_us", "us"),
    ("planner.plan_us", "us"),
    ("exec.build_ms", "ms"),
    ("exec.join_ms", "ms"),
    ("exec.unattributed_ms", "ms"),
    ("exec.rows", "count"),
    ("exec.work_total", "count"),
    ("exec.comparisons", "count"),
    ("exec.probes", "count"),
    ("exec.delta_merge", "count"),
    ("kernels.merge", "count"),
    ("kernels.gallop", "count"),
    ("kernels.bitmap", "count"),
    ("typed.decode_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("cache.incremental_merges", "count"),
    ("cache.misses", "count"),
    ("cache.resident_mb", "MB"),
    ("delta.runs", "count"),
    ("delta.tombstones", "count"),
    ("service.overhead_us", "us"),
    ("trace.query_p50_overhead_pct", "%"),
    ("trace.queries_per_s_overhead_pct", "%"),
];

/// How many times each run sets its workload up; `setup_s` is the median.
pub const SETUP_REPS: usize = 15;

/// The pause between two of [`timed_setups`]' set-ups at full scale. A
/// set-up of `live` or `ingest_recover` takes about 20 ms, and the host's
/// speed flips between two levels about 1.5x apart within a second, so
/// back-to-back set-ups all land on one level. Spread over about six seconds
/// their median lands between the levels, at a point that repeats.
pub const SETUP_GAP: Duration = Duration::from_millis(400);

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Warm, in-memory catalog of five shapes; nothing written.
    ReadStatic,
    /// Durable service: one closed-loop reader, one open-loop writer.
    Live,
    /// Open a prepared WAL directory, one cold query, a commit burst.
    IngestRecover,
}

impl Kind {
    /// Every workload, in report order.
    pub const ALL: [Kind; 3] = [Kind::ReadStatic, Kind::Live, Kind::IngestRecover];

    /// The workloads `BENCHMARK.json` lists. `live` runs, but is not gated:
    /// its catalog spills out of the core's own caches, and on a shared host
    /// its speed shifts by a third for minutes at a time, so ten runs of the
    /// same code spread past any allowed bound.
    pub const GATED: [Kind; 2] = [Kind::ReadStatic, Kind::IngestRecover];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::ReadStatic => "read_static",
            Kind::Live => "live",
            Kind::IngestRecover => "ingest_recover",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Input sizes: `Full` is what the benchmark measures, `Short` is a seconds-
/// long smoke version of the same workload for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured sizes (see `README.md`).
    Full,
    /// Tiny inputs.
    Short,
}

/// Deliberate faults that show the run's own checks bite.
#[derive(Debug, Clone, Default)]
pub struct Faults {
    /// Corrupt the reference answer each workload checks against.
    pub wrong_reference: bool,
    /// Stall the open-loop writer once for this long (live workload).
    pub writer_stall: Option<Duration>,
}

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub kind: Kind,
    /// Seed for every generated input.
    pub seed: u64,
    /// Measured seconds (a traced run splits them between an untraced and a
    /// traced phase).
    pub seconds: f64,
    /// Report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Directory for WAL files and span dumps (created if missing).
    pub work_dir: PathBuf,
    /// Deliberate faults (tests only).
    pub faults: Faults,
}

/// Attempted and failed operations, and why they failed.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Operations attempted (queries, write batches, opens).
    pub attempted: u64,
    /// Operations that erred, were shed, conflicted or answered wrongly.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Set when the run cannot be trusted as a measurement (stalled load
    /// generator).
    pub invalid: bool,
}

impl Tally {
    /// One successful operation.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// One failed operation.
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.attempted += 1;
        self.mark_failed(1, msg);
    }

    /// `n` operations already counted as attempted turn out wrong (a check
    /// that runs after them).
    pub fn mark_failed(&mut self, n: u64, msg: impl Into<String>) {
        self.failed += n;
        if self.errors.len() < 8 {
            self.errors.push(msg.into());
        }
    }

    /// Fold another tally into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.invalid |= other.invalid;
        for e in other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }
}

/// A named, unit-tagged measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
}

/// Append a metric to `out`.
pub fn push(out: &mut Vec<Metric>, name: impl Into<String>, unit: &'static str, value: f64) {
    out.push(Metric {
        name: name.into(),
        unit,
        value,
    });
}

/// Width of the windows `queries_per_s` and `query_p50_ms` are taken over,
/// seconds.
pub const RATE_WINDOW_S: f64 = 2.0;

/// Fewest queries a window needs to count towards `queries_per_s` and
/// `query_p50_ms` (the last, partial window of a run usually has fewer).
pub const MIN_WINDOW_QUERIES: usize = 10;

/// Consecutive queries per block in a window's `queries_per_s` (two rounds
/// of `read_static`'s five shapes).
pub const RATE_BLOCK: usize = 10;

/// The quartile of the windows that `queries_per_s` and `query_p50_ms`
/// report: the slower quarter. On a shared host the speed of every workload
/// flips for seconds at a time between a contended and an uncontended level,
/// about 1.5x apart, and the share of a run spent at either level differs from
/// run to run. A run-wide median lands anywhere between the two levels; the
/// contended level shows in nearly every run, so its quartile repeats.
pub const SLOW_QUARTILE: f64 = 0.75;

/// Width of the windows `query_p95_ms` takes its median over, seconds.
pub const P95_WINDOW_S: f64 = 5.0;

/// One measured phase of a workload.
#[derive(Debug)]
pub struct Phase {
    started: Instant,
    /// Operation outcomes.
    pub tally: Tally,
    /// Client-timed latency of every answered query, ms.
    pub query_ms: Vec<f64>,
    /// Per answered query: when it completed (seconds into the phase) and
    /// the client busy time it accounts for (seconds).
    busy: Vec<(f64, f64)>,
    /// The workload's own end-to-end measurements (per-shape latencies,
    /// write latencies, recovery time, ...).
    pub extra: Vec<Metric>,
    /// The workload's own per-layer measurements (WAL, recovery, load
    /// generator).
    pub layers: Vec<Metric>,
    /// Spans and per-layer samples (traced phases only).
    pub tracer: Option<Tracer>,
}

impl Phase {
    /// A phase starting now, traced when `tracer` is given.
    pub fn new(tracer: Option<Tracer>) -> Phase {
        Phase {
            started: Instant::now(),
            tally: Tally::default(),
            query_ms: Vec::new(),
            busy: Vec::new(),
            extra: Vec::new(),
            layers: Vec::new(),
            tracer,
        }
    }

    /// Record one answered query: its latency, and the client busy time it
    /// accounts for (its own latency for a client with no think time; the
    /// open plus the query on `ingest_recover`).
    pub fn answered(&mut self, latency_ms: f64, busy_s: f64) {
        self.query_ms.push(latency_ms);
        self.busy
            .push((self.started.elapsed().as_secs_f64(), busy_s));
    }

    /// The answered queries grouped by [`RATE_WINDOW_S`]-second window of
    /// completion, as `(busy seconds, latency ms)` per query. Windows with
    /// fewer than [`MIN_WINDOW_QUERIES`] queries are left out, unless no
    /// window has that many (a seconds-long run): then all queries form one
    /// window.
    fn windows(&self) -> Vec<Vec<(f64, f64)>> {
        let mut windows: std::collections::BTreeMap<u64, Vec<(f64, f64)>> = Default::default();
        for (&(at, busy), &ms) in self.busy.iter().zip(&self.query_ms) {
            windows
                .entry((at / RATE_WINDOW_S) as u64)
                .or_default()
                .push((busy, ms));
        }
        let full: Vec<_> = windows
            .into_values()
            .filter(|w| w.len() >= MIN_WINDOW_QUERIES)
            .collect();
        if full.is_empty() {
            vec![self
                .busy
                .iter()
                .map(|b| b.1)
                .zip(self.query_ms.iter().copied())
                .collect()]
        } else {
            full
        }
    }

    /// Queries answered per second of client busy time, per window: the
    /// median over the window's blocks of [`RATE_BLOCK`] consecutive queries
    /// of each block's rate, so one stalled query moves only its own block.
    /// The run reports the [`SLOW_QUARTILE`] of the windows (the lower
    /// quartile of the rates).
    fn queries_per_s(&self) -> f64 {
        let rate = |qs: &[(f64, f64)]| {
            let busy: f64 = qs.iter().map(|q| q.0).sum();
            (busy > 0.0).then(|| qs.len() as f64 / busy)
        };
        let rates: Vec<f64> = self
            .windows()
            .iter()
            .filter_map(|w| {
                let blocks: Vec<f64> = w.chunks_exact(RATE_BLOCK).filter_map(rate).collect();
                if blocks.is_empty() {
                    rate(w)
                } else {
                    Some(median(&blocks))
                }
            })
            .collect();
        quantile(&rates, 1.0 - SLOW_QUARTILE)
    }

    /// The median query latency of each window; the run reports the
    /// [`SLOW_QUARTILE`] of the windows (the upper quartile of the medians).
    fn query_p50_ms(&self) -> f64 {
        let medians: Vec<f64> = self
            .windows()
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| median(&w.iter().map(|q| q.1).collect::<Vec<_>>()))
            .collect();
        quantile(&medians, SLOW_QUARTILE)
    }

    /// The 95th-percentile query latency: the median over
    /// [`P95_WINDOW_S`]-second windows of each window's own p95, counting
    /// only windows with at least 200 queries (so ten lie beyond the p95).
    /// A few seconds of a noisy neighbour fatten one window's tail, not the
    /// run's; a tail the program causes in every window still shows. Runs
    /// too short for such a window report the pooled p95.
    fn query_p95_ms(&self) -> f64 {
        let mut windows: std::collections::BTreeMap<u64, Vec<f64>> = Default::default();
        for (&(at, _), &ms) in self.busy.iter().zip(&self.query_ms) {
            windows
                .entry((at / P95_WINDOW_S) as u64)
                .or_default()
                .push(ms);
        }
        let p95s: Vec<f64> = windows
            .values()
            .filter(|w| w.len() >= 200)
            .map(|w| quantile(w, 0.95))
            .collect();
        if p95s.is_empty() {
            quantile(&self.query_ms, 0.95)
        } else {
            median(&p95s)
        }
    }

    /// The generic end-to-end metrics plus the workload's own.
    fn end_to_end(&self) -> Vec<Metric> {
        let mut out = Vec::new();
        push(&mut out, "queries_per_s", "1/s", self.queries_per_s());
        push(&mut out, "query_p50_ms", "ms", self.query_p50_ms());
        push(&mut out, "query_p95_ms", "ms", self.query_p95_ms());
        push(&mut out, "queries", "count", self.query_ms.len() as f64);
        out.extend(self.extra.iter().cloned());
        out
    }
}

/// What a workload hands back to [`run`].
#[derive(Debug)]
pub struct WorkloadRun {
    /// Median of [`SETUP_REPS`] set-ups, seconds.
    pub setup_s: f64,
    /// The untraced phase (the whole measurement unless tracing).
    pub plain: Phase,
    /// The traced phase of a traced run.
    pub traced: Option<Phase>,
    /// Peak RSS right after the untraced phase, before any reference
    /// computation, MiB.
    pub peak_rss_mb: f64,
    /// Free-form report lines (sizes, check summaries).
    pub notes: Vec<String>,
}

/// The result of one run.
#[derive(Debug)]
pub struct Outcome {
    /// The configuration that ran.
    pub kind: Kind,
    /// Whether it was a traced run.
    pub trace: bool,
    /// Every check passed and the run is a valid measurement.
    pub correct: bool,
    /// Operation outcomes over the whole run.
    pub tally: Tally,
    /// Every measurement, including the ones `BENCHMARK.json` does not list.
    pub metrics: Vec<Metric>,
    /// The host record.
    pub host: HostRecord,
    /// Report lines from the workload.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Look up one metric.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The human-readable report (every metric, the host record, notes and
    /// failures), one line each.
    pub fn report(&self) -> Vec<String> {
        let mut lines = vec![
            format!("# {}", self.host.line()),
            format!(
                "# workload={} trace={} correct={} attempted={} failed={}",
                self.kind.name(),
                self.trace as u8,
                self.correct,
                self.tally.attempted,
                self.tally.failed
            ),
        ];
        lines.extend(self.notes.iter().map(|n| format!("# {n}")));
        for m in &self.metrics {
            lines.push(format!("metric {} {} {}", m.name, fmt_num(m.value), m.unit));
        }
        if self.tally.invalid {
            lines.push("# INVALID: the load generator stalled past its limit".to_string());
        }
        lines.extend(self.tally.errors.iter().map(|e| format!("# FAILED: {e}")));
        lines
    }

    /// The result line: `correct`, `attempted`, `failed`, and exactly the
    /// `BENCHMARK.json` metrics of this run's mode.
    pub fn json_line(&self) -> Result<String, String> {
        let names: &[(&str, &str)] = if self.trace { &PER_LAYER } else { &END_TO_END };
        let mut fields = Vec::new();
        for (name, unit) in names {
            let m = self
                .metric(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !m.value.is_finite() {
                return Err(format!("metric {name} is not finite"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                fmt_num(m.value)
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.tally.attempted,
            self.tally.failed,
            fields.join(", ")
        ))
    }
}

/// A number with all its digits (shortest round-trip form).
fn fmt_num(v: f64) -> String {
    wcoj_obs::json::num(v)
}

/// The per-layer metrics of a traced phase that [`client::query_op`]
/// sampled, as means per traced query, plus the cache hit ratio over all of
/// them. (The `trace.*` overheads compare two phases; [`run`] adds them.)
fn layer_metrics(tr: &Tracer) -> Vec<Metric> {
    let mut out = Vec::new();
    for (name, unit) in PER_LAYER {
        if name == "cache.hit_ratio" || name.starts_with("trace.") {
            continue;
        }
        push(&mut out, name, unit, mean(tr.samples(name)));
    }
    let lookups = tr.cache_hits + tr.cache_misses;
    let ratio = if lookups == 0 {
        0.0
    } else {
        tr.cache_hits as f64 / lookups as f64
    };
    push(&mut out, "cache.hit_ratio", "ratio", ratio);
    out
}

/// A clone of `db` with its own, empty access-structure cache of the same
/// budget — what a freshly started process holds.
pub fn fresh_clone(db: &Database) -> Database {
    let mut clone = db.clone();
    clone.set_cache_budget(db.access_cache().budget());
    clone
}

/// Time `setup` `count` times; keep every result and report the median
/// duration in seconds.
pub fn timed_instances<T>(
    count: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(Vec<T>, f64), String> {
    let mut times = Vec::with_capacity(count);
    let mut all = Vec::with_capacity(count);
    for _ in 0..count {
        let started = Instant::now();
        all.push(setup()?);
        times.push(started.elapsed().as_secs_f64());
    }
    Ok((all, median(&times)))
}

/// Time `setup` [`SETUP_REPS`] times, [`SETUP_GAP`] apart at full scale;
/// keep the last result and report the median duration in seconds.
pub fn timed_setups<T>(
    scale: Scale,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for rep in 0..SETUP_REPS {
        // drop the previous set-up first so repetitions do not stack memory
        drop(last.take());
        if rep > 0 && scale == Scale::Full {
            std::thread::sleep(SETUP_GAP);
        }
        let started = Instant::now();
        last = Some(setup()?);
        times.push(started.elapsed().as_secs_f64());
    }
    Ok((last.expect("SETUP_REPS > 0"), median(&times)))
}

/// The measured seconds of each phase: the whole run, or half of it each
/// for a traced run's untraced and traced phases.
pub fn phase_seconds(cfg: &Config) -> f64 {
    if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    }
}

/// Run one workload and assemble its outcome.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    std::fs::create_dir_all(&cfg.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", cfg.work_dir.display()))?;
    let mut host = HostRecord::probe();
    let run = match cfg.kind {
        Kind::ReadStatic => read_static::run(cfg)?,
        Kind::Live => live::run(cfg)?,
        Kind::IngestRecover => ingest::run(cfg)?,
    };
    host.ref_loop_ns_after = host::reference_loop_ns();

    let mut metrics = Vec::new();
    push(&mut metrics, "setup_s", "s", run.setup_s);
    push(&mut metrics, "peak_rss_mb", "MB", run.peak_rss_mb);
    metrics.extend(run.plain.end_to_end());
    let mut tally = run.plain.tally.clone();
    let mut notes = run.notes;
    if let Some(traced) = &run.traced {
        // the traced phase's end-to-end numbers sit beside the untraced
        // ones; per-layer numbers come from the traced phase alone
        for m in traced.end_to_end() {
            push(&mut metrics, format!("traced.{}", m.name), m.unit, m.value);
        }
        let tr = traced
            .tracer
            .as_ref()
            .ok_or("a traced phase carries its tracer")?;
        metrics.extend(layer_metrics(tr));
        metrics.extend(traced.layers.iter().cloned());
        let pct = |traced: f64, plain: f64| {
            if plain > 0.0 {
                (traced / plain - 1.0) * 100.0
            } else {
                0.0
            }
        };
        push(
            &mut metrics,
            "trace.query_p50_overhead_pct",
            "%",
            pct(traced.query_p50_ms(), run.plain.query_p50_ms()),
        );
        push(
            &mut metrics,
            "trace.queries_per_s_overhead_pct",
            "%",
            pct(run.plain.queries_per_s(), traced.queries_per_s()),
        );
        let spans = cfg
            .work_dir
            .join(format!("spans-{}.jsonl", cfg.kind.name()));
        match tr.write_spans(&spans) {
            Ok(()) => notes.push(format!(
                "{} spans written to {}",
                tr.spans().len(),
                spans.display()
            )),
            Err(e) => notes.push(format!("could not write spans: {e}")),
        }
        tally.absorb(traced.tally.clone());
    } else {
        metrics.extend(run.plain.layers.iter().cloned());
    }
    let failed_ratio = if tally.attempted == 0 {
        1.0
    } else {
        tally.failed as f64 / tally.attempted as f64
    };
    push(&mut metrics, "failed_ratio", "ratio", failed_ratio);
    let correct = tally.failed == 0 && !tally.invalid && tally.attempted > 0;
    Ok(Outcome {
        kind: cfg.kind,
        trace: cfg.trace,
        correct,
        tally,
        metrics,
        host,
        notes,
    })
}
