//! The client side of every workload: one query operation the way a user
//! issues it (query text → `parse_query` → `QueryService::query` → optional
//! typed decode), the answer fingerprints the checks compare, and the tracer
//! that times each layer's public call from outside.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;
use wcoj_core::ExecOutput;
use wcoj_query::{parse_query, Database, Snapshot};
use wcoj_service::QueryService;
use wcoj_storage::{Relation, TypedRow, TypedValue, WorkCounter};

use crate::stats::Hist;

/// SplitMix64's finalizer: a strong 64-bit mix for fingerprints.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `(rows, order-independent hash)` of a result relation: each row hashes
/// its columns in order, and row hashes are summed, so any row order gives
/// the same fingerprint.
pub fn digest(rel: &Relation) -> (u64, u64) {
    let cols = rel.columns();
    let mut sum = 0u64;
    for i in 0..rel.len() {
        let mut h = 0x5151_5151u64;
        for c in cols {
            h = mix(h ^ c[i]);
        }
        sum = sum.wrapping_add(h);
    }
    (rel.len() as u64, sum)
}

/// [`digest`] over decoded rows (strings hash by content).
pub fn digest_typed(rows: &[TypedRow]) -> (u64, u64) {
    let mut sum = 0u64;
    for row in rows {
        let mut h = 0x5151_5151u64;
        for v in row {
            h = match v {
                TypedValue::Int(x) => mix(h ^ x),
                TypedValue::Str(s) => s
                    .bytes()
                    .fold(mix(h ^ 0xA5), |acc, b| mix(acc ^ u64::from(b))),
            };
        }
        sum = sum.wrapping_add(h);
    }
    (rows.len() as u64, sum)
}

/// The deterministic facts of one execution: the answer's fingerprint and
/// the work counters that must repeat exactly for the same input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Output rows.
    pub rows: u64,
    /// Order-independent answer hash.
    pub hash: u64,
    /// `WorkCounter::total_work`.
    pub work_total: u64,
    /// Intersections served by each kernel (merge, gallop, bitmap).
    pub kernels: [u64; 3],
}

/// One answered query.
pub struct Answer {
    /// The service's output.
    pub out: ExecOutput,
    /// The decoded rows, when the operation decodes.
    pub typed: Option<Vec<TypedRow>>,
    /// Client-timed latency of parse + query + decode, in ms.
    pub latency_ms: f64,
    /// The snapshot the traced path pinned just before the query.
    pub snapshot: Option<Snapshot>,
}

impl Answer {
    /// The answer's fingerprint (hashing decoded rows when present).
    pub fn fingerprint(&self) -> Fingerprint {
        let (rows, hash) = match &self.typed {
            Some(rows) => digest_typed(rows),
            None => digest(&self.out.result),
        };
        let w: &WorkCounter = &self.out.work;
        Fingerprint {
            rows,
            hash,
            work_total: w.total_work(),
            kernels: [w.kernel_merge(), w.kernel_gallop(), w.kernel_bitmap()],
        }
    }
}

/// A span: the benchmark's own timer around one public call.
#[derive(Debug, Clone)]
pub struct Span {
    /// The client operation this span belongs to (spans of one op share it).
    pub op: u64,
    /// The timed call.
    pub name: &'static str,
    /// The enclosing span's name (`""` for an operation's root span).
    pub parent: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
}

/// In-memory span store plus per-layer samples for the traced run; nothing
/// is written until [`Tracer::write_spans`] at the end.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    samples: BTreeMap<&'static str, Vec<f64>>,
    next_op: u64,
    /// Access-cache lookups served as-is, over all traced queries.
    pub cache_hits: u64,
    /// Lookups that built a new structure, over all traced queries.
    pub cache_misses: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            samples: BTreeMap::new(),
            next_op: 0,
            cache_hits: 0,
            cache_misses: 0,
        }
    }
}

impl Tracer {
    /// Start a new client operation and return its id.
    pub fn begin_op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    /// Run `f` inside a span; returns its value and duration in seconds.
    pub fn span<T>(
        &mut self,
        op: u64,
        name: &'static str,
        parent: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let started = Instant::now();
        let value = f();
        let dur = started.elapsed();
        self.spans.push(Span {
            op,
            name,
            parent,
            start_ns: started.duration_since(self.origin).as_nanos() as u64,
            dur_ns: dur.as_nanos() as u64,
        });
        (value, dur.as_secs_f64())
    }

    /// Record one sample of a per-layer metric.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// The samples recorded under `name`.
    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the spans as JSON lines.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"op\": {}, \"span\": \"{}\", \"parent\": \"{}\", \"start_ns\": {}, \"dur_ns\": {}}}",
                s.op, s.name, s.parent, s.start_ns, s.dur_ns
            )?;
        }
        out.flush()
    }
}

/// Sum of `service.query_us` observations so far, in µs.
fn service_query_us(svc: &QueryService) -> u64 {
    Hist::read(&svc.registry().snapshot(), "service.query_us").sum()
}

/// One client query: parse `text`, run it through the service, and decode
/// the rows through `decode_with`'s dictionaries when given. With a tracer,
/// every layer call is timed in its own span and the service's own trace of
/// the query (it must run with a zero slow-query threshold) is read back.
pub fn query_op(
    svc: &QueryService,
    text: &str,
    decode_with: Option<&Database>,
    tracer: Option<&mut Tracer>,
) -> Result<Answer, String> {
    let Some(tr) = tracer else {
        let started = Instant::now();
        let query = parse_query(text).map_err(|e| format!("parse: {e}"))?;
        let out = svc.query(&query).map_err(|e| format!("query: {e}"))?;
        let typed = match decode_with {
            Some(db) => Some(decode(&out, &query, db)?),
            None => None,
        };
        return Ok(Answer {
            out,
            typed,
            latency_ms: started.elapsed().as_secs_f64() * 1e3,
            snapshot: None,
        });
    };
    let op = tr.begin_op();
    let first_span = tr.spans.len();
    let (parsed, parse_s) = tr.span(op, "query.parse", "op", || parse_query(text));
    let query = parsed.map_err(|e| format!("parse: {e}"))?;
    let (snap, snap_s) = tr.span(op, "query.snapshot", "op", || svc.snapshot());
    let before_us = service_query_us(svc);
    let (out, query_s) = tr.span(op, "service.query", "op", || svc.query(&query));
    let out = out.map_err(|e| format!("query: {e}"))?;
    let exec_us = service_query_us(svc).saturating_sub(before_us) as f64;
    let trace = svc
        .slow_queries()
        .pop()
        .ok_or("traced service recorded no query trace")?;
    let (typed, decode_s) = match decode_with {
        Some(db) => {
            let (typed, s) = tr.span(op, "typed.decode", "op", || decode(&out, &query, db));
            (Some(typed?), s)
        }
        None => (None, 0.0),
    };
    let latency_s = parse_s + query_s + decode_s;
    tr.spans.push(Span {
        op,
        name: "op",
        parent: "",
        start_ns: tr.spans[first_span].start_ns,
        dur_ns: (latency_s * 1e9) as u64,
    });
    let phases_ns = (trace.plan_ns + trace.build_ns + trace.join_ns) as f64;
    let w = &out.work;
    tr.sample("query.parse_us", parse_s * 1e6);
    tr.sample("query.snapshot_us", snap_s * 1e6);
    tr.sample("planner.plan_us", trace.plan_ns as f64 / 1e3);
    tr.sample("exec.build_ms", trace.build_ns as f64 / 1e6);
    tr.sample("exec.join_ms", trace.join_ns as f64 / 1e6);
    tr.sample("exec.unattributed_ms", (exec_us * 1e3 - phases_ns) / 1e6);
    tr.sample("exec.rows", out.result.len() as f64);
    tr.sample("exec.work_total", w.total_work() as f64);
    tr.sample("exec.comparisons", w.comparisons() as f64);
    tr.sample("exec.probes", w.probes() as f64);
    tr.sample("exec.delta_merge", w.delta_merge() as f64);
    tr.sample("kernels.merge", w.kernel_merge() as f64);
    tr.sample("kernels.gallop", w.kernel_gallop() as f64);
    tr.sample("kernels.bitmap", w.kernel_bitmap() as f64);
    tr.sample("service.overhead_us", query_s * 1e6 - exec_us);
    if decode_with.is_some() {
        tr.sample("typed.decode_ms", decode_s * 1e3);
    }
    let (mut runs, mut tombstones) = (0usize, 0usize);
    for name in snap.relation_names() {
        if let Some(d) = snap.delta(name) {
            runs += d.num_runs();
            tombstones += d.tombstones();
        }
    }
    tr.sample("delta.runs", runs as f64);
    tr.sample("delta.tombstones", tombstones as f64);
    let cache = &out.cache_stats;
    tr.cache_hits += cache.hits;
    tr.cache_misses += cache.misses;
    tr.sample("cache.misses", cache.misses as f64);
    tr.sample("cache.incremental_merges", cache.incremental_merges as f64);
    tr.sample("cache.resident_mb", cache.bytes as f64 / (1024.0 * 1024.0));
    Ok(Answer {
        out,
        typed,
        latency_ms: latency_s * 1e3,
        snapshot: Some(snap),
    })
}

fn decode(
    out: &ExecOutput,
    query: &wcoj_query::ConjunctiveQuery,
    db: &Database,
) -> Result<Vec<TypedRow>, String> {
    out.typed_rows(query, db)
        .map_err(|e| format!("typed view: {e}"))?
        .to_rows()
        .map_err(|e| format!("decode: {e}"))
}
