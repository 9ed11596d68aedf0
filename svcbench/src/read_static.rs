//! `read_static`: one in-memory service over a catalog of five shapes under
//! distinct relation names — uniform, Zipf and hub triangles, the 4-clique,
//! and the string-keyed social triangle, whose rows are decoded through
//! `typed_rows`. One closed-loop client sends query text round-robin against
//! a warm access-structure cache that fits its budget; nothing is written.
//!
//! Why: it isolates the read path (planner → join kernels → output packing →
//! typed decode). Builds, the WAL, deltas and recovery do almost nothing
//! here, so a change to them should predict no move on this workload.

use std::time::Instant;

use wcoj_core::{execute_opts, CacheMode, Engine, ExecOptions};
use wcoj_query::{parse_query, Database, Snapshot};
use wcoj_service::{QueryService, ServiceConfig};
use wcoj_storage::{AttrType, Relation, Schema, TypedValue, Value};
use wcoj_workloads::{random_pairs, social_graph_pairs, zipf_pairs, SplitMix64};

use crate::client::{digest, digest_typed, query_op, Fingerprint, Tracer};
use crate::stats::median;
use crate::{host, phase_seconds, push, timed_instances, Config, Phase, Scale, Tally, WorkloadRun};

/// One query shape of the catalog.
pub struct Shape {
    /// Label; the per-shape latency metric is `<label>_p50_ms`.
    pub label: &'static str,
    /// The query text the client sends.
    pub text: &'static str,
    /// Whether the client decodes the rows through the typed view.
    pub typed: bool,
}

/// The five shapes, in round-robin order.
pub const SHAPES: [Shape; 5] = [
    Shape {
        label: "tri_uniform",
        text: "Q(A,B,C) :- UR(A,B), US(B,C), UT(A,C).",
        typed: false,
    },
    Shape {
        label: "tri_zipf",
        text: "Q(A,B,C) :- ZR(A,B), ZS(B,C), ZT(A,C).",
        typed: false,
    },
    Shape {
        label: "tri_hub",
        text: "Q(A,B,C) :- HR(A,B), HS(B,C), HT(A,C).",
        typed: false,
    },
    Shape {
        label: "clique4",
        text: "Q(W,X,Y,Z) :- KE(W,X), KE(W,Y), KE(W,Z), KE(X,Y), KE(X,Z), KE(Y,Z).",
        typed: false,
    },
    Shape {
        label: "social",
        text: "Q(X,Y,Z) :- SE(X,Y), SE(X,Z), SE(Y,Z).",
        typed: true,
    },
];

/// `(triangle n, clique/social n)` per scale.
pub fn sizes(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Full => (16384, 4096),
        Scale::Short => (512, 256),
    }
}

/// Service instances the client rotates over, each over its own catalog
/// generated from its own sub-seed. One run thus averages several random
/// inputs and several memory layouts: one instance's speed can differ from
/// another's by a fifth on the same host. Their set-ups are also the set-up
/// repetitions.
pub fn instances(scale: Scale) -> usize {
    match scale {
        Scale::Full => 8,
        Scale::Short => 2,
    }
}

/// `~2·sqrt(n)` distinct values, the workload crate's default domain.
fn default_domain(n: usize) -> u64 {
    (2.0 * (n as f64).sqrt()).ceil() as u64 + 1
}

/// Hub-and-spoke edges (the workload crate's `hub_spoke` distribution): one
/// endpoint among `~sqrt(n)/8` hubs, the other uniform over 16× as many
/// values.
fn hub_pairs(n: usize, seed: u64) -> Vec<(Value, Value)> {
    let hubs = (((n as f64).sqrt() / 8.0).ceil() as u64).max(2);
    let domain = hubs * 16;
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let hub = rng.below(hubs);
            let other = rng.below(domain);
            if rng.next_u64() & 1 == 0 {
                (hub, other)
            } else {
                (other, hub)
            }
        })
        .collect()
}

/// One integer relation's input: name, attribute names, edges.
type EdgeList = (&'static str, [&'static str; 2], Vec<(Value, Value)>);

/// The generated inputs: integer edge lists per relation, and the social
/// graph's string rows.
struct Inputs {
    pairs: Vec<EdgeList>,
    social: Vec<Vec<TypedValue>>,
}

fn inputs(seed: u64, scale: Scale) -> Inputs {
    let (n, nk) = sizes(scale);
    let mut rng = SplitMix64::new(seed);
    let mut s = || rng.next_u64();
    let d = default_domain(n);
    let zd = (n as u64 / 4).max(4);
    let social = social_graph_pairs(nk, s())
        .into_iter()
        .map(|(a, b)| {
            vec![
                TypedValue::Str(format!("user{a}")),
                TypedValue::Str(format!("user{b}")),
            ]
        })
        .collect();
    let pairs = vec![
        ("UR", ["A", "B"], random_pairs(n, d, s())),
        ("US", ["B", "C"], random_pairs(n, d, s())),
        ("UT", ["A", "C"], random_pairs(n, d, s())),
        ("ZR", ["A", "B"], zipf_pairs(n, zd, 1.1, s())),
        ("ZS", ["B", "C"], zipf_pairs(n, zd, 1.1, s())),
        ("ZT", ["A", "C"], zipf_pairs(n, zd, 1.1, s())),
        ("HR", ["A", "B"], hub_pairs(n, s())),
        ("HS", ["B", "C"], hub_pairs(n, s())),
        ("HT", ["A", "C"], hub_pairs(n, s())),
        ("KE", ["u", "v"], random_pairs(nk, default_domain(nk), s())),
    ];
    Inputs { pairs, social }
}

/// Load the catalog the way a user would: relations from edge lists, the
/// social graph through the typed loader onto one shared string domain.
fn load(inputs: &Inputs) -> Result<Database, String> {
    let mut db = Database::new();
    for (name, [a, b], pairs) in &inputs.pairs {
        db.insert(*name, Relation::from_pairs(a, b, pairs.iter().copied()));
    }
    db.set_domain("src", "user");
    db.set_domain("dst", "user");
    let schema = Schema::with_types(&["src", "dst"], &[AttrType::Str, AttrType::Str]);
    db.insert_typed_rows("SE", schema, &inputs.social)
        .map_err(|e| format!("load social graph: {e}"))?;
    Ok(db)
}

/// Load, start the service, and warm the cache with one query per shape.
fn setup(inputs: &Inputs, config: ServiceConfig) -> Result<(QueryService, Snapshot), String> {
    let svc = QueryService::in_memory(load(inputs)?, config);
    let pin = svc.snapshot();
    for shape in &SHAPES {
        query_op(&svc, shape.text, shape.typed.then_some(&*pin), None)
            .map_err(|e| format!("warm-up {}: {e}", shape.label))?;
    }
    Ok((svc, pin))
}

/// What one phase saw of each shape (all instances pooled), and of each
/// (instance, shape) pair.
struct Observed {
    latency_ms: Vec<Vec<f64>>,
    first: Vec<Vec<Option<Fingerprint>>>,
    ops: Vec<Vec<u64>>,
}

/// The closed-loop client: round-robin over the shapes, and after each
/// round on to the next service instance, for `seconds`.
fn measure(
    instances: &[(QueryService, Snapshot)],
    seconds: f64,
    tracer: Option<Tracer>,
) -> (Phase, Observed) {
    let mut phase = Phase::new(tracer);
    let per_instance = vec![vec![0u64; SHAPES.len()]; instances.len()];
    let mut obs = Observed {
        latency_ms: vec![Vec::new(); SHAPES.len()],
        first: vec![vec![None; SHAPES.len()]; instances.len()],
        ops: per_instance,
    };
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let mut i = 0usize;
    while Instant::now() < deadline {
        let k = i % SHAPES.len();
        let j = (i / SHAPES.len()) % instances.len();
        i += 1;
        let (svc, pin) = &instances[j];
        let shape = &SHAPES[k];
        match query_op(
            svc,
            shape.text,
            shape.typed.then_some(pin),
            phase.tracer.as_mut(),
        ) {
            Err(e) => phase.tally.fail(format!("{}: {e}", shape.label)),
            Ok(answer) => {
                phase.answered(answer.latency_ms, answer.latency_ms / 1e3);
                obs.latency_ms[k].push(answer.latency_ms);
                obs.ops[j][k] += 1;
                // drift guard: every execution of a shape on an instance must
                // repeat the rows, answer hash, total work and kernel split
                let fp = answer.fingerprint();
                match obs.first[j][k] {
                    None => {
                        obs.first[j][k] = Some(fp);
                        phase.tally.ok();
                    }
                    Some(first) if first == fp => phase.tally.ok(),
                    Some(first) => phase.tally.fail(format!(
                        "{} on instance {j}: execution drifted from {first:?} to {fp:?}",
                        shape.label
                    )),
                }
            }
        }
    }
    for (shape, lat) in SHAPES.iter().zip(&obs.latency_ms) {
        push(
            &mut phase.extra,
            format!("{}_p50_ms", shape.label),
            "ms",
            median(lat),
        );
    }
    (phase, obs)
}

/// Each shape's `(rows, hash)` from the binary-join baseline with the cache
/// off — an engine and access path independent of the one under test.
fn references(pin: &Database) -> Result<Vec<(u64, u64)>, String> {
    let opts = ExecOptions::new(Engine::BinaryHash).with_cache(CacheMode::Off);
    SHAPES
        .iter()
        .map(|shape| {
            let q = parse_query(shape.text).map_err(|e| e.to_string())?;
            let out = execute_opts(&q, pin, &opts).map_err(|e| e.to_string())?;
            Ok(if shape.typed {
                let rows = out
                    .typed_rows(&q, pin)
                    .and_then(|t| t.to_rows().map_err(Into::into))
                    .map_err(|e| e.to_string())?;
                digest_typed(&rows)
            } else {
                digest(&out.result)
            })
        })
        .collect()
}

/// Compare a phase's answers with each instance's references; every query of
/// a shape whose answer differs counts as failed.
fn check(tally: &mut Tally, obs: &Observed, refs: &[Vec<(u64, u64)>]) {
    for (j, instance_refs) in refs.iter().enumerate() {
        for (k, (shape, &(rows, hash))) in SHAPES.iter().zip(instance_refs).enumerate() {
            if let Some(fp) = obs.first[j][k] {
                if (fp.rows, fp.hash) != (rows, hash) {
                    tally.mark_failed(
                        obs.ops[j][k],
                        format!(
                            "{} on instance {j}: answer ({} rows, hash {:#x}) differs from the reference ({rows} rows, hash {hash:#x})",
                            shape.label, fp.rows, fp.hash
                        ),
                    );
                }
            }
        }
    }
}

/// Run the workload.
pub fn run(cfg: &Config) -> Result<WorkloadRun, String> {
    let mut seeds = SplitMix64::new(cfg.seed);
    let all_inputs: Vec<Inputs> = (0..instances(cfg.scale))
        .map(|_| inputs(seeds.next_u64(), cfg.scale))
        .collect();
    let seconds = phase_seconds(cfg);
    let mut next = all_inputs.iter();
    let (instances, setup_s) = timed_instances(all_inputs.len(), || {
        setup(
            next.next().expect("one input per instance"),
            ServiceConfig::default(),
        )
    })?;
    drop(all_inputs);
    let (mut plain, plain_obs) = measure(&instances, seconds, None);
    let peak_rss_mb = host::peak_rss_mb();
    let pins: Vec<Snapshot> = instances.into_iter().map(|(_, pin)| pin).collect();
    let traced = cfg.trace.then(|| {
        // the same catalogs and (shared) warm caches, behind services that
        // keep their own trace of every query
        let traced: Vec<(QueryService, Snapshot)> = pins
            .iter()
            .map(|pin| {
                let config = ServiceConfig::default().with_slow_query(std::time::Duration::ZERO);
                (
                    QueryService::in_memory((**pin).clone(), config),
                    pin.clone(),
                )
            })
            .collect();
        measure(&traced, seconds, Some(Tracer::default()))
    });
    // the references run after the measurement, two instances at a time
    let mut refs = std::thread::scope(|s| {
        let workers: Vec<_> = pins
            .chunks(pins.len().div_ceil(2))
            .map(|chunk| {
                s.spawn(move || chunk.iter().map(|pin| references(pin)).collect::<Vec<_>>())
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("reference worker panicked"))
            .collect::<Result<Vec<_>, String>>()
    })?;
    if cfg.faults.wrong_reference {
        refs[0][0].1 ^= 1;
    }
    check(&mut plain.tally, &plain_obs, &refs);
    let traced = traced.map(|(mut phase, obs)| {
        check(&mut phase.tally, &obs, &refs);
        phase
    });
    let (n, nk) = sizes(cfg.scale);
    let rows: Vec<String> = SHAPES
        .iter()
        .enumerate()
        .map(|(k, s)| format!("{}={}", s.label, refs[0][k].0))
        .collect();
    Ok(WorkloadRun {
        setup_s,
        plain,
        traced,
        peak_rss_mb,
        notes: vec![
            format!(
                "read_static: triangles n={n}, clique4/social n={nk}; one closed-loop client, round-robin over 5 shapes on {} service instances, each over its own seeded catalog",
                pins.len()
            ),
            format!(
                "reference rows of instance 0 (BinaryHash, cache off): {}",
                rows.join(" ")
            ),
        ],
    })
}
