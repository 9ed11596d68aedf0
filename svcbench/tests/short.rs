//! The benchmark's own tests: a short mode of every workload emits every
//! metric with its unit in a result line the in-tree JSON parser accepts,
//! its checks catch a wrong reference answer, a stalled open-loop generator
//! invalidates the run, and `BENCHMARK.json` lists exactly the metrics the
//! program reports.

use std::path::PathBuf;
use std::sync::Once;

use svcbench::{run, Config, Faults, Kind, Outcome, Scale, END_TO_END, PER_LAYER};
use wcoj_obs::json::Json;

/// A private working directory per test (tests run in parallel).
fn work_dir(tag: &str) -> PathBuf {
    static TUNE: Once = Once::new();
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("svcbench-tests");
    TUNE.call_once(|| {
        std::fs::create_dir_all(&root).expect("create test root");
        // keep the kernel calibration cache out of the home directory
        std::env::set_var("WCOJ_TUNE_FILE", root.join("wcoj-tune.json"));
    });
    root.join(tag)
}

fn short(kind: Kind, trace: bool, faults: Faults, tag: &str) -> Outcome {
    let cfg = Config {
        kind,
        seed: 7,
        seconds: 0.6,
        trace,
        scale: Scale::Short,
        work_dir: work_dir(tag),
        faults,
    };
    run(&cfg).unwrap_or_else(|e| panic!("{} failed to run: {e}", kind.name()))
}

/// Parse a result line and check its shape against `names`.
fn check_result_line(outcome: &Outcome, names: &[(&str, &str)]) -> Json {
    let line = outcome
        .json_line()
        .expect("every listed metric is measured");
    let json = Json::parse(&line).unwrap_or_else(|| panic!("result line is not JSON: {line}"));
    let Json::Obj(top) = &json else {
        panic!("result line is not an object")
    };
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert!(json.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
    let Some(Json::Obj(metrics)) = json.get("metrics") else {
        panic!("metrics is not an object")
    };
    assert_eq!(metrics.len(), names.len());
    for (name, unit) in names {
        let m = metrics
            .get(*name)
            .unwrap_or_else(|| panic!("{} lacks {name}", outcome.kind.name()));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit), "{name}");
        assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
    }
    json
}

#[test]
fn every_workload_reports_every_metric_and_passes_its_checks() {
    for kind in Kind::ALL {
        for trace in [false, true] {
            let tag = format!("ok-{}-{}", kind.name(), trace as u8);
            let outcome = short(kind, trace, Faults::default(), &tag);
            assert!(
                outcome.correct,
                "{}: {:?}",
                kind.name(),
                outcome.tally.errors
            );
            let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            let json = check_result_line(&outcome, names);
            assert_eq!(json.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(json.get("failed").and_then(Json::as_u64), Some(0));
            assert_eq!(outcome.metric("failed_ratio").map(|m| m.value), Some(0.0));
            // the report prints every measurement with a unit
            for line in outcome.report().iter().filter(|l| l.starts_with("metric ")) {
                assert_eq!(line.split(' ').count(), 4, "{line}");
            }
        }
    }
}

#[test]
fn a_wrong_reference_answer_fails_the_run() {
    for kind in Kind::ALL {
        let faults = Faults {
            wrong_reference: true,
            ..Faults::default()
        };
        let tag = format!("wrong-{}", kind.name());
        let outcome = short(kind, false, faults, &tag);
        assert!(
            !outcome.correct,
            "{} accepted a wrong reference",
            kind.name()
        );
        assert!(outcome.tally.failed > 0);
        let ratio = outcome.metric("failed_ratio").expect("failed_ratio").value;
        assert!(ratio > 0.0, "{}: failed_ratio {ratio}", kind.name());
        let json = check_result_line(&outcome, &END_TO_END);
        assert_eq!(json.get("correct"), Some(&Json::Bool(false)));
    }
}

#[test]
fn a_stalled_open_loop_generator_invalidates_the_run() {
    let limit = svcbench::live::plan(Scale::Short).lag_limit;
    let faults = Faults {
        writer_stall: Some(limit * 2),
        ..Faults::default()
    };
    let outcome = short(Kind::Live, false, faults, "stall");
    assert!(outcome.tally.invalid);
    assert!(!outcome.correct);
    let lag = outcome
        .metric("loadgen.lag_max_ms")
        .expect("lag metric")
        .value;
    assert!(lag > limit.as_secs_f64() * 1e3, "lag {lag} ms");
}

#[test]
fn benchmark_json_lists_what_the_program_reports() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<(String, String)> {
        json.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("{key} is a list"))
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_string(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect()
    };
    let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names("end_to_end"), owned(&END_TO_END));
    assert_eq!(names("per_layer"), owned(&PER_LAYER));
    let workloads: Vec<&str> = json
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads is a list")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    let expected: Vec<&str> = Kind::GATED.iter().map(|k| k.name()).collect();
    assert_eq!(workloads, expected);
}
