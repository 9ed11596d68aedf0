//! Command-line entry point of the service benchmark.
//!
//! ```text
//! svcbench --workload <read_static|live|ingest_recover|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a report (host record, every metric with its unit, notes and
//! failures) and, as the last line of standard output, one JSON object with
//! `correct`, `attempted`, `failed` and the `BENCHMARK.json` metrics of the
//! run's mode. `--workload all` runs every workload untraced and traced and
//! prints every report. Working files go to `.svcbench-work` under the current
//! directory. Exits non-zero, printing no result, if any `WCOJ_*` variable is
//! set or the arguments are wrong.

use std::path::PathBuf;
use std::process::ExitCode;

use svcbench::{host, run, Config, Faults, Kind, Scale};

struct Args {
    kinds: Vec<Kind>,
    seed: u64,
    seconds: f64,
    traces: Vec<bool>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut kinds, mut seed, mut seconds, mut traces) = (None, 1u64, 10.0f64, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kinds = Some(if value == "all" {
                    Kind::ALL.to_vec()
                } else {
                    vec![Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?]
                })
            }
            "--seed" => seed = value.parse().map_err(|_| "--seed needs a u64")?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| "--seconds needs a number")?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                traces = Some(match value.as_str() {
                    "0" => vec![false],
                    "1" => vec![true],
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let kinds = kinds.ok_or("--workload is required")?;
    // `all` reports both modes unless one is asked for
    let traces = traces.unwrap_or_else(|| {
        if kinds.len() > 1 {
            vec![false, true]
        } else {
            vec![false]
        }
    });
    Ok(Args {
        kinds,
        seed,
        seconds,
        traces,
    })
}

fn main() -> ExitCode {
    let set = host::wcoj_env_vars();
    if !set.is_empty() {
        eprintln!(
            "svcbench: refusing to run with WCOJ_* variables set (they change service defaults): {}",
            set.join(" ")
        );
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("svcbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work_dir = PathBuf::from(".svcbench-work");
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("svcbench: cannot create {}: {e}", work_dir.display());
        return ExitCode::FAILURE;
    }
    // The host kernel calibration is probed once and cached in a file; keep
    // that file inside the working directory instead of the home directory.
    std::env::set_var("WCOJ_TUNE_FILE", work_dir.join("wcoj-tune.json"));

    let mut results = Vec::new();
    for &kind in &args.kinds {
        for &trace in &args.traces {
            let cfg = Config {
                kind,
                seed: args.seed,
                seconds: args.seconds,
                trace,
                scale: Scale::Full,
                work_dir: work_dir.clone(),
                faults: Faults::default(),
            };
            let outcome = match run(&cfg) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("svcbench {}: {e}", kind.name());
                    return ExitCode::FAILURE;
                }
            };
            for line in outcome.report() {
                println!("{line}");
            }
            let json = match outcome.json_line() {
                Ok(j) => j,
                Err(e) => {
                    eprintln!("svcbench {}: {e}", kind.name());
                    return ExitCode::FAILURE;
                }
            };
            results.push(json);
        }
    }
    if results.len() > 1 {
        for line in &results[..results.len() - 1] {
            println!("result {line}");
        }
    }
    println!("{}", results.last().expect("at least one run"));
    ExitCode::SUCCESS
}
