//! The host and environment record written with every run, so a slower
//! machine can be told apart from a slower build.

use std::hint::black_box;
use std::time::Instant;
use wcoj_storage::simd;
use wcoj_storage::KernelCalibration;

/// What the run knows about the machine it ran on.
#[derive(Debug, Clone)]
pub struct HostRecord {
    /// `model name` from `/proc/cpuinfo` (or `unknown`).
    pub cpu_model: String,
    /// `std::thread::available_parallelism`.
    pub vcpus: usize,
    /// The SIMD level the intersection kernels dispatch to.
    pub simd: String,
    /// The resolved host kernel calibration, as its JSON cache-file line.
    pub calibration: String,
    /// ns per iteration of [`reference_loop_ns`] before the workload ran.
    pub ref_loop_ns_before: f64,
    /// ... and after it.
    pub ref_loop_ns_after: f64,
}

impl HostRecord {
    /// Probe everything except the post-workload reference loop.
    pub fn probe() -> HostRecord {
        HostRecord {
            cpu_model: cpu_model(),
            vcpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
            simd: format!("{:?}", simd::active_level()),
            calibration: KernelCalibration::host().to_json(),
            ref_loop_ns_before: reference_loop_ns(),
            ref_loop_ns_after: 0.0,
        }
    }

    /// One line for the run report.
    pub fn line(&self) -> String {
        format!(
            "host cpu=\"{}\" vcpus={} simd={} calibration={} ref_loop_ns_before={:.4} ref_loop_ns_after={:.4}",
            self.cpu_model,
            self.vcpus,
            self.simd,
            self.calibration,
            self.ref_loop_ns_before,
            self.ref_loop_ns_after
        )
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Nanoseconds per iteration of a fixed, dependency-chained integer mixing
/// loop (best of three passes of 2^22 iterations): a host-speed yardstick
/// that touches no program code.
pub fn reference_loop_ns() -> f64 {
    const ITERS: u64 = 1 << 22;
    let mut best = f64::INFINITY;
    for pass in 0..3u64 {
        let started = Instant::now();
        let mut x = black_box(0x9E37_79B9_7F4A_7C15u64 ^ pass);
        for i in 0..ITERS {
            x = (x ^ (x >> 31) ^ i).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        }
        black_box(x);
        best = best.min(started.elapsed().as_nanos() as f64 / ITERS as f64);
    }
    best
}

/// Every `WCOJ_*` variable set in the environment. Service and storage
/// defaults read them (tracing, fault injection, cache budget, kernel
/// thresholds), so a run with any of them set would not measure the defaults.
pub fn wcoj_env_vars() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("WCOJ_"))
        .collect();
    names.sort();
    names
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
