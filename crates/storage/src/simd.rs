//! Explicit-SIMD inner loop for the merge intersection kernel.
//!
//! Everything here is **observationally identical** to the scalar code it
//! replaces: same output values in the same order, and — because the caller
//! charges counted work through a closed-form replay (see
//! `kernels::merge2_cost`) — identical deterministic work counters. The
//! SIMD level is detected once per process and only changes *wall-clock*, never
//! results, so `BENCH_joins.json` work ratios stay exactly 1.000.
//!
//! Dispatch:
//! * x86-64 with AVX2 → 4×u64 block kernels (`_mm256_cmpeq_epi64` + movemask).
//! * aarch64 with NEON → 2×u64 block kernels.
//! * anything else, or `WCOJ_FORCE_SCALAR=1` → the scalar fallback.
//!
//! The force-scalar escape hatch is read once at first use; tests that need to
//! cover both paths on one machine pass an explicit [`SimdLevel`], or flip the
//! process-wide dispatch between runs with [`force_active_level`], instead of
//! mutating the environment.

// The only unsafe in the storage crate: `#[target_feature]` intrinsics, each
// call guarded by runtime detection.
#![allow(unsafe_code)]

use crate::Value;
use std::sync::atomic::{AtomicU8, Ordering};

/// Instruction-set level the block kernels run at. Detected once per process
/// ([`active_level`]); every SIMD entry point also accepts an explicit level so
/// differential tests can sweep `Scalar` vs the detected level deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// Portable scalar loops — the reference semantics.
    Scalar,
    /// AVX2 4-lane u64 blocks (x86-64).
    Avx2,
    /// NEON 2-lane u64 blocks (aarch64).
    Neon,
}

/// Dispatch-level cache: 0 = not yet detected, otherwise `encode_level + 1`.
/// An atomic rather than a `OnceLock` so [`force_active_level`] can re-point
/// dispatch for in-process scalar-vs-SIMD A/B runs (tests, the E7 bench).
static ACTIVE: AtomicU8 = AtomicU8::new(0);

fn encode_level(level: SimdLevel) -> u8 {
    match level {
        SimdLevel::Scalar => 1,
        SimdLevel::Avx2 => 2,
        SimdLevel::Neon => 3,
    }
}

fn decode_level(byte: u8) -> SimdLevel {
    match byte {
        2 => SimdLevel::Avx2,
        3 => SimdLevel::Neon,
        _ => SimdLevel::Scalar,
    }
}

/// The SIMD level every kernel dispatches to by default: the best level the
/// host supports, unless `WCOJ_FORCE_SCALAR=1` pins the scalar fallback.
/// Detected once at first use and stable thereafter — except for explicit
/// [`force_active_level`] calls.
pub fn active_level() -> SimdLevel {
    match ACTIVE.load(Ordering::Relaxed) {
        0 => {
            let level = if std::env::var("WCOJ_FORCE_SCALAR").is_ok_and(|v| v == "1") {
                SimdLevel::Scalar
            } else {
                detect_level()
            };
            // first writer wins, so racing initializers agree on the answer
            let _ = ACTIVE.compare_exchange(
                0,
                encode_level(level),
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
            decode_level(ACTIVE.load(Ordering::Relaxed))
        }
        byte => decode_level(byte),
    }
}

/// Re-point process-wide dispatch at `level` — the in-process A/B hook used by
/// the SIMD-parity tests and the E7 SIMD bench to compare scalar and
/// vector paths without respawning under `WCOJ_FORCE_SCALAR=1`. Panics if the
/// host cannot execute `level`. Not for concurrent use with live queries: flip
/// it only between runs.
pub fn force_active_level(level: SimdLevel) {
    assert!(
        runnable_levels().contains(&level),
        "SIMD level {level:?} is not runnable on this host"
    );
    ACTIVE.store(encode_level(level), Ordering::Relaxed);
}

/// The best level the host supports, ignoring the force-scalar override.
pub fn detect_level() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return SimdLevel::Avx2;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            return SimdLevel::Neon;
        }
    }
    SimdLevel::Scalar
}

/// Levels that can actually run on this host (always includes `Scalar`), for
/// tests sweeping every executable path.
pub fn runnable_levels() -> Vec<SimdLevel> {
    let mut levels = vec![SimdLevel::Scalar];
    if detect_level() != SimdLevel::Scalar {
        levels.push(detect_level());
    }
    levels
}

/// Append the sorted intersection of two sorted, deduplicated slices to `out`.
///
/// Block algorithm (Inoue et al. / Schlegel et al. style): compare a 4-lane (or
/// 2-lane) block of `a` against every rotation of a block of `b`, push the
/// matching `a` lanes in lane order, then advance whichever block has the
/// smaller maximum (both on a tie). A matched value can never reappear (values
/// are distinct within each list) and later matches are strictly larger, so the
/// output is the ascending intersection — exactly the scalar merge's output.
pub fn merge2_into(level: SimdLevel, out: &mut Vec<Value>, a: &[Value], b: &[Value]) {
    match level {
        SimdLevel::Scalar => merge2_scalar(out, a, b),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { merge2_avx2(out, a, b) },
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => unsafe { merge2_neon(out, a, b) },
        #[allow(unreachable_patterns)]
        _ => merge2_scalar(out, a, b),
    }
}

/// Scalar reference: the branchless two-pointer merge (no counting — callers
/// that need the comparison tally use `kernels::merge2` or the closed form).
fn merge2_scalar(out: &mut Vec<Value>, a: &[Value], b: &[Value]) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        let x = a[i];
        let y = b[j];
        if x == y {
            out.push(x);
        }
        i += (x <= y) as usize;
        j += (y <= x) as usize;
    }
}

/// Scalar tail shared by the block kernels once fewer than a block remains.
#[inline]
fn merge2_tail(out: &mut Vec<Value>, a: &[Value], b: &[Value], mut i: usize, mut j: usize) {
    while i < a.len() && j < b.len() {
        let x = a[i];
        let y = b[j];
        if x == y {
            out.push(x);
        }
        i += (x <= y) as usize;
        j += (y <= x) as usize;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn merge2_avx2(out: &mut Vec<Value>, a: &[Value], b: &[Value]) {
    use core::arch::x86_64::*;
    let (mut i, mut j) = (0usize, 0usize);
    while i + 4 <= a.len() && j + 4 <= b.len() {
        // SAFETY: i+4 <= a.len() and j+4 <= b.len() bound every unaligned load.
        let va = unsafe { _mm256_loadu_si256(a.as_ptr().add(i) as *const __m256i) };
        let vb = unsafe { _mm256_loadu_si256(b.as_ptr().add(j) as *const __m256i) };
        // va against all four rotations of vb: a lane matches iff its value
        // occurs anywhere in the b block
        let m0 = _mm256_cmpeq_epi64(va, vb);
        let m1 = _mm256_cmpeq_epi64(va, _mm256_permute4x64_epi64(vb, 0b00_11_10_01));
        let m2 = _mm256_cmpeq_epi64(va, _mm256_permute4x64_epi64(vb, 0b01_00_11_10));
        let m3 = _mm256_cmpeq_epi64(va, _mm256_permute4x64_epi64(vb, 0b10_01_00_11));
        let hit = _mm256_or_si256(_mm256_or_si256(m0, m1), _mm256_or_si256(m2, m3));
        let mut mask = _mm256_movemask_pd(_mm256_castsi256_pd(hit)) as u32;
        while mask != 0 {
            let lane = mask.trailing_zeros() as usize;
            out.push(a[i + lane]);
            mask &= mask - 1;
        }
        let a_max = a[i + 3];
        let b_max = b[j + 3];
        i += ((a_max <= b_max) as usize) * 4;
        j += ((b_max <= a_max) as usize) * 4;
    }
    merge2_tail(out, a, b, i, j);
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn merge2_neon(out: &mut Vec<Value>, a: &[Value], b: &[Value]) {
    use core::arch::aarch64::*;
    let (mut i, mut j) = (0usize, 0usize);
    while i + 2 <= a.len() && j + 2 <= b.len() {
        // SAFETY: i+2 <= a.len() and j+2 <= b.len() bound every load.
        let va = unsafe { vld1q_u64(a.as_ptr().add(i)) };
        let vb = unsafe { vld1q_u64(b.as_ptr().add(j)) };
        let m0 = vceqq_u64(va, vb);
        let m1 = vceqq_u64(va, vextq_u64(vb, vb, 1));
        let hit = vorrq_u64(m0, m1);
        if vgetq_lane_u64(hit, 0) != 0 {
            out.push(a[i]);
        }
        if vgetq_lane_u64(hit, 1) != 0 {
            out.push(a[i + 1]);
        }
        let a_max = a[i + 1];
        let b_max = b[j + 1];
        i += ((a_max <= b_max) as usize) * 2;
        j += ((b_max <= a_max) as usize) * 2;
    }
    merge2_tail(out, a, b, i, j);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_intersect(a: &[Value], b: &[Value]) -> Vec<Value> {
        a.iter().copied().filter(|v| b.contains(v)).collect()
    }

    fn xorshift(seed: &mut u64) -> u64 {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        *seed
    }

    fn sorted_unique(seed: &mut u64, len: usize, span: u64) -> Vec<Value> {
        let mut v: Vec<Value> = (0..len).map(|_| xorshift(seed) % span).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    #[test]
    fn merge2_levels_agree_on_random_shapes() {
        let mut seed = 0x9E3779B97F4A7C15;
        for level in runnable_levels() {
            for &(la, lb, span) in &[
                (0usize, 5usize, 10u64),
                (1, 1, 2),
                (3, 200, 400),
                (64, 64, 96),
                (100, 1000, 1500),
                (257, 255, 300),
                (1000, 1000, 4096),
            ] {
                for _ in 0..8 {
                    let a = sorted_unique(&mut seed, la, span);
                    let b = sorted_unique(&mut seed, lb, span);
                    let mut out = Vec::new();
                    merge2_into(level, &mut out, &a, &b);
                    assert_eq!(
                        out,
                        naive_intersect(&a, &b),
                        "{level:?} {la}x{lb} span {span}"
                    );
                }
            }
        }
    }

    #[test]
    fn merge2_handles_extreme_values() {
        for level in runnable_levels() {
            let a = vec![0, 1, u64::MAX - 1, u64::MAX];
            let b = vec![1, 2, u64::MAX];
            let mut out = Vec::new();
            merge2_into(level, &mut out, &a, &b);
            assert_eq!(out, vec![1, u64::MAX], "{level:?}");
        }
    }

    #[test]
    fn active_level_is_stable() {
        assert_eq!(active_level(), active_level());
    }
}
