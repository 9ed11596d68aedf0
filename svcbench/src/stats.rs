//! Order statistics over client-side samples, and a reader for the service's
//! log-bucketed registry histograms.

use wcoj_service::{MetricValue, MetricsSnapshot};

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values`, interpolating linearly between
/// the two nearest order statistics; `0.0` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values` (`0.0` when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The arithmetic mean of `values` (`0.0` when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// One registry histogram (inclusive upper bucket bounds, counts, sum), merged
/// across the services a run opens.
#[derive(Debug, Clone, Default)]
pub struct Hist {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    sum: u64,
    count: u64,
}

impl Hist {
    /// The histogram registered as `name` (empty if absent).
    pub fn read(snap: &MetricsSnapshot, name: &str) -> Hist {
        match snap.get(name) {
            Some(MetricValue::Histogram {
                bounds,
                counts,
                sum,
                count,
            }) => Hist {
                bounds: bounds.clone(),
                counts: counts.clone(),
                sum: *sum,
                count: *count,
            },
            _ => Hist::default(),
        }
    }

    /// Fold `other` (same bucket layout) into `self`.
    pub fn absorb(&mut self, other: &Hist) {
        if self.bounds.is_empty() {
            *self = other.clone();
            return;
        }
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.sum += other.sum;
        self.count += other.count;
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean observation (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile, interpolated linearly inside the bucket that holds
    /// it (the estimate a Prometheus `histogram_quantile` gives). The open
    /// last bucket reports its lower bound.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && (seen + c) as f64 >= rank {
                let lo = if i == 0 { 0 } else { self.bounds[i - 1] } as f64;
                if self.bounds[i] == u64::MAX {
                    return lo;
                }
                let hi = self.bounds[i] as f64;
                return lo + (hi - lo) * ((rank - seen as f64) / c as f64).clamp(0.0, 1.0);
            }
            seen += c;
        }
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(mean(&v), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn histogram_quantile_stays_inside_its_bucket() {
        let h = Hist {
            bounds: vec![1, 2, 4, 8, u64::MAX],
            counts: vec![0, 0, 10, 10, 0],
            sum: 100,
            count: 20,
        };
        let p50 = h.quantile(0.5);
        assert!((2.0..=4.0).contains(&p50), "{p50}");
        let p99 = h.quantile(0.99);
        assert!((4.0..=8.0).contains(&p99), "{p99}");
        assert_eq!(h.mean(), 5.0);
    }
}
