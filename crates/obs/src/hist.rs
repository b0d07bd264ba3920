//! Log-bucketed histograms: lock-free recording, plain-data snapshots.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of histogram buckets. Bucket 0 holds the value 0; bucket
/// `b ≥ 1` holds values in `[2^(b−1), 2^b − 1]` — i.e. the bucket index
/// of `v ≥ 1` is its bit width, so a value landing exactly on a power of
/// two `2^k` goes to bucket `k + 1` (it is the *lower* edge of that
/// bucket's range).
pub const BUCKETS: usize = 65;

/// Bucket index of `v`: 0 for 0, otherwise the bit width of `v`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive value range `[lo, hi]` covered by bucket `b`.
fn bucket_range(b: usize) -> (u64, u64) {
    match b {
        0 => (0, 0),
        64 => (1 << 63, u64::MAX),
        b => (1 << (b - 1), (1 << b) - 1),
    }
}

#[derive(Debug)]
pub(crate) struct HistCore {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for HistCore {
    fn default() -> Self {
        HistCore {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// A log-bucketed histogram handle ([`BUCKETS`] power-of-two buckets
/// plus exact count / sum / max). Cloning shares the cells; recording is
/// a handful of relaxed atomic ops, so concurrent totals are exact even
/// though cross-metric ordering is not.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    core: Arc<HistCore>,
}

impl Histogram {
    /// Record one value.
    pub fn observe(&self, v: u64) {
        let c = &self.core;
        c.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        c.sum.fetch_add(v, Ordering::Relaxed);
        c.max.fetch_max(v, Ordering::Relaxed);
        // Count last: a snapshot reading count-first / buckets-last could
        // otherwise see a count with no matching bucket increment.
        c.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a [`std::time::Duration`] in nanoseconds — the convention
    /// every span-backed latency histogram uses (`*_ns` names).
    pub fn observe_duration(&self, d: std::time::Duration) {
        self.observe(d.as_nanos() as u64);
    }

    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.core.count.load(Ordering::Relaxed)
    }

    /// A consistent-enough copy: `count ≤ Σ buckets` never fails its
    /// [`HistogramSnapshot::validate`] even under concurrent recording,
    /// because `count` is read first and incremented last.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let c = &self.core;
        let count = c.count.load(Ordering::Relaxed);
        let max = c.max.load(Ordering::Relaxed);
        let sum = c.sum.load(Ordering::Relaxed);
        let mut buckets: Vec<u64> = c
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        // Clamp to exactly `count` samples (in-flight observes may have
        // bumped a bucket after `count` was read): drop the excess from
        // the newest increments, scanning from the top.
        let mut excess = buckets.iter().sum::<u64>().saturating_sub(count);
        for b in buckets.iter_mut().rev() {
            if excess == 0 {
                break;
            }
            let take = (*b).min(excess);
            *b -= take;
            excess -= take;
        }
        HistogramSnapshot {
            count,
            sum,
            max,
            buckets,
        }
    }
}

/// Plain-data copy of a [`Histogram`]: exportable, self-validating.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Recorded values.
    pub count: u64,
    /// Exact sum of recorded values.
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Per-bucket counts, indexed by [`bucket_index`]; always
    /// [`BUCKETS`] long.
    pub buckets: Vec<u64>,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            max: 0,
            buckets: vec![0; BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    /// Exact mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated `q`-quantile (`0 < q ≤ 1`), linearly interpolated
    /// inside the containing power-of-two bucket and clamped to the
    /// recorded max. Exact for `q = 1` (returns `max`); otherwise
    /// accurate to within the bucket's 2× width.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        if q >= 1.0 {
            return self.max as f64;
        }
        let rank = (q * self.count as f64).ceil().max(1.0);
        let mut seen = 0.0;
        for (b, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let next = seen + c as f64;
            if rank <= next {
                let (lo, hi) = bucket_range(b);
                let frac = (rank - seen) / c as f64;
                let est = lo as f64 + (hi - lo) as f64 * frac;
                return est.min(self.max as f64);
            }
            seen = next;
        }
        self.max as f64
    }

    /// Median estimate.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> f64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Internal-consistency check: the bucket vector is full-length, the
    /// count equals the sum of buckets, and an empty histogram carries
    /// no sum/max.
    pub fn validate(&self) -> Result<(), String> {
        if self.buckets.len() != BUCKETS {
            return Err(format!(
                "histogram has {} buckets, expected {BUCKETS}",
                self.buckets.len()
            ));
        }
        let total: u64 = self.buckets.iter().sum();
        if total != self.count {
            return Err(format!(
                "histogram count {} != sum of buckets {total}",
                self.count
            ));
        }
        if self.count == 0 && (self.sum != 0 || self.max != 0) {
            return Err("empty histogram with non-zero sum/max".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_at_powers_of_two() {
        // The contract spelled out on BUCKETS: 0 → bucket 0, v ≥ 1 →
        // bit width, so 2^k lands in bucket k+1 and 2^k − 1 in bucket k.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        for k in 1..63 {
            let p = 1u64 << k;
            assert_eq!(bucket_index(p), k + 1, "2^{k} must open bucket {}", k + 1);
            assert_eq!(bucket_index(p - 1), k, "2^{k}-1 must close bucket {k}");
            assert_eq!(bucket_index(p + 1), k + 1);
        }
        assert_eq!(bucket_index(1 << 63), 64);
        assert_eq!(bucket_index(u64::MAX), 64);
        // bucket_range is the exact inverse image.
        for b in 0..BUCKETS {
            let (lo, hi) = bucket_range(b);
            assert_eq!(bucket_index(lo), b);
            assert_eq!(bucket_index(hi), b);
        }
    }

    #[test]
    fn observe_tracks_count_sum_max_and_validates() {
        let h = Histogram::default();
        for v in [0, 1, 2, 3, 1024, u64::MAX] {
            h.observe(v);
        }
        let s = h.snapshot();
        s.validate().unwrap();
        assert_eq!(s.count, 6);
        assert_eq!(s.max, u64::MAX);
        assert_eq!(
            s.sum,
            0u64.wrapping_add(1 + 2 + 3 + 1024).wrapping_add(u64::MAX)
        );
        assert_eq!(s.buckets[0], 1); // the 0
        assert_eq!(s.buckets[1], 1); // 1
        assert_eq!(s.buckets[2], 2); // 2, 3
        assert_eq!(s.buckets[11], 1); // 1024 = 2^10 → bucket 11
        assert_eq!(s.buckets[64], 1); // u64::MAX
    }

    #[test]
    fn quantiles_interpolate_and_clamp_to_max() {
        let h = Histogram::default();
        for _ in 0..100 {
            h.observe(1000);
        }
        let s = h.snapshot();
        // All mass in one bucket: every quantile is within that bucket
        // and never exceeds the true max.
        assert!(s.p50() <= 1000.0 && s.p50() >= 512.0);
        assert_eq!(s.quantile(1.0), 1000.0);
        assert_eq!(s.mean(), 1000.0);
    }
}
