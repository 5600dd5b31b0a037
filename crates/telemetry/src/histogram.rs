//! Fixed-bucket histograms over simulated ticks.
//!
//! Bucket bounds are compile-time constants, so two runs that observe the
//! same values always render the same buckets — no dynamic resizing, no
//! floating-point accumulation in the export path. Quantiles are reported
//! as the *upper bound* of the bucket containing the requested rank
//! (integer arithmetic only); the exact `max` is tracked separately so the
//! tail is never under-reported.

use std::fmt;

/// Upper bucket bounds (inclusive) in ticks. Chosen to straddle the
/// latencies this stack produces: LAN hops are single-digit ticks, WAN
/// round-trips tens, retry backoff hundreds-to-thousands, heartbeat and
/// expiry windows tens of thousands.
pub(crate) const TICK_BUCKETS: [u64; 16] = [
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000,
];

/// A fixed-bucket histogram of `u64` observations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    /// Per-bucket counts; `counts[i]` is observations `<= TICK_BUCKETS[i]`
    /// and greater than the previous bound. The final slot is the overflow
    /// (`+Inf`) bucket.
    counts: [u64; TICK_BUCKETS.len() + 1],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram over [`TICK_BUCKETS`].
    pub(crate) fn new() -> Self {
        Histogram {
            counts: [0; TICK_BUCKETS.len() + 1],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one observation.
    pub(crate) fn observe(&mut self, value: u64) {
        let idx = TICK_BUCKETS
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(TICK_BUCKETS.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations (saturating).
    pub(crate) fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation (`None` when empty).
    pub(crate) fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// The `num/den` quantile as the upper bound of the bucket holding
    /// that rank — integer arithmetic, deterministic. The overflow bucket
    /// reports the exact tracked `max`. Returns `None` when empty.
    pub(crate) fn quantile(&self, num: u64, den: u64) -> Option<u64> {
        if self.count == 0 || den == 0 {
            return None;
        }
        // rank = ceil(count * num / den), clamped to [1, count].
        let rank = self
            .count
            .saturating_mul(num)
            .div_ceil(den)
            .clamp(1, self.count);
        let mut seen = 0;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(match TICK_BUCKETS.get(idx) {
                    // Never report a bucket bound beyond the true max.
                    Some(&bound) => bound.min(self.max),
                    None => self.max,
                });
            }
        }
        Some(self.max)
    }

    /// Median (bucket-resolution).
    pub fn p50(&self) -> Option<u64> {
        self.quantile(50, 100)
    }

    /// 95th percentile (bucket-resolution).
    pub fn p95(&self) -> Option<u64> {
        self.quantile(95, 100)
    }

    /// Folds another histogram into this one (same fixed bounds).
    pub(crate) fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Cumulative `(upper-bound-label, count)` pairs in Prometheus
    /// `le`-label order, ending with `("+Inf", total)`.
    pub(crate) fn cumulative_buckets(&self) -> Vec<(String, u64)> {
        let mut out = Vec::with_capacity(self.counts.len());
        let mut cum = 0;
        for (idx, &c) in self.counts.iter().enumerate() {
            cum += c;
            let label = match TICK_BUCKETS.get(idx) {
                Some(bound) => bound.to_string(),
                None => "+Inf".to_string(),
            };
            out.push((label, cum));
        }
        out
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.count {
            0 => write!(f, "count=0"),
            _ => write!(
                f,
                "count={} p50={} p95={} max={}",
                self.count,
                self.p50().unwrap_or(0),
                self.p95().unwrap_or(0),
                self.max,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn empty_histogram_has_no_stats() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.p50(), None);
        assert_eq!(h.to_string(), "count=0");
    }

    #[test]
    fn quantiles_report_bucket_upper_bounds() {
        let mut h = Histogram::new();
        for v in [3, 4, 7, 40, 90] {
            h.observe(v);
        }
        // ranks: p50 -> 3rd of 5 -> value 7 -> bucket <=10.
        assert_eq!(h.p50(), Some(10));
        // p95 -> 5th of 5 -> value 90 -> bucket <=100, clamped to max 90.
        assert_eq!(h.p95(), Some(90));
        assert_eq!(h.min(), Some(3));
        assert_eq!(h.max(), Some(90));
        assert_eq!(h.sum(), 144);
    }

    #[test]
    fn overflow_bucket_reports_exact_max() {
        let mut h = Histogram::new();
        h.observe(2_000_000);
        assert_eq!(h.p50(), Some(2_000_000));
        assert_eq!(h.cumulative_buckets().last().unwrap().1, 1);
    }

    #[test]
    fn merge_matches_combined_observations() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut combined = Histogram::new();
        for v in [1, 10, 100] {
            a.observe(v);
            combined.observe(v);
        }
        for v in [5, 50, 500_000] {
            b.observe(v);
            combined.observe(v);
        }
        a.merge(&b);
        assert_eq!(a, combined);
    }

    #[test]
    fn cumulative_buckets_are_monotone_and_end_at_count() {
        let mut h = Histogram::new();
        for v in 0..200 {
            h.observe(v * 37);
        }
        let buckets = h.cumulative_buckets();
        assert!(buckets.windows(2).all(|w| w[0].1 <= w[1].1));
        assert_eq!(buckets.last().unwrap(), &("+Inf".to_string(), 200));
    }
}
