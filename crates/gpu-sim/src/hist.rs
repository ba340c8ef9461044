//! Fixed-size log-bucketed latency histograms.
//!
//! The live-introspection layer records every per-window, per-stage,
//! per-kernel, and per-queue-wait duration into a [`Histogram`]: 40
//! power-of-two buckets spanning 1 ns to ~550 s. Recording is two array
//! index operations and a handful of float adds — no allocation, no
//! branching on the observation count — so the hot paths proven
//! allocation-free by `tests/alloc_steady_state.rs` can record freely.
//!
//! Quantile estimates come back as the upper bound of the bucket holding
//! the rank-p observation, clamped to the observed maximum, which bounds
//! the estimate to `[q, 2q]` of the true quantile for any observation
//! ≥ 1 ns (the bucket base). Merging is bucket-wise addition, so lane-
//! and device-local histograms fold together associatively and
//! commutatively — the property the merge proptests pin.

/// Number of log₂ buckets. Bucket `i` counts observations in
/// `(BASE_SECONDS * 2^(i-1), BASE_SECONDS * 2^i]`; bucket 0 also absorbs
/// everything at or below the base. Observations above the last bound
/// land only in the implicit `+Inf` bucket (count/sum/max still track
/// them).
pub const NUM_BUCKETS: usize = 40;

/// Upper bound of bucket 0, seconds (1 ns).
pub const BASE_SECONDS: f64 = 1e-9;

/// Upper bound of bucket `i`, seconds.
#[inline]
pub fn bucket_upper(i: usize) -> f64 {
    BASE_SECONDS * (1u64 << i) as f64
}

/// A fixed-size log-bucketed histogram of durations in seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    buckets: [u64; NUM_BUCKETS],
    count: u64,
    sum: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; NUM_BUCKETS],
            count: 0,
            sum: 0.0,
            max: 0.0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index for a finite observation `v > 0`.
    #[inline]
    fn index(v: f64) -> usize {
        if v <= BASE_SECONDS {
            return 0;
        }
        // log2 gets within a bucket of the right answer; the fixups make
        // the invariant `upper(i-1) < v <= upper(i)` exact at boundaries.
        let mut i = (v / BASE_SECONDS).log2().ceil().clamp(0.0, 63.0) as usize;
        while i > 0 && v <= bucket_upper(i - 1) {
            i -= 1;
        }
        while i < NUM_BUCKETS && v > bucket_upper(i) {
            i += 1;
        }
        i
    }

    /// Record one observation (seconds). Negative and non-finite values
    /// are ignored; zero lands in bucket 0.
    #[inline]
    pub fn record(&mut self, v: f64) {
        self.record_n(v, 1);
    }

    /// Record `n` observations of the same value — the per-window path
    /// records one batch's evenly-sliced window durations in O(1).
    #[inline]
    pub fn record_n(&mut self, v: f64, n: u64) {
        if !v.is_finite() || v < 0.0 || n == 0 {
            return;
        }
        let i = Self::index(v);
        if i < NUM_BUCKETS {
            self.buckets[i] += n;
        }
        self.count += n;
        self.sum += v * n as f64;
        self.max = self.max.max(v);
    }

    /// Fold `other` into `self` (bucket-wise addition; associative and
    /// commutative, so per-lane histograms merge in any order).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += *b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations, seconds.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Largest observation, seconds (0 when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Mean observation, seconds (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The estimated `p`-quantile (`0 < p <= 1`), seconds: the upper
    /// bound of the bucket holding the rank-⌈p·count⌉ observation,
    /// clamped to the observed maximum. Within `[q, 2q]` of the true
    /// quantile `q` for observations above the 1 ns bucket base. Returns
    /// 0 for an empty histogram.
    pub fn quantile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cumulative += c;
            if cumulative >= target {
                return bucket_upper(i).min(self.max);
            }
        }
        // Rank falls in the +Inf overflow region.
        self.max
    }

    /// Cumulative `(upper_bound, count ≤ upper_bound)` pairs for the
    /// buckets where the cumulative count changes — the minimal classic
    /// Prometheus bucket set (the renderer adds `+Inf`).
    pub fn cumulative_buckets(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        let mut cumulative = 0u64;
        self.buckets.iter().enumerate().filter_map(move |(i, &c)| {
            if c == 0 {
                return None;
            }
            cumulative += c;
            Some((bucket_upper(i), cumulative))
        })
    }

    /// `p50/p95/p99/max/count` digest line, the rendering shared by
    /// `gsnp profile`, the run journal, and `gsnp report`.
    pub fn digest(&self) -> HistogramDigest {
        HistogramDigest {
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            max: self.max,
            count: self.count,
            sum: self.sum,
        }
    }
}

/// Fixed-quantile summary of one [`Histogram`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HistogramDigest {
    /// Median estimate, seconds.
    pub p50: f64,
    /// 95th-percentile estimate, seconds.
    pub p95: f64,
    /// 99th-percentile estimate, seconds.
    pub p99: f64,
    /// Largest observation, seconds.
    pub max: f64,
    /// Observations recorded.
    pub count: u64,
    /// Sum of observations, seconds.
    pub sum: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundaries_are_exact() {
        let mut h = Histogram::new();
        // Exactly on a bucket bound lands in that bucket, one ulp above
        // lands in the next.
        h.record(bucket_upper(10));
        assert_eq!(h.buckets[10], 1);
        h.record(bucket_upper(10) * 1.0000001);
        assert_eq!(h.buckets[11], 1);
        h.record(0.0);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn overflow_and_garbage_observations() {
        let mut h = Histogram::new();
        h.record(1e6); // beyond the last bucket: +Inf region only
        assert_eq!(h.buckets.iter().sum::<u64>(), 0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 1e6);
        assert_eq!(h.quantile(0.5), 1e6);
        h.record(f64::NAN);
        h.record(-1.0);
        h.record(f64::INFINITY);
        assert_eq!(h.count(), 1, "non-finite and negative values ignored");
    }

    #[test]
    fn quantiles_bound_the_true_value() {
        let mut h = Histogram::new();
        let values: Vec<f64> = (1..=1000).map(|i| i as f64 * 1e-4).collect();
        for &v in &values {
            h.record(v);
        }
        for p in [0.5f64, 0.95, 0.99, 1.0] {
            let rank = ((p * 1000.0).ceil() as usize).clamp(1, 1000);
            let truth = values[rank - 1];
            let est = h.quantile(p);
            assert!(est >= truth, "p{p}: {est} < true {truth}");
            assert!(est <= truth * 2.0, "p{p}: {est} > 2x true {truth}");
        }
    }

    #[test]
    fn merge_equals_sequential_recording() {
        let (mut a, mut b, mut all) = (Histogram::new(), Histogram::new(), Histogram::new());
        for i in 0..500u64 {
            let v = (i as f64 + 1.0) * 3.7e-6;
            if i % 2 == 0 { &mut a } else { &mut b }.record(v);
            all.record(v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.buckets, all.buckets);
        assert_eq!(merged.count(), all.count());
        assert_eq!(merged.max(), all.max());
        // Sums differ only by float addition order.
        assert!((merged.sum() - all.sum()).abs() < 1e-9);
        let mut flipped = b.clone();
        flipped.merge(&a);
        assert_eq!(flipped.buckets, merged.buckets, "merge must commute");
        assert_eq!(flipped.sum(), merged.sum());
    }
}
