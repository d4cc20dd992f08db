//! Concurrent counters and latency histograms for experiment reporting.

use std::sync::atomic::{AtomicU64, Ordering};

/// A cache-friendly concurrent counter.
///
/// Contention is acceptable here: counters are bumped once or twice per
/// transaction, never inside hot protocol loops.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero, returning the previous value.
    pub fn take(&self) -> u64 {
        self.0.swap(0, Ordering::Relaxed)
    }
}

/// Number of buckets in [`Histogram`]: power-of-two nanosecond buckets
/// from 1 ns up to ~1.2 hours.
const BUCKETS: usize = 42;

/// A lock-free log-scale histogram of nanosecond values.
///
/// Bucket `i` holds values `v` with `floor(log2(v)) == i` (bucket 0 also
/// holds zero). Quantiles are interpolated within a bucket, which is
/// accurate enough for the latency tables the paper reports (Table 6
/// quotes latencies to three significant digits at best).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    #[inline]
    fn bucket_of(v: u64) -> usize {
        (63 - v.max(1).leading_zeros() as usize).min(BUCKETS - 1)
    }

    /// Records one value.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Folds `other`'s recorded data into `self`.
    ///
    /// Because the histogram is bucketized, merging per-shard histograms
    /// and then asking for a quantile yields *exactly* the same answer as
    /// recording every value into one histogram — the property the
    /// sharded metrics registry relies on when it aggregates per-worker
    /// shards at scrape time.
    pub fn merge(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let c = theirs.load(Ordering::Relaxed);
            if c != 0 {
                mine.fetch_add(c, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Upper edge of the highest non-empty bucket (an upper bound on the
    /// largest recorded value), or 0 if empty.
    pub fn max(&self) -> u64 {
        for (i, b) in self.buckets.iter().enumerate().rev() {
            if b.load(Ordering::Relaxed) != 0 {
                return if i + 1 >= 64 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
            }
        }
        0
    }

    /// Mean of recorded values, or 0 if empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        self.sum.load(Ordering::Relaxed) as f64 / n as f64
    }

    /// Approximate `q`-quantile (`0.0 ..= 1.0`) by within-bucket linear
    /// interpolation, or 0 if empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * n as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if seen + c >= target {
                let lo = 1u64 << i;
                let hi = lo << 1;
                let frac = (target - seen) as f64 / c as f64;
                return lo + ((hi - lo) as f64 * frac) as u64;
            }
            seen += c;
        }
        u64::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(c.take(), 5);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn histogram_mean_and_count() {
        let h = Histogram::new();
        for v in [100, 200, 300] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        assert!((h.mean() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_quantiles_are_monotone_and_bracketing() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!(p50 <= p99);
        // Log-bucket interpolation: p50 of 1..=1000 lies in [256, 1024).
        assert!((256..1024).contains(&p50), "p50 = {p50}");
        assert!((512..1024).contains(&p99), "p99 = {p99}");
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn merged_quantiles_equal_single_histogram_quantiles() {
        // Property test: for many random splits of a random value stream
        // across k shards, every quantile of the merged histogram equals
        // the quantile of one histogram that saw all values. Exact
        // equality is required (not approximate): merging only adds
        // bucket counts, so the bucket contents are identical.
        let mut rng = crate::SplitMix64::new(0xD157);
        for trial in 0..50 {
            let k = 1 + (trial % 7) as usize;
            let n = 1 + (rng.below(2_000)) as usize;
            let shards: Vec<Histogram> = (0..k).map(|_| Histogram::new()).collect();
            let reference = Histogram::new();
            for _ in 0..n {
                // Mix of magnitudes so many buckets are exercised.
                let magnitude = 1 + rng.below(40) as u32;
                let v = rng.below(1 << magnitude);
                shards[rng.below(k as u64) as usize].record(v);
                reference.record(v);
            }
            let merged = Histogram::new();
            for s in &shards {
                merged.merge(s);
            }
            assert_eq!(merged.count(), reference.count());
            assert_eq!(merged.sum(), reference.sum());
            assert_eq!(merged.max(), reference.max());
            for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
                assert_eq!(
                    merged.quantile(q),
                    reference.quantile(q),
                    "trial {trial}: q={q} diverged after merge"
                );
            }
        }
    }

    #[test]
    fn sum_and_max_accessors() {
        let h = Histogram::new();
        assert_eq!(h.sum(), 0);
        assert_eq!(h.max(), 0);
        h.record(100);
        h.record(300);
        assert_eq!(h.sum(), 400);
        // Max is an upper bound from the bucket edge: 300 lands in
        // bucket [256, 512).
        assert!(h.max() >= 300 && h.max() < 512, "max = {}", h.max());
    }

    #[test]
    fn merge_into_empty_is_identity() {
        let a = Histogram::new();
        for v in [1u64, 7, 1000, 1 << 30] {
            a.record(v);
        }
        let b = Histogram::new();
        b.merge(&a);
        assert_eq!(b.count(), a.count());
        assert_eq!(b.sum(), a.sum());
        for q in [0.1, 0.5, 0.99] {
            assert_eq!(b.quantile(q), a.quantile(q));
        }
    }

    #[test]
    fn bucket_of_zero_is_bucket_zero() {
        let h = Histogram::new();
        h.record(0);
        assert_eq!(h.count(), 1);
        assert!(h.quantile(1.0) <= 2);
    }
}
