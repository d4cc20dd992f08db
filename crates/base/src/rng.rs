//! Deterministic pseudo-random number generation for reproducible
//! experiments.
//!
//! Workload generators must be reproducible across runs (the paper
//! averages five runs; we fix seeds instead and document variance), so
//! everything that needs randomness takes a [`SplitMix64`] seeded from the
//! experiment configuration rather than from the OS.

/// SplitMix64's increment: each draw adds it to the state.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 generator: tiny, fast, and statistically good enough
/// for workload generation and backoff jitter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        Self {
            state: seed.wrapping_add(GAMMA),
        }
    }

    /// Advances the stream past `n` draws without making them: the
    /// state is a counter, and `n` draws add `n` increments to it.
    #[inline]
    pub fn skip(&mut self, n: u64) {
        self.state = self.state.wrapping_add(n.wrapping_mul(GAMMA));
    }

    /// Returns the next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `[0, bound)`. `bound` must be non-zero.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Lemire's multiply-shift; bias is negligible for our bounds.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        lo + self.below(hi - lo + 1)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn skip_lands_where_the_draws_do() {
        let mut drawn = SplitMix64::new(5);
        let mut skipped = drawn.clone();
        for _ in 0..1000 {
            drawn.below(63);
        }
        skipped.skip(1000);
        assert_eq!(skipped, drawn);
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SplitMix64::new(7);
        for _ in 0..10_000 {
            assert!(r.below(10) < 10);
        }
    }

    #[test]
    fn range_inclusive() {
        let mut r = SplitMix64::new(7);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..10_000 {
            let v = r.range(3, 5);
            assert!((3..=5).contains(&v));
            seen_lo |= v == 3;
            seen_hi |= v == 5;
        }
        assert!(seen_lo && seen_hi);
    }

    #[test]
    fn chance_extremes() {
        let mut r = SplitMix64::new(9);
        for _ in 0..1000 {
            assert!(!r.chance(0.0));
            assert!(r.chance(1.0));
        }
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut r = SplitMix64::new(11);
        let hits = (0..100_000).filter(|_| r.chance(0.25)).count();
        assert!((23_000..27_000).contains(&hits), "got {hits}");
    }
}
