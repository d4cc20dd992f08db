//! Median, exact quantiles, spreads and the regression-bound rule.
//!
//! Everything the harness reports is a median of repetitions, and every
//! latency quantile is exact (nearest rank over sorted samples) — the
//! log-bucket histograms of `drtm-base` are only read where the engine
//! itself keeps them (the registry's virtual commit latency).

use crate::metrics::Better;

/// Median of `values` (mean of the two middle ones for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Smallest and largest of `values`.
pub fn min_max(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        })
}

/// Nearest-rank quantile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it. 0 for no samples.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// (max − min) / |median|: the spread `compare` holds against a bound.
pub fn range_share(values: &[f64]) -> f64 {
    let (lo, hi) = min_max(values);
    let m = median(values).abs();
    if m == 0.0 {
        if hi > lo {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        (hi - lo) / m
    }
}

/// Distance between the first and third quartile as a share of the
/// median, quartiles as Python's `statistics.quantiles(v, n=4)` gives
/// them (the exclusive method). This is the figure the acceptance
/// procedure computes over ten seeds.
pub fn iqr_share(values: &[f64]) -> f64 {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        // Position k(n+1)/4 on a 1-based axis, clamped to the samples.
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(3) - at(1)) / median(&v).abs()
}

/// How much worse `new` is than `base`, in `base`'s own units and as a
/// positive number when worse (negative when better).
pub fn worse_by(base: f64, new: f64, better: Better) -> f64 {
    match better {
        Better::Higher => base - new,
        Better::Lower => new - base,
    }
}

/// The allowance a metric's bound grants around `base`: the relative
/// share of |base| or the absolute floor, whichever is larger.
pub fn allowance(base: f64, rel: f64, abs_floor: f64) -> f64 {
    (base.abs() * rel).max(abs_floor)
}

/// Outcome of holding one metric of one workload against its bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The new median is no worse than the base by more than the bound.
    Ok,
    /// The new median is worse than the base by more than the bound.
    Worse,
    /// Either side's own repetitions spread wider than the bound, so
    /// the medians cannot be told apart at that resolution.
    Unresolved,
}

impl Verdict {
    /// The word `compare` prints.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Applies the bound rule to two sets of repetitions of one metric.
pub fn verdict(base: &[f64], new: &[f64], better: Better, rel: f64, abs_floor: f64) -> Verdict {
    let b = median(base);
    let allow = allowance(b, rel, abs_floor);
    let spread = |v: &[f64]| {
        let (lo, hi) = min_max(v);
        hi - lo
    };
    if spread(base) > allow || spread(new) > allow {
        Verdict::Unresolved
    } else if worse_by(b, median(new), better) > allow {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// The arithmetic checks `perf selftest` and `cargo test` both run.
pub fn selftest() -> Result<(), String> {
    let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
    let ensure = |ok: bool, what: &str| if ok { Ok(()) } else { Err(what.to_string()) };

    ensure(close(median(&[3.0, 1.0, 2.0]), 2.0), "median of three")?;
    ensure(close(median(&[4.0, 1.0, 2.0, 3.0]), 2.5), "median of four")?;
    ensure(min_max(&[2.0, -1.0, 5.0]) == (-1.0, 5.0), "min_max")?;

    let s: Vec<u64> = (1..=100).collect();
    ensure(quantile_sorted(&s, 0.5) == 50, "p50 of 1..=100")?;
    ensure(quantile_sorted(&s, 0.99) == 99, "p99 of 1..=100")?;
    ensure(quantile_sorted(&s, 1.0) == 100, "p100 of 1..=100")?;
    ensure(quantile_sorted(&s, 0.0) == 1, "p0 of 1..=100")?;
    ensure(quantile_sorted(&[], 0.5) == 0, "quantile of nothing")?;
    ensure(quantile_sorted(&[7], 0.999) == 7, "quantile of one")?;

    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25],
    // so the quartiles are exactly one median apart.
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    ensure(close(iqr_share(&ten), 1.0), "iqr of 1..=10")?;
    // statistics.quantiles([1, 2, 4, 8, 16, 32, 64], n=4) == [2, 8, 32].
    let doubling: Vec<f64> = (0..7).map(|i| f64::from(1 << i)).collect();
    ensure(close(iqr_share(&doubling), 30.0 / 8.0), "iqr of 1,2,..,64")?;
    ensure(close(range_share(&[9.0, 10.0, 11.0]), 0.2), "range share")?;

    ensure(
        close(worse_by(100.0, 90.0, Better::Higher), 10.0),
        "higher worse",
    )?;
    ensure(
        close(worse_by(100.0, 90.0, Better::Lower), -10.0),
        "lower better",
    )?;
    ensure(
        close(allowance(0.1, 0.2, 0.05), 0.05),
        "absolute floor wins",
    )?;
    ensure(
        close(allowance(10.0, 0.2, 0.05), 2.0),
        "relative share wins",
    )?;

    let base = [100.0, 101.0, 99.0];
    let v = |new: &[f64], better| verdict(&base, new, better, 0.05, 0.0);
    ensure(
        v(&[96.0, 97.0, 98.0], Better::Higher) == Verdict::Ok,
        "3% down is ok at 5%",
    )?;
    ensure(
        v(&[93.0, 94.0, 92.0], Better::Higher) == Verdict::Worse,
        "7% down is worse",
    )?;
    ensure(
        v(&[93.0, 94.0, 92.0], Better::Lower) == Verdict::Ok,
        "7% down is fine if lower is better",
    )?;
    ensure(
        v(&[90.0, 100.0, 110.0], Better::Higher) == Verdict::Unresolved,
        "20% spread is unresolved",
    )?;
    // failed_share: +0.001 absolute, whatever the base.
    ensure(
        verdict(&[0.0; 3], &[0.0005; 3], Better::Lower, 0.0, 0.001) == Verdict::Ok,
        "half the absolute allowance is ok",
    )?;
    ensure(
        verdict(&[0.0; 3], &[0.002; 3], Better::Lower, 0.0, 0.001) == Verdict::Worse,
        "twice the absolute allowance is worse",
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn arithmetic() {
        super::selftest().unwrap();
    }
}
