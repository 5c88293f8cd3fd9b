//! The harness's own statistics: median, quartiles, the tail
//! percentile rule, and the spread figure the steadiness report uses.
//!
//! Quartiles follow Python's `statistics.quantiles(data, n=4)` (its
//! default "exclusive" method) exactly, so a spread computed here and
//! one computed by a script over the same numbers agree to the bit.

/// Sorted copy of `xs` (NaN-free input assumed; NaNs sort last).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median, as Python's `statistics.median`: the middle value, or
/// the mean of the two middle values. `None` for no samples.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The three quartile cut points, as Python's
/// `statistics.quantiles(xs, n=4)` with the default exclusive method.
/// `None` for fewer than two samples (Python raises there).
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let n = 4usize;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / n).clamp(1, ld - 1);
        // Exact integer offset of the cut past sample j, in quarters.
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    Some(out)
}

/// Interquartile range as a share of the median: the spread figure a
/// metric's bound is compared against.
pub fn iqr_share(xs: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(xs)?;
    let med = median(xs)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `p`-th percentile (`0 < p < 1`), reported only
/// when at least [`MIN_BEYOND`] samples lie strictly beyond its rank —
/// a tail figure resting on fewer samples is mostly one unlucky tick.
/// For `p = 0.9` that needs 100 samples.
pub fn tail_percentile(xs: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 1.0, "percentile must lie in (0, 1), got {p}");
    let v = sorted(xs);
    let n = v.len();
    let rank = (p * n as f64).ceil() as usize;
    (rank >= 1 && n - rank >= MIN_BEYOND).then(|| v[rank - 1])
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([5, 1, 9, 3, 7], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(quartiles(&[5.0, 1.0, 9.0, 3.0, 7.0]), Some([2.0, 5.0, 8.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn iqr_share_is_spread_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = iqr_share(&xs).unwrap();
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // A constant series has no spread.
        assert_eq!(iqr_share(&[2.0; 10]), Some(0.0));
        assert_eq!(iqr_share(&[0.0; 4]), None);
    }

    #[test]
    fn p90_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // Rank 90 of 100: exactly ten samples (91..=100) lie beyond.
        assert_eq!(tail_percentile(&xs, 0.9), Some(90.0));
        // 99 samples leave only nine beyond rank 90: not reported.
        assert_eq!(tail_percentile(&xs[..99], 0.9), None);
        // The median of 20 samples has ten beyond it.
        assert_eq!(tail_percentile(&xs[..20], 0.5), Some(10.0));
        assert_eq!(tail_percentile(&[], 0.5), None);
    }

    #[test]
    fn tail_percentile_ignores_input_order() {
        let mut xs: Vec<f64> = (1..=200).map(f64::from).collect();
        xs.reverse();
        assert_eq!(tail_percentile(&xs, 0.9), Some(180.0));
    }

    #[test]
    fn mean_of_nothing_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
