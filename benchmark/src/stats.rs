//! Order statistics over the repetitions of one run.

/// Quantile `q` in `[0, 1]` of `values` with linear interpolation
/// between closest ranks. Empty input gives NaN.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The fastest repetition. Interference on a shared box only ever adds
/// time, so the minimum is the repetition least disturbed by it.
pub fn best(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NAN, f64::min)
}

/// `(max − min) / median` of the repetitions, in percent: how much the
/// in-run repetitions disagree (a noise diagnostic, never gated).
pub fn spread_pct(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 2 || !m.is_finite() || m == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::NAN, f64::max);
    (max - best(values)) / m * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.25), 1.75);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn best_is_the_minimum_and_ignores_order() {
        assert_eq!(best(&[3.0, 1.5, 2.0]), 1.5);
        assert!(best(&[]).is_nan());
    }

    #[test]
    fn spread_is_range_over_median() {
        assert_eq!(spread_pct(&[10.0, 10.0, 10.0]), 0.0);
        assert_eq!(spread_pct(&[9.0, 10.0, 12.0]), 30.0);
        assert_eq!(spread_pct(&[5.0]), 0.0);
    }
}
