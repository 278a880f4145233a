//! Order statistics the benchmark reports: median, quartiles, relative
//! spread and the tail percentile rule.

/// Ascending copy of `xs` (NaN-free input assumed).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs`; `0.0` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First, second and third quartile, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method).
/// Fewer than two samples have no spread: every quartile is the sample.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let v = sorted(xs);
    match v.len() {
        0 => return (0.0, 0.0, 0.0),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let m = v.len() + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Inter-quartile distance as a share of the median; `0.0` when the
/// median is zero.
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, _, q3) = quartiles(xs);
    let mid = median(xs);
    if mid == 0.0 {
        0.0
    } else {
        (q3 - q1) / mid
    }
}

/// The tail latency: the highest percentile that still has at least ten
/// samples beyond it. Returns `(percentile, value)`. With `n` samples the
/// value is the `(n - 10)`-th smallest, and the percentile is the share of
/// samples at or below it, rounded down. Below twenty samples that
/// percentile would fall under the median, so the median is returned,
/// labelled 50.
pub fn tail(xs: &[f64]) -> (u32, f64) {
    let n = xs.len();
    if n < 20 {
        return (50, median(xs));
    }
    let v = sorted(xs);
    let rank = n - 10;
    ((100 * rank / n) as u32, v[rank - 1])
}

/// Geometric mean of positive values; `0.0` when any value is not
/// positive or the slice is empty.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0 || !x.is_finite()) {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Arithmetic mean; `0.0` for an empty slice.
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
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&xs) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), (90, 90.0));
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&xs), (50, 10.0));
        let xs: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(tail(&xs), (66, 20.0));
        // Too few samples for a tail above the median: the median, as p50.
        let xs: Vec<f64> = (1..=13).map(f64::from).collect();
        assert_eq!(tail(&xs), (50, 7.0));
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (50, 2.0));
        // Exactly ten samples lie above the reported value.
        let xs: Vec<f64> = (1..=37).map(f64::from).collect();
        let (_, v) = tail(&xs);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(geomean(&[1.0, 0.0]), 0.0);
    }
}
