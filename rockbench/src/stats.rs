//! Order statistics for timings and for the repeat tool.

/// The median of `values` (mean of the two middle values for an even
/// count), or `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The nearest-rank `p`-th percentile of `values`.
///
/// Refuses (returns `None`) when fewer than ten samples lie beyond the
/// chosen rank: a tail percentile read off fewer samples says nothing
/// about the tail.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if !(0.0..=100.0).contains(&p) || values.is_empty() {
        return None;
    }
    let sorted = sorted(values);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n - rank < 10 {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The three quartiles of `values` by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// or `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let m = ld as i64 + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1..4i64).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        // Negative when the clamp moved j up: extrapolates below data[0].
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *q = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 89.5), Some(90.0));
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), Some(990.0));
    }

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 leaves exactly ten samples beyond it; p91 leaves nine.
        assert!(percentile(&v, 90.0).is_some());
        assert_eq!(percentile(&v, 91.0), None);
        assert_eq!(percentile(&v, 99.0), None);
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), None);
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[1.0; 40], 101.0), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some([1.0, 3.0, 5.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
