//! Order statistics: nearest-rank percentiles and medians.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the value at rank
/// `ceil(q · n)` (1-based), so at least a share `q` of the sample is at
/// or below it. `None` for an empty slice.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// How many samples of `n` lie strictly beyond the nearest-rank `q`
/// percentile's position.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// The nearest-rank percentile, but only when at least [`MIN_BEYOND`]
/// samples lie beyond it; otherwise an error naming the shortfall.
pub fn supported(sorted: &[f64], q: f64) -> Result<f64, String> {
    let n = sorted.len();
    if n == 0 || beyond(n, q) < MIN_BEYOND {
        return Err(format!(
            "p{} needs {MIN_BEYOND} samples beyond it, {n} samples give {}",
            q * 100.0,
            if n == 0 { 0 } else { beyond(n, q) }
        ));
    }
    Ok(nearest_rank(sorted, q).expect("non-empty"))
}

/// Median (nearest-rank p50) of an unsorted sample; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    nearest_rank(&v, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), Some(50.0));
        assert_eq!(nearest_rank(&v, 0.99), Some(99.0));
        assert_eq!(nearest_rank(&v, 1.0), Some(100.0));
        assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&[7.0], 0.99), Some(7.0));
        assert_eq!(nearest_rank(&[1.0, 2.0, 3.0], 0.5), Some(2.0));
        assert_eq!(nearest_rank(&[1.0, 2.0, 3.0, 4.0], 0.5), Some(2.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(supported(&v, 0.99), Ok(990.0));
        assert!(supported(&v[..999], 0.99).is_err());
        assert_eq!(supported(&v[..20], 0.5), Ok(10.0));
        assert!(supported(&v[..19], 0.5).is_err());
        assert!(supported(&[], 0.5).is_err());
    }

    #[test]
    fn median_sorts_first() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }
}
