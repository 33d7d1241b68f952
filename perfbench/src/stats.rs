//! Order statistics over timing samples.

/// The `p`-th percentile (`0.0..=100.0`) of `samples`, interpolating
/// linearly between the two nearest ranks (NumPy's default method).
/// Returns 0 for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p.clamp(0.0, 100.0) / 100.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `samples` (0 for an empty slice).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// `num / den`, or 0 when `den` is 0 (a layer the workload never used).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 10.0);
        assert!((percentile(&xs, 90.0) - 9.1).abs() < 1e-12);
        assert!((percentile(&xs, 25.0) - 3.25).abs() < 1e-12);
        // Input order does not matter.
        let rev: Vec<f64> = xs.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 90.0), percentile(&xs, 90.0));
    }

    #[test]
    fn ratio_of_an_unused_layer_is_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(6.0, 3.0), 2.0);
    }
}
