//! Order statistics over measured samples.

/// The nearest-rank `q`-quantile of `samples` (`0 < q ≤ 1`): the smallest
/// sample with at least `⌈q·n⌉` samples at or below it. Returns `None` for
/// an empty slice or a `q` outside `(0, 1]`.
///
/// Nearest rank never interpolates, so a reported p90 is always a latency
/// that some trial actually had; with `n` samples, `n − ⌈q·n⌉` samples lie
/// beyond it.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() || !(q > 0.0 && q <= 1.0) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// How many samples lie strictly beyond the nearest-rank `q`-quantile
/// position of `n` samples: the sample count a tail percentile rests on.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// The median (nearest rank, lower middle for even counts).
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// The arithmetic mean, or 0 for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_hand_computed_ranks() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), Some(50.0));
        assert_eq!(quantile(&xs, 0.9), Some(90.0));
        assert_eq!(quantile(&xs, 0.99), Some(99.0));
        assert_eq!(quantile(&xs, 1.0), Some(100.0));
        assert_eq!(quantile(&xs, 0.001), Some(1.0));
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(1000, 0.99), 10);
    }

    #[test]
    fn order_of_input_does_not_matter() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&xs), Some(3.0));
        assert_eq!(quantile(&xs, 0.8), Some(4.0));
        assert_eq!(quantile(&xs, 0.81), Some(5.0));
        // even count: the lower middle sample
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
    }

    #[test]
    fn degenerate_inputs_are_refused_not_guessed() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[1.0], 0.0), None);
        assert_eq!(quantile(&[1.0], 1.5), None);
        assert_eq!(quantile(&[1.0], f64::NAN), None);
        assert_eq!(quantile(&[7.0], 0.99), Some(7.0));
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(beyond(0, 0.9), 0);
    }
}
