//! Order statistics over measured samples.

/// Median of `values` (mean of the two middle samples for an even
/// count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = sorted(values);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        let hi = sorted.swap_remove(n / 2);
        (sorted[n / 2 - 1] + hi) / 2.0
    })
}

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The tail of `values`: the highest percentile that still has
/// [`TAIL_BEYOND`] samples beyond it, i.e. the order statistic with ten
/// larger samples. Returns `(value, percentile, sample count)`; with
/// fewer than eleven samples the maximum stands in (percentile 100).
pub fn tail(values: &[f64]) -> Option<(f64, f64, usize)> {
    let sorted = sorted(values);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    if n <= TAIL_BEYOND {
        return Some((sorted[n - 1], 100.0, n));
    }
    let rank = n - TAIL_BEYOND - 1;
    Some((sorted[rank], 100.0 * (rank + 1) as f64 / n as f64, n))
}

/// Samples per group of [`grouped_tail`].
pub const TAIL_GROUP: usize = 100;

/// A tail that one burst of outside load cannot move: [`tail`] of each
/// consecutive group of [`TAIL_GROUP`] samples (in time order), and the
/// median over the groups. With fewer than two whole groups it is the
/// plain [`tail`]. Returns `(value, percentile, samples per group,
/// groups)`.
pub fn grouped_tail(values: &[f64]) -> Option<(f64, f64, usize, usize)> {
    if values.len() < 2 * TAIL_GROUP {
        return tail(values).map(|(value, pct, n)| (value, pct, n, 1));
    }
    let tails: Vec<(f64, f64, usize)> = values.chunks_exact(TAIL_GROUP).filter_map(tail).collect();
    let (_, pct, n) = tails[0];
    let value = median(&tails.iter().map(|t| t.0).collect::<Vec<_>>())?;
    Some((value, pct, n, tails.len()))
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
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, pct, n) = tail(&values).unwrap();
        assert_eq!(n, 100);
        assert_eq!(value, 90.0);
        assert_eq!(values.iter().filter(|v| **v > value).count(), TAIL_BEYOND);
        assert!((pct - 90.0).abs() < 1e-9);
        assert_eq!(tail(&[5.0, 7.0]), Some((7.0, 100.0, 2)));
    }

    #[test]
    fn grouped_tail_ignores_one_slow_group() {
        let mut values: Vec<f64> = (0..5 * TAIL_GROUP).map(|i| (i % TAIL_GROUP) as f64).collect();
        for v in &mut values[..TAIL_GROUP] {
            *v += 1000.0;
        }
        let (value, pct, n, groups) = grouped_tail(&values).unwrap();
        assert_eq!((value, n, groups), (89.0, TAIL_GROUP, 5));
        assert!((pct - 90.0).abs() < 1e-9);
        assert_eq!(grouped_tail(&values[..150]).map(|t| t.3), Some(1));
    }
}
