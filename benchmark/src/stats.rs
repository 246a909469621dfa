//! Order statistics over rounds and latency samples.

/// Linear-interpolated quantile of an ascending slice (`q` in `[0, 1]`),
/// the "inclusive" method: `q = 0.5` of an odd-length slice is its
/// middle element.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median and inter-quartile range (Q3 − Q1) of per-round values.
pub fn median_iqr(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    (
        quantile_sorted(&v, 0.5),
        quantile_sorted(&v, 0.75) - quantile_sorted(&v, 0.25),
    )
}

/// Index of the nearest-rank `q`-quantile in an ascending sample of `n`.
pub fn rank_index(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Samples strictly beyond the nearest-rank `q`-quantile of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank_index(n, q)
    }
}

/// A percentile is reported only when at least this many samples lie
/// beyond it (choosing-metrics §1); the run adds rounds until p99 has them.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Nearest-rank quantile of an ascending latency sample.
pub fn percentile_sorted(sorted: &[u64], q: f64) -> u64 {
    sorted[rank_index(sorted.len(), q)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_iqr_over_rounds() {
        assert_eq!(median_iqr(&[3.0, 1.0, 2.0]), (2.0, 1.0));
        assert_eq!(median_iqr(&[5.0, 1.0, 4.0, 2.0, 3.0]), (3.0, 2.0));
        let (m, iqr) = median_iqr(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m, 2.5);
        assert!((iqr - 1.5).abs() < 1e-12);
        assert_eq!(median_iqr(&[7.0]), (7.0, 0.0));
    }

    #[test]
    fn p99_needs_a_thousand_samples_for_ten_beyond() {
        assert!(samples_beyond(999, 0.99) < MIN_TAIL_SAMPLES);
        assert!(samples_beyond(1100, 0.99) >= MIN_TAIL_SAMPLES);
        assert_eq!(samples_beyond(1465, 0.99), 14);
        assert_eq!(samples_beyond(0, 0.99), 0);
        // The chosen rank really leaves that many larger samples.
        let sorted: Vec<u64> = (0..1465).collect();
        let p99 = percentile_sorted(&sorted, 0.99);
        assert_eq!(sorted.iter().filter(|&&v| v > p99).count(), 14);
        assert_eq!(percentile_sorted(&sorted, 0.5), 732);
    }
}
