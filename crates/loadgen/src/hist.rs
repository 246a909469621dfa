//! A log-bucketed latency histogram with integer-only bucket math.
//!
//! [`Histogram`] records `u64` samples (the load driver feeds it
//! nanoseconds) into HDR-style buckets: exact below 64, then 64
//! sub-buckets per power of two, so relative bucket width is bounded by
//! 1/64 ≈ 1.6% across the full `u64` range. All bucketing and quantile
//! selection is integer arithmetic — no float is involved between
//! `record` and the returned quantile value, so two machines recording
//! the same samples report byte-identical percentiles and merged
//! histograms are exactly the histogram of the concatenated streams.
//!
//! Quantiles are selected in parts-per-million ([`Histogram::p50`] …
//! [`Histogram::p999`]); the returned value is the midpoint of
//! the bucket holding the rank-`⌈total·q⌉` sample, so it deviates from
//! the true order statistic by at most one bucket width (asserted by the
//! sorted-vector oracle property test below).

/// Sub-bucket resolution: 2^6 = 64 sub-buckets per power of two.
const SUB_BITS: u32 = 6;
/// Sub-buckets per octave.
const SUB: usize = 1 << SUB_BITS;
/// Total bucket count covering all of `u64`:
/// 64 exact unit buckets + 58 octaves (msb 6..=63) × 64 sub-buckets.
const N_BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// Bucket index of a value (pure integer math).
fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros(); // >= SUB_BITS
        let shift = msb - SUB_BITS;
        // v >> shift is in [SUB, 2*SUB).
        let sub = ((v >> shift) - SUB as u64) as usize;
        SUB + shift as usize * SUB + sub
    }
}

/// Lowest value mapping to bucket `i`.
fn bucket_low(i: usize) -> u64 {
    if i < SUB {
        i as u64
    } else {
        let shift = (i - SUB) / SUB;
        let sub = (i - SUB) % SUB;
        ((SUB + sub) as u64) << shift
    }
}

/// Number of distinct values mapping to bucket `i`.
fn bucket_width(i: usize) -> u64 {
    if i < SUB {
        1
    } else {
        1u64 << ((i - SUB) / SUB)
    }
}

/// Mergeable log-bucketed histogram of `u64` samples (see module docs).
#[derive(Clone)]
pub struct Histogram {
    counts: Box<[u64]>,
    total: u64,
    min: u64,
    max: u64,
    sum: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.total)
            .field("min", &self.min())
            .field("p50", &self.p50())
            .field("p99", &self.p99())
            .field("max", &self.max())
            .finish()
    }
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0u64; N_BUCKETS].into_boxed_slice(),
            total: 0,
            min: u64::MAX,
            max: 0,
            sum: 0,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.total += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.sum += v as u128;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Has anything been recorded?
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Smallest recorded sample (exact; 0 when empty).
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (exact; 0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Sum of all samples (exact).
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Arithmetic mean as a float (for display only — the underlying
    /// counters stay integral).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Fold another histogram into this one. The result is exactly the
    /// histogram of the concatenated sample streams.
    pub fn merge(&mut self, other: &Histogram) {
        for (c, o) in self.counts.iter_mut().zip(other.counts.iter()) {
            *c += o;
        }
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum += other.sum;
    }

    /// Value at quantile `ppm` parts-per-million (integer rank selection:
    /// the sample of rank `max(1, ⌈total · ppm / 10⁶⌉)`), reported as the
    /// midpoint of its bucket — within one bucket width of the exact
    /// order statistic. Returns 0 when empty; `ppm >= 10⁶` returns the
    /// exact maximum.
    fn value_at_ppm(&self, ppm: u64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        if ppm >= 1_000_000 {
            return self.max;
        }
        let rank = (self.total * ppm).div_ceil(1_000_000).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c;
            if seen >= rank {
                let low = bucket_low(i);
                let width = bucket_width(i);
                // Clamp the representative into the recorded range so
                // single-bucket histograms report exact values.
                return (low + (width - 1) / 2).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median (quantile 0.50).
    pub fn p50(&self) -> u64 {
        self.value_at_ppm(500_000)
    }

    /// Quantile 0.90.
    pub fn p90(&self) -> u64 {
        self.value_at_ppm(900_000)
    }

    /// Quantile 0.99.
    pub fn p99(&self) -> u64 {
        self.value_at_ppm(990_000)
    }

    /// Quantile 0.999.
    pub fn p999(&self) -> u64 {
        self.value_at_ppm(999_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn bucket_math_is_consistent() {
        // Every bucket's low value maps back to that bucket, widths tile
        // the axis with no gaps, and indices are monotone in the value.
        let mut expected_low = 0u64;
        for i in 0..N_BUCKETS {
            let low = bucket_low(i);
            assert_eq!(low, expected_low, "bucket {i} low");
            assert_eq!(bucket_index(low), i, "low of bucket {i} maps back");
            let width = bucket_width(i);
            assert_eq!(bucket_index(low + (width - 1)), i, "high of bucket {i}");
            expected_low = match low.checked_add(width) {
                Some(next) => next,
                None => {
                    assert_eq!(i, N_BUCKETS - 1, "only the last bucket ends at u64::MAX");
                    break;
                }
            };
        }
        assert_eq!(bucket_index(u64::MAX), N_BUCKETS - 1);
    }

    #[test]
    fn exact_below_sixtyfour() {
        let mut h = Histogram::new();
        for v in 0..64u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 64);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 63);
        // Unit buckets → quantiles are exact.
        assert_eq!(h.value_at_ppm(500_000), 31);
        assert_eq!(h.value_at_ppm(1_000_000), 63);
    }

    #[test]
    fn relative_error_bounded() {
        // One bucket spans at most 1/64 of its low value, so recording a
        // single sample reports it within ~1.6%.
        let mut h = Histogram::new();
        for exp in [10u64, 20, 30, 40, 50, 60] {
            let v = (1u64 << exp) + (1u64 << (exp - 2)) + 12345 % (1 << (exp - 3));
            let mut solo = Histogram::new();
            solo.record(v);
            let got = solo.p50();
            let err = got.abs_diff(v);
            assert!(
                err <= v / 64 + 1,
                "value {v}: reported {got}, error {err} > width bound"
            );
            h.record(v);
        }
        assert_eq!(h.count(), 6);
    }

    /// The acceptance-criteria property test: seeded random sample sets
    /// across mixed magnitudes, histogram quantiles vs a sorted-vector
    /// oracle, error ≤ one bucket width (of the oracle value's bucket).
    #[test]
    fn quantiles_match_sorted_oracle_within_one_bucket() {
        let mut rng = StdRng::seed_from_u64(0x10ad ^ 77);
        for case in 0..20 {
            let n = 100 + case * 337;
            let mut samples: Vec<u64> = (0..n)
                .map(|i| {
                    // Mix magnitudes: ns-scale latencies from ~100ns to ~10s.
                    let exp = rng.random_range(7..34u32);
                    let base = 1u64 << exp;
                    base + rng.random_range(0..base.max(2)) + (i % 7) as u64
                })
                .collect();
            let mut h = Histogram::new();
            for &s in &samples {
                h.record(s);
            }
            samples.sort_unstable();
            let total = samples.len() as u64;
            for ppm in [
                1_000u64, 10_000, 250_000, 500_000, 900_000, 990_000, 999_000,
            ] {
                let rank = (total * ppm).div_ceil(1_000_000).max(1);
                let oracle = samples[(rank - 1) as usize];
                let got = h.value_at_ppm(ppm);
                let width = bucket_width(bucket_index(oracle));
                assert!(
                    got.abs_diff(oracle) <= width,
                    "case {case} ppm {ppm}: hist {got} vs oracle {oracle} \
                     (bucket width {width})"
                );
            }
            assert_eq!(h.value_at_ppm(1_000_000), *samples.last().unwrap());
            assert_eq!(h.min(), samples[0]);
        }
    }

    #[test]
    fn merge_equals_concatenation() {
        let mut rng = StdRng::seed_from_u64(3);
        let a_samples: Vec<u64> = (0..500)
            .map(|_| rng.random_range(0..1_000_000u64))
            .collect();
        let b_samples: Vec<u64> = (0..300)
            .map(|_| rng.random_range(500..2_000_000_000u64))
            .collect();
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for &s in &a_samples {
            a.record(s);
            both.record(s);
        }
        for &s in &b_samples {
            b.record(s);
            both.record(s);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.sum(), both.sum());
        assert_eq!(a.min(), both.min());
        assert_eq!(a.max(), both.max());
        for ppm in [100_000u64, 500_000, 990_000, 999_000] {
            assert_eq!(a.value_at_ppm(ppm), both.value_at_ppm(ppm));
        }
    }

    #[test]
    fn empty_histogram_is_calm() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p999(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }
}
