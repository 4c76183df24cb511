//! Order statistics for timing samples.

/// Percentiles the tail helper may report, in per-mille, highest first.
const TAIL_LADDER_PERMILLE: [u64; 6] = [999, 990, 950, 900, 750, 500];

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: u64 = 10;

/// Median (mean of the two middle values for an even count); NaN when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `permille / 10` of `values`; NaN when empty.
pub fn percentile(values: &[f64], permille: u64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (v.len() as u64 * permille).div_ceil(1000).max(1) as usize;
    v[rank.min(v.len()) - 1]
}

/// The highest percentile (per-mille) from the ladder 99.9, 99, 95, 90,
/// 75, 50 with at least [`TAIL_MIN_BEYOND`] of `n` samples
/// beyond it, or `None` when even the median has fewer.
pub fn tail_permille(n: usize) -> Option<u64> {
    TAIL_LADDER_PERMILLE
        .into_iter()
        .find(|&p| n as u64 * (1000 - p) / 1000 >= TAIL_MIN_BEYOND)
}

/// The tail latency of a phase that guarantees at least `min_samples`
/// samples: the value at [`tail_permille`]`(min_samples)`, or the median
/// when that many samples leave too few for a tail above it. The
/// percentile depends only on the guarantee, never on how many samples
/// `values` holds.
pub fn tail_at(values: &[f64], min_samples: usize) -> f64 {
    match tail_permille(min_samples) {
        Some(p) if p > 500 => percentile(values, p),
        _ => median(values),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_picks_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_permille(10_000), Some(999));
        assert_eq!(tail_permille(9_999), Some(990));
        assert_eq!(tail_permille(1_000), Some(990));
        assert_eq!(tail_permille(999), Some(950));
        assert_eq!(tail_permille(200), Some(950));
        assert_eq!(tail_permille(100), Some(900));
        assert_eq!(tail_permille(40), Some(750));
        assert_eq!(tail_permille(39), Some(500));
        assert_eq!(tail_permille(20), Some(500));
        assert_eq!(tail_permille(19), None);
        assert_eq!(tail_permille(0), None);
        for n in 0..20_000usize {
            if let Some(p) = tail_permille(n) {
                assert!(n as u64 * (1000 - p) / 1000 >= TAIL_MIN_BEYOND);
                let higher = TAIL_LADDER_PERMILLE.iter().filter(|&&q| q > p);
                for &q in higher {
                    assert!(
                        n as u64 * (1000 - q) / 1000 < TAIL_MIN_BEYOND,
                        "n={n} skipped {q}"
                    );
                }
            }
        }
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 990), 990.0);
        assert_eq!(percentile(&v, 500), 500.0);
        assert_eq!(tail_at(&v, 1000), 990.0);
        // The guarantee, not the sample count, picks the percentile.
        assert_eq!(tail_at(&v, 100), 900.0);
        assert_eq!(tail_at(&v, 1), 500.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(tail_at(&[5.0, 1.0, 3.0], 3), 3.0);
        assert!(median(&[]).is_nan());
    }
}
