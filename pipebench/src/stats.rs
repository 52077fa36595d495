//! Order statistics over per-op samples.

/// Percentiles tried, highest first, when picking the tail to report.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];
/// Samples that must lie beyond a percentile before it is reported.
const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` samples. The slack
/// keeps decimal percentiles such as 99.9 from rounding up a whole rank.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil().max(1.0) as usize).min(n)
}

/// Nearest-rank percentile `p` (0–100] of ascending `sorted` samples; NaN
/// when there are none, which the report turns into an incorrect run.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples strictly above the nearest-rank percentile `p` of `n` samples.
fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// The highest percentile of [`TAIL_LADDER`] with at least [`MIN_BEYOND`]
/// samples beyond it, and that count; `None` below 20 samples.
pub fn supported_tail(n: usize) -> Option<(f64, usize)> {
    TAIL_LADDER
        .iter()
        .map(|&p| (p, beyond(n, p)))
        .find(|&(_, b)| b >= MIN_BEYOND)
}

/// The percentile `op_tail_cpu_ms` reports for `n` ops: p99 when at least
/// ten ops lie beyond it, else the highest lower rung of [`TAIL_LADDER`]
/// that has ten (p50 below 20 ops). A run of `plan-cold` has a few dozen
/// ops, where a p99 would be its single slowest op.
pub fn cpu_tail(n: usize) -> f64 {
    TAIL_LADDER[1..]
        .iter()
        .copied()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
        .unwrap_or(50.0)
}

/// Median of unsorted samples (the lower middle for even counts, as the
/// nearest-rank rule gives it).
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// An ascending copy.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 1000 samples: exactly 10 lie beyond p99, only 1 beyond p99.9.
        assert_eq!(beyond(1000, 99.9), 1);
        assert_eq!(supported_tail(1000), Some((99.0, 10)));
        assert_eq!(supported_tail(10_000), Some((99.9, 10)));
        // 999 samples: ceil(989.01) = 990, so only 9 beyond p99.
        assert_eq!(supported_tail(999), Some((95.0, 49)));
        assert_eq!(supported_tail(100), Some((90.0, 10)));
        assert_eq!(supported_tail(20), Some((50.0, 10)));
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(0), None);
    }

    #[test]
    fn cpu_tail_is_p99_when_ten_ops_lie_beyond_it() {
        assert_eq!(cpu_tail(200_000), 99.0);
        assert_eq!(cpu_tail(1000), 99.0);
        assert_eq!(cpu_tail(999), 95.0);
        assert_eq!(cpu_tail(100), 90.0);
        assert_eq!(cpu_tail(35), 50.0);
        assert_eq!(cpu_tail(5), 50.0);
    }
}
