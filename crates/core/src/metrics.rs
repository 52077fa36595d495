//! Placement quality metrics beyond the raw objective.

use crate::placement::Placement;
use crate::scenario::Scenario;
use rap_graph::Distance;
use serde::Serialize;
use std::fmt;

/// A quality report for one placement on one scenario.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct PlacementReport {
    /// Number of RAPs placed.
    pub raps: usize,
    /// Expected daily customers attracted (the objective `w`).
    pub attracted: f64,
    /// Number of flows with non-zero detour probability.
    pub covered_flows: usize,
    /// Total number of flows in the scenario.
    pub total_flows: usize,
    /// Fraction of total daily volume belonging to covered flows.
    pub covered_volume_fraction: f64,
    /// Mean detour distance over covered flows (volume-weighted), in feet.
    pub mean_detour_feet: f64,
    /// Largest detour among covered flows.
    pub max_detour: Distance,
}

impl PlacementReport {
    /// Computes the report for `placement` on `scenario`.
    ///
    /// One fold over the placed RAPs' entries keeps, per flow, the best
    /// precomputed entry value and the least detour. The utility is
    /// non-increasing, so the best value is the value at the least detour
    /// and no utility is called. `attracted` and `covered_flows` are
    /// [`Scenario::coverage`]'s, bit for bit; the detour statistics read the
    /// covered flows' volumes and least detours.
    pub fn compute(scenario: &Scenario, placement: &Placement) -> Self {
        let flows = scenario.flows();
        let mut best = vec![(0.0f64, Distance::MAX); flows.len()];
        for &rap in placement {
            let (ids, values) = scenario.value_entries_at(rap);
            for ((&f, &v), e) in ids.iter().zip(values).zip(scenario.entries_at(rap)) {
                let (value, detour) = &mut best[f as usize];
                if v > *value {
                    *value = v;
                }
                *detour = (*detour).min(e.detour);
            }
        }
        let mut attracted = 0.0;
        let mut covered_flows = 0usize;
        let mut covered_volume = 0.0;
        let mut detour_mass = 0.0;
        let mut max_detour = Distance::ZERO;
        for (flow, &(value, d)) in flows.iter().zip(&best) {
            if value > 0.0 {
                covered_flows += 1;
                covered_volume += flow.volume();
                detour_mass += d.as_f64() * flow.volume();
                max_detour = max_detour.max(d);
                attracted += value;
            }
        }
        let total_volume = flows.total_volume();
        PlacementReport {
            raps: placement.len(),
            attracted,
            covered_flows,
            total_flows: flows.len(),
            covered_volume_fraction: if total_volume > 0.0 {
                covered_volume / total_volume
            } else {
                0.0
            },
            mean_detour_feet: if covered_volume > 0.0 {
                detour_mass / covered_volume
            } else {
                0.0
            },
            max_detour,
        }
    }
}

impl fmt::Display for PlacementReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} raps: {:.2} customers/day, {}/{} flows covered \
             ({:.0}% of volume), mean detour {:.0}ft (max {})",
            self.raps,
            self.attracted,
            self.covered_flows,
            self.total_flows,
            self.covered_volume_fraction * 100.0,
            self.mean_detour_feet,
            self.max_detour
        )
    }
}

/// Lock-free latency histogram with power-of-two buckets, safe to record
/// into from many threads concurrently (the serving layer's per-endpoint
/// latency tracker).
///
/// Bucket `b` holds samples whose microsecond value has bit length `b`
/// (i.e. `2^(b-1) ..= 2^b - 1`; bucket 0 holds exact zeros), so reported
/// percentiles are upper bounds within 2x of the true value — plenty for
/// p50/p99 over request latencies spanning orders of magnitude.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [std::sync::atomic::AtomicU64; 64],
    count: std::sync::atomic::AtomicU64,
    sum_us: std::sync::atomic::AtomicU64,
    max_us: std::sync::atomic::AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    #[must_use]
    pub const fn new() -> Self {
        use std::sync::atomic::AtomicU64;
        LatencyHistogram {
            buckets: [const { AtomicU64::new(0) }; 64],
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }

    fn bucket_of(us: u64) -> usize {
        // Bit length, clamped so a 64-bit sample lands in the last bucket.
        ((u64::BITS - us.leading_zeros()) as usize).min(63)
    }

    /// Records one sample, in microseconds.
    pub fn record_us(&self, us: u64) {
        use std::sync::atomic::Ordering::Relaxed;
        self.buckets[Self::bucket_of(us)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum_us.fetch_add(us, Relaxed);
        self.max_us.fetch_max(us, Relaxed);
    }

    /// Total number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Mean sample value in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        use std::sync::atomic::Ordering::Relaxed;
        let count = self.count.load(Relaxed);
        if count == 0 {
            return 0.0;
        }
        self.sum_us.load(Relaxed) as f64 / count as f64
    }

    /// Largest sample value recorded, in microseconds.
    pub fn max_us(&self) -> u64 {
        self.max_us.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Approximate quantile `q` in `[0, 1]`, in microseconds: the upper
    /// bound of the bucket containing the `ceil(q * count)`-th smallest
    /// sample (0 when empty). Concurrent recording can skew an in-flight
    /// read by at most the samples that land mid-scan.
    pub fn percentile_us(&self, q: f64) -> u64 {
        use std::sync::atomic::Ordering::Relaxed;
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Relaxed)).collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &n) in counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Upper bound of bucket b: 2^b - 1 (bucket 0 is exact zero).
                return if b == 0 { 0 } else { (1u64 << b) - 1 };
            }
        }
        self.max_us()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::fig4_scenario;
    use crate::utility::UtilityKind;
    use rap_graph::NodeId;

    #[test]
    fn report_on_fig4_threshold() {
        let s = fig4_scenario(UtilityKind::Threshold);
        let p = Placement::new(vec![NodeId::new(3), NodeId::new(5)]);
        let r = PlacementReport::compute(&s, &p);
        assert_eq!(r.raps, 2);
        assert!((r.attracted - 20.0).abs() < 1e-9);
        assert_eq!(r.covered_flows, 4);
        assert_eq!(r.total_flows, 4);
        assert!((r.covered_volume_fraction - 1.0).abs() < 1e-9);
        // Detours: T25=4, T35=4, T43=4, T56=6 → volume-weighted mean
        // (6*4 + 3*4 + 6*4 + 5*6)/20 = 90/20 = 4.5.
        assert!((r.mean_detour_feet - 4.5).abs() < 1e-9);
        assert_eq!(r.max_detour, rap_graph::Distance::from_feet(6));
    }

    #[test]
    fn report_on_fig4_linear_excludes_zero_probability_flows() {
        let s = fig4_scenario(UtilityKind::Linear);
        let p = Placement::new(vec![NodeId::new(3), NodeId::new(5)]);
        let r = PlacementReport::compute(&s, &p);
        // T56's detour of 6 gives probability zero under the linear utility.
        assert_eq!(r.covered_flows, 3);
        assert!((r.attracted - 5.0).abs() < 1e-9);
        assert!((r.covered_volume_fraction - 0.75).abs() < 1e-9);
    }

    #[test]
    fn empty_placement_report() {
        let s = fig4_scenario(UtilityKind::Linear);
        let r = PlacementReport::compute(&s, &Placement::empty());
        assert_eq!(r.raps, 0);
        assert_eq!(r.attracted, 0.0);
        assert_eq!(r.covered_flows, 0);
        assert_eq!(r.mean_detour_feet, 0.0);
    }

    #[test]
    fn display_is_informative() {
        let s = fig4_scenario(UtilityKind::Threshold);
        let p = Placement::new(vec![NodeId::new(3)]);
        let text = PlacementReport::compute(&s, &p).to_string();
        assert!(text.contains("1 raps"));
        assert!(text.contains("flows covered"));
    }

    #[test]
    fn histogram_empty() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean_us(), 0.0);
        assert_eq!(h.max_us(), 0);
        assert_eq!(h.percentile_us(0.5), 0);
        assert_eq!(h.percentile_us(0.99), 0);
    }

    #[test]
    fn histogram_percentiles_are_bucket_upper_bounds() {
        let h = LatencyHistogram::new();
        for us in [0u64, 1, 1, 3, 3, 3, 3, 100, 100, 5_000] {
            h.record_us(us);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.max_us(), 5_000);
        // Ranks: bucket0 {0}, bucket1 {1,1}, bucket2 {3×4}, bucket7
        // {100,100}, bucket13 {5000}. p50 → rank 5 → bucket2 → 3.
        assert_eq!(h.percentile_us(0.5), 3);
        // p90 → rank 9 → bucket7 → 127 (within 2x of 100).
        assert_eq!(h.percentile_us(0.9), 127);
        // p100 → rank 10 → bucket13 → 8191.
        assert_eq!(h.percentile_us(1.0), 8191);
        assert!((h.mean_us() - 5214.0 / 10.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_extreme_sample_does_not_panic() {
        let h = LatencyHistogram::new();
        h.record_us(u64::MAX);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max_us(), u64::MAX);
        assert!(h.percentile_us(0.5) > 0);
    }

    #[test]
    fn histogram_concurrent_recording() {
        let h = std::sync::Arc::new(LatencyHistogram::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..1_000u64 {
                        h.record_us(t * 250 + i % 97);
                    }
                })
            })
            .collect();
        for j in handles {
            j.join().unwrap();
        }
        assert_eq!(h.count(), 4_000);
        assert!(h.percentile_us(0.99) >= h.percentile_us(0.5));
    }
}
