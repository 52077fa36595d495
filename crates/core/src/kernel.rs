//! Chunked, branchless structure-of-arrays gain kernels.
//!
//! Every greedy engine's inner loop is some variant of
//! `Σ_i max(0, value[i] − best[flow[i]])` over a candidate's contiguous
//! entry lanes ([`Scenario::value_entries_at`]): a streaming read of two
//! SoA `f64` lanes plus one gather into the per-flow best-value state.
//! The naive formulation — one accumulator, a `if delta > 0.0` branch —
//! serializes on the single addition chain and gives the autovectorizer
//! nothing to prove. The kernels here restructure the loop into [`LANES`]
//! independent accumulators filled round-robin by entry index with a
//! branchless `(v − b).max(0.0)` term, then reduce the lanes in one fixed
//! tree order. The compiler can unroll and interleave the chains freely
//! because the program order *is* the lane order.
//!
//! ## Exactness contract
//!
//! f64 addition is not associative, so the laned sum is a *different dialect*
//! of the gain than a single-accumulator sum — which is fine, as long as
//! every path computes the **same dialect**. The rules:
//!
//! * entry `i` always lands in lane `i % LANES`, in both the full chunks and
//!   the remainder — [`gain_reference`] spells this out element-by-element
//!   and the optimized kernels are asserted against it (unit tests here,
//!   adversarial proptests in `tests/prop.rs`);
//! * lanes reduce as `(l0 + l1) + (l2 + l3)`, never left-to-right;
//! * skipped terms (negative deltas, masked-out flows) still *occupy their
//!   lane slot* — they contribute `+0.0`, which leaves the accumulator
//!   bit-unchanged, so a masked kernel and an unmasked kernel walk identical
//!   lane schedules.
//!
//! [`Scenario::marginal_gain`](crate::Scenario::marginal_gain) and the other
//! distance-path twins replicate the same lane schedule inline, which keeps
//! the value path and the distance path bit-for-bit interchangeable (the
//! `value_engine_matches_distance_engine` tests).
//! [`MutableScenario::singleton_upper_bound`](crate::MutableScenario::singleton_upper_bound)
//! replicates [`uncovered_sum`]'s schedule over the live entries of a
//! maintained row, numbering them as the snapshot's row would: a tombstone
//! takes no lane slot there, because the snapshot drops it.

/// Independent accumulator lanes per kernel. Four chains cover the FMA/add
/// latency of current x86/ARM cores without spilling accumulators.
pub const LANES: usize = 4;

/// Fixed lane-reduction tree: `(l0 + l1) + (l2 + l3)`.
///
/// Every laned path — the kernels here and the inlined distance-path twins
/// in `scenario.rs` — must reduce through this function so the final
/// rounding sequence is shared.
#[inline]
pub fn reduce(acc: [f64; LANES]) -> f64 {
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// Scalar reference for [`gain`]: the lane schedule written element by
/// element. The optimized kernel must produce bit-identical output (asserted
/// in tests and proptests); keep this function boring.
pub fn gain_reference(flows: &[u32], values: &[f64], best: &[f64]) -> f64 {
    let mut acc = [0.0f64; LANES];
    for (i, (&f, &v)) in flows.iter().zip(values).enumerate() {
        acc[i % LANES] += (v - best[f as usize]).max(0.0);
    }
    reduce(acc)
}

/// Marginal gain `Σ_i max(0, values[i] − best[flows[i]])` over one
/// candidate's SoA entry lanes, chunked and branchless.
///
/// `flows` and `values` are parallel lanes; `best` is the per-flow
/// best-value state (every `flows[i]` must index into it).
pub fn gain(flows: &[u32], values: &[f64], best: &[f64]) -> f64 {
    debug_assert_eq!(flows.len(), values.len());
    let mut acc = [0.0f64; LANES];
    let mut fc = flows.chunks_exact(LANES);
    let mut vc = values.chunks_exact(LANES);
    for (f, v) in (&mut fc).zip(&mut vc) {
        // Branchless max(0, v − b): a non-positive delta adds +0.0, which is
        // a bitwise no-op on the (non-negative) accumulator.
        acc[0] += (v[0] - best[f[0] as usize]).max(0.0);
        acc[1] += (v[1] - best[f[1] as usize]).max(0.0);
        acc[2] += (v[2] - best[f[2] as usize]).max(0.0);
        acc[3] += (v[3] - best[f[3] as usize]).max(0.0);
    }
    for (i, (&f, &v)) in fc.remainder().iter().zip(vc.remainder()).enumerate() {
        acc[i] += (v - best[f as usize]).max(0.0);
    }
    reduce(acc)
}

/// Masked variant of [`gain`]: only flows with `covered[f] == true`
/// contribute (the Algorithm-2 improvement objective). Masked-out entries
/// still occupy their lane slot, so the schedule matches [`gain`]'s.
pub fn gain_covered(flows: &[u32], values: &[f64], best: &[f64], covered: &[bool]) -> f64 {
    debug_assert_eq!(flows.len(), values.len());
    let mut acc = [0.0f64; LANES];
    for (i, (&f, &v)) in flows.iter().zip(values).enumerate() {
        let fi = f as usize;
        let term = if covered[fi] {
            (v - best[fi]).max(0.0)
        } else {
            0.0
        };
        acc[i % LANES] += term;
    }
    reduce(acc)
}

/// Sum of raw entry values over *uncovered* flows (the Algorithm-1/2
/// coverage objective), on the same lane schedule.
pub fn uncovered_sum(flows: &[u32], values: &[f64], covered: &[bool]) -> f64 {
    debug_assert_eq!(flows.len(), values.len());
    let mut acc = [0.0f64; LANES];
    for (i, (&f, &v)) in flows.iter().zip(values).enumerate() {
        let term = if covered[f as usize] { 0.0 } else { v };
        acc[i % LANES] += term;
    }
    reduce(acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random lane data: `n` entries over `m` flows
    /// with value magnitudes spanning several orders so lane association
    /// actually matters.
    fn lanes(n: usize, m: usize, seed: u64) -> (Vec<u32>, Vec<f64>, Vec<f64>) {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let flows: Vec<u32> = (0..n).map(|_| (next() % m as u64) as u32).collect();
        let values: Vec<f64> = (0..n)
            .map(|_| (next() % 10_000) as f64 / ((next() % 7) as f64 * 100.0 + 1.0))
            .collect();
        let best: Vec<f64> = (0..m)
            .map(|_| {
                if next() % 3 == 0 {
                    0.0
                } else {
                    (next() % 10_000) as f64 / 100.0
                }
            })
            .collect();
        (flows, values, best)
    }

    #[test]
    fn kernel_matches_reference_bitwise() {
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65, 1000] {
            for seed in 1..6u64 {
                let (flows, values, best) = lanes(n, 17, seed);
                assert_eq!(
                    gain(&flows, &values, &best).to_bits(),
                    gain_reference(&flows, &values, &best).to_bits(),
                    "n={n} seed={seed}"
                );
            }
        }
    }

    #[test]
    fn covered_with_full_mask_matches_gain() {
        let (flows, values, best) = lanes(129, 11, 9);
        let all = vec![true; 11];
        assert_eq!(
            gain_covered(&flows, &values, &best, &all).to_bits(),
            gain(&flows, &values, &best).to_bits(),
            "an all-true mask must not change the lane schedule"
        );
        let none = vec![false; 11];
        assert_eq!(gain_covered(&flows, &values, &best, &none), 0.0);
    }

    #[test]
    fn uncovered_sum_splits_totals() {
        let (flows, values, _) = lanes(200, 13, 3);
        let zeros = vec![0.0f64; 13];
        let none = vec![false; 13];
        // Against a zero state with nothing covered, the uncovered sum is the
        // full gain (every delta is the raw value).
        assert_eq!(
            uncovered_sum(&flows, &values, &none).to_bits(),
            gain(&flows, &values, &zeros).to_bits()
        );
        let all = vec![true; 13];
        assert_eq!(uncovered_sum(&flows, &values, &all), 0.0);
    }

    #[test]
    fn zero_entries_yield_zero() {
        assert_eq!(gain(&[], &[], &[1.0]), 0.0);
    }

    #[test]
    fn saturated_state_yields_positive_zero() {
        // Every delta non-positive → the sum must be +0.0 (sign matters: the
        // staleness detector in the inverted engine compares bits).
        let flows = vec![0u32, 1, 0, 1, 0];
        let values = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let best = vec![10.0, 10.0];
        let g = gain(&flows, &values, &best);
        assert_eq!(g.to_bits(), 0.0f64.to_bits());
    }
}
