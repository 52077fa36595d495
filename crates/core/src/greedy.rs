//! Algorithm 1 — the greedy coverage solution (paper Section III-B).
//!
//! At each of `k` steps, place a RAP at the intersection attracting the most
//! customers from *uncovered* traffic flows, then mark the flows it attracts
//! as covered. Under the threshold utility the problem is exactly weighted
//! maximum coverage and this greedy achieves the classical `1 − 1/e`
//! approximation ratio; the geographic density of RAPs is controlled because
//! covered flows stop contributing to later gains.
//!
//! ## Lazy evaluation
//!
//! The step's pick is the first maximum of the uncovered gain
//! ([`Scenario::uncovered_gain`]) over the unplaced candidates in ascending
//! node id. Rather than rescan every candidate per RAP, `UncoveredQueue`
//! keeps each candidate's last computed gain in a max-heap of
//! `HeapEntry`s and re-evaluates only the top entry until it is fresh for
//! the current round, as [`crate::lazy::CelfRun::step`] does for the
//! marginal gain. The RAPs and objective bits are the eager scan's, because
//! a stale uncovered gain is never below the fresh one:
//!
//! * a flow only ever becomes covered;
//! * every entry value is finite and non-negative: the
//!   [`UtilityFunction`](crate::UtilityFunction) contract puts
//!   `probability` in `[0, α]` and flow volumes are positive and finite
//!   (the precondition `Scenario` debug-asserts where it computes the
//!   values), so each term of [`kernel::uncovered_sum`](crate::kernel::uncovered_sum)
//!   can only fall, from its value to `+0.0`;
//! * each term keeps its lane slot and the lanes reduce through one fixed
//!   tree whatever is covered, and IEEE-754 addition is monotone in each
//!   operand, so the rounded sum can only fall too.
//!
//! When the top entry `(g, v)` is fresh, every other candidate's fresh gain
//! is at most its key, which ranks no higher than `(g, v)` in the heap's
//! order (gain descending, then node ascending); so `v` is the eager scan's
//! first maximum. A top key `≤ 0` bounds every gain by 0 and ends the
//! placement, as the eager scan's floor does. The eager scan itself lives
//! on only as the oracle of the property tests.

use crate::algorithms::PlacementAlgorithm;
use crate::lazy::HeapEntry;
use crate::placement::Placement;
use crate::scenario::Scenario;
use rand::rngs::StdRng;
use rap_graph::NodeId;
use std::collections::BinaryHeap;

/// Algorithm 1: greedy weighted max-coverage placement.
///
/// ```
/// use rap_graph::{GridGraph, Distance, NodeId};
/// use rap_traffic::{FlowSpec, FlowSet};
/// use rap_core::{Scenario, UtilityKind, GreedyCoverage, PlacementAlgorithm};
/// use rand::{rngs::StdRng, SeedableRng};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let grid = GridGraph::new(3, 3, Distance::from_feet(10));
/// let flows = FlowSet::route(
///     grid.graph(),
///     vec![FlowSpec::new(NodeId::new(0), NodeId::new(2), 100.0)?],
/// )?;
/// let s = Scenario::single_shop(
///     grid.graph().clone(),
///     flows,
///     NodeId::new(1),
///     UtilityKind::Threshold.instantiate(Distance::from_feet(50)),
/// )?;
/// let mut rng = StdRng::seed_from_u64(0);
/// let p = GreedyCoverage.place(&s, 1, &mut rng);
/// assert_eq!(p.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct GreedyCoverage;

impl PlacementAlgorithm for GreedyCoverage {
    fn name(&self) -> &str {
        "Algorithm 1 (greedy)"
    }

    fn place(&self, scenario: &Scenario, k: usize, _rng: &mut StdRng) -> Placement {
        self.place_counting(scenario, k).0
    }
}

impl GreedyCoverage {
    /// The placement and the number of gain-kernel calls it made.
    pub(crate) fn place_counting(&self, scenario: &Scenario, k: usize) -> (Placement, u64) {
        let mut evals = 0;
        let seeds = initial_gains(scenario, &mut evals);
        let mut queue = UncoveredQueue::new(scenario.candidates(), &seeds);
        let mut covered = vec![false; scenario.flows().len()];
        let mut placement = Placement::empty();
        while placement.len() < k {
            let Some((node, _gain)) = queue.best(scenario, &covered, &placement, &mut evals) else {
                break; // every remaining intersection attracts nobody new
            };
            placement.push(node);
            cover(scenario, &mut covered, node);
        }
        (placement, evals)
    }
}

/// Each candidate's uncovered gain with nothing covered, parallel to
/// [`Scenario::candidates`]: one gain evaluation per candidate.
pub(crate) fn initial_gains(scenario: &Scenario, evals: &mut u64) -> Vec<f64> {
    let covered = vec![false; scenario.flows().len()];
    *evals += scenario.candidates().len() as u64;
    scenario
        .candidates()
        .iter()
        .map(|&v| scenario.uncovered_gain(&covered, v))
        .collect()
}

/// Marks the flows a RAP at `node` covers: those it attracts a positive
/// expected number of drivers from (a positive precomputed entry value).
pub(crate) fn cover(scenario: &Scenario, covered: &mut [bool], node: NodeId) {
    let (flows, values) = scenario.value_entries_at(node);
    for (&f, &v) in flows.iter().zip(values) {
        if v > 0.0 {
            covered[f as usize] = true;
        }
    }
}

/// The lazy queue of uncovered gains behind Algorithm 1 and Algorithm 2's
/// candidate i (see the module docs for why a stale gain bounds the fresh
/// one). An entry's `round` is the placement size its gain was computed at.
pub(crate) struct UncoveredQueue {
    heap: BinaryHeap<HeapEntry>,
}

impl UncoveredQueue {
    /// A queue over `candidates` keyed by their [`initial_gains`].
    pub(crate) fn new(candidates: &[NodeId], gains: &[f64]) -> Self {
        let heap = candidates
            .iter()
            .zip(gains)
            .map(|(&v, &g)| HeapEntry::new(g, v, 0))
            .collect();
        UncoveredQueue { heap }
    }

    /// The eager scan's pick among the candidates not in `placement`: the
    /// first maximum of the uncovered gain against `covered`, with its
    /// gain, or `None` when no gain is positive. Stale entries on top are
    /// re-evaluated (one count each in `evals`) and placed nodes dropped;
    /// the pick stays queued, and is dropped once placed.
    pub(crate) fn best(
        &mut self,
        scenario: &Scenario,
        covered: &[bool],
        placement: &Placement,
        evals: &mut u64,
    ) -> Option<(NodeId, f64)> {
        let round = placement.len();
        loop {
            let top = self.heap.peek()?;
            let node = top.node;
            if placement.contains(node) {
                self.heap.pop();
            } else if top.gain <= 0.0 {
                return None;
            } else if top.round == round {
                return Some((node, top.gain));
            } else {
                self.heap.pop();
                *evals += 1;
                let gain = scenario.uncovered_gain(covered, node);
                self.heap.push(HeapEntry::new(gain, node, round));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{fig4_scenario, rng, small_grid_scenario};
    use crate::utility::UtilityKind;
    use rap_graph::{Distance, NodeId};

    #[test]
    fn fig4_threshold_places_v3_then_v5() {
        // Paper Fig. 4: k = 2, D = 6, α = 1. The first RAP goes to V3
        // (covers T_{2,5} + T_{3,5} + T_{4,3} = 15 drivers), the second to V5
        // (covers T_{5,6}).
        let s = fig4_scenario(UtilityKind::Threshold);
        let p = GreedyCoverage.place(&s, 2, &mut rng());
        assert_eq!(p.raps(), &[NodeId::new(3), NodeId::new(5)]);
        // All four flows covered: 6 + 6 + 3 + 5 = 20 drivers.
        assert!((s.evaluate(&p) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn fig4_terminates_early_when_everything_covered() {
        let s = fig4_scenario(UtilityKind::Threshold);
        // k = 5 but two RAPs cover everything: no more positive gains.
        let p = GreedyCoverage.place(&s, 5, &mut rng());
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn objective_is_monotone_in_k() {
        let s = small_grid_scenario(UtilityKind::Linear, Distance::from_feet(200));
        let mut prev = 0.0;
        for k in 0..6 {
            let p = GreedyCoverage.place(&s, k, &mut rng());
            let w = s.evaluate(&p);
            assert!(w + 1e-9 >= prev, "objective decreased at k={k}");
            prev = w;
        }
    }

    #[test]
    fn never_places_duplicates_and_respects_k() {
        let s = small_grid_scenario(UtilityKind::Threshold, Distance::from_feet(200));
        for k in 0..8 {
            let p = GreedyCoverage.place(&s, k, &mut rng());
            assert!(p.len() <= k);
            let mut seen = std::collections::HashSet::new();
            for r in &p {
                assert!(seen.insert(*r), "duplicate rap {r}");
            }
        }
    }

    #[test]
    fn zero_k_places_nothing() {
        let s = small_grid_scenario(UtilityKind::Threshold, Distance::from_feet(200));
        assert!(GreedyCoverage.place(&s, 0, &mut rng()).is_empty());
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(GreedyCoverage.name(), "Algorithm 1 (greedy)");
    }
}
