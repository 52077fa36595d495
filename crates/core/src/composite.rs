//! Algorithm 2 — the composite greedy solution (paper Section III-C).
//!
//! For decreasing utilities, coverage alone is not enough: a later RAP can
//! *improve* an already-covered flow by offering a smaller detour (RAP
//! overlap, Theorem 1). Algorithm 2 therefore evaluates two candidates at
//! each step —
//!
//! 1. the intersection attracting the most customers from **uncovered**
//!    flows, and
//! 2. the intersection attracting the most **additional** customers from
//!    covered flows through smaller detours —
//!
//! and places a RAP at the better of the two. Theorem 2 proves the ratio
//! `1 − 1/√e` to the optimum for any non-increasing utility; with the
//! threshold utility candidate ii's gain is always zero, so Algorithm 2
//! reduces to Algorithm 1.
//!
//! ## Lazy evaluation
//!
//! Each step's pick is the eager scan's: candidate i is the first maximum
//! of the uncovered gain over the unplaced candidates in ascending node id,
//! candidate ii the first maximum of the improvement gain
//! ([`Scenario::improvement_gain_value`]), each `None` when no gain is
//! positive, and candidate ii wins only when its gain strictly beats
//! candidate i's. Neither is found by rescanning every candidate.
//!
//! **Candidate i** comes from Algorithm 1's queue of stale uncovered gains,
//! `UncoveredQueue`; [`crate::greedy`] proves that a stale uncovered gain
//! bounds the fresh one.
//!
//! **Candidate ii** has no such bound in its own stale value: the
//! improvement gain rises when another RAP newly covers a flow. Its queue is
//! keyed by the candidate's last *marginal* gain
//! ([`Scenario::marginal_gain_value`]) instead, computed at some earlier or
//! the current round `s`. With `best_t` the best values of round `t ≥ s`,
//! term by term
//!
//! ```text
//! covered[f] ? max(0, v − best_t[f]) : +0.0   ≤   max(0, v − best_s[f])
//! ```
//!
//! because best values only rise ([`kernel::raise`](crate::kernel)),
//! IEEE-754 subtraction is monotone in its subtrahend and `max(0, ·)` is
//! monotone and non-negative. Both kernels
//! ([`kernel::gain_covered`](crate::kernel::gain_covered) and
//! [`kernel::gain`](crate::kernel::gain)) put entry `i` in lane
//! `i % LANES` and reduce through one tree, and IEEE addition is monotone,
//! so the key bounds the improvement gain of every later round.
//!
//! A step pops candidate-ii entries, in the heap's order (key descending,
//! then node ascending), only while the key could still change the pick:
//! it must exceed candidate i's gain (or 0 when there is no candidate i),
//! and beat the best improvement gain popped so far under the scan's tie
//! rule (higher gain, or equal gain at a lower node). Every entry left
//! behind ranks no higher than the one that failed, so no unpopped
//! candidate can be the scan's candidate ii. Each popped entry costs two
//! evaluations, its improvement gain and its marginal gain, and goes back
//! after the step keyed by that marginal gain (pushed back at once, it would
//! be popped again in the same step). Placed nodes are dropped when popped.
//!
//! Both queues are seeded from one pass over the candidates: with nothing
//! covered and every best value at `+0.0`, a term of the marginal gain is
//! `max(0, v − 0) = v`, the uncovered gain's term, and a zero term of either
//! sign leaves an accumulator that started at `+0.0` unchanged, so the two
//! sums have the same bits. The eager scan lives on only as the oracle of
//! the property tests.

use crate::algorithms::{argmax_node, PlacementAlgorithm};
use crate::greedy::{cover, initial_gains, UncoveredQueue};
use crate::lazy::HeapEntry;
use crate::placement::Placement;
use crate::scenario::Scenario;
use rand::rngs::StdRng;
use rap_graph::NodeId;
use std::collections::BinaryHeap;

/// Algorithm 2: composite greedy placement with the `1 − 1/√e` guarantee.
#[derive(Clone, Copy, Debug, Default)]
pub struct CompositeGreedy;

impl PlacementAlgorithm for CompositeGreedy {
    fn name(&self) -> &str {
        "Algorithm 2 (composite greedy)"
    }

    fn place(&self, scenario: &Scenario, k: usize, _rng: &mut StdRng) -> Placement {
        self.place_counting(scenario, k).0
    }
}

impl CompositeGreedy {
    /// The placement and the number of gain-kernel calls it made.
    pub(crate) fn place_counting(&self, scenario: &Scenario, k: usize) -> (Placement, u64) {
        let flow_count = scenario.flows().len();
        let mut covered = vec![false; flow_count];
        let mut best_value = vec![0.0f64; flow_count];
        let mut placement = Placement::empty();
        let mut evals = 0;
        let seeds = initial_gains(scenario, &mut evals);
        let mut queue_i = UncoveredQueue::new(scenario.candidates(), &seeds);
        let mut queue_ii: BinaryHeap<HeapEntry> = scenario
            .candidates()
            .iter()
            .zip(&seeds)
            .map(|(&v, &g)| HeapEntry::new(g, v, 0))
            .collect();
        let mut popped = Vec::new();

        while placement.len() < k {
            let round = placement.len();
            // Candidate i: attract from uncovered flows.
            let cand_i = queue_i.best(scenario, &covered, &placement, &mut evals);
            // Candidate ii: improve covered flows with smaller detours. It is
            // taken only if its gain strictly beats candidate i's (the paper
            // compares "the one that can attract more drivers"), so only
            // gains above `floor` matter.
            let floor = cand_i.map_or(0.0, |(_, g)| g);
            let beats = |gain: f64, node: NodeId, best: Option<(NodeId, f64)>| {
                gain > floor && best.is_none_or(|(u, g)| gain > g || (gain == g && node < u))
            };
            let mut cand_ii = None;
            while let Some(top) = queue_ii.peek() {
                let node = top.node;
                if placement.contains(node) {
                    queue_ii.pop();
                    continue;
                }
                if !beats(top.gain, node, cand_ii) {
                    break;
                }
                queue_ii.pop();
                evals += 2;
                let gain = scenario.improvement_gain_value(&covered, &best_value, node);
                if beats(gain, node, cand_ii) {
                    cand_ii = Some((node, gain));
                }
                let bound = scenario.marginal_gain_value(&best_value, node);
                popped.push(HeapEntry::new(bound, node, round));
            }
            let Some((chosen, _)) = cand_ii.or(cand_i) else {
                break; // nothing attracts anyone anymore
            };
            placement.push(chosen);
            cover(scenario, &mut covered, chosen);
            scenario.commit_best_values(&mut best_value, chosen);
            queue_ii.extend(popped.drain(..).filter(|e| e.node != chosen));
        }
        (placement, evals)
    }
}

/// The *naive* marginal-gain greedy discussed (and shown suboptimal without
/// the composite objective) in Section III-C: at each step place the RAP with
/// the maximum total marginal gain `w(G ∪ {v}) − w(G)`.
///
/// For the threshold utility this coincides with Algorithm 1; for decreasing
/// utilities it is the classical submodular greedy. Kept as an ablation
/// comparator for Algorithm 2.
#[derive(Clone, Copy, Debug, Default)]
pub struct MarginalGreedy;

impl MarginalGreedy {
    /// Like [`place`](PlacementAlgorithm::place), additionally returning the
    /// number of gain evaluations performed (the engines' ablation metric).
    pub fn place_with_stats(&self, scenario: &Scenario, k: usize) -> (Placement, u64) {
        let candidates = scenario.candidates();
        let mut best_value = vec![0.0f64; scenario.flows().len()];
        let mut placement = Placement::empty();
        let evals = std::cell::Cell::new(0u64);
        for _ in 0..k {
            let Some((node, _gain)) = argmax_node(candidates, &placement, 0.0, |v| {
                evals.set(evals.get() + 1);
                scenario.marginal_gain_value(&best_value, v)
            }) else {
                break;
            };
            placement.push(node);
            scenario.commit_best_values(&mut best_value, node);
        }
        (placement, evals.get())
    }
}

impl PlacementAlgorithm for MarginalGreedy {
    fn name(&self) -> &str {
        "marginal greedy"
    }

    fn place(&self, scenario: &Scenario, k: usize, _rng: &mut StdRng) -> Placement {
        self.place_with_stats(scenario, k).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{fig4_scenario, rng, small_grid_scenario};
    use crate::greedy::GreedyCoverage;
    use crate::utility::UtilityKind;
    use rap_graph::{Distance, NodeId};

    #[test]
    fn fig4_linear_first_step_is_v3() {
        // Paper Section III-C: the first RAP goes to V3, attracting
        // (6+6+3) × (1 − 4/6) = 5 drivers.
        let s = fig4_scenario(UtilityKind::Linear);
        let p = CompositeGreedy.place(&s, 1, &mut rng());
        assert_eq!(p.raps(), &[NodeId::new(3)]);
        assert!((s.evaluate(&p) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn fig4_linear_second_step_improves_covered_flow() {
        // Second step: candidate ii at V2 (or symmetric V4) adds
        // 6 × (2/3) − 6 × (1/3) = 2 more drivers; total 7.
        let s = fig4_scenario(UtilityKind::Linear);
        let p = CompositeGreedy.place(&s, 2, &mut rng());
        assert_eq!(p.raps()[0], NodeId::new(3));
        assert!(
            p.raps()[1] == NodeId::new(2) || p.raps()[1] == NodeId::new(4),
            "second rap should improve T_2,5 or T_4,3, got {}",
            p.raps()[1]
        );
        assert!((s.evaluate(&p) - 7.0).abs() < 1e-9);
    }

    #[test]
    fn fig4_threshold_reduces_to_algorithm_1() {
        let s = fig4_scenario(UtilityKind::Threshold);
        let composite = CompositeGreedy.place(&s, 2, &mut rng());
        let greedy = GreedyCoverage.place(&s, 2, &mut rng());
        assert_eq!(composite, greedy);
        assert!((s.evaluate(&composite) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn composite_matches_marginal_on_fig4() {
        // On Fig. 4 with the linear utility, both greedy variants attract 7
        // (the optimum of 8 requires non-greedy foresight).
        let s = fig4_scenario(UtilityKind::Linear);
        let c = CompositeGreedy.place(&s, 2, &mut rng());
        let m = MarginalGreedy.place(&s, 2, &mut rng());
        assert!((s.evaluate(&c) - 7.0).abs() < 1e-9);
        assert!((s.evaluate(&m) - 7.0).abs() < 1e-9);
    }

    #[test]
    fn objective_is_monotone_in_k() {
        for kind in [UtilityKind::Linear, UtilityKind::Sqrt] {
            let s = small_grid_scenario(kind, Distance::from_feet(200));
            let mut prev = 0.0;
            for k in 0..6 {
                let w = s.evaluate(&CompositeGreedy.place(&s, k, &mut rng()));
                assert!(w + 1e-9 >= prev, "objective decreased at k={k} ({kind})");
                prev = w;
            }
        }
    }

    #[test]
    fn no_duplicates_and_k_respected() {
        let s = small_grid_scenario(UtilityKind::Linear, Distance::from_feet(300));
        for k in [0, 1, 3, 10, 100] {
            for alg in [&CompositeGreedy as &dyn PlacementAlgorithm, &MarginalGreedy] {
                let p = alg.place(&s, k, &mut rng());
                assert!(p.len() <= k);
                let set: std::collections::HashSet<_> = p.iter().collect();
                assert_eq!(set.len(), p.len());
            }
        }
    }

    /// The lazy queues' gain-kernel calls on stream-durable's instance
    /// shape (a 20×20 grid of 500 ft blocks, 400 uniform flows, the linear
    /// utility at 5,000 ft) at k = 10, against the eager scan's two calls
    /// per candidate per RAP.
    #[test]
    fn lazy_queues_evaluate_a_fraction_of_the_eager_scan() {
        use rap_graph::GridGraph;
        use rap_traffic::demand::{uniform_demand, DemandParams};
        use rap_traffic::FlowSet;
        let grid = GridGraph::new(20, 20, Distance::from_feet(500));
        let params = DemandParams {
            flows: 400,
            min_volume: 100.0,
            max_volume: 1_000.0,
            attractiveness: 0.001,
        };
        let specs = uniform_demand(grid.graph(), params, 1).unwrap();
        let flows = FlowSet::route(grid.graph(), specs).unwrap();
        let s = Scenario::single_shop(
            grid.graph().clone(),
            flows,
            grid.center(),
            UtilityKind::Linear.instantiate(Distance::from_feet(5_000)),
        )
        .unwrap();
        let k = 10;
        let candidates = s.candidates().len() as u64;
        assert_eq!(candidates, 399);
        let (p, evals) = CompositeGreedy.place_counting(&s, k);
        assert_eq!(p.len(), k);
        assert_eq!(evals, 749);
        assert!(evals < 2 * k as u64 * candidates);
        // Algorithm 1's queue alone, against its eager scan's one call per
        // candidate per RAP.
        let (p, evals) = GreedyCoverage.place_counting(&s, k);
        assert_eq!(p.len(), k);
        assert_eq!(evals, 509);
        assert!(evals < k as u64 * candidates);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(CompositeGreedy.name(), "Algorithm 2 (composite greedy)");
        assert_eq!(MarginalGreedy.name(), "marginal greedy");
    }
}
