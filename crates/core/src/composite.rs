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

use crate::algorithms::{argmax_node, PlacementAlgorithm};
use crate::placement::Placement;
use crate::scenario::Scenario;
use rand::rngs::StdRng;

/// Algorithm 2: composite greedy placement with the `1 − 1/√e` guarantee.
#[derive(Clone, Copy, Debug, Default)]
pub struct CompositeGreedy;

impl PlacementAlgorithm for CompositeGreedy {
    fn name(&self) -> &str {
        "Algorithm 2 (composite greedy)"
    }

    fn place(&self, scenario: &Scenario, k: usize, _rng: &mut StdRng) -> Placement {
        let candidates = scenario.candidates();
        let flow_count = scenario.flows().len();
        let mut covered = vec![false; flow_count];
        let mut best_value = vec![0.0f64; flow_count];
        let mut placement = Placement::empty();

        for _ in 0..k {
            // Candidate i: attract from uncovered flows.
            let cand_i = argmax_node(candidates, &placement, 0.0, |v| {
                scenario.uncovered_gain(&covered, v)
            });
            // Candidate ii: improve covered flows with smaller detours.
            let cand_ii = argmax_node(candidates, &placement, 0.0, |v| {
                scenario.improvement_gain_value(&covered, &best_value, v)
            });
            // Pick the better; ties favor candidate i (the paper compares
            // "the one that can attract more drivers").
            let chosen = match (cand_i, cand_ii) {
                (Some((vi, gi)), Some((vii, gii))) => {
                    if gii > gi {
                        vii
                    } else {
                        vi
                    }
                }
                (Some((vi, _)), None) => vi,
                (None, Some((vii, _))) => vii,
                (None, None) => break, // nothing attracts anyone anymore
            };
            placement.push(chosen);
            let (flows, values) = scenario.value_entries_at(chosen);
            for (&f, &v) in flows.iter().zip(values) {
                // A flow counts as covered once some RAP attracts a positive
                // expected number of its drivers (precomputed entry value).
                if v > 0.0 {
                    covered[f as usize] = true;
                }
            }
            scenario.commit_best_values(&mut best_value, chosen);
        }
        placement
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

    #[test]
    fn names_are_stable() {
        assert_eq!(CompositeGreedy.name(), "Algorithm 2 (composite greedy)");
        assert_eq!(MarginalGreedy.name(), "marginal greedy");
    }
}
