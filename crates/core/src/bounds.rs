//! Upper bounds on the optimal objective, for optimality-gap reporting.
//!
//! Exhaustive search is exponential, but the objective's structure gives
//! cheap certificates:
//!
//! * [`singleton_upper_bound`] — by subadditivity,
//!   `OPT(k) ≤` sum of the `k` largest single-RAP values.
//! * [`greedy_upper_bound`] — the marginal greedy `G` of a monotone
//!   submodular objective satisfies `w(G) ≥ (1 − 1/e)·OPT`, hence
//!   `OPT ≤ w(G)/(1 − 1/e)`.
//! * [`upper_bound`] — the minimum of the two.
//!
//! These let the experiment harness report "within x% of optimal" on
//! instances far beyond exhaustive reach.

use crate::algorithms::PlacementAlgorithm;
use crate::composite::MarginalGreedy;
use crate::scenario::Scenario;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Sum of the `k` largest single-RAP objective values — a valid upper bound
/// on `OPT(k)` by subadditivity of the coverage objective.
///
/// [`MutableScenario::singleton_upper_bound`](crate::MutableScenario::singleton_upper_bound)
/// computes the same bound, to the bit, without materializing a snapshot.
pub fn singleton_upper_bound(scenario: &Scenario, k: usize) -> f64 {
    let no_cover = vec![false; scenario.flows().len()];
    let singles: Vec<f64> = scenario
        .candidates()
        .iter()
        .map(|&v| scenario.uncovered_gain(&no_cover, v))
        .collect();
    top_k_sum(singles, k)
}

/// Sum of the `k` largest `singles`, largest first (`total_cmp` order; an
/// empty selection sums to `-0.0`). Both singleton bounds fold through this
/// one function so their bits agree.
pub(crate) fn top_k_sum(mut singles: Vec<f64>, k: usize) -> f64 {
    singles.sort_by(|a, b| b.total_cmp(a));
    singles.into_iter().take(k).sum()
}

/// `w(marginal greedy) / (1 − 1/e)` — a valid upper bound on `OPT(k)`
/// because the objective is monotone submodular.
pub fn greedy_upper_bound(scenario: &Scenario, k: usize) -> f64 {
    let mut rng = StdRng::seed_from_u64(0); // greedy ignores the rng
    let g = MarginalGreedy.place(scenario, k, &mut rng);
    scenario.evaluate(&g) / (1.0 - (-1.0f64).exp())
}

/// The tighter of the two certificates.
pub fn upper_bound(scenario: &Scenario, k: usize) -> f64 {
    singleton_upper_bound(scenario, k).min(greedy_upper_bound(scenario, k))
}

/// An optimality certificate for a concrete placement value: the guaranteed
/// fraction `value / upper_bound` of the (unknown) optimum achieved.
pub fn certified_fraction(scenario: &Scenario, k: usize, value: f64) -> f64 {
    let ub = upper_bound(scenario, k);
    if ub <= 0.0 {
        1.0 // nothing is attainable; any placement is trivially optimal
    } else {
        (value / ub).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::composite::CompositeGreedy;
    use crate::exhaustive::ExhaustiveOptimal;
    use crate::fixtures::{fig4_scenario, rng, small_grid_scenario};
    use crate::utility::UtilityKind;
    use rap_graph::Distance;

    #[test]
    fn bounds_dominate_the_true_optimum() {
        for kind in UtilityKind::ALL {
            let s = fig4_scenario(kind);
            for k in 1..=3 {
                let opt = s.evaluate(&ExhaustiveOptimal::new().solve(&s, k).unwrap());
                assert!(
                    singleton_upper_bound(&s, k) + 1e-9 >= opt,
                    "singleton bound below opt ({kind}, k={k})"
                );
                assert!(
                    greedy_upper_bound(&s, k) + 1e-9 >= opt,
                    "greedy bound below opt ({kind}, k={k})"
                );
                assert!(upper_bound(&s, k) + 1e-9 >= opt);
            }
        }
    }

    #[test]
    fn bounds_dominate_on_grid_instances() {
        let s = small_grid_scenario(UtilityKind::Linear, Distance::from_feet(200));
        for k in 1..=3 {
            let opt = s.evaluate(&ExhaustiveOptimal::new().solve(&s, k).unwrap());
            assert!(upper_bound(&s, k) + 1e-9 >= opt, "k={k}");
        }
    }

    #[test]
    fn certified_fraction_is_meaningful() {
        let s = small_grid_scenario(UtilityKind::Linear, Distance::from_feet(250));
        let k = 3;
        let value = s.evaluate(&CompositeGreedy.place(&s, k, &mut rng()));
        let frac = certified_fraction(&s, k, value);
        // The certificate can never promise more than 100%, and the greedy
        // bound alone already certifies at least 1 − 1/e.
        assert!(frac <= 1.0);
        assert!(frac + 1e-9 >= 1.0 - (-1.0f64).exp() - 0.05, "frac {frac}");
    }

    #[test]
    fn upper_bound_monotone_in_k() {
        let s = small_grid_scenario(UtilityKind::Threshold, Distance::from_feet(300));
        let mut prev = 0.0;
        for k in 1..6 {
            let ub = singleton_upper_bound(&s, k);
            assert!(ub + 1e-9 >= prev);
            prev = ub;
        }
    }

    #[test]
    fn empty_scenario_certifies_trivially() {
        use rap_traffic::FlowSet;
        let grid = rap_graph::GridGraph::new(2, 2, Distance::from_feet(10));
        let flows = FlowSet::route(grid.graph(), vec![]).unwrap();
        let s = Scenario::single_shop(
            grid.graph().clone(),
            flows,
            rap_graph::NodeId::new(0),
            UtilityKind::Threshold.instantiate(Distance::from_feet(10)),
        )
        .unwrap();
        assert_eq!(upper_bound(&s, 3), 0.0);
        assert_eq!(certified_fraction(&s, 3, 0.0), 1.0);
    }
}
