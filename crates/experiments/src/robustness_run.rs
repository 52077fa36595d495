//! Robustness experiments beyond the paper's figures.
//!
//! The paper's evaluation assumes every placed RAP stays online; these
//! panels quantify what the robustness machinery buys when it does not:
//!
//! * **closed form vs Monte Carlo** — the analytic failure-aware objective
//!   ([`rap_core::failure_aware_evaluate`]) against a seeded outage
//!   simulation, across failure probabilities. Agreement within a few
//!   standard errors validates the expectation-of-best-survivor derivation.
//! * **correlation-aware value** — customers retained under spatially
//!   correlated (per-region blackout) outages by the independent-model
//!   greedy vs the correlation-aware greedy, as blackouts intensify.

use crate::series::{Figure, Panel, Series, SeriesPoint};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rap_core::{
    correlated_evaluate, failure_aware_evaluate, simulate_outages, CorrelatedFailureGreedy,
    CorrelatedFailureModel, FailureAwareGreedy, PlacementAlgorithm, RegionMap, Scenario,
    UtilityKind,
};
use rap_graph::{Distance, GridGraph};
use rap_traffic::demand::{uniform_demand, DemandParams};
use rap_traffic::FlowSet;

/// Failure probabilities swept by the validation panel.
const FAILURE_PS: [f64; 3] = [0.1, 0.3, 0.6];
/// Regional blackout probabilities swept by the correlation panel.
const BLACKOUT_QS: [f64; 4] = [0.0, 0.1, 0.3, 0.5];

/// Runs all robustness panels.
pub fn robustness(settings: &crate::figures::Settings) -> Figure {
    Figure {
        name: "robustness".into(),
        caption: "failure-model validation and correlation-aware placement".into(),
        panels: vec![
            closed_form_vs_monte_carlo(settings),
            correlation_aware_value(settings),
        ],
    }
}

/// The shared city substrate: a 9 × 9 grid with uniform demand.
fn substrate(settings: &crate::figures::Settings) -> Scenario {
    let grid = GridGraph::new(9, 9, Distance::from_feet(500));
    let specs = uniform_demand(
        grid.graph(),
        DemandParams {
            flows: 80,
            min_volume: 100.0,
            max_volume: 900.0,
            attractiveness: 0.001,
        },
        settings.seed,
    )
    .expect("valid demand");
    let flows = FlowSet::route(grid.graph(), specs).expect("routes");
    Scenario::single_shop(
        grid.graph().clone(),
        flows,
        grid.center(),
        UtilityKind::Linear.instantiate(Distance::from_feet(3_000)),
    )
    .expect("valid scenario")
}

/// Analytic failure-aware objective vs seeded Monte Carlo, per failure
/// probability (the k column is the 1-based index into `FAILURE_PS`).
fn closed_form_vs_monte_carlo(settings: &crate::figures::Settings) -> Panel {
    let s = substrate(settings);
    let trials = (settings.trials as u64 * 100).clamp(2_000, 50_000);
    let mut closed = Series {
        label: "closed form".into(),
        points: Vec::new(),
    };
    let mut monte = Series {
        label: format!("monte carlo ({trials} draws)"),
        points: Vec::new(),
    };
    for (i, &p) in FAILURE_PS.iter().enumerate() {
        let placement = FailureAwareGreedy::new(p).place(&s, 8, &mut rng(settings));
        let analytic = failure_aware_evaluate(&s, &placement, p);
        let sim = simulate_outages(&s, &placement, p, trials, settings.seed);
        assert!(
            (analytic - sim.mean).abs() <= 4.0 * sim.std_error.max(1e-9),
            "closed form {analytic} vs MC {} ± {} at p = {p}",
            sim.mean,
            sim.std_error
        );
        closed.points.push(SeriesPoint {
            k: i + 1,
            customers: analytic,
        });
        monte.points.push(SeriesPoint {
            k: i + 1,
            customers: sim.mean,
        });
    }
    Panel {
        title: "failure-aware objective vs p index (0.1, 0.3, 0.6), k = 8".into(),
        series: vec![closed, monte],
    }
}

/// Customers retained under regional blackouts: independent-model placement
/// vs correlation-aware placement (the k column indexes `BLACKOUT_QS`).
fn correlation_aware_value(settings: &crate::figures::Settings) -> Panel {
    let s = substrate(settings);
    let regions = RegionMap::striped(s.graph().node_count(), 3);
    let rap_p = 0.2;
    let mut independent = Series {
        label: "independent-model greedy".into(),
        points: Vec::new(),
    };
    let mut aware = Series {
        label: "correlation-aware greedy".into(),
        points: Vec::new(),
    };
    for (i, &q) in BLACKOUT_QS.iter().enumerate() {
        let model = CorrelatedFailureModel::new(q, rap_p);
        let ind_placement = FailureAwareGreedy::new(rap_p).place(&s, 8, &mut rng(settings));
        let aware_placement =
            CorrelatedFailureGreedy::new(model, regions.clone()).place(&s, 8, &mut rng(settings));
        independent.points.push(SeriesPoint {
            k: i + 1,
            customers: correlated_evaluate(&s, &ind_placement, &model, &regions),
        });
        aware.points.push(SeriesPoint {
            k: i + 1,
            customers: correlated_evaluate(&s, &aware_placement, &model, &regions),
        });
    }
    Panel {
        title: "customers under regional blackouts vs q index (0, 0.1, 0.3, 0.5), p = 0.2, k = 8"
            .into(),
        series: vec![independent, aware],
    }
}

fn rng(settings: &crate::figures::Settings) -> StdRng {
    StdRng::seed_from_u64(settings.seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::Settings;

    #[test]
    fn robustness_runs_and_is_coherent() {
        let settings = Settings {
            trials: 20,
            seed: 2015,
        };
        let f = robustness(&settings);
        assert_eq!(f.panels.len(), 2);

        // Validation panel: the in-panel 4σ assertion already ran; the
        // closed form must also decrease as p grows (more failures, fewer
        // customers).
        let closed = &f.panels[0].series[0];
        for w in closed.points.windows(2) {
            assert!(
                w[1].customers < w[0].customers,
                "objective must decrease in p"
            );
        }

        // Correlation panel: the correlation-aware greedy can never do worse
        // on its own objective.
        let panel = &f.panels[1];
        let (ind, aware) = (&panel.series[0], &panel.series[1]);
        for (a, b) in ind.points.iter().zip(aware.points.iter()) {
            assert!(
                b.customers + 1e-9 >= a.customers,
                "correlation-aware greedy lost on its own objective at q index {}",
                a.k
            );
        }
        // At q = 0 the two models coincide, so the placements tie exactly.
        assert!((aware.points[0].customers - ind.points[0].customers).abs() < 1e-9);
    }
}
