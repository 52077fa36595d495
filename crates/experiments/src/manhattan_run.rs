//! Trial runner for the Manhattan-grid scenario — Fig. 13.
//!
//! Each trial regenerates boundary through-traffic on the ideal grid (the
//! `D × D` square region with the shop at its center) with a trial-specific
//! seed, then runs every algorithm and evaluates placement prefixes, exactly
//! like the general runner.

use crate::general::average_trials;
use crate::series::Panel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rap_core::{Placement, UtilityKind};
use rap_graph::{Distance, GridGraph};
use rap_manhattan::gen::{boundary_flows, BoundaryFlowParams};
use rap_manhattan::{ManhattanAlgorithm, ManhattanScenario};

/// Configuration of one Manhattan-scenario run (one panel).
#[derive(Clone, Debug)]
pub struct ManhattanRun {
    /// Utility function kind.
    pub utility: UtilityKind,
    /// Detour threshold `D`: both the utility cutoff and the side of the
    /// square region (centered at the shop) within which RAPs may be placed.
    pub threshold: Distance,
    /// Number of intersections per side of the full *city* grid (odd keeps
    /// the shop centered).
    pub grid_nodes_per_side: u32,
    /// Block length of the city grid.
    pub grid_spacing: Distance,
    /// Flow-generation knobs (flows span the whole city grid).
    pub flow_params: BoundaryFlowParams,
    /// RAP budgets to report.
    pub ks: Vec<usize>,
    /// Number of trials to average over.
    pub trials: usize,
    /// Base RNG seed; trial `t` uses `seed + t`.
    pub seed: u64,
}

impl ManhattanRun {
    /// Builds the full city grid for this run.
    ///
    /// # Panics
    ///
    /// Panics if fewer than 2 nodes per side or the spacing is zero.
    pub fn grid(&self) -> GridGraph {
        assert!(self.grid_nodes_per_side >= 2, "need at least a 2x2 grid");
        GridGraph::new(
            self.grid_nodes_per_side,
            self.grid_nodes_per_side,
            self.grid_spacing,
        )
    }

    /// Builds the scenario for one trial: citywide boundary flows, RAP
    /// candidates restricted to the `D × D` region around the central shop.
    ///
    /// # Panics
    ///
    /// Panics on invalid flow parameters.
    pub fn scenario(&self, trial: usize) -> ManhattanScenario {
        let grid = self.grid();
        let specs = boundary_flows(
            &grid,
            self.flow_params,
            self.seed.wrapping_add(trial as u64),
        )
        .expect("boundary flow parameters are valid");
        ManhattanScenario::with_region(
            grid,
            specs,
            self.utility.instantiate(self.threshold),
            self.threshold,
        )
        .expect("grid flows are always inside the grid")
    }
}

/// Runs the configured trials for every algorithm and returns the averaged
/// panel.
///
/// # Panics
///
/// Panics if `trials` is zero or `ks` is empty.
pub fn run_manhattan(
    cfg: &ManhattanRun,
    title: String,
    algorithms: &[&(dyn ManhattanAlgorithm + Sync)],
) -> Panel {
    assert!(cfg.trials > 0, "at least one trial required");
    assert!(!cfg.ks.is_empty(), "at least one k required");
    let k_max = *cfg.ks.iter().max().expect("ks non-empty");

    let labels: Vec<&str> = algorithms.iter().map(|alg| alg.name()).collect();
    average_trials(title, &labels, &cfg.ks, cfg.trials, |trial| {
        let scenario = cfg.scenario(trial);
        let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(1_000_003 * trial as u64));
        algorithms
            .iter()
            .map(|alg| {
                if alg.incremental() {
                    // One k_max run; prefixes are the smaller-k runs.
                    let placement = alg.place(&scenario, k_max, &mut rng);
                    cfg.ks
                        .iter()
                        .map(|&k| {
                            let take = k.min(placement.len());
                            scenario.evaluate(&Placement::new(placement.raps()[..take].to_vec()))
                        })
                        .collect()
                } else {
                    // Two-stage algorithms change strategy with k: run each
                    // budget separately.
                    cfg.ks
                        .iter()
                        .map(|&k| scenario.evaluate(&alg.place(&scenario, k, &mut rng)))
                        .collect()
                }
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rap_manhattan::{GridRandom, TwoStage};

    fn cfg() -> ManhattanRun {
        ManhattanRun {
            utility: UtilityKind::Threshold,
            threshold: Distance::from_feet(2_500),
            grid_nodes_per_side: 13,
            grid_spacing: Distance::from_feet(500),
            flow_params: BoundaryFlowParams {
                flows: 30,
                min_volume: 200.0,
                max_volume: 1_000.0,
                attractiveness: 0.001,
                straight_fraction: 0.3,
            },
            ks: vec![2, 5, 8],
            trials: 6,
            seed: 5,
        }
    }

    #[test]
    fn grid_has_requested_geometry() {
        let g = cfg().grid();
        assert_eq!(g.rows(), 13);
        assert_eq!(g.spacing(), Distance::from_feet(500));
    }

    #[test]
    fn region_grows_with_threshold() {
        let small = ManhattanRun {
            threshold: Distance::from_feet(1_000),
            ..cfg()
        };
        let s_small = small.scenario(0).candidates().len();
        let s_large = cfg().scenario(0).candidates().len();
        // D = 1,000 over 500 ft blocks: ±1 block -> 3×3 = 9 sites;
        // D = 2,500: ±2 blocks -> 5×5 = 25 sites.
        assert_eq!(s_small, 9);
        assert_eq!(s_large, 25);
    }

    #[test]
    fn two_stage_beats_random_on_average() {
        let panel = run_manhattan(&cfg(), "test".into(), &[&TwoStage, &GridRandom]);
        let two = panel.series_named("Algorithm 3 (two-stage)").unwrap();
        let random = panel.series_named("Random").unwrap();
        assert!(two.last().unwrap() + 1e-9 >= random.last().unwrap());
        // Prefix evaluation keeps incremental algorithms' curves monotone
        // (the two-stage algorithms may dip at the k=4 → k=5 strategy
        // switch, so only Random is checked here).
        for w in random.points.windows(2) {
            assert!(w[1].customers + 1e-9 >= w[0].customers);
        }
    }

    #[test]
    fn deterministic() {
        let p1 = run_manhattan(&cfg(), "t".into(), &[&TwoStage]);
        let p2 = run_manhattan(&cfg(), "t".into(), &[&TwoStage]);
        for (a, b) in p1.series[0].points.iter().zip(p2.series[0].points.iter()) {
            assert_eq!(a.customers, b.customers);
        }
    }
}
