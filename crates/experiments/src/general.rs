//! Trial runner for the general (fixed-path) scenario — Figs. 10, 11, 12.
//!
//! A run fixes a city model, a utility, a threshold `D`, and a shop zone,
//! then averages over `trials` independent trials. Each trial samples a shop
//! intersection uniformly from the zone ("intersections with tags of city are
//! randomly selected as the shop locations", Section V-B), builds the
//! scenario, runs every algorithm once with the largest `k`, and evaluates
//! placement *prefixes* for each requested `k` — valid because every
//! algorithm here is incremental (greedy steps, ranked top-`k`, or sampling
//! without replacement), so its `k`-RAP output is a prefix of its
//! `k_max`-RAP output.

use crate::series::{Panel, Series, SeriesPoint};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rap_core::{Placement, PlacementAlgorithm, Scenario, UtilityKind};
use rap_graph::{Distance, NodeId};
use rap_trace::CityModel;
use rap_traffic::Zone;

/// Configuration of one general-scenario run (one panel).
#[derive(Clone, Debug)]
pub struct GeneralRun {
    /// Utility function kind.
    pub utility: UtilityKind,
    /// Detour threshold `D`.
    pub threshold: Distance,
    /// Zone from which shop locations are sampled.
    pub shop_zone: Zone,
    /// RAP budgets to report.
    pub ks: Vec<usize>,
    /// Number of trials to average over.
    pub trials: usize,
    /// Base RNG seed; trial `t` uses `seed + t`.
    pub seed: u64,
}

impl GeneralRun {
    /// The paper's default sweep `k = 1..=10`.
    pub fn default_ks() -> Vec<usize> {
        (1..=10).collect()
    }
}

/// Runs the configured trials for every algorithm and returns the averaged
/// panel.
///
/// # Panics
///
/// Panics if `trials` is zero, `ks` is empty, or the city has no intersection
/// in the requested zone (the bundled city models always have all three
/// zones).
pub fn run_general(
    city: &CityModel,
    cfg: &GeneralRun,
    title: String,
    algorithms: &[&(dyn PlacementAlgorithm + Sync)],
) -> Panel {
    assert!(cfg.trials > 0, "at least one trial required");
    assert!(!cfg.ks.is_empty(), "at least one k required");
    let shops = city.shop_candidates(cfg.shop_zone);
    assert!(
        !shops.is_empty(),
        "city has no {} intersections",
        cfg.shop_zone
    );
    let k_max = *cfg.ks.iter().max().expect("ks non-empty");

    // sums[alg][k_idx] accumulated across trials.
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(cfg.trials);
    let chunk = cfg.trials.div_ceil(threads);
    let partials: Vec<Vec<Vec<f64>>> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for worker in 0..threads {
            let shops = &shops;
            let ks = &cfg.ks;
            let lo = worker * chunk;
            let hi = ((worker + 1) * chunk).min(cfg.trials);
            handles.push(scope.spawn(move || {
                let mut sums = vec![vec![0.0f64; ks.len()]; algorithms.len()];
                for trial in lo..hi {
                    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(trial as u64));
                    let shop = shops[rng.random_range(0..shops.len())];
                    let scenario = build_scenario(city, cfg, shop);
                    for (a, alg) in algorithms.iter().enumerate() {
                        let placement = alg.place(&scenario, k_max, &mut rng);
                        for (i, &k) in ks.iter().enumerate() {
                            let take = k.min(placement.len());
                            let prefix = Placement::new(placement.raps()[..take].to_vec());
                            sums[a][i] += scenario.evaluate(&prefix);
                        }
                    }
                }
                sums
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("trial worker panicked"))
            .collect()
    });

    let mut series = Vec::with_capacity(algorithms.len());
    for (a, alg) in algorithms.iter().enumerate() {
        let points = cfg
            .ks
            .iter()
            .enumerate()
            .map(|(i, &k)| {
                let total: f64 = partials.iter().map(|p| p[a][i]).sum();
                SeriesPoint {
                    k,
                    customers: total / cfg.trials as f64,
                }
            })
            .collect();
        series.push(Series {
            label: alg.name().to_string(),
            points,
        });
    }
    Panel { title, series }
}

/// Builds a single-trial scenario for a given shop.
pub fn build_scenario(city: &CityModel, cfg: &GeneralRun, shop: NodeId) -> Scenario {
    Scenario::single_shop(
        city.graph().clone(),
        city.flows().clone(),
        shop,
        cfg.utility.instantiate(cfg.threshold),
    )
    .expect("city model scenarios are valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rap_core::{GreedyCoverage, MaxCustomers, Random};
    use rap_trace::{dublin, CityParams};

    fn tiny_city() -> CityModel {
        let params = CityParams {
            journeys: 20,
            max_buses: 2,
            ..CityParams::dublin()
        };
        dublin(params, 3).unwrap()
    }

    fn cfg() -> GeneralRun {
        GeneralRun {
            utility: UtilityKind::Linear,
            threshold: Distance::from_feet(20_000),
            shop_zone: Zone::City,
            ks: vec![1, 3, 5],
            trials: 8,
            seed: 9,
        }
    }

    #[test]
    fn runs_and_orders_sensibly() {
        let city = tiny_city();
        let panel = run_general(
            &city,
            &cfg(),
            "test".into(),
            &[&GreedyCoverage, &MaxCustomers, &Random],
        );
        assert_eq!(panel.series.len(), 3);
        for s in &panel.series {
            assert_eq!(s.points.len(), 3);
            // Monotone in k for prefix evaluation of incremental algorithms.
            for w in s.points.windows(2) {
                assert!(
                    w[1].customers + 1e-9 >= w[0].customers,
                    "{} not monotone",
                    s.label
                );
            }
        }
        // Greedy should at least match Random on average.
        let greedy = panel.series_named("Algorithm 1 (greedy)").unwrap();
        let random = panel.series_named("Random").unwrap();
        assert!(greedy.last().unwrap() + 1e-9 >= random.last().unwrap());
    }

    #[test]
    fn deterministic_across_runs() {
        let city = tiny_city();
        let p1 = run_general(&city, &cfg(), "t".into(), &[&GreedyCoverage, &Random]);
        let p2 = run_general(&city, &cfg(), "t".into(), &[&GreedyCoverage, &Random]);
        for (a, b) in p1.series.iter().zip(p2.series.iter()) {
            for (x, y) in a.points.iter().zip(b.points.iter()) {
                assert_eq!(x.customers, y.customers, "{}", a.label);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_panics() {
        let city = tiny_city();
        let mut c = cfg();
        c.trials = 0;
        let _ = run_general(&city, &c, "t".into(), &[&GreedyCoverage]);
    }
}
