//! Empirical complexity validation (paper Section III-B/III-C analysis).
//!
//! The paper charges `O(|V|³ + k·|V|·|T|)` per placement: an all-pairs
//! shortest-path term plus `k` greedy steps scanning all intersections ×
//! flows. Our implementation replaces the APSP term with two Dijkstras per
//! shop (`O(|V| log |V| + |E|)` on sparse road graphs), and Algorithm 2
//! re-evaluates only the candidates whose stale gain bound can still win
//! (`rap_core::composite`), so `k·|V|·|T|` is its worst case rather than
//! what it measures. This module shows both by measuring wall-clock against
//! each parameter while holding the others fixed. Timings are reported in
//! microseconds via the usual series tables (the `customers` column carries
//! µs here).

use crate::series::{Figure, Panel, Series, SeriesPoint};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rap_core::{CompositeGreedy, DetourTable, PlacementAlgorithm, Scenario, UtilityKind};
use rap_graph::apsp::DistanceMatrix;
use rap_graph::{Distance, GridGraph};
use rap_traffic::demand::{uniform_demand, DemandParams};
use rap_traffic::FlowSet;
use std::time::Instant;

/// Median-of-`reps` wall-clock of `f`, in microseconds.
fn time_us<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    assert!(reps > 0);
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    samples[samples.len() / 2]
}

fn scenario_for(side: u32, flows: usize, seed: u64) -> Scenario {
    let grid = GridGraph::new(side, side, Distance::from_feet(500));
    let specs = uniform_demand(
        grid.graph(),
        DemandParams {
            flows,
            min_volume: 100.0,
            max_volume: 1_000.0,
            attractiveness: 0.001,
        },
        seed,
    )
    .expect("valid demand");
    let flow_set = FlowSet::route(grid.graph(), specs).expect("routes");
    Scenario::single_shop(
        grid.graph().clone(),
        flow_set,
        grid.center(),
        UtilityKind::Linear.instantiate(Distance::from_feet(u64::from(side) * 250)),
    )
    .expect("valid scenario")
}

/// Runs all complexity measurements.
pub fn complexity(settings: &crate::figures::Settings) -> Figure {
    let reps = 5usize;
    let seed = settings.seed;

    // Sweep |V| at fixed |T| = 150, k = 10.
    let mut greedy_v = Series {
        label: "Algorithm 2 place (µs)".into(),
        points: Vec::new(),
    };
    let mut detour_v = Series {
        label: "detour table build (µs)".into(),
        points: Vec::new(),
    };
    let mut apsp_v = Series {
        label: "full APSP (µs, paper's |V|^3 term)".into(),
        points: Vec::new(),
    };
    for side in [8u32, 12, 16, 24, 32] {
        let s = scenario_for(side, 150, seed);
        let n = (side * side) as usize;
        let mut rng = StdRng::seed_from_u64(seed);
        greedy_v.points.push(SeriesPoint {
            k: n,
            customers: time_us(reps, || {
                let _ = CompositeGreedy.place(&s, 10, &mut rng);
            }),
        });
        detour_v.points.push(SeriesPoint {
            k: n,
            customers: time_us(reps, || {
                let _ = DetourTable::build(s.graph(), s.flows(), s.shops()).expect("valid table");
            }),
        });
        apsp_v.points.push(SeriesPoint {
            k: n,
            customers: time_us(reps.min(3), || {
                let _ = DistanceMatrix::dijkstra_all(s.graph());
            }),
        });
    }
    let panel_v = Panel {
        title: "runtime vs |V| (|T| = 150, k = 10); our detour build replaces the APSP term".into(),
        series: vec![greedy_v, detour_v, apsp_v],
    };

    // Sweep |T| at fixed |V| = 400, k = 10.
    let mut greedy_t = Series {
        label: "Algorithm 2 place (µs)".into(),
        points: Vec::new(),
    };
    for flows in [50usize, 100, 200, 400, 800] {
        let s = scenario_for(20, flows, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        greedy_t.points.push(SeriesPoint {
            k: flows,
            customers: time_us(reps, || {
                let _ = CompositeGreedy.place(&s, 10, &mut rng);
            }),
        });
    }
    let panel_t = Panel {
        title: "runtime vs |T| (|V| = 400, k = 10) — O(k·|V|·|T|) is the worst case; \
                the lazy queues re-evaluate few candidates"
            .into(),
        series: vec![greedy_t],
    };

    // Sweep k at fixed |V| = 400, |T| = 200.
    let mut greedy_k = Series {
        label: "Algorithm 2 place (µs)".into(),
        points: Vec::new(),
    };
    let s = scenario_for(20, 200, seed);
    for k in [1usize, 2, 5, 10, 20, 40] {
        let mut rng = StdRng::seed_from_u64(seed);
        greedy_k.points.push(SeriesPoint {
            k,
            customers: time_us(reps, || {
                let _ = CompositeGreedy.place(&s, k, &mut rng);
            }),
        });
    }
    let panel_k = Panel {
        title: "runtime vs k (|V| = 400, |T| = 200) — O(k·|V|·|T|) is the worst case; \
                the lazy queues re-evaluate few candidates"
            .into(),
        series: vec![greedy_k],
    };

    Figure {
        name: "complexity".into(),
        caption: "empirical runtime vs the paper's O(|V|^3 + k|V||T|) analysis".into(),
        panels: vec![panel_v, panel_t, panel_k],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::Settings;

    #[test]
    fn complexity_produces_positive_timings() {
        let f = complexity(&Settings {
            trials: 1,
            seed: 2015,
        });
        assert_eq!(f.panels.len(), 3);
        for panel in &f.panels {
            for series in &panel.series {
                assert!(!series.points.is_empty());
                for p in &series.points {
                    assert!(p.customers > 0.0, "non-positive timing in {}", series.label);
                }
            }
        }
    }

    #[test]
    fn time_us_is_sane() {
        let t = time_us(3, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        assert!(t >= 1_500.0, "measured {t}µs for a 2ms sleep");
    }
}
