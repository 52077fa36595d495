//! Drift-resilience experiment: online placement maintenance vs an oracle.
//!
//! The paper's evaluation is static — one traffic snapshot, one placement.
//! This experiment streams seeded synthetic drift (flow arrivals,
//! retirements, volume rescales, α retunes) through a
//! [`rap_core::MutableScenario`] and compares two servers at evenly spaced
//! checkpoints:
//!
//! * **maintained** — the `rap-stream` [`Maintainer`]: cheap staleness
//!   checks, swap-repair when the certified fraction drifts, escalation to a
//!   full re-greedy when swaps stall;
//! * **oracle re-greedy** — a from-scratch lazy greedy on every checkpoint's
//!   snapshot, the quality ceiling for a greedy-family server.
//!
//! Checkpoints land on staleness-check boundaries so the maintained value
//! reflects the policy's steady state, not a mid-interval measurement.

use crate::series::{Figure, Panel, Series, SeriesPoint};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rap_core::{LazyGreedy, MutableScenario, PlacementAlgorithm, UtilityKind};
use rap_graph::{Distance, GridGraph};
use rap_stream::{Maintainer, MaintainerConfig, StreamDelta, SyntheticDrift};
use rap_traffic::demand::{uniform_demand, DemandParams};
use rap_traffic::FlowSet;

/// RAPs served throughout the run.
const K: usize = 8;
/// Evenly spaced measurement points along the stream.
const CHECKPOINTS: usize = 10;
/// Applied deltas between staleness checks.
const CHECK_INTERVAL: u64 = 16;

/// Runs the drift-resilience figure.
pub fn drift(settings: &crate::figures::Settings) -> Figure {
    // Checkpoint stride is a multiple of the check interval so every
    // measurement happens right after a staleness check.
    let stride = CHECK_INTERVAL as usize * settings.trials.clamp(2, 30);
    let total = stride * CHECKPOINTS;

    let mut scenario = substrate(settings);
    let mut maintainer = Maintainer::new(
        MaintainerConfig {
            k: K,
            check_interval: CHECK_INTERVAL,
            seed: settings.seed,
            ..MaintainerConfig::default()
        },
        &mut scenario,
    )
    .expect("initial solve succeeds");

    let drift_stream = SyntheticDrift::new(
        scenario.graph().node_count() as u32,
        scenario.live_stable_ids(),
        scenario.next_stable_id(),
        total,
        settings.seed,
    );

    let mut maintained = Series {
        label: "maintained".into(),
        points: Vec::new(),
    };
    let mut oracle = Series {
        label: "oracle re-greedy".into(),
        points: Vec::new(),
    };
    let mut repairs = Series {
        label: "repairs (cumulative)".into(),
        points: Vec::new(),
    };
    let mut resolves = Series {
        label: "resolves (cumulative)".into(),
        points: Vec::new(),
    };

    let mut applied = 0usize;
    for delta in drift_stream {
        let StreamDelta::Flow(flow_delta) = delta else {
            continue; // the synthetic source never forces compaction
        };
        scenario
            .apply(&flow_delta)
            .expect("synthetic drift is self-consistent");
        applied += 1;
        maintainer.note_delta(&mut scenario);

        if applied.is_multiple_of(stride) {
            let checkpoint = applied / stride;
            let snap = scenario.snapshot();
            let fresh = LazyGreedy.place(&snap, K, &mut rng(settings));
            maintained.points.push(SeriesPoint {
                k: checkpoint,
                customers: snap.evaluate(maintainer.placement()),
            });
            oracle.points.push(SeriesPoint {
                k: checkpoint,
                customers: snap.evaluate(&fresh),
            });
            let stats = maintainer.stats();
            repairs.points.push(SeriesPoint {
                k: checkpoint,
                customers: stats.repairs as f64,
            });
            resolves.points.push(SeriesPoint {
                k: checkpoint,
                customers: stats.resolves as f64,
            });
        }
    }

    Figure {
        name: "drift".into(),
        caption: format!(
            "online maintenance vs oracle re-greedy under {total} synthetic deltas, k = {K}"
        ),
        panels: vec![
            Panel {
                title: format!(
                    "serving objective at checkpoints (every {stride} deltas, checks every {CHECK_INTERVAL})"
                ),
                series: vec![maintained, oracle],
            },
            Panel {
                title: "cumulative maintenance interventions at checkpoints".into(),
                series: vec![repairs, resolves],
            },
        ],
    }
}

/// The drifting city substrate: a 9 × 9 grid seeded with uniform demand.
fn substrate(settings: &crate::figures::Settings) -> MutableScenario {
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
    MutableScenario::new(
        grid.graph().clone(),
        flows,
        vec![grid.center()],
        UtilityKind::Linear.instantiate(Distance::from_feet(3_000)),
    )
    .expect("valid scenario")
}

fn rng(settings: &crate::figures::Settings) -> StdRng {
    StdRng::seed_from_u64(settings.seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::Settings;

    #[test]
    fn drift_maintained_tracks_the_oracle() {
        let settings = Settings {
            trials: 10,
            seed: 2015,
        };
        let f = drift(&settings);
        assert_eq!(f.panels.len(), 2);
        let (maintained, oracle) = (&f.panels[0].series[0], &f.panels[0].series[1]);
        assert_eq!(maintained.points.len(), CHECKPOINTS);
        assert_eq!(oracle.points.len(), CHECKPOINTS);
        for (m, o) in maintained.points.iter().zip(oracle.points.iter()) {
            assert!(o.customers > 0.0, "oracle found no value at {}", o.k);
            assert!(
                m.customers >= 0.93 * o.customers,
                "maintained {} fell >7% behind oracle {} at checkpoint {}",
                m.customers,
                o.customers,
                m.k
            );
        }
        // Interventions are cumulative, hence monotone.
        for series in &f.panels[1].series {
            for w in series.points.windows(2) {
                assert!(w[1].customers >= w[0].customers, "counters must not drop");
            }
        }
    }

    #[test]
    fn drift_is_deterministic() {
        let settings = Settings { trials: 2, seed: 7 };
        let a = drift(&settings);
        let b = drift(&settings);
        let flat = |f: &Figure| {
            f.panels
                .iter()
                .flat_map(|p| p.series.iter())
                .flat_map(|s| s.points.iter().map(|pt| pt.customers.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(flat(&a), flat(&b));
    }
}
