//! Tier-1 coverage of the streaming write path: seeded drift streams
//! through `rap_stream::Maintainer`, the loop `rap stream` runs.
//!
//! Staleness checks measure the singleton bound and the serving objective
//! straight off `MutableScenario`'s live arrays. At every check boundary
//! the first test measures both on a materialized snapshot too and demands
//! the same bits. It then pins the maintenance trajectory (checks, repairs,
//! resolves, final placement, final objective bits), so a change to how
//! checks measure cannot silently change what the stream decides.
//!
//! The second test is the quality gate: on a mid-size city the maintained
//! placement must stay within 5% of a from-scratch greedy throughout a
//! long drift stream.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rap_stream::{MaintainAction, Maintainer, MaintainerConfig, StreamDelta, SyntheticDrift};
use rap_vcps::graph::{Distance, GridGraph};
use rap_vcps::placement::{
    singleton_upper_bound, LazyGreedy, MutableScenario, Placement, PlacementAlgorithm, UtilityKind,
};
use rap_vcps::traffic::demand::{uniform_demand, DemandParams};
use rap_vcps::traffic::FlowSet;

const K: usize = 4;
const CHECK_INTERVAL: u64 = 16;
const DELTAS: usize = 1_200;

// The trajectory the snapshot-measuring maintainer produced on this stream:
// 75 boundary checks plus the closing one.
const CHECKS: u64 = 76;
const REPAIRS: u64 = 7;
const RESOLVES: u64 = 8;
const FINAL_RAPS: [u32; 4] = [19, 3, 27, 11];
/// 8933.85964293531 customers/day.
const FINAL_OBJECTIVE_BITS: u64 = 0x40c1_72ee_08c7_9ab2;

/// A `side × side` grid at 500 ft with `flows` uniform flows (volume
/// 100–1,000, drawn from `demand_seed`) and the shop at the center, under
/// a linear utility with D = `d_feet`.
fn grid_city(
    side: u32,
    flows: usize,
    attractiveness: f64,
    demand_seed: u64,
    d_feet: u64,
) -> MutableScenario {
    let grid = GridGraph::new(side, side, Distance::from_feet(500));
    let params = DemandParams {
        flows,
        min_volume: 100.0,
        max_volume: 1_000.0,
        attractiveness,
    };
    let specs = uniform_demand(grid.graph(), params, demand_seed).unwrap();
    let flows = FlowSet::route(grid.graph(), specs).unwrap();
    MutableScenario::new(
        grid.graph().clone(),
        flows,
        vec![grid.center()],
        UtilityKind::Linear.instantiate(Distance::from_feet(d_feet)),
    )
    .unwrap()
}

/// The check's two measurements, taken on the live arrays and on a
/// snapshot: they must agree to the bit.
fn assert_live_matches_snapshot(scenario: &mut MutableScenario, serving: &Placement, at: u64) {
    let snap = scenario.snapshot();
    assert_eq!(
        scenario.singleton_upper_bound(K).to_bits(),
        singleton_upper_bound(&snap, K).to_bits(),
        "singleton bound diverged at delta {at}"
    );
    assert_eq!(
        scenario.evaluate_current(serving).to_bits(),
        snap.evaluate(serving).to_bits(),
        "serving objective diverged at delta {at}"
    );
}

#[test]
fn seeded_drift_checks_match_snapshots_and_keep_the_trajectory() {
    let mut scenario = grid_city(8, 40, 0.01, 17, 2_000);
    let cfg = MaintainerConfig {
        k: K,
        check_interval: CHECK_INTERVAL,
        threads: 1,
        ..MaintainerConfig::default()
    };
    let mut maintainer = Maintainer::new(cfg, &mut scenario).unwrap();
    let drift = SyntheticDrift::new(
        scenario.graph().node_count() as u32,
        scenario.live_stable_ids(),
        scenario.next_stable_id(),
        DELTAS,
        23,
    );
    let mut applied = 0u64;
    for delta in drift {
        let StreamDelta::Flow(delta) = delta else {
            unreachable!("synthetic drift never forces a compaction");
        };
        scenario.apply(&delta).unwrap();
        applied += 1;
        let boundary = applied.is_multiple_of(CHECK_INTERVAL);
        if boundary {
            let serving = maintainer.placement().clone();
            assert_live_matches_snapshot(&mut scenario, &serving, applied);
        }
        let action = maintainer.note_delta(&mut scenario);
        assert_eq!(action != MaintainAction::None, boundary, "delta {applied}");
        if boundary {
            // Whatever the check adopted, its objective is the snapshot's.
            let snap = scenario.snapshot();
            assert_eq!(
                maintainer.objective().to_bits(),
                snap.evaluate(maintainer.placement()).to_bits(),
                "adopted objective at delta {applied}"
            );
        }
    }
    // The closing measurement `rap stream` takes before its summary.
    let serving = maintainer.placement().clone();
    assert_live_matches_snapshot(&mut scenario, &serving, applied);
    maintainer.check(&mut scenario);

    let stats = maintainer.stats();
    let raps: Vec<u32> = maintainer
        .placement()
        .iter()
        .map(|v| v.index() as u32)
        .collect();
    assert_eq!(
        (stats.checks, stats.repairs, stats.resolves),
        (CHECKS, REPAIRS, RESOLVES),
        "maintenance counters"
    );
    assert_eq!(raps, FINAL_RAPS, "final placement");
    assert_eq!(
        maintainer.objective().to_bits(),
        FINAL_OBJECTIVE_BITS,
        "final objective {}",
        maintainer.objective()
    );
}

#[test]
fn maintained_placement_stays_within_five_percent_of_a_fresh_greedy() {
    const K: usize = 10;
    const DELTAS: usize = 10_000;
    const CHECKPOINT_EVERY: usize = 1_000;
    const SEED: u64 = 2015;
    /// Largest tolerated shortfall against the fresh greedy.
    const GAP_TOLERANCE: f64 = 0.05;

    let mut scenario = grid_city(20, 400, 0.001, 42, 5_000);
    let cfg = MaintainerConfig {
        k: K,
        seed: SEED,
        ..MaintainerConfig::default()
    };
    let mut maintainer = Maintainer::new(cfg, &mut scenario).unwrap();
    let drift = SyntheticDrift::new(
        scenario.graph().node_count() as u32,
        scenario.live_stable_ids(),
        scenario.next_stable_id(),
        DELTAS,
        SEED,
    );
    let mut applied = 0usize;
    for delta in drift {
        let StreamDelta::Flow(delta) = delta else {
            unreachable!("synthetic drift never forces a compaction");
        };
        scenario.apply(&delta).unwrap();
        applied += 1;
        maintainer.note_delta(&mut scenario);
        if applied.is_multiple_of(CHECKPOINT_EVERY) {
            let snap = scenario.snapshot();
            let maintained = snap.evaluate(maintainer.placement());
            let fresh = LazyGreedy.place(&snap, K, &mut StdRng::seed_from_u64(SEED));
            let oracle = snap.evaluate(&fresh);
            assert!(
                maintained >= (1.0 - GAP_TOLERANCE) * oracle,
                "maintained {maintained} fell more than 5% behind the fresh greedy's \
                 {oracle} at delta {applied}"
            );
        }
    }
    assert_eq!(applied, DELTAS, "the drift source must emit every delta");
}
