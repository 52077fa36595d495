//! Tier-1 coverage of the accelerated construction path on the metro
//! layout: `build_scenario` with threads, goal-directed (ALT) routing and a
//! tile grid whose cells coincide with the generator's numbering blocks.
//! Every artifact and the greedy placement must match the plain sequential
//! build bit for bit, and the guided searches must actually settle far
//! fewer nodes.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rap_vcps::graph::landmarks::Landmarks;
use rap_vcps::graph::sssp::SsspWorkspace;
use rap_vcps::graph::tiles::TileGrid;
use rap_vcps::graph::{Direction, Distance, NodeId};
use rap_vcps::placement::{
    build_scenario, BuildMode, BuildOptions, MarginalGreedy, PlacementAlgorithm, UtilityKind,
};
use rap_vcps::trace::{metro, MetroParams};
use rap_vcps::traffic::plan::LANDMARK_COUNT;
use std::collections::{BTreeMap, BTreeSet};

#[test]
fn tile_aligned_metro_build_matches_the_plain_build() {
    let model = metro(MetroParams::smoke(), 2015);
    let tile_cell = model.tile_cell();
    let tiles = TileGrid::with_cell(model.graph(), tile_cell);
    let (graph, specs, shops) = model.into_parts();
    let utility = UtilityKind::Linear.instantiate(Distance::from_feet(2_500));
    let build = |mode, threads, tile_cell| {
        build_scenario(
            graph.clone(),
            specs.clone(),
            shops.clone(),
            utility.clone(),
            &BuildOptions {
                threads,
                mode,
                tile_cell,
            },
        )
        .unwrap()
    };
    let (fast, report) = build(BuildMode::Accelerated, Some(2), Some(tile_cell));
    assert!(report.plan.use_alt && report.plan.use_tiles);
    assert_eq!(report.plan.threads, 2);
    assert_eq!(report.tile_count, tiles.tile_count());
    assert!(report.tile_count > 1, "{} tile(s)", report.tile_count);
    let (plain, _) = build(BuildMode::Plain, None, None);

    assert_eq!(fast.detours().entries(), plain.detours().entries());
    for v in graph.nodes() {
        assert_eq!(
            fast.detours().shop_distance(v),
            plain.detours().shop_distance(v)
        );
    }
    assert_eq!(fast.candidates(), plain.candidates());
    assert_eq!(fast.flows().len(), plain.flows().len());
    for (a, b) in fast.flows().iter().zip(plain.flows().iter()) {
        assert_eq!(a.id(), b.id());
        assert_eq!(
            a.path().nodes(),
            b.path().nodes(),
            "flow {:?} routed differently",
            a.id()
        );
    }

    let place = |scenario| MarginalGreedy.place(scenario, 10, &mut StdRng::seed_from_u64(0));
    let (pf, pp) = (place(&fast), place(&plain));
    assert_eq!(pf.len(), 10);
    assert_eq!(pf, pp, "greedy placement diverged under acceleration");
    assert_eq!(fast.evaluate(&pf).to_bits(), plain.evaluate(&pp).to_bits());
}

/// A landmark bound that silently read zero would still route every path
/// exactly, so no identity check can see it; the settled count can. The
/// searches mirror accelerated routing: one guided run per distinct
/// origin–destination pair, against one plain early-exit run per origin.
#[test]
fn guided_routing_settles_at_least_five_times_fewer_nodes_than_plain() {
    let (graph, specs, _) = metro(MetroParams::smoke(), 2015).into_parts();
    let landmarks = Landmarks::select(&graph, LANDMARK_COUNT);
    let mut ws = SsspWorkspace::for_graph(&graph);

    let mut by_origin: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
    for s in &specs {
        by_origin
            .entry(s.origin())
            .or_default()
            .push(s.destination());
    }
    let mut plain = 0u64;
    for (&origin, targets) in &by_origin {
        ws.run_to_targets(&graph, origin, Direction::Forward, targets);
        plain += ws.last_run_settled();
    }

    let pairs: BTreeSet<(NodeId, NodeId)> = specs
        .iter()
        .map(|s| (s.origin(), s.destination()))
        .collect();
    let mut guided = 0u64;
    for &(origin, destination) in &pairs {
        ws.run_to_target_guided(&graph, origin, Direction::Forward, destination, &landmarks);
        assert!(
            ws.distance(destination).is_some(),
            "{origin} -> {destination}"
        );
        guided += ws.last_run_settled();
    }
    assert!(
        plain >= 5 * guided,
        "guided runs settled {guided} nodes, plain runs {plain}: only {:.1}x fewer",
        plain as f64 / guided as f64
    );
}

/// Every node of the metro reaches every other, so farthest-point
/// selection never falls back to an unreached node there: the picks are
/// pinned to the list the selection has always made on this city.
#[test]
fn metro_landmark_picks_are_pinned() {
    let (graph, _, _) = metro(MetroParams::smoke(), 2015).into_parts();
    let picks: Vec<u32> = Landmarks::select(&graph, LANDMARK_COUNT)
        .nodes()
        .iter()
        .map(|v| v.raw())
        .collect();
    assert_eq!(picks, [0, 14399, 3279, 11160, 7179, 12779, 1621, 8839]);
}
