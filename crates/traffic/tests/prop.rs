//! Property-based tests for the traffic substrate.

use proptest::prelude::*;
use rap_graph::apsp::DistanceMatrix;
use rap_graph::landmarks::Landmarks;
use rap_graph::tiles::TileGrid;
use rap_graph::{Distance, GridGraph, NodeId};
use rap_traffic::zones::{ZoneMap, ZoneThresholds};
use rap_traffic::{FlowSet, FlowSpec, RouteOptions, Zone};

#[derive(Debug, Clone)]
struct Demand {
    rows: u32,
    cols: u32,
    flows: Vec<(u32, u32, u32)>,
}

fn arb_demand() -> impl Strategy<Value = Demand> {
    (2u32..7, 2u32..7)
        .prop_flat_map(|(rows, cols)| {
            let n = rows * cols;
            let flows = proptest::collection::vec((0..n, 0..n, 1u32..1_000), 0..12);
            (Just(rows), Just(cols), flows)
        })
        .prop_map(|(rows, cols, flows)| Demand { rows, cols, flows })
}

fn build(d: &Demand) -> (GridGraph, FlowSet) {
    let grid = GridGraph::new(d.rows, d.cols, Distance::from_feet(100));
    let specs: Vec<FlowSpec> = d
        .flows
        .iter()
        .filter(|(o, dd, _)| o != dd)
        .map(|&(o, d, v)| FlowSpec::new(NodeId::new(o), NodeId::new(d), v as f64).expect("valid"))
        .collect();
    let flows = FlowSet::route(grid.graph(), specs).expect("grid routes everything");
    (grid, flows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Routed paths are always shortest paths, by an independent
    /// Floyd–Warshall matrix.
    #[test]
    fn routed_paths_are_shortest(d in arb_demand()) {
        let (grid, flows) = build(&d);
        let truth = DistanceMatrix::floyd_warshall(grid.graph());
        for f in &flows {
            let direct = truth
                .get(f.origin(), f.destination())
                .expect("grid is connected");
            prop_assert_eq!(f.path().length(), direct);
            prop_assert_eq!(f.path().origin(), f.origin());
            prop_assert_eq!(f.path().destination(), f.destination());
        }
    }

    /// The first-visit index is complete and exact: a flow appears at node v
    /// iff its path visits v, with the prefix distance of the first visit.
    #[test]
    fn first_visit_index_is_exact(d in arb_demand()) {
        let (grid, flows) = build(&d);
        for f in &flows {
            for (pos, &v) in f.path().nodes().iter().enumerate() {
                let visit = flows
                    .visits_at(v)
                    .iter()
                    .find(|visit| visit.flow == f.id())
                    .expect("visited node indexed");
                prop_assert!(visit.position as usize <= pos);
                prop_assert_eq!(
                    visit.prefix,
                    f.path().prefix_length(grid.graph(), visit.position as usize)
                );
            }
        }
        // And no phantom entries: every indexed visit is a real path node.
        for v in grid.graph().nodes() {
            for visit in flows.visits_at(v) {
                prop_assert!(flows.flow(visit.flow).path().visits(v));
            }
        }
    }

    /// Volume accounting: per-node volume sums flow volumes; total volume is
    /// the sum over flows.
    #[test]
    fn volume_accounting(d in arb_demand()) {
        let (grid, flows) = build(&d);
        let mut total = 0.0;
        for f in &flows {
            total += f.volume();
        }
        prop_assert!((flows.total_volume() - total).abs() < 1e-9);
        for v in grid.graph().nodes() {
            let by_index: f64 = flows
                .visits_at(v)
                .iter()
                .map(|visit| flows.flow(visit.flow).volume())
                .sum();
            prop_assert!((flows.volume_at(v) - by_index).abs() < 1e-9);
        }
    }

    /// Routing on worker threads is bit-identical to `route` for any
    /// thread count: same flow ids, same specs, same path node sequences,
    /// and the same first-visit index at every node.
    #[test]
    fn threaded_routing_matches_route(d in arb_demand(), threads in 1usize..6) {
        let grid = GridGraph::new(d.rows, d.cols, Distance::from_feet(100));
        let specs: Vec<FlowSpec> = d
            .flows
            .iter()
            .filter(|(o, dd, _)| o != dd)
            .map(|&(o, dst, v)| {
                FlowSpec::new(NodeId::new(o), NodeId::new(dst), v as f64).expect("valid")
            })
            .collect();
        let seq = FlowSet::route(grid.graph(), specs.clone()).expect("grid routes everything");
        let par = FlowSet::route_with(
            grid.graph(),
            specs,
            RouteOptions {
                threads: Some(threads),
                ..RouteOptions::default()
            },
        )
        .expect("grid routes everything");
        prop_assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(par.iter()) {
            prop_assert_eq!(a.id(), b.id());
            prop_assert_eq!(a.origin(), b.origin());
            prop_assert_eq!(a.destination(), b.destination());
            prop_assert!((a.volume() - b.volume()).abs() == 0.0);
            prop_assert_eq!(a.path().nodes(), b.path().nodes());
        }
        for v in grid.graph().nodes() {
            prop_assert_eq!(seq.visits_at(v), par.visits_at(v));
        }
    }

    /// Tile-batched routing — any tile granularity, any worker count, with
    /// and without goal-directed ALT searches — is bit-identical to plain
    /// sequential `route`: same flow ids, same path node sequences, and the
    /// same first-visit index at every node. The tile order only permutes
    /// independent origin groups; a guided search walks the plain search's
    /// predecessor chain to its destination.
    #[test]
    fn tiled_routing_matches_untiled(
        d in arb_demand(),
        threads in 1usize..5,
        target_tiles in 1usize..10,
        alt_flag in 0u8..2,
    ) {
        let grid = GridGraph::new(d.rows, d.cols, Distance::from_feet(100));
        let specs: Vec<FlowSpec> = d
            .flows
            .iter()
            .filter(|(o, dd, _)| o != dd)
            .map(|&(o, dst, v)| {
                FlowSpec::new(NodeId::new(o), NodeId::new(dst), v as f64).expect("valid")
            })
            .collect();
        let untiled =
            FlowSet::route(grid.graph(), specs.clone()).expect("grid routes everything");
        let nodes_per_tile =
            (grid.graph().node_count() / target_tiles).max(1);
        let tiles = TileGrid::build(grid.graph(), nodes_per_tile);
        let landmarks = (alt_flag == 1).then(|| Landmarks::select(grid.graph(), 3));
        let tiled = FlowSet::route_with(
            grid.graph(),
            specs,
            RouteOptions {
                threads: Some(threads),
                landmarks: landmarks.as_ref(),
                tiles: Some(&tiles),
            },
        )
        .expect("grid routes everything");
        prop_assert_eq!(untiled.len(), tiled.len());
        for (a, b) in untiled.iter().zip(tiled.iter()) {
            prop_assert_eq!(a.id(), b.id());
            prop_assert_eq!(a.origin(), b.origin());
            prop_assert_eq!(a.destination(), b.destination());
            prop_assert_eq!(a.path().nodes(), b.path().nodes());
        }
        for v in grid.graph().nodes() {
            prop_assert_eq!(untiled.visits_at(v), tiled.visits_at(v));
        }
    }

    /// Zone classification is a partition ordered by traffic volume:
    /// every center node carries at least as much volume as every city node,
    /// and city nodes at least as much as suburb nodes.
    #[test]
    fn zones_are_volume_ordered(d in arb_demand()) {
        let (grid, flows) = build(&d);
        let zones = ZoneMap::classify(&flows, ZoneThresholds::default());
        prop_assert_eq!(zones.len(), grid.graph().node_count());
        let min_volume = |zone: Zone| {
            zones
                .nodes_in(zone)
                .iter()
                .map(|&v| flows.volume_at(v))
                .fold(f64::INFINITY, f64::min)
        };
        let max_volume = |zone: Zone| {
            zones
                .nodes_in(zone)
                .iter()
                .map(|&v| flows.volume_at(v))
                .fold(0.0f64, f64::max)
        };
        if !zones.nodes_in(Zone::CityCenter).is_empty() && !zones.nodes_in(Zone::City).is_empty() {
            prop_assert!(min_volume(Zone::CityCenter) + 1e-9 >= max_volume(Zone::City));
        }
        if !zones.nodes_in(Zone::City).is_empty() && !zones.nodes_in(Zone::Suburb).is_empty() {
            prop_assert!(min_volume(Zone::City) + 1e-9 >= max_volume(Zone::Suburb));
        }
    }
}
