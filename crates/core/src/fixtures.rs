//! Reusable example instances, including the paper's Fig. 4 worked example.
//!
//! These fixtures are public so that integration tests, doc examples, and the
//! experiment harness's self-checks can all verify against the paper's
//! hand-computed numbers.

use crate::scenario::Scenario;
use crate::utility::UtilityKind;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rap_graph::{Distance, GraphBuilder, GridGraph, NodeId, Point};
use rap_traffic::{FlowSet, FlowSpec};

/// A fixed-seed RNG for deterministic tests.
pub fn rng() -> StdRng {
    StdRng::seed_from_u64(0xC0FFEE)
}

/// The street network of the paper's Fig. 4.
///
/// Nodes are numbered to match the paper (`NodeId::new(i)` is the paper's
/// `Vᵢ`; node 0 is an unused spacer so the labels line up). All streets are
/// two-way with unit length:
///
/// ```text
///        V4
///       /  \
/// V1--V2--V3--V5--V6
/// ```
///
/// Edges: V1–V2, V2–V3, V3–V4, V4–V1, V3–V5, V5–V6.
pub fn fig4_graph() -> rap_graph::RoadGraph {
    let mut b = GraphBuilder::new();
    let v0 = b.add_node(Point::new(-1.0, 0.0)); // spacer, unused
    let v1 = b.add_node(Point::new(0.0, 0.0));
    let v2 = b.add_node(Point::new(1.0, 0.0));
    let v3 = b.add_node(Point::new(2.0, 0.0));
    let v4 = b.add_node(Point::new(1.0, 1.0));
    let v5 = b.add_node(Point::new(3.0, 0.0));
    let v6 = b.add_node(Point::new(4.0, 0.0));
    let unit = Distance::from_feet(1);
    b.add_two_way(v1, v2, unit).expect("valid edge");
    b.add_two_way(v2, v3, unit).expect("valid edge");
    b.add_two_way(v3, v4, unit).expect("valid edge");
    b.add_two_way(v4, v1, unit).expect("valid edge");
    b.add_two_way(v3, v5, unit).expect("valid edge");
    b.add_two_way(v5, v6, unit).expect("valid edge");
    // Connect the spacer so the graph is connected (no flow uses it and its
    // detour distances are enormous).
    b.add_two_way(v0, v1, Distance::from_feet(100))
        .expect("valid edge");
    b.build()
}

/// The four traffic flows of Fig. 4 with the paper's volumes and `α = 1`:
/// `T_{2,5} = 6`, `T_{3,5} = 3`, `T_{4,3} = 6`, `T_{5,6} = 5`.
pub fn fig4_flows(graph: &rap_graph::RoadGraph) -> FlowSet {
    let mk = |o: u32, d: u32, vol: f64| {
        FlowSpec::new(NodeId::new(o), NodeId::new(d), vol)
            .expect("valid spec")
            .with_attractiveness(1.0)
            .expect("alpha 1 is valid")
    };
    FlowSet::route(
        graph,
        vec![mk(2, 5, 6.0), mk(3, 5, 3.0), mk(4, 3, 6.0), mk(5, 6, 5.0)],
    )
    .expect("fig4 flows route cleanly")
}

/// The full Fig. 4 scenario: shop at `V1`, `D = 6`, `α = 1`, with the chosen
/// utility kind.
///
/// Hand-checked values (paper Section III-B/C):
///
/// * threshold utility: optimal `k = 2` placement `{V3, V5}` attracts all
///   20 drivers;
/// * linear utility: `{V3, V5}` attracts 5, the naive greedy `{V3, V2}`
///   attracts 7, the optimum `{V2, V4}` attracts 8.
pub fn fig4_scenario(kind: UtilityKind) -> Scenario {
    let graph = fig4_graph();
    let flows = fig4_flows(&graph);
    Scenario::single_shop(
        graph,
        flows,
        NodeId::new(1),
        kind.instantiate(Distance::from_feet(6)),
    )
    .expect("fig4 scenario is valid")
}

/// A deterministic 5×5 grid scenario with commuter-style flows, for tests
/// that need something bigger than Fig. 4 but still exhaustively solvable.
///
/// The grid has 50 ft blocks; the shop sits at the center; flows are ten
/// fixed OD pairs with volumes 100–1000 and `α = 0.01`.
pub fn small_grid_scenario(kind: UtilityKind, threshold: Distance) -> Scenario {
    let grid = GridGraph::new(5, 5, Distance::from_feet(50));
    let mk = |o: u32, d: u32, vol: f64| {
        FlowSpec::new(NodeId::new(o), NodeId::new(d), vol)
            .expect("valid spec")
            .with_attractiveness(0.01)
            .expect("alpha valid")
    };
    let specs = vec![
        mk(0, 24, 1000.0),
        mk(4, 20, 800.0),
        mk(20, 4, 600.0),
        mk(2, 22, 500.0),
        mk(10, 14, 400.0),
        mk(0, 4, 300.0),
        mk(24, 0, 300.0),
        mk(5, 9, 200.0),
        mk(21, 3, 150.0),
        mk(15, 19, 100.0),
    ];
    let flows = FlowSet::route(grid.graph(), specs).expect("grid flows route");
    Scenario::single_shop(
        grid.graph().clone(),
        flows,
        NodeId::new(12),
        kind.instantiate(threshold),
    )
    .expect("grid scenario is valid")
}

/// Recomputes every section checksum of a snapshot, then its header
/// checksum, trusting the directory's offsets and lengths. After an edit
/// inside a section the bytes pass every checksum again, so a test can
/// reach the decoders' checks on the decoded state.
///
/// # Panics
///
/// Panics if the directory points outside `bytes`.
pub fn reseal_snapshot(bytes: &mut [u8]) {
    crate::snapshot::reseal(bytes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::Placement;

    #[test]
    fn fig4_graph_distances_match_paper() {
        let g = fig4_graph();
        let d = |a: u32, b: u32| {
            rap_graph::sssp::shortest_path(&g, NodeId::new(a), NodeId::new(b))
                .unwrap()
                .length()
        };
        assert_eq!(d(3, 1), Distance::from_feet(2)); // V3 to shop via V2 or V4
        assert_eq!(d(5, 1), Distance::from_feet(3));
        assert_eq!(d(6, 1), Distance::from_feet(4));
        assert_eq!(d(2, 5), Distance::from_feet(2));
    }

    #[test]
    fn fig4_detours_match_paper() {
        let s = fig4_scenario(UtilityKind::Linear);
        let t25 = rap_traffic::FlowId::new(0);
        let t35 = rap_traffic::FlowId::new(1);
        let t43 = rap_traffic::FlowId::new(2);
        let t56 = rap_traffic::FlowId::new(3);
        let det = |v: u32, f| s.detours().detour_of(NodeId::new(v), f).unwrap();
        // Section III-C hand computations.
        assert_eq!(det(3, t25), Distance::from_feet(4));
        assert_eq!(det(2, t25), Distance::from_feet(2));
        assert_eq!(det(3, t35), Distance::from_feet(4));
        assert_eq!(det(5, t35), Distance::from_feet(6));
        assert_eq!(det(3, t43), Distance::from_feet(4));
        assert_eq!(det(4, t43), Distance::from_feet(2));
        assert_eq!(det(5, t56), Distance::from_feet(6));
        assert_eq!(det(6, t56), Distance::from_feet(8)); // V6 excluded by D=6
    }

    #[test]
    fn fig4_threshold_objective_values() {
        let s = fig4_scenario(UtilityKind::Threshold);
        // {V3, V5} covers all flows: 6 + 3 + 6 + 5 = 20.
        let p = Placement::new(vec![NodeId::new(3), NodeId::new(5)]);
        assert!((s.evaluate(&p) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn fig4_linear_objective_values() {
        let s = fig4_scenario(UtilityKind::Linear);
        // Paper Section III-C: {V3, V5} -> 5; {V3, V2} -> 7; {V2, V4} -> 8.
        let eval = |nodes: &[u32]| {
            s.evaluate(&Placement::new(
                nodes.iter().map(|&n| NodeId::new(n)).collect(),
            ))
        };
        assert!((eval(&[3, 5]) - 5.0).abs() < 1e-9);
        assert!((eval(&[3, 2]) - 7.0).abs() < 1e-9);
        assert!((eval(&[2, 4]) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn small_grid_scenario_is_consistent() {
        let s = small_grid_scenario(UtilityKind::Linear, Distance::from_feet(200));
        assert_eq!(s.flows().len(), 10);
        assert!(!s.candidates().is_empty());
    }
}
