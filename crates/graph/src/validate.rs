//! Graph health validation and summary reports.
//!
//! Generated city models should be sane before experiments consume them:
//! strongly connected (else flows silently drop) and with plausible
//! intersection degrees. [`GraphReport::analyze`] gathers these checks into
//! one structure.

use crate::connectivity::Components;
use crate::graph::RoadGraph;
use crate::node::Distance;
use std::fmt;

/// A structural health report for a road graph.
#[derive(Clone, Debug)]
pub struct GraphReport {
    /// Number of intersections.
    pub nodes: usize,
    /// Number of directed street segments.
    pub edges: usize,
    /// Number of strongly connected components.
    pub components: usize,
    /// Size of the largest strongly connected component.
    pub largest_component: usize,
    /// Minimum out-degree over all intersections.
    pub min_out_degree: usize,
    /// Maximum out-degree over all intersections.
    pub max_out_degree: usize,
    /// Mean out-degree.
    pub mean_out_degree: f64,
    /// Shortest street segment.
    pub min_edge: Distance,
    /// Longest street segment.
    pub max_edge: Distance,
    /// Number of isolated intersections (degree 0 both ways).
    pub isolated: usize,
}

impl GraphReport {
    /// Analyzes `graph`.
    pub fn analyze(graph: &RoadGraph) -> Self {
        let nodes = graph.node_count();
        let edges = graph.edge_count();
        let comps = Components::compute(graph);
        let (mut min_deg, mut max_deg, mut total_deg) = (usize::MAX, 0usize, 0usize);
        let mut isolated = 0usize;
        for v in graph.nodes() {
            let d = graph.out_degree(v);
            min_deg = min_deg.min(d);
            max_deg = max_deg.max(d);
            total_deg += d;
            if d == 0 && graph.in_degree(v) == 0 {
                isolated += 1;
            }
        }
        if nodes == 0 {
            min_deg = 0;
        }
        let (mut min_edge, mut max_edge) = (Distance::MAX, Distance::ZERO);
        for e in graph.edges() {
            min_edge = min_edge.min(e.length);
            max_edge = max_edge.max(e.length);
        }
        if edges == 0 {
            min_edge = Distance::ZERO;
        }
        GraphReport {
            nodes,
            edges,
            components: comps.count(),
            largest_component: comps.largest_component().len(),
            min_out_degree: min_deg,
            max_out_degree: max_deg,
            mean_out_degree: if nodes > 0 {
                total_deg as f64 / nodes as f64
            } else {
                0.0
            },
            min_edge,
            max_edge,
            isolated,
        }
    }

    /// True when the graph is usable as a city model: non-empty, strongly
    /// connected, no isolated intersections.
    pub fn is_healthy(&self) -> bool {
        self.nodes > 0 && self.components == 1 && self.isolated == 0
    }
}

impl fmt::Display for GraphReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} nodes, {} edges, {} scc (largest {}), out-degree {}..{} \
             (mean {:.1}), edges {}..{}, {} isolated",
            self.nodes,
            self.edges,
            self.components,
            self.largest_component,
            self.min_out_degree,
            self.max_out_degree,
            self.mean_out_degree,
            self.min_edge,
            self.max_edge,
            self.isolated
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::geometry::Point;
    use crate::graph::GraphBuilder;
    use crate::grid::GridGraph;
    use crate::node::NodeId;

    #[test]
    fn grid_is_healthy() {
        let g = GridGraph::new(4, 4, Distance::from_feet(100)).into_graph();
        let r = GraphReport::analyze(&g);
        assert!(r.is_healthy());
        assert_eq!(r.nodes, 16);
        assert_eq!(r.components, 1);
        assert_eq!(r.min_out_degree, 2);
        assert_eq!(r.max_out_degree, 4);
        assert_eq!(r.min_edge, Distance::from_feet(100));
        assert_eq!(r.max_edge, Distance::from_feet(100));
        assert_eq!(r.isolated, 0);
        let text = r.to_string();
        assert!(text.contains("16 nodes"));
    }

    #[test]
    fn generators_produce_healthy_graphs() {
        let city =
            generators::radial_ring_city(Point::ORIGIN, generators::RadialRingParams::default(), 4);
        assert!(GraphReport::analyze(&city).is_healthy());
        let grid = generators::perturbed_grid(generators::PerturbedGridParams::default(), 4);
        assert!(GraphReport::analyze(&grid).is_healthy());
    }

    #[test]
    fn detects_isolation_and_disconnection() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(1.0, 0.0));
        b.add_two_way(a, c, Distance::from_feet(1)).unwrap();
        b.add_node(Point::new(9.0, 9.0)); // isolated
        let r = GraphReport::analyze(&b.build());
        assert!(!r.is_healthy());
        assert_eq!(r.components, 2);
        assert_eq!(r.isolated, 1);
        assert_eq!(r.largest_component, 2);
    }

    #[test]
    fn one_way_cycle_detected_as_connected() {
        let mut b = GraphBuilder::new();
        let v: Vec<NodeId> = (0..3)
            .map(|i| b.add_node(Point::new(i as f64, 0.0)))
            .collect();
        b.add_edge(v[0], v[1], Distance::from_feet(1)).unwrap();
        b.add_edge(v[1], v[2], Distance::from_feet(1)).unwrap();
        b.add_edge(v[2], v[0], Distance::from_feet(1)).unwrap();
        let r = GraphReport::analyze(&b.build());
        assert!(r.is_healthy());
        assert_eq!(r.min_out_degree, 1);
    }

    #[test]
    fn empty_graph_report() {
        let r = GraphReport::analyze(&GraphBuilder::new().build());
        assert!(!r.is_healthy());
        assert_eq!(r.nodes, 0);
        assert_eq!(r.min_out_degree, 0);
        assert_eq!(r.min_edge, Distance::ZERO);
    }
}
