//! All-pairs shortest paths.
//!
//! The paper's complexity analysis charges `O(|V|³)` for "the calculation of
//! shortest paths between all pairs of nodes". We provide:
//!
//! * [`DistanceMatrix::dijkstra_all`] — `|V|` Dijkstra runs,
//!   `O(|V|·(|V|+|E|)·log|V|)`, the practical choice on sparse road networks;
//! * [`DistanceMatrix::floyd_warshall`] — the classical `O(|V|³)` dynamic
//!   program, kept as an independent reference implementation that the test
//!   suite cross-checks both Dijkstra kernels against.

use crate::dijkstra::Direction;
use crate::graph::RoadGraph;
use crate::node::{Distance, NodeId};
use crate::sssp::{SsspKernel, SsspWorkspace};

/// A dense matrix of exact pairwise shortest distances.
///
/// Row `u`, column `v` holds the shortest u→v distance; unreachable pairs
/// report `None` via [`DistanceMatrix::get`].
///
/// ```
/// use rap_graph::{GraphBuilder, Point, Distance, apsp::DistanceMatrix};
/// # fn main() -> Result<(), rap_graph::GraphError> {
/// let mut b = GraphBuilder::new();
/// let a = b.add_node(Point::new(0.0, 0.0));
/// let c = b.add_node(Point::new(1.0, 0.0));
/// b.add_two_way(a, c, Distance::from_feet(8))?;
/// let g = b.build();
/// let m = DistanceMatrix::dijkstra_all(&g);
/// assert_eq!(m.get(a, c), Some(Distance::from_feet(8)));
/// assert_eq!(m.get(a, a), Some(Distance::ZERO));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct DistanceMatrix {
    n: usize,
    // Row-major, Distance::MAX encodes "unreachable".
    data: Vec<Distance>,
}

impl DistanceMatrix {
    /// Computes all pairs by running forward Dijkstra from every node.
    ///
    /// One reusable [`SsspWorkspace`] serves every run (kernel chosen
    /// automatically from the edge-length spread), and each matrix row is
    /// filled with a straight copy of the workspace's dense distance row
    /// instead of per-node probing.
    pub fn dijkstra_all(graph: &RoadGraph) -> Self {
        let mut ws = SsspWorkspace::for_graph(graph);
        Self::dijkstra_all_in(graph, &mut ws)
    }

    /// [`DistanceMatrix::dijkstra_all`] with an explicitly chosen kernel;
    /// the equivalence tests cross-check both kernels against
    /// Floyd–Warshall.
    pub fn dijkstra_all_with_kernel(graph: &RoadGraph, kernel: SsspKernel) -> Self {
        let mut ws = SsspWorkspace::with_kernel_for_graph(graph, kernel);
        Self::dijkstra_all_in(graph, &mut ws)
    }

    fn dijkstra_all_in(graph: &RoadGraph, ws: &mut SsspWorkspace) -> Self {
        let n = graph.node_count();
        let mut data = vec![Distance::MAX; n * n];
        for (u, row) in data.chunks_mut(n.max(1)).take(n).enumerate() {
            ws.run(graph, NodeId::new(u as u32), Direction::Forward);
            ws.copy_distances_into(row);
        }
        DistanceMatrix { n, data }
    }

    /// Computes all pairs with the Floyd–Warshall dynamic program.
    ///
    /// `O(|V|³)` regardless of sparsity — use only on small graphs and as a
    /// cross-check of both Dijkstra kernels.
    pub fn floyd_warshall(graph: &RoadGraph) -> Self {
        let n = graph.node_count();
        let mut data = vec![Distance::MAX; n * n];
        for i in 0..n {
            data[i * n + i] = Distance::ZERO;
        }
        for e in graph.edges() {
            let cell = &mut data[e.src.index() * n + e.dst.index()];
            if e.length < *cell {
                *cell = e.length;
            }
        }
        for k in 0..n {
            for i in 0..n {
                let dik = data[i * n + k];
                if dik == Distance::MAX {
                    continue;
                }
                for j in 0..n {
                    let through = dik.saturating_add(data[k * n + j]);
                    if through < data[i * n + j] {
                        data[i * n + j] = through;
                    }
                }
            }
        }
        DistanceMatrix { n, data }
    }

    /// Number of nodes the matrix covers.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// The exact shortest u→v distance, or `None` if `v` is unreachable from
    /// `u` or either id is out of bounds.
    pub fn get(&self, u: NodeId, v: NodeId) -> Option<Distance> {
        if u.index() >= self.n || v.index() >= self.n {
            return None;
        }
        let d = self.data[u.index() * self.n + v.index()];
        if d == Distance::MAX {
            None
        } else {
            Some(d)
        }
    }

    /// Returns true if `v` is reachable from `u`.
    pub fn reachable(&self, u: NodeId, v: NodeId) -> bool {
        self.get(u, v).is_some()
    }

    /// Returns true if every ordered pair of nodes is connected (the graph is
    /// strongly connected).
    pub fn strongly_connected(&self) -> bool {
        self.data.iter().all(|&d| d != Distance::MAX)
    }

    /// The largest finite pairwise distance (the graph's diameter restricted
    /// to connected pairs), or `None` for an empty matrix or one with no
    /// finite off-diagonal entries.
    pub fn diameter(&self) -> Option<Distance> {
        self.data
            .iter()
            .filter(|&&d| d != Distance::MAX && d != Distance::ZERO)
            .max()
            .copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Point;
    use crate::graph::GraphBuilder;

    fn sample() -> RoadGraph {
        let mut b = GraphBuilder::new();
        let v: Vec<NodeId> = (0..5)
            .map(|i| b.add_node(Point::new(i as f64, 0.0)))
            .collect();
        b.add_two_way(v[0], v[1], Distance::from_feet(2)).unwrap();
        b.add_two_way(v[1], v[2], Distance::from_feet(3)).unwrap();
        b.add_edge(v[2], v[3], Distance::from_feet(1)).unwrap();
        b.add_edge(v[3], v[0], Distance::from_feet(7)).unwrap();
        // v[4] is an isolated island.
        b.build()
    }

    #[test]
    fn dijkstra_matches_floyd_warshall() {
        let g = sample();
        let a = DistanceMatrix::dijkstra_all(&g);
        let b = DistanceMatrix::floyd_warshall(&g);
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(a.get(u, v), b.get(u, v), "pair ({u}, {v})");
            }
        }
    }

    #[test]
    fn both_kernels_match_floyd_warshall() {
        let g = sample();
        let fw = DistanceMatrix::floyd_warshall(&g);
        for kernel in [SsspKernel::BucketQueue, SsspKernel::BinaryHeap] {
            let m = DistanceMatrix::dijkstra_all_with_kernel(&g, kernel);
            for u in g.nodes() {
                for v in g.nodes() {
                    assert_eq!(m.get(u, v), fw.get(u, v), "{kernel:?} pair ({u}, {v})");
                }
            }
        }
    }

    #[test]
    fn island_is_unreachable() {
        let g = sample();
        let m = DistanceMatrix::dijkstra_all(&g);
        let island = NodeId::new(4);
        assert_eq!(m.get(NodeId::new(0), island), None);
        assert_eq!(m.get(island, NodeId::new(0)), None);
        assert_eq!(m.get(island, island), Some(Distance::ZERO));
        assert!(!m.strongly_connected());
    }

    #[test]
    fn one_way_asymmetry() {
        let g = sample();
        let m = DistanceMatrix::dijkstra_all(&g);
        // 2 -> 3 is one hop; 3 -> 2 must loop 3 -> 0 -> 1 -> 2.
        assert_eq!(
            m.get(NodeId::new(2), NodeId::new(3)),
            Some(Distance::from_feet(1))
        );
        assert_eq!(
            m.get(NodeId::new(3), NodeId::new(2)),
            Some(Distance::from_feet(12))
        );
    }

    #[test]
    fn out_of_bounds_is_none() {
        let g = sample();
        let m = DistanceMatrix::dijkstra_all(&g);
        assert_eq!(m.get(NodeId::new(0), NodeId::new(99)), None);
        assert_eq!(m.get(NodeId::new(99), NodeId::new(0)), None);
    }

    #[test]
    fn diameter_of_line() {
        let mut b = GraphBuilder::new();
        let v: Vec<NodeId> = (0..4)
            .map(|i| b.add_node(Point::new(i as f64, 0.0)))
            .collect();
        for w in v.windows(2) {
            b.add_two_way(w[0], w[1], Distance::from_feet(10)).unwrap();
        }
        let m = DistanceMatrix::dijkstra_all(&b.build());
        assert_eq!(m.diameter(), Some(Distance::from_feet(30)));
        assert!(m.strongly_connected());
    }

    #[test]
    fn empty_graph_matrix() {
        let g = GraphBuilder::new().build();
        let m = DistanceMatrix::dijkstra_all(&g);
        assert_eq!(m.node_count(), 0);
        assert_eq!(m.diameter(), None);
        assert!(m.strongly_connected()); // vacuously
    }
}
