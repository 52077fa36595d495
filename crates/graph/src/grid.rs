//! Manhattan-grid street networks (paper Section IV).
//!
//! A [`GridGraph`] is a `rows × cols` lattice of intersections joined by
//! two-way streets of uniform block length. It keeps the (row, col) ↔
//! [`NodeId`] correspondence so the Manhattan-specific algorithms can reason
//! geometrically (corners, straight streets, turned flows).

use crate::geometry::Point;
use crate::graph::{GraphBuilder, RoadGraph};
use crate::node::{Distance, NodeId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A (row, column) position in a grid; row 0 is the south edge, column 0 the
/// west edge.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct GridPos {
    /// Row index (south → north).
    pub row: u32,
    /// Column index (west → east).
    pub col: u32,
}

impl GridPos {
    /// Creates a grid position.
    pub const fn new(row: u32, col: u32) -> Self {
        GridPos { row, col }
    }

    /// L1 distance in blocks to `other`.
    pub fn block_distance(self, other: GridPos) -> u32 {
        self.row.abs_diff(other.row) + self.col.abs_diff(other.col)
    }
}

impl fmt::Display for GridPos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(r{}, c{})", self.row, self.col)
    }
}

/// A Manhattan-grid street network with uniform block length.
///
/// ```
/// use rap_graph::{GridGraph, GridPos, Distance};
/// let grid = GridGraph::new(3, 3, Distance::from_feet(100));
/// let center = grid.node_at(GridPos::new(1, 1)).unwrap();
/// assert_eq!(grid.graph().out_degree(center), 4);
/// assert_eq!(grid.pos_of(center), GridPos::new(1, 1));
/// ```
#[derive(Clone, Debug)]
pub struct GridGraph {
    graph: RoadGraph,
    rows: u32,
    cols: u32,
    spacing: Distance,
}

impl GridGraph {
    /// Builds a `rows × cols` grid with two-way streets of length `spacing`
    /// between adjacent intersections.
    ///
    /// Node ids are assigned row-major: `id = row * cols + col`.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero, or if `spacing` is zero.
    pub fn new(rows: u32, cols: u32, spacing: Distance) -> Self {
        assert!(rows > 0 && cols > 0, "grid dimensions must be positive");
        assert!(!spacing.is_zero(), "grid spacing must be positive");
        let mut b = GraphBuilder::with_capacity(
            (rows * cols) as usize,
            (2 * (rows * (cols - 1) + cols * (rows - 1))) as usize,
        );
        for r in 0..rows {
            for c in 0..cols {
                b.add_node(Point::new(
                    c as f64 * spacing.feet() as f64,
                    r as f64 * spacing.feet() as f64,
                ));
            }
        }
        let id = |r: u32, c: u32| NodeId::new(r * cols + c);
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    b.add_two_way(id(r, c), id(r, c + 1), spacing)
                        .expect("grid edges are valid by construction");
                }
                if r + 1 < rows {
                    b.add_two_way(id(r, c), id(r + 1, c), spacing)
                        .expect("grid edges are valid by construction");
                }
            }
        }
        GridGraph {
            graph: b.build(),
            rows,
            cols,
            spacing,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// Block length between adjacent intersections.
    pub fn spacing(&self) -> Distance {
        self.spacing
    }

    /// The underlying road graph.
    pub fn graph(&self) -> &RoadGraph {
        &self.graph
    }

    /// Consumes the grid, returning the underlying road graph.
    pub fn into_graph(self) -> RoadGraph {
        self.graph
    }

    /// The node at a grid position, or `None` if out of range.
    pub fn node_at(&self, pos: GridPos) -> Option<NodeId> {
        if pos.row < self.rows && pos.col < self.cols {
            Some(NodeId::new(pos.row * self.cols + pos.col))
        } else {
            None
        }
    }

    /// The grid position of a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds for this grid.
    pub fn pos_of(&self, node: NodeId) -> GridPos {
        assert!(
            node.index() < (self.rows * self.cols) as usize,
            "node {node} out of bounds for {}x{} grid",
            self.rows,
            self.cols
        );
        GridPos {
            row: node.raw() / self.cols,
            col: node.raw() % self.cols,
        }
    }

    /// The four corner intersections in order SW, SE, NE, NW.
    pub fn corners(&self) -> [NodeId; 4] {
        [
            self.node_at(GridPos::new(0, 0)).expect("corner exists"),
            self.node_at(GridPos::new(0, self.cols - 1))
                .expect("corner exists"),
            self.node_at(GridPos::new(self.rows - 1, self.cols - 1))
                .expect("corner exists"),
            self.node_at(GridPos::new(self.rows - 1, 0))
                .expect("corner exists"),
        ]
    }

    /// The center-most intersection (rounding toward the south-west on even
    /// dimensions) — where the paper's Manhattan formulation puts the shop.
    pub fn center(&self) -> NodeId {
        self.node_at(GridPos::new((self.rows - 1) / 2, (self.cols - 1) / 2))
            .expect("center exists")
    }

    /// Returns true if `node` lies on the outer boundary of the grid.
    pub fn is_boundary(&self, node: NodeId) -> bool {
        let p = self.pos_of(node);
        p.row == 0 || p.row == self.rows - 1 || p.col == 0 || p.col == self.cols - 1
    }

    /// Exact street distance between two grid nodes (L1 in blocks times the
    /// spacing) — in a uniform grid this equals the shortest-path distance.
    pub fn street_distance(&self, a: NodeId, b: NodeId) -> Distance {
        let pa = self.pos_of(a);
        let pb = self.pos_of(b);
        self.spacing * pa.block_distance(pb) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sssp::shortest_path;

    #[test]
    fn dimensions_and_ids() {
        let g = GridGraph::new(3, 4, Distance::from_feet(50));
        assert_eq!(g.rows(), 3);
        assert_eq!(g.cols(), 4);
        assert_eq!(g.graph().node_count(), 12);
        // Interior horizontal edges: 3 rows * 3 = 9; vertical: 2 * 4 = 8.
        // Each two-way, so 2 * 17 = 34 directed edges.
        assert_eq!(g.graph().edge_count(), 34);
        let n = g.node_at(GridPos::new(2, 3)).unwrap();
        assert_eq!(n, NodeId::new(11));
        assert_eq!(g.pos_of(n), GridPos::new(2, 3));
        assert_eq!(g.node_at(GridPos::new(3, 0)), None);
        assert_eq!(g.node_at(GridPos::new(0, 4)), None);
    }

    #[test]
    fn degrees() {
        let g = GridGraph::new(3, 3, Distance::from_feet(10));
        let corner = g.node_at(GridPos::new(0, 0)).unwrap();
        let edge_mid = g.node_at(GridPos::new(0, 1)).unwrap();
        let center = g.node_at(GridPos::new(1, 1)).unwrap();
        assert_eq!(g.graph().out_degree(corner), 2);
        assert_eq!(g.graph().out_degree(edge_mid), 3);
        assert_eq!(g.graph().out_degree(center), 4);
    }

    #[test]
    fn street_distance_equals_dijkstra() {
        let g = GridGraph::new(5, 6, Distance::from_feet(100));
        let a = g.node_at(GridPos::new(0, 0)).unwrap();
        let b = g.node_at(GridPos::new(4, 5)).unwrap();
        let path = shortest_path(g.graph(), a, b).unwrap();
        assert_eq!(path.length(), g.street_distance(a, b));
        assert_eq!(g.street_distance(a, b), Distance::from_feet(900));
    }

    #[test]
    fn corners_and_center() {
        let g = GridGraph::new(5, 5, Distance::from_feet(10));
        let [sw, se, ne, nw] = g.corners();
        assert_eq!(g.pos_of(sw), GridPos::new(0, 0));
        assert_eq!(g.pos_of(se), GridPos::new(0, 4));
        assert_eq!(g.pos_of(ne), GridPos::new(4, 4));
        assert_eq!(g.pos_of(nw), GridPos::new(4, 0));
        assert_eq!(g.pos_of(g.center()), GridPos::new(2, 2));
        for c in g.corners() {
            assert!(g.is_boundary(c));
        }
        assert!(!g.is_boundary(g.center()));
    }

    #[test]
    fn coordinates_follow_spacing() {
        let g = GridGraph::new(2, 2, Distance::from_feet(250));
        let ne = g.node_at(GridPos::new(1, 1)).unwrap();
        let p = g.graph().point(ne);
        assert_eq!(p.x, 250.0);
        assert_eq!(p.y, 250.0);
    }

    #[test]
    fn block_distance() {
        let a = GridPos::new(1, 2);
        let b = GridPos::new(4, 0);
        assert_eq!(a.block_distance(b), 5);
        assert_eq!(b.block_distance(a), 5);
        assert_eq!(a.block_distance(a), 0);
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_dimension_panics() {
        let _ = GridGraph::new(0, 3, Distance::from_feet(1));
    }

    #[test]
    #[should_panic(expected = "spacing must be positive")]
    fn zero_spacing_panics() {
        let _ = GridGraph::new(2, 2, Distance::ZERO);
    }

    #[test]
    fn single_cell_grid() {
        let g = GridGraph::new(1, 1, Distance::from_feet(1));
        assert_eq!(g.graph().node_count(), 1);
        assert_eq!(g.graph().edge_count(), 0);
        assert_eq!(g.center(), NodeId::new(0));
        assert!(g.is_boundary(NodeId::new(0)));
    }
}
