//! Spatial tiling: cache-local cell shards over a road graph.
//!
//! Metro-scale preprocessing walks the graph many times — one early-exit
//! tree per distinct flow origin, one detour fill pass per node. At a
//! million nodes the working set of a single tree no longer fits any cache,
//! so *where* consecutive walks start matters: two trees grown from nearby
//! intersections touch largely the same adjacency rows, two trees grown
//! from opposite ends of the city share nothing.
//!
//! [`TileGrid`] partitions the bounding box into square cells sized for a
//! target node count and assigns every intersection to its cell. Routing
//! uses it to order its work: flow origin groups are processed in tile
//! order, so consecutive shortest-path trees start in the same cell and
//! reuse warm adjacency. Processing order does not affect results (each
//! origin's tree is independent), so tiled routing stays bit-identical.
//!
//! The partition is geometric only; it never changes edge weights or ids,
//! so every invariant of the shortest-path engine is untouched.

use crate::graph::RoadGraph;
use crate::node::NodeId;

/// A spatial partition of a graph's intersections into rectangular cells.
#[derive(Clone, Debug)]
pub struct TileGrid {
    tile_cols: u32,
    tile_rows: u32,
    /// Cell side length in coordinate units (feet for the city models).
    cell: f64,
    /// Per node: its tile id (row-major over the tile grid).
    tile_of: Vec<u32>,
    /// CSR grouping of nodes by tile: tile `t`'s members are
    /// `nodes[offsets[t] as usize .. offsets[t + 1] as usize]`, ascending.
    offsets: Vec<u32>,
    nodes: Vec<NodeId>,
}

impl TileGrid {
    /// Partitions `graph` into square cells sized so that an average cell
    /// holds roughly `target_nodes_per_tile` intersections (clamped to at
    /// least one cell, at most one cell per node).
    ///
    /// An empty graph yields a zero-tile grid; degenerate geometry (all
    /// nodes collinear or coincident) collapses to a single row or column.
    pub fn build(graph: &RoadGraph, target_nodes_per_tile: usize) -> Self {
        let n = graph.node_count();
        let Some(bb) = graph.bounding_box() else {
            return Self::empty();
        };
        let w = (bb.max.x - bb.min.x).max(0.0);
        let h = (bb.max.y - bb.min.y).max(0.0);
        let target = target_nodes_per_tile.max(1) as f64;
        // Square cells from the average density; degenerate extents fall
        // back to slicing the non-degenerate axis (or one cell overall).
        let area = w * h;
        let cell = if area > 0.0 {
            (area * target / n as f64).sqrt()
        } else {
            (w.max(h) * target / n as f64).max(1.0)
        };
        let cell = cell.max(f64::MIN_POSITIVE);
        let mut tile_cols = ((w / cell).ceil() as u32).max(1);
        let mut tile_rows = ((h / cell).ceil() as u32).max(1);
        // Never more tiles than nodes: shrink the finer axis until the
        // partition is sane for sparse geometries.
        while (tile_cols as u64) * (tile_rows as u64) > n as u64 && tile_cols * tile_rows > 1 {
            if tile_cols >= tile_rows && tile_cols > 1 {
                tile_cols = tile_cols.div_ceil(2);
            } else {
                tile_rows = tile_rows.div_ceil(2);
            }
        }
        // Recompute the effective cell so the grid covers the box exactly.
        let cell = (w / tile_cols as f64).max(h / tile_rows as f64).max(1.0);
        Self::assemble(graph, bb.min.x, bb.min.y, cell, tile_cols, tile_rows)
    }

    /// Partitions `graph` into square cells of exactly `cell` coordinate
    /// units, anchored at the bounding box minimum.
    ///
    /// Generators that lay out their graph on a known pitch (the metro
    /// generator numbers nodes block-major over `block × block` node
    /// super-blocks) use this to get tiles that coincide with their blocks.
    /// [`TileGrid::build`]'s density-derived cell would land *near* the
    /// natural pitch but not on it, splitting blocks across tiles.
    ///
    /// Unlike [`TileGrid::build`] there is no tile-count clamp: the caller
    /// vouches that `cell` is sane for the geometry.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is not a positive finite number.
    pub fn with_cell(graph: &RoadGraph, cell: f64) -> Self {
        assert!(
            cell.is_finite() && cell > 0.0,
            "tile cell must be positive and finite, got {cell}"
        );
        let Some(bb) = graph.bounding_box() else {
            return Self::empty();
        };
        let w = (bb.max.x - bb.min.x).max(0.0);
        let h = (bb.max.y - bb.min.y).max(0.0);
        // floor + 1 (not ceil) so a node sitting exactly on the max edge
        // still clamps into the last column/row.
        let tile_cols = (w / cell) as u32 + 1;
        let tile_rows = (h / cell) as u32 + 1;
        Self::assemble(graph, bb.min.x, bb.min.y, cell, tile_cols, tile_rows)
    }

    fn empty() -> Self {
        TileGrid {
            tile_cols: 0,
            tile_rows: 0,
            cell: 1.0,
            tile_of: Vec::new(),
            offsets: vec![0],
            nodes: Vec::new(),
        }
    }

    fn assemble(
        graph: &RoadGraph,
        min_x: f64,
        min_y: f64,
        cell: f64,
        tile_cols: u32,
        tile_rows: u32,
    ) -> Self {
        let n = graph.node_count();
        let tiles = (tile_cols as usize) * (tile_rows as usize);
        let mut tile_of = Vec::with_capacity(n);
        for v in graph.nodes() {
            let p = graph.point(v);
            let col = (((p.x - min_x) / cell) as u32).min(tile_cols - 1);
            let row = (((p.y - min_y) / cell) as u32).min(tile_rows - 1);
            tile_of.push(row * tile_cols + col);
        }
        // Counting sort into the CSR grouping; node ids stay ascending
        // within each tile.
        let mut counts = vec![0u32; tiles + 1];
        for &t in &tile_of {
            counts[t as usize + 1] += 1;
        }
        for i in 0..tiles {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut nodes = vec![NodeId::new(0); n];
        for (v, &t) in tile_of.iter().enumerate() {
            nodes[cursor[t as usize] as usize] = NodeId::new(v as u32);
            cursor[t as usize] += 1;
        }
        TileGrid {
            tile_cols,
            tile_rows,
            cell,
            tile_of,
            offsets,
            nodes,
        }
    }

    /// Number of intersections in the graph the grid was built for.
    pub fn node_count(&self) -> usize {
        self.tile_of.len()
    }

    /// Number of cells in the partition.
    pub fn tile_count(&self) -> usize {
        (self.tile_cols as usize) * (self.tile_rows as usize)
    }

    /// Tile-grid dimensions as `(columns, rows)`.
    pub fn dims(&self) -> (u32, u32) {
        (self.tile_cols, self.tile_rows)
    }

    /// Cell side length in coordinate units.
    pub fn cell_size(&self) -> f64 {
        self.cell
    }

    /// The tile containing `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the graph the grid was built for.
    pub fn tile_of(&self, node: NodeId) -> u32 {
        self.tile_of[node.index()]
    }

    /// Members of `tile`, ascending by node id (empty for out-of-range
    /// tiles).
    pub fn nodes_in_tile(&self, tile: u32) -> &[NodeId] {
        let t = tile as usize;
        if t + 1 >= self.offsets.len() {
            return &[];
        }
        &self.nodes[self.offsets[t] as usize..self.offsets[t + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Point;
    use crate::graph::GraphBuilder;
    use crate::grid::GridGraph;
    use crate::node::Distance;

    #[test]
    fn every_node_lands_in_exactly_one_tile() {
        let grid = GridGraph::new(10, 14, Distance::from_feet(100));
        let g = grid.graph();
        let tiles = TileGrid::build(g, 12);
        assert!(tiles.tile_count() >= 2);
        let mut seen = vec![false; g.node_count()];
        for t in 0..tiles.tile_count() as u32 {
            for &v in tiles.nodes_in_tile(t) {
                assert_eq!(tiles.tile_of(v), t);
                assert!(!seen[v.index()], "node {v} in two tiles");
                seen[v.index()] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn a_target_above_the_node_count_gives_one_tile() {
        let grid = GridGraph::new(4, 4, Distance::from_feet(50));
        let tiles = TileGrid::build(grid.graph(), 1_000);
        assert_eq!(tiles.tile_count(), 1);
        let all: Vec<NodeId> = (0..16).map(NodeId::new).collect();
        assert_eq!(tiles.nodes_in_tile(0), &all[..]);
    }

    #[test]
    fn with_cell_coincides_with_generator_blocks() {
        // Block-major ids: nodes laid out one block of two columns at a
        // time. An exact 200 ft cell puts each block in its own tile.
        let mut b = GraphBuilder::new();
        for block in 0..6 {
            for c in 0..2 {
                for r in 0..4 {
                    b.add_node(Point::new((block * 2 + c) as f64 * 100.0, r as f64 * 10.0));
                }
            }
        }
        let g = b.build();
        let tiles = TileGrid::with_cell(&g, 200.0);
        assert_eq!(tiles.dims().1, 1);
        for block in 0..6u32 {
            for i in 0..8 {
                assert_eq!(tiles.tile_of(NodeId::new(block * 8 + i)), block);
            }
        }
        // Nodes on the bounding-box max edge clamp into the last tile.
        assert_eq!(tiles.dims().0, 6);
    }

    #[test]
    #[should_panic(expected = "tile cell must be positive")]
    fn with_cell_rejects_nonpositive_cells() {
        let grid = GridGraph::new(2, 2, Distance::from_feet(10));
        let _ = TileGrid::with_cell(grid.graph(), 0.0);
    }

    #[test]
    fn empty_graph_yields_zero_tiles() {
        let g = GraphBuilder::new().build();
        let tiles = TileGrid::build(&g, 10);
        assert_eq!(tiles.tile_count(), 0);
        assert_eq!(tiles.node_count(), 0);
        assert!(tiles.nodes_in_tile(0).is_empty());
    }

    #[test]
    fn coincident_points_collapse_to_one_tile() {
        let mut b = GraphBuilder::new();
        for _ in 0..5 {
            b.add_node(Point::new(3.0, 4.0));
        }
        let g = b.build();
        let tiles = TileGrid::build(&g, 2);
        assert_eq!(tiles.tile_count(), 1);
        assert_eq!(tiles.nodes_in_tile(0).len(), 5);
    }
}
