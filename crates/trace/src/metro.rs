//! Metro-scale synthetic city: a million-intersection street grid with
//! trace-shaped demand.
//!
//! The Dublin/Seattle models ([`crate::city`]) reproduce the paper's
//! evaluation substrates — hundreds of intersections, hundreds of journeys.
//! The metro model is the scale target beyond them: a 1000×1000 street grid
//! (≈75 × 75 miles of 400 ft blocks) with 500k flows, sized to exercise the
//! routing hierarchy (goal-directed ALT routing, spatial tiling) rather
//! than the trace pipeline, so it generates demand specs directly instead
//! of round-tripping GPS fixes.
//!
//! Two properties are deliberate:
//!
//! * **Block-major node numbering.** Nodes are emitted one `block × block`
//!   super-block at a time, so node ids are contiguous per block. A
//!   [`TileGrid`](rap_graph::tiles::TileGrid) built with the matching cell
//!   ([`MetroModel::tile_cell`]) is then id-contiguous, which unlocks
//!   tile-aligned detour-table sharding. Plain row-major numbering (what
//!   [`rap_graph::grid::GridGraph`] emits) crosses every tile column once
//!   per node row and can never be tile-clustered.
//! * **Distance-banded demand.** Real urban trips are overwhelmingly local:
//!   each flow picks a trip class — local / district / cross-town, with
//!   class shares and Chebyshev radii from [`MetroParams`] — and a
//!   destination uniform within that radius of its origin. This keeps
//!   per-flow search trees small (the whole point of early-exit routing)
//!   while the cross-town tail still forces metro-diameter searches.
//!
//! Street lengths carry a deterministic per-street jitter so bucket-queue
//! buckets don't degenerate to lockstep multiples of one spacing; node
//! *positions* stay on the exact grid pitch so tile membership is exact.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rap_graph::{Distance, GraphBuilder, NodeId, Point, RoadGraph};
use rap_traffic::FlowSpec;

/// Dimensions and demand mix of a synthetic metro.
#[derive(Clone, Copy, Debug)]
pub struct MetroParams {
    /// Node rows in the street grid.
    pub rows: u32,
    /// Node columns in the street grid.
    pub cols: u32,
    /// Nodes per side of a numbering super-block (and of one spatial tile).
    pub block: u32,
    /// Base street length in feet.
    pub spacing_ft: u64,
    /// Maximum per-street length jitter in feet (uniform in `±jitter_ft`).
    pub jitter_ft: u64,
    /// Demand specs to generate.
    pub flows: usize,
    /// Percent of flows that are local trips (the rest split between
    /// district and cross-town per the two fields below).
    pub local_pct: u32,
    /// Percent of flows that are district trips.
    pub district_pct: u32,
    /// Chebyshev radius of local trips, in grid steps.
    pub local_radius: u32,
    /// Chebyshev radius of district trips, in grid steps.
    pub district_radius: u32,
    /// Chebyshev radius of cross-town trips, in grid steps.
    pub cross_radius: u32,
    /// Shops to place near the city center.
    pub shops: usize,
}

impl MetroParams {
    /// The full metro instance: one million intersections, 500k flows.
    pub fn metro() -> Self {
        MetroParams {
            rows: 1000,
            cols: 1000,
            block: 64,
            spacing_ft: 400,
            jitter_ft: 60,
            flows: 500_000,
            local_pct: 85,
            district_pct: 13,
            local_radius: 24,
            district_radius: 64,
            cross_radius: 120,
            shops: 4,
        }
    }

    /// A CI-sized metro: same shape (block-major numbering, banded demand,
    /// multiple tiles), ~70x fewer intersections.
    pub fn smoke() -> Self {
        MetroParams {
            rows: 120,
            cols: 120,
            block: 40,
            spacing_ft: 400,
            jitter_ft: 60,
            flows: 20_000,
            local_pct: 85,
            district_pct: 13,
            local_radius: 12,
            district_radius: 30,
            cross_radius: 60,
            shops: 3,
        }
    }

    /// Total intersections.
    pub fn node_count(&self) -> usize {
        self.rows as usize * self.cols as usize
    }
}

/// A generated metro: graph, unrouted demand, and central shops.
#[derive(Clone, Debug)]
pub struct MetroModel {
    graph: RoadGraph,
    specs: Vec<FlowSpec>,
    shops: Vec<NodeId>,
    tile_cell: f64,
}

impl MetroModel {
    /// The street network.
    pub fn graph(&self) -> &RoadGraph {
        &self.graph
    }

    /// The unrouted demand specs.
    pub fn specs(&self) -> &[FlowSpec] {
        &self.specs
    }

    /// The shop intersections, near the city center.
    pub fn shops(&self) -> &[NodeId] {
        &self.shops
    }

    /// The natural tile cell size in feet: `block × spacing`. A
    /// [`TileGrid::with_cell`](rap_graph::tiles::TileGrid::with_cell) built
    /// with this cell coincides with the numbering super-blocks, making node
    /// ids tile-clustered.
    pub fn tile_cell(&self) -> f64 {
        self.tile_cell
    }

    /// Decomposes the model into `(graph, specs, shops)` for scenario
    /// construction.
    pub fn into_parts(self) -> (RoadGraph, Vec<FlowSpec>, Vec<NodeId>) {
        (self.graph, self.specs, self.shops)
    }
}

/// Generates a metro deterministically from `params` and `seed`.
///
/// # Panics
///
/// Panics if `params` is degenerate (zero rows/cols/block/spacing, jitter
/// not smaller than spacing, class percentages over 100, or a grid of fewer
/// than two nodes).
pub fn metro(params: MetroParams, seed: u64) -> MetroModel {
    assert!(
        params.rows > 0 && params.cols > 0 && params.block > 0,
        "metro grid dimensions must be positive"
    );
    assert!(
        params.spacing_ft > params.jitter_ft,
        "jitter must stay below the street spacing, got {} >= {}",
        params.jitter_ft,
        params.spacing_ft
    );
    assert!(
        params.local_pct + params.district_pct <= 100,
        "trip class percentages exceed 100"
    );
    assert!(params.node_count() >= 2, "metro needs at least two nodes");
    let mut rng = StdRng::seed_from_u64(seed);
    let (rows, cols, block) = (params.rows, params.cols, params.block);
    let spacing = params.spacing_ft as f64;

    // Nodes, block-major: whole super-blocks in row-major block order, nodes
    // row-major within each block. `ids` maps (row, col) back to the id.
    let mut builder = GraphBuilder::new();
    let mut ids = vec![NodeId::new(0); params.node_count()];
    for block_row in (0..rows).step_by(block as usize) {
        for block_col in (0..cols).step_by(block as usize) {
            for r in block_row..(block_row + block).min(rows) {
                for c in block_col..(block_col + block).min(cols) {
                    let id = builder.add_node(Point::new(c as f64 * spacing, r as f64 * spacing));
                    ids[(r * cols + c) as usize] = id;
                }
            }
        }
    }

    // Two-way streets with per-street length jitter. Node positions stay on
    // the exact pitch; only the *lengths* wobble, so tile membership stays
    // exact while shortest-path distances stop being lockstep multiples of
    // one spacing.
    let at = |r: u32, c: u32| ids[(r * cols + c) as usize];
    let mut street = |a: NodeId, b: NodeId, rng: &mut StdRng| {
        let jitter = if params.jitter_ft > 0 {
            rng.random_range(-(params.jitter_ft as i64)..=params.jitter_ft as i64)
        } else {
            0
        };
        let length = Distance::from_feet((params.spacing_ft as i64 + jitter) as u64);
        builder
            .add_two_way(a, b, length)
            .expect("grid neighbors are distinct in-bounds nodes");
    };
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                street(at(r, c), at(r, c + 1), &mut rng);
            }
            if r + 1 < rows {
                street(at(r, c), at(r + 1, c), &mut rng);
            }
        }
    }
    let graph = builder.build();

    // Banded demand: overwhelmingly local, a district middle, a cross-town
    // tail. Destinations are uniform in the Chebyshev square of the class
    // radius around the origin, clamped to the grid; a degenerate draw
    // (destination == origin) shifts one step instead of rerolling, keeping
    // the generated spec count exact.
    let mut specs = Vec::with_capacity(params.flows);
    for _ in 0..params.flows {
        let origin_r = rng.random_range(0..rows);
        let origin_c = rng.random_range(0..cols);
        let class = rng.random_range(0..100u32);
        let radius = if class < params.local_pct {
            params.local_radius
        } else if class < params.local_pct + params.district_pct {
            params.district_radius
        } else {
            params.cross_radius
        };
        let radius = radius.max(1) as i64;
        let clamp = |v: i64, max: u32| v.clamp(0, max as i64 - 1) as u32;
        let mut dest_r = clamp(origin_r as i64 + rng.random_range(-radius..=radius), rows);
        let mut dest_c = clamp(origin_c as i64 + rng.random_range(-radius..=radius), cols);
        if dest_r == origin_r && dest_c == origin_c {
            if dest_c + 1 < cols {
                dest_c += 1;
            } else {
                dest_c -= 1;
            }
        }
        if dest_r == origin_r && dest_c == origin_c {
            dest_r = if dest_r + 1 < rows {
                dest_r + 1
            } else {
                dest_r - 1
            };
        }
        let volume = rng.random_range(1.0..50.0);
        specs.push(
            FlowSpec::new(at(origin_r, origin_c), at(dest_r, dest_c), volume)
                .expect("metro specs are non-degenerate by construction"),
        );
    }

    // Shops ring the center intersection a few blocks out.
    let center_r = rows / 2;
    let center_c = cols / 2;
    let offset = block.min(rows.min(cols) / 4).max(1);
    let ring = [
        (center_r, center_c),
        (center_r.saturating_sub(offset), center_c),
        (center_r, center_c.saturating_sub(offset)),
        ((center_r + offset).min(rows - 1), center_c),
        (center_r, (center_c + offset).min(cols - 1)),
        (
            center_r.saturating_sub(offset),
            center_c.saturating_sub(offset),
        ),
    ];
    let mut shops: Vec<NodeId> = ring
        .iter()
        .map(|&(r, c)| at(r, c))
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    shops.truncate(params.shops.max(1));

    MetroModel {
        graph,
        specs,
        shops,
        tile_cell: block as f64 * spacing,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rap_graph::tiles::TileGrid;

    fn tiny() -> MetroParams {
        MetroParams {
            rows: 20,
            cols: 28,
            block: 8,
            spacing_ft: 400,
            jitter_ft: 60,
            flows: 300,
            local_pct: 85,
            district_pct: 13,
            local_radius: 3,
            district_radius: 6,
            cross_radius: 12,
            shops: 3,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = metro(tiny(), 9);
        let b = metro(tiny(), 9);
        assert_eq!(a.graph().node_count(), b.graph().node_count());
        assert_eq!(a.specs().len(), b.specs().len());
        for (sa, sb) in a.specs().iter().zip(b.specs()) {
            assert_eq!(sa, sb);
        }
        let c = metro(tiny(), 10);
        assert!(a.specs().iter().zip(c.specs()).any(|(x, y)| x != y));
    }

    #[test]
    fn block_major_ids_are_tile_clustered() {
        let m = metro(tiny(), 1);
        let tiles = TileGrid::with_cell(m.graph(), m.tile_cell());
        assert!(tiles.id_contiguous(), "block-major numbering must tile");
        assert!(tiles.tile_count() > 1);
        // Every street stays within a block or crosses to an adjacent tile;
        // most are intra-tile.
        assert!(tiles.locality(m.graph()) > 0.7);
    }

    #[test]
    fn grid_is_connected_and_sized() {
        let p = tiny();
        let m = metro(p, 2);
        assert_eq!(m.graph().node_count(), p.node_count());
        // Two-way grid: every interior node reaches every other. Spot-check
        // via a corner-to-corner route.
        let path = rap_graph::sssp::shortest_path(
            m.graph(),
            NodeId::new(0),
            NodeId::new(p.node_count() as u32 - 1),
        );
        assert!(path.is_ok());
    }

    #[test]
    fn demand_is_mostly_local() {
        let p = tiny();
        let m = metro(p, 3);
        assert_eq!(m.specs().len(), p.flows);
        let local = m
            .specs()
            .iter()
            .filter(|s| {
                let (o, d) = (s.origin(), s.destination());
                let po = m.graph().point(o);
                let pd = m.graph().point(d);
                let steps = ((po.x - pd.x).abs() / 400.0).max((po.y - pd.y).abs() / 400.0);
                steps <= p.local_radius as f64
            })
            .count();
        // At least the local share (clamping only pulls trips closer).
        assert!(local * 100 >= p.flows * p.local_pct as usize);
    }

    #[test]
    fn shops_sit_near_center() {
        let p = tiny();
        let m = metro(p, 4);
        assert_eq!(m.shops().len(), p.shops);
        let center = Point::new((p.cols / 2) as f64 * 400.0, (p.rows / 2) as f64 * 400.0);
        for &s in m.shops() {
            let pt = m.graph().point(s);
            assert!((pt.x - center.x).abs() <= p.block as f64 * 400.0);
            assert!((pt.y - center.y).abs() <= p.block as f64 * 400.0);
        }
    }

    #[test]
    #[should_panic(expected = "jitter must stay below")]
    fn rejects_jitter_at_or_above_spacing() {
        let mut p = tiny();
        p.jitter_ft = p.spacing_ft;
        let _ = metro(p, 0);
    }
}
