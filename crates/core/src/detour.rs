//! Detour-distance computation (paper Section III-A, Fig. 3).
//!
//! For a flow `T_{i,j}` receiving an advertisement at intersection `v`, the
//! detour distance is
//!
//! ```text
//! d = d' + d'' − d'''
//! ```
//!
//! where `d'` is the shortest distance from `v` to the shop, `d''` from the
//! shop to the destination `j`, and `d'''` from `v` directly to `j`. With
//! multiple shops, the shop minimizing `d' + d''` is used (Section III-A);
//! with multiple RAPs on the path, the *first* RAP attains the minimum detour
//! (Theorem 1), which is why only first visits are tabulated.
//!
//! [`DetourTable::build`] needs exactly two shortest-path runs per shop —
//! one reverse run (distances *to* the shop) and one forward run (distances
//! *from* the shop), kept as dense distance rows (`ShopRows`) — rather
//! than the paper's all-pairs `O(|V|³)` accounting, because flows travel on
//! shortest paths, making `d'''` recoverable as the routed path's remaining
//! length. `ShopRows::detour` is the one place the identity is evaluated.

use crate::error::PlacementError;
use rap_graph::sssp::SsspWorkspace;
use rap_graph::tiles::TileGrid;
use rap_graph::{Direction, Distance, NodeId, RoadGraph};
use rap_traffic::{parallel, FlowId, FlowSet};

/// A flow passing an intersection, with its exact detour distance there.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FlowDetour {
    /// The passing flow.
    pub flow: FlowId,
    /// Position of the (first) visit within the flow's path.
    pub position: u32,
    /// Exact detour distance at this intersection.
    pub detour: Distance,
}

/// Precomputed detour distances of every flow at every intersection it
/// passes, stored in a flat CSR (compressed sparse row) layout.
///
/// Entries for intersection `v` occupy the contiguous slice
/// `entries[offsets[v] .. offsets[v + 1]]`. The flat layout keeps the per-step
/// candidate scans of the greedy algorithms on sequential memory instead of
/// chasing one heap allocation per intersection.
///
/// ```
/// use rap_graph::{GridGraph, Distance, NodeId};
/// use rap_traffic::{FlowSpec, FlowSet};
/// use rap_core::detour::DetourTable;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let grid = GridGraph::new(3, 3, Distance::from_feet(10));
/// let flows = FlowSet::route(
///     grid.graph(),
///     vec![FlowSpec::new(NodeId::new(0), NodeId::new(2), 100.0)?],
/// )?;
/// // Shop at the grid center (node 4).
/// let table = DetourTable::build(grid.graph(), &flows, &[NodeId::new(4)])?;
/// // At the flow's midpoint (node 1): d' = 10 (up to the shop),
/// // d'' = 20 (shop to destination), d''' = 10 (remaining route),
/// // so the detour is 10 + 20 − 10 = 20 ft.
/// let entry = table.entries_at(NodeId::new(1))[0];
/// assert_eq!(entry.detour, Distance::from_feet(20));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct DetourTable {
    /// CSR row starts: node `v`'s entries are `entries[offsets[v] as usize ..
    /// offsets[v + 1] as usize]`. Length `node_count + 1`.
    offsets: Vec<u32>,
    /// All (intersection, flow) entries, grouped by intersection id.
    entries: Vec<FlowDetour>,
    /// `min_s dist(v → shop_s)`, `Distance::MAX` when no shop is reachable.
    to_shop: Vec<Distance>,
    flow_count: usize,
}

impl DetourTable {
    /// Tabulates detour distances for every (intersection, passing flow)
    /// pair.
    ///
    /// Flows for which every shop is unreachable produce no entries: their
    /// detour probability is zero everywhere.
    ///
    /// If a flow's routed path is not a shortest path (possible when the flow
    /// set was assembled with [`FlowSet::from_routed`]), a RAP can sit
    /// *closer* to the destination via the shop than via the remaining route;
    /// the detour is clamped at zero in that case.
    ///
    /// # Errors
    ///
    /// * [`PlacementError::NoShops`] if `shops` is empty.
    /// * [`PlacementError::ShopOutOfBounds`] if a shop is not in the graph.
    pub fn build(
        graph: &RoadGraph,
        flows: &FlowSet,
        shops: &[NodeId],
    ) -> Result<Self, PlacementError> {
        Ok(Self::build_with_rows(graph, flows, shops, 1, None)?.0)
    }

    /// [`DetourTable::build`], additionally returning the per-shop distance
    /// rows it computed. The incremental
    /// [`crate::mutable::MutableScenario`] retains them so that later flow
    /// additions cost one search for the new flow's route instead of a full
    /// table rebuild.
    ///
    /// The per-shop runs fan across `threads` scoped workers (one
    /// reusable `SsspWorkspace` each) and the CSR entries fill is sharded
    /// over visit-mass-balanced node ranges; with `tiles` over tile-clustered
    /// node ids ([`TileGrid::id_contiguous`]) those ranges align to tile
    /// boundaries, so each worker walks whole spatial cells. `threads` is
    /// clamped by the shared thread policy, and the output is bit-identical
    /// at any `threads` and with or without `tiles`: shards are contiguous
    /// id ranges merged in order.
    ///
    /// # Panics
    ///
    /// Panics if `tiles` was built for a graph with a different node count.
    pub(crate) fn build_with_rows(
        graph: &RoadGraph,
        flows: &FlowSet,
        shops: &[NodeId],
        threads: usize,
        tiles: Option<&TileGrid>,
    ) -> Result<(Self, ShopRows), PlacementError> {
        if let Some(tiles) = tiles {
            assert_eq!(
                tiles.node_count(),
                graph.node_count(),
                "tile grid built for a {}-node graph used with a {}-node graph",
                tiles.node_count(),
                graph.node_count()
            );
        }
        if shops.is_empty() {
            return Err(PlacementError::NoShops);
        }
        for &s in shops {
            if !graph.contains_node(s) {
                return Err(PlacementError::ShopOutOfBounds { shop: s });
            }
        }
        let n = graph.node_count();
        // Per shop: distances to the shop (d' at every v) and from the shop
        // (d'' at every destination).
        let rows = ShopRows::build(graph, shops, threads);
        let to_shop = rows.nearest_shop();

        // Per flow: d''(shop, destination) for every shop, precomputed once
        // into one flat `flows × shops` array. Destinations were validated
        // during routing, so the dense rows can be indexed directly.
        let s = shops.len();
        let mut shop_to_dest: Vec<Distance> = Vec::with_capacity(flows.len() * s);
        for f in flows.iter() {
            shop_to_dest.extend(rows.to_destination(f.destination()));
        }

        // Fill of one contiguous node range, in node-id order: the flat
        // entries plus per-node entry counts (the CSR offsets in delta
        // form). Runs of consecutive ranges concatenate back to exactly the
        // sequential single-pass fill, so sharding node ranges across
        // workers is bit-identical.
        let fill = |lo: usize, hi: usize| -> (Vec<u32>, Vec<FlowDetour>) {
            let mut counts: Vec<u32> = Vec::with_capacity(hi - lo);
            let mut entries: Vec<FlowDetour> = Vec::new();
            for v in lo..hi {
                let node = NodeId::new(v as u32);
                let before = entries.len();
                for visit in flows.visits_at(node) {
                    let flow = flows.flow(visit.flow);
                    // d''' — remaining length along the routed path.
                    let remaining = flow.path().length().saturating_sub(visit.prefix);
                    let f = visit.flow.index();
                    let to_dest = &shop_to_dest[f * s..(f + 1) * s];
                    let Some(detour) = rows.detour(v, to_dest, remaining) else {
                        continue; // no shop reachable from here for this flow
                    };
                    entries.push(FlowDetour {
                        flow: visit.flow,
                        position: visit.position,
                        detour,
                    });
                }
                counts.push((entries.len() - before) as u32);
            }
            (counts, entries)
        };
        let workers = parallel::effective_threads(threads, n);
        let runs: Vec<(Vec<u32>, Vec<FlowDetour>)> = if workers <= 1 {
            vec![fill(0, n)]
        } else {
            // Contiguous node ranges balanced by visit mass, each filled
            // privately and merged in order. With a tile grid over
            // tile-clustered ids the ranges additionally align to tile
            // boundaries, so each worker walks whole spatial cells.
            let mass = |v: usize| flows.visits_at(NodeId::new(v as u32)).len();
            let shards = tiles
                .and_then(|t| t.shard_ranges(workers, mass))
                .unwrap_or_else(|| parallel::mass_chunks(n, mass, workers));
            std::thread::scope(|scope| {
                let handles: Vec<_> = shards
                    .iter()
                    .map(|&(lo, hi)| {
                        let fill = &fill;
                        scope.spawn(move || fill(lo as usize, hi as usize))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("detour fill worker panicked"))
                    .collect()
            })
        };
        let total: usize = runs.iter().map(|(_, e)| e.len()).sum();
        assert!(
            total <= u32::MAX as usize,
            "detour table exceeds u32 CSR offset range"
        );
        let mut offsets: Vec<u32> = Vec::with_capacity(n + 1);
        let mut entries: Vec<FlowDetour> = Vec::with_capacity(total);
        offsets.push(0);
        let mut acc = 0u32;
        for (counts, run) in &runs {
            for &c in counts {
                acc += c;
                offsets.push(acc);
            }
            entries.extend_from_slice(run);
        }

        Ok((
            DetourTable {
                offsets,
                entries,
                to_shop,
                flow_count: flows.len(),
            },
            rows,
        ))
    }

    /// Reassembles a table from raw CSR parts, without any Dijkstra runs.
    ///
    /// Used by [`crate::mutable::MutableScenario`] to materialize read
    /// snapshots from its incrementally maintained arrays. The parts must
    /// satisfy the CSR invariants ([`DetourTable::build`] documents the
    /// layout); they are debug-asserted here.
    pub(crate) fn from_parts(
        offsets: Vec<u32>,
        entries: Vec<FlowDetour>,
        to_shop: Vec<Distance>,
        flow_count: usize,
    ) -> Self {
        debug_assert!(!offsets.is_empty(), "offsets must have node_count + 1 rows");
        debug_assert_eq!(offsets[0], 0);
        debug_assert_eq!(*offsets.last().expect("nonempty") as usize, entries.len());
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        DetourTable {
            offsets,
            entries,
            to_shop,
            flow_count,
        }
    }

    /// Disassembles the table into its raw CSR parts
    /// `(offsets, entries, to_shop)`, handing
    /// [`crate::mutable::MutableScenario`] ownership of the base arrays it
    /// maintains incrementally.
    pub(crate) fn into_raw_parts(self) -> (Vec<u32>, Vec<FlowDetour>, Vec<Distance>) {
        (self.offsets, self.entries, self.to_shop)
    }

    /// The flat CSR index range of `node`'s entries (empty for ids outside
    /// the graph), usable to address parallel per-entry arrays.
    pub fn entry_range(&self, node: NodeId) -> std::ops::Range<usize> {
        let v = node.index();
        if v + 1 >= self.offsets.len() {
            return 0..0;
        }
        self.offsets[v] as usize..self.offsets[v + 1] as usize
    }

    /// All entries in CSR order (grouped by intersection id).
    pub fn entries(&self) -> &[FlowDetour] {
        &self.entries
    }

    /// Flows passing `node`, each with its exact detour distance there.
    ///
    /// Returns an empty slice for intersections no flow passes (or ids
    /// outside the graph).
    pub fn entries_at(&self, node: NodeId) -> &[FlowDetour] {
        &self.entries[self.entry_range(node)]
    }

    /// Shortest distance from `node` to the nearest shop, or `None` if no
    /// shop is reachable.
    pub fn shop_distance(&self, node: NodeId) -> Option<Distance> {
        match self.to_shop.get(node.index()) {
            Some(&d) if d != Distance::MAX => Some(d),
            _ => None,
        }
    }

    /// Number of intersections covered by the table.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of flows in the flow set the table was built from.
    pub fn flow_count(&self) -> usize {
        self.flow_count
    }

    /// Intersections where placing a RAP reaches at least one flow, in id
    /// order.
    pub fn candidate_nodes(&self) -> Vec<NodeId> {
        self.offsets
            .windows(2)
            .enumerate()
            .filter(|(_, w)| w[0] < w[1])
            .map(|(i, _)| NodeId::new(i as u32))
            .collect()
    }

    /// The detour of `flow` at `node`, if the flow passes it (and a shop is
    /// reachable).
    pub fn detour_of(&self, node: NodeId, flow: FlowId) -> Option<Distance> {
        self.entries_at(node)
            .iter()
            .find(|e| e.flow == flow)
            .map(|e| e.detour)
    }
}

/// Every shop's dense distance rows, in shop order and indexed by raw node
/// id (`Distance::MAX` = unreachable): `d'(v → shop)` from one reverse run
/// and `d''(shop → v)` from one forward run. No predecessor array is kept.
#[derive(Clone, Debug)]
pub(crate) struct ShopRows {
    rev: Vec<Vec<Distance>>,
    fwd: Vec<Vec<Distance>>,
}

impl ShopRows {
    /// Runs every shop's reverse and forward search, fanning shops across
    /// `threads` workers (one reusable [`SsspWorkspace`] each) and merging
    /// in shop order. Distances are exact integers, so the rows are the same
    /// whichever worker computes them.
    pub(crate) fn build(graph: &RoadGraph, shops: &[NodeId], threads: usize) -> Self {
        let (rev, fwd) = per_shop(graph, shops, threads, |ws, shop| {
            (
                distance_row(graph, ws, shop, Direction::Reverse),
                distance_row(graph, ws, shop, Direction::Forward),
            )
        })
        .into_iter()
        .unzip();
        ShopRows { rev, fwd }
    }

    /// `min_s d'(v → shop_s)` for every node `v`.
    pub(crate) fn nearest_shop(&self) -> Vec<Distance> {
        nearest_shop(&self.rev)
    }

    /// `d''(shop → destination)` for every shop, in shop order.
    pub(crate) fn to_destination(
        &self,
        destination: NodeId,
    ) -> impl Iterator<Item = Distance> + '_ {
        self.fwd.iter().map(move |row| row[destination.index()])
    }

    /// The detour identity `d = d' + d'' − d'''` for a flow at node `v`:
    /// the minimum over shops of `d'(v → shop) + d''(shop → destination)`,
    /// minus `remaining` (`d'''`, the flow's routed path left after `v`),
    /// saturating at zero. `to_dest` holds the flow's
    /// [`ShopRows::to_destination`] values. `None` when no shop lies on any
    /// route from `v` to the destination: the flow gets no entry at `v`.
    pub(crate) fn detour(
        &self,
        v: usize,
        to_dest: &[Distance],
        remaining: Distance,
    ) -> Option<Distance> {
        let mut via_shop = Distance::MAX;
        for (rev, &d2) in self.rev.iter().zip(to_dest) {
            let d1 = rev[v];
            if d1 == Distance::MAX || d2 == Distance::MAX {
                continue;
            }
            via_shop = via_shop.min(d1.saturating_add(d2));
        }
        (via_shop != Distance::MAX).then(|| via_shop.saturating_sub(remaining))
    }
}

/// `min_s dist(v → shop_s)` for every node `v`, folded from one dense
/// distance row per shop (`Distance::MAX` = unreachable): a straight
/// columnwise min instead of per-node `Option` probing.
fn nearest_shop(rows: &[Vec<Distance>]) -> Vec<Distance> {
    let n = rows.first().map_or(0, Vec::len);
    let mut to_shop = vec![Distance::MAX; n];
    for row in rows {
        for (slot, &d) in to_shop.iter_mut().zip(row) {
            *slot = (*slot).min(d);
        }
    }
    to_shop
}

/// One full run from `shop`, as a dense distance row.
fn distance_row(
    graph: &RoadGraph,
    ws: &mut SsspWorkspace,
    shop: NodeId,
    direction: Direction,
) -> Vec<Distance> {
    ws.run(graph, shop, direction);
    let mut row = vec![Distance::MAX; graph.node_count()];
    ws.copy_distances_into(&mut row);
    row
}

/// [`ShopRows::nearest_shop`] over the shops' reverse runs alone, fanned
/// like [`ShopRows::build`]: what an immutable [`crate::Scenario`] keeps of
/// the shop rows. Only [`crate::MutableScenario`]'s flow additions need the
/// forward rows.
pub(crate) fn shop_distances(graph: &RoadGraph, shops: &[NodeId], threads: usize) -> Vec<Distance> {
    let rows = per_shop(graph, shops, threads, |ws, shop| {
        distance_row(graph, ws, shop, Direction::Reverse)
    });
    nearest_shop(&rows)
}

/// Runs `grow` once per shop, fanning shops across `threads` workers (one
/// reusable [`SsspWorkspace`] each, clamped by the shared thread policy)
/// and returning the results in shop order.
fn per_shop<T: Send>(
    graph: &RoadGraph,
    shops: &[NodeId],
    threads: usize,
    grow: impl Fn(&mut SsspWorkspace, NodeId) -> T + Sync,
) -> Vec<T> {
    let workers = parallel::effective_threads(threads, shops.len());
    if workers <= 1 {
        let mut ws = SsspWorkspace::for_graph(graph);
        return shops.iter().map(|&s| grow(&mut ws, s)).collect();
    }
    let chunk = shops.len().div_ceil(workers);
    let grow = &grow;
    let per_worker: Vec<Vec<T>> = std::thread::scope(|scope| {
        let handles: Vec<_> = shops
            .chunks(chunk)
            .map(|shard| {
                scope.spawn(move || {
                    let mut ws = SsspWorkspace::for_graph(graph);
                    shard.iter().map(|&s| grow(&mut ws, s)).collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shop-row worker panicked"))
            .collect()
    });
    // Contiguous chunks flattened in order reconstruct shop order exactly.
    per_worker.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rap_graph::{GraphBuilder, GridGraph, Point};
    use rap_traffic::FlowSpec;

    /// 3×3 grid, 10 ft blocks; node layout:
    /// ```text
    /// 6 7 8
    /// 3 4 5
    /// 0 1 2
    /// ```
    fn grid() -> GridGraph {
        GridGraph::new(3, 3, Distance::from_feet(10))
    }

    #[test]
    fn detour_identity_on_grid() {
        let grid = grid();
        let flows = FlowSet::route(
            grid.graph(),
            vec![FlowSpec::new(NodeId::new(0), NodeId::new(2), 100.0).unwrap()],
        )
        .unwrap();
        // Shop at node 7 (top middle).
        let table = DetourTable::build(grid.graph(), &flows, &[NodeId::new(7)]).unwrap();
        // At origin 0: d' = 30 (0→7), d'' = 30 (7→2)... wait: 7→2 is 1 col + 2 rows = 30.
        // d''' = 20 (full path). detour = 30 + 30 - 20 = 40.
        let e0 = table.entries_at(NodeId::new(0));
        assert_eq!(e0.len(), 1);
        assert_eq!(e0[0].detour, Distance::from_feet(40));
        // At node 1 (path midpoint): d' = 20, d'' = 30, d''' = 10 → 40.
        assert_eq!(
            table.detour_of(NodeId::new(1), rap_traffic::FlowId::new(0)),
            Some(Distance::from_feet(40))
        );
        // Node 4 is not on the routed path: no entry.
        assert!(table.entries_at(NodeId::new(4)).is_empty());
    }

    #[test]
    fn theorem_1_first_rap_minimizes_detour() {
        // On any flow, detours must be non-decreasing along the path.
        let grid = grid();
        let flows = FlowSet::route(
            grid.graph(),
            vec![
                FlowSpec::new(NodeId::new(0), NodeId::new(8), 10.0).unwrap(),
                FlowSpec::new(NodeId::new(6), NodeId::new(2), 10.0).unwrap(),
                FlowSpec::new(NodeId::new(3), NodeId::new(5), 10.0).unwrap(),
            ],
        )
        .unwrap();
        let table = DetourTable::build(grid.graph(), &flows, &[NodeId::new(1)]).unwrap();
        for f in &flows {
            let mut along: Vec<(u32, Distance)> = Vec::new();
            for &v in f.path().nodes() {
                if let Some(e) = table.entries_at(v).iter().find(|e| e.flow == f.id()) {
                    along.push((e.position, e.detour));
                }
            }
            along.sort_by_key(|(pos, _)| *pos);
            for w in along.windows(2) {
                assert!(
                    w[0].1 <= w[1].1,
                    "flow {}: detour decreased along path ({} then {})",
                    f.id(),
                    w[0].1,
                    w[1].1
                );
            }
        }
    }

    #[test]
    fn multi_shop_takes_nearest_combination() {
        let grid = grid();
        let flows = FlowSet::route(
            grid.graph(),
            vec![FlowSpec::new(NodeId::new(0), NodeId::new(2), 1.0).unwrap()],
        )
        .unwrap();
        let one = DetourTable::build(grid.graph(), &flows, &[NodeId::new(8)]).unwrap();
        let both =
            DetourTable::build(grid.graph(), &flows, &[NodeId::new(8), NodeId::new(1)]).unwrap();
        let d_one = one
            .detour_of(NodeId::new(0), rap_traffic::FlowId::new(0))
            .unwrap();
        let d_both = both
            .detour_of(NodeId::new(0), rap_traffic::FlowId::new(0))
            .unwrap();
        assert!(d_both <= d_one);
        // Shop at node 1 lies on the path: zero detour.
        assert_eq!(d_both, Distance::ZERO);
    }

    #[test]
    fn shop_on_path_means_zero_detour() {
        let grid = grid();
        let flows = FlowSet::route(
            grid.graph(),
            vec![FlowSpec::new(NodeId::new(0), NodeId::new(2), 1.0).unwrap()],
        )
        .unwrap();
        let table = DetourTable::build(grid.graph(), &flows, &[NodeId::new(1)]).unwrap();
        // Before reaching the shop the detour is zero (the shop is ahead on
        // the route)...
        for v in [0u32, 1] {
            assert_eq!(
                table.detour_of(NodeId::new(v), rap_traffic::FlowId::new(0)),
                Some(Distance::ZERO),
                "detour at V{v}"
            );
        }
        // ...but at the destination the driver must backtrack to the shop and
        // return: 10 + 10 − 0 = 20 ft.
        assert_eq!(
            table.detour_of(NodeId::new(2), rap_traffic::FlowId::new(0)),
            Some(Distance::from_feet(20))
        );
    }

    #[test]
    fn unreachable_shop_produces_no_entries() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(1.0, 0.0));
        let island = b.add_node(Point::new(9.0, 9.0));
        b.add_two_way(a, c, Distance::from_feet(1)).unwrap();
        let g = b.build();
        let flows = FlowSet::route(&g, vec![FlowSpec::new(a, c, 1.0).unwrap()]).unwrap();
        let table = DetourTable::build(&g, &flows, &[island]).unwrap();
        assert!(table.entries_at(a).is_empty());
        assert!(table.entries_at(c).is_empty());
        assert_eq!(table.shop_distance(a), None);
        assert!(table.candidate_nodes().is_empty());
    }

    #[test]
    fn threaded_build_matches_sequential_exactly() {
        let grid = grid();
        let flows = FlowSet::route(
            grid.graph(),
            vec![
                FlowSpec::new(NodeId::new(0), NodeId::new(8), 10.0).unwrap(),
                FlowSpec::new(NodeId::new(6), NodeId::new(2), 4.0).unwrap(),
                FlowSpec::new(NodeId::new(3), NodeId::new(5), 2.5).unwrap(),
            ],
        )
        .unwrap();
        let shops = [NodeId::new(4), NodeId::new(8), NodeId::new(0)];
        let seq = DetourTable::build(grid.graph(), &flows, &shops).unwrap();
        for threads in [1, 2, 3, 8] {
            let (par, _) =
                DetourTable::build_with_rows(grid.graph(), &flows, &shops, threads, None).unwrap();
            assert_eq!(par.entries(), seq.entries(), "threads={threads}");
            for v in 0..seq.node_count() {
                let node = NodeId::new(v as u32);
                assert_eq!(par.entry_range(node), seq.entry_range(node));
                assert_eq!(par.shop_distance(node), seq.shop_distance(node));
            }
        }
    }

    #[test]
    fn tiled_build_matches_sequential_exactly() {
        // 6x6 grid: square tiles on a row-major grid are not id-contiguous,
        // so this also exercises the documented fallback; a single-tile grid
        // exercises the aligned path.
        let grid = GridGraph::new(6, 6, Distance::from_feet(10));
        let g = grid.graph();
        let flows = FlowSet::route(
            g,
            vec![
                FlowSpec::new(NodeId::new(0), NodeId::new(35), 10.0).unwrap(),
                FlowSpec::new(NodeId::new(30), NodeId::new(5), 4.0).unwrap(),
                FlowSpec::new(NodeId::new(14), NodeId::new(21), 2.5).unwrap(),
            ],
        )
        .unwrap();
        let shops = [NodeId::new(14), NodeId::new(0)];
        let seq = DetourTable::build(g, &flows, &shops).unwrap();
        for target in [9, 1_000] {
            let tiles = rap_graph::tiles::TileGrid::build(g, target);
            for threads in [1, 2, 4] {
                let (tiled, _) =
                    DetourTable::build_with_rows(g, &flows, &shops, threads, Some(&tiles)).unwrap();
                assert_eq!(
                    tiled.entries(),
                    seq.entries(),
                    "target={target} threads={threads}"
                );
                for v in 0..seq.node_count() {
                    let node = NodeId::new(v as u32);
                    assert_eq!(tiled.entry_range(node), seq.entry_range(node));
                    assert_eq!(tiled.shop_distance(node), seq.shop_distance(node));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "tile grid built for")]
    fn tiled_build_rejects_mismatched_grid() {
        let small = GridGraph::new(3, 3, Distance::from_feet(10));
        let big = GridGraph::new(5, 5, Distance::from_feet(10));
        let tiles = rap_graph::tiles::TileGrid::build(small.graph(), 4);
        let flows = FlowSet::route(big.graph(), vec![]).unwrap();
        let _ =
            DetourTable::build_with_rows(big.graph(), &flows, &[NodeId::new(0)], 2, Some(&tiles));
    }

    #[test]
    fn validation_errors() {
        let grid = grid();
        let flows = FlowSet::route(grid.graph(), vec![]).unwrap();
        assert!(matches!(
            DetourTable::build(grid.graph(), &flows, &[]),
            Err(PlacementError::NoShops)
        ));
        assert!(matches!(
            DetourTable::build(grid.graph(), &flows, &[NodeId::new(99)]),
            Err(PlacementError::ShopOutOfBounds { .. })
        ));
    }

    #[test]
    fn shop_distance_is_exact() {
        let grid = grid();
        let flows = FlowSet::route(grid.graph(), vec![]).unwrap();
        let table = DetourTable::build(grid.graph(), &flows, &[NodeId::new(4)]).unwrap();
        assert_eq!(table.shop_distance(NodeId::new(4)), Some(Distance::ZERO));
        assert_eq!(
            table.shop_distance(NodeId::new(0)),
            Some(Distance::from_feet(20))
        );
        assert_eq!(table.shop_distance(NodeId::new(99)), None);
    }

    #[test]
    fn csr_layout_is_consistent() {
        let grid = grid();
        let flows = FlowSet::route(
            grid.graph(),
            vec![
                FlowSpec::new(NodeId::new(0), NodeId::new(8), 10.0).unwrap(),
                FlowSpec::new(NodeId::new(6), NodeId::new(2), 10.0).unwrap(),
            ],
        )
        .unwrap();
        let table = DetourTable::build(grid.graph(), &flows, &[NodeId::new(4)]).unwrap();
        // Per-node slices tile the flat entries array exactly, in id order.
        let mut reassembled = Vec::new();
        for v in 0..table.node_count() {
            let node = NodeId::new(v as u32);
            let range = table.entry_range(node);
            assert_eq!(&table.entries()[range], table.entries_at(node));
            reassembled.extend_from_slice(table.entries_at(node));
        }
        assert_eq!(reassembled, table.entries());
        // Out-of-bounds ids yield empty ranges, not panics.
        assert!(table.entry_range(NodeId::new(99)).is_empty());
        assert!(table.entries_at(NodeId::new(99)).is_empty());
    }

    #[test]
    fn candidate_nodes_cover_exactly_the_paths() {
        let grid = grid();
        let flows = FlowSet::route(
            grid.graph(),
            vec![FlowSpec::new(NodeId::new(0), NodeId::new(2), 1.0).unwrap()],
        )
        .unwrap();
        let table = DetourTable::build(grid.graph(), &flows, &[NodeId::new(4)]).unwrap();
        assert_eq!(
            table.candidate_nodes(),
            vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)]
        );
        assert_eq!(table.flow_count(), 1);
        assert_eq!(table.node_count(), 9);
    }
}
