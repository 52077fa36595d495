//! Routed flow collections with per-intersection first-visit indices.
//!
//! [`FlowSet`] is the workhorse structure of the placement algorithms: it
//! routes every demand spec on a shortest path and indexes, for every
//! intersection, which flows pass through it. Only a flow's *first* visit to
//! an intersection is indexed: by Theorem 1 of the paper, the first RAP on a
//! flow's path provides the minimum detour distance, and for repeated visits
//! the earliest one dominates the later ones for the same reason.

use crate::error::TrafficError;
use crate::flow::{FlowId, FlowSpec, TrafficFlow};
use crate::parallel;
use rap_graph::landmarks::Landmarks;
use rap_graph::sssp::SsspWorkspace;
use rap_graph::tiles::TileGrid;
use rap_graph::{Direction, Distance, GraphError, NodeId, RoadGraph};
use std::collections::HashMap;

/// Acceleration inputs for [`FlowSet::route_with`].
///
/// The default routes exactly like [`FlowSet::route`]: sequential, plain
/// early-exit Dijkstra, original spec order. Each field independently
/// switches on one acceleration; all combinations produce **bit-identical**
/// flow sets (see the field docs for why).
#[derive(Clone, Copy, Debug, Default)]
pub struct RouteOptions<'a> {
    /// Worker threads for origin-group fan-out. `None` routes on the
    /// calling thread; `Some(n)` requests `n` workers, clamped by
    /// [`parallel::effective_threads`] to the number of distinct origins.
    /// One worker runs on the calling thread, more on scoped threads.
    pub threads: Option<usize>,
    /// Landmark tables enabling goal-directed routing: one
    /// [`SsspWorkspace::run_to_target_guided`] per distinct origin–
    /// destination pair instead of one early-exit run per origin. The
    /// guided run's predecessor chain to its target is exactly the plain
    /// run's, so every path is unchanged.
    pub landmarks: Option<&'a Landmarks>,
    /// Spatial tiling: origin groups are *processed* in tile order so
    /// consecutive shortest-path trees start in the same cache-local shard.
    /// Each origin's tree is independent, and flows keep their original spec
    /// indices, so processing order never shows up in the result.
    pub tiles: Option<&'a TileGrid>,
}

/// One flow's first visit to some intersection.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FlowVisit {
    /// The visiting flow.
    pub flow: FlowId,
    /// Index of the intersection within the flow's path (first occurrence).
    pub position: u32,
    /// Exact distance driven from the flow's origin to this visit.
    pub prefix: Distance,
}

/// A routed collection of traffic flows over one road graph.
///
/// ```
/// use rap_graph::{GridGraph, Distance, NodeId};
/// use rap_traffic::{FlowSpec, FlowSet};
/// # fn main() -> Result<(), rap_traffic::TrafficError> {
/// let grid = GridGraph::new(2, 3, Distance::from_feet(10));
/// let specs = vec![
///     FlowSpec::new(NodeId::new(0), NodeId::new(2), 100.0)?,
///     FlowSpec::new(NodeId::new(3), NodeId::new(5), 40.0)?,
/// ];
/// let flows = FlowSet::route(grid.graph(), specs)?;
/// assert_eq!(flows.len(), 2);
/// assert_eq!(flows.total_volume(), 140.0);
/// // Node 1 lies on the first flow's path.
/// assert_eq!(flows.visits_at(NodeId::new(1)).len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct FlowSet {
    flows: Vec<TrafficFlow>,
    /// First-visit CSR row starts: node `v`'s visits are
    /// `visits[visit_offsets[v] as usize..visit_offsets[v + 1] as usize]`.
    /// Length `node_count + 1`.
    visit_offsets: Vec<u32>,
    /// First visits of every flow, grouped by node id; within a node, in
    /// flow id order.
    visits: Vec<FlowVisit>,
}

impl FlowSet {
    /// Routes each spec on a shortest path in `graph` and builds the
    /// first-visit index.
    ///
    /// Specs sharing an origin share one Dijkstra tree, so routing `m` flows
    /// costs `O(u · (|V|+|E|) log |V| + Σ path lengths)` where `u` is the
    /// number of distinct origins.
    ///
    /// # Errors
    ///
    /// * [`TrafficError::UnroutableFlow`] if a destination is unreachable.
    /// * [`TrafficError::Graph`] if a spec references a missing node.
    pub fn route(graph: &RoadGraph, specs: Vec<FlowSpec>) -> Result<Self, TrafficError> {
        Self::route_with(graph, specs, RouteOptions::default())
    }

    /// [`FlowSet::route`] with opt-in accelerations ([`RouteOptions`]):
    /// worker threads, goal-directed (ALT) searches, and tile-batched
    /// processing order. Every combination is **bit-identical** to plain
    /// sequential routing — same paths, same flow ids, same first-visit
    /// index, and on failure the same error.
    ///
    /// One routing loop serves every worker count: it routes a slice of the
    /// processing order, on the calling thread when one worker is asked
    /// for, on scoped threads otherwise, and the slices' flows are merged
    /// by spec index.
    ///
    /// The error contract needs care under reordering: routing the groups
    /// one by one in spec order stops at the first failing origin group,
    /// but tiling processes groups in tile order and threads split them
    /// across workers. Each slice therefore tags failures with the original
    /// group index, keeps routing only groups that could still fail
    /// *earlier* than its best candidate, and the merge reports the minimum
    /// — exactly the error the spec-order loop hits first.
    ///
    /// # Errors
    ///
    /// Same contract as [`FlowSet::route`].
    ///
    /// # Panics
    ///
    /// Panics if `opts.landmarks` or `opts.tiles` were built for a graph
    /// with a different node count than `graph`.
    pub fn route_with(
        graph: &RoadGraph,
        specs: Vec<FlowSpec>,
        opts: RouteOptions<'_>,
    ) -> Result<Self, TrafficError> {
        let groups = group_by_origin(graph, &specs)?;
        // Processing order: original group order, or tile order when a grid
        // is supplied (stable sort keeps original order within each tile).
        let mut order: Vec<usize> = (0..groups.len()).collect();
        if let Some(tiles) = opts.tiles {
            assert_eq!(
                tiles.node_count(),
                graph.node_count(),
                "tile grid built for a {}-node graph used with a {}-node graph",
                tiles.node_count(),
                graph.node_count()
            );
            order.sort_by_key(|&g| tiles.tile_of(groups[g].0));
        }
        let workers = parallel::effective_threads(opts.threads.unwrap_or(1), groups.len());
        // Each worker routes a contiguous slice of the processing order into
        // its own (spec index, flow) list. Failures are tagged with the
        // original group index; a worker that has already seen a failure
        // keeps routing only groups with a smaller original index, so its
        // report is the minimal failing index of its slice and the merge
        // below surfaces exactly the error that routing the groups one by
        // one in spec order hits first.
        let route_slice = |slice: &[usize]| -> SliceOutput {
            let mut ws = SsspWorkspace::for_graph(graph);
            let mut routed: Vec<(usize, TrafficFlow)> = Vec::new();
            let mut first_err: Option<(usize, TrafficError)> = None;
            for &g in slice {
                if first_err.as_ref().is_some_and(|(fg, _)| g >= *fg) {
                    continue;
                }
                let (origin, idxs) = &groups[g];
                if let Err(e) = route_group(
                    graph,
                    &mut ws,
                    &specs,
                    *origin,
                    idxs,
                    &mut routed,
                    opts.landmarks,
                ) {
                    first_err = Some((g, e));
                }
            }
            match first_err {
                Some(err) => Err(err),
                None => Ok(routed),
            }
        };
        let outputs: Vec<SliceOutput> = if workers == 1 {
            vec![route_slice(&order)]
        } else {
            let chunk = order.len().div_ceil(workers);
            std::thread::scope(|scope| {
                let handles: Vec<_> = order
                    .chunks(chunk)
                    .map(|slice| {
                        let route_slice = &route_slice;
                        scope.spawn(move || route_slice(slice))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("routing worker panicked"))
                    .collect()
            })
        };

        // First failing group (by original index) wins.
        let mut first_err: Option<(usize, TrafficError)> = None;
        let mut flows: Vec<Option<TrafficFlow>> = vec![None; specs.len()];
        for output in outputs {
            match output {
                Ok(routed) => {
                    for (i, flow) in routed {
                        flows[i] = Some(flow);
                    }
                }
                Err((g, e)) => {
                    if first_err.as_ref().is_none_or(|(fg, _)| g < *fg) {
                        first_err = Some((g, e));
                    }
                }
            }
        }
        if let Some((_, e)) = first_err {
            return Err(e);
        }
        let flows = flows
            .into_iter()
            .map(|f| f.expect("every spec was routed"))
            .collect();
        Ok(Self::from_routed(graph, flows))
    }

    /// Builds a flow set from already-routed flows (e.g. paths chosen by the
    /// Manhattan scenario rather than plain shortest paths), re-deriving the
    /// first-visit index.
    ///
    /// Flow ids are reassigned to match positions in `flows`.
    ///
    /// # Panics
    ///
    /// Panics if a path leaves the graph or hops between two nodes no edge
    /// connects; [`FlowSet::try_from_routed`] reports those as errors.
    pub fn from_routed(graph: &RoadGraph, flows: Vec<TrafficFlow>) -> Self {
        Self::try_from_routed(graph, flows).expect("routed path edges exist in graph")
    }

    /// [`FlowSet::from_routed`] for paths that may not follow the graph,
    /// such as paths read back from disk.
    ///
    /// The first-visit index is one CSR built in two passes over the paths:
    /// a count pass sizes every node's row, and a fill pass writes each
    /// flow's first visit to a node, with its prefix length, into the next
    /// slot of that row. Flows are re-id'd in place; no path is copied.
    ///
    /// # Errors
    ///
    /// [`TrafficError::Graph`] carrying [`GraphError::NodeOutOfBounds`] for
    /// a path node outside the graph, or [`GraphError::Unreachable`] for the
    /// first hop (in flow order, then path order) that no edge connects.
    pub fn try_from_routed(
        graph: &RoadGraph,
        mut flows: Vec<TrafficFlow>,
    ) -> Result<Self, TrafficError> {
        let n = graph.node_count();
        // `stamp[v]` is the index of the last flow that visited `v`, so a
        // node counts once per flow, at its first position, without a
        // per-flow set.
        let mut stamp = vec![u32::MAX; n];
        let mut visit_offsets = vec![0u32; n + 1];
        for (i, flow) in flows.iter_mut().enumerate() {
            let id = FlowId::new(i as u32);
            flow.set_id(id);
            for &node in flow.path().nodes() {
                graph.check_node(node)?;
                let seen = &mut stamp[node.index()];
                if *seen != id.raw() {
                    *seen = id.raw();
                    visit_offsets[node.index() + 1] += 1;
                }
            }
        }
        let mut total = 0usize;
        for slot in &mut visit_offsets[1..] {
            total += *slot as usize;
            assert!(
                total <= u32::MAX as usize,
                "first-visit index exceeds u32 CSR offset range"
            );
            *slot = total as u32;
        }
        let mut next: Vec<u32> = visit_offsets[..n].to_vec();
        let mut visits = vec![
            FlowVisit {
                flow: FlowId::new(0),
                position: 0,
                prefix: Distance::ZERO,
            };
            total
        ];
        stamp.fill(u32::MAX);
        for flow in &flows {
            let nodes = flow.path().nodes();
            let mut prefix = Distance::ZERO;
            for (pos, &node) in nodes.iter().enumerate() {
                if pos > 0 {
                    let prev = nodes[pos - 1];
                    let hop = graph
                        .edge_length(prev, node)
                        .ok_or(GraphError::Unreachable {
                            from: prev,
                            to: node,
                        })?;
                    prefix = prefix.saturating_add(hop);
                }
                let seen = &mut stamp[node.index()];
                if *seen != flow.id().raw() {
                    *seen = flow.id().raw();
                    let slot = &mut next[node.index()];
                    visits[*slot as usize] = FlowVisit {
                        flow: flow.id(),
                        position: pos as u32,
                        prefix,
                    };
                    *slot += 1;
                }
            }
        }
        Ok(FlowSet {
            flows,
            visit_offsets,
            visits,
        })
    }

    /// Number of flows.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// True if there are no flows.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// The flow with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn flow(&self, id: FlowId) -> &TrafficFlow {
        &self.flows[id.index()]
    }

    /// The flow with the given id, or `None` if out of bounds.
    pub fn get(&self, id: FlowId) -> Option<&TrafficFlow> {
        self.flows.get(id.index())
    }

    /// Iterates over all flows in id order.
    pub fn iter(&self) -> std::slice::Iter<'_, TrafficFlow> {
        self.flows.iter()
    }

    /// First visits of all flows passing intersection `node`.
    ///
    /// Returns an empty slice for intersections no flow passes or ids outside
    /// the graph the set was built against.
    pub fn visits_at(&self, node: NodeId) -> &[FlowVisit] {
        let v = node.index();
        if v >= self.node_count() {
            return &[];
        }
        &self.visits[self.visit_offsets[v] as usize..self.visit_offsets[v + 1] as usize]
    }

    /// Number of distinct flows passing `node`.
    pub fn cardinality_at(&self, node: NodeId) -> usize {
        self.visits_at(node).len()
    }

    /// Total volume of flows passing `node` (the paper's *MaxVehicles*
    /// baseline ranks intersections by this).
    pub fn volume_at(&self, node: NodeId) -> f64 {
        self.visits_at(node)
            .iter()
            .map(|v| self.flow(v.flow).volume())
            .sum()
    }

    /// Total daily volume over all flows.
    pub fn total_volume(&self) -> f64 {
        self.flows.iter().map(|f| f.volume()).sum()
    }

    /// Number of intersections in the underlying graph.
    pub fn node_count(&self) -> usize {
        self.visit_offsets.len() - 1
    }
}

/// Groups spec indices by origin in **first-appearance order** (ascending
/// spec index within each group), validating every endpoint up front. The
/// deterministic order makes the sequential and parallel routing paths agree
/// on which unroutable spec errors first.
fn group_by_origin(
    graph: &RoadGraph,
    specs: &[FlowSpec],
) -> Result<Vec<(NodeId, Vec<usize>)>, TrafficError> {
    let mut groups: Vec<(NodeId, Vec<usize>)> = Vec::new();
    let mut slot: HashMap<NodeId, usize> = HashMap::new();
    for (i, s) in specs.iter().enumerate() {
        graph.check_node(s.origin())?;
        graph.check_node(s.destination())?;
        let g = *slot.entry(s.origin()).or_insert_with(|| {
            groups.push((s.origin(), Vec::new()));
            groups.len() - 1
        });
        groups[g].1.push(i);
    }
    Ok(groups)
}

/// What one routing worker returns: its slice's `(spec index, flow)` pairs,
/// or the minimal failing original group index of the slice with its error.
type SliceOutput = Result<Vec<(usize, TrafficFlow)>, (usize, TrafficError)>;

/// Routes one origin group through the workspace, appending each spec's
/// `(index, flow)` to `routed`. Without landmark tables, a single early-exit
/// tree run settles every destination in the group, then each spec extracts
/// its path; settled distances are final, so the paths are bit-identical to
/// a full-tree run's. With landmark tables, each distinct destination gets
/// its own goal-directed run, whose chain to the destination is the plain
/// run's (see `rap_graph::sssp`). Either way the error names the first spec,
/// in group order, whose destination is unreachable. On error, flows
/// already appended for the group stay behind; the caller discards the
/// whole list.
fn route_group(
    graph: &RoadGraph,
    ws: &mut SsspWorkspace,
    specs: &[FlowSpec],
    origin: NodeId,
    idxs: &[usize],
    routed: &mut Vec<(usize, TrafficFlow)>,
    landmarks: Option<&Landmarks>,
) -> Result<(), TrafficError> {
    let unroutable = |i: usize| TrafficError::UnroutableFlow {
        origin: specs[i].origin(),
        destination: specs[i].destination(),
    };
    let Some(lm) = landmarks else {
        let targets: Vec<NodeId> = idxs.iter().map(|&i| specs[i].destination()).collect();
        ws.run_to_targets(graph, origin, Direction::Forward, &targets);
        for &i in idxs {
            let path = ws
                .path_to(specs[i].destination())
                .map_err(|_| unroutable(i))?;
            routed.push((i, TrafficFlow::new(FlowId::new(i as u32), specs[i], path)));
        }
        return Ok(());
    };
    // One guided run per distinct destination: sorting by (destination,
    // spec index) puts each destination's specs together, lowest index
    // first, so the first failing spec in group order is the least first
    // index over the unreachable destinations.
    let mut by_dest: Vec<(NodeId, usize)> =
        idxs.iter().map(|&i| (specs[i].destination(), i)).collect();
    by_dest.sort_unstable();
    let mut first_failure: Option<usize> = None;
    for run in by_dest.chunk_by(|a, b| a.0 == b.0) {
        let (dest, first) = run[0];
        ws.run_to_target_guided(graph, origin, Direction::Forward, dest, lm);
        for &(_, i) in run {
            let Ok(path) = ws.path_to(dest) else {
                first_failure = Some(first_failure.map_or(first, |f| f.min(first)));
                break;
            };
            routed.push((i, TrafficFlow::new(FlowId::new(i as u32), specs[i], path)));
        }
    }
    match first_failure {
        Some(i) => Err(unroutable(i)),
        None => Ok(()),
    }
}

impl<'a> IntoIterator for &'a FlowSet {
    type Item = &'a TrafficFlow;
    type IntoIter = std::slice::Iter<'a, TrafficFlow>;
    fn into_iter(self) -> Self::IntoIter {
        self.flows.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rap_graph::{GraphBuilder, GridGraph, Path, Point};

    fn grid3() -> rap_graph::GridGraph {
        GridGraph::new(3, 3, Distance::from_feet(10))
    }

    #[test]
    fn route_assigns_shortest_paths() {
        let grid = grid3();
        let specs = vec![
            FlowSpec::new(NodeId::new(0), NodeId::new(8), 10.0).unwrap(),
            FlowSpec::new(NodeId::new(2), NodeId::new(6), 5.0).unwrap(),
        ];
        let fs = FlowSet::route(grid.graph(), specs).unwrap();
        assert_eq!(fs.len(), 2);
        for f in &fs {
            assert_eq!(f.path().length(), Distance::from_feet(40));
        }
        assert_eq!(fs.total_volume(), 15.0);
    }

    #[test]
    fn from_routed_keeps_the_first_visit_of_a_revisiting_walk() {
        let grid = grid3();
        let walk = |nodes: &[u32]| {
            let nodes: Vec<NodeId> = nodes.iter().copied().map(NodeId::new).collect();
            let spec = FlowSpec::new(nodes[0], *nodes.last().unwrap(), 1.0).unwrap();
            let path = Path::new(grid.graph(), nodes).unwrap();
            TrafficFlow::new(FlowId::new(7), spec, path)
        };
        // Both walks pass node 1 twice; the second also revisits node 4.
        let fs = FlowSet::from_routed(
            grid.graph(),
            vec![walk(&[0, 1, 4, 1, 2]), walk(&[4, 1, 4, 5])],
        );
        let visits = |v: u32| -> Vec<(u32, u32, u64)> {
            fs.visits_at(NodeId::new(v))
                .iter()
                .map(|x| (x.flow.raw(), x.position, x.prefix.feet()))
                .collect()
        };
        assert_eq!(visits(0), [(0, 0, 0)]);
        assert_eq!(visits(1), [(0, 1, 10), (1, 1, 10)]);
        assert_eq!(visits(4), [(0, 2, 20), (1, 0, 0)]);
        assert_eq!(visits(2), [(0, 4, 40)]);
        assert_eq!(visits(5), [(1, 3, 30)]);
        assert!(visits(3).is_empty());
        // The CSR rows hold one visit per (flow, distinct node) pair.
        let total: usize = (0..9).map(|v| fs.visits_at(NodeId::new(v)).len()).sum();
        assert_eq!(total, 4 + 3);
        assert_eq!(fs.node_count(), 9);
    }

    #[test]
    fn try_from_routed_rejects_a_hop_with_no_edge() {
        let grid = grid3();
        let g = grid.graph();
        let flow = |nodes: &[u32]| {
            let nodes: Vec<NodeId> = nodes.iter().copied().map(NodeId::new).collect();
            let spec = FlowSpec::new(nodes[0], *nodes.last().unwrap(), 1.0).unwrap();
            TrafficFlow::new(
                FlowId::new(0),
                spec,
                Path::from_parts_unchecked(nodes, Distance::from_feet(30)),
            )
        };
        // Nodes 1 and 7 are two rows apart; the first flow is a valid walk,
        // so the error names the second flow's first missing hop.
        let err = FlowSet::try_from_routed(g, vec![flow(&[0, 1, 2]), flow(&[0, 1, 7, 8, 5])])
            .unwrap_err();
        assert!(
            matches!(
                err,
                TrafficError::Graph(GraphError::Unreachable { from, to })
                    if from == NodeId::new(1) && to == NodeId::new(7)
            ),
            "{err:?}"
        );
        let err = FlowSet::try_from_routed(g, vec![flow(&[0, 1, 99])]).unwrap_err();
        assert!(
            matches!(err, TrafficError::Graph(GraphError::NodeOutOfBounds { .. })),
            "{err:?}"
        );
        // The same walks without the bad hop build, equal to `from_routed`.
        let ok = FlowSet::try_from_routed(g, vec![flow(&[0, 1, 2]), flow(&[0, 1, 4, 7, 8])]);
        let expected = FlowSet::from_routed(g, vec![flow(&[0, 1, 2]), flow(&[0, 1, 4, 7, 8])]);
        assert_flow_sets_identical(&ok.unwrap(), &expected);
    }

    #[test]
    #[should_panic(expected = "routed path edges exist in graph")]
    fn from_routed_panics_on_a_hop_with_no_edge() {
        let grid = grid3();
        let spec = FlowSpec::new(NodeId::new(0), NodeId::new(8), 1.0).unwrap();
        let path = Path::from_parts_unchecked(
            vec![NodeId::new(0), NodeId::new(8)],
            Distance::from_feet(40),
        );
        let _ = FlowSet::from_routed(
            grid.graph(),
            vec![TrafficFlow::new(FlowId::new(0), spec, path)],
        );
    }

    #[test]
    fn shared_origin_flows_share_tree() {
        let grid = grid3();
        let specs: Vec<FlowSpec> = (1..9)
            .map(|d| FlowSpec::new(NodeId::new(0), NodeId::new(d), 1.0).unwrap())
            .collect();
        let fs = FlowSet::route(grid.graph(), specs).unwrap();
        assert_eq!(fs.len(), 8);
        // Flow to node 8 (opposite corner) is 4 blocks.
        let far = fs
            .iter()
            .find(|f| f.destination() == NodeId::new(8))
            .unwrap();
        assert_eq!(far.path().length(), Distance::from_feet(40));
    }

    #[test]
    fn unroutable_flow_is_reported() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(1.0, 0.0));
        let island = b.add_node(Point::new(9.0, 9.0));
        b.add_two_way(a, c, Distance::from_feet(1)).unwrap();
        let g = b.build();
        let specs = vec![FlowSpec::new(a, island, 1.0).unwrap()];
        assert!(matches!(
            FlowSet::route(&g, specs),
            Err(TrafficError::UnroutableFlow { .. })
        ));
    }

    #[test]
    fn missing_node_is_reported() {
        let grid = grid3();
        let specs = vec![FlowSpec::new(NodeId::new(0), NodeId::new(99), 1.0).unwrap()];
        assert!(matches!(
            FlowSet::route(grid.graph(), specs),
            Err(TrafficError::Graph(_))
        ));
    }

    #[test]
    fn first_visit_index_prefixes() {
        let grid = grid3();
        let fs = FlowSet::route(
            grid.graph(),
            vec![FlowSpec::new(NodeId::new(0), NodeId::new(2), 7.0).unwrap()],
        )
        .unwrap();
        // Path 0 -> 1 -> 2 along the south edge.
        let v0 = fs.visits_at(NodeId::new(0));
        let v1 = fs.visits_at(NodeId::new(1));
        let v2 = fs.visits_at(NodeId::new(2));
        assert_eq!(v0.len(), 1);
        assert_eq!(v0[0].position, 0);
        assert_eq!(v0[0].prefix, Distance::ZERO);
        assert_eq!(v1[0].position, 1);
        assert_eq!(v1[0].prefix, Distance::from_feet(10));
        assert_eq!(v2[0].position, 2);
        assert_eq!(v2[0].prefix, Distance::from_feet(20));
        // Unvisited intersection.
        assert!(fs.visits_at(NodeId::new(8)).is_empty());
        assert_eq!(fs.cardinality_at(NodeId::new(1)), 1);
        assert_eq!(fs.volume_at(NodeId::new(1)), 7.0);
    }

    #[test]
    fn repeated_visit_keeps_first_only() {
        // Build a path that revisits a node and check the index keeps the
        // first (earliest) visit.
        let grid = grid3();
        let g = grid.graph();
        let spec = FlowSpec::new(NodeId::new(0), NodeId::new(2), 1.0).unwrap();
        let zig = rap_graph::Path::new(
            g,
            vec![
                NodeId::new(0),
                NodeId::new(1),
                NodeId::new(0),
                NodeId::new(1),
                NodeId::new(2),
            ],
        )
        .unwrap();
        let flow = TrafficFlow::new(FlowId::new(0), spec, zig);
        let fs = FlowSet::from_routed(g, vec![flow]);
        let v1 = fs.visits_at(NodeId::new(1));
        assert_eq!(v1.len(), 1);
        assert_eq!(v1[0].position, 1);
        assert_eq!(v1[0].prefix, Distance::from_feet(10));
    }

    #[test]
    fn out_of_bounds_queries_are_empty() {
        let grid = grid3();
        let fs = FlowSet::route(grid.graph(), vec![]).unwrap();
        assert!(fs.is_empty());
        assert!(fs.visits_at(NodeId::new(999)).is_empty());
        assert_eq!(fs.volume_at(NodeId::new(999)), 0.0);
        assert_eq!(fs.get(FlowId::new(0)), None);
    }

    fn assert_flow_sets_identical(a: &FlowSet, b: &FlowSet) {
        assert_eq!(a.len(), b.len());
        for (fa, fb) in a.iter().zip(b.iter()) {
            assert_eq!(fa.id(), fb.id());
            assert_eq!(fa.spec(), fb.spec());
            assert_eq!(fa.path().nodes(), fb.path().nodes());
        }
        assert_eq!(a.node_count(), b.node_count());
        for v in 0..a.node_count() {
            assert_eq!(
                a.visits_at(NodeId::new(v as u32)),
                b.visits_at(NodeId::new(v as u32))
            );
        }
    }

    #[test]
    fn threaded_routing_is_bit_identical_to_route() {
        let grid = GridGraph::new(5, 5, Distance::from_feet(10));
        // Shared origins, repeated destinations, out-of-order indices.
        let specs: Vec<FlowSpec> = [(0, 24), (12, 3), (0, 7), (24, 0), (12, 3), (7, 18)]
            .iter()
            .map(|&(o, d)| FlowSpec::new(NodeId::new(o), NodeId::new(d), 1.5).unwrap())
            .collect();
        let seq = FlowSet::route(grid.graph(), specs.clone()).unwrap();
        for threads in [1, 2, 3, 8] {
            let par = FlowSet::route_with(
                grid.graph(),
                specs.clone(),
                RouteOptions {
                    threads: Some(threads),
                    ..RouteOptions::default()
                },
            )
            .unwrap();
            assert_flow_sets_identical(&seq, &par);
        }
    }

    #[test]
    fn threaded_routing_reports_same_error_as_route() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(1.0, 0.0));
        let island = b.add_node(Point::new(9.0, 9.0));
        b.add_two_way(a, c, Distance::from_feet(1)).unwrap();
        let g = b.build();
        // Two unroutable specs from different origins: both paths must
        // report the one in the *earlier* origin group (spec index 1).
        let specs = vec![
            FlowSpec::new(a, c, 1.0).unwrap(),
            FlowSpec::new(a, island, 1.0).unwrap(),
            FlowSpec::new(c, island, 1.0).unwrap(),
        ];
        let seq = FlowSet::route(&g, specs.clone()).unwrap_err();
        let par = FlowSet::route_with(
            &g,
            specs,
            RouteOptions {
                threads: Some(4),
                ..RouteOptions::default()
            },
        )
        .unwrap_err();
        match (&seq, &par) {
            (
                TrafficError::UnroutableFlow {
                    origin: so,
                    destination: sd,
                },
                TrafficError::UnroutableFlow {
                    origin: po,
                    destination: pd,
                },
            ) => {
                assert_eq!((so, sd), (po, pd));
                assert_eq!(*so, a);
            }
            other => panic!("expected matching UnroutableFlow errors, got {other:?}"),
        }
    }

    #[test]
    fn route_with_accelerations_is_bit_identical_to_route() {
        let grid = GridGraph::new(10, 10, Distance::from_feet(10));
        let g = grid.graph();
        let mut rng_state = 11u64;
        let mut next = || {
            // xorshift keeps the fixture dependency-free and deterministic.
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            (rng_state % 100) as u32
        };
        let specs: Vec<FlowSpec> = (0..60)
            .map(|_| FlowSpec::new(NodeId::new(next()), NodeId::new(next()), 1.0).unwrap())
            .collect();
        let reference = FlowSet::route(g, specs.clone()).unwrap();
        let lm = rap_graph::landmarks::Landmarks::select(g, 4);
        let tiles = TileGrid::build(g, 16);
        assert!(tiles.tile_count() > 1, "fixture must actually reorder");
        for threads in [None, Some(1), Some(3)] {
            for landmarks in [None, Some(&lm)] {
                for tile_grid in [None, Some(&tiles)] {
                    let accel = FlowSet::route_with(
                        g,
                        specs.clone(),
                        RouteOptions {
                            threads,
                            landmarks,
                            tiles: tile_grid,
                        },
                    )
                    .unwrap();
                    assert_flow_sets_identical(&reference, &accel);
                }
            }
        }
    }

    #[test]
    fn guided_routing_reports_the_first_unroutable_spec_in_group_order() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(1.0, 0.0));
        let island = b.add_node(Point::new(9.0, 9.0));
        let far_island = b.add_node(Point::new(19.0, 19.0));
        b.add_two_way(a, c, Distance::from_feet(1)).unwrap();
        let g = b.build();
        let lm = rap_graph::landmarks::Landmarks::select(&g, 2);
        // One origin group whose first failing spec has the larger
        // destination id, so the guided runs (in destination order) meet
        // the other failure first.
        let specs = vec![
            FlowSpec::new(a, c, 1.0).unwrap(),
            FlowSpec::new(a, far_island, 1.0).unwrap(),
            FlowSpec::new(a, island, 1.0).unwrap(),
        ];
        let err = FlowSet::route_with(
            &g,
            specs,
            RouteOptions {
                landmarks: Some(&lm),
                ..RouteOptions::default()
            },
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                TrafficError::UnroutableFlow { origin, destination }
                    if origin == a && destination == far_island
            ),
            "{err:?}"
        );
    }

    #[test]
    fn route_with_tiles_reports_minimal_original_error() {
        // Two disconnected clusters far apart on the x axis, so the tile
        // grid separates them and tile order differs from spec order.
        let mut b = GraphBuilder::new();
        let a0 = b.add_node(Point::new(0.0, 0.0));
        let a1 = b.add_node(Point::new(100.0, 0.0));
        let b0 = b.add_node(Point::new(10_000.0, 0.0));
        let b1 = b.add_node(Point::new(10_100.0, 0.0));
        b.add_two_way(a0, a1, Distance::from_feet(100)).unwrap();
        b.add_two_way(b0, b1, Distance::from_feet(100)).unwrap();
        let g = b.build();
        let tiles = TileGrid::build(&g, 2);
        assert!(tiles.tile_count() > 1);
        // Group 0 (origin b0) fails; group 1 (origin a0) also fails but has
        // the later original index. Tile order routes a0's group first, yet
        // the reported error must still be group 0's — same as sequential.
        let specs = vec![
            FlowSpec::new(b0, a0, 1.0).unwrap(),
            FlowSpec::new(a0, b0, 1.0).unwrap(),
            FlowSpec::new(a0, a1, 1.0).unwrap(),
        ];
        let reference = FlowSet::route(&g, specs.clone()).unwrap_err();
        for threads in [None, Some(4)] {
            let tiled = FlowSet::route_with(
                &g,
                specs.clone(),
                RouteOptions {
                    threads,
                    tiles: Some(&tiles),
                    ..RouteOptions::default()
                },
            )
            .unwrap_err();
            match (&reference, &tiled) {
                (
                    TrafficError::UnroutableFlow {
                        origin: ro,
                        destination: rd,
                    },
                    TrafficError::UnroutableFlow {
                        origin: to,
                        destination: td,
                    },
                ) => {
                    assert_eq!((ro, rd), (to, td));
                    assert_eq!(*ro, b0);
                }
                other => panic!("expected matching UnroutableFlow errors, got {other:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "tile grid built for")]
    fn route_with_rejects_mismatched_tiles() {
        let small = GridGraph::new(3, 3, Distance::from_feet(10));
        let big = GridGraph::new(5, 5, Distance::from_feet(10));
        let tiles = TileGrid::build(small.graph(), 4);
        let specs = vec![FlowSpec::new(NodeId::new(0), NodeId::new(1), 1.0).unwrap()];
        let _ = FlowSet::route_with(
            big.graph(),
            specs,
            RouteOptions {
                tiles: Some(&tiles),
                ..RouteOptions::default()
            },
        );
    }

    #[test]
    fn from_routed_reassigns_ids() {
        let grid = grid3();
        let g = grid.graph();
        let mk = |o: u32, d: u32| {
            let spec = FlowSpec::new(NodeId::new(o), NodeId::new(d), 1.0).unwrap();
            let path = rap_graph::sssp::shortest_path(g, NodeId::new(o), NodeId::new(d)).unwrap();
            TrafficFlow::new(FlowId::new(77), spec, path)
        };
        let fs = FlowSet::from_routed(g, vec![mk(0, 2), mk(6, 8)]);
        assert_eq!(fs.flow(FlowId::new(0)).origin(), NodeId::new(0));
        assert_eq!(fs.flow(FlowId::new(1)).origin(), NodeId::new(6));
    }
}
