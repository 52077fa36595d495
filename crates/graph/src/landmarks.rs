//! ALT landmarks: goal-directed search with triangle-inequality bounds.
//!
//! A* needs a lower bound on the remaining distance. Euclidean geometry
//! gives one, but it degrades when edge weights exceed straight-line
//! distances (bridges, one-ways) and vanishes on graphs whose weights are
//! decoupled from geometry. The ALT technique (Goldberg & Harrelson)
//! instead precomputes exact distances to a few *landmarks* `l` and bounds
//! via the triangle inequality:
//!
//! ```text
//! d(v, t) ≥ max_l  max( d(v, l) − d(t, l),  d(l, t) − d(l, v) )
//! ```
//!
//! Landmarks are chosen by farthest-point selection, which puts them on the
//! periphery where the bounds are tight. [`alt_path`] answers one
//! point-to-point query with them, and the batched routing engine
//! ([`crate::sssp::SsspWorkspace::run_to_targets_pruned`]) uses the same
//! tables to prune one-to-many target searches.
//!
//! The triangle inequality also yields *upper* bounds — routing through a
//! landmark is a real (if indirect) path:
//!
//! ```text
//! d(v, t) ≤ min_l  d(v, l) + d(l, t)
//! ```
//!
//! ([`Landmarks::upper_bound`]); the pruned search combines both bounds.

use crate::dijkstra::Direction;
use crate::error::GraphError;
use crate::graph::RoadGraph;
use crate::node::{Distance, NodeId};
use crate::path::Path;
use crate::sssp::SsspWorkspace;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Precomputed landmark distance tables for one graph.
///
/// Storage is *node-major*: each node owns one contiguous row of `2·L`
/// distances (`to` all landmarks, then `from` all landmarks), so bound
/// evaluations in the shortest-path hot loops touch a single cache line per
/// node instead of striding across `L` separate tables.
#[derive(Clone, Debug)]
pub struct Landmarks {
    /// Number of landmarks `L`.
    count: usize,
    /// Row `v` is `table[v·2L .. (v+1)·2L]`: entries `0..L` hold
    /// `d(v → landmark_l)`, entries `L..2L` hold `d(landmark_l → v)`;
    /// `Distance::MAX` where unreachable.
    table: Vec<Distance>,
    nodes: Vec<NodeId>,
}

impl Landmarks {
    /// Selects `count` landmarks by farthest-point traversal seeded at node
    /// 0 and precomputes both distance tables (`2 × count` Dijkstras).
    ///
    /// # Panics
    ///
    /// Panics if the graph is empty or `count` is zero.
    pub fn select(graph: &RoadGraph, count: usize) -> Self {
        Self::select_parallel(graph, count, 1)
    }

    /// [`Landmarks::select`] with the table phase (two tree runs per
    /// landmark) fanned across `threads` worker threads, each with its own
    /// reusable [`SsspWorkspace`]. The farthest-point *selection* phase is
    /// inherently sequential (each pick depends on the previous tree), so it
    /// always runs on the calling thread. Identical tables to the sequential
    /// path.
    ///
    /// # Panics
    ///
    /// Panics if the graph is empty or `count` is zero.
    pub fn select_parallel(graph: &RoadGraph, count: usize, threads: usize) -> Self {
        assert!(count > 0, "at least one landmark required");
        assert!(
            !graph.is_empty(),
            "cannot select landmarks on an empty graph"
        );
        let mut ws = SsspWorkspace::for_graph(graph);
        let nodes = choose_nodes(graph, count, &mut ws);
        let (from, to) = tables(graph, &nodes, threads, ws);
        // Interleave the per-landmark rows into the node-major layout.
        let n = graph.node_count();
        let l = nodes.len();
        let mut table = vec![Distance::MAX; n * 2 * l];
        for (li, (from_row, to_row)) in from.iter().zip(&to).enumerate() {
            for v in 0..n {
                table[v * 2 * l + li] = to_row[v];
                table[v * 2 * l + l + li] = from_row[v];
            }
        }
        Landmarks {
            count: l,
            table,
            nodes,
        }
    }

    /// The selected landmark nodes.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Number of landmarks `L`.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Number of nodes in the graph the tables were built for.
    pub fn node_count(&self) -> usize {
        if self.count == 0 {
            0
        } else {
            self.table.len() / (2 * self.count)
        }
    }

    /// Node `v`'s bound row: `2·L` distances, `d(v → landmark_l)` at `l`,
    /// `d(landmark_l → v)` at `L + l` (`Distance::MAX` where unreachable).
    ///
    /// # Panics
    ///
    /// Panics if `v` is outside the graph the tables were built for.
    pub fn bounds_row(&self, v: NodeId) -> &[Distance] {
        let l2 = 2 * self.count;
        &self.table[v.index() * l2..(v.index() + 1) * l2]
    }

    /// A lower bound on `d(v → t)` by the landmark triangle inequality
    /// (zero when no landmark gives information).
    pub fn lower_bound(&self, v: NodeId, t: NodeId) -> Distance {
        lower_bound_rows(self.bounds_row(v), self.bounds_row(t), self.count)
    }

    /// An upper bound on `d(v → t)`: the cheapest route through some
    /// landmark, `min_l d(v → l) + d(l → t)`; `Distance::MAX` when no
    /// landmark connects the pair.
    pub fn upper_bound(&self, v: NodeId, t: NodeId) -> Distance {
        let (rv, rt) = (self.bounds_row(v), self.bounds_row(t));
        let l = self.count;
        let mut best = Distance::MAX;
        for k in 0..l {
            let (vl, lt) = (rv[k], rt[l + k]);
            if vl != Distance::MAX && lt != Distance::MAX {
                best = best.min(vl.saturating_add(lt));
            }
        }
        best
    }
}

/// [`Landmarks::lower_bound`] on raw bound rows: `max_l max(to_v − to_t,
/// from_t − from_v)`. Shared with the pruned target search, which snapshots
/// target rows once per run.
pub(crate) fn lower_bound_rows(row_v: &[Distance], row_t: &[Distance], l: usize) -> Distance {
    let mut best = Distance::ZERO;
    for k in 0..l {
        // d(v→t) ≥ d(v→l) − d(t→l)
        let (vl, tl) = (row_v[k], row_t[k]);
        if vl != Distance::MAX && tl != Distance::MAX && vl > tl {
            best = best.max(vl - tl);
        }
        // d(v→t) ≥ d(l→t) − d(l→v)
        let (lt, lv) = (row_t[l + k], row_v[l + k]);
        if lt != Distance::MAX && lv != Distance::MAX && lt > lv {
            best = best.max(lt - lv);
        }
    }
    best
}

/// Farthest-point landmark selection: each pick maximizes the minimum
/// distance to all landmarks chosen so far, pushing landmarks to the
/// periphery. One full tree per pick, grown in the shared workspace and read
/// through its dense distance row.
fn choose_nodes(graph: &RoadGraph, count: usize, ws: &mut SsspWorkspace) -> Vec<NodeId> {
    let n = graph.node_count();
    let mut nodes: Vec<NodeId> = Vec::with_capacity(count);
    let mut min_dist = vec![Distance::MAX; n];
    let mut row = vec![Distance::MAX; n];
    let mut current = NodeId::new(0);
    for _ in 0..count.min(n) {
        nodes.push(current);
        ws.run(graph, current, Direction::Forward);
        ws.copy_distances_into(&mut row);
        let mut farthest = current;
        let mut far_d = Distance::ZERO;
        for v in graph.nodes() {
            min_dist[v.index()] = min_dist[v.index()].min(row[v.index()]);
            // Among reachable nodes, pick the one farthest from all chosen
            // landmarks so far.
            if min_dist[v.index()] != Distance::MAX
                && min_dist[v.index()] >= far_d
                && !nodes.contains(&v)
            {
                far_d = min_dist[v.index()];
                farthest = v;
            }
        }
        current = farthest;
    }
    nodes
}

/// Fills both landmark distance tables — `from[l][v]` via a forward tree,
/// `to[l][v]` via a reverse tree — fanning landmarks across workers. Takes
/// ownership of the selection workspace so the sequential path reuses it.
/// The clamp mirrors the workspace-wide thread policy: never more workers
/// than landmarks, never fewer than one.
fn tables(
    graph: &RoadGraph,
    nodes: &[NodeId],
    threads: usize,
    mut ws: SsspWorkspace,
) -> (Vec<Vec<Distance>>, Vec<Vec<Distance>>) {
    let n = graph.node_count();
    let grow = |ws: &mut SsspWorkspace, l: NodeId| {
        let mut from_row = vec![Distance::MAX; n];
        ws.run(graph, l, Direction::Forward);
        ws.copy_distances_into(&mut from_row);
        let mut to_row = vec![Distance::MAX; n];
        ws.run(graph, l, Direction::Reverse);
        ws.copy_distances_into(&mut to_row);
        (from_row, to_row)
    };
    let workers = threads.min(nodes.len()).max(1);
    if workers <= 1 {
        return nodes.iter().map(|&l| grow(&mut ws, l)).unzip();
    }
    let chunk = nodes.len().div_ceil(workers);
    let per_worker: Vec<Vec<(Vec<Distance>, Vec<Distance>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = nodes
            .chunks(chunk)
            .map(|shard| {
                scope.spawn(move || {
                    let mut ws = SsspWorkspace::for_graph(graph);
                    shard.iter().map(|&l| grow(&mut ws, l)).collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("landmark table worker panicked"))
            .collect()
    });
    per_worker.into_iter().flatten().unzip()
}

/// A* with the ALT heuristic: exact shortest paths, typically far fewer
/// settled nodes than Dijkstra on peripheral queries.
///
/// # Errors
///
/// * [`GraphError::NodeOutOfBounds`] if either endpoint is missing.
/// * [`GraphError::Unreachable`] if no path exists.
pub fn alt_path(
    graph: &RoadGraph,
    landmarks: &Landmarks,
    from: NodeId,
    to: NodeId,
) -> Result<Path, GraphError> {
    graph.check_node(from)?;
    graph.check_node(to)?;
    let n = graph.node_count();
    let mut dist = vec![Distance::MAX; n];
    let mut pred: Vec<Option<NodeId>> = vec![None; n];
    let mut heap: BinaryHeap<Reverse<(Distance, Distance, u32)>> = BinaryHeap::new();
    dist[from.index()] = Distance::ZERO;
    heap.push(Reverse((
        landmarks.lower_bound(from, to),
        Distance::ZERO,
        from.raw(),
    )));
    while let Some(Reverse((_f, g, raw))) = heap.pop() {
        let u = NodeId::new(raw);
        if g > dist[u.index()] {
            continue;
        }
        if u == to {
            break;
        }
        for nb in graph.out_neighbors(u) {
            let ng = g.saturating_add(nb.length);
            if ng < dist[nb.node.index()] {
                dist[nb.node.index()] = ng;
                pred[nb.node.index()] = Some(u);
                heap.push(Reverse((
                    ng.saturating_add(landmarks.lower_bound(nb.node, to)),
                    ng,
                    nb.node.raw(),
                )));
            }
        }
    }
    if dist[to.index()] == Distance::MAX {
        return Err(GraphError::Unreachable { from, to });
    }
    let mut chain = vec![to];
    let mut cur = to;
    while let Some(p) = pred[cur.index()] {
        chain.push(p);
        cur = p;
    }
    chain.reverse();
    Ok(Path::from_parts_unchecked(chain, dist[to.index()]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra;
    use crate::generators::{perturbed_grid, PerturbedGridParams};
    use crate::grid::GridGraph;

    #[test]
    fn parallel_selection_matches_sequential() {
        let g = perturbed_grid(
            PerturbedGridParams {
                rows: 6,
                cols: 6,
                spacing: Distance::from_feet(200),
                delete_probability: 0.1,
                diagonal_probability: 0.05,
            },
            7,
        );
        let seq = Landmarks::select(&g, 4);
        for threads in [1, 2, 3, 8] {
            let par = Landmarks::select_parallel(&g, 4, threads);
            assert_eq!(par.nodes(), seq.nodes(), "threads={threads}");
            for a in g.nodes() {
                for b in g.nodes() {
                    assert_eq!(par.lower_bound(a, b), seq.lower_bound(a, b));
                }
            }
        }
    }

    #[test]
    fn bounds_never_exceed_true_distance() {
        let g = perturbed_grid(
            PerturbedGridParams {
                rows: 7,
                cols: 7,
                spacing: Distance::from_feet(250),
                delete_probability: 0.1,
                diagonal_probability: 0.05,
            },
            9,
        );
        let lm = Landmarks::select(&g, 4);
        for a in (0..g.node_count() as u32).step_by(5) {
            let tree = dijkstra::shortest_path_tree(&g, NodeId::new(a));
            for b in (0..g.node_count() as u32).step_by(7) {
                if let Some(true_d) = tree.distance(NodeId::new(b)) {
                    let lb = lm.lower_bound(NodeId::new(a), NodeId::new(b));
                    assert!(
                        lb <= true_d,
                        "bound {lb} exceeds true distance {true_d} ({a} -> {b})"
                    );
                }
            }
        }
    }

    #[test]
    fn bound_is_exact_at_landmarks() {
        let grid = GridGraph::new(6, 6, Distance::from_feet(100));
        let g = grid.graph();
        let lm = Landmarks::select(g, 3);
        // For v = a landmark l, d(l→t) − d(l→l) = d(l→t): the bound is
        // exact from the landmark itself.
        for &l in lm.nodes() {
            let tree = dijkstra::shortest_path_tree(g, l);
            for t in g.nodes() {
                let true_d = tree.distance(t).unwrap();
                assert_eq!(lm.lower_bound(l, t), true_d, "landmark {l} target {t}");
            }
        }
    }

    #[test]
    fn alt_matches_dijkstra_everywhere() {
        let g = perturbed_grid(
            PerturbedGridParams {
                rows: 6,
                cols: 8,
                spacing: Distance::from_feet(300),
                delete_probability: 0.12,
                diagonal_probability: 0.08,
            },
            4,
        );
        let lm = Landmarks::select(&g, 4);
        for a in (0..g.node_count() as u32).step_by(9) {
            for b in (0..g.node_count() as u32).step_by(11) {
                let expected = dijkstra::distance(&g, NodeId::new(a), NodeId::new(b));
                match alt_path(&g, &lm, NodeId::new(a), NodeId::new(b)) {
                    Ok(p) => {
                        assert_eq!(Some(p.length()), expected, "pair ({a}, {b})");
                        // Valid walk.
                        let validated = Path::new(&g, p.nodes().to_vec()).unwrap();
                        assert!(validated.length() <= p.length());
                    }
                    Err(_) => assert_eq!(expected, None, "pair ({a}, {b})"),
                }
            }
        }
    }

    #[test]
    fn landmarks_are_distinct_and_well_separated() {
        let grid = GridGraph::new(9, 9, Distance::from_feet(100));
        let lm = Landmarks::select(grid.graph(), 4);
        assert_eq!(lm.nodes().len(), 4);
        // All distinct...
        let set: std::collections::HashSet<_> = lm.nodes().iter().collect();
        assert_eq!(set.len(), 4);
        // ...and farthest-point selection keeps them at least half the grid
        // apart pairwise (ties may pick central diagonal nodes, so exact
        // boundary membership is not guaranteed).
        for (i, &a) in lm.nodes().iter().enumerate() {
            for &b in &lm.nodes()[i + 1..] {
                assert!(
                    grid.street_distance(a, b) >= Distance::from_feet(800),
                    "landmarks {a} and {b} too close"
                );
            }
        }
    }

    #[test]
    fn upper_bound_never_below_true_distance() {
        let g = perturbed_grid(
            PerturbedGridParams {
                rows: 7,
                cols: 7,
                spacing: Distance::from_feet(250),
                delete_probability: 0.1,
                diagonal_probability: 0.05,
            },
            9,
        );
        let lm = Landmarks::select(&g, 4);
        for a in (0..g.node_count() as u32).step_by(5) {
            let tree = dijkstra::shortest_path_tree(&g, NodeId::new(a));
            for b in (0..g.node_count() as u32).step_by(7) {
                let ub = lm.upper_bound(NodeId::new(a), NodeId::new(b));
                match tree.distance(NodeId::new(b)) {
                    Some(true_d) => assert!(
                        ub >= true_d,
                        "upper bound {ub} below true distance {true_d} ({a} -> {b})"
                    ),
                    // Either truly disconnected or merely unseen by every
                    // landmark; the bound must stay saturated only if no
                    // landmark connects the pair, which disconnection implies
                    // on this connected generator.
                    None => assert_eq!(ub, Distance::MAX),
                }
            }
        }
    }

    #[test]
    fn bounds_row_layout_matches_reference_trees() {
        let grid = GridGraph::new(5, 4, Distance::from_feet(100));
        let g = grid.graph();
        let lm = Landmarks::select(g, 3);
        assert_eq!(lm.count(), 3);
        assert_eq!(lm.node_count(), g.node_count());
        for (li, &l) in lm.nodes().iter().enumerate() {
            let fwd = dijkstra::shortest_path_tree(g, l);
            let rev = dijkstra::reverse_shortest_path_tree(g, l);
            for v in g.nodes() {
                let row = lm.bounds_row(v);
                assert_eq!(row.len(), 2 * lm.count());
                assert_eq!(row[li], rev.distance(v).unwrap_or(Distance::MAX));
                assert_eq!(
                    row[lm.count() + li],
                    fwd.distance(v).unwrap_or(Distance::MAX)
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one landmark")]
    fn zero_landmarks_panics() {
        let grid = GridGraph::new(2, 2, Distance::from_feet(10));
        let _ = Landmarks::select(grid.graph(), 0);
    }

    #[test]
    fn count_clamped_to_node_count() {
        let grid = GridGraph::new(2, 2, Distance::from_feet(10));
        let lm = Landmarks::select(grid.graph(), 10);
        assert!(lm.nodes().len() <= 4);
    }
}
