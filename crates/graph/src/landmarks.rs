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
//! periphery where the bounds are tight. Selection grows one forward tree
//! from every landmark it picks, and those trees are the `from` table; the
//! table phase then grows only the reverse trees, `2·L` full trees in all.
//! The goal-directed routing run
//! ([`crate::sssp::SsspWorkspace::run_to_target_guided`]) keys its heap by
//! distance plus this bound.

use crate::graph::RoadGraph;
use crate::node::{Distance, NodeId};
use crate::sssp::{Direction, SsspWorkspace};

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
    /// 0 and precomputes both distance tables (`2 × count` Dijkstras: the
    /// selection's forward trees, then one reverse tree per landmark).
    ///
    /// # Panics
    ///
    /// Panics if the graph is empty or `count` is zero.
    pub fn select(graph: &RoadGraph, count: usize) -> Self {
        Self::select_parallel(graph, count, 1)
    }

    /// [`Landmarks::select`] with the table phase (one reverse tree per
    /// landmark) fanned across `threads` worker threads, each with its own
    /// reusable [`SsspWorkspace`]. The farthest-point *selection* phase is
    /// inherently sequential (each pick depends on the previous tree), so it
    /// always runs on the calling thread; its forward trees are the `from`
    /// table. Identical tables to the sequential path.
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
        let (nodes, from) = choose_nodes(graph, count, &mut ws);
        let to = reverse_tables(graph, &nodes, threads, ws);
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
}

/// [`Landmarks::lower_bound`] on raw bound rows: `max_l max(to_v − to_t,
/// from_t − from_v)`. Shared with the guided search, which reads the
/// target's row once per run.
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
/// periphery. When the chosen landmarks reach no unchosen node, the next
/// pick is the lowest-id node none of them reaches, so no node is picked
/// twice. One full forward tree per pick, grown in the shared workspace;
/// its dense distance row is kept as the landmark's `from` row.
fn choose_nodes(
    graph: &RoadGraph,
    count: usize,
    ws: &mut SsspWorkspace,
) -> (Vec<NodeId>, Vec<Vec<Distance>>) {
    let n = graph.node_count();
    let picks = count.min(n);
    let mut nodes: Vec<NodeId> = Vec::with_capacity(picks);
    let mut from: Vec<Vec<Distance>> = Vec::with_capacity(picks);
    let mut min_dist = vec![Distance::MAX; n];
    let mut current = NodeId::new(0);
    for _ in 0..picks {
        nodes.push(current);
        ws.run(graph, current, Direction::Forward);
        let mut row = vec![Distance::MAX; n];
        ws.copy_distances_into(&mut row);
        let mut farthest = None;
        let mut far_d = Distance::ZERO;
        let mut unreached = None;
        for v in graph.nodes() {
            let d = min_dist[v.index()].min(row[v.index()]);
            min_dist[v.index()] = d;
            // Among reachable nodes, pick the one farthest from all chosen
            // landmarks so far. A chosen landmark reaches itself, so an
            // unreached node is never a chosen one.
            if d == Distance::MAX {
                unreached = unreached.or(Some(v));
            } else if d >= far_d && !nodes.contains(&v) {
                far_d = d;
                farthest = Some(v);
            }
        }
        from.push(row);
        // After the last pick every node may be chosen; nothing reads
        // `current` then.
        if let Some(next) = farthest.or(unreached) {
            current = next;
        }
    }
    (nodes, from)
}

/// Fills the `to` table, `to[l][v]` via a reverse tree from each landmark,
/// fanning landmarks across workers. Takes ownership of the selection
/// workspace so the sequential path reuses it. The clamp mirrors the
/// workspace-wide thread policy: never more workers than landmarks, never
/// fewer than one.
fn reverse_tables(
    graph: &RoadGraph,
    nodes: &[NodeId],
    threads: usize,
    mut ws: SsspWorkspace,
) -> Vec<Vec<Distance>> {
    let n = graph.node_count();
    let grow = |ws: &mut SsspWorkspace, l: NodeId| {
        let mut to_row = vec![Distance::MAX; n];
        ws.run(graph, l, Direction::Reverse);
        ws.copy_distances_into(&mut to_row);
        to_row
    };
    let workers = threads.min(nodes.len()).max(1);
    if workers <= 1 {
        return nodes.iter().map(|&l| grow(&mut ws, l)).collect();
    }
    let chunk = nodes.len().div_ceil(workers);
    std::thread::scope(|scope| {
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
            .flat_map(|h| h.join().expect("landmark table worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apsp::DistanceMatrix;
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
        let truth = DistanceMatrix::floyd_warshall(&g);
        for a in (0..g.node_count() as u32).step_by(5) {
            for b in (0..g.node_count() as u32).step_by(7) {
                if let Some(true_d) = truth.get(NodeId::new(a), NodeId::new(b)) {
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
        let truth = DistanceMatrix::floyd_warshall(g);
        // For v = a landmark l, d(l→t) − d(l→l) = d(l→t): the bound is
        // exact from the landmark itself.
        for &l in lm.nodes() {
            for t in g.nodes() {
                let true_d = truth.get(l, t).unwrap();
                assert_eq!(lm.lower_bound(l, t), true_d, "landmark {l} target {t}");
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
    fn bounds_row_layout_matches_exact_distances() {
        let grid = GridGraph::new(5, 4, Distance::from_feet(100));
        let g = grid.graph();
        let lm = Landmarks::select(g, 3);
        assert_eq!(lm.count(), 3);
        assert_eq!(lm.node_count(), g.node_count());
        let truth = DistanceMatrix::floyd_warshall(g);
        for (li, &l) in lm.nodes().iter().enumerate() {
            for v in g.nodes() {
                let row = lm.bounds_row(v);
                assert_eq!(row.len(), 2 * lm.count());
                assert_eq!(row[li], truth.get(v, l).unwrap_or(Distance::MAX));
                assert_eq!(
                    row[lm.count() + li],
                    truth.get(l, v).unwrap_or(Distance::MAX)
                );
            }
        }
    }

    /// Node 0 is a one-way dead end (`1 → 0` is its only edge), so the
    /// first landmark reaches no other node; nodes 1–5 form a two-way ring
    /// with one chord.
    fn dead_end_at_zero() -> RoadGraph {
        let mut b = crate::graph::GraphBuilder::new();
        let v: Vec<NodeId> = (0..6)
            .map(|i| b.add_node(crate::geometry::Point::new(f64::from(i), 0.0)))
            .collect();
        b.add_edge(v[1], v[0], Distance::from_feet(100)).unwrap();
        let streets = [
            (1, 2, 120),
            (2, 3, 90),
            (3, 4, 150),
            (4, 5, 80),
            (5, 1, 110),
            (2, 5, 200),
        ];
        for (a, c, feet) in streets {
            let length = Distance::from_feet(feet);
            b.add_two_way(v[a], v[c], length).unwrap();
        }
        b.build()
    }

    #[test]
    fn selection_past_a_dead_end_never_repeats_a_node() {
        let g = dead_end_at_zero();
        let lm = Landmarks::select(&g, 4);
        let distinct: std::collections::HashSet<_> = lm.nodes().iter().collect();
        assert_eq!(distinct.len(), 4, "landmarks {:?}", lm.nodes());
        assert_eq!(lm.nodes()[..2], [NodeId::new(0), NodeId::new(1)]);

        let truth = DistanceMatrix::floyd_warshall(&g);
        let mut plain = SsspWorkspace::for_graph(&g);
        let mut guided = SsspWorkspace::for_graph(&g);
        for s in g.nodes() {
            for t in g.nodes() {
                if let Some(true_d) = truth.get(s, t) {
                    assert!(lm.lower_bound(s, t) <= true_d, "bound {s} -> {t}");
                }
                for direction in [Direction::Forward, Direction::Reverse] {
                    plain.run_to_targets(&g, s, direction, &[t]);
                    guided.run_to_target_guided(&g, s, direction, t, &lm);
                    assert_eq!(guided.distance(t), plain.distance(t), "{s} -> {t}");
                    assert_eq!(
                        guided.path_to(t).ok().map(|p| p.nodes().to_vec()),
                        plain.path_to(t).ok().map(|p| p.nodes().to_vec()),
                        "{s} -> {t} ({direction:?})"
                    );
                }
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
