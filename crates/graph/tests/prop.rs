//! Property-based tests for the graph substrate, and the reference
//! Dijkstra that the shortest-path kernels are checked against.

use proptest::prelude::*;
use rap_graph::apsp::DistanceMatrix;
use rap_graph::landmarks::Landmarks;
use rap_graph::sssp::{self, SsspKernel, SsspWorkspace, MAX_BUCKET_COUNT};
use rap_graph::{
    BoundingBox, Direction, Distance, GraphBuilder, GraphError, GridGraph, NodeId, Path, Point,
    RoadGraph,
};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The textbook binary-heap Dijkstra, kept only as the oracle that both
/// [`SsspWorkspace`] kernels must match bit for bit: fresh buffers per
/// call, no early exit, a predecessor recorded at every improving
/// relaxation.
struct ReferenceTree {
    root: NodeId,
    direction: Direction,
    dist: Vec<Distance>,
    pred: Vec<Option<NodeId>>,
}

impl ReferenceTree {
    /// Grows the full tree from `root`.
    ///
    /// # Panics
    ///
    /// Panics if `root` is out of bounds.
    fn grow(g: &RoadGraph, root: NodeId, direction: Direction) -> Self {
        let n = g.node_count();
        let mut dist = vec![Distance::MAX; n];
        let mut pred: Vec<Option<NodeId>> = vec![None; n];
        let mut heap: BinaryHeap<Reverse<(Distance, u32)>> = BinaryHeap::new();
        dist[root.index()] = Distance::ZERO;
        heap.push(Reverse((Distance::ZERO, root.raw())));
        while let Some(Reverse((d, raw))) = heap.pop() {
            let u = NodeId::new(raw);
            if d > dist[u.index()] {
                continue; // stale heap entry
            }
            let neighbors = match direction {
                Direction::Forward => g.out_neighbors(u),
                Direction::Reverse => g.in_neighbors(u),
            };
            for nb in neighbors {
                let nd = d.saturating_add(nb.length);
                if nd < dist[nb.node.index()] {
                    dist[nb.node.index()] = nd;
                    pred[nb.node.index()] = Some(u);
                    heap.push(Reverse((nd, nb.node.raw())));
                }
            }
        }
        ReferenceTree {
            root,
            direction,
            dist,
            pred,
        }
    }

    fn distance(&self, v: NodeId) -> Option<Distance> {
        self.dist
            .get(v.index())
            .copied()
            .filter(|&d| d != Distance::MAX)
    }

    /// The root → `v` path of a forward tree, the `v` → root path of a
    /// reverse tree, with the errors [`SsspWorkspace::path_to`] gives.
    fn path_to(&self, v: NodeId) -> Result<Path, GraphError> {
        if v.index() >= self.dist.len() {
            return Err(GraphError::NodeOutOfBounds {
                node: v,
                node_count: self.dist.len(),
            });
        }
        let total = self.distance(v).ok_or(match self.direction {
            Direction::Forward => GraphError::Unreachable {
                from: self.root,
                to: v,
            },
            Direction::Reverse => GraphError::Unreachable {
                from: v,
                to: self.root,
            },
        })?;
        let mut chain = vec![v];
        let mut cur = v;
        while let Some(p) = self.pred[cur.index()] {
            chain.push(p);
            cur = p;
        }
        if self.direction == Direction::Forward {
            chain.reverse();
        }
        Ok(Path::from_parts_unchecked(chain, total))
    }
}

/// Strategy: a random connected-ish directed graph as (node count, edge
/// list); edges may be dense or sparse, lengths in 1..=1000.
fn arb_graph() -> impl Strategy<Value = (usize, Vec<(u32, u32, u64)>)> {
    (2usize..12).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32, 1u64..1_000), 1..40);
        (Just(n), edges)
    })
}

fn build(n: usize, edges: &[(u32, u32, u64)]) -> RoadGraph {
    let mut b = GraphBuilder::new();
    for i in 0..n {
        b.add_node(Point::new(i as f64, 0.0));
    }
    for &(s, d, l) in edges {
        if s != d {
            let _ = b.add_edge(NodeId::new(s), NodeId::new(d), Distance::from_feet(l));
        }
    }
    b.build()
}

/// Asserts that both SSSP kernels match the reference binary-heap tree
/// bit-for-bit: same settled distances and, for every reachable node, the
/// same extracted path (i.e. identical predecessor arrays).
fn assert_kernels_match_reference(g: &RoadGraph, root: NodeId) -> Result<(), TestCaseError> {
    for direction in [Direction::Forward, Direction::Reverse] {
        let reference = ReferenceTree::grow(g, root, direction);
        let mut bucket = SsspWorkspace::with_kernel_for_graph(g, SsspKernel::BucketQueue);
        let mut heap = SsspWorkspace::with_kernel_for_graph(g, SsspKernel::BinaryHeap);
        bucket.run(g, root, direction);
        heap.run(g, root, direction);
        for v in g.nodes() {
            prop_assert_eq!(bucket.distance(v), reference.distance(v));
            prop_assert_eq!(heap.distance(v), reference.distance(v));
            let (b, h, r) = (bucket.path_to(v), heap.path_to(v), reference.path_to(v));
            match r {
                Ok(path) => {
                    let bp = b.expect("bucket routes reachable node");
                    let hp = h.expect("heap routes reachable node");
                    prop_assert_eq!(bp.nodes(), path.nodes());
                    prop_assert_eq!(hp.nodes(), path.nodes());
                }
                Err(_) => {
                    prop_assert!(b.is_err());
                    prop_assert!(h.is_err());
                }
            }
        }
    }
    Ok(())
}

/// Asserts that a goal-directed run to each target, duplicates included,
/// is bit-identical to the plain early-exit run over all of them and to the
/// reference tree, in both directions: same settled distance, same extracted
/// path node sequence (i.e. the same predecessor chain), and agreement on
/// unreachability.
fn assert_guided_matches_plain(
    g: &RoadGraph,
    root: NodeId,
    targets: &[NodeId],
    landmarks: &Landmarks,
) -> Result<(), TestCaseError> {
    for direction in [Direction::Forward, Direction::Reverse] {
        let reference = ReferenceTree::grow(g, root, direction);
        let mut plain = SsspWorkspace::for_graph(g);
        let mut guided = SsspWorkspace::for_graph(g);
        plain.run_to_targets(g, root, direction, targets);
        for &t in targets {
            guided.run_to_target_guided(g, root, direction, t, landmarks);
            prop_assert_eq!(plain.distance(t), guided.distance(t));
            prop_assert_eq!(guided.distance(t), reference.distance(t));
            match plain.path_to(t) {
                Ok(path) => {
                    let gp = guided.path_to(t).expect("guided run reaches target");
                    prop_assert_eq!(gp.nodes(), path.nodes());
                    prop_assert_eq!(gp.length(), path.length());
                    let rp = reference.path_to(t).expect("reference reaches target");
                    prop_assert_eq!(gp.nodes(), rp.nodes());
                }
                Err(_) => prop_assert!(guided.path_to(t).is_err()),
            }
        }
    }
    Ok(())
}

proptest! {
    /// Dijkstra and Floyd–Warshall must agree on every pair.
    #[test]
    fn dijkstra_matches_floyd_warshall((n, edges) in arb_graph()) {
        let g = build(n, &edges);
        let a = DistanceMatrix::dijkstra_all(&g);
        let b = DistanceMatrix::floyd_warshall(&g);
        for u in g.nodes() {
            for v in g.nodes() {
                prop_assert_eq!(a.get(u, v), b.get(u, v));
            }
        }
    }

    /// Both SSSP kernels, explicitly forced, fill the whole distance matrix
    /// exactly as Floyd–Warshall does.
    #[test]
    fn kernel_apsp_matches_floyd_warshall((n, edges) in arb_graph()) {
        let g = build(n, &edges);
        let fw = DistanceMatrix::floyd_warshall(&g);
        for kernel in [SsspKernel::BucketQueue, SsspKernel::BinaryHeap] {
            let m = DistanceMatrix::dijkstra_all_with_kernel(&g, kernel);
            for u in g.nodes() {
                for v in g.nodes() {
                    prop_assert_eq!(m.get(u, v), fw.get(u, v));
                }
            }
        }
    }

    /// Bucket and heap kernels are bit-identical to the reference tree —
    /// distances AND predecessors — in both directions, from any root.
    ///
    /// Zero-length edges are unconstructible (`GraphBuilder::add_edge`
    /// rejects them with `GraphError::ZeroLengthEdge`), so lengths start at
    /// 1 — exactly the invariant the kernels' settle-order argument relies
    /// on.
    #[test]
    fn sssp_kernels_are_bit_identical((n, edges) in arb_graph(), root_raw in 0usize..64) {
        let g = build(n, &edges);
        let root = NodeId::new((root_raw % n) as u32);
        assert_kernels_match_reference(&g, root)?;
    }

    /// Maximum edge-length spread: lengths right up to the bucket-array
    /// limit (`MAX_BUCKET_COUNT - 1` feet) stay exact under the forced
    /// bucket kernel.
    #[test]
    fn sssp_kernels_survive_max_spread_edges(
        n in 2usize..8,
        edges in proptest::collection::vec(
            (0u32..8, 0u32..8, 1u64..(MAX_BUCKET_COUNT as u64)),
            1..16,
        ),
    ) {
        let edges: Vec<(u32, u32, u64)> = edges
            .into_iter()
            .map(|(s, d, l)| (s % n as u32, d % n as u32, l))
            .collect();
        let g = build(n, &edges);
        assert_kernels_match_reference(&g, NodeId::new(0))?;
    }

    /// The one-off [`sssp::shortest_path`] returns the reference tree's
    /// path, nodes and length, or an error of the same kind, for targets in
    /// and out of bounds.
    #[test]
    fn shortest_path_matches_reference(
        (n, edges) in arb_graph(),
        from_raw in 0usize..64,
        to_raw in 0usize..16,
    ) {
        let g = build(n, &edges);
        let from = NodeId::new((from_raw % n) as u32);
        let to = NodeId::new(to_raw as u32);
        let reference = ReferenceTree::grow(&g, from, Direction::Forward).path_to(to);
        match (sssp::shortest_path(&g, from, to), reference) {
            (Ok(got), Ok(want)) => {
                prop_assert_eq!(got.nodes(), want.nodes());
                prop_assert_eq!(got.length(), want.length());
            }
            (Err(got), Err(want)) => prop_assert_eq!(got.to_string(), want.to_string()),
            (got, want) => prop_assert!(false, "got {:?}, reference {:?}", got, want),
        }
    }

    /// The distance matrix satisfies the triangle inequality.
    #[test]
    fn triangle_inequality((n, edges) in arb_graph()) {
        let g = build(n, &edges);
        let m = DistanceMatrix::dijkstra_all(&g);
        for u in g.nodes() {
            for v in g.nodes() {
                for w in g.nodes() {
                    if let (Some(uv), Some(vw)) = (m.get(u, v), m.get(v, w)) {
                        let uw = m.get(u, w).expect("reachable via v");
                        prop_assert!(uw <= uv.saturating_add(vw));
                    }
                }
            }
        }
    }

    /// Extracted shortest paths are valid walks with the reported length.
    #[test]
    fn extracted_paths_are_consistent((n, edges) in arb_graph()) {
        let g = build(n, &edges);
        let source = NodeId::new(0);
        let mut tree = SsspWorkspace::for_graph(&g);
        tree.run(&g, source, Direction::Forward);
        for v in g.nodes() {
            if let Ok(path) = tree.path_to(v) {
                prop_assert_eq!(path.origin(), source);
                prop_assert_eq!(path.destination(), v);
                // Re-validating through Path::new must agree on the length.
                let revalidated =
                    rap_graph::Path::new(&g, path.nodes().to_vec()).expect("tree path is valid");
                prop_assert!(revalidated.length() <= path.length());
                prop_assert_eq!(tree.distance(v), Some(path.length()));
            }
        }
    }

    /// Reverse runs agree with forward runs from every source.
    #[test]
    fn reverse_tree_agrees_with_forward((n, edges) in arb_graph()) {
        let g = build(n, &edges);
        let target = NodeId::new((n - 1) as u32);
        let mut rev = SsspWorkspace::for_graph(&g);
        let mut fwd = SsspWorkspace::for_graph(&g);
        rev.run(&g, target, Direction::Reverse);
        for v in g.nodes() {
            fwd.run(&g, v, Direction::Forward);
            prop_assert_eq!(rev.distance(v), fwd.distance(target));
        }
    }

    /// Text serialization round-trips arbitrary graphs.
    #[test]
    fn text_io_roundtrip((n, edges) in arb_graph()) {
        let g = build(n, &edges);
        let mut buf = Vec::new();
        rap_graph::io::write_text(&g, &mut buf).expect("write succeeds");
        let g2 = rap_graph::io::read_text(buf.as_slice()).expect("read succeeds");
        prop_assert_eq!(g.node_count(), g2.node_count());
        prop_assert_eq!(g.edge_count(), g2.edge_count());
        for (a, b) in g.edges().zip(g2.edges()) {
            prop_assert_eq!(a, b);
        }
    }

    /// In a uniform grid, L1 block distance equals the shortest-path
    /// distance.
    #[test]
    fn grid_l1_equals_dijkstra(rows in 2u32..6, cols in 2u32..6, spacing in 1u64..500) {
        let grid = GridGraph::new(rows, cols, Distance::from_feet(spacing));
        let mut tree = SsspWorkspace::for_graph(grid.graph());
        tree.run(grid.graph(), NodeId::new(0), Direction::Forward);
        for v in grid.graph().nodes() {
            prop_assert_eq!(
                tree.distance(v),
                Some(grid.street_distance(NodeId::new(0), v))
            );
        }
    }

    /// Random geometric graphs are strongly connected for any seed.
    #[test]
    fn random_geometric_always_connected(seed in 0u64..50, n in 2usize..25) {
        let bb = BoundingBox::new(Point::new(0.0, 0.0), Point::new(1_000.0, 1_000.0));
        let g = rap_graph::generators::random_geometric(n, bb, 200.0, seed);
        prop_assert!(DistanceMatrix::dijkstra_all(&g).strongly_connected());
    }

    /// Guided runs on adversarial random one-way graphs — sparse, dense,
    /// unreachable targets, duplicate targets, any landmark count — are
    /// bit-identical to the plain run and the reference. Nodes that cannot
    /// reach the target get inconsistent keys here, so this is where
    /// reopening is exercised.
    #[test]
    fn alt_guided_target_runs_are_bit_identical(
        (n, edges) in arb_graph(),
        root_raw in 0usize..64,
        target_raw in proptest::collection::vec(0usize..64, 1..6),
        lm_count in 1usize..5,
    ) {
        let g = build(n, &edges);
        let root = NodeId::new((root_raw % n) as u32);
        let targets: Vec<NodeId> = target_raw
            .iter()
            .map(|&t| NodeId::new((t % n) as u32))
            .collect();
        let lm = Landmarks::select(&g, lm_count);
        assert_guided_matches_plain(&g, root, &targets, &lm)?;
    }

    /// The same identity over uniform grids, where many equal-length paths
    /// tie and the landmark lower bounds are frequently exact — the worst
    /// case for the equal-distance tie rule and for stopping one key too
    /// early.
    #[test]
    fn alt_guided_grid_runs_are_bit_identical(
        rows in 2u32..7,
        cols in 2u32..7,
        spacing in 1u64..400,
        root_raw in 0u32..64,
        target_raw in proptest::collection::vec(0u32..64, 1..5),
    ) {
        let grid = GridGraph::new(rows, cols, Distance::from_feet(spacing));
        let n = grid.graph().node_count() as u32;
        let root = NodeId::new(root_raw % n);
        let targets: Vec<NodeId> =
            target_raw.iter().map(|&t| NodeId::new(t % n)).collect();
        let lm = Landmarks::select(grid.graph(), 3);
        assert_guided_matches_plain(grid.graph(), root, &targets, &lm)?;
    }

    /// Zero-length edges (unconstructible through the public API, injected
    /// via the test-only builder hook) break the tie rule's premise, so the
    /// guided run must fall back to the plain search and stay identical to
    /// it.
    #[test]
    fn alt_guided_run_survives_zero_length_edges(
        n in 2usize..10,
        edges in proptest::collection::vec((0u32..10, 0u32..10, 0u64..60), 1..30),
        root_raw in 0usize..64,
        target_raw in proptest::collection::vec(0usize..64, 1..5),
    ) {
        let mut b = GraphBuilder::new();
        for i in 0..n {
            b.add_node(Point::new(i as f64, 0.0));
        }
        for &(s, d, l) in &edges {
            let (s, d) = (s % n as u32, d % n as u32);
            if s != d {
                let _ = b.add_edge_allow_zero(
                    NodeId::new(s),
                    NodeId::new(d),
                    Distance::from_feet(l),
                );
            }
        }
        let g = b.build();
        let root = NodeId::new((root_raw % n) as u32);
        let targets: Vec<NodeId> = target_raw
            .iter()
            .map(|&t| NodeId::new((t % n) as u32))
            .collect();
        let lm = Landmarks::select(&g, 2);
        // Settle order within a distance tie can differ between the kernel
        // and the plain binary-heap reference once zero-length edges exist,
        // so only the guided-vs-plain half of the identity applies to paths
        // here; distances stay uniquely determined.
        for direction in [Direction::Forward, Direction::Reverse] {
            let reference = ReferenceTree::grow(&g, root, direction);
            let mut plain = SsspWorkspace::for_graph(&g);
            let mut guided = SsspWorkspace::for_graph(&g);
            plain.run_to_targets(&g, root, direction, &targets);
            for &t in &targets {
                guided.run_to_target_guided(&g, root, direction, t, &lm);
                prop_assert_eq!(plain.distance(t), guided.distance(t));
                prop_assert_eq!(guided.distance(t), reference.distance(t));
                match plain.path_to(t) {
                    Ok(path) => {
                        let gp = guided.path_to(t).expect("guided run reaches target");
                        prop_assert_eq!(gp.nodes(), path.nodes());
                    }
                    Err(_) => prop_assert!(guided.path_to(t).is_err()),
                }
            }
        }
    }
}

/// Diamond with a shortcut:
///
/// ```text
///     1
///   /   \
///  0     3 --- 4
///   \   /
///     2
/// ```
fn diamond() -> (RoadGraph, Vec<NodeId>) {
    let mut b = GraphBuilder::new();
    let v: Vec<NodeId> = (0..5)
        .map(|i| b.add_node(Point::new(i as f64, 0.0)))
        .collect();
    b.add_two_way(v[0], v[1], Distance::from_feet(2)).unwrap();
    b.add_two_way(v[0], v[2], Distance::from_feet(1)).unwrap();
    b.add_two_way(v[1], v[3], Distance::from_feet(2)).unwrap();
    b.add_two_way(v[2], v[3], Distance::from_feet(4)).unwrap();
    b.add_two_way(v[3], v[4], Distance::from_feet(1)).unwrap();
    (b.build(), v)
}

/// 100-node two-way line, 10 ft per hop: farthest-point selection puts
/// landmarks at both ends, where the ALT bounds are exact.
fn line100() -> RoadGraph {
    let mut b = GraphBuilder::new();
    let v: Vec<NodeId> = (0..100)
        .map(|i| b.add_node(Point::new(i as f64 * 10.0, 0.0)))
        .collect();
    for w in v.windows(2) {
        b.add_two_way(w[0], w[1], Distance::from_feet(10)).unwrap();
    }
    b.build()
}

#[test]
fn reference_tree_on_the_diamond() {
    let (g, v) = diamond();
    let t = ReferenceTree::grow(&g, v[0], Direction::Forward);
    let want = [0, 2, 1, 4, 5].map(Distance::from_feet);
    for (&u, &d) in v.iter().zip(&want) {
        assert_eq!(t.distance(u), Some(d), "node {u}");
    }
    assert_eq!(t.path_to(v[4]).unwrap().nodes(), &[v[0], v[1], v[3], v[4]]);
}

#[test]
fn both_kernels_match_reference_tree() {
    let (g, v) = diamond();
    let reference = ReferenceTree::grow(&g, v[0], Direction::Forward);
    for kernel in [SsspKernel::BucketQueue, SsspKernel::BinaryHeap] {
        let mut ws = SsspWorkspace::with_kernel_for_graph(&g, kernel);
        ws.run(&g, v[0], Direction::Forward);
        for &u in &v {
            assert_eq!(ws.distance(u), reference.distance(u), "{kernel:?} {u}");
            assert_eq!(
                ws.path_to(u).unwrap().nodes(),
                reference.path_to(u).unwrap().nodes(),
                "{kernel:?} {u}"
            );
        }
    }
}

#[test]
fn reverse_runs_match_reference() {
    let (g, v) = diamond();
    let reference = ReferenceTree::grow(&g, v[4], Direction::Reverse);
    let mut ws = SsspWorkspace::for_graph(&g);
    ws.run(&g, v[4], Direction::Reverse);
    for &u in &v {
        assert_eq!(ws.distance(u), reference.distance(u), "{u}");
    }
    let p = ws.path_to(v[0]).unwrap();
    assert_eq!(p.nodes(), reference.path_to(v[0]).unwrap().nodes());
}

#[test]
fn workspace_reuse_resets_state() {
    let (g, v) = diamond();
    let mut ws = SsspWorkspace::for_graph(&g);
    ws.run(&g, v[0], Direction::Forward);
    assert_eq!(ws.distance(v[4]), Some(Distance::from_feet(5)));
    // A second run from a different root fully replaces the first.
    ws.run(&g, v[4], Direction::Forward);
    assert_eq!(ws.distance(v[0]), Some(Distance::from_feet(5)));
    assert_eq!(ws.root(), v[4]);
    let reference = ReferenceTree::grow(&g, v[4], Direction::Forward);
    for &u in &v {
        assert_eq!(ws.distance(u), reference.distance(u));
    }
}

#[test]
fn early_exit_settles_requested_targets_exactly() {
    let grid = GridGraph::new(5, 5, Distance::from_feet(10));
    let g = grid.graph();
    let full = ReferenceTree::grow(g, NodeId::new(0), Direction::Forward);
    let mut ws = SsspWorkspace::for_graph(g);
    let targets = [NodeId::new(6), NodeId::new(2)];
    ws.run_to_targets(g, NodeId::new(0), Direction::Forward, &targets);
    for t in targets {
        assert_eq!(ws.distance(t), full.distance(t));
        assert_eq!(
            ws.path_to(t).unwrap().nodes(),
            full.path_to(t).unwrap().nodes()
        );
    }
    // The far corner was never needed; early exit leaves it unsettled.
    assert_eq!(ws.distance(NodeId::new(24)), None);
    // A subsequent full run is unaffected by the abandoned queue.
    ws.run(g, NodeId::new(0), Direction::Forward);
    assert_eq!(ws.distance(NodeId::new(24)), full.distance(NodeId::new(24)));
}

#[test]
fn guided_targets_match_reference_and_settle_fewer() {
    let g = line100();
    let lm = Landmarks::select(&g, 2);
    let root = NodeId::new(50);
    let targets = [NodeId::new(52), NodeId::new(95)];
    let reference = ReferenceTree::grow(&g, root, Direction::Forward);
    for kernel in [SsspKernel::BucketQueue, SsspKernel::BinaryHeap] {
        let mut plain = SsspWorkspace::with_kernel_for_graph(&g, kernel);
        plain.run_to_targets(&g, root, Direction::Forward, &targets);
        let plain_settled = plain.last_run_settled();

        let mut ws = SsspWorkspace::with_kernel_for_graph(&g, kernel);
        let mut guided_settled = 0;
        for t in targets {
            ws.run_to_target_guided(&g, root, Direction::Forward, t, &lm);
            guided_settled += ws.last_run_settled();
            assert_eq!(ws.distance(t), reference.distance(t), "{kernel:?} {t}");
            assert_eq!(
                ws.path_to(t).unwrap().nodes(),
                reference.path_to(t).unwrap().nodes(),
                "{kernel:?} {t}"
            );
        }
        // The plain run settles the whole disc out to the far target, both
        // sides of the root; the landmark bounds are exact on a line, so
        // each guided run settles only the nodes between root and target.
        assert_eq!(plain_settled, 91, "{kernel:?}");
        assert_eq!(guided_settled, 3 + 46, "{kernel:?}");
    }
}

#[test]
fn guided_reverse_run_matches_reference() {
    let g = line100();
    let lm = Landmarks::select(&g, 2);
    let root = NodeId::new(60);
    let targets = [NodeId::new(58), NodeId::new(3)];
    let reference = ReferenceTree::grow(&g, root, Direction::Reverse);
    let mut ws = SsspWorkspace::for_graph(&g);
    for t in targets {
        ws.run_to_target_guided(&g, root, Direction::Reverse, t, &lm);
        assert_eq!(ws.distance(t), reference.distance(t), "{t}");
        assert_eq!(
            ws.path_to(t).unwrap().nodes(),
            reference.path_to(t).unwrap().nodes(),
            "{t}"
        );
    }
}

#[test]
fn max_spread_edges_still_exact_under_bucket_kernel() {
    // Longest representable bucket edge next to a 1 ft edge: the widest
    // spread the bucket kernel accepts.
    let mut b = GraphBuilder::new();
    let v: Vec<NodeId> = (0..4)
        .map(|i| b.add_node(Point::new(i as f64, 0.0)))
        .collect();
    let long = Distance::from_feet(MAX_BUCKET_COUNT as u64 - 1);
    b.add_edge(v[0], v[1], long).unwrap();
    b.add_edge(v[0], v[2], Distance::from_feet(1)).unwrap();
    b.add_edge(v[2], v[1], long).unwrap();
    b.add_edge(v[1], v[3], Distance::from_feet(1)).unwrap();
    let g = b.build();
    let reference = ReferenceTree::grow(&g, v[0], Direction::Forward);
    let mut ws = SsspWorkspace::with_kernel_for_graph(&g, SsspKernel::BucketQueue);
    ws.run(&g, v[0], Direction::Forward);
    for &u in &v {
        assert_eq!(ws.distance(u), reference.distance(u), "{u}");
    }
    assert_eq!(ws.distance(v[1]), Some(long)); // direct edge wins
}
