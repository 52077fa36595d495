//! Single-source shortest paths: the library's one search, a Dial bucket
//! queue or a binary heap over a reusable workspace.
//!
//! Every shortest-path consumer runs through [`SsspWorkspace`]: flow
//! routing (one early-exit run per distinct origin, or one guided run per
//! distinct origin–destination pair), the detour table (two full runs per
//! shop), all-pairs matrices (one run per node), landmark tables (one
//! forward run per landmark while choosing them, one reverse run per
//! landmark after) and one-off queries such as the map matcher's gap
//! bridges ([`shortest_path`]). The engine they share:
//!
//! * [`SsspWorkspace`] — per-graph scratch (distances, predecessors, epoch
//!   stamps, bucket array, heap) with O(1) reset between runs, so repeated
//!   tree growths stop allocating;
//! * a **Dial bucket-queue kernel**: [`Distance`] is an integral number of
//!   feet, so a monotone circular bucket array with one bucket per foot of
//!   the longest edge replaces the binary heap — `O(|E| + D)` for maximum
//!   settled distance `D`, with no `log |V|` factor and no sift traffic;
//! * automatic kernel selection by edge-length spread (see
//!   [`SsspWorkspace::kernel`]): graphs whose longest edge is large relative
//!   to their size fall back to the binary heap, where the bucket scan and
//!   footprint would degenerate;
//! * **early exit** for routing workloads: [`SsspWorkspace::run_to_targets`]
//!   stops as soon as every requested destination is settled, which on
//!   uniformly random origin–destination demand roughly halves the settled
//!   region per tree;
//! * a **goal-directed run** to one target
//!   ([`SsspWorkspace::run_to_target_guided`]): an A* over precomputed
//!   [`crate::landmarks::Landmarks`] tables (ALT, Goldberg & Harrelson) that
//!   settles an ellipse around the root–target corridor instead of the
//!   whole disc out to the target's distance.
//!
//! Both kernels settle nodes in exactly the same order — ascending
//! `(distance, node id)` — so distances, predecessor links, and extracted
//! paths are **bit-identical** to each other and to a textbook binary-heap
//! Dijkstra (property-tested in `tests/prop.rs`, which keeps that reference
//! as test code). Downstream consumers (flow routing, detour tables, greedy
//! placements) therefore cannot observe which kernel ran, only how fast it
//! was.
//!
//! ## Why the guided run walks the plain chain
//!
//! With positive edge lengths, the plain search settles in ascending
//! `(distance, id)` and records a predecessor only on a strict improvement,
//! so the predecessor of `v` is its *canonical* in-neighbour: among the
//! tight ones (`d(u) + w(u, v) = d(v)`), the one with the least
//! `(d(u), id)`. The guided run pops by key `d(u) + lb(u, t)`, where `lb`
//! is the landmark lower bound on the remaining distance to the target `t`,
//! and keeps popping until the least key exceeds `d(t)`. It reopens a
//! popped node whose distance later improves (a node that cannot reach `t`
//! may carry an inconsistent key), and on an equal-distance relaxation it
//! keeps the predecessor with the smaller `(distance, id)`. Three facts make
//! `path_to(t)` walk exactly the plain chain:
//!
//! * every node `x` on a shortest root→`t` path has key
//!   `d(x) + lb(x, t) ≤ d(x) + d(x, t) = d(t)`, so the run pops it at its
//!   final distance before it stops (until then, the first such node of
//!   the path not yet popped at its final distance sits in the heap with a
//!   key at most `d(t)`);
//! * a tight in-neighbour of such a node lies on a shortest root→`t` path
//!   itself, so it is popped at its final distance too and relaxes the node
//!   with exactly its final distance;
//! * the tie rule then leaves the least `(distance, id)` of those relaxers
//!   as the predecessor — the canonical one — whatever order they came in.
//!
//! The tie rule needs positive lengths: across a zero-length edge a tight
//! in-neighbour can settle *after* the node in the plain order, so the
//! plain predecessor is no longer always the least `(distance, id)` one.
//! A workspace over a graph with a zero-length edge (only the doc-hidden
//! `GraphBuilder::add_edge_allow_zero` builds one) therefore runs the plain
//! early-exit search instead.
//!
//! ```
//! use rap_graph::{Direction, Distance, GridGraph, NodeId, SsspWorkspace};
//!
//! let grid = GridGraph::new(3, 3, Distance::from_feet(10));
//! let mut ws = SsspWorkspace::for_graph(grid.graph());
//! ws.run(grid.graph(), NodeId::new(0), Direction::Forward);
//! assert_eq!(ws.distance(NodeId::new(8)), Some(Distance::from_feet(40)));
//! // The workspace is reusable: the next run resets in O(1).
//! ws.run(grid.graph(), NodeId::new(4), Direction::Reverse);
//! assert_eq!(ws.distance(NodeId::new(0)), Some(Distance::from_feet(20)));
//! ```

use crate::error::GraphError;
use crate::graph::RoadGraph;
use crate::landmarks::{lower_bound_rows, Landmarks};
use crate::node::{Distance, NodeId};
use crate::path::Path;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Direction of a shortest-path computation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Direction {
    /// Distances from the root outward along edge directions.
    Forward,
    /// Distances from every node toward the root along edge directions
    /// (a forward search over the reverse adjacency).
    Reverse,
}

/// The single-source shortest-path kernel a workspace runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SsspKernel {
    /// Dial's algorithm: a circular array of `max_edge + 1` buckets indexed
    /// by tentative distance modulo the array length. Dijkstra's monotone
    /// settling order keeps every queued tentative distance within one
    /// window of the array, so the index is unambiguous.
    BucketQueue,
    /// The classical binary-heap Dijkstra over buffers reused across runs.
    BinaryHeap,
}

/// Upper bound on the bucket array length (`max_edge + 1`); graphs with
/// longer edges use the binary heap. 2^16 buckets cap the circular array at
/// a well-bounded footprint while covering any realistic street segment
/// (the city models top out near 6,500 ft between intersections).
pub const MAX_BUCKET_COUNT: usize = 1 << 16;

/// Edge-length spread rule: the bucket kernel is selected only when the
/// longest edge is at most `SPREAD_FACTOR × (|V| + |E|)` feet. The bucket
/// scan advances one foot per step, so a graph whose edges are long relative
/// to its size would spend more time skipping empty buckets than settling
/// nodes; the binary heap is the better kernel there.
///
/// The same factor also gates the *diameter* estimate: the bucket scan walks
/// every foot of the maximum settled distance, so a small graph spread over
/// a large area (the 121-node Seattle model spans ~20,000 ft) pays thousands
/// of empty-bucket steps per tree even though each edge individually fits.
/// [`SsspWorkspace::for_graph`] estimates the diameter from the bounding
/// box's Manhattan extent and falls back to the heap when it exceeds
/// `SPREAD_FACTOR × (|V| + |E|)`.
const SPREAD_FACTOR: u64 = 8;

/// `pred` sentinel: no predecessor (the root, or an untouched node).
const NO_PRED: u32 = u32::MAX;

/// Reusable scratch state for repeated shortest-path-tree runs over one
/// graph.
///
/// Construction ([`SsspWorkspace::for_graph`]) sizes every buffer for the
/// graph, scans the edge lengths once, and fixes the kernel; each
/// [`run`](SsspWorkspace::run) then resets in O(1) by bumping an epoch
/// stamp instead of clearing the `dist`/`pred` arrays.
///
/// A workspace is bound to the graph it was created for. Using it with a
/// graph of different node or edge counts panics; rebinding to a different
/// graph of identical shape is undetectable and yields garbage — create one
/// workspace per graph (they are cheap: two `Vec`s per node plus the bucket
/// array).
#[derive(Clone, Debug)]
pub struct SsspWorkspace {
    node_count: usize,
    edge_count: usize,
    kernel: SsspKernel,
    /// Tentative/final distances; valid only where `stamp == epoch`.
    dist: Vec<Distance>,
    /// Predecessor raw ids (`NO_PRED` = none); valid only where stamped.
    pred: Vec<u32>,
    /// `stamp[v] == epoch` ⇔ `v` was touched (relaxed) this run.
    stamp: Vec<u32>,
    /// `settled[v] == epoch` ⇔ `v`'s distance is final this run.
    settled: Vec<u32>,
    /// `target_stamp[v] == epoch` ⇔ `v` is an early-exit target this run.
    target_stamp: Vec<u32>,
    epoch: u32,
    /// Circular bucket array (empty when the kernel is the binary heap).
    buckets: Vec<Vec<u32>>,
    /// Drain scratch for one bucket, kept to reuse its allocation.
    drain: Vec<u32>,
    heap: BinaryHeap<Reverse<(Distance, u32)>>,
    /// The guided run's heap: `(key, distance, node)`, where the key adds
    /// the landmark bound to the distance and the carried distance is the
    /// staleness check.
    guided: BinaryHeap<Reverse<(Distance, Distance, u32)>>,
    /// True when some edge has length zero; guided runs then fall back to
    /// the plain early-exit search (see the module docs).
    zero_edges: bool,
    root: NodeId,
    direction: Direction,
    /// Nodes settled by the last run (instrumentation for benches/tests).
    last_settled: u64,
}

impl SsspWorkspace {
    /// Builds a workspace sized for `graph`, selecting the kernel from the
    /// graph's edge-length spread: the bucket queue when the longest edge
    /// fits both the bucket cap ([`MAX_BUCKET_COUNT`]) and the spread rule
    /// (`max_edge ≤ 8 · (|V| + |E|)`), **and** the estimated graph diameter
    /// (the bounding box's Manhattan extent) also fits
    /// `8 · (|V| + |E|)` feet; the binary heap otherwise. The diameter gate
    /// keeps small, geographically spread instances (few nodes, long trips)
    /// off the foot-by-foot bucket scan (the factor 8 is this module's
    /// private `SPREAD_FACTOR`).
    pub fn for_graph(graph: &RoadGraph) -> Self {
        let max_edge = graph.edges().map(|e| e.length.feet()).max().unwrap_or(0);
        let size = (graph.node_count() + graph.edge_count()) as u64;
        // Manhattan extent of the bounding box, as a cheap diameter proxy
        // (coordinates and edge lengths are both in feet; a degenerate or
        // weight-decoupled geometry only mis-tunes performance, never
        // correctness).
        let extent = graph
            .bounding_box()
            .map(|bb| ((bb.max.x - bb.min.x).abs() + (bb.max.y - bb.min.y).abs()) as u64)
            .unwrap_or(0);
        let budget = SPREAD_FACTOR.saturating_mul(size);
        let kernel = if max_edge > 0
            && max_edge < MAX_BUCKET_COUNT as u64
            && max_edge <= budget
            && extent <= budget
        {
            SsspKernel::BucketQueue
        } else {
            SsspKernel::BinaryHeap
        };
        Self::with_kernel_for_graph(graph, kernel)
    }

    /// Builds a workspace with an explicitly chosen kernel, overriding the
    /// automatic selection. Used by the equivalence tests; prefer
    /// [`SsspWorkspace::for_graph`].
    ///
    /// # Panics
    ///
    /// Panics if the bucket kernel is forced on a graph whose longest edge
    /// does not fit [`MAX_BUCKET_COUNT`] buckets (the circular index would
    /// be ambiguous).
    pub fn with_kernel_for_graph(graph: &RoadGraph, kernel: SsspKernel) -> Self {
        let n = graph.node_count();
        let max_edge = graph.edges().map(|e| e.length.feet()).max().unwrap_or(0);
        let buckets = match kernel {
            SsspKernel::BucketQueue => {
                assert!(
                    (max_edge as usize) < MAX_BUCKET_COUNT,
                    "bucket kernel needs max edge length {max_edge} < {MAX_BUCKET_COUNT}"
                );
                vec![Vec::new(); max_edge as usize + 1]
            }
            SsspKernel::BinaryHeap => Vec::new(),
        };
        SsspWorkspace {
            node_count: n,
            edge_count: graph.edge_count(),
            kernel,
            dist: vec![Distance::MAX; n],
            pred: vec![NO_PRED; n],
            stamp: vec![0; n],
            settled: vec![0; n],
            target_stamp: vec![0; n],
            epoch: 0,
            buckets,
            drain: Vec::new(),
            heap: BinaryHeap::new(),
            guided: BinaryHeap::new(),
            zero_edges: graph.edges().any(|e| e.length == Distance::ZERO),
            root: NodeId::new(0),
            direction: Direction::Forward,
            last_settled: 0,
        }
    }

    /// The kernel this workspace runs.
    pub fn kernel(&self) -> SsspKernel {
        self.kernel
    }

    /// Grows a full shortest-path tree from `root` (every reachable node is
    /// settled), replacing the previous run's results.
    ///
    /// # Panics
    ///
    /// Panics if `root` is out of bounds or the graph does not match the one
    /// the workspace was built for.
    pub fn run(&mut self, graph: &RoadGraph, root: NodeId, direction: Direction) {
        self.run_inner(graph, root, direction, None);
    }

    /// Like [`SsspWorkspace::run`], but stops as soon as every node in
    /// `targets` is settled; queries for non-target nodes afterwards report
    /// unreachable. Out-of-bounds targets are ignored (a later
    /// [`path_to`](SsspWorkspace::path_to) for them errors with
    /// [`GraphError::NodeOutOfBounds`]).
    ///
    /// Settled targets carry exactly the distance, predecessor chain, and
    /// extracted path a full run would give them.
    pub fn run_to_targets(
        &mut self,
        graph: &RoadGraph,
        root: NodeId,
        direction: Direction,
        targets: &[NodeId],
    ) {
        self.run_inner(graph, root, direction, Some(targets));
    }

    /// A goal-directed run from `root` to the one node `target`: an A* on a
    /// binary heap (whatever the workspace's kernel) keyed by distance plus
    /// the `landmarks` lower bound on the remaining distance. It stops once
    /// the least key exceeds the target's distance.
    ///
    /// Afterwards only `target` counts as settled: it carries exactly the
    /// distance, predecessor chain and extracted path that
    /// [`SsspWorkspace::run_to_targets`] gives it (see the module docs for
    /// why), and every other node reports unreachable. An unreachable
    /// target exhausts the root's component, as the plain run does; an
    /// out-of-bounds one is ignored. Over a graph with a zero-length edge
    /// this is the plain early-exit run to `target`.
    ///
    /// # Panics
    ///
    /// Panics if `landmarks` was built for a graph with a different node
    /// count, or under the same conditions as [`SsspWorkspace::run`].
    pub fn run_to_target_guided(
        &mut self,
        graph: &RoadGraph,
        root: NodeId,
        direction: Direction,
        target: NodeId,
        landmarks: &Landmarks,
    ) {
        assert!(
            landmarks.node_count() == graph.node_count(),
            "landmarks built for a {}-node graph used with a {}-node graph",
            landmarks.node_count(),
            graph.node_count()
        );
        if self.zero_edges {
            self.run_inner(graph, root, direction, Some(&[target]));
            return;
        }
        self.begin(graph, root, direction);
        let t = target.index();
        if t >= self.node_count {
            return;
        }
        let l = landmarks.count();
        let row_t = landmarks.bounds_row(target);
        // Lower bound on the search distance left from `v` to the target:
        // d(v → t) forward, d(t → v) for a reverse run.
        let bound = |v: u32| {
            let row_v = landmarks.bounds_row(NodeId::new(v));
            match direction {
                Direction::Forward => lower_bound_rows(row_v, row_t, l),
                Direction::Reverse => lower_bound_rows(row_t, row_v, l),
            }
        };
        let epoch = self.epoch;
        let mut heap = std::mem::take(&mut self.guided);
        heap.push(Reverse((bound(root.raw()), Distance::ZERO, root.raw())));
        while let Some(Reverse((key, d, raw))) = heap.pop() {
            let u = raw as usize;
            if d > self.dist[u] {
                continue; // stale: improved since it was pushed
            }
            if self.stamp[t] == epoch && key > self.dist[t] {
                break; // every later key exceeds the target's distance
            }
            self.last_settled += 1;
            if u == t {
                continue; // nothing beyond the target can lie on its chain
            }
            let node = NodeId::new(raw);
            let neighbors = match direction {
                Direction::Forward => graph.out_neighbors(node),
                Direction::Reverse => graph.in_neighbors(node),
            };
            for nb in neighbors {
                let v = nb.node.index();
                let nd = d.saturating_add(nb.length);
                if nd == Distance::MAX {
                    continue;
                }
                if self.stamp[v] != epoch || nd < self.dist[v] {
                    self.stamp[v] = epoch;
                    self.dist[v] = nd;
                    self.pred[v] = raw;
                    heap.push(Reverse((
                        nd.saturating_add(bound(nb.node.raw())),
                        nd,
                        nb.node.raw(),
                    )));
                } else if nd == self.dist[v] {
                    // Equal-distance relaxation: keep the canonical
                    // predecessor, the least (distance, id).
                    let p = self.pred[v];
                    if p != NO_PRED && (d, raw) < (self.dist[p as usize], p) {
                        self.pred[v] = raw;
                    }
                }
            }
        }
        heap.clear();
        self.guided = heap;
        if self.stamp[t] == epoch {
            self.settled[t] = epoch;
        }
    }

    /// Checks that `graph` and `root` fit the workspace, then starts a new
    /// run: a fresh epoch, the root at distance zero.
    fn begin(&mut self, graph: &RoadGraph, root: NodeId, direction: Direction) {
        assert!(
            graph.node_count() == self.node_count && graph.edge_count() == self.edge_count,
            "workspace built for a {}-node/{}-edge graph used with a {}-node/{}-edge graph",
            self.node_count,
            self.edge_count,
            graph.node_count(),
            graph.edge_count()
        );
        assert!(
            graph.contains_node(root),
            "sssp root {root} out of bounds for graph with {} nodes",
            graph.node_count()
        );
        self.bump_epoch();
        self.root = root;
        self.direction = direction;
        self.last_settled = 0;
        self.stamp[root.index()] = self.epoch;
        self.dist[root.index()] = Distance::ZERO;
        self.pred[root.index()] = NO_PRED;
    }

    fn run_inner(
        &mut self,
        graph: &RoadGraph,
        root: NodeId,
        direction: Direction,
        targets: Option<&[NodeId]>,
    ) {
        self.begin(graph, root, direction);
        let mut remaining = 0usize;
        if let Some(ts) = targets {
            for &t in ts {
                if t.index() < self.node_count && self.target_stamp[t.index()] != self.epoch {
                    self.target_stamp[t.index()] = self.epoch;
                    remaining += 1;
                }
            }
            if remaining == 0 {
                return; // nothing requested (or all targets out of bounds)
            }
        }
        let early = targets.is_some();
        match self.kernel {
            SsspKernel::BucketQueue => self.run_bucket(graph, root, direction, early, remaining),
            SsspKernel::BinaryHeap => self.run_heap(graph, root, direction, early, remaining),
        }
    }

    /// Dial's algorithm. Each bucket is drained in ascending node-id order,
    /// which makes the settle order identical to the binary heap's pops of
    /// `(distance, id)` pairs — and therefore makes the predecessor tree
    /// bit-identical, not merely equal in distance.
    fn run_bucket(
        &mut self,
        graph: &RoadGraph,
        root: NodeId,
        direction: Direction,
        early: bool,
        mut remaining: usize,
    ) {
        // An edgeless graph gets a single bucket (`max_edge + 1 == 1`): the
        // root settles out of bucket 0 and there is nothing to relax, so the
        // circular index never has to distinguish distances.
        let b = self.buckets.len();
        self.buckets[0].push(root.raw());
        let mut queued = 1usize;
        let mut d = 0u64;
        let mut idx = 0usize;
        let mut drain = std::mem::take(&mut self.drain);
        'scan: while queued > 0 {
            // Re-drain the same bucket until it stays empty: pushes during
            // the drain land here only via zero-length edges, which the
            // graph builder forbids, but the loop keeps the kernel correct
            // even if that invariant is ever relaxed.
            while !self.buckets[idx].is_empty() {
                drain.clear();
                std::mem::swap(&mut drain, &mut self.buckets[idx]);
                queued -= drain.len();
                // Ascending id order among equal-distance nodes (see above).
                drain.sort_unstable();
                for &raw in &drain {
                    let u = raw as usize;
                    if self.dist[u].feet() != d {
                        continue; // stale entry: improved to a smaller distance
                    }
                    debug_assert_ne!(self.settled[u], self.epoch, "node settled twice");
                    self.settled[u] = self.epoch;
                    self.last_settled += 1;
                    if early && self.target_stamp[u] == self.epoch {
                        remaining -= 1;
                        if remaining == 0 {
                            // Remaining queue entries are abandoned; clear
                            // every bucket so the next run starts clean.
                            for bucket in &mut self.buckets {
                                bucket.clear();
                            }
                            break 'scan;
                        }
                    }
                    let node = NodeId::new(raw);
                    let neighbors = match direction {
                        Direction::Forward => graph.out_neighbors(node),
                        Direction::Reverse => graph.in_neighbors(node),
                    };
                    for nb in neighbors {
                        let v = nb.node.index();
                        let nd = Distance::from_feet(d).saturating_add(nb.length);
                        // `nd < MAX` mirrors the reference kernel's
                        // `nd < dist[v]` against MAX-initialized slots (a
                        // saturated distance never relaxes) and keeps the
                        // circular bucket index well-defined.
                        if nd < Distance::MAX && (self.stamp[v] != self.epoch || nd < self.dist[v])
                        {
                            self.stamp[v] = self.epoch;
                            self.dist[v] = nd;
                            self.pred[v] = raw;
                            self.buckets[(nd.feet() % b as u64) as usize].push(nb.node.raw());
                            queued += 1;
                        }
                    }
                }
            }
            if queued == 0 {
                break;
            }
            d += 1;
            idx += 1;
            if idx == b {
                idx = 0;
            }
        }
        self.drain = drain;
    }

    /// Binary-heap Dijkstra — the textbook loop over reused buffers, plus
    /// the early-exit check.
    fn run_heap(
        &mut self,
        graph: &RoadGraph,
        root: NodeId,
        direction: Direction,
        early: bool,
        mut remaining: usize,
    ) {
        self.heap.clear();
        self.heap.push(Reverse((Distance::ZERO, root.raw())));
        while let Some(Reverse((dd, raw))) = self.heap.pop() {
            let u = raw as usize;
            if dd > self.dist[u] {
                continue; // stale heap entry
            }
            self.settled[u] = self.epoch;
            self.last_settled += 1;
            if early && self.target_stamp[u] == self.epoch {
                remaining -= 1;
                if remaining == 0 {
                    self.heap.clear();
                    break;
                }
            }
            let node = NodeId::new(raw);
            let neighbors = match direction {
                Direction::Forward => graph.out_neighbors(node),
                Direction::Reverse => graph.in_neighbors(node),
            };
            for nb in neighbors {
                let v = nb.node.index();
                let nd = dd.saturating_add(nb.length);
                if nd < Distance::MAX && (self.stamp[v] != self.epoch || nd < self.dist[v]) {
                    self.stamp[v] = self.epoch;
                    self.dist[v] = nd;
                    self.pred[v] = raw;
                    self.heap.push(Reverse((nd, nb.node.raw())));
                }
            }
        }
    }

    fn bump_epoch(&mut self) {
        if self.epoch == u32::MAX {
            // Stamp wrap-around (one in 2^32 runs): hard-reset the stamps so
            // stale epochs can never alias the new one.
            self.stamp.fill(0);
            self.settled.fill(0);
            self.target_stamp.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }

    /// The root of the last run.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The direction of the last run.
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// Number of nodes the last run settled (instrumentation). A guided
    /// run counts every pop of a current heap entry, so a reopened node
    /// counts once per pop; comparing the count against the plain run's is
    /// how tests see that the landmark bound is doing its work.
    pub fn last_run_settled(&self) -> u64 {
        self.last_settled
    }

    /// Exact shortest distance between the last run's root and `node`, or
    /// `None` if `node` was not settled (unreachable, out of bounds, or
    /// beyond an early exit).
    pub fn distance(&self, node: NodeId) -> Option<Distance> {
        let i = node.index();
        if i < self.node_count && self.settled[i] == self.epoch {
            Some(self.dist[i])
        } else {
            None
        }
    }

    /// Writes the last run's dense distance row into `out`: `out[v]` is the
    /// settled distance of node `v`, or [`Distance::MAX`] where unsettled.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the graph's node count.
    pub fn copy_distances_into(&self, out: &mut [Distance]) {
        assert_eq!(out.len(), self.node_count, "distance row length mismatch");
        for (v, slot) in out.iter_mut().enumerate() {
            *slot = if self.settled[v] == self.epoch {
                self.dist[v]
            } else {
                Distance::MAX
            };
        }
    }

    /// Extracts the shortest path between the last run's root and `node`:
    /// root → `node` after a [`Direction::Forward`] run, `node` → root
    /// after a [`Direction::Reverse`] run.
    ///
    /// # Errors
    ///
    /// * [`GraphError::NodeOutOfBounds`] if `node` does not exist.
    /// * [`GraphError::Unreachable`] if `node` was not settled.
    pub fn path_to(&self, node: NodeId) -> Result<Path, GraphError> {
        if node.index() >= self.node_count {
            return Err(GraphError::NodeOutOfBounds {
                node,
                node_count: self.node_count,
            });
        }
        let total = self.distance(node).ok_or(match self.direction {
            Direction::Forward => GraphError::Unreachable {
                from: self.root,
                to: node,
            },
            Direction::Reverse => GraphError::Unreachable {
                from: node,
                to: self.root,
            },
        })?;
        let mut chain = vec![node];
        let mut cur = node.index();
        while self.pred[cur] != NO_PRED && self.stamp[cur] == self.epoch {
            let p = NodeId::new(self.pred[cur]);
            chain.push(p);
            cur = p.index();
        }
        debug_assert_eq!(cur, self.root.index(), "predecessor chain ends at root");
        match self.direction {
            Direction::Forward => chain.reverse(), // root .. node
            Direction::Reverse => {}               // node .. root already
        }
        Ok(Path::from_parts_unchecked(chain, total))
    }
}

/// One shortest path from `from` to `to`, for one-off queries: an
/// early-exit [`SsspWorkspace::run_to_targets`] on a fresh workspace, then
/// [`SsspWorkspace::path_to`]. Callers with many queries on one graph
/// should keep a workspace instead.
///
/// # Errors
///
/// * [`GraphError::NodeOutOfBounds`] if `from` or `to` does not exist.
/// * [`GraphError::Unreachable`] if no path exists.
///
/// ```
/// use rap_graph::{sssp, Distance, GridGraph, NodeId};
/// # fn main() -> Result<(), rap_graph::GraphError> {
/// let grid = GridGraph::new(2, 3, Distance::from_feet(5));
/// let path = sssp::shortest_path(grid.graph(), NodeId::new(0), NodeId::new(2))?;
/// assert_eq!(path.nodes(), &[NodeId::new(0), NodeId::new(1), NodeId::new(2)]);
/// assert_eq!(path.length(), Distance::from_feet(10));
/// # Ok(())
/// # }
/// ```
pub fn shortest_path(graph: &RoadGraph, from: NodeId, to: NodeId) -> Result<Path, GraphError> {
    graph.check_node(from)?;
    let mut ws = SsspWorkspace::for_graph(graph);
    ws.run_to_targets(graph, from, Direction::Forward, &[to]);
    ws.path_to(to)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Point;
    use crate::graph::GraphBuilder;
    use crate::grid::GridGraph;

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

    #[test]
    fn bucket_kernel_selected_for_short_edges() {
        // Compact geometry: extent 100 ft ≤ 8 · (36 + 120).
        let grid = GridGraph::new(6, 6, Distance::from_feet(10));
        let ws = SsspWorkspace::for_graph(grid.graph());
        assert_eq!(ws.kernel(), SsspKernel::BucketQueue);
    }

    #[test]
    fn heap_kernel_selected_for_small_wide_instance() {
        // Seattle-shaped: 121 nodes spread over ~20,000 ft. Every edge fits
        // the bucket cap, but the diameter gate must reject the bucket scan
        // (it would walk ~20k empty buckets per tree).
        let grid = GridGraph::new(11, 11, Distance::from_feet(1_000));
        let ws = SsspWorkspace::for_graph(grid.graph());
        assert_eq!(ws.kernel(), SsspKernel::BinaryHeap);
    }

    #[test]
    fn heap_kernel_selected_for_degenerate_spread() {
        // Two nodes, one enormous edge: the spread rule rejects buckets.
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(1.0, 0.0));
        b.add_edge(a, c, Distance::from_feet(1_000_000)).unwrap();
        let ws = SsspWorkspace::for_graph(&b.build());
        assert_eq!(ws.kernel(), SsspKernel::BinaryHeap);
    }

    #[test]
    fn heap_kernel_selected_for_edgeless_graph() {
        let mut b = GraphBuilder::new();
        b.add_node(Point::new(0.0, 0.0));
        let ws = SsspWorkspace::for_graph(&b.build());
        assert_eq!(ws.kernel(), SsspKernel::BinaryHeap);
    }

    #[test]
    fn shortest_path_takes_the_diamond_shortcut() {
        let (g, v) = diamond();
        let p = shortest_path(&g, v[0], v[4]).unwrap();
        assert_eq!(p.nodes(), &[v[0], v[1], v[3], v[4]]);
        assert_eq!(p.length(), Distance::from_feet(5));
        assert_eq!(
            shortest_path(&g, v[0], v[3]).unwrap().length(),
            Distance::from_feet(4)
        );
        assert!(shortest_path(&g, v[2], v[2]).unwrap().is_trivial());
    }

    #[test]
    fn shortest_path_reports_typed_errors() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(1.0, 0.0));
        let island = b.add_node(Point::new(9.0, 9.0));
        b.add_two_way(a, c, Distance::from_feet(3)).unwrap();
        let g = b.build();
        assert!(matches!(
            shortest_path(&g, a, island),
            Err(GraphError::Unreachable { from, to }) if from == a && to == island
        ));
        for (from, to) in [(a, NodeId::new(99)), (NodeId::new(99), a)] {
            assert!(matches!(
                shortest_path(&g, from, to),
                Err(GraphError::NodeOutOfBounds { node, .. }) if node == NodeId::new(99)
            ));
        }
    }

    #[test]
    fn reverse_runs_respect_one_way_edges() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(1.0, 0.0));
        b.add_edge(a, c, Distance::from_feet(3)).unwrap(); // only a -> c
        let g = b.build();
        let mut ws = SsspWorkspace::for_graph(&g);
        // a can reach c...
        ws.run(&g, c, Direction::Reverse);
        assert_eq!(ws.distance(a), Some(Distance::from_feet(3)));
        // ...but c cannot reach a.
        ws.run(&g, a, Direction::Reverse);
        assert_eq!(ws.distance(c), None);
    }

    #[test]
    fn reverse_path_runs_from_node_to_root() {
        let (g, v) = diamond();
        let mut ws = SsspWorkspace::for_graph(&g);
        ws.run(&g, v[4], Direction::Reverse);
        let p = ws.path_to(v[0]).unwrap();
        assert_eq!(p.nodes(), &[v[0], v[1], v[3], v[4]]);
        assert_eq!(p.length(), Distance::from_feet(5));
    }

    #[test]
    fn early_exit_to_unreachable_target_reports_unreachable() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(1.0, 0.0));
        let island = b.add_node(Point::new(9.0, 9.0));
        b.add_two_way(a, c, Distance::from_feet(3)).unwrap();
        let g = b.build();
        let mut ws = SsspWorkspace::for_graph(&g);
        ws.run_to_targets(&g, a, Direction::Forward, &[island]);
        assert!(matches!(
            ws.path_to(island),
            Err(GraphError::Unreachable { .. })
        ));
        // Out-of-bounds targets are ignored, then error on query.
        ws.run_to_targets(&g, a, Direction::Forward, &[NodeId::new(99)]);
        assert!(matches!(
            ws.path_to(NodeId::new(99)),
            Err(GraphError::NodeOutOfBounds { .. })
        ));
    }

    #[test]
    fn copy_distances_into_matches_probing() {
        let grid = GridGraph::new(4, 3, Distance::from_feet(25));
        let g = grid.graph();
        let mut ws = SsspWorkspace::for_graph(g);
        ws.run(g, NodeId::new(5), Direction::Forward);
        let mut row = vec![Distance::ZERO; g.node_count()];
        ws.copy_distances_into(&mut row);
        for v in g.nodes() {
            assert_eq!(row[v.index()], ws.distance(v).unwrap_or(Distance::MAX));
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bad_root_panics() {
        let (g, _) = diamond();
        let mut ws = SsspWorkspace::for_graph(&g);
        ws.run(&g, NodeId::new(99), Direction::Forward);
    }

    #[test]
    #[should_panic(expected = "workspace built for")]
    fn graph_mismatch_panics() {
        let (g, _) = diamond();
        let other = GridGraph::new(3, 3, Distance::from_feet(10));
        let mut ws = SsspWorkspace::for_graph(&g);
        ws.run(other.graph(), NodeId::new(0), Direction::Forward);
    }

    #[test]
    fn guided_run_to_unreachable_target_reports_unreachable() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(10.0, 0.0));
        let island = b.add_node(Point::new(90.0, 90.0));
        b.add_two_way(a, c, Distance::from_feet(3)).unwrap();
        let g = b.build();
        let lm = crate::landmarks::Landmarks::select(&g, 2);
        let mut ws = SsspWorkspace::for_graph(&g);
        // The island is never reached, so the run exhausts the reachable
        // component and reports the target unreachable.
        ws.run_to_target_guided(&g, a, Direction::Forward, island, &lm);
        assert!(matches!(
            ws.path_to(island),
            Err(GraphError::Unreachable { .. })
        ));
        assert_eq!(ws.last_run_settled(), 2);
        // The next guided run reaches its target; only the target settles.
        ws.run_to_target_guided(&g, a, Direction::Forward, c, &lm);
        assert_eq!(ws.distance(c), Some(Distance::from_feet(3)));
        assert_eq!(ws.path_to(c).unwrap().nodes(), &[a, c]);
        assert_eq!(ws.distance(a), None);
        // Out-of-bounds targets are ignored, then error on query.
        ws.run_to_target_guided(&g, a, Direction::Forward, NodeId::new(99), &lm);
        assert!(matches!(
            ws.path_to(NodeId::new(99)),
            Err(GraphError::NodeOutOfBounds { .. })
        ));
        assert_eq!(ws.last_run_settled(), 0);
    }

    #[test]
    fn guided_run_from_the_target_is_trivial() {
        let (g, v) = diamond();
        let lm = crate::landmarks::Landmarks::select(&g, 2);
        let mut ws = SsspWorkspace::for_graph(&g);
        ws.run_to_target_guided(&g, v[3], Direction::Reverse, v[3], &lm);
        assert_eq!(ws.distance(v[3]), Some(Distance::ZERO));
        assert!(ws.path_to(v[3]).unwrap().is_trivial());
        assert_eq!(ws.last_run_settled(), 1);
    }

    #[test]
    #[should_panic(expected = "landmarks built for")]
    fn guided_run_rejects_mismatched_landmarks() {
        let g = GridGraph::new(2, 5, Distance::from_feet(10));
        let other = GridGraph::new(3, 3, Distance::from_feet(10));
        let lm = crate::landmarks::Landmarks::select(other.graph(), 2);
        let mut ws = SsspWorkspace::for_graph(g.graph());
        ws.run_to_target_guided(
            g.graph(),
            NodeId::new(0),
            Direction::Forward,
            NodeId::new(5),
            &lm,
        );
    }
}
