//! Batched single-source shortest-path engine: Dial bucket queue + reusable
//! workspace.
//!
//! [`crate::dijkstra`] is the *reference* kernel: a textbook binary-heap
//! Dijkstra that allocates fresh `dist`/`pred`/heap buffers on every call.
//! Scenario preprocessing runs thousands of trees per build — one per
//! distinct flow origin, two per shop, one per node for all-pairs matrices,
//! three per landmark — so this module provides the engine those hot paths
//! share:
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
//! * **ALT-pruned early exit**
//!   ([`SsspWorkspace::run_to_targets_pruned`]): with precomputed
//!   [`crate::landmarks::Landmarks`] tables the search additionally skips
//!   expanding any settled node that *provably* cannot lie on a shortest
//!   path to any still-unsettled target, shrinking the settled disc toward
//!   an ellipse around the root–target corridor.
//!
//! Both kernels settle nodes in exactly the same order — ascending
//! `(distance, node id)` — so distances, predecessor links, and extracted
//! paths are **bit-identical** to the reference kernel's (property-tested in
//! `tests/prop.rs`). Downstream consumers (flow routing, detour tables,
//! greedy placements) therefore cannot observe which kernel ran, only how
//! fast it was.
//!
//! ## Why pruning preserves bit-identity
//!
//! A node `u` is pruned at its settle time only if, for **every** remaining
//! target `t`, `d(u) + lb(u, t) > U(t)`, where `lb` is the landmark lower
//! bound on the remaining distance and `U(t)` is a proven upper bound on the
//! root–`t` distance (the cheapest landmark route, tightened by `t`'s
//! tentative distance once the frontier has touched it). Pruning skips the
//! node's edge expansion but never reorders the queue, so the surviving
//! settle order is a subsequence of the reference order. Every node on a
//! reference predecessor chain of a target `t` satisfies
//! `d(u) + lb(u, t) ≤ d(u) + d(u → t) = d(root, t) ≤ U(t)` — and settles
//! strictly before `t` does (predecessors are assigned at the relaxer's
//! settle), so `t` is still an unsettled target when `u` is tested and the
//! strict inequality fails. Chain nodes are therefore never pruned, their
//! relaxations happen exactly as in the reference run, and the distances,
//! predecessors, and extracted paths of all reached targets are unchanged
//! bit for bit.
//!
//! ```
//! use rap_graph::{GridGraph, Distance, NodeId};
//! use rap_graph::sssp::SsspWorkspace;
//! use rap_graph::dijkstra::Direction;
//!
//! let grid = GridGraph::new(3, 3, Distance::from_feet(10));
//! let mut ws = SsspWorkspace::for_graph(grid.graph());
//! ws.run(grid.graph(), NodeId::new(0), Direction::Forward);
//! assert_eq!(ws.distance(NodeId::new(8)), Some(Distance::from_feet(40)));
//! // The workspace is reusable: the next run resets in O(1).
//! ws.run(grid.graph(), NodeId::new(4), Direction::Reverse);
//! assert_eq!(ws.distance(NodeId::new(0)), Some(Distance::from_feet(20)));
//! ```

use crate::dijkstra::{Direction, ShortestPathTree};
use crate::error::GraphError;
use crate::graph::RoadGraph;
use crate::landmarks::{self, Landmarks};
use crate::node::{Distance, NodeId};
use crate::path::Path;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The single-source shortest-path kernel a workspace runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SsspKernel {
    /// Dial's algorithm: a circular array of `max_edge + 1` buckets indexed
    /// by tentative distance modulo the array length. Dijkstra's monotone
    /// settling order keeps every queued tentative distance within one
    /// window of the array, so the index is unambiguous.
    BucketQueue,
    /// The classical binary-heap Dijkstra (same algorithm as the reference
    /// implementation in [`crate::dijkstra`], minus its per-call
    /// allocations).
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
    root: NodeId,
    direction: Direction,
    /// True when the last run settled every reachable node (no early exit).
    complete: bool,
    /// Nodes settled by the last run (instrumentation for benches/tests).
    last_settled: u64,
    /// Settled nodes whose expansion the last run pruned via landmarks.
    last_pruned: u64,
}

/// Per-run ALT pruning state: one bound-row snapshot and one upper bound per
/// still-unsettled target. Lives on the kernel's stack, not in the
/// workspace, so unpruned runs pay nothing.
struct Pruner<'a> {
    lm: &'a Landmarks,
    /// `2·L` (row stride in the snapshots below).
    stride: usize,
    /// True for [`Direction::Reverse`] runs, where the remaining search
    /// distance from settled `u` to target `t` is the forward `d(t → u)`.
    reverse: bool,
    /// Raw id and static landmark upper bound of each unsettled target.
    active: Vec<(u32, Distance)>,
    /// Bound-row snapshots, `stride` entries per active target, kept in sync
    /// with `active` under swap-removal.
    rows: Vec<Distance>,
}

impl<'a> Pruner<'a> {
    fn new(lm: &'a Landmarks, reverse: bool) -> Self {
        Pruner {
            lm,
            stride: 2 * lm.count(),
            reverse,
            active: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Registers a (distinct, in-bounds) target of the current run.
    fn add_target(&mut self, root: NodeId, t: NodeId) {
        // Upper bound on the search distance root..t: route via the best
        // landmark. Forward searches need d(root → t), reverse searches
        // d(t → root).
        let upper = if self.reverse {
            self.lm.upper_bound(t, root)
        } else {
            self.lm.upper_bound(root, t)
        };
        self.active.push((t.raw(), upper));
        self.rows.extend_from_slice(self.lm.bounds_row(t));
    }

    /// Drops a just-settled target from the active set.
    fn target_settled(&mut self, raw: u32) {
        if let Some(i) = self.active.iter().position(|&(r, _)| r == raw) {
            self.active.swap_remove(i);
            let last = self.rows.len() - self.stride;
            if i * self.stride < last {
                let (head, tail) = self.rows.split_at_mut(last);
                head[i * self.stride..(i + 1) * self.stride].copy_from_slice(tail);
            }
            self.rows.truncate(last);
        }
    }

    /// True when settled node `u` at distance `d` provably cannot improve
    /// (or lie on a shortest path to) any remaining target: for **every**
    /// active `t`, `d + lb(u, t)` strictly exceeds the best proven upper
    /// bound on `t`'s final distance — the static landmark route, tightened
    /// by `t`'s tentative distance once stamped (a tentative distance only
    /// ever shrinks toward the final one, so it is always a valid upper
    /// bound).
    fn should_prune(
        &self,
        u: usize,
        d: Distance,
        dist: &[Distance],
        stamp: &[u32],
        epoch: u32,
    ) -> bool {
        let row_u = self.lm.bounds_row(NodeId::new(u as u32));
        let l = self.lm.count();
        for (i, &(raw, static_upper)) in self.active.iter().enumerate() {
            let t = raw as usize;
            let mut upper = static_upper;
            if stamp[t] == epoch {
                upper = upper.min(dist[t]);
            }
            if upper == Distance::MAX {
                return false; // no bound on this target yet
            }
            let row_t = &self.rows[i * self.stride..(i + 1) * self.stride];
            let lb = if self.reverse {
                landmarks::lower_bound_rows(row_t, row_u, l)
            } else {
                landmarks::lower_bound_rows(row_u, row_t, l)
            };
            if d.saturating_add(lb) <= upper {
                return false; // u may still matter for this target
            }
        }
        true
    }
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
            root: NodeId::new(0),
            direction: Direction::Forward,
            complete: false,
            last_settled: 0,
            last_pruned: 0,
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
        self.run_inner(graph, root, direction, None, None);
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
        self.run_inner(graph, root, direction, Some(targets), None);
    }

    /// [`SsspWorkspace::run_to_targets`] with ALT pruning: beyond the early
    /// exit, every settled node is tested against the landmark bounds and
    /// its edge expansion skipped when it provably cannot improve any
    /// remaining target (see the module docs for the bit-identity argument).
    /// Settled targets carry exactly the distance, predecessor chain, and
    /// extracted path the unpruned run would give them; unreachable targets
    /// disable pruning for the run (no upper bound ever forms) and behave as
    /// in [`SsspWorkspace::run_to_targets`].
    ///
    /// # Panics
    ///
    /// Panics if `landmarks` was built for a graph with a different node
    /// count, or under the same conditions as [`SsspWorkspace::run`].
    pub fn run_to_targets_pruned(
        &mut self,
        graph: &RoadGraph,
        root: NodeId,
        direction: Direction,
        targets: &[NodeId],
        landmarks: &Landmarks,
    ) {
        assert!(
            landmarks.node_count() == graph.node_count(),
            "landmarks built for a {}-node graph used with a {}-node graph",
            landmarks.node_count(),
            graph.node_count()
        );
        self.run_inner(graph, root, direction, Some(targets), Some(landmarks));
    }

    fn run_inner(
        &mut self,
        graph: &RoadGraph,
        root: NodeId,
        direction: Direction,
        targets: Option<&[NodeId]>,
        landmarks: Option<&Landmarks>,
    ) {
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
        self.complete = targets.is_none();
        self.last_settled = 0;
        self.last_pruned = 0;
        let mut remaining = 0usize;
        let mut pruner =
            landmarks.map(|lm| Pruner::new(lm, matches!(direction, Direction::Reverse)));
        if let Some(ts) = targets {
            for &t in ts {
                if t.index() < self.node_count && self.target_stamp[t.index()] != self.epoch {
                    self.target_stamp[t.index()] = self.epoch;
                    remaining += 1;
                    if let Some(p) = pruner.as_mut() {
                        p.add_target(root, t);
                    }
                }
            }
            if remaining == 0 {
                return; // nothing requested (or all targets out of bounds)
            }
        }
        let early = targets.is_some();
        self.stamp[root.index()] = self.epoch;
        self.dist[root.index()] = Distance::ZERO;
        self.pred[root.index()] = NO_PRED;
        match self.kernel {
            SsspKernel::BucketQueue => {
                self.run_bucket(graph, root, direction, early, remaining, pruner)
            }
            SsspKernel::BinaryHeap => {
                self.run_heap(graph, root, direction, early, remaining, pruner)
            }
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
        mut pruner: Option<Pruner<'_>>,
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
                        if let Some(p) = pruner.as_mut() {
                            p.target_settled(raw);
                        }
                        if remaining == 0 {
                            // Remaining queue entries are abandoned; clear
                            // every bucket so the next run starts clean.
                            for bucket in &mut self.buckets {
                                bucket.clear();
                            }
                            break 'scan;
                        }
                    }
                    if let Some(p) = pruner.as_ref() {
                        if p.should_prune(
                            u,
                            Distance::from_feet(d),
                            &self.dist,
                            &self.stamp,
                            self.epoch,
                        ) {
                            self.last_pruned += 1;
                            continue; // settled, but provably never expanded
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

    /// Binary-heap Dijkstra — the reference kernel's loop verbatim, minus
    /// its per-call allocations, plus the early-exit check.
    fn run_heap(
        &mut self,
        graph: &RoadGraph,
        root: NodeId,
        direction: Direction,
        early: bool,
        mut remaining: usize,
        mut pruner: Option<Pruner<'_>>,
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
                if let Some(p) = pruner.as_mut() {
                    p.target_settled(raw);
                }
                if remaining == 0 {
                    self.heap.clear();
                    break;
                }
            }
            if let Some(p) = pruner.as_ref() {
                if p.should_prune(u, dd, &self.dist, &self.stamp, self.epoch) {
                    self.last_pruned += 1;
                    continue; // settled, but provably never expanded
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

    /// Number of nodes the last run settled (instrumentation; benches use
    /// the reduction under pruning as the headline metric).
    pub fn last_run_settled(&self) -> u64 {
        self.last_settled
    }

    /// Of the last run's settled nodes, how many had their expansion pruned
    /// by the landmark bounds. Zero for unpruned runs.
    pub fn last_run_pruned(&self) -> u64 {
        self.last_pruned
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

    /// Extracts the shortest path between the last run's root and `node`,
    /// with the same orientation and error semantics as
    /// [`ShortestPathTree::path_to`].
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

    /// Materializes the last run as an owned [`ShortestPathTree`],
    /// bit-identical to what the reference kernel would have produced.
    ///
    /// # Panics
    ///
    /// Panics if the last run exited early ([`SsspWorkspace::run_to_targets`]):
    /// a truncated tree would silently misreport reachable nodes.
    pub fn to_tree(&self) -> ShortestPathTree {
        assert!(
            self.complete,
            "to_tree requires a full run; the last run exited early"
        );
        let dist: Vec<Distance> = (0..self.node_count)
            .map(|v| {
                if self.settled[v] == self.epoch {
                    self.dist[v]
                } else {
                    Distance::MAX
                }
            })
            .collect();
        let pred: Vec<Option<NodeId>> = (0..self.node_count)
            .map(|v| {
                if self.settled[v] == self.epoch && self.pred[v] != NO_PRED {
                    Some(NodeId::new(self.pred[v]))
                } else {
                    None
                }
            })
            .collect();
        ShortestPathTree::from_raw(self.root, self.direction, dist, pred)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra;
    use crate::geometry::Point;
    use crate::graph::GraphBuilder;
    use crate::grid::GridGraph;

    /// Diamond with a shortcut (same fixture as the reference kernel tests).
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
    fn both_kernels_match_reference_tree() {
        let (g, v) = diamond();
        let reference = dijkstra::shortest_path_tree(&g, v[0]);
        for kernel in [SsspKernel::BucketQueue, SsspKernel::BinaryHeap] {
            let mut ws = SsspWorkspace::with_kernel_for_graph(&g, kernel);
            ws.run(&g, v[0], Direction::Forward);
            let tree = ws.to_tree();
            for &u in &v {
                assert_eq!(tree.distance(u), reference.distance(u), "{kernel:?} {u}");
                assert_eq!(
                    tree.predecessor(u),
                    reference.predecessor(u),
                    "{kernel:?} {u}"
                );
            }
            assert_eq!(
                ws.path_to(v[4]).unwrap().nodes(),
                reference.path_to(v[4]).unwrap().nodes()
            );
        }
    }

    #[test]
    fn reverse_runs_match_reference() {
        let (g, v) = diamond();
        let reference = dijkstra::reverse_shortest_path_tree(&g, v[4]);
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
        let reference = dijkstra::shortest_path_tree(&g, v[4]);
        for &u in &v {
            assert_eq!(ws.distance(u), reference.distance(u));
        }
    }

    #[test]
    fn early_exit_settles_requested_targets_exactly() {
        let grid = GridGraph::new(5, 5, Distance::from_feet(10));
        let g = grid.graph();
        let full = dijkstra::shortest_path_tree(g, NodeId::new(0));
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
    #[should_panic(expected = "full run")]
    fn to_tree_rejects_early_exit_runs() {
        let grid = GridGraph::new(3, 3, Distance::from_feet(10));
        let mut ws = SsspWorkspace::for_graph(grid.graph());
        ws.run_to_targets(
            grid.graph(),
            NodeId::new(0),
            Direction::Forward,
            &[NodeId::new(1)],
        );
        let _ = ws.to_tree();
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
    fn pruned_targets_match_reference_and_actually_prune() {
        let g = line100();
        let lm = crate::landmarks::Landmarks::select(&g, 2);
        let root = NodeId::new(50);
        let targets = [NodeId::new(52), NodeId::new(95)];
        let reference = dijkstra::shortest_path_tree(&g, root);
        for kernel in [SsspKernel::BucketQueue, SsspKernel::BinaryHeap] {
            let mut plain = SsspWorkspace::with_kernel_for_graph(&g, kernel);
            plain.run_to_targets(&g, root, Direction::Forward, &targets);
            let unpruned_settled = plain.last_run_settled();
            assert_eq!(plain.last_run_pruned(), 0);

            let mut ws = SsspWorkspace::with_kernel_for_graph(&g, kernel);
            ws.run_to_targets_pruned(&g, root, Direction::Forward, &targets, &lm);
            for t in targets {
                assert_eq!(ws.distance(t), reference.distance(t), "{kernel:?} {t}");
                assert_eq!(
                    ws.path_to(t).unwrap().nodes(),
                    reference.path_to(t).unwrap().nodes(),
                    "{kernel:?} {t}"
                );
            }
            // The far target forces the frontier right; everything left of
            // the root past the bound is provably useless and pruned.
            assert!(ws.last_run_pruned() > 0, "{kernel:?} pruned nothing");
            assert!(
                ws.last_run_settled() < unpruned_settled,
                "{kernel:?} settled {} ≥ unpruned {}",
                ws.last_run_settled(),
                unpruned_settled
            );
        }
    }

    #[test]
    fn pruned_reverse_run_matches_reference() {
        let g = line100();
        let lm = crate::landmarks::Landmarks::select(&g, 2);
        let root = NodeId::new(60);
        let targets = [NodeId::new(58), NodeId::new(3)];
        let reference = dijkstra::reverse_shortest_path_tree(&g, root);
        let mut ws = SsspWorkspace::for_graph(&g);
        ws.run_to_targets_pruned(&g, root, Direction::Reverse, &targets, &lm);
        for t in targets {
            assert_eq!(ws.distance(t), reference.distance(t), "{t}");
            assert_eq!(
                ws.path_to(t).unwrap().nodes(),
                reference.path_to(t).unwrap().nodes(),
                "{t}"
            );
        }
    }

    #[test]
    fn pruned_run_with_unreachable_target_degrades_gracefully() {
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(10.0, 0.0));
        let island = b.add_node(Point::new(90.0, 90.0));
        b.add_two_way(a, c, Distance::from_feet(3)).unwrap();
        let g = b.build();
        let lm = crate::landmarks::Landmarks::select(&g, 2);
        let mut ws = SsspWorkspace::for_graph(&g);
        // The island never gets an upper bound, so pruning stays disabled
        // and the run exhausts the reachable component.
        ws.run_to_targets_pruned(&g, a, Direction::Forward, &[island, c], &lm);
        assert_eq!(ws.distance(c), Some(Distance::from_feet(3)));
        assert!(matches!(
            ws.path_to(island),
            Err(GraphError::Unreachable { .. })
        ));
        assert_eq!(ws.last_run_pruned(), 0);
    }

    #[test]
    #[should_panic(expected = "landmarks built for")]
    fn pruned_run_rejects_mismatched_landmarks() {
        let g = line100();
        let other = GridGraph::new(3, 3, Distance::from_feet(10));
        let lm = crate::landmarks::Landmarks::select(other.graph(), 2);
        let mut ws = SsspWorkspace::for_graph(&g);
        ws.run_to_targets_pruned(
            &g,
            NodeId::new(0),
            Direction::Forward,
            &[NodeId::new(5)],
            &lm,
        );
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
        let reference = dijkstra::shortest_path_tree(&g, v[0]);
        let mut ws = SsspWorkspace::with_kernel_for_graph(&g, SsspKernel::BucketQueue);
        ws.run(&g, v[0], Direction::Forward);
        for &u in &v {
            assert_eq!(ws.distance(u), reference.distance(u), "{u}");
        }
        assert_eq!(ws.distance(v[1]), Some(long)); // direct edge wins
    }
}
