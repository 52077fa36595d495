//! Incremental scenario maintenance for streaming traffic.
//!
//! [`Scenario`] is build-once-immutable: the CSR detour table and the
//! per-entry value array are frozen at construction, so any traffic change
//! forces a full rebuild (two Dijkstras per shop plus a pass over every
//! routed path). [`MutableScenario`] closes that gap for a *fixed* graph,
//! shop set, and utility function: it applies a stream of [`FlowDelta`]s —
//! add / remove / rescale a flow, change a flow's price sensitivity `α` —
//! directly to incrementally maintained CSR arrays.
//!
//! ## Append + tombstone + compaction
//!
//! * **Add** routes the new flow on the current graph (one early-exit
//!   [`SsspWorkspace::run_to_targets`] from its origin — the search
//!   [`FlowSet::route`] runs, so the path is identical to a from-scratch
//!   rebuild's), derives its first-visit detour entries from the per-shop
//!   distance rows retained at construction, and *appends* them to per-node
//!   overlay rows behind the base CSR.
//! * **Remove** marks the flow dead and zeroes its entry values in place
//!   (a zero value can never win a best-value comparison, so the hot loops
//!   need no liveness branch); the stale entries are *tombstones*.
//! * **Rescale / set-α** recompute the flow's entry values from scratch —
//!   `f(detour, α) · volume` with the updated parameter, never by scaling the
//!   stored floats — so values stay bit-identical to a rebuild's.
//!
//! When the tombstone share of all entries reaches a configurable threshold,
//! a **compaction** merges the overlay into a fresh base CSR, drops dead
//! entries, and densely renumbers the surviving flows (order-preserving, so
//! per-node entries stay sorted by flow id exactly as [`DetourTable::build`]
//! emits them).
//!
//! ## Epoch-numbered snapshots
//!
//! Every successful mutation advances an epoch counter. [`snapshot`]
//! materializes the current state as a real, immutable [`Scenario`] (cached
//! per epoch), so *every* existing evaluation engine — marginal, CELF,
//! inverted — keeps scanning flat arrays with zero changes. Snapshots
//! are **bit-identical** to a from-scratch rebuild of the live flows: same
//! routed paths, same CSR entry order, same `f64` entry values (the
//! equivalence is property-tested in `tests/mutable_equivalence.rs`).
//!
//! Materializing costs a pass over every entry plus a copy of every live
//! path, and any delta invalidates the cache. The two measurements a
//! streaming staleness check takes need no snapshot:
//! [`evaluate_current`] and [`singleton_upper_bound`] read the maintained
//! arrays directly, in the snapshot's summation order, so their bits equal
//! the snapshot's. A caller materializes only when it must run an engine.
//!
//! [`snapshot`]: MutableScenario::snapshot
//! [`evaluate_current`]: MutableScenario::evaluate_current
//! [`singleton_upper_bound`]: MutableScenario::singleton_upper_bound
//!
//! ```
//! use rap_graph::{GridGraph, Distance, NodeId};
//! use rap_traffic::{FlowSpec, FlowSet};
//! use rap_core::{FlowDelta, MutableScenario, UtilityKind};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let grid = GridGraph::new(3, 3, Distance::from_feet(10));
//! let flows = FlowSet::route(
//!     grid.graph(),
//!     vec![FlowSpec::new(NodeId::new(0), NodeId::new(2), 1000.0)?],
//! )?;
//! let mut live = MutableScenario::new(
//!     grid.graph().clone(),
//!     flows,
//!     vec![NodeId::new(4)],
//!     UtilityKind::Linear.instantiate(Distance::from_feet(40)),
//! )?;
//! let outcome = live.apply(&FlowDelta::AddFlow {
//!     origin: NodeId::new(6),
//!     destination: NodeId::new(8),
//!     volume: 500.0,
//!     alpha: 0.1,
//! })?;
//! assert_eq!(outcome.assigned, Some(1)); // stable ids are monotone
//! assert_eq!(live.snapshot().flows().len(), 2);
//! # Ok(())
//! # }
//! ```

use crate::detour::{DetourTable, FlowDetour, ShopRows};
use crate::error::PlacementError;
use crate::kernel;
use crate::placement::Placement;
use crate::scenario::Scenario;
use crate::utility::UtilityFunction;
use rap_graph::sssp::SsspWorkspace;
use rap_graph::{Direction, Distance, NodeId, Path, RoadGraph};
use rap_traffic::{FlowId, FlowSet, FlowSpec, TrafficError, TrafficFlow};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Tombstone share of all entries above which [`MutableScenario::apply`]
/// triggers a compaction.
pub const DEFAULT_COMPACT_RATIO: f64 = 0.25;

/// One mutation of the live traffic scenario.
///
/// Flows are addressed by *stable* ids: the id assigned when the flow was
/// added (monotonically increasing, starting at the initial flow count) and
/// unchanged by compactions, unlike the dense internal ids the CSR uses.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FlowDelta {
    /// Introduce a new flow, routed on a shortest path like
    /// [`FlowSet::route`] would.
    AddFlow {
        /// Origin intersection.
        origin: NodeId,
        /// Destination intersection.
        destination: NodeId,
        /// Daily vehicle volume (finite, positive).
        volume: f64,
        /// Advertisement attractiveness / price sensitivity `α` in `[0, 1]`.
        alpha: f64,
    },
    /// Retire a live flow, tombstoning its detour entries.
    RemoveFlow {
        /// Stable id of the flow to remove.
        flow: u64,
    },
    /// Multiply a live flow's daily volume by `factor`.
    RescaleFlow {
        /// Stable id of the flow to rescale.
        flow: u64,
        /// Volume multiplier (finite, positive; the product must stay a
        /// valid volume).
        factor: f64,
    },
    /// Change a live flow's price sensitivity `α` (the paper's shop-side
    /// knob: how attractive the advertised discount is).
    SetAlpha {
        /// Stable id of the flow to retune.
        flow: u64,
        /// New `α` in `[0, 1]`.
        alpha: f64,
    },
}

/// Why a [`FlowDelta`] was rejected. The scenario is unchanged on error.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DeltaError {
    /// The stable flow id is unknown or already removed.
    UnknownFlow {
        /// The offending stable id.
        flow: u64,
    },
    /// An endpoint is not an intersection of the graph.
    NodeOutOfBounds {
        /// The offending node.
        node: NodeId,
    },
    /// Origin equals destination.
    DegenerateFlow {
        /// The shared endpoint.
        node: NodeId,
    },
    /// No path from origin to destination.
    Unroutable {
        /// Origin intersection.
        origin: NodeId,
        /// Destination intersection.
        destination: NodeId,
    },
    /// Volume (or a rescaled volume) is not finite and positive.
    InvalidVolume {
        /// The offending volume.
        volume: f64,
    },
    /// Rescale factor is not finite and positive.
    InvalidFactor {
        /// The offending factor.
        factor: f64,
    },
    /// `α` is not finite in `[0, 1]`.
    InvalidAlpha {
        /// The offending alpha.
        alpha: f64,
    },
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            DeltaError::UnknownFlow { flow } => {
                write!(f, "flow #{flow} is unknown or already removed")
            }
            DeltaError::NodeOutOfBounds { node } => {
                write!(f, "{node} is not an intersection of the graph")
            }
            DeltaError::DegenerateFlow { node } => {
                write!(f, "flow origin and destination are both {node}")
            }
            DeltaError::Unroutable {
                origin,
                destination,
            } => write!(f, "no route from {origin} to {destination}"),
            DeltaError::InvalidVolume { volume } => {
                write!(f, "volume {volume} is not finite and positive")
            }
            DeltaError::InvalidFactor { factor } => {
                write!(f, "rescale factor {factor} is not finite and positive")
            }
            DeltaError::InvalidAlpha { alpha } => {
                write!(f, "alpha {alpha} is not finite in [0, 1]")
            }
        }
    }
}

impl std::error::Error for DeltaError {}

/// What applying one [`FlowDelta`] did.
#[derive(Clone, Copy, Debug)]
pub struct DeltaOutcome {
    /// The epoch after the mutation (and a triggered compaction, if any).
    pub epoch: u64,
    /// The stable id assigned by an `AddFlow`.
    pub assigned: Option<u64>,
    /// Whether the mutation pushed the tombstone share over the threshold
    /// and a compaction ran.
    pub compacted: bool,
    /// CSR entries appended, tombstoned, or revalued by this delta.
    pub entries_touched: usize,
}

/// One appended detour entry in a per-node overlay row.
#[derive(Clone, Copy, Debug)]
struct OverlayEntry {
    /// Dense internal flow id.
    flow: u32,
    position: u32,
    detour: Distance,
    /// `f(detour, α) · volume`, zeroed when the flow is tombstoned.
    value: f64,
}

impl OverlayEntry {
    /// The entry without its value, named by internal flow id.
    fn detour_entry(&self) -> FlowDetour {
        FlowDetour {
            flow: FlowId::new(self.flow),
            position: self.position,
            detour: self.detour,
        }
    }
}

/// Everything the maintainer tracks per flow.
#[derive(Clone, Debug)]
struct FlowState {
    stable: u64,
    origin: NodeId,
    destination: NodeId,
    volume: f64,
    alpha: f64,
    path: Path,
    live: bool,
    /// Flat indices of this flow's entries in the base CSR.
    base_locs: Vec<u32>,
    /// `(node, index within the node's overlay row)` of appended entries.
    overlay_locs: Vec<(u32, u32)>,
}

/// A placement scenario that stays current under a stream of traffic deltas.
///
/// See the [module docs](self) for the maintenance scheme. The graph, shop
/// set, and utility function are fixed for the scenario's lifetime; only the
/// flow population mutates.
pub struct MutableScenario {
    graph: RoadGraph,
    shops: Vec<NodeId>,
    utility: Arc<dyn UtilityFunction>,
    /// Per-shop distance rows, `d'(v → shop)` and `d''(shop → v)`, cached
    /// forever.
    shop_rows: ShopRows,
    /// `min_s dist(v → shop_s)` — immutable, shared by every snapshot.
    to_shop: Vec<Distance>,
    /// Reusable routing scratch for `AddFlow` deltas: each addition runs one
    /// early-exit tree to the new flow's destination without allocating.
    route_ws: SsspWorkspace,
    flows: Vec<FlowState>,
    /// Stable id → dense internal id, live flows only.
    by_stable: HashMap<u64, u32>,
    next_stable: u64,
    /// Base CSR (last compaction's state): row starts, entries, values.
    offsets: Vec<u32>,
    entries: Vec<FlowDetour>,
    values: Vec<f64>,
    /// Per-node rows of entries appended since the last compaction.
    overlay: Vec<Vec<OverlayEntry>>,
    overlay_entries: usize,
    /// Entries belonging to tombstoned flows (still occupying slots).
    dead_entries: usize,
    compact_ratio: f64,
    epoch: u64,
    compactions: u64,
    /// Last materialized snapshot, keyed by the epoch it reflects.
    cache: Option<(u64, Arc<Scenario>)>,
}

impl fmt::Debug for MutableScenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MutableScenario")
            .field("epoch", &self.epoch)
            .field("live_flows", &self.by_stable.len())
            .field("total_entries", &self.total_entries())
            .field("dead_entries", &self.dead_entries)
            .field("compactions", &self.compactions)
            .finish_non_exhaustive()
    }
}

impl MutableScenario {
    /// Wraps an initial flow population, precomputing the base CSR and the
    /// per-shop distance rows that make later additions cheap.
    ///
    /// The initial flows receive stable ids `0..flows.len()`. To build from
    /// unrouted demand, with the instance-size plan `rap place` uses, see
    /// [`crate::build_mutable_scenario`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Scenario::new`].
    pub fn new(
        graph: RoadGraph,
        flows: FlowSet,
        shops: Vec<NodeId>,
        utility: Arc<dyn UtilityFunction>,
    ) -> Result<Self, PlacementError> {
        let (table, shop_rows) = DetourTable::build_with_rows(&graph, &flows, &shops, 1)?;
        Ok(Self::assemble(
            graph, &flows, shops, utility, table, shop_rows,
        ))
    }

    /// Assembles the scenario from a detour table built over `flows` and
    /// the shop rows that build grew: stable ids, entry values and
    /// flow→location indexes.
    pub(crate) fn assemble(
        graph: RoadGraph,
        flows: &FlowSet,
        shops: Vec<NodeId>,
        utility: Arc<dyn UtilityFunction>,
        table: DetourTable,
        shop_rows: ShopRows,
    ) -> Self {
        let (offsets, entries, to_shop) = table.into_raw_parts();
        let mut states: Vec<FlowState> = flows
            .iter()
            .map(|f| FlowState {
                stable: f.id().index() as u64,
                origin: f.origin(),
                destination: f.destination(),
                volume: f.volume(),
                alpha: f.attractiveness(),
                path: f.path().clone(),
                live: true,
                base_locs: Vec::new(),
                overlay_locs: Vec::new(),
            })
            .collect();
        let mut values = Vec::with_capacity(entries.len());
        for (i, e) in entries.iter().enumerate() {
            let st = &mut states[e.flow.index()];
            st.base_locs.push(i as u32);
            values.push(utility.probability(e.detour, st.alpha) * st.volume);
        }
        let by_stable = states
            .iter()
            .enumerate()
            .map(|(i, s)| (s.stable, i as u32))
            .collect();
        let n = graph.node_count();
        let next_stable = states.len() as u64;
        let route_ws = SsspWorkspace::for_graph(&graph);
        MutableScenario {
            graph,
            shops,
            utility,
            shop_rows,
            to_shop,
            route_ws,
            flows: states,
            by_stable,
            next_stable,
            offsets,
            entries,
            values,
            overlay: vec![Vec::new(); n],
            overlay_entries: 0,
            dead_entries: 0,
            compact_ratio: DEFAULT_COMPACT_RATIO,
            epoch: 0,
            compactions: 0,
            cache: None,
        }
    }

    /// Overrides the tombstone share that triggers auto-compaction
    /// (default [`DEFAULT_COMPACT_RATIO`]); clamped to `[0, 1]`. A ratio of
    /// `1.0` auto-compacts only once every entry is dead
    /// ([`MutableScenario::compact`] still works).
    #[must_use]
    pub fn with_compact_ratio(mut self, ratio: f64) -> Self {
        self.compact_ratio = ratio.clamp(0.0, 1.0);
        self
    }

    /// Applies one delta; on success the epoch advances (twice if a
    /// compaction was triggered).
    ///
    /// # Errors
    ///
    /// Returns a [`DeltaError`] and leaves the scenario unchanged when the
    /// delta references an unknown flow or carries invalid parameters.
    pub fn apply(&mut self, delta: &FlowDelta) -> Result<DeltaOutcome, DeltaError> {
        let (assigned, entries_touched) = match *delta {
            FlowDelta::AddFlow {
                origin,
                destination,
                volume,
                alpha,
            } => {
                let (stable, touched) = self.add_flow(origin, destination, volume, alpha)?;
                (Some(stable), touched)
            }
            FlowDelta::RemoveFlow { flow } => (None, self.remove_flow(flow)?),
            FlowDelta::RescaleFlow { flow, factor } => (None, self.rescale_flow(flow, factor)?),
            FlowDelta::SetAlpha { flow, alpha } => (None, self.set_alpha(flow, alpha)?),
        };
        self.epoch += 1;
        self.cache = None;
        let compacted = self.maybe_compact();
        Ok(DeltaOutcome {
            epoch: self.epoch,
            assigned,
            compacted,
            entries_touched,
        })
    }

    fn add_flow(
        &mut self,
        origin: NodeId,
        destination: NodeId,
        volume: f64,
        alpha: f64,
    ) -> Result<(u64, usize), DeltaError> {
        for node in [origin, destination] {
            if !self.graph.contains_node(node) {
                return Err(DeltaError::NodeOutOfBounds { node });
            }
        }
        if origin == destination {
            return Err(DeltaError::DegenerateFlow { node: origin });
        }
        if !volume.is_finite() || volume <= 0.0 {
            return Err(DeltaError::InvalidVolume { volume });
        }
        check_alpha(alpha)?;
        // Route exactly like `FlowSet::route`: one early-exit workspace run
        // from the origin — settled distances are final, so a from-scratch
        // rebuild picks the identical path.
        self.route_ws
            .run_to_targets(&self.graph, origin, Direction::Forward, &[destination]);
        let path = self
            .route_ws
            .path_to(destination)
            .map_err(|_| DeltaError::Unroutable {
                origin,
                destination,
            })?;
        let internal = self.flows.len() as u32;
        let stable = self.next_stable;
        // Per-shop `d''(shop → destination)`, straight from the cached rows.
        let to_dest: Vec<Distance> = self.shop_rows.to_destination(destination).collect();
        // First-visit scan, mirroring `FlowSet::from_routed` (positions,
        // prefixes); the detour is `DetourTable::build`'s rule. `path_to`
        // walks a predecessor tree, which has no cycles, so the path visits
        // each node once and every position is a first visit.
        let nodes = path.nodes();
        let mut prefix = Distance::ZERO;
        let mut overlay_locs = Vec::new();
        for (pos, &node) in nodes.iter().enumerate() {
            if pos > 0 {
                let hop = self
                    .graph
                    .edge_length(nodes[pos - 1], node)
                    .expect("routed path edges exist in graph");
                prefix = prefix.saturating_add(hop);
            }
            let remaining = path.length().saturating_sub(prefix);
            let Some(detour) = self.shop_rows.detour(node.index(), &to_dest, remaining) else {
                continue; // no shop reachable from here for this flow
            };
            let value = self.utility.probability(detour, alpha) * volume;
            let row = &mut self.overlay[node.index()];
            row.push(OverlayEntry {
                flow: internal,
                position: pos as u32,
                detour,
                value,
            });
            overlay_locs.push((node.index() as u32, (row.len() - 1) as u32));
        }
        let touched = overlay_locs.len();
        self.overlay_entries += touched;
        self.next_stable += 1;
        self.by_stable.insert(stable, internal);
        self.flows.push(FlowState {
            stable,
            origin,
            destination,
            volume,
            alpha,
            path,
            live: true,
            base_locs: Vec::new(),
            overlay_locs,
        });
        Ok((stable, touched))
    }

    fn remove_flow(&mut self, stable: u64) -> Result<usize, DeltaError> {
        let idx = self.live_internal(stable)? as usize;
        self.flows[idx].live = false;
        self.by_stable.remove(&stable);
        // Zero the tombstoned values in place: a zero can never win a
        // best-value comparison, so readers need no liveness branch.
        for j in 0..self.flows[idx].base_locs.len() {
            let loc = self.flows[idx].base_locs[j] as usize;
            self.values[loc] = 0.0;
        }
        for j in 0..self.flows[idx].overlay_locs.len() {
            let (node, k) = self.flows[idx].overlay_locs[j];
            self.overlay[node as usize][k as usize].value = 0.0;
        }
        let touched = self.flows[idx].base_locs.len() + self.flows[idx].overlay_locs.len();
        self.dead_entries += touched;
        Ok(touched)
    }

    fn rescale_flow(&mut self, stable: u64, factor: f64) -> Result<usize, DeltaError> {
        let idx = self.live_internal(stable)? as usize;
        if !factor.is_finite() || factor <= 0.0 {
            return Err(DeltaError::InvalidFactor { factor });
        }
        let volume = self.flows[idx].volume * factor;
        if !volume.is_finite() || volume <= 0.0 {
            return Err(DeltaError::InvalidVolume { volume });
        }
        self.flows[idx].volume = volume;
        Ok(self.refresh_values(idx))
    }

    fn set_alpha(&mut self, stable: u64, alpha: f64) -> Result<usize, DeltaError> {
        let idx = self.live_internal(stable)? as usize;
        check_alpha(alpha)?;
        self.flows[idx].alpha = alpha;
        Ok(self.refresh_values(idx))
    }

    /// Recomputes one live flow's entry values from scratch — the same
    /// `f(detour, α) · volume` expression a rebuild evaluates, never a scale
    /// of the stored floats, to preserve bit-identity.
    fn refresh_values(&mut self, idx: usize) -> usize {
        let volume = self.flows[idx].volume;
        let alpha = self.flows[idx].alpha;
        for j in 0..self.flows[idx].base_locs.len() {
            let loc = self.flows[idx].base_locs[j] as usize;
            let detour = self.entries[loc].detour;
            self.values[loc] = self.utility.probability(detour, alpha) * volume;
        }
        for j in 0..self.flows[idx].overlay_locs.len() {
            let (node, k) = self.flows[idx].overlay_locs[j];
            let detour = self.overlay[node as usize][k as usize].detour;
            self.overlay[node as usize][k as usize].value =
                self.utility.probability(detour, alpha) * volume;
        }
        self.flows[idx].base_locs.len() + self.flows[idx].overlay_locs.len()
    }

    fn live_internal(&self, stable: u64) -> Result<u32, DeltaError> {
        self.by_stable
            .get(&stable)
            .copied()
            .ok_or(DeltaError::UnknownFlow { flow: stable })
    }

    fn maybe_compact(&mut self) -> bool {
        let total = self.total_entries();
        if self.dead_entries == 0 || total == 0 {
            return false;
        }
        if (self.dead_entries as f64) < self.compact_ratio * total as f64 {
            return false;
        }
        self.compact();
        true
    }

    /// Merges the overlay into a fresh base CSR, drops tombstoned entries,
    /// and densely renumbers the surviving flows (order-preserving, so
    /// per-node entries stay sorted by flow id). Advances the epoch.
    pub fn compact(&mut self) {
        let mut remap: Vec<Option<u32>> = Vec::with_capacity(self.flows.len());
        let mut survivors: Vec<FlowState> = Vec::with_capacity(self.by_stable.len());
        for mut st in self.flows.drain(..) {
            if st.live {
                remap.push(Some(survivors.len() as u32));
                st.base_locs.clear();
                st.overlay_locs.clear();
                survivors.push(st);
            } else {
                remap.push(None);
            }
        }
        let n = self.graph.node_count();
        let mut offsets: Vec<u32> = Vec::with_capacity(n + 1);
        let mut entries: Vec<FlowDetour> = Vec::new();
        let mut values: Vec<f64> = Vec::new();
        offsets.push(0);
        for v in 0..n {
            let range = self.offsets[v] as usize..self.offsets[v + 1] as usize;
            for i in range {
                let e = self.entries[i];
                if let Some(new_id) = remap[e.flow.index()] {
                    survivors[new_id as usize]
                        .base_locs
                        .push(entries.len() as u32);
                    entries.push(FlowDetour {
                        flow: FlowId::new(new_id),
                        position: e.position,
                        detour: e.detour,
                    });
                    values.push(self.values[i]);
                }
            }
            for oe in self.overlay[v].drain(..) {
                if let Some(new_id) = remap[oe.flow as usize] {
                    survivors[new_id as usize]
                        .base_locs
                        .push(entries.len() as u32);
                    entries.push(FlowDetour {
                        flow: FlowId::new(new_id),
                        position: oe.position,
                        detour: oe.detour,
                    });
                    values.push(oe.value);
                }
            }
            assert!(
                entries.len() <= u32::MAX as usize,
                "detour table exceeds u32 CSR offset range"
            );
            offsets.push(entries.len() as u32);
        }
        self.flows = survivors;
        self.offsets = offsets;
        self.entries = entries;
        self.values = values;
        self.overlay_entries = 0;
        self.dead_entries = 0;
        self.by_stable = self
            .flows
            .iter()
            .enumerate()
            .map(|(i, s)| (s.stable, i as u32))
            .collect();
        self.compactions += 1;
        self.epoch += 1;
        self.cache = None;
    }

    /// The current state as an immutable [`Scenario`], cheap when the epoch
    /// has not advanced since the last call (the materialization is cached).
    ///
    /// The snapshot is bit-identical to `Scenario::new` over the live flows:
    /// same paths, same CSR entry order, same entry values.
    pub fn snapshot(&mut self) -> Arc<Scenario> {
        if let Some((epoch, snap)) = &self.cache {
            if *epoch == self.epoch {
                return Arc::clone(snap);
            }
        }
        let snap = Arc::new(self.materialize());
        self.cache = Some((self.epoch, Arc::clone(&snap)));
        snap
    }

    /// Builds the snapshot scenario from the maintained arrays — no Dijkstra
    /// runs, one pass over entries plus the first-visit re-index.
    fn materialize(&self) -> Scenario {
        live_scenario(
            self.graph.clone(),
            self.shops.clone(),
            Arc::clone(&self.utility),
            self.flows.iter().map(|st| {
                st.live.then(|| {
                    let spec = live_spec(st.origin, st.destination, st.volume, st.alpha);
                    (spec, st.path.clone())
                })
            }),
            (&self.offsets, &self.entries),
            |v| self.overlay[v].iter().map(OverlayEntry::detour_entry),
            self.to_shop.clone(),
        )
        .expect("maintained paths follow the graph")
    }

    /// The objective `w(placement)` against the *current* state, straight
    /// off the maintained arrays — no snapshot materialization. Bit-identical
    /// to `self.snapshot().evaluate(placement)`.
    pub fn evaluate_current(&self, placement: &Placement) -> f64 {
        let mut best = vec![0.0f64; self.flows.len()];
        for &rap in placement {
            let v = rap.index();
            if v + 1 >= self.offsets.len() {
                continue;
            }
            let range = self.offsets[v] as usize..self.offsets[v + 1] as usize;
            for (e, &value) in self.entries[range.clone()].iter().zip(&self.values[range]) {
                kernel::raise(&mut best[e.flow.index()], value);
            }
            for oe in &self.overlay[v] {
                kernel::raise(&mut best[oe.flow as usize], oe.value);
            }
        }
        if self.by_stable.is_empty() {
            // The snapshot folds an empty array, whose sum is -0.0; summing
            // tombstones here would give +0.0.
            return std::iter::empty::<f64>().sum();
        }
        // Tombstoned slots hold +0.0, which is exact under f64 summation once
        // a live slot has moved the fold off its -0.0 start, so the sum
        // matches the snapshot's live-only fold bit for bit.
        best.iter().sum()
    }

    /// The singleton upper bound of the *current* state, straight off the
    /// maintained arrays — no snapshot materialization. Bit-identical to
    /// `singleton_upper_bound(&self.snapshot(), k)`.
    ///
    /// Per node it walks the base row, then the overlay row — the snapshot's
    /// row order — and lays the i-th *live* entry into lane
    /// `i % kernel::LANES`, as [`kernel::uncovered_sum`] does over the
    /// snapshot's row. A node is a candidate iff it holds a live entry, even
    /// one of value 0.
    ///
    /// [`kernel::uncovered_sum`]: crate::kernel::uncovered_sum
    pub fn singleton_upper_bound(&self, k: usize) -> f64 {
        // A tombstone's value is 0.0 like a live entry's past the threshold,
        // so liveness needs its own lookup: a dense byte per flow, not a
        // `FlowState` (path and location lists) dereferenced per entry.
        let live: Vec<bool> = self.flows.iter().map(|st| st.live).collect();
        let mut singles = Vec::new();
        for (v, row) in self.overlay.iter().enumerate() {
            let mut acc = [0.0f64; kernel::LANES];
            let mut count = 0usize;
            let mut add = |flow: usize, value: f64| {
                if live[flow] {
                    acc[count % kernel::LANES] += value;
                    count += 1;
                }
            };
            let range = self.offsets[v] as usize..self.offsets[v + 1] as usize;
            for (e, &value) in self.entries[range.clone()].iter().zip(&self.values[range]) {
                add(e.flow.index(), value);
            }
            for oe in row {
                add(oe.flow as usize, oe.value);
            }
            if count > 0 {
                singles.push(kernel::reduce(acc));
            }
        }
        crate::bounds::top_k_sum(singles, k)
    }

    /// The epoch (number of state versions since construction).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Compactions run so far (triggered or forced).
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Number of live (non-tombstoned) flows.
    pub fn live_flows(&self) -> usize {
        self.by_stable.len()
    }

    /// All entry slots currently held (base + overlay, including
    /// tombstones).
    pub fn total_entries(&self) -> usize {
        self.entries.len() + self.overlay_entries
    }

    /// Entry slots held by tombstoned flows.
    pub fn dead_entries(&self) -> usize {
        self.dead_entries
    }

    /// The stable id the next `AddFlow` will be assigned. Deterministic, so
    /// delta producers can mirror the assignment without a back-channel.
    pub fn next_stable_id(&self) -> u64 {
        self.next_stable
    }

    /// Whether `stable` names a live flow.
    pub fn contains_flow(&self, stable: u64) -> bool {
        self.by_stable.contains_key(&stable)
    }

    /// Stable ids of the live flows, in internal (insertion) order.
    pub fn live_stable_ids(&self) -> Vec<u64> {
        self.flows
            .iter()
            .filter(|st| st.live)
            .map(|st| st.stable)
            .collect()
    }

    /// Specs of the live flows (current volume and `α`), in internal order —
    /// routing these through [`FlowSet::route`] and [`Scenario::new`]
    /// reproduces [`MutableScenario::snapshot`] exactly.
    pub fn live_specs(&self) -> Vec<FlowSpec> {
        self.flows
            .iter()
            .filter(|st| st.live)
            .map(|st| live_spec(st.origin, st.destination, st.volume, st.alpha))
            .collect()
    }

    /// The road graph.
    pub fn graph(&self) -> &RoadGraph {
        &self.graph
    }

    /// The shop intersections.
    pub fn shops(&self) -> &[NodeId] {
        &self.shops
    }

    /// Shared handle to the utility function.
    pub fn utility_arc(&self) -> Arc<dyn UtilityFunction> {
        Arc::clone(&self.utility)
    }

    /// The exact mutable state the snapshot codec serializes: every flow
    /// (tombstones included, so epochs and compaction trigger points survive
    /// a round trip), the base CSR, and the overlay rows flattened to CSR
    /// form. Derived state — entry values, flow→location indexes, shop
    /// rows, the routing workspace — is *not* part of it; `from_persisted`
    /// recomputes all of it deterministically.
    pub(crate) fn persisted_state(&self) -> PersistedState {
        let flows = self
            .flows
            .iter()
            .map(|st| PersistedFlow {
                stable: st.stable,
                origin: st.origin,
                destination: st.destination,
                volume: st.volume,
                alpha: st.alpha,
                live: st.live,
                path_nodes: st.path.nodes().to_vec(),
                path_length: st.path.length(),
            })
            .collect();
        let mut overlay_offsets: Vec<u32> = Vec::with_capacity(self.overlay.len() + 1);
        let mut overlay_entries: Vec<FlowDetour> = Vec::with_capacity(self.overlay_entries);
        overlay_offsets.push(0);
        for row in &self.overlay {
            overlay_entries.extend(row.iter().map(OverlayEntry::detour_entry));
            overlay_offsets.push(overlay_entries.len() as u32);
        }
        PersistedState {
            epoch: self.epoch,
            next_stable: self.next_stable,
            compactions: self.compactions,
            compact_ratio: self.compact_ratio,
            flows,
            offsets: self.offsets.clone(),
            entries: self.entries.clone(),
            overlay_offsets,
            overlay_entries,
        }
    }

    /// Reassembles a scenario from persisted state that the snapshot reader
    /// has validated, recomputing all derived state: entry values via the
    /// same `f(detour, α) · volume` expression the incremental maintenance
    /// evaluates (so values are bit-identical to the never-crashed
    /// scenario's), per-shop distance rows via the same runs the
    /// constructor makes, and the flow→location indexes by scanning the CSR
    /// arrays in their canonical order.
    pub(crate) fn from_persisted(
        graph: RoadGraph,
        shops: Vec<NodeId>,
        utility: Arc<dyn UtilityFunction>,
        threads: usize,
        st: PersistedState,
    ) -> Self {
        let n = graph.node_count();
        let mut by_stable: HashMap<u64, u32> = HashMap::new();
        let mut flows: Vec<FlowState> = Vec::with_capacity(st.flows.len());
        for (i, pf) in st.flows.into_iter().enumerate() {
            if pf.live {
                by_stable.insert(pf.stable, i as u32);
            }
            flows.push(FlowState {
                stable: pf.stable,
                origin: pf.origin,
                destination: pf.destination,
                volume: pf.volume,
                alpha: pf.alpha,
                path: Path::from_parts_unchecked(pf.path_nodes, pf.path_length),
                live: pf.live,
                base_locs: Vec::new(),
                overlay_locs: Vec::new(),
            });
        }

        // Base CSR: recompute values and flow→location indexes in flat
        // order — exactly the order the constructor and `compact` assign.
        let mut values: Vec<f64> = Vec::with_capacity(st.entries.len());
        let mut dead_entries = 0usize;
        for (i, e) in st.entries.iter().enumerate() {
            let fs = &mut flows[e.flow.index()];
            fs.base_locs.push(i as u32);
            if fs.live {
                values.push(utility.probability(e.detour, fs.alpha) * fs.volume);
            } else {
                values.push(0.0);
                dead_entries += 1;
            }
        }

        // Overlay rows, rehydrated from CSR form with the same recomputation.
        let mut overlay: Vec<Vec<OverlayEntry>> = vec![Vec::new(); n];
        for (v, row) in overlay.iter_mut().enumerate() {
            let range = st.overlay_offsets[v] as usize..st.overlay_offsets[v + 1] as usize;
            for oe in &st.overlay_entries[range] {
                let fs = &mut flows[oe.flow.index()];
                fs.overlay_locs.push((v as u32, row.len() as u32));
                let value = if fs.live {
                    utility.probability(oe.detour, fs.alpha) * fs.volume
                } else {
                    dead_entries += 1;
                    0.0
                };
                row.push(OverlayEntry {
                    flow: oe.flow.raw(),
                    position: oe.position,
                    detour: oe.detour,
                    value,
                });
            }
        }

        // Derived shop state: the same per-shop distance rows and columnwise
        // to-shop minimum the constructor computes (exact integer distances,
        // so bit-identical regardless of thread count).
        let shop_rows = ShopRows::build(&graph, &shops, threads);
        let to_shop = shop_rows.nearest_shop();
        let route_ws = SsspWorkspace::for_graph(&graph);
        MutableScenario {
            graph,
            shops,
            utility,
            shop_rows,
            to_shop,
            route_ws,
            flows,
            by_stable,
            next_stable: st.next_stable,
            offsets: st.offsets,
            entries: st.entries,
            values,
            overlay,
            overlay_entries: st.overlay_entries.len(),
            dead_entries,
            compact_ratio: st.compact_ratio,
            epoch: st.epoch,
            compactions: st.compactions,
            cache: None,
        }
    }
}

/// The spec of a live flow, whose parameters were validated when the delta
/// that set them was applied or when the snapshot holding them was read.
pub(crate) fn live_spec(origin: NodeId, destination: NodeId, volume: f64, alpha: f64) -> FlowSpec {
    FlowSpec::new(origin, destination, volume)
        .expect("live flows have distinct endpoints and a valid volume")
        .with_attractiveness(alpha)
        .expect("live flows have a valid alpha")
}

/// The immutable [`Scenario`] of a state's live flows: the one rule
/// [`MutableScenario::snapshot`] and the serving snapshot decode share.
///
/// `flows` yields, in internal-id order, a live flow's spec and path, or
/// `None` for a tombstone. Live flows take dense ids in that order, the
/// order [`FlowSet::route`] would assign from
/// [`MutableScenario::live_specs`]. Each node's detour row is its base row
/// (`base`, a CSR `(offsets, entries)`) followed by its overlay row
/// (`overlay_row(v)`), entries named by internal flow id; an entry is kept
/// only when its flow is live, renamed to the flow's dense id, so the rows
/// stay sorted by id exactly as [`DetourTable::build`] emits them.
///
/// # Errors
///
/// [`FlowSet::try_from_routed`]'s, for a path that does not follow the
/// graph.
pub(crate) fn live_scenario<I>(
    graph: RoadGraph,
    shops: Vec<NodeId>,
    utility: Arc<dyn UtilityFunction>,
    flows: impl Iterator<Item = Option<(FlowSpec, Path)>>,
    (base_offsets, base): (&[u32], &[FlowDetour]),
    overlay_row: impl Fn(usize) -> I,
    to_shop: Vec<Distance>,
) -> Result<Scenario, TrafficError>
where
    I: Iterator<Item = FlowDetour>,
{
    let (hint, _) = flows.size_hint();
    let mut remap: Vec<u32> = Vec::with_capacity(hint);
    let mut routed: Vec<TrafficFlow> = Vec::with_capacity(hint);
    for flow in flows {
        remap.push(match flow {
            Some((spec, path)) => {
                let id = FlowId::new(routed.len() as u32);
                routed.push(TrafficFlow::new(id, spec, path));
                id.raw()
            }
            None => u32::MAX,
        });
    }
    let flow_count = routed.len();
    let flow_set = FlowSet::try_from_routed(&graph, routed)?;
    let n = base_offsets.len() - 1;
    let mut offsets: Vec<u32> = Vec::with_capacity(n + 1);
    let mut entries: Vec<FlowDetour> = Vec::with_capacity(base.len());
    offsets.push(0);
    for v in 0..n {
        let row = &base[base_offsets[v] as usize..base_offsets[v + 1] as usize];
        for e in row.iter().copied().chain(overlay_row(v)) {
            let live = remap[e.flow.index()];
            if live != u32::MAX {
                entries.push(FlowDetour {
                    flow: FlowId::new(live),
                    ..e
                });
            }
        }
        offsets.push(entries.len() as u32);
    }
    let table = DetourTable::from_parts(offsets, entries, to_shop, flow_count);
    Ok(Scenario::from_parts(graph, flow_set, shops, utility, table))
}

/// One flow's persisted fields, as `crate::snapshot` serializes them.
#[derive(Clone, Debug)]
pub(crate) struct PersistedFlow {
    pub stable: u64,
    pub origin: NodeId,
    pub destination: NodeId,
    pub volume: f64,
    pub alpha: f64,
    pub live: bool,
    pub path_nodes: Vec<NodeId>,
    pub path_length: Distance,
}

/// The complete mutable state a snapshot round-trips; see
/// [`MutableScenario::persisted_state`].
#[derive(Clone, Debug)]
pub(crate) struct PersistedState {
    pub epoch: u64,
    pub next_stable: u64,
    pub compactions: u64,
    pub compact_ratio: f64,
    pub flows: Vec<PersistedFlow>,
    pub offsets: Vec<u32>,
    pub entries: Vec<FlowDetour>,
    /// Overlay rows in CSR form: `overlay_offsets.len() == node_count + 1`.
    pub overlay_offsets: Vec<u32>,
    /// Overlay entries, named by internal flow id.
    pub overlay_entries: Vec<FlowDetour>,
}

fn check_alpha(alpha: f64) -> Result<(), DeltaError> {
    if alpha.is_finite() && (0.0..=1.0).contains(&alpha) {
        Ok(())
    } else {
        Err(DeltaError::InvalidAlpha { alpha })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::utility::UtilityKind;
    use rap_graph::GridGraph;

    /// 4×4 grid, 100 ft blocks, shop at node 5, linear utility D = 600 ft.
    fn substrate() -> (RoadGraph, Vec<NodeId>, Arc<dyn UtilityFunction>) {
        let grid = GridGraph::new(4, 4, Distance::from_feet(100));
        (
            grid.graph().clone(),
            vec![NodeId::new(5)],
            UtilityKind::Linear.instantiate(Distance::from_feet(600)),
        )
    }

    fn spec(o: u32, d: u32, vol: f64, alpha: f64) -> FlowSpec {
        FlowSpec::new(NodeId::new(o), NodeId::new(d), vol)
            .unwrap()
            .with_attractiveness(alpha)
            .unwrap()
    }

    fn mutable_with(specs: Vec<FlowSpec>) -> MutableScenario {
        let (graph, shops, utility) = substrate();
        let flows = FlowSet::route(&graph, specs).unwrap();
        MutableScenario::new(graph, flows, shops, utility).unwrap()
    }

    /// Rebuilds from scratch over the live specs, as the equivalence oracle.
    fn rebuild(m: &MutableScenario) -> Scenario {
        let flows = FlowSet::route(m.graph(), m.live_specs()).unwrap();
        Scenario::new(
            m.graph().clone(),
            flows,
            m.shops().to_vec(),
            m.utility_arc(),
        )
        .unwrap()
    }

    /// Bit-level equality of two scenarios' evaluation state.
    fn assert_identical(a: &Scenario, b: &Scenario) {
        assert_eq!(a.flows().len(), b.flows().len(), "flow counts differ");
        assert_eq!(a.graph().node_count(), b.graph().node_count());
        for v in 0..a.graph().node_count() {
            let node = NodeId::new(v as u32);
            assert_eq!(a.entries_at(node), b.entries_at(node), "entries at {node}");
            let (af, av) = a.value_entries_at(node);
            let (bf, bv) = b.value_entries_at(node);
            assert_eq!(af, bf, "entry flows at {node}");
            let a_bits: Vec<u64> = av.iter().map(|x| x.to_bits()).collect();
            let b_bits: Vec<u64> = bv.iter().map(|x| x.to_bits()).collect();
            assert_eq!(a_bits, b_bits, "entry values at {node}");
        }
    }

    #[test]
    fn fresh_wrapper_matches_plain_scenario() {
        let mut m = mutable_with(vec![spec(0, 15, 800.0, 0.1), spec(12, 3, 400.0, 0.05)]);
        assert_identical(&m.snapshot(), &rebuild(&m));
        assert_eq!(m.epoch(), 0);
        assert_eq!(m.live_flows(), 2);
    }

    #[test]
    fn deltas_track_the_rebuild_exactly() {
        let mut m = mutable_with(vec![spec(0, 15, 800.0, 0.1), spec(12, 3, 400.0, 0.05)]);
        let out = m
            .apply(&FlowDelta::AddFlow {
                origin: NodeId::new(2),
                destination: NodeId::new(13),
                volume: 650.0,
                alpha: 0.2,
            })
            .unwrap();
        assert_eq!(out.assigned, Some(2));
        assert!(out.entries_touched > 0);
        assert_identical(&m.snapshot(), &rebuild(&m));

        m.apply(&FlowDelta::RescaleFlow {
            flow: 0,
            factor: 1.7,
        })
        .unwrap();
        assert_identical(&m.snapshot(), &rebuild(&m));

        m.apply(&FlowDelta::SetAlpha {
            flow: 2,
            alpha: 0.01,
        })
        .unwrap();
        assert_identical(&m.snapshot(), &rebuild(&m));

        m.apply(&FlowDelta::RemoveFlow { flow: 1 }).unwrap();
        assert_identical(&m.snapshot(), &rebuild(&m));
        assert_eq!(m.live_flows(), 2);
        assert_eq!(m.live_stable_ids(), vec![0, 2]);
    }

    #[test]
    fn compaction_preserves_the_snapshot() {
        let mut m = mutable_with(vec![
            spec(0, 15, 800.0, 0.1),
            spec(12, 3, 400.0, 0.05),
            spec(1, 14, 300.0, 0.2),
        ])
        .with_compact_ratio(1.0); // manual compaction only
        m.apply(&FlowDelta::AddFlow {
            origin: NodeId::new(4),
            destination: NodeId::new(11),
            volume: 120.0,
            alpha: 0.3,
        })
        .unwrap();
        m.apply(&FlowDelta::RemoveFlow { flow: 1 }).unwrap();
        let before = m.snapshot();
        assert!(m.dead_entries() > 0);
        m.compact();
        assert_eq!(m.dead_entries(), 0);
        assert_eq!(m.compactions(), 1);
        let after = m.snapshot();
        assert_identical(&before, &after);
        assert_identical(&after, &rebuild(&m));

        // Mutations keep working against the compacted base.
        m.apply(&FlowDelta::RescaleFlow {
            flow: 3,
            factor: 2.5,
        })
        .unwrap();
        assert_identical(&m.snapshot(), &rebuild(&m));
    }

    #[test]
    fn tombstone_ratio_triggers_auto_compaction() {
        let mut m = mutable_with(vec![
            spec(0, 15, 800.0, 0.1),
            spec(12, 3, 400.0, 0.05),
            spec(1, 14, 300.0, 0.2),
            spec(2, 13, 200.0, 0.15),
        ])
        .with_compact_ratio(0.2);
        let out = m.apply(&FlowDelta::RemoveFlow { flow: 0 }).unwrap();
        assert!(out.compacted, "25% of flows tombstoned should compact");
        assert_eq!(m.compactions(), 1);
        assert_eq!(m.dead_entries(), 0);
        assert_identical(&m.snapshot(), &rebuild(&m));
    }

    #[test]
    fn evaluate_current_matches_snapshot_evaluation() {
        let mut m = mutable_with(vec![spec(0, 15, 800.0, 0.1), spec(12, 3, 400.0, 0.05)]);
        m.apply(&FlowDelta::AddFlow {
            origin: NodeId::new(2),
            destination: NodeId::new(13),
            volume: 650.0,
            alpha: 0.2,
        })
        .unwrap();
        m.apply(&FlowDelta::RemoveFlow { flow: 1 }).unwrap();
        let snap = m.snapshot();
        for v in 0..m.graph().node_count() as u32 {
            let p = Placement::new(vec![NodeId::new(v), NodeId::new((v + 5) % 16)]);
            assert_eq!(
                m.evaluate_current(&p).to_bits(),
                snap.evaluate(&p).to_bits(),
                "divergence at placement {p}"
            );
        }
    }

    /// The live singleton bound against the snapshot's, for every `k` up to
    /// two past the candidate count.
    fn assert_bound_matches_snapshot(m: &mut MutableScenario) {
        let snap = m.snapshot();
        for k in 0..=snap.candidates().len() + 2 {
            assert_eq!(
                m.singleton_upper_bound(k).to_bits(),
                crate::bounds::singleton_upper_bound(&snap, k).to_bits(),
                "live bound diverged at k={k}"
            );
        }
    }

    #[test]
    fn tombstones_take_no_lane_slot() {
        // Nine flows share the top row, so each row node holds nine entries
        // and the lanes wrap. Tombstoning the first and fifth moves every
        // later live entry to a new lane in the snapshot's row; the live
        // bound must follow it, not lay entries out by raw position.
        let specs = (0..9)
            .map(|i| {
                let i = f64::from(i);
                spec(0, 3, 100.0 + 37.0 * i, 0.05 + 0.04 * i)
            })
            .collect();
        let mut m = mutable_with(specs).with_compact_ratio(1.0);
        assert_bound_matches_snapshot(&mut m);
        for flow in [0, 4] {
            m.apply(&FlowDelta::RemoveFlow { flow }).unwrap();
            assert_bound_matches_snapshot(&mut m);
        }
        m.apply(&FlowDelta::AddFlow {
            origin: NodeId::new(0),
            destination: NodeId::new(3),
            volume: 650.0,
            alpha: 0.2,
        })
        .unwrap();
        assert!(m.dead_entries() > 0);
        assert_bound_matches_snapshot(&mut m);
        m.compact();
        assert_bound_matches_snapshot(&mut m);
    }

    #[test]
    fn every_flow_removed_keeps_the_snapshot_zero() {
        let empty_sum = std::iter::empty::<f64>().sum::<f64>().to_bits();
        let p = Placement::new(vec![NodeId::new(0), NodeId::new(5)]);

        // Removing the last flow that holds an entry leaves every entry dead,
        // which compacts at any ratio: the flow table empties with it.
        let mut m = mutable_with(vec![spec(0, 15, 800.0, 0.1), spec(12, 3, 400.0, 0.05)])
            .with_compact_ratio(1.0);
        m.apply(&FlowDelta::RemoveFlow { flow: 0 }).unwrap();
        let out = m.apply(&FlowDelta::RemoveFlow { flow: 1 }).unwrap();
        assert!(out.compacted);
        assert_eq!(m.singleton_upper_bound(3).to_bits(), empty_sum);
        assert_eq!(m.evaluate_current(&p).to_bits(), empty_sum);
        assert_bound_matches_snapshot(&mut m);

        // Flows that hold no entry leave no dead entry to trigger that
        // compaction, so their tombstones outlive the last live flow. One-way
        // road 0 → 1 → 2; the shop at 3 reaches node 0 but nothing reaches
        // the shop.
        let mut b = rap_graph::GraphBuilder::new();
        for x in 0..4 {
            b.add_node(rap_graph::Point::new(f64::from(x) * 100.0, 0.0));
        }
        let block = Distance::from_feet(100);
        for (src, dst) in [(0, 1), (1, 2), (3, 0)] {
            b.add_edge(NodeId::new(src), NodeId::new(dst), block)
                .unwrap();
        }
        let graph = b.build();
        let flows = FlowSet::route(
            &graph,
            vec![spec(0, 2, 800.0, 0.1), spec(1, 2, 400.0, 0.05)],
        )
        .unwrap();
        let utility = UtilityKind::Linear.instantiate(Distance::from_feet(600));
        let mut m = MutableScenario::new(graph, flows, vec![NodeId::new(3)], utility).unwrap();
        assert_eq!(m.total_entries(), 0);
        m.apply(&FlowDelta::RemoveFlow { flow: 0 }).unwrap();
        m.apply(&FlowDelta::RemoveFlow { flow: 1 }).unwrap();
        assert_eq!((m.live_flows(), m.compactions()), (0, 0));
        for compacted in [false, true] {
            if compacted {
                m.compact();
            }
            // An empty fold is -0.0; summing tombstones must not make it +0.0.
            let snap = m.snapshot();
            assert_eq!(snap.evaluate(&p).to_bits(), empty_sum);
            assert_eq!(
                m.evaluate_current(&p).to_bits(),
                empty_sum,
                "compacted: {compacted}"
            );
            assert_eq!(m.singleton_upper_bound(3).to_bits(), empty_sum);
            assert_bound_matches_snapshot(&mut m);
        }
    }

    #[test]
    fn zero_valued_live_entries_are_candidates() {
        // Shop at node 5; every node of the bottom row sits exactly D = 400
        // ft of detour away, so the linear utility values the flow's live
        // entries at 0.
        let grid = GridGraph::new(4, 4, Distance::from_feet(100));
        let flows = FlowSet::route(grid.graph(), vec![spec(12, 15, 800.0, 0.1)]).unwrap();
        let mut m = MutableScenario::new(
            grid.graph().clone(),
            flows,
            vec![NodeId::new(5)],
            UtilityKind::Linear.instantiate(Distance::from_feet(400)),
        )
        .unwrap()
        .with_compact_ratio(1.0);
        let snap = m.snapshot();
        assert_eq!(snap.candidates().len(), 4);
        assert!(m.values.iter().all(|&v| v == 0.0));
        // Four zero-valued candidates sum to +0.0; no candidate would give
        // the empty fold's -0.0.
        assert_eq!(m.singleton_upper_bound(1).to_bits(), 0.0f64.to_bits());
        assert_bound_matches_snapshot(&mut m);

        // Zero-valued live entries, tombstones and positive values mixed in
        // one row: each live entry still occupies its lane slot.
        for delta in [
            FlowDelta::AddFlow {
                origin: NodeId::new(4),
                destination: NodeId::new(7),
                volume: 300.0,
                alpha: 0.4,
            },
            FlowDelta::AddFlow {
                origin: NodeId::new(13),
                destination: NodeId::new(1),
                volume: 500.0,
                alpha: 0.3,
            },
            FlowDelta::AddFlow {
                origin: NodeId::new(12),
                destination: NodeId::new(14),
                volume: 700.0,
                alpha: 0.9,
            },
            FlowDelta::RemoveFlow { flow: 1 },
        ] {
            m.apply(&delta).unwrap();
            assert_bound_matches_snapshot(&mut m);
        }
    }

    #[test]
    fn overlay_only_nodes_are_candidates() {
        // The base CSR covers the top row only; the added flow's bottom-row
        // nodes hold overlay entries and nothing else.
        let mut m = mutable_with(vec![spec(0, 3, 800.0, 0.1)]).with_compact_ratio(1.0);
        m.apply(&FlowDelta::AddFlow {
            origin: NodeId::new(12),
            destination: NodeId::new(15),
            volume: 650.0,
            alpha: 0.2,
        })
        .unwrap();
        for v in 12..16 {
            assert_eq!(m.offsets[v], m.offsets[v + 1], "node {v} has base entries");
            assert!(!m.overlay[v].is_empty(), "node {v} has no overlay entries");
        }
        assert!(m
            .snapshot()
            .candidates()
            .iter()
            .any(|v| (12..16).contains(&v.index())));
        assert_bound_matches_snapshot(&mut m);
        m.apply(&FlowDelta::RemoveFlow { flow: 0 }).unwrap();
        assert_bound_matches_snapshot(&mut m);
    }

    #[test]
    fn snapshots_are_cached_per_epoch() {
        let mut m = mutable_with(vec![spec(0, 15, 800.0, 0.1)]);
        let a = m.snapshot();
        let b = m.snapshot();
        assert!(Arc::ptr_eq(&a, &b), "same epoch must share the snapshot");
        m.apply(&FlowDelta::RescaleFlow {
            flow: 0,
            factor: 1.1,
        })
        .unwrap();
        let c = m.snapshot();
        assert!(!Arc::ptr_eq(&a, &c), "mutation must invalidate the cache");
    }

    #[test]
    fn stable_ids_survive_compaction() {
        let mut m = mutable_with(vec![spec(0, 15, 800.0, 0.1), spec(12, 3, 400.0, 0.05)])
            .with_compact_ratio(0.01);
        m.apply(&FlowDelta::RemoveFlow { flow: 0 }).unwrap();
        assert!(m.compactions() >= 1);
        // Flow 1 keeps its stable address across the renumbering.
        assert!(m.contains_flow(1));
        m.apply(&FlowDelta::RescaleFlow {
            flow: 1,
            factor: 3.0,
        })
        .unwrap();
        assert_identical(&m.snapshot(), &rebuild(&m));
        // The next add continues the monotone stable sequence.
        assert_eq!(m.next_stable_id(), 2);
    }

    #[test]
    fn invalid_deltas_are_rejected_and_harmless() {
        let mut m = mutable_with(vec![spec(0, 15, 800.0, 0.1)]);
        let before = m.snapshot();
        let cases: Vec<(FlowDelta, DeltaError)> = vec![
            (
                FlowDelta::RemoveFlow { flow: 9 },
                DeltaError::UnknownFlow { flow: 9 },
            ),
            (
                FlowDelta::RescaleFlow {
                    flow: 0,
                    factor: -1.0,
                },
                DeltaError::InvalidFactor { factor: -1.0 },
            ),
            (
                FlowDelta::SetAlpha {
                    flow: 0,
                    alpha: 2.0,
                },
                DeltaError::InvalidAlpha { alpha: 2.0 },
            ),
            (
                FlowDelta::AddFlow {
                    origin: NodeId::new(0),
                    destination: NodeId::new(99),
                    volume: 1.0,
                    alpha: 0.1,
                },
                DeltaError::NodeOutOfBounds {
                    node: NodeId::new(99),
                },
            ),
            (
                FlowDelta::AddFlow {
                    origin: NodeId::new(3),
                    destination: NodeId::new(3),
                    volume: 1.0,
                    alpha: 0.1,
                },
                DeltaError::DegenerateFlow {
                    node: NodeId::new(3),
                },
            ),
            (
                FlowDelta::AddFlow {
                    origin: NodeId::new(0),
                    destination: NodeId::new(1),
                    volume: -5.0,
                    alpha: 0.1,
                },
                DeltaError::InvalidVolume { volume: -5.0 },
            ),
        ];
        for (delta, want) in cases {
            assert_eq!(m.apply(&delta).unwrap_err(), want);
        }
        assert_eq!(m.epoch(), 0, "rejected deltas must not advance the epoch");
        assert_identical(&before, &m.snapshot());
    }

    #[test]
    fn double_remove_is_unknown() {
        let mut m = mutable_with(vec![spec(0, 15, 800.0, 0.1)]);
        m.apply(&FlowDelta::RemoveFlow { flow: 0 }).unwrap();
        assert_eq!(
            m.apply(&FlowDelta::RemoveFlow { flow: 0 }).unwrap_err(),
            DeltaError::UnknownFlow { flow: 0 },
        );
    }
}
