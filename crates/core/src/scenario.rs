//! The placement scenario: graph + flows + shops + utility, with evaluation.
//!
//! A [`Scenario`] freezes everything the placement algorithms need — the road
//! graph, the routed traffic flows, the shop location(s), the utility
//! function, and the precomputed [`DetourTable`] — and provides the objective
//! function `w(placement)`: the expected number of customers attracted per
//! day (paper Section III-A: `Σ f(d_{i,j}) · T_{i,j}` over covered flows,
//! with `d_{i,j}` the minimum detour over placed RAPs).
//!
//! ## Evaluation engine
//!
//! The utility function is frozen per scenario, so every entry's contribution
//! `α · f(detour) · T` is computed **once** at [`Scenario::new`] time and
//! stored in flat arrays parallel to the [`DetourTable`]'s CSR entries
//! ([`Scenario::value_entries_at`]). The greedy hot loops then operate on a
//! `best_value: Vec<f64>` state array (per-flow best value so far — because
//! the utility is non-increasing, the minimum detour is exactly the maximum
//! value) via [`Scenario::marginal_gain_value`] and
//! [`Scenario::commit_best_values`]: branch-light sums over contiguous `f64`s
//! with no utility re-evaluation and no pointer chasing. The `Distance`-based
//! accessors ([`Scenario::marginal_gain`], [`Scenario::best_detours`], …) are
//! kept for the Theorem-1 property tests and the Manhattan crate; both paths
//! produce bit-for-bit identical results.
//!
//! Two folds score a whole placement. [`Scenario::evaluate`] is dense: one
//! best-value slot per flow, then a sum over every flow. The greedy engines,
//! `/topk`, `/placement` and the stream's swap search keep it: their
//! placements touch a large share of the flows (a k = 10 composite
//! placement on a 20×20 grid with 400–1,150 flows touches 43–47 % of
//! them), and on one-RAP swaps of such placements the sparse fold below
//! measured no faster than the dense one. [`Scenario::coverage`] is sparse:
//! it marks the flows the placed RAPs' rows touch in a one-bit-per-flow set
//! and sums only those, in ascending flow order, which gives the dense
//! sum's bits. It serves `/evaluate`, whose random 1–20-RAP placements on a
//! 60×60 grid with 3,000 flows touch a median 11 % of the flows (p90
//! 19 %); there it takes about 40 % of `evaluate`'s time (1.8 µs against
//! 4.7 µs, one 2.1 GHz Xeon vCPU).

use crate::detour::{DetourTable, FlowDetour};
use crate::error::PlacementError;
use crate::kernel;
use crate::placement::Placement;
use crate::utility::UtilityFunction;
use rap_graph::{Distance, NodeId, RoadGraph};
use rap_traffic::{FlowSet, TrafficFlow};
use std::sync::Arc;

/// An immutable placement problem instance.
///
/// ```
/// use rap_graph::{GridGraph, Distance, NodeId};
/// use rap_traffic::{FlowSpec, FlowSet};
/// use rap_core::{Scenario, UtilityKind, Placement};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let grid = GridGraph::new(3, 3, Distance::from_feet(10));
/// let flows = FlowSet::route(
///     grid.graph(),
///     vec![FlowSpec::new(NodeId::new(0), NodeId::new(2), 1000.0)?],
/// )?;
/// let scenario = Scenario::new(
///     grid.graph().clone(),
///     flows,
///     vec![NodeId::new(1)], // shop on the flow's path
///     UtilityKind::Threshold.instantiate(Distance::from_feet(100)),
/// )?;
/// let placement = Placement::new(vec![NodeId::new(0)]);
/// // α defaults to 0.001 → 1000 × 0.001 = 1 expected customer per day.
/// assert!((scenario.evaluate(&placement) - 1.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Scenario {
    graph: RoadGraph,
    flows: FlowSet,
    shops: Vec<NodeId>,
    utility: Arc<dyn UtilityFunction>,
    detours: DetourTable,
    /// Flow index of each CSR detour entry (parallel to
    /// `detours.entries()`), as bare `u32`s for tight gain loops.
    entry_flow: Vec<u32>,
    /// Precomputed `α · f(detour) · T` of each CSR detour entry.
    entry_value: Vec<f64>,
    /// Intersections with at least one detour entry, ascending node id —
    /// computed once here so the engine hot paths and the inverted index
    /// never re-derive (or re-allocate) the candidate set.
    candidates: Arc<[NodeId]>,
}

impl Scenario {
    /// Builds a scenario with one or more shops, precomputing the detour
    /// table.
    ///
    /// # Errors
    ///
    /// * [`PlacementError::NoShops`] if `shops` is empty.
    /// * [`PlacementError::ShopOutOfBounds`] if a shop is not an intersection
    ///   of `graph`.
    pub fn new(
        graph: RoadGraph,
        flows: FlowSet,
        shops: Vec<NodeId>,
        utility: Arc<dyn UtilityFunction>,
    ) -> Result<Self, PlacementError> {
        let detours = DetourTable::build(&graph, &flows, &shops)?;
        Ok(Self::from_parts(graph, flows, shops, utility, detours))
    }

    /// Assembles a scenario around an already-built detour table.
    ///
    /// The per-entry contributions `α · f(detour) · T` are recomputed here
    /// from the table's detours and the flows' current volumes/attractiveness
    /// — the exact expression [`Scenario::new`] uses — so snapshots
    /// materialized by [`crate::mutable::MutableScenario`] evaluate
    /// bit-identically to a from-scratch rebuild.
    ///
    /// Every value is finite and non-negative: the [`UtilityFunction`]
    /// contract puts `probability` in `[0, α]`, and flow volumes are
    /// positive and finite. The lazy Algorithms 1 and 2 rely on it (a stale
    /// uncovered gain then bounds the fresh one, see [`crate::greedy`]), so
    /// debug builds check it here.
    pub(crate) fn from_parts(
        graph: RoadGraph,
        flows: FlowSet,
        shops: Vec<NodeId>,
        utility: Arc<dyn UtilityFunction>,
        detours: DetourTable,
    ) -> Self {
        // The utility is frozen for the scenario's lifetime: precompute every
        // entry's contribution `α · f(detour) · T` once, so the greedy hot
        // loops never re-evaluate the utility function.
        let mut entry_flow = Vec::with_capacity(detours.entries().len());
        let mut entry_value = Vec::with_capacity(detours.entries().len());
        for e in detours.entries() {
            let flow = flows.flow(e.flow);
            entry_flow.push(e.flow.index() as u32);
            let value = utility.probability(e.detour, flow.attractiveness()) * flow.volume();
            debug_assert!(
                value.is_finite() && value >= 0.0,
                "entry value {value} of flow {} is not finite and non-negative",
                e.flow.index()
            );
            entry_value.push(value);
        }
        let candidates: Arc<[NodeId]> = detours.candidate_nodes().into();
        Scenario {
            graph,
            flows,
            shops,
            utility,
            detours,
            entry_flow,
            entry_value,
            candidates,
        }
    }

    /// Convenience constructor for the common single-shop case.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Scenario::new`].
    pub fn single_shop(
        graph: RoadGraph,
        flows: FlowSet,
        shop: NodeId,
        utility: Arc<dyn UtilityFunction>,
    ) -> Result<Self, PlacementError> {
        Scenario::new(graph, flows, vec![shop], utility)
    }

    /// The road graph.
    pub fn graph(&self) -> &RoadGraph {
        &self.graph
    }

    /// The routed traffic flows.
    pub fn flows(&self) -> &FlowSet {
        &self.flows
    }

    /// The shop intersections.
    pub fn shops(&self) -> &[NodeId] {
        &self.shops
    }

    /// The utility function.
    pub fn utility(&self) -> &dyn UtilityFunction {
        self.utility.as_ref()
    }

    /// Shared handle to the utility function.
    pub fn utility_arc(&self) -> Arc<dyn UtilityFunction> {
        Arc::clone(&self.utility)
    }

    /// The precomputed detour table.
    pub fn detours(&self) -> &DetourTable {
        &self.detours
    }

    /// Flows passing `node` with their detour distances there.
    pub fn entries_at(&self, node: NodeId) -> &[FlowDetour] {
        self.detours.entries_at(node)
    }

    /// Intersections where a RAP can reach at least one flow, ascending node
    /// id. Precomputed at construction — calling this in a hot loop costs
    /// nothing.
    pub fn candidates(&self) -> &[NodeId] {
        &self.candidates
    }

    /// Shared handle to the candidate set (the inverted index keeps it
    /// without copying).
    pub fn candidates_arc(&self) -> Arc<[NodeId]> {
        Arc::clone(&self.candidates)
    }

    /// Expected daily customers contributed by `flow` when its (minimum)
    /// detour distance is `detour`.
    pub fn expected_customers(&self, flow: &TrafficFlow, detour: Distance) -> f64 {
        self.utility.probability(detour, flow.attractiveness()) * flow.volume()
    }

    /// For each flow, the minimum detour distance over the placed RAPs
    /// (`None` if no placed RAP reaches it). By Theorem 1 this equals the
    /// detour at the first RAP on the flow's path.
    pub fn best_detours(&self, placement: &Placement) -> Vec<Option<Distance>> {
        let mut best: Vec<Option<Distance>> = vec![None; self.flows.len()];
        for &rap in placement {
            for e in self.entries_at(rap) {
                let slot = &mut best[e.flow.index()];
                *slot = Some(match *slot {
                    Some(cur) => cur.min(e.detour),
                    None => e.detour,
                });
            }
        }
        best
    }

    /// Flow indices and precomputed `α · f(detour) · T` values of the CSR
    /// detour entries at `node` — the raw material of the fast gain loops.
    ///
    /// Both slices are parallel to [`Scenario::entries_at`]; the values are
    /// exactly what [`Scenario::expected_customers`] would return for each
    /// entry's flow and detour.
    pub fn value_entries_at(&self, node: NodeId) -> (&[u32], &[f64]) {
        let range = self.detours.entry_range(node);
        (&self.entry_flow[range.clone()], &self.entry_value[range])
    }

    /// Folds a RAP at `node` into a per-flow best-value state array:
    /// `best_value[f] = max(best_value[f], value of f at node)`.
    ///
    /// Because the utility is non-increasing, tracking the per-flow *maximum
    /// value* is equivalent to tracking the *minimum detour*; an uncovered
    /// flow sits at `0.0`.
    pub fn commit_best_values(&self, best_value: &mut [f64], node: NodeId) {
        let (flows, values) = self.value_entries_at(node);
        for (&f, &v) in flows.iter().zip(values) {
            kernel::raise(&mut best_value[f as usize], v);
        }
    }

    /// Marginal gain of adding a RAP at `node` against a best-value state
    /// array (see [`Scenario::commit_best_values`]):
    /// `Σ_f max(0, value_f(node) − best_value[f])` over flows passing `node`.
    ///
    /// Bit-for-bit identical to [`Scenario::marginal_gain`] with the
    /// corresponding best-detour state (both run the [`crate::kernel`] lane
    /// schedule), but a branchless sum over contiguous precomputed `f64`s.
    pub fn marginal_gain_value(&self, best_value: &[f64], node: NodeId) -> f64 {
        let (flows, values) = self.value_entries_at(node);
        kernel::gain(flows, values, best_value)
    }

    /// Candidate-ii objective of Algorithm 2 against a best-value state
    /// array: *additional* customers attracted from already-covered flows by
    /// providing them smaller detour distances at `node`.
    pub fn improvement_gain_value(
        &self,
        covered: &[bool],
        best_value: &[f64],
        node: NodeId,
    ) -> f64 {
        let (flows, values) = self.value_entries_at(node);
        kernel::gain_covered(flows, values, best_value, covered)
    }

    /// The objective restricted to the *surviving* subset of a placement:
    /// RAP `placement[i]` contributes only when `alive[i]` is true. Used by
    /// the Monte Carlo outage simulators in [`crate::robustness`].
    ///
    /// # Panics
    ///
    /// Panics if `alive.len() != placement.len()`.
    pub fn evaluate_alive(&self, placement: &Placement, alive: &[bool]) -> f64 {
        assert_eq!(
            alive.len(),
            placement.len(),
            "alive mask must match the placement length"
        );
        let mut best_value = vec![0.0f64; self.flows.len()];
        for (&rap, &up) in placement.iter().zip(alive) {
            if up {
                self.commit_best_values(&mut best_value, rap);
            }
        }
        best_value.iter().sum()
    }

    /// The objective `w(placement)`: expected daily customers attracted by
    /// the placement.
    pub fn evaluate(&self, placement: &Placement) -> f64 {
        let mut best_value = vec![0.0f64; self.flows.len()];
        for &rap in placement {
            self.commit_best_values(&mut best_value, rap);
        }
        best_value.iter().sum()
    }

    /// The objective `w(placement)` and the number of flows it attracts
    /// customers from, by one sparse fold over the placed RAPs' entry
    /// values ([`Scenario::value_entries_at`]): only the flows those rows
    /// touch are visited, marked in a one-bit-per-flow set.
    ///
    /// Each touched flow keeps its best value (`v > best` from `+0.0`, as
    /// [`Scenario::commit_best_values`] does); the values are summed in
    /// ascending flow order from `+0.0`, and the positive ones are counted.
    /// An untouched flow or a zero value would only add `+0.0`, so the
    /// objective has the bits of [`crate::PlacementReport::compute`]'s
    /// `attracted`, and of [`Scenario::evaluate`] whenever the scenario has
    /// a flow (an empty `f64` sum is `-0.0`). No detour and no flow record
    /// is read.
    pub fn coverage(&self, placement: &Placement) -> (f64, usize) {
        let n = self.flows.len();
        let mut touched = vec![0u64; n.div_ceil(64)];
        let mut best = vec![0.0f64; n];
        for &rap in placement {
            let (flows, values) = self.value_entries_at(rap);
            for (&f, &v) in flows.iter().zip(values) {
                touched[f as usize / 64] |= 1 << (f % 64);
                kernel::raise(&mut best[f as usize], v);
            }
        }
        let mut objective = 0.0;
        let mut covered = 0;
        for (word, &bits) in touched.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                let v = best[word * 64 + bits.trailing_zeros() as usize];
                objective += v;
                covered += usize::from(v > 0.0);
                bits &= bits - 1;
            }
        }
        (objective, covered)
    }

    /// Evaluates a raw list of intersections (deduplicated like
    /// [`Placement::new`]).
    pub fn evaluate_nodes(&self, nodes: &[NodeId]) -> f64 {
        self.evaluate(&Placement::new(nodes.to_vec()))
    }

    /// Marginal gain of adding a RAP at `node` given the flows' current best
    /// detours: `Σ_f max(0, f(d_new) − f(d_cur)) · T_f` over flows passing
    /// `node`.
    ///
    /// This is the greedy objective of the *natural* marginal-gain greedy
    /// (paper Section III-C discussion); Algorithm 2 instead splits it into
    /// the two candidate objectives below.
    pub fn marginal_gain(&self, best: &[Option<Distance>], node: NodeId) -> f64 {
        // Replicates the kernel's lane schedule (entry i → lane i % LANES,
        // fixed reduce tree) so this distance path stays bit-identical to
        // `marginal_gain_value` against the corresponding best-value state.
        let mut acc = [0.0f64; kernel::LANES];
        for (i, e) in self.entries_at(node).iter().enumerate() {
            let flow = self.flows.flow(e.flow);
            let new = self.expected_customers(flow, e.detour);
            let cur = match best[e.flow.index()] {
                Some(d) => self.expected_customers(flow, d),
                None => 0.0,
            };
            acc[i % kernel::LANES] += (new - cur).max(0.0);
        }
        kernel::reduce(acc)
    }

    /// Candidate-i objective of Algorithms 1–2: customers attracted from
    /// *uncovered* flows if a RAP is placed at `node`.
    pub fn uncovered_gain(&self, covered: &[bool], node: NodeId) -> f64 {
        let (flows, values) = self.value_entries_at(node);
        kernel::uncovered_sum(flows, values, covered)
    }

    /// Candidate-ii objective of Algorithm 2: *additional* customers
    /// attracted from already-covered flows by providing them smaller detour
    /// distances at `node`.
    pub fn improvement_gain(
        &self,
        covered: &[bool],
        best: &[Option<Distance>],
        node: NodeId,
    ) -> f64 {
        // Same lane schedule as `improvement_gain_value` (masked-out entries
        // still occupy their lane slot with a +0.0 term).
        let mut acc = [0.0f64; kernel::LANES];
        for (i, e) in self.entries_at(node).iter().enumerate() {
            let term = if covered[e.flow.index()] {
                let flow = self.flows.flow(e.flow);
                let new = self.expected_customers(flow, e.detour);
                let cur = match best[e.flow.index()] {
                    Some(d) => self.expected_customers(flow, d),
                    None => 0.0,
                };
                (new - cur).max(0.0)
            } else {
                0.0
            };
            acc[i % kernel::LANES] += term;
        }
        kernel::reduce(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::utility::UtilityKind;
    use rap_graph::GridGraph;
    use rap_traffic::FlowSpec;

    /// 3×3 grid, 10 ft blocks, one flow along the south edge 0→1→2,
    /// shop at node 4 (center).
    fn simple() -> Scenario {
        let grid = GridGraph::new(3, 3, Distance::from_feet(10));
        let flows = FlowSet::route(
            grid.graph(),
            vec![
                FlowSpec::new(NodeId::new(0), NodeId::new(2), 1000.0)
                    .unwrap()
                    .with_attractiveness(0.1)
                    .unwrap(),
                FlowSpec::new(NodeId::new(6), NodeId::new(8), 500.0)
                    .unwrap()
                    .with_attractiveness(0.1)
                    .unwrap(),
            ],
        )
        .unwrap();
        Scenario::new(
            grid.graph().clone(),
            flows,
            vec![NodeId::new(4)],
            UtilityKind::Linear.instantiate(Distance::from_feet(40)),
        )
        .unwrap()
    }

    #[test]
    fn evaluate_single_rap() {
        let s = simple();
        // RAP at node 1: flow 0 detour = d'(1→4)=10, d''(4→2)=20, d'''=10 → 20.
        // Linear utility D=40: p = 0.1 * (1 - 20/40) = 0.05 → 50 customers.
        let p = Placement::new(vec![NodeId::new(1)]);
        assert!((s.evaluate(&p) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn evaluate_takes_min_detour_over_raps() {
        let s = simple();
        // Node 0: flow 0 detour = d'(0→4)=20, d''(4→2)=20, d'''=20 → 20.
        // Same as node 1; both RAPs: still 50, not 100 (no double counting).
        let p = Placement::new(vec![NodeId::new(0), NodeId::new(1)]);
        assert!((s.evaluate(&p) - 50.0).abs() < 1e-9);
        // Adding coverage of the second flow increases the objective.
        let p2 = Placement::new(vec![NodeId::new(1), NodeId::new(7)]);
        // Node 7: flow 1 detour = d'(7→4)=10, d''(4→8)=20, d'''=10 → 20 → 25.
        assert!((s.evaluate(&p2) - 75.0).abs() < 1e-9);
    }

    #[test]
    fn empty_placement_attracts_nobody() {
        let s = simple();
        assert_eq!(s.evaluate(&Placement::empty()), 0.0);
        assert!(s
            .best_detours(&Placement::empty())
            .iter()
            .all(Option::is_none));
    }

    #[test]
    fn marginal_gain_matches_evaluate_difference() {
        let s = simple();
        let base = Placement::new(vec![NodeId::new(0)]);
        let best = s.best_detours(&base);
        for &v in s.candidates() {
            let mut extended = base.clone();
            extended.push(v);
            let diff = s.evaluate(&extended) - s.evaluate(&base);
            let gain = s.marginal_gain(&best, v);
            assert!(
                (diff - gain).abs() < 1e-9,
                "marginal gain mismatch at {v}: {gain} vs {diff}"
            );
        }
    }

    #[test]
    fn uncovered_plus_improvement_bound_marginal() {
        let s = simple();
        let base = Placement::new(vec![NodeId::new(0)]);
        let best = s.best_detours(&base);
        let covered: Vec<bool> = best.iter().map(Option::is_some).collect();
        for &v in s.candidates() {
            let total = s.marginal_gain(&best, v);
            let split = s.uncovered_gain(&covered, v) + s.improvement_gain(&covered, &best, v);
            assert!((total - split).abs() < 1e-9, "gain split mismatch at {v}");
        }
    }

    #[test]
    fn value_entries_align_with_detour_entries() {
        let s = simple();
        for &v in s.candidates() {
            let entries = s.entries_at(v);
            let (flows, values) = s.value_entries_at(v);
            assert_eq!(entries.len(), flows.len());
            assert_eq!(entries.len(), values.len());
            for ((e, &f), &val) in entries.iter().zip(flows).zip(values) {
                assert_eq!(e.flow.index() as u32, f);
                // Precomputed values are bit-for-bit what the distance path
                // computes on demand.
                assert_eq!(val, s.expected_customers(s.flows().flow(e.flow), e.detour));
            }
        }
    }

    #[test]
    fn value_engine_matches_distance_engine_exactly() {
        let s = simple();
        let base = Placement::new(vec![NodeId::new(0)]);
        let best = s.best_detours(&base);
        let covered: Vec<bool> = best.iter().map(Option::is_some).collect();
        let mut best_value = vec![0.0f64; s.flows().len()];
        for &rap in &base {
            s.commit_best_values(&mut best_value, rap);
        }
        for &v in s.candidates() {
            assert_eq!(
                s.marginal_gain(&best, v),
                s.marginal_gain_value(&best_value, v),
                "marginal gain diverged at {v}"
            );
            assert_eq!(
                s.improvement_gain(&covered, &best, v),
                s.improvement_gain_value(&covered, &best_value, v),
                "improvement gain diverged at {v}"
            );
        }
    }

    #[test]
    fn evaluate_alive_restricts_to_survivors() {
        let s = simple();
        let p = Placement::new(vec![NodeId::new(1), NodeId::new(7)]);
        assert_eq!(s.evaluate_alive(&p, &[true, true]), s.evaluate(&p));
        assert_eq!(s.evaluate_alive(&p, &[false, false]), 0.0);
        let only_first = s.evaluate_alive(&p, &[true, false]);
        assert_eq!(
            only_first,
            s.evaluate(&Placement::new(vec![NodeId::new(1)]))
        );
    }

    #[test]
    #[should_panic(expected = "alive mask")]
    fn evaluate_alive_rejects_mismatched_mask() {
        let s = simple();
        let p = Placement::new(vec![NodeId::new(1)]);
        let _ = s.evaluate_alive(&p, &[true, false]);
    }

    #[test]
    fn candidates_are_path_nodes() {
        let s = simple();
        let c = s.candidates();
        // Both flows' paths: south edge {0,1,2} and north edge {6,7,8}...
        // actual shortest paths may route through middle; all candidates must
        // carry at least one entry.
        assert!(!c.is_empty());
        for &v in c {
            assert!(!s.entries_at(v).is_empty());
        }
    }

    #[test]
    fn shop_errors_propagate() {
        let grid = GridGraph::new(2, 2, Distance::from_feet(10));
        let flows = FlowSet::route(grid.graph(), vec![]).unwrap();
        let u = UtilityKind::Threshold.instantiate(Distance::from_feet(10));
        assert!(matches!(
            Scenario::new(grid.graph().clone(), flows.clone(), vec![], u.clone()),
            Err(PlacementError::NoShops)
        ));
        assert!(matches!(
            Scenario::new(grid.graph().clone(), flows, vec![NodeId::new(9)], u),
            Err(PlacementError::ShopOutOfBounds { .. })
        ));
    }

    #[test]
    fn utility_accessors() {
        let s = simple();
        assert_eq!(s.utility().name(), "linear");
        assert_eq!(s.utility_arc().threshold(), Distance::from_feet(40));
        assert_eq!(s.shops(), &[NodeId::new(4)]);
        assert_eq!(s.flows().len(), 2);
        assert_eq!(s.graph().node_count(), 9);
    }
}
