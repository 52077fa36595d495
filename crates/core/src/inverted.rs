//! Inverted-index delta-propagation greedy: flow→candidate CSR, cached-gain
//! staleness tracking, and flow-group coalescing.
//!
//! Every other greedy engine rescans a candidate's full node→entries CSR
//! slice to refresh its gain; CELF merely reorders those scans. But the
//! paper's Theorem 1 (only the minimum-detour RAP matters per flow) makes
//! the objective a weighted max-coverage over per-flow best values, and in
//! that structure a commit at node `s` can change another candidate's gain
//! **only through flows that `s` covers**. [`InvertedIndex`] materializes
//! that sparsity:
//!
//! * a **flow→candidate inverted CSR** — for each flow, the candidates
//!   covering it with their precomputed entry values — so a commit walks
//!   exactly the affected (flow, candidate) pairs instead of every entry;
//! * **coalesced flow groups** — flows with byte-identical
//!   (candidate, value-bits) signatures merged into one pseudo-flow with a
//!   member count — common on grids where many flows share path prefixes.
//!   Members of a group have bitwise-equal best values under *every*
//!   placement, so one delta push per group covers all its members.
//!
//! ## Exactness
//!
//! Floating-point addition is not associative, so *accumulating* pushed
//! deltas into cached gains could drift from a fresh fold by an ULP and
//! break bit-identity with [`MarginalGreedy`](crate::composite::MarginalGreedy).
//! The engine therefore uses
//! the pushed delta `max(0, v_c − new_best) − max(0, v_c − old_best)` as a
//! **staleness detector**, not an accumulator: per-entry terms are always
//! `+0.0`-signed and NaN-free, so the delta is `!= 0.0` *iff* the term
//! changed bitwise, and a candidate whose terms all pushed `0.0` still
//! holds the bit-exact gain from its last fresh fold. Selection is a
//! max-heap over cached gains ordered (gain, then lower candidate index) —
//! the same proven tie-break as the CELF heap. Cached gains are upper
//! bounds (rounded subtraction, `max`, and the sequential fold are all
//! monotone in the best-value state, so a gain folded against an earlier
//! placement dominates later folds even at f64 level), so a popped *fresh*
//! entry is the exact sequential argmax with the lower-id tie-break: every
//! entry still in the heap has a cached gain strictly below it, or ties at
//! a higher id. A popped *stale* entry is re-folded with
//! [`Scenario::marginal_gain_value`] — the *same expression against the
//! same state* as the sequential greedy — and pushed back.
//!
//! Placements are therefore bit-for-bit identical to
//! [`MarginalGreedy`](crate::composite::MarginalGreedy) (and hence to
//! [`LazyGreedy`](crate::lazy::LazyGreedy)); each round costs
//! O(candidates + affected entries) instead of O(total entries).
//!
//! ## Status
//!
//! No production path runs this engine: the stream maintainer, `rap place`
//! and the ablation run CELF, which is faster on every measured instance
//! even against a prebuilt index. The module stays while the pipeline
//! benchmark's traced serve layer still times
//! [`InvertedIndex::build_with_threads`] and
//! [`InvertedGainEngine::place_with_index`]; the identity proptests hold it
//! to `MarginalGreedy` until then.

use crate::algorithms::PlacementAlgorithm;
use crate::kernel;
use crate::placement::Placement;
use crate::scenario::Scenario;
use rand::rngs::StdRng;
use rap_graph::NodeId;
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

/// Work counters of one [`InvertedGainEngine`] solve.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineReport {
    /// Gain folds performed: one per candidate up front, plus one per
    /// stale heap top re-folded (the ablation metric).
    pub gain_evals: u64,
    /// Gain-delta pushes walked through the flow→candidate inverted CSR.
    pub delta_pushes: u64,
}

/// The flow→candidate inverted CSR with coalesced flow groups.
///
/// Built once per [`Scenario`] (O(total entries)), on the calling thread;
/// reusable across any number of `place` calls and any `k`.
#[derive(Clone, Debug)]
pub struct InvertedIndex {
    /// The scenario's candidate set, ascending node id (shared, not copied).
    candidates: Arc<[NodeId]>,
    /// Flow index → coalesced group id.
    group_of: Vec<u32>,
    /// Group id → number of member flows (the pseudo-flow's weight).
    group_weight: Vec<u32>,
    /// Inverted CSR: group id → range into `inv_cand`/`inv_value`.
    inv_offsets: Vec<u32>,
    /// Candidate *indices* (into `candidates`) covering each group.
    inv_cand: Vec<u32>,
    /// The entry value `α · f(detour) · T` of the group at that candidate.
    inv_value: Vec<f64>,
    /// Forward grouped CSR: candidate index → range into
    /// `fwd_group`/`fwd_value` (the node's entry rows collapsed by group).
    fwd_offsets: Vec<u32>,
    fwd_group: Vec<u32>,
    fwd_value: Vec<f64>,
}

/// FNV-1a over a signature row's (candidate-index, value-bits) pairs.
fn hash_row(cs: &[u32], vs: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (&c, &v) in cs.iter().zip(vs) {
        h = (h ^ u64::from(c)).wrapping_mul(0x100_0000_01b3);
        h = (h ^ v.to_bits()).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Coalesces byte-identical signature rows into groups, ids assigned in
/// first-member flow order (fully deterministic — no hash-iteration order
/// leaks out). Hash collisions chain through a per-group `next` link and
/// cost one representative-row comparison each, never a wrong merge and
/// never a per-bucket allocation.
fn assign_groups<'a, F>(hashes: &[u64], row: F) -> (Vec<u32>, Vec<u32>, Vec<u32>)
where
    F: Fn(usize) -> (&'a [u32], &'a [f64]),
{
    const NONE: u32 = u32::MAX;
    let same_row = |a: usize, b: usize| {
        let (ca, va) = row(a);
        let (cb, vb) = row(b);
        ca == cb && va.iter().zip(vb).all(|(x, y)| x.to_bits() == y.to_bits())
    };
    let flow_count = hashes.len();
    let mut head: HashMap<u64, u32> = HashMap::new();
    let mut chain: Vec<u32> = Vec::new();
    let mut group_of = vec![0u32; flow_count];
    let mut group_weight: Vec<u32> = Vec::new();
    let mut rep_flow: Vec<u32> = Vec::new();
    for (f, slot) in group_of.iter_mut().enumerate() {
        let g = match head.entry(hashes[f]) {
            Entry::Occupied(e) => {
                let mut g = *e.get();
                loop {
                    if same_row(rep_flow[g as usize] as usize, f) {
                        break g;
                    }
                    if chain[g as usize] == NONE {
                        let ng = group_weight.len() as u32;
                        group_weight.push(0);
                        rep_flow.push(f as u32);
                        chain.push(NONE);
                        chain[g as usize] = ng;
                        break ng;
                    }
                    g = chain[g as usize];
                }
            }
            Entry::Vacant(e) => {
                let g = group_weight.len() as u32;
                group_weight.push(0);
                rep_flow.push(f as u32);
                chain.push(NONE);
                e.insert(g);
                g
            }
        };
        *slot = g;
        group_weight[g as usize] += 1;
    }
    (group_of, group_weight, rep_flow)
}

impl InvertedIndex {
    /// Inverts the scenario's node→entries CSR and coalesces flows with
    /// byte-identical (candidate, value-bits) signatures into groups.
    ///
    /// Group ids are assigned in first-member flow order, so the index is
    /// fully deterministic (no hash-iteration order leaks out).
    pub fn build(scenario: &Scenario) -> Self {
        let candidates = scenario.candidates_arc();
        let flow_count = scenario.flows().len();

        // Per-flow signature rows as one flat CSR (count, prefix-sum,
        // scatter — no per-flow Vec allocations). Candidates iterate in
        // ascending node id, so every row comes out sorted by candidate
        // index.
        let mut counts = vec![0u32; flow_count + 1];
        let mut total = 0usize;
        for &node in candidates.iter() {
            let (flows, _) = scenario.value_entries_at(node);
            for &f in flows {
                counts[f as usize + 1] += 1;
            }
            total += flows.len();
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let sig_offsets = counts.clone();
        let mut cursor = counts;
        let mut sig_cand = vec![0u32; total];
        let mut sig_value = vec![0.0f64; total];
        for (ci, &node) in candidates.iter().enumerate() {
            let (flows, values) = scenario.value_entries_at(node);
            for (&f, &v) in flows.iter().zip(values) {
                let slot = cursor[f as usize] as usize;
                sig_cand[slot] = ci as u32;
                sig_value[slot] = v;
                cursor[f as usize] += 1;
            }
        }
        let row = |f: usize| {
            let range = sig_offsets[f] as usize..sig_offsets[f + 1] as usize;
            (&sig_cand[range.clone()], &sig_value[range])
        };

        // Coalesce byte-identical rows: flows sharing a signature have
        // bitwise-equal best values under every placement, so they are one
        // pseudo-flow for the delta propagation. Flows covered by no
        // candidate share the empty signature and collapse into one inert
        // group.
        let hashes: Vec<u64> = (0..flow_count)
            .map(|f| {
                let (cs, vs) = row(f);
                hash_row(cs, vs)
            })
            .collect();
        let (group_of, group_weight, rep_flow) = assign_groups(&hashes, row);

        // Inverted CSR from each group's representative row.
        let groups = group_weight.len();
        let mut inv_offsets = Vec::with_capacity(groups + 1);
        let mut inv_cand = Vec::new();
        let mut inv_value = Vec::new();
        inv_offsets.push(0u32);
        for &rep in &rep_flow {
            let (cs, vs) = row(rep as usize);
            inv_cand.extend_from_slice(cs);
            inv_value.extend_from_slice(vs);
            inv_offsets.push(inv_cand.len() as u32);
        }

        // Forward grouped CSR by counting scatter: each candidate's entry
        // row collapsed to one (group, value) pair per covered group.
        let mut counts = vec![0u32; candidates.len() + 1];
        for &c in &inv_cand {
            counts[c as usize + 1] += 1;
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let fwd_offsets = counts.clone();
        let mut cursor = counts;
        let mut fwd_group = vec![0u32; inv_cand.len()];
        let mut fwd_value = vec![0.0f64; inv_cand.len()];
        for g in 0..groups {
            let range = inv_offsets[g] as usize..inv_offsets[g + 1] as usize;
            for (&c, &v) in inv_cand[range.clone()].iter().zip(&inv_value[range]) {
                let slot = cursor[c as usize] as usize;
                fwd_group[slot] = g as u32;
                fwd_value[slot] = v;
                cursor[c as usize] += 1;
            }
        }

        InvertedIndex {
            candidates,
            group_of,
            group_weight,
            inv_offsets,
            inv_cand,
            inv_value,
            fwd_offsets,
            fwd_group,
            fwd_value,
        }
    }

    /// [`build`](InvertedIndex::build); `threads` is ignored. The index
    /// always builds on the calling thread.
    pub fn build_with_threads(scenario: &Scenario, _threads: usize) -> Self {
        Self::build(scenario)
    }

    /// The candidate set the index was built over, ascending node id.
    pub fn candidates(&self) -> &[NodeId] {
        &self.candidates
    }

    /// Number of coalesced flow groups (≤ flow count).
    pub fn groups(&self) -> usize {
        self.group_weight.len()
    }

    /// Number of flows in the underlying scenario.
    pub fn flow_count(&self) -> usize {
        self.group_of.len()
    }

    /// Member count of each group (the pseudo-flow weights).
    pub fn group_weights(&self) -> &[u32] {
        &self.group_weight
    }

    /// Total inverted-CSR entries (== coalesced forward entries).
    pub fn entry_count(&self) -> usize {
        self.inv_cand.len()
    }

    /// The (group, value) pairs covered by candidate `ci`.
    fn fwd_row(&self, ci: usize) -> (&[u32], &[f64]) {
        let range = self.fwd_offsets[ci] as usize..self.fwd_offsets[ci + 1] as usize;
        (&self.fwd_group[range.clone()], &self.fwd_value[range])
    }

    /// The (candidate-index, value) pairs covering group `g`.
    fn inv_row(&self, g: u32) -> (&[u32], &[f64]) {
        let range =
            self.inv_offsets[g as usize] as usize..self.inv_offsets[g as usize + 1] as usize;
        (&self.inv_cand[range.clone()], &self.inv_value[range])
    }

    /// Evaluates `w(placement)` through the coalesced groups, bit-identical
    /// to [`Scenario::evaluate`]: the group best is folded with the same
    /// `max` commits, then expanded back per member flow **in original flow
    /// order** before summing — the exact fold `evaluate` performs.
    pub fn evaluate_grouped(&self, placement: &Placement) -> f64 {
        let mut group_best = vec![0.0f64; self.groups()];
        for &rap in placement.iter() {
            let Ok(ci) = self.candidates.binary_search(&rap) else {
                continue; // a RAP with no detour entries contributes nothing
            };
            let (groups, values) = self.fwd_row(ci);
            for (&g, &v) in groups.iter().zip(values) {
                kernel::raise(&mut group_best[g as usize], v);
            }
        }
        self.group_of.iter().map(|&g| group_best[g as usize]).sum()
    }

    /// Commits `sel` into the group best-value state and marks stale every
    /// other candidate whose cached gain provably changed, returning the
    /// number of delta pushes walked.
    fn propagate_commit(&self, sel: usize, group_best: &mut [f64], stale: &mut [bool]) -> u64 {
        let mut pushes = 0u64;
        let (groups, values) = self.fwd_row(sel);
        for (&g, &v) in groups.iter().zip(values) {
            let old = group_best[g as usize];
            if v <= old {
                continue; // group best unchanged ⇒ no candidate's term moved
            }
            group_best[g as usize] = v;
            let (cands, vcs) = self.inv_row(g);
            for (&cj, &vc) in cands.iter().zip(vcs) {
                let cj = cj as usize;
                if cj == sel {
                    continue;
                }
                pushes += 1;
                // Terms max(0, v_c − best) are +0.0-signed and NaN-free, so
                // the pushed delta is != 0.0 iff the term changed bitwise —
                // cached gains with only zero deltas stay bit-exact.
                let delta = (vc - v).max(0.0) - (vc - old).max(0.0);
                if delta != 0.0 {
                    stale[cj] = true;
                }
            }
        }
        pushes
    }
}

/// A selection-heap entry: a candidate index with its cached gain.
///
/// Max-heap by gain, ties toward the lower candidate index (== lower node
/// id, since the candidate set ascends), reproducing the sequential
/// argmax's tie-break. Finiteness is asserted at construction so `Ord`
/// never sees a NaN — the same contract as the CELF heap
/// ([`crate::lazy`]).
struct GainEntry {
    gain: f64,
    ci: u32,
}

impl GainEntry {
    /// # Panics
    ///
    /// Panics if `gain` is not finite.
    fn new(gain: f64, ci: usize) -> Self {
        assert!(
            gain.is_finite(),
            "non-finite marginal gain {gain} for candidate index {ci}"
        );
        GainEntry {
            gain,
            ci: ci as u32,
        }
    }
}

impl PartialEq for GainEntry {
    fn eq(&self, other: &Self) -> bool {
        self.gain == other.gain && self.ci == other.ci
    }
}

impl Eq for GainEntry {}

impl PartialOrd for GainEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for GainEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.gain
            .total_cmp(&other.gain)
            .then_with(|| other.ci.cmp(&self.ci))
    }
}

/// Sequential inverted-index delta-propagation greedy.
///
/// Bit-identical placements to
/// [`MarginalGreedy`](crate::composite::MarginalGreedy); per-round cost
/// O(candidates + affected entries) instead of O(total entries). Build the
/// [`InvertedIndex`] once and pass it to
/// [`place_with_index`](InvertedGainEngine::place_with_index) to amortize
/// the inversion across repeated solves.
#[derive(Clone, Copy, Debug, Default)]
pub struct InvertedGainEngine;

impl InvertedGainEngine {
    /// Like [`place`](PlacementAlgorithm::place), additionally returning
    /// the number of gain folds performed (the ablation metric).
    pub fn place_with_stats(&self, scenario: &Scenario, k: usize) -> (Placement, u64) {
        let (placement, report) = self.place_with_report(scenario, k);
        (placement, report.gain_evals)
    }

    /// Builds the index and solves; the report carries `gain_evals` and
    /// `delta_pushes`.
    pub fn place_with_report(&self, scenario: &Scenario, k: usize) -> (Placement, EngineReport) {
        let index = InvertedIndex::build(scenario);
        self.place_with_index(scenario, &index, k)
    }

    /// Solves against a prebuilt index (must come from this `scenario` or a
    /// snapshot with identical flows/candidates/values).
    pub fn place_with_index(
        &self,
        scenario: &Scenario,
        index: &InvertedIndex,
        k: usize,
    ) -> (Placement, EngineReport) {
        let candidates = index.candidates();
        let n = candidates.len();
        let mut report = EngineReport::default();
        let mut placement = Placement::empty();
        if k == 0 || n == 0 {
            return (placement, report);
        }

        // Per-flow best values drive the *fresh* folds (the exact sequential
        // state); per-group bests drive the staleness propagation.
        let mut best_value = vec![0.0f64; scenario.flows().len()];
        let mut group_best = vec![0.0f64; index.groups()];
        let mut stale = vec![false; n];
        let mut heap: BinaryHeap<GainEntry> = candidates
            .iter()
            .enumerate()
            .map(|(ci, &node)| GainEntry::new(scenario.marginal_gain_value(&best_value, node), ci))
            .collect();
        report.gain_evals += n as u64;

        while placement.len() < k {
            // Pop the heap top: a fresh entry is the exact sequential argmax
            // (everything below it is cached lower, or ties at a higher id);
            // a stale entry is re-folded fresh and pushed back. Selected
            // entries leave the heap for good, so no `used` set is needed.
            let Some(top) = heap.pop() else { break };
            if top.gain <= 0.0 {
                break; // cached gains are upper bounds: nothing positive left
            }
            let sel = top.ci as usize;
            if stale[sel] {
                stale[sel] = false;
                report.gain_evals += 1;
                heap.push(GainEntry::new(
                    scenario.marginal_gain_value(&best_value, candidates[sel]),
                    sel,
                ));
                continue;
            }
            let node = candidates[sel];
            placement.push(node);
            scenario.commit_best_values(&mut best_value, node);
            report.delta_pushes += index.propagate_commit(sel, &mut group_best, &mut stale);
        }
        (placement, report)
    }
}

impl PlacementAlgorithm for InvertedGainEngine {
    fn name(&self) -> &str {
        "inverted delta-propagation greedy"
    }

    fn place(&self, scenario: &Scenario, k: usize, _rng: &mut StdRng) -> Placement {
        self.place_with_report(scenario, k).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::composite::MarginalGreedy;
    use crate::fixtures::{fig4_scenario, rng, small_grid_scenario};
    use crate::utility::UtilityKind;
    use rap_graph::{Distance, GridGraph};
    use rap_traffic::{FlowSet, FlowSpec};

    fn greedy_prefixes(s: &Scenario, k: usize) -> Vec<Placement> {
        (0..=k)
            .map(|i| MarginalGreedy.place(s, i, &mut rng()))
            .collect()
    }

    #[test]
    fn matches_marginal_exactly() {
        for kind in UtilityKind::ALL {
            for d in [100u64, 200, 350] {
                let s = small_grid_scenario(kind, Distance::from_feet(d));
                for k in 0..6 {
                    let seq = MarginalGreedy.place(&s, k, &mut rng());
                    let inv = InvertedGainEngine.place(&s, k, &mut rng());
                    assert_eq!(inv, seq, "kind={kind} d={d} k={k}");
                    assert_eq!(
                        s.evaluate(&inv).to_bits(),
                        s.evaluate(&seq).to_bits(),
                        "kind={kind} d={d} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn matches_on_fig4() {
        for kind in UtilityKind::ALL {
            let s = fig4_scenario(kind);
            for k in 0..4 {
                assert_eq!(
                    InvertedGainEngine.place(&s, k, &mut rng()),
                    MarginalGreedy.place(&s, k, &mut rng())
                );
            }
        }
    }

    #[test]
    fn coalescing_preserves_evaluate_exactly() {
        for kind in UtilityKind::ALL {
            for d in [100u64, 200, 350] {
                let s = small_grid_scenario(kind, Distance::from_feet(d));
                let index = InvertedIndex::build(&s);
                let mut probes = greedy_prefixes(&s, 5);
                probes.push(Placement::new(s.candidates().to_vec()));
                for p in probes {
                    assert_eq!(
                        index.evaluate_grouped(&p).to_bits(),
                        s.evaluate(&p).to_bits(),
                        "kind={kind} d={d} p={p}"
                    );
                }
            }
        }
    }

    #[test]
    fn duplicate_flows_coalesce_into_weighted_groups() {
        // Two byte-identical flows (same OD, volume, α) must share a group.
        let grid = GridGraph::new(4, 4, Distance::from_feet(50));
        let mk = |o: u32, d: u32, vol: f64| {
            FlowSpec::new(NodeId::new(o), NodeId::new(d), vol).expect("valid spec")
        };
        let flows = FlowSet::route(
            grid.graph(),
            vec![mk(0, 15, 500.0), mk(0, 15, 500.0), mk(3, 12, 200.0)],
        )
        .expect("flows route");
        let s = Scenario::single_shop(
            grid.graph().clone(),
            flows,
            NodeId::new(5),
            UtilityKind::Linear.instantiate(Distance::from_feet(400)),
        )
        .expect("scenario");
        let index = InvertedIndex::build(&s);
        assert!(index.groups() < s.flows().len(), "duplicates must coalesce");
        assert!(index.group_weights().contains(&2), "merged weight of 2");
        assert_eq!(
            index.group_weights().iter().sum::<u32>() as usize,
            s.flows().len()
        );
        // And the coalesced evaluation still matches exactly.
        for p in greedy_prefixes(&s, 3) {
            assert_eq!(
                index.evaluate_grouped(&p).to_bits(),
                s.evaluate(&p).to_bits()
            );
        }
    }

    #[test]
    fn reports_delta_pushes_and_saves_gain_evals() {
        let s = small_grid_scenario(UtilityKind::Linear, Distance::from_feet(300));
        let k = 5;
        let (p, report) = InvertedGainEngine.place_with_report(&s, k);
        assert_eq!(p, MarginalGreedy.place(&s, k, &mut rng()));
        assert!(report.delta_pushes > 0, "{report:?}");
        let full_scans = (p.len() as u64 + 1) * s.candidates().len() as u64;
        assert!(
            report.gain_evals <= full_scans,
            "inverted folded {} gains, full scans would be {full_scans}",
            report.gain_evals
        );
    }

    #[test]
    fn index_reuse_across_budgets_is_consistent() {
        // `build_with_threads` ignores its thread count: the index is
        // `build`'s, and it serves every budget.
        let s = small_grid_scenario(UtilityKind::Threshold, Distance::from_feet(250));
        let index = InvertedIndex::build_with_threads(&s, 4);
        for k in 0..6 {
            let (p, _) = InvertedGainEngine.place_with_index(&s, &index, k);
            assert_eq!(p, MarginalGreedy.place(&s, k, &mut rng()), "k={k}");
        }
    }

    #[test]
    fn stops_when_gains_vanish() {
        let s = fig4_scenario(UtilityKind::Threshold);
        let p = InvertedGainEngine.place(&s, 100, &mut rng());
        assert!(p.len() <= s.candidates().len());
        let p2 = InvertedGainEngine.place(&s, 2, &mut rng());
        assert!((s.evaluate(&p2) - s.evaluate(&p)).abs() < 1e-9);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(
            InvertedGainEngine.name(),
            "inverted delta-propagation greedy"
        );
    }
}
