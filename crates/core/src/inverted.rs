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

use crate::algorithms::PlacementAlgorithm;
use crate::placement::Placement;
use crate::scenario::Scenario;
use rand::rngs::StdRng;
use rap_graph::NodeId;
use rap_traffic::parallel::{effective_threads, mass_chunks};
use serde::Serialize;
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

/// Work counters of one [`InvertedGainEngine`] solve.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct EngineReport {
    /// Gain folds performed: one per candidate up front, plus one per
    /// stale heap top re-folded (the ablation metric).
    pub gain_evals: u64,
    /// Gain-delta pushes walked through the flow→candidate inverted CSR.
    pub delta_pushes: u64,
}

/// The flow→candidate inverted CSR with coalesced flow groups.
///
/// Built once per [`Scenario`] (O(total entries)); reusable across any
/// number of `place` calls and any `k`. The `rap-serve` epoch state builds
/// one per loaded snapshot, so every `/topk` on that epoch reuses it.
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

/// Below this many node→entries CSR entries the parallel build's spawn and
/// merge overhead outweighs the scatter work; small instances take the
/// sequential path unconditionally.
const PARALLEL_BUILD_CUTOFF: usize = 32_768;

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

/// One shard's private CSR from the first pass of [`two_pass_scatter`].
struct LocalCsr {
    offsets: Vec<u32>,
    tags: Vec<u32>,
    values: Vec<f64>,
}

/// Two-pass parallel counting sort into a CSR, safe-Rust throughout.
///
/// `emit(lo, hi, push)` walks source items `[lo, hi)` and pushes each
/// `(key, tag, value)` entry in the order it should appear within its key's
/// row. Pass 1 shards the items by `mass_of` and has every shard build a
/// complete *local* CSR (histogram, exclusive prefix-sum, scatter — no
/// shared writes). Pass 2 prefix-sums the per-key totals and merge-copies
/// the local rows in shard order, parallel over key ranges — each range
/// owns a contiguous disjoint span of the output, so the split is plain
/// `split_at_mut`. Because shards are contiguous and ascending, the merged
/// row order is exactly the order a sequential scatter over all items would
/// produce — the outputs are bit-identical to the sequential build's.
fn two_pass_scatter<M, E>(
    workers: usize,
    key_count: usize,
    item_count: usize,
    mass_of: M,
    emit: &E,
) -> (Vec<u32>, Vec<u32>, Vec<f64>)
where
    M: Fn(usize) -> usize,
    E: Fn(usize, usize, &mut dyn FnMut(u32, u32, f64)) + Sync,
{
    let shards = mass_chunks(item_count, mass_of, workers);
    let locals: Vec<LocalCsr> = std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .iter()
            .map(|&(lo, hi)| {
                scope.spawn(move || {
                    let mut counts = vec![0u32; key_count + 1];
                    emit(lo as usize, hi as usize, &mut |key, _, _| {
                        counts[key as usize + 1] += 1;
                    });
                    for i in 1..counts.len() {
                        counts[i] += counts[i - 1];
                    }
                    let offsets = counts.clone();
                    let mut cursor = counts;
                    let total = offsets[key_count] as usize;
                    let mut tags = vec![0u32; total];
                    let mut values = vec![0.0f64; total];
                    emit(lo as usize, hi as usize, &mut |key, tag, v| {
                        let slot = cursor[key as usize] as usize;
                        tags[slot] = tag;
                        values[slot] = v;
                        cursor[key as usize] += 1;
                    });
                    LocalCsr {
                        offsets,
                        tags,
                        values,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("scatter worker panicked"))
            .collect()
    });

    let mut offsets = vec![0u32; key_count + 1];
    for l in &locals {
        for k in 0..key_count {
            offsets[k + 1] += l.offsets[k + 1] - l.offsets[k];
        }
    }
    for k in 1..=key_count {
        offsets[k] += offsets[k - 1];
    }
    let total = offsets[key_count] as usize;

    let mut tags = vec![0u32; total];
    let mut values = vec![0.0f64; total];
    let key_ranges = mass_chunks(
        key_count,
        |k| (offsets[k + 1] - offsets[k]) as usize,
        workers,
    );
    std::thread::scope(|scope| {
        let mut tag_rest: &mut [u32] = &mut tags;
        let mut val_rest: &mut [f64] = &mut values;
        for &(lo, hi) in &key_ranges {
            let span = (offsets[hi as usize] - offsets[lo as usize]) as usize;
            let (tag_mine, tr) = tag_rest.split_at_mut(span);
            let (val_mine, vr) = val_rest.split_at_mut(span);
            tag_rest = tr;
            val_rest = vr;
            let locals = &locals;
            scope.spawn(move || {
                let mut out = 0usize;
                for k in lo as usize..hi as usize {
                    for l in locals {
                        let r = l.offsets[k] as usize..l.offsets[k + 1] as usize;
                        let len = r.len();
                        tag_mine[out..out + len].copy_from_slice(&l.tags[r.clone()]);
                        val_mine[out..out + len].copy_from_slice(&l.values[r]);
                        out += len;
                    }
                }
                debug_assert_eq!(out, tag_mine.len());
            });
        }
    });
    (offsets, tags, values)
}

/// Bitwise index equality (f64 lanes compared by bits): the contract the
/// parallel build is tested against — `build_with_threads` at any thread
/// count must equal the sequential [`InvertedIndex::build`] exactly.
impl PartialEq for InvertedIndex {
    fn eq(&self, other: &Self) -> bool {
        let bits = |a: &[f64], b: &[f64]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        *self.candidates == *other.candidates
            && self.group_of == other.group_of
            && self.group_weight == other.group_weight
            && self.inv_offsets == other.inv_offsets
            && self.inv_cand == other.inv_cand
            && bits(&self.inv_value, &other.inv_value)
            && self.fwd_offsets == other.fwd_offsets
            && self.fwd_group == other.fwd_group
            && bits(&self.fwd_value, &other.fwd_value)
    }
}

impl InvertedIndex {
    /// Inverts the scenario's node→entries CSR and coalesces flows with
    /// byte-identical (candidate, value-bits) signatures into groups.
    ///
    /// Group ids are assigned in first-member flow order, so the index is
    /// fully deterministic (no hash-iteration order leaks out).
    pub fn build(scenario: &Scenario) -> Self {
        Self::build_with_threads(scenario, 1)
    }

    /// [`build`](InvertedIndex::build) with the scatter passes parallelized
    /// over `threads` workers (two-pass counting sort: per-shard histograms,
    /// exclusive prefix-sum, parallel merge copy). Output is bit-identical
    /// to the sequential build at every thread count; instances below a
    /// size cutoff take the sequential path so small builds never regress.
    pub fn build_with_threads(scenario: &Scenario, threads: usize) -> Self {
        let candidates = scenario.candidates_arc();
        let total: usize = candidates
            .iter()
            .map(|&n| scenario.value_entries_at(n).0.len())
            .sum();
        let workers = effective_threads(threads, candidates.len());
        if workers <= 1 || total < PARALLEL_BUILD_CUTOFF {
            Self::build_seq(scenario, candidates)
        } else {
            Self::build_par(scenario, candidates, workers)
        }
    }

    /// Test-only entry point: the parallel counting-sort build regardless of
    /// the size cutoff, so property tests can exercise it on small random
    /// instances. Not part of the supported API.
    #[doc(hidden)]
    pub fn build_parallel_uncut(scenario: &Scenario, workers: usize) -> Self {
        Self::build_par(scenario, scenario.candidates_arc(), workers.max(2))
    }

    fn build_seq(scenario: &Scenario, candidates: Arc<[NodeId]>) -> Self {
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

    /// The parallel build: both counting-sort scatters (flow-keyed
    /// signatures, candidate-keyed forward rows) go through
    /// [`two_pass_scatter`], row hashing and the inverted-CSR copy
    /// parallelize over mass-balanced ranges, and only the group
    /// assignment — a hash-map walk in flow order that *defines* the
    /// deterministic group numbering — stays sequential.
    fn build_par(scenario: &Scenario, candidates: Arc<[NodeId]>, workers: usize) -> Self {
        let flow_count = scenario.flows().len();
        let n = candidates.len();

        let cand_ref = &candidates;
        let (sig_offsets, sig_cand, sig_value) = two_pass_scatter(
            workers,
            flow_count,
            n,
            |i| scenario.value_entries_at(candidates[i]).0.len(),
            &|lo, hi, push| {
                for ci in lo..hi {
                    let (flows, values) = scenario.value_entries_at(cand_ref[ci]);
                    for (&f, &v) in flows.iter().zip(values) {
                        push(f, ci as u32, v);
                    }
                }
            },
        );
        let row = |f: usize| {
            let range = sig_offsets[f] as usize..sig_offsets[f + 1] as usize;
            (&sig_cand[range.clone()], &sig_value[range])
        };

        // Row hashing over mass-balanced flow ranges (disjoint output
        // sub-slices, so plain split_at_mut).
        let mut hashes = vec![0u64; flow_count];
        let flow_ranges = mass_chunks(
            flow_count,
            |f| (sig_offsets[f + 1] - sig_offsets[f]) as usize,
            workers,
        );
        std::thread::scope(|scope| {
            let mut rest: &mut [u64] = &mut hashes;
            for &(lo, hi) in &flow_ranges {
                let (mine, tail) = rest.split_at_mut((hi - lo) as usize);
                rest = tail;
                let row = &row;
                scope.spawn(move || {
                    for (slot, f) in mine.iter_mut().zip(lo as usize..hi as usize) {
                        let (cs, vs) = row(f);
                        *slot = hash_row(cs, vs);
                    }
                });
            }
        });

        let (group_of, group_weight, rep_flow) = assign_groups(&hashes, row);

        // Inverted CSR: offsets by prefix over the representative rows'
        // lengths, then a parallel copy over mass-balanced group ranges.
        let groups = group_weight.len();
        let mut inv_offsets = Vec::with_capacity(groups + 1);
        inv_offsets.push(0u32);
        let mut acc = 0u32;
        for &rep in &rep_flow {
            acc += sig_offsets[rep as usize + 1] - sig_offsets[rep as usize];
            inv_offsets.push(acc);
        }
        let mut inv_cand = vec![0u32; acc as usize];
        let mut inv_value = vec![0.0f64; acc as usize];
        let group_ranges = mass_chunks(
            groups,
            |g| (inv_offsets[g + 1] - inv_offsets[g]) as usize,
            workers,
        );
        std::thread::scope(|scope| {
            let mut cand_rest: &mut [u32] = &mut inv_cand;
            let mut val_rest: &mut [f64] = &mut inv_value;
            for &(lo, hi) in &group_ranges {
                let span = (inv_offsets[hi as usize] - inv_offsets[lo as usize]) as usize;
                let (cand_mine, cr) = cand_rest.split_at_mut(span);
                let (val_mine, vr) = val_rest.split_at_mut(span);
                cand_rest = cr;
                val_rest = vr;
                let row = &row;
                let rep_flow = &rep_flow;
                scope.spawn(move || {
                    let mut out = 0usize;
                    for &rep in &rep_flow[lo as usize..hi as usize] {
                        let (cs, vs) = row(rep as usize);
                        cand_mine[out..out + cs.len()].copy_from_slice(cs);
                        val_mine[out..out + vs.len()].copy_from_slice(vs);
                        out += cs.len();
                    }
                });
            }
        });

        // Forward grouped CSR: the same two-pass scatter, keyed by
        // candidate over the inverted rows.
        let inv_offsets_ref = &inv_offsets;
        let inv_cand_ref = &inv_cand;
        let inv_value_ref = &inv_value;
        let (fwd_offsets, fwd_group, fwd_value) = two_pass_scatter(
            workers,
            n,
            groups,
            |g| (inv_offsets[g + 1] - inv_offsets[g]) as usize,
            &|lo, hi, push| {
                for g in lo..hi {
                    let range = inv_offsets_ref[g] as usize..inv_offsets_ref[g + 1] as usize;
                    for (&c, &v) in inv_cand_ref[range.clone()]
                        .iter()
                        .zip(&inv_value_ref[range])
                    {
                        push(c, g as u32, v);
                    }
                }
            },
        );

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
                let slot = &mut group_best[g as usize];
                if v > *slot {
                    *slot = v;
                }
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
        let s = small_grid_scenario(UtilityKind::Threshold, Distance::from_feet(250));
        let index = InvertedIndex::build(&s);
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
    fn threaded_build_is_bitwise_identical() {
        // The cutoff normally routes small instances to the sequential
        // path, so exercise build_par directly to pin the bit-identity of
        // the two-pass parallel counting sort on real scenarios.
        for kind in UtilityKind::ALL {
            for d in [150u64, 300] {
                let s = small_grid_scenario(kind, Distance::from_feet(d));
                let seq = InvertedIndex::build(&s);
                for workers in [2usize, 3, 5] {
                    let par = InvertedIndex::build_par(&s, s.candidates_arc(), workers);
                    assert!(par == seq, "kind={kind} d={d} workers={workers}");
                }
            }
        }
    }

    #[test]
    fn build_with_threads_takes_the_cutoff_into_account() {
        // Small instance: the threaded entry point must fall back to the
        // sequential path (and still equal it, trivially).
        let s = small_grid_scenario(UtilityKind::Linear, Distance::from_feet(300));
        let entries: usize = s
            .candidates()
            .iter()
            .map(|&n| s.value_entries_at(n).0.len())
            .sum();
        assert!(entries < super::PARALLEL_BUILD_CUTOFF);
        let a = InvertedIndex::build(&s);
        let b = InvertedIndex::build_with_threads(&s, 4);
        assert!(a == b);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(
            InvertedGainEngine.name(),
            "inverted delta-propagation greedy"
        );
    }
}
