//! Lazy (CELF-style) accelerated greedy.
//!
//! The objective `w(placement) = Σ_f max_v f(detour) · T_f` is monotone
//! submodular, so a node's marginal gain can only shrink as the placement
//! grows. The CELF optimization (Leskovec et al., KDD 2007) exploits this: it
//! keeps stale gains in a max-heap and re-evaluates only the top entry,
//! producing *exactly* the same placement as [`MarginalGreedy`] while
//! skipping most gain evaluations. Included as an engineering extension and
//! ablated in the benchmark suite.
//!
//! The loop lives in [`CelfRun`], which can stop after any commit and
//! resume later: the greedy is nested in its budget, so one run answers
//! every k it has reached. [`LazyGreedy::place_with_stats`] is a fresh run
//! advanced to k; the server keeps one run per serving epoch.
//!
//! [`MarginalGreedy`]: crate::composite::MarginalGreedy

use crate::algorithms::PlacementAlgorithm;
use crate::placement::Placement;
use crate::scenario::Scenario;
use rand::rngs::StdRng;
use rap_graph::NodeId;
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A heap entry: a candidate node with a (possibly stale) upper bound on its
/// marginal gain.
pub(crate) struct HeapEntry {
    pub(crate) gain: f64,
    pub(crate) node: NodeId,
    /// The placement size at which `gain` was computed; the gain is fresh iff
    /// this equals the current placement size.
    pub(crate) round: usize,
}

impl HeapEntry {
    /// Wraps a computed gain for the heap.
    ///
    /// Finiteness is checked *here*, at construction, rather than inside
    /// `Ord::cmp`: a comparison method that panics mid-sift can leave a
    /// `BinaryHeap` in a broken state, and the old
    /// `partial_cmp(...).expect(...)` fired at an arbitrary later heap
    /// operation — far from the code that produced the NaN. Gains come from
    /// sums of finite precomputed entry values, so this only trips if a
    /// utility implementation returns NaN/infinity.
    ///
    /// # Panics
    ///
    /// Panics if `gain` is not finite.
    pub(crate) fn new(gain: f64, node: NodeId, round: usize) -> Self {
        assert!(
            gain.is_finite(),
            "non-finite marginal gain {gain} for candidate {node}"
        );
        HeapEntry { gain, node, round }
    }
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.gain == other.gain && self.node == other.node
    }
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap by gain; ties toward the lower node id (so `pop` matches
        // the plain greedy's deterministic tie-break). `total_cmp` is total,
        // so this never panics; `HeapEntry::new` already rejected NaN (for
        // which total_cmp's ordering would silently diverge from the
        // sequential argmax).
        self.gain
            .total_cmp(&other.gain)
            .then_with(|| other.node.cmp(&self.node))
    }
}

/// CELF-accelerated marginal-gain greedy: identical output to
/// [`crate::composite::MarginalGreedy`], asymptotically fewer gain
/// evaluations.
#[derive(Clone, Copy, Debug, Default)]
pub struct LazyGreedy;

impl LazyGreedy {
    /// Like [`place`](PlacementAlgorithm::place), additionally returning the
    /// number of gain evaluations performed (the engines' ablation metric).
    /// A fresh [`CelfRun`] advanced to `k`.
    pub fn place_with_stats(&self, scenario: &Scenario, k: usize) -> (Placement, u64) {
        let mut run = CelfRun::new(scenario);
        let (raps, evals) = run.advance_to(k);
        (Placement::new(raps.to_vec()), evals)
    }
}

/// One CELF run that can be advanced a RAP at a time and asked for any
/// budget it has reached.
///
/// The greedy is nested in its budget: the k-placement is the first k
/// picks of any larger one, and CELF keeps that property, since the run
/// toward k′ > k performs exactly the heap operations of the run toward k
/// until its k-th commit. So a run advanced to k answers every k′ ≤ k — and,
/// once no positive gain is left, every k′ — with exactly the RAPs and gain
/// evaluations of a fresh [`LazyGreedy::place_with_stats`]`(k′)`. The
/// evaluation count for k′ is the initial pass over every candidate plus the
/// stale re-evaluations made before the k′-th commit (or before the run
/// found nothing left to gain).
///
/// `S` is how the run holds its scenario: `&Scenario` for a one-shot
/// placement, `Arc<Scenario>` for a run kept alongside the scenario it
/// serves.
pub struct CelfRun<S: Borrow<Scenario>> {
    scenario: S,
    best_value: Vec<f64>,
    heap: BinaryHeap<HeapEntry>,
    raps: Vec<NodeId>,
    /// `evals_at[j]`: gain evaluations made when the prefix reached `j`
    /// RAPs (`evals_at[0]` is the initial pass).
    evals_at: Vec<u64>,
    /// Gain evaluations made when the run found no positive gain left;
    /// `None` while it can still grow.
    exhausted_at: Option<u64>,
}

impl<S: Borrow<Scenario>> CelfRun<S> {
    /// Starts a run: one gain evaluation per candidate, no RAP committed.
    pub fn new(scenario: S) -> Self {
        let s = scenario.borrow();
        let best_value = vec![0.0f64; s.flows().len()];
        let candidates = s.candidates();
        let heap = candidates
            .iter()
            .map(|&v| HeapEntry::new(s.marginal_gain_value(&best_value, v), v, 0))
            .collect();
        let evals_at = vec![candidates.len() as u64];
        CelfRun {
            scenario,
            best_value,
            heap,
            raps: Vec::new(),
            evals_at,
            exhausted_at: None,
        }
    }

    /// Whether the run has found no positive gain left (it then answers
    /// every budget).
    pub fn is_exhausted(&self) -> bool {
        self.exhausted_at.is_some()
    }

    /// The first `k` RAPs and the gain evaluations a fresh run to `k`
    /// makes, or `None` if the run must first be advanced.
    pub fn answer(&self, k: usize) -> Option<(&[NodeId], u64)> {
        if k <= self.raps.len() {
            Some((&self.raps[..k], self.evals_at[k]))
        } else {
            self.exhausted_at.map(|evals| (&self.raps[..], evals))
        }
    }

    /// Advances the run by one committed RAP, re-evaluating stale heap
    /// entries until the top one is fresh. Returns `false`, committing
    /// nothing, once the best remaining gain is not positive.
    pub fn step(&mut self) -> bool {
        if self.exhausted_at.is_some() {
            return false;
        }
        let scenario = self.scenario.borrow();
        let mut evals = self.evals_at[self.raps.len()];
        loop {
            let Some(top) = self.heap.pop().filter(|top| top.gain > 0.0) else {
                // The best possible gain is zero (or nothing is left).
                self.exhausted_at = Some(evals);
                return false;
            };
            if top.round == self.raps.len() {
                // Fresh: by submodularity no other node can beat it.
                self.raps.push(top.node);
                scenario.commit_best_values(&mut self.best_value, top.node);
                self.evals_at.push(evals);
                return true;
            }
            // Stale: re-evaluate and push back.
            evals += 1;
            self.heap.push(HeapEntry::new(
                scenario.marginal_gain_value(&self.best_value, top.node),
                top.node,
                self.raps.len(),
            ));
        }
    }

    /// Steps until the run answers `k`, then answers it.
    pub fn advance_to(&mut self, k: usize) -> (&[NodeId], u64) {
        while self.answer(k).is_none() {
            self.step();
        }
        self.answer(k).expect("the run reached k or is exhausted")
    }
}

impl<S: Borrow<Scenario>> std::fmt::Debug for CelfRun<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CelfRun")
            .field("reached", &self.raps.len())
            .field("exhausted", &self.is_exhausted())
            .finish_non_exhaustive()
    }
}

impl PlacementAlgorithm for LazyGreedy {
    fn name(&self) -> &str {
        "lazy greedy (CELF)"
    }

    fn place(&self, scenario: &Scenario, k: usize, _rng: &mut StdRng) -> Placement {
        self.place_with_stats(scenario, k).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::composite::MarginalGreedy;
    use crate::fixtures::{fig4_scenario, rng, small_grid_scenario};
    use crate::utility::UtilityKind;

    #[test]
    fn lazy_matches_plain_marginal_greedy() {
        for kind in UtilityKind::ALL {
            for d in [100u64, 200, 400] {
                let s = small_grid_scenario(kind, rap_graph::Distance::from_feet(d));
                for k in 0..6 {
                    let lazy = LazyGreedy.place(&s, k, &mut rng());
                    let plain = MarginalGreedy.place(&s, k, &mut rng());
                    assert_eq!(lazy, plain, "divergence at kind={kind} d={d} k={k}");
                }
            }
        }
    }

    #[test]
    fn lazy_matches_on_fig4() {
        for kind in UtilityKind::ALL {
            let s = fig4_scenario(kind);
            for k in 0..4 {
                assert_eq!(
                    LazyGreedy.place(&s, k, &mut rng()),
                    MarginalGreedy.place(&s, k, &mut rng())
                );
            }
        }
    }

    #[test]
    fn stops_when_gains_vanish() {
        let s = fig4_scenario(UtilityKind::Threshold);
        let p = LazyGreedy.place(&s, 100, &mut rng());
        // Two RAPs cover all flows at their minimum detours under the
        // threshold utility; further RAPs add nothing.
        assert!(p.len() <= s.candidates().len());
        let w_all = s.evaluate(&p);
        let p2 = LazyGreedy.place(&s, 2, &mut rng());
        assert!((s.evaluate(&p2) - w_all).abs() < 1e-9);
    }

    #[test]
    fn one_run_answers_every_budget_like_a_fresh_run() {
        for kind in UtilityKind::ALL {
            let s = small_grid_scenario(kind, rap_graph::Distance::from_feet(400));
            let mut run = CelfRun::new(&s);
            let all = s.candidates().len();
            for k in [3, 0, 5, 1, 5, 2, all, 4, all + 3] {
                let fresh = LazyGreedy.place_with_stats(&s, k);
                let (raps, evals) = run.advance_to(k);
                assert_eq!(
                    (Placement::new(raps.to_vec()), evals),
                    fresh,
                    "{kind} k={k}"
                );
            }
            assert!(run.is_exhausted());
            assert!(!run.step(), "an exhausted run commits nothing");
        }
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(LazyGreedy.name(), "lazy greedy (CELF)");
    }

    #[test]
    #[should_panic(expected = "non-finite marginal gain")]
    fn nan_gain_rejected_at_construction() {
        let _ = HeapEntry::new(f64::NAN, NodeId::new(7), 0);
    }

    #[test]
    #[should_panic(expected = "non-finite marginal gain")]
    fn infinite_gain_rejected_at_construction() {
        let _ = HeapEntry::new(f64::INFINITY, NodeId::new(7), 0);
    }
}
