//! Property-based tests for the placement engine: Theorem 1, objective
//! consistency, and the approximation guarantees of Theorem 2 on random
//! exhaustively-solvable instances.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rap_core::{
    decode_serving_snapshot, encode_snapshot, CelfRun, CompositeGreedy, ExhaustiveOptimal,
    FlowDelta, GreedyCoverage, InvertedGainEngine, InvertedIndex, LazyGreedy, MarginalGreedy,
    MutableScenario, Placement, PlacementAlgorithm, PlacementReport, Scenario, UtilityKind,
};
use rap_graph::apsp::DistanceMatrix;
use rap_graph::{Distance, GridGraph, NodeId};
use rap_traffic::{FlowId, FlowSet, FlowSpec};

/// Strategy: a small grid scenario with random flows, a random shop, and a
/// random utility.
#[derive(Debug, Clone)]
struct Instance {
    rows: u32,
    cols: u32,
    flows: Vec<(u32, u32, u32)>, // (origin, dest, volume in 1..100)
    shop: u32,
    utility: UtilityKind,
    threshold: u64,
}

fn arb_instance() -> impl Strategy<Value = Instance> {
    (3u32..6, 3u32..6)
        .prop_flat_map(|(rows, cols)| {
            let n = rows * cols;
            let flows = proptest::collection::vec((0..n, 0..n, 1u32..100), 1..8);
            let shop = 0..n;
            let utility = prop_oneof![
                Just(UtilityKind::Threshold),
                Just(UtilityKind::Linear),
                Just(UtilityKind::Sqrt),
            ];
            let threshold = 50u64..2_000;
            (Just(rows), Just(cols), flows, shop, utility, threshold)
        })
        .prop_map(|(rows, cols, flows, shop, utility, threshold)| Instance {
            rows,
            cols,
            flows,
            shop,
            utility,
            threshold,
        })
}

fn build(inst: &Instance) -> Option<Scenario> {
    let grid = GridGraph::new(inst.rows, inst.cols, Distance::from_feet(100));
    let mut specs = Vec::new();
    for &(o, d, v) in &inst.flows {
        if o == d {
            continue;
        }
        specs.push(
            FlowSpec::new(NodeId::new(o), NodeId::new(d), v as f64)
                .expect("valid spec")
                .with_attractiveness(0.5)
                .expect("alpha valid"),
        );
    }
    if specs.is_empty() {
        return None;
    }
    let flows = FlowSet::route(grid.graph(), specs).expect("grid flows route");
    Some(
        Scenario::single_shop(
            grid.graph().clone(),
            flows,
            NodeId::new(inst.shop),
            inst.utility
                .instantiate(Distance::from_feet(inst.threshold)),
        )
        .expect("scenario valid"),
    )
}

fn rng() -> StdRng {
    StdRng::seed_from_u64(0)
}

/// The instance as a [`MutableScenario`] (same graph, flows, shop, utility
/// as [`build`]), for the delta-stream equivalence properties.
fn build_mutable(inst: &Instance) -> Option<MutableScenario> {
    let grid = GridGraph::new(inst.rows, inst.cols, Distance::from_feet(100));
    let mut specs = Vec::new();
    for &(o, d, v) in &inst.flows {
        if o == d {
            continue;
        }
        specs.push(
            FlowSpec::new(NodeId::new(o), NodeId::new(d), v as f64)
                .expect("valid spec")
                .with_attractiveness(0.5)
                .expect("alpha valid"),
        );
    }
    if specs.is_empty() {
        return None;
    }
    let flows = FlowSet::route(grid.graph(), specs).expect("grid flows route");
    MutableScenario::new(
        grid.graph().clone(),
        flows,
        vec![NodeId::new(inst.shop)],
        inst.utility
            .instantiate(Distance::from_feet(inst.threshold)),
    )
    .ok()
}

/// Raw flow-delta tuples `(kind, a, b, v)`, resolved by [`apply_deltas`].
type RawDelta = (u8, u32, u32, u32);

fn arb_deltas() -> impl Strategy<Value = Vec<RawDelta>> {
    proptest::collection::vec((0u8..4, 0u32..64, 0u32..64, 1u32..100), 1..8)
}

/// Applies raw delta tuples to a scenario on an `n`-node graph, each
/// resolved against the flows live at that point. Degenerate deltas
/// (origin == destination, an op on no live flow, ...) are rejected or
/// skipped and leave the scenario unchanged — exactly what a live stream
/// would see.
fn apply_deltas(ms: &mut MutableScenario, ops: &[RawDelta], n: u32) {
    for &(op, a, b, v) in ops {
        let live = ms.live_stable_ids();
        let delta = match op {
            0 => FlowDelta::AddFlow {
                origin: NodeId::new(a % n),
                destination: NodeId::new(b % n),
                volume: v as f64,
                alpha: 0.5,
            },
            1 if !live.is_empty() => FlowDelta::RemoveFlow {
                flow: live[a as usize % live.len()],
            },
            2 if !live.is_empty() => FlowDelta::RescaleFlow {
                flow: live[a as usize % live.len()],
                factor: 0.25 + v as f64 / 50.0,
            },
            3 if !live.is_empty() => FlowDelta::SetAlpha {
                flow: live[a as usize % live.len()],
                alpha: (v as f64 % 10.0) / 10.0,
            },
            _ => continue,
        };
        let _ = ms.apply(&delta);
    }
}

/// The greedy identity contract on one scenario: CELF and the inverted
/// engine reproduce `MarginalGreedy`'s placement and objective bits.
fn assert_greedy_identity(s: &Scenario, k: usize, case: &str) -> Result<(), TestCaseError> {
    let seq = MarginalGreedy.place(s, k, &mut rng());
    let bits = s.evaluate(&seq).to_bits();
    let celf = LazyGreedy.place(s, k, &mut rng());
    prop_assert_eq!(
        s.evaluate(&celf).to_bits(),
        bits,
        "celf objective diverged ({})",
        case
    );
    prop_assert_eq!(&celf, &seq, "celf diverged ({})", case);
    let inv = InvertedGainEngine.place(s, k, &mut rng());
    prop_assert_eq!(
        s.evaluate(&inv).to_bits(),
        bits,
        "inverted objective diverged ({})",
        case
    );
    prop_assert_eq!(&inv, &seq, "inverted diverged ({})", case);
    Ok(())
}

/// A CELF heap entry for [`celf_reference`]: max-heap by gain, ties toward
/// the lower node id.
struct RefEntry {
    gain: f64,
    node: NodeId,
    round: usize,
}

impl PartialEq for RefEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for RefEntry {}

impl PartialOrd for RefEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for RefEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.gain
            .total_cmp(&other.gain)
            .then_with(|| other.node.cmp(&self.node))
    }
}

/// One CELF run to `k` written out as a single loop, independent of
/// [`CelfRun`]: the placement and the gain evaluations it made.
fn celf_reference(s: &Scenario, k: usize) -> (Placement, u64) {
    let mut best_value = vec![0.0f64; s.flows().len()];
    let mut raps = Vec::new();
    let mut evals = s.candidates().len() as u64;
    let mut heap: std::collections::BinaryHeap<RefEntry> = s
        .candidates()
        .iter()
        .map(|&node| RefEntry {
            gain: s.marginal_gain_value(&best_value, node),
            node,
            round: 0,
        })
        .collect();
    while raps.len() < k {
        let Some(top) = heap.pop() else { break };
        if top.gain <= 0.0 {
            break;
        }
        if top.round == raps.len() {
            raps.push(top.node);
            s.commit_best_values(&mut best_value, top.node);
        } else {
            evals += 1;
            heap.push(RefEntry {
                gain: s.marginal_gain_value(&best_value, top.node),
                node: top.node,
                round: raps.len(),
            });
        }
    }
    (Placement::new(raps), evals)
}

/// The resumable-run contract on one scenario: one [`CelfRun`], advanced
/// through `ks` in order, answers every k with the RAPs, gain evaluations
/// and objective bits of a fresh `LazyGreedy::place_with_stats(k)`, and
/// both agree with [`celf_reference`].
fn assert_resumable_identity(s: &Scenario, ks: &[usize], case: &str) -> Result<(), TestCaseError> {
    let mut run = CelfRun::new(s);
    for &k in ks {
        let (fresh, fresh_evals) = LazyGreedy.place_with_stats(s, k);
        let (reference, reference_evals) = celf_reference(s, k);
        prop_assert_eq!(
            (&fresh, fresh_evals),
            (&reference, reference_evals),
            "fresh run diverged from the reference loop at k={} ({})",
            k,
            case
        );
        let (raps, evals) = run.advance_to(k);
        let resumed = Placement::new(raps.to_vec());
        prop_assert_eq!(&resumed, &fresh, "placement diverged at k={} ({})", k, case);
        prop_assert_eq!(
            evals,
            fresh_evals,
            "gain_evals diverged at k={} ({})",
            k,
            case
        );
        prop_assert_eq!(
            s.evaluate(&resumed).to_bits(),
            s.evaluate(&fresh).to_bits(),
            "objective diverged at k={} ({})",
            k,
            case
        );
    }
    Ok(())
}

/// The first maximum of `score` over the candidates not in `placement`,
/// in ascending node id, or `None` when no score is positive: one eager
/// scan of Algorithms 1 and 2.
fn eager_pick(
    s: &Scenario,
    placement: &Placement,
    score: impl Fn(NodeId) -> f64,
) -> Option<(NodeId, f64)> {
    let mut best: Option<(NodeId, f64)> = None;
    for &v in s.candidates() {
        if placement.contains(v) {
            continue;
        }
        let gain = score(v);
        if gain > 0.0 && best.is_none_or(|(_, b)| gain > b) {
            best = Some((v, gain));
        }
    }
    best
}

/// Marks the flows a RAP at `node` attracts a positive expected number of
/// drivers from as covered.
fn mark_covered(s: &Scenario, covered: &mut [bool], node: NodeId) {
    let (flows, values) = s.value_entries_at(node);
    for (&f, &v) in flows.iter().zip(values) {
        if v > 0.0 {
            covered[f as usize] = true;
        }
    }
}

/// Algorithm 1 as the paper states it, the oracle of [`GreedyCoverage`]:
/// every step rescans every candidate's uncovered gain.
fn eager_coverage(s: &Scenario, k: usize) -> Placement {
    let mut covered = vec![false; s.flows().len()];
    let mut placement = Placement::empty();
    while placement.len() < k {
        let Some((node, _)) = eager_pick(s, &placement, |v| s.uncovered_gain(&covered, v)) else {
            break;
        };
        placement.push(node);
        mark_covered(s, &mut covered, node);
    }
    placement
}

/// Algorithm 2 as the paper states it, the oracle of [`CompositeGreedy`]:
/// every step rescans every candidate's uncovered gain and improvement
/// gain, and takes candidate ii only when its gain is strictly larger.
fn eager_composite(s: &Scenario, k: usize) -> Placement {
    let mut covered = vec![false; s.flows().len()];
    let mut best_value = vec![0.0f64; s.flows().len()];
    let mut placement = Placement::empty();
    while placement.len() < k {
        let cand_i = eager_pick(s, &placement, |v| s.uncovered_gain(&covered, v));
        let cand_ii = eager_pick(s, &placement, |v| {
            s.improvement_gain_value(&covered, &best_value, v)
        });
        let chosen = match (cand_i, cand_ii) {
            (Some((vi, gi)), Some((vii, gii))) => {
                if gii > gi {
                    vii
                } else {
                    vi
                }
            }
            (Some((vi, _)), None) => vi,
            (None, Some((vii, _))) => vii,
            (None, None) => break,
        };
        placement.push(chosen);
        mark_covered(s, &mut covered, chosen);
        s.commit_best_values(&mut best_value, chosen);
    }
    placement
}

/// Algorithms 1 and 2 return their eager oracles' RAPs and objective bits
/// at every k from 0 to two past the candidate count. An eager run to k is
/// the first k RAPs of one to a larger budget, so each oracle runs once.
fn assert_lazy_matches_eager(s: &Scenario, case: &str) -> Result<(), TestCaseError> {
    let k_max = s.candidates().len() + 2;
    let algorithms: [(&dyn PlacementAlgorithm, Placement); 2] = [
        (&GreedyCoverage, eager_coverage(s, k_max)),
        (&CompositeGreedy, eager_composite(s, k_max)),
    ];
    for (alg, oracle) in algorithms {
        for k in 0..=k_max {
            let expected = Placement::new(oracle.raps()[..k.min(oracle.len())].to_vec());
            let got = alg.place(s, k, &mut rng());
            prop_assert_eq!(&got, &expected, "{} at k={} ({})", alg.name(), k, case);
            prop_assert_eq!(
                s.evaluate(&got).to_bits(),
                s.evaluate(&expected).to_bits(),
                "{} objective at k={} ({})",
                alg.name(),
                k,
                case
            );
        }
    }
    Ok(())
}

/// A k sequence for a scenario with `candidates` candidates: the random
/// `picks` (up to two past the candidate count) sorted ascending,
/// descending or left as drawn, then a repeat of the first, 0, the
/// candidate count and a k past any exhaustion.
fn k_sequence(picks: &[usize], order: u8, candidates: usize) -> Vec<usize> {
    let mut ks: Vec<usize> = picks.iter().map(|p| p % (candidates + 3)).collect();
    match order % 3 {
        0 => ks.sort_unstable(),
        1 => ks.sort_unstable_by(|a, b| b.cmp(a)),
        _ => {}
    }
    ks.extend([ks[0], 0, candidates, candidates + 2]);
    ks
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Theorem 1: along any flow's path, detour distances never decrease —
    /// the first RAP always attains the minimum.
    #[test]
    fn theorem_1_detours_non_decreasing_along_path(inst in arb_instance()) {
        let Some(s) = build(&inst) else { return Ok(()) };
        for f in s.flows() {
            let mut last: Option<Distance> = None;
            for &v in f.path().nodes() {
                if let Some(e) = s.entries_at(v).iter().find(|e| e.flow == f.id()) {
                    if let Some(prev) = last {
                        prop_assert!(
                            e.detour >= prev,
                            "flow {} detour decreased from {prev} to {} at {v}",
                            f.id(),
                            e.detour
                        );
                    }
                    last = Some(e.detour);
                }
            }
        }
    }

    /// The objective equals the sum of per-flow utilities at the best
    /// detours, and adding RAPs never hurts (monotonicity).
    #[test]
    fn objective_monotone_under_additions(inst in arb_instance()) {
        let Some(s) = build(&inst) else { return Ok(()) };
        let candidates = s.candidates();
        let mut placement = Placement::empty();
        let mut prev = 0.0;
        for &v in candidates {
            placement.push(v);
            let w = s.evaluate(&placement);
            prop_assert!(w + 1e-9 >= prev, "objective dropped when adding {v}");
            prev = w;
        }
    }

    /// Marginal gain reported by the scenario equals the actual objective
    /// difference.
    #[test]
    fn marginal_gain_is_exact(inst in arb_instance()) {
        let Some(s) = build(&inst) else { return Ok(()) };
        let candidates = s.candidates();
        let base: Placement = candidates.iter().take(2).copied().collect();
        let best = s.best_detours(&base);
        for &v in candidates.iter().take(8) {
            if base.contains(v) {
                continue;
            }
            let mut extended = base.clone();
            extended.push(v);
            let diff = s.evaluate(&extended) - s.evaluate(&base);
            prop_assert!((s.marginal_gain(&best, v) - diff).abs() < 1e-9);
        }
    }

    /// Theorem 2: the composite greedy attains at least `1 − 1/√e` of the
    /// exhaustive optimum (any utility); Algorithm 1 attains `1 − 1/e` under
    /// the threshold utility.
    #[test]
    fn approximation_ratios_hold(inst in arb_instance(), k in 1usize..4) {
        let Some(s) = build(&inst) else { return Ok(()) };
        let opt = s.evaluate(
            &ExhaustiveOptimal::with_budget(200_000)
                .solve(&s, k)
                .expect("instance small enough"),
        );
        let alg2 = s.evaluate(&CompositeGreedy.place(&s, k, &mut rng()));
        let bound2 = (1.0 - (-0.5f64).exp()) * opt;
        prop_assert!(alg2 + 1e-9 >= bound2, "alg2 {alg2} < {bound2} (opt {opt})");
        if inst.utility == UtilityKind::Threshold {
            let alg1 = s.evaluate(&GreedyCoverage.place(&s, k, &mut rng()));
            let bound1 = (1.0 - (-1.0f64).exp()) * opt;
            prop_assert!(alg1 + 1e-9 >= bound1, "alg1 {alg1} < {bound1} (opt {opt})");
        }
    }

    /// CELF and the plain marginal greedy produce identical placements.
    #[test]
    fn lazy_equals_marginal(inst in arb_instance(), k in 0usize..6) {
        let Some(s) = build(&inst) else { return Ok(()) };
        prop_assert_eq!(
            LazyGreedy.place(&s, k, &mut rng()),
            MarginalGreedy.place(&s, k, &mut rng())
        );
    }

    /// CELF and the inverted engine reproduce the sequential marginal
    /// greedy's placement and objective bits, for every utility kind.
    #[test]
    fn greedy_variants_identical(inst in arb_instance(), k in 0usize..6) {
        for kind in UtilityKind::ALL {
            let mut inst = inst.clone();
            inst.utility = kind;
            let Some(s) = build(&inst) else { return Ok(()) };
            assert_greedy_identity(&s, k, &format!("{kind}, k={k}"))?;
        }
    }

    /// One resumable CELF run, advanced through a random k sequence,
    /// answers every k like a fresh run: on every utility kind with one
    /// and two shops, on a tie-heavy grid (equal volumes, threshold
    /// utility) and on a scenario whose flows were all removed.
    #[test]
    fn resumable_celf_run_matches_fresh_runs(
        inst in arb_instance(),
        shop2 in 0u32..36,
        picks in proptest::collection::vec(0usize..64, 1..10),
        order in 0u8..3,
    ) {
        let n = inst.rows * inst.cols;
        for kind in UtilityKind::ALL {
            let mut inst = inst.clone();
            inst.utility = kind;
            let Some(single) = build(&inst) else { return Ok(()) };
            let ks = k_sequence(&picks, order, single.candidates().len());
            assert_resumable_identity(&single, &ks, &format!("{kind}"))?;
            let two = Scenario::new(
                single.graph().clone(),
                single.flows().clone(),
                vec![NodeId::new(inst.shop), NodeId::new(shop2 % n)],
                kind.instantiate(Distance::from_feet(inst.threshold)),
            )
            .expect("multi-shop scenario valid");
            let ks = k_sequence(&picks, order, two.candidates().len());
            assert_resumable_identity(&two, &ks, &format!("two shops, {kind}"))?;
        }

        let mut ties = inst.clone();
        ties.utility = UtilityKind::Threshold;
        for flow in &mut ties.flows {
            flow.2 = 50;
        }
        let Some(tied) = build(&ties) else { return Ok(()) };
        let ks = k_sequence(&picks, order, tied.candidates().len());
        assert_resumable_identity(&tied, &ks, "tie-heavy")?;

        let Some(mut ms) = build_mutable(&inst) else { return Ok(()) };
        for flow in ms.live_stable_ids() {
            ms.apply(&FlowDelta::RemoveFlow { flow }).expect("removal applies");
        }
        prop_assert_eq!(ms.live_flows(), 0);
        let empty = ms.snapshot();
        let ks = k_sequence(&picks, order, empty.candidates().len());
        assert_resumable_identity(&empty, &ks, "no live flows")?;
        // With no flow to sum over, the objective at k = 0 is the empty f64
        // sum: -0.0.
        let nothing = empty.evaluate(&LazyGreedy.place_with_stats(&empty, 0).0);
        prop_assert_eq!(nothing.to_bits(), std::iter::empty::<f64>().sum::<f64>().to_bits());
        prop_assert_eq!(nothing.to_bits(), (-0.0f64).to_bits());
    }

    /// The same identity on multi-shop scenarios (two shops, every utility
    /// kind).
    #[test]
    fn inverted_identical_multi_shop(inst in arb_instance(), k in 0usize..6, shop2 in 0u32..36) {
        for kind in UtilityKind::ALL {
            let mut inst = inst.clone();
            inst.utility = kind;
            let Some(single) = build(&inst) else { return Ok(()) };
            let n = inst.rows * inst.cols;
            let s = Scenario::new(
                single.graph().clone(),
                single.flows().clone(),
                vec![NodeId::new(inst.shop), NodeId::new(shop2 % n)],
                kind.instantiate(Distance::from_feet(inst.threshold)),
            )
            .expect("multi-shop scenario valid");
            assert_greedy_identity(&s, k, &format!("two shops, {kind}, k={k}"))?;
        }
    }

    /// The same identity on snapshots taken after an arbitrary batch of
    /// `MutableScenario` flow deltas.
    #[test]
    fn inverted_identical_after_flow_deltas(
        inst in arb_instance(),
        k in 0usize..6,
        ops in arb_deltas(),
    ) {
        let Some(mut ms) = build_mutable(&inst) else { return Ok(()) };
        apply_deltas(&mut ms, &ops, inst.rows * inst.cols);
        let snap = ms.snapshot();
        assert_greedy_identity(&snap, k, &format!("after deltas, k={k}"))?;
    }

    /// The chunked branchless SoA gain kernel is bitwise identical to its
    /// scalar lane-schedule reference on adversarial entry lanes — negative
    /// deltas, exact zeros, repeated flows, ties, and lengths straddling the
    /// chunk width.
    #[test]
    fn kernel_gain_matches_reference(
        entries in proptest::collection::vec((0u32..24, -1e9f64..1e9), 0..40),
        best in proptest::collection::vec(prop_oneof![
            Just(0.0f64),
            Just(-0.0f64),
            -1e9f64..1e9,
        ], 24),
    ) {
        use rap_core::kernel;
        let flows: Vec<u32> = entries.iter().map(|&(f, _)| f).collect();
        // Mix in exact-tie values (value == best[flow]) so the max(0, ·)
        // boundary is exercised, not just sampled around.
        let values: Vec<f64> = entries
            .iter()
            .enumerate()
            .map(|(i, &(f, v))| if i % 5 == 0 { best[f as usize] } else { v })
            .collect();
        let fast = kernel::gain(&flows, &values, &best);
        let slow = kernel::gain_reference(&flows, &values, &best);
        prop_assert_eq!(
            fast.to_bits(),
            slow.to_bits(),
            "kernel diverged: fast {} vs reference {}",
            fast,
            slow
        );
    }

    /// Flow-group coalescing preserves the objective bit for bit: the
    /// grouped evaluation equals `Scenario::evaluate` on every greedy
    /// prefix and on the full candidate set.
    #[test]
    fn coalescing_preserves_objective(inst in arb_instance(), k in 0usize..5) {
        let Some(s) = build(&inst) else { return Ok(()) };
        let index = InvertedIndex::build(&s);
        let mut probes: Vec<Placement> = (0..=k)
            .map(|i| MarginalGreedy.place(&s, i, &mut rng()))
            .collect();
        probes.push(Placement::new(s.candidates().to_vec()));
        for p in probes {
            prop_assert_eq!(
                index.evaluate_grouped(&p).to_bits(),
                s.evaluate(&p).to_bits(),
                "grouped evaluation diverged on {}", p
            );
        }
    }

    /// The CSR detour table matches a nested-Vec reference rebuilt from the
    /// routed flows and an independent Floyd–Warshall matrix: same per-node
    /// entry grouping, same flows, same detour distances.
    #[test]
    fn csr_matches_nested_reference(inst in arb_instance()) {
        let Some(s) = build(&inst) else { return Ok(()) };
        let shop = NodeId::new(inst.shop);
        let truth = DistanceMatrix::floyd_warshall(s.graph());
        let mut nested: Vec<Vec<(FlowId, Distance)>> =
            vec![Vec::new(); s.graph().node_count()];
        for (v, row) in nested.iter_mut().enumerate() {
            let node = NodeId::new(v as u32);
            for visit in s.flows().visits_at(node) {
                let flow = s.flows().flow(visit.flow);
                let (Some(d1), Some(d2)) =
                    (truth.get(node, shop), truth.get(shop, flow.destination()))
                else {
                    continue;
                };
                let remaining = flow.path().length().saturating_sub(visit.prefix);
                row.push((
                    visit.flow,
                    d1.saturating_add(d2).saturating_sub(remaining),
                ));
            }
        }
        for (v, row) in nested.iter().enumerate() {
            let node = NodeId::new(v as u32);
            let flat: Vec<(FlowId, Distance)> = s
                .entries_at(node)
                .iter()
                .map(|e| (e.flow, e.detour))
                .collect();
            prop_assert_eq!(flat, row.clone(), "CSR row mismatch at {}", node);
        }
    }

    /// The precomputed-value engine agrees bit-for-bit with the
    /// distance-based accessors on arbitrary intermediate greedy states.
    #[test]
    fn value_engine_matches_distance_engine(inst in arb_instance()) {
        let Some(s) = build(&inst) else { return Ok(()) };
        let candidates = s.candidates();
        let base: Placement = candidates.iter().step_by(3).take(3).copied().collect();
        let best_detours = s.best_detours(&base);
        let mut best_value = vec![0.0f64; s.flows().len()];
        for &rap in &base {
            s.commit_best_values(&mut best_value, rap);
        }
        for &v in candidates {
            // Exact equality: both engines evaluate the same expression on
            // the same inputs.
            prop_assert_eq!(
                s.marginal_gain_value(&best_value, v),
                s.marginal_gain(&best_detours, v),
                "gain mismatch at {}",
                v
            );
        }
    }

    /// The lazy Algorithms 1 and 2 reproduce the eager scan on every
    /// utility kind, with one and two shops, and on tie-heavy grids where
    /// every flow, plus up to 15 more, carries the same volume.
    #[test]
    fn lazy_algorithms_match_the_eager_scan(
        inst in arb_instance(),
        shop2 in 0u32..36,
        extra in proptest::collection::vec((0u32..36, 0u32..36), 0..16),
    ) {
        let n = inst.rows * inst.cols;
        for kind in UtilityKind::ALL {
            let mut inst = inst.clone();
            inst.utility = kind;
            let Some(single) = build(&inst) else { return Ok(()) };
            assert_lazy_matches_eager(&single, &format!("{kind}"))?;
            let two = Scenario::new(
                single.graph().clone(),
                single.flows().clone(),
                vec![NodeId::new(inst.shop), NodeId::new(shop2 % n)],
                kind.instantiate(Distance::from_feet(inst.threshold)),
            )
            .expect("multi-shop scenario valid");
            assert_lazy_matches_eager(&two, &format!("two shops, {kind}"))?;

            let mut ties = inst.clone();
            ties.flows.extend(extra.iter().map(|&(o, d)| (o % n, d % n, 50)));
            for flow in &mut ties.flows {
                flow.2 = 50;
            }
            let tied = build(&ties).expect("the instance's own flows still route");
            assert_lazy_matches_eager(&tied, &format!("tie-heavy, {kind}"))?;
        }
    }

    /// Under the threshold utility Algorithm 2 reduces to Algorithm 1
    /// (identical placements).
    #[test]
    fn composite_reduces_to_greedy_under_threshold(inst in arb_instance(), k in 0usize..6) {
        let mut inst = inst;
        inst.utility = UtilityKind::Threshold;
        let Some(s) = build(&inst) else { return Ok(()) };
        prop_assert_eq!(
            CompositeGreedy.place(&s, k, &mut rng()),
            GreedyCoverage.place(&s, k, &mut rng())
        );
    }

    /// The budgeted greedy never exceeds its budget and degenerates to the
    /// marginal greedy under uniform costs.
    #[test]
    fn budgeted_greedy_respects_budget(inst in arb_instance(), budget in 0u64..8) {
        use rap_core::{BudgetedGreedy, SiteCosts};
        let Some(s) = build(&inst) else { return Ok(()) };
        let uniform = SiteCosts::uniform(s.graph().node_count(), 1);
        let p = BudgetedGreedy.place(&s, &uniform, budget).expect("sized");
        prop_assert!(uniform.total(&p) <= budget);
        let plain = MarginalGreedy.place(&s, budget as usize, &mut rng());
        prop_assert!((s.evaluate(&p) - s.evaluate(&plain)).abs() < 1e-9);

        // Heterogeneous costs: still within budget.
        let varied = SiteCosts::from_fn(s.graph().node_count(), |v| 1 + (v.raw() as u64 % 4));
        let p2 = BudgetedGreedy.place(&s, &varied, budget).expect("sized");
        prop_assert!(varied.total(&p2) <= budget);
    }

    /// Failure-aware evaluation interpolates correctly: equals the nominal
    /// objective at p = 0, decreases in p, and the failure-aware greedy
    /// never loses to the nominal greedy on its own objective.
    #[test]
    fn failure_aware_consistency(inst in arb_instance(), k in 1usize..5) {
        use rap_core::{failure_aware_evaluate, FailureAwareGreedy};
        let Some(s) = build(&inst) else { return Ok(()) };
        let nominal = MarginalGreedy.place(&s, k, &mut rng());
        prop_assert!(
            (failure_aware_evaluate(&s, &nominal, 0.0) - s.evaluate(&nominal)).abs() < 1e-9
        );
        let mut prev = f64::INFINITY;
        for fp in [0.0, 0.25, 0.5, 0.75] {
            let v = failure_aware_evaluate(&s, &nominal, fp);
            prop_assert!(v <= prev + 1e-12);
            prev = v;
        }
        for fp in [0.25, 0.6] {
            let aware = FailureAwareGreedy::new(fp).place(&s, k, &mut rng());
            prop_assert!(
                failure_aware_evaluate(&s, &aware, fp) + 1e-9
                    >= failure_aware_evaluate(&s, &nominal, fp)
            );
        }
    }

    /// The seeded Monte Carlo outage simulator agrees with the closed-form
    /// failure-aware objective within 3σ of its own standard error, for
    /// every tested failure probability.
    #[test]
    fn monte_carlo_validates_closed_form(inst in arb_instance(), k in 1usize..5, seed in 0u64..1_000) {
        use rap_core::{failure_aware_evaluate, simulate_outages};
        let Some(s) = build(&inst) else { return Ok(()) };
        let placement = MarginalGreedy.place(&s, k, &mut rng());
        for fp in [0.1, 0.3, 0.6] {
            let exact = failure_aware_evaluate(&s, &placement, fp);
            let sim = simulate_outages(&s, &placement, fp, 4_000, seed);
            let sigma = sim.std_error.max(1e-12);
            prop_assert!(
                (sim.mean - exact).abs() <= 3.0 * sigma,
                "p={fp}: MC mean {} vs exact {exact} (3σ = {})",
                sim.mean,
                3.0 * sigma
            );
        }
    }

    /// At zero region-blackout probability the correlated outage model
    /// collapses exactly to the independent closed form, for any region
    /// layout.
    #[test]
    fn correlated_model_reduces_to_independent(
        inst in arb_instance(),
        k in 1usize..5,
        region_count in 1usize..5,
    ) {
        use rap_core::{
            correlated_evaluate, failure_aware_evaluate, CorrelatedFailureModel, RegionMap,
        };
        let Some(s) = build(&inst) else { return Ok(()) };
        let placement = MarginalGreedy.place(&s, k, &mut rng());
        let regions = RegionMap::striped(s.graph().node_count(), region_count);
        for fp in [0.0, 0.2, 0.5, 0.8] {
            let model = CorrelatedFailureModel::new(0.0, fp);
            let corr = correlated_evaluate(&s, &placement, &model, &regions);
            let indep = failure_aware_evaluate(&s, &placement, fp);
            prop_assert!(
                (corr - indep).abs() < 1e-9,
                "p={fp} regions={region_count}: correlated {corr} vs independent {indep}"
            );
        }
    }

    /// Swap refinement never reduces the objective and keeps the size.
    #[test]
    fn swap_refinement_sound(inst in arb_instance(), k in 1usize..4) {
        use rap_core::SwapSearch;
        let Some(s) = build(&inst) else { return Ok(()) };
        let start = CompositeGreedy.place(&s, k, &mut rng());
        let before = s.evaluate(&start);
        let size = start.len();
        let (refined, value) = SwapSearch::default().refine(&s, start);
        prop_assert!(value + 1e-9 >= before);
        prop_assert_eq!(refined.len(), size);
        prop_assert!((s.evaluate(&refined) - value).abs() < 1e-9);
    }

    /// Upper bounds always dominate every achievable placement value.
    #[test]
    fn upper_bounds_dominate(inst in arb_instance(), k in 1usize..4) {
        use rap_core::{upper_bound, ExhaustiveOptimal};
        let Some(s) = build(&inst) else { return Ok(()) };
        let opt = s.evaluate(
            &ExhaustiveOptimal::with_budget(200_000)
                .solve(&s, k)
                .expect("small instance"),
        );
        prop_assert!(upper_bound(&s, k) + 1e-9 >= opt);
    }

    /// Every algorithm returns at most k distinct RAPs, all of them real
    /// candidate intersections.
    #[test]
    fn placements_are_well_formed(inst in arb_instance(), k in 0usize..6) {
        let Some(s) = build(&inst) else { return Ok(()) };
        let algorithms: [&dyn PlacementAlgorithm; 4] = [
            &GreedyCoverage,
            &CompositeGreedy,
            &MarginalGreedy,
            &LazyGreedy,
        ];
        for alg in algorithms {
            let p = alg.place(&s, k, &mut rng());
            prop_assert!(p.len() <= k, "{}", alg.name());
            let distinct: std::collections::HashSet<_> = p.iter().collect();
            prop_assert_eq!(distinct.len(), p.len());
            for &v in &p {
                prop_assert!(s.graph().contains_node(v));
            }
        }
    }
}

/// `PlacementReport::compute` as it was before the value fold, kept as the
/// oracle for the fold: every flow's least detour over the placed RAPs,
/// then one utility call per reached flow.
fn report_oracle(s: &Scenario, placement: &Placement) -> PlacementReport {
    let best = s.best_detours(placement);
    let mut attracted = 0.0;
    let mut covered_flows = 0usize;
    let mut covered_volume = 0.0;
    let mut detour_mass = 0.0;
    let mut max_detour = Distance::ZERO;
    for (i, d) in best.iter().enumerate() {
        let Some(d) = *d else { continue };
        let flow = s.flows().flow(FlowId::new(i as u32));
        let expected = s.expected_customers(flow, d);
        if expected > 0.0 {
            covered_flows += 1;
            covered_volume += flow.volume();
            detour_mass += d.as_f64() * flow.volume();
            max_detour = max_detour.max(d);
            attracted += expected;
        }
    }
    let total_volume = s.flows().total_volume();
    PlacementReport {
        raps: placement.len(),
        attracted,
        covered_flows,
        total_flows: s.flows().len(),
        covered_volume_fraction: if total_volume > 0.0 {
            covered_volume / total_volume
        } else {
            0.0
        },
        mean_detour_feet: if covered_volume > 0.0 {
            detour_mass / covered_volume
        } else {
            0.0
        },
        max_detour,
    }
}

/// Every field of a report, floats as their bits.
type ReportBits = (usize, u64, usize, usize, u64, u64, Distance);

fn report_bits(r: &PlacementReport) -> ReportBits {
    (
        r.raps,
        r.attracted.to_bits(),
        r.covered_flows,
        r.total_flows,
        r.covered_volume_fraction.to_bits(),
        r.mean_detour_feet.to_bits(),
        r.max_detour,
    )
}

/// `p` with its first RAP placed twice. `Placement::new` drops duplicates;
/// a deserialized placement keeps what it is given.
fn repeating_first(p: &Placement) -> Placement {
    use serde::{Deserialize, Serialize};
    let mut value = p.serialize_value();
    if let serde::Value::Map(fields) = &mut value {
        for (_, raps) in fields {
            if let serde::Value::Seq(raps) = raps {
                raps.push(raps[0].clone());
            }
        }
    }
    let repeated = Placement::deserialize_value(&value).expect("a placement deserializes");
    assert_eq!(repeated.len(), p.len() + 1, "the repeat survived");
    repeated
}

/// The placements the coverage properties score: empty, every candidate,
/// the picked candidates with the first placed twice, and the picks plus a
/// node that is no candidate (when the graph has one).
fn coverage_placements(s: &Scenario, picks: &[usize]) -> Vec<Placement> {
    let candidates = s.candidates();
    let mut placements = vec![Placement::empty(), candidates.iter().copied().collect()];
    if !candidates.is_empty() {
        let picked: Placement = picks
            .iter()
            .map(|&i| candidates[i % candidates.len()])
            .collect();
        placements.push(repeating_first(&picked));
        if let Some(idle) = s.graph().nodes().find(|&v| s.entries_at(v).is_empty()) {
            let mut with_idle = picked;
            with_idle.push(idle);
            placements.push(with_idle);
        }
    }
    placements
}

/// `Scenario::coverage` gives the oracle's `(attracted, covered_flows)`
/// bits, `PlacementReport::compute` every one of the oracle's fields, and
/// where the scenario has a flow the objective has `Scenario::evaluate`'s
/// bits.
fn assert_coverage_matches_oracle(
    s: &Scenario,
    picks: &[usize],
    case: &str,
) -> Result<(), TestCaseError> {
    for p in coverage_placements(s, picks) {
        let oracle = report_oracle(s, &p);
        let (objective, covered) = s.coverage(&p);
        prop_assert_eq!(
            objective.to_bits(),
            oracle.attracted.to_bits(),
            "objective of {} ({})",
            &p,
            case
        );
        prop_assert_eq!(
            covered,
            oracle.covered_flows,
            "covered flows of {} ({})",
            &p,
            case
        );
        prop_assert_eq!(
            report_bits(&PlacementReport::compute(s, &p)),
            report_bits(&oracle),
            "report of {} ({})",
            &p,
            case
        );
        if !s.flows().is_empty() {
            prop_assert_eq!(
                objective.to_bits(),
                s.evaluate(&p).to_bits(),
                "evaluate of {} ({})",
                &p,
                case
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The sparse fold and the report's value fold reproduce the
    /// distance-path report bit for bit under every utility kind, with one
    /// to three shops.
    #[test]
    fn coverage_matches_the_report_oracle(
        inst in arb_instance(),
        extra_shops in proptest::collection::vec(0u32..36, 0..3),
        picks in proptest::collection::vec(0usize..64, 1..6),
    ) {
        let Some(single) = build(&inst) else { return Ok(()) };
        let n = inst.rows * inst.cols;
        let mut shops = vec![NodeId::new(inst.shop)];
        shops.extend(extra_shops.iter().map(|&v| NodeId::new(v % n)));
        for kind in UtilityKind::ALL {
            let s = Scenario::new(
                single.graph().clone(),
                single.flows().clone(),
                shops.clone(),
                kind.instantiate(Distance::from_feet(inst.threshold)),
            )
            .expect("scenario valid");
            assert_coverage_matches_oracle(&s, &picks, &format!("{kind}, {} shop(s)", shops.len()))?;
        }
    }

    /// The same on serving-decoded snapshots taken after an arbitrary batch
    /// of flow deltas: tombstones, overlay rows, and at times no flow left.
    #[test]
    fn coverage_matches_the_report_oracle_on_served_snapshots(
        inst in arb_instance(),
        ops in arb_deltas(),
        picks in proptest::collection::vec(0usize..64, 1..6),
    ) {
        for kind in UtilityKind::ALL {
            let mut inst = inst.clone();
            inst.utility = kind;
            let Some(mut ms) = build_mutable(&inst) else { return Ok(()) };
            apply_deltas(&mut ms, &ops, inst.rows * inst.cols);
            let bytes = encode_snapshot(&ms, None, 0, &[]).expect("snapshot encodes");
            let served = decode_serving_snapshot(&bytes, 1).expect("snapshot decodes");
            assert_coverage_matches_oracle(&served.scenario, &picks, &format!("served, {kind}"))?;
        }
    }
}

/// A scenario without flows scores every placement at a positive zero.
#[test]
fn coverage_of_a_flowless_scenario_is_a_positive_zero() {
    let grid = GridGraph::new(3, 3, Distance::from_feet(100));
    let flows = FlowSet::route(grid.graph(), Vec::new()).expect("no flows route");
    let s = Scenario::single_shop(
        grid.graph().clone(),
        flows,
        NodeId::new(4),
        UtilityKind::Linear.instantiate(Distance::from_feet(500)),
    )
    .expect("scenario valid");
    let p: Placement = grid.graph().nodes().collect();
    let (objective, covered) = s.coverage(&p);
    assert_eq!((objective.to_bits(), covered), (0, 0));
    assert_eq!(
        report_bits(&PlacementReport::compute(&s, &p)),
        report_bits(&report_oracle(&s, &p))
    );
}
