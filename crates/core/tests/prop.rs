//! Property-based tests for the placement engine: Theorem 1, objective
//! consistency, and the approximation guarantees of Theorem 2 on random
//! exhaustively-solvable instances.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rap_core::{
    CompositeGreedy, ExhaustiveOptimal, FlowDelta, GreedyCoverage, InvertedGainEngine,
    InvertedIndex, LazyGreedy, MarginalGreedy, MutableScenario, Placement, PlacementAlgorithm,
    Scenario, UtilityKind,
};
use rap_graph::{dijkstra, Distance, GridGraph, NodeId};
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

/// The greedy identity contract on one scenario: CELF and the inverted
/// engine reproduce `MarginalGreedy`'s placement and objective bits. The
/// inverted engine runs against the sequential index build and against the
/// parallel build at several worker counts (the test hook bypasses the size
/// cutoff, so small instances still take the parallel path).
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
    for workers in [2usize, 3, 8] {
        let index = InvertedIndex::build_parallel_uncut(s, workers);
        let (inv, _) = InvertedGainEngine.place_with_index(s, &index, k);
        prop_assert_eq!(
            s.evaluate(&inv).to_bits(),
            bits,
            "inverted objective diverged on a {}-worker index ({})",
            workers,
            case
        );
        prop_assert_eq!(
            &inv,
            &seq,
            "inverted diverged on a {}-worker index ({})",
            workers,
            case
        );
    }
    Ok(())
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

    /// CELF and the inverted engine (over sequential and parallel index
    /// builds) reproduce the sequential marginal greedy's placement and
    /// objective bits, for every utility kind.
    #[test]
    fn greedy_variants_identical(inst in arb_instance(), k in 0usize..6) {
        for kind in UtilityKind::ALL {
            let mut inst = inst.clone();
            inst.utility = kind;
            let Some(s) = build(&inst) else { return Ok(()) };
            assert_greedy_identity(&s, k, &format!("{kind}, k={k}"))?;
        }
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
        ops in proptest::collection::vec((0u8..4, 0u32..64, 0u32..64, 1u32..100), 1..8),
    ) {
        let Some(mut ms) = build_mutable(&inst) else { return Ok(()) };
        let n = inst.rows * inst.cols;
        for &(op, a, b, v) in &ops {
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
            // Degenerate deltas (origin == destination, removing the last
            // flow, ...) are rejected and leave the scenario unchanged —
            // exactly what a live stream would see.
            let _ = ms.apply(&delta);
        }
        let snap = ms.snapshot();
        assert_greedy_identity(&snap, k, &format!("after deltas, k={k}"))?;
    }

    /// The parallel counting-sort index build is bitwise identical to the
    /// sequential `InvertedIndex::build` on random grids — single- and
    /// multi-shop — at several worker counts (the test hook bypasses the
    /// size cutoff so small instances still take the parallel path).
    #[test]
    fn threaded_index_build_identical(inst in arb_instance(), shop2 in 0u32..36) {
        for kind in UtilityKind::ALL {
            let mut inst = inst.clone();
            inst.utility = kind;
            let Some(single) = build(&inst) else { return Ok(()) };
            let n = inst.rows * inst.cols;
            let multi = Scenario::new(
                single.graph().clone(),
                single.flows().clone(),
                vec![NodeId::new(inst.shop), NodeId::new(shop2 % n)],
                kind.instantiate(Distance::from_feet(inst.threshold)),
            )
            .expect("multi-shop scenario valid");
            for s in [&single, &multi] {
                let seq = InvertedIndex::build(s);
                for workers in [2usize, 3, 8] {
                    let par = InvertedIndex::build_parallel_uncut(s, workers);
                    prop_assert!(
                        par == seq,
                        "parallel build diverged ({kind}, workers={workers})"
                    );
                }
            }
        }
    }

    /// The parallel index build also stays bitwise identical on snapshots
    /// taken after an arbitrary batch of `MutableScenario` flow deltas.
    #[test]
    fn threaded_index_build_identical_after_deltas(
        inst in arb_instance(),
        ops in proptest::collection::vec((0u8..4, 0u32..64, 0u32..64, 1u32..100), 1..8),
    ) {
        let Some(mut ms) = build_mutable(&inst) else { return Ok(()) };
        let n = inst.rows * inst.cols;
        for &(op, a, b, v) in &ops {
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
        let snap = ms.snapshot();
        let seq = InvertedIndex::build(&snap);
        for workers in [2usize, 5] {
            let par = InvertedIndex::build_parallel_uncut(&snap, workers);
            prop_assert!(par == seq, "parallel build diverged after deltas (workers={workers})");
        }
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
    /// routed flows and two independent Dijkstra trees: same per-node entry
    /// grouping, same flows, same detour distances.
    #[test]
    fn csr_matches_nested_reference(inst in arb_instance()) {
        let Some(s) = build(&inst) else { return Ok(()) };
        let shop = NodeId::new(inst.shop);
        let rev = dijkstra::reverse_shortest_path_tree(s.graph(), shop);
        let fwd = dijkstra::shortest_path_tree(s.graph(), shop);
        let mut nested: Vec<Vec<(FlowId, Distance)>> =
            vec![Vec::new(); s.graph().node_count()];
        for (v, row) in nested.iter_mut().enumerate() {
            let node = NodeId::new(v as u32);
            for visit in s.flows().visits_at(node) {
                let flow = s.flows().flow(visit.flow);
                let (Some(d1), Some(d2)) =
                    (rev.distance(node), fwd.distance(flow.destination()))
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
