//! Property-based equivalence of the streaming scenario maintenance:
//! after any sequence of flow deltas (adds, removes, rescales, α changes,
//! forced compactions), a `MutableScenario` snapshot must be
//! *bit-identical* to a from-scratch `Scenario` rebuild of the surviving
//! flows — same CSR rows, same entry values, same objective, and identical
//! placements from every registered greedy engine. The measurements the
//! stream maintainer reads straight off the maintained arrays
//! (`evaluate_current`, the live singleton bound) must match the snapshot's
//! bits after every delta.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rap_core::{
    singleton_upper_bound, FlowDelta, InvertedGainEngine, InvertedIndex, LazyGreedy,
    MarginalGreedy, MutableScenario, Placement, PlacementAlgorithm, Scenario, UtilityKind,
};
use rap_graph::{Distance, GridGraph, NodeId, RoadGraph};
use rap_traffic::{FlowSet, FlowSpec};
use std::sync::Arc;

/// One scripted mutation; flow-targeting ops pick among live flows by index.
#[derive(Debug, Clone, Copy)]
enum Op {
    Add {
        origin: u32,
        dest: u32,
        volume: u32,
        alpha_pct: u8,
    },
    Remove {
        pick: usize,
    },
    Rescale {
        pick: usize,
        factor_pct: u16, // 50..=150 → factor 0.50..=1.50
    },
    SetAlpha {
        pick: usize,
        alpha_pct: u8,
    },
    Compact,
}

#[derive(Debug, Clone)]
struct Script {
    rows: u32,
    cols: u32,
    initial: Vec<(u32, u32, u32, u8)>, // origin, dest, volume, alpha%
    shop: u32,
    utility: UtilityKind,
    threshold: u64,
    /// Tombstone share that triggers auto-compaction; at `1.0` tombstones
    /// stay until a scripted `Compact` or until every entry is dead.
    compact_ratio: f64,
    ops: Vec<Op>,
}

fn arb_op(n: u32) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..n, 0..n, 1u32..100, 0u8..=100).prop_map(|(origin, dest, volume, alpha_pct)| Op::Add {
            origin,
            dest,
            volume,
            alpha_pct,
        }),
        (0usize..8).prop_map(|pick| Op::Remove { pick }),
        (0usize..8, 50u16..=150).prop_map(|(pick, factor_pct)| Op::Rescale { pick, factor_pct }),
        (0usize..8, 0u8..=100).prop_map(|(pick, alpha_pct)| Op::SetAlpha { pick, alpha_pct }),
        Just(Op::Compact),
    ]
}

fn arb_script() -> impl Strategy<Value = Script> {
    (3u32..6, 3u32..6)
        .prop_flat_map(|(rows, cols)| {
            let n = rows * cols;
            let initial = proptest::collection::vec((0..n, 0..n, 1u32..100, 0u8..=100), 1..5);
            let ops = proptest::collection::vec(arb_op(n), 1..12);
            let utility = prop_oneof![
                Just(UtilityKind::Threshold),
                Just(UtilityKind::Linear),
                Just(UtilityKind::Sqrt),
            ];
            (
                Just(rows),
                Just(cols),
                initial,
                0..n,
                utility,
                50u64..2_000,
                prop_oneof![Just(0.25), Just(1.0)],
                ops,
            )
        })
        .prop_map(
            |(rows, cols, initial, shop, utility, threshold, compact_ratio, ops)| Script {
                rows,
                cols,
                initial,
                shop,
                utility,
                threshold,
                compact_ratio,
                ops,
            },
        )
}

/// Independent mirror of the live flow population, tracked as raw spec
/// parameters so the rebuild never reads `MutableScenario` state.
#[derive(Debug, Clone, Copy)]
struct MirrorFlow {
    stable: u64,
    origin: u32,
    dest: u32,
    volume: f64,
    alpha: f64,
}

fn spec_of(m: &MirrorFlow) -> FlowSpec {
    FlowSpec::new(NodeId::new(m.origin), NodeId::new(m.dest), m.volume)
        .expect("mirror volume valid")
        .with_attractiveness(m.alpha)
        .expect("mirror alpha valid")
}

fn rebuild(graph: &RoadGraph, mirror: &[MirrorFlow], shop: u32, script: &Script) -> Scenario {
    let flows = FlowSet::route(graph, mirror.iter().map(spec_of).collect::<Vec<_>>())
        .expect("grid flows route");
    Scenario::single_shop(
        graph.clone(),
        flows,
        NodeId::new(shop),
        script
            .utility
            .instantiate(Distance::from_feet(script.threshold)),
    )
    .expect("scenario valid")
}

/// Bit-level equality of the evaluation state two scenarios expose.
fn assert_bit_identical(snap: &Scenario, fresh: &Scenario) -> Result<(), TestCaseError> {
    prop_assert_eq!(snap.flows().len(), fresh.flows().len());
    for v in 0..snap.graph().node_count() {
        let node = NodeId::new(v as u32);
        prop_assert_eq!(
            snap.entries_at(node),
            fresh.entries_at(node),
            "row {}",
            node
        );
        let (sf, sv) = snap.value_entries_at(node);
        let (ff, fv) = fresh.value_entries_at(node);
        prop_assert_eq!(sf, ff, "entry flows at {}", node);
        let s_bits: Vec<u64> = sv.iter().map(|x| x.to_bits()).collect();
        let f_bits: Vec<u64> = fv.iter().map(|x| x.to_bits()).collect();
        prop_assert_eq!(s_bits, f_bits, "entry value bits at {}", node);
    }
    Ok(())
}

fn rng() -> StdRng {
    StdRng::seed_from_u64(0)
}

/// The live measurements against the snapshot's: the singleton bound for
/// every `k` up to two past the candidate count, and `evaluate_current` on
/// the first three candidates.
fn assert_live_measurements(live: &mut MutableScenario) -> Result<(), TestCaseError> {
    let snap = live.snapshot();
    for k in 0..=snap.candidates().len() + 2 {
        prop_assert_eq!(
            live.singleton_upper_bound(k).to_bits(),
            singleton_upper_bound(&snap, k).to_bits(),
            "live singleton bound diverged at k={}",
            k
        );
    }
    let probe: Placement = snap.candidates().iter().take(3).copied().collect();
    prop_assert_eq!(
        live.evaluate_current(&probe).to_bits(),
        snap.evaluate(&probe).to_bits(),
        "evaluate_current diverged"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole invariant: delta-maintained state ≡ from-scratch rebuild,
    /// bit for bit, at every step of a random delta script — including the
    /// step right after a (forced or threshold-triggered) compaction — and
    /// every registered engine places identically on both.
    #[test]
    fn snapshots_match_rebuilds_bitwise(script in arb_script(), k in 0usize..5) {
        let grid = GridGraph::new(script.rows, script.cols, Distance::from_feet(100));
        let graph = grid.graph().clone();

        let mut mirror: Vec<MirrorFlow> = Vec::new();
        let mut next_stable: u64 = 0;
        for &(origin, dest, volume, alpha_pct) in &script.initial {
            if origin == dest {
                continue;
            }
            mirror.push(MirrorFlow {
                stable: next_stable,
                origin,
                dest,
                volume: volume as f64,
                alpha: alpha_pct as f64 / 100.0,
            });
            next_stable += 1;
        }
        let initial_specs: Vec<FlowSpec> = mirror.iter().map(spec_of).collect();
        let flows = FlowSet::route(&graph, initial_specs).expect("grid flows route");
        let utility = script
            .utility
            .instantiate(Distance::from_feet(script.threshold));
        let mut live = MutableScenario::new(
            graph.clone(),
            flows,
            vec![NodeId::new(script.shop)],
            Arc::clone(&utility),
        )
        .expect("scenario valid")
        .with_compact_ratio(script.compact_ratio);
        prop_assert_eq!(live.next_stable_id(), next_stable);
        assert_live_measurements(&mut live)?;

        for op in &script.ops {
            let compaction_just_ran = match *op {
                Op::Add { origin, dest, volume, alpha_pct } => {
                    if origin == dest {
                        continue;
                    }
                    let alpha = alpha_pct as f64 / 100.0;
                    let out = live
                        .apply(&FlowDelta::AddFlow {
                            origin: NodeId::new(origin),
                            destination: NodeId::new(dest),
                            volume: volume as f64,
                            alpha,
                        })
                        .expect("grid add routable");
                    prop_assert_eq!(out.assigned, Some(next_stable), "stable ids are monotone");
                    mirror.push(MirrorFlow {
                        stable: next_stable,
                        origin,
                        dest,
                        volume: volume as f64,
                        alpha,
                    });
                    next_stable += 1;
                    out.compacted
                }
                Op::Remove { pick } => {
                    if mirror.is_empty() {
                        continue;
                    }
                    let idx = pick % mirror.len();
                    let stable = mirror[idx].stable;
                    let out = live
                        .apply(&FlowDelta::RemoveFlow { flow: stable })
                        .expect("mirror tracks liveness");
                    mirror.remove(idx);
                    out.compacted
                }
                Op::Rescale { pick, factor_pct } => {
                    if mirror.is_empty() {
                        continue;
                    }
                    let idx = pick % mirror.len();
                    let factor = factor_pct as f64 / 100.0;
                    let out = live
                        .apply(&FlowDelta::RescaleFlow {
                            flow: mirror[idx].stable,
                            factor,
                        })
                        .expect("mirror tracks liveness");
                    // Same f64 expression the maintainer evaluates, so the
                    // mirrored volume has identical bits.
                    mirror[idx].volume *= factor;
                    out.compacted
                }
                Op::SetAlpha { pick, alpha_pct } => {
                    if mirror.is_empty() {
                        continue;
                    }
                    let idx = pick % mirror.len();
                    let alpha = alpha_pct as f64 / 100.0;
                    let out = live
                        .apply(&FlowDelta::SetAlpha {
                            flow: mirror[idx].stable,
                            alpha,
                        })
                        .expect("mirror tracks liveness");
                    mirror[idx].alpha = alpha;
                    out.compacted
                }
                Op::Compact => {
                    live.compact();
                    true
                }
            };
            assert_live_measurements(&mut live)?;
            if compaction_just_ran {
                // The acceptance criterion calls out this exact moment:
                // equality must hold right after a compaction renumbers ids.
                prop_assert_eq!(live.dead_entries(), 0);
                let snap = live.snapshot();
                let fresh = rebuild(&graph, &mirror, script.shop, &script);
                assert_bit_identical(&snap, &fresh)?;
            }
        }

        prop_assert_eq!(
            live.live_stable_ids(),
            mirror.iter().map(|m| m.stable).collect::<Vec<_>>()
        );
        let snap = live.snapshot();
        let fresh = rebuild(&graph, &mirror, script.shop, &script);
        assert_bit_identical(&snap, &fresh)?;

        // Every registered engine sees the same flat arrays and must place
        // identically on the snapshot and the rebuild.
        let seq_snap = MarginalGreedy.place(&snap, k, &mut rng());
        let seq_fresh = MarginalGreedy.place(&fresh, k, &mut rng());
        prop_assert_eq!(&seq_snap, &seq_fresh, "marginal diverged");
        prop_assert_eq!(
            snap.evaluate(&seq_snap).to_bits(),
            fresh.evaluate(&seq_fresh).to_bits(),
            "objective bits diverged"
        );
        let bits = fresh.evaluate(&seq_fresh).to_bits();
        let lazy = LazyGreedy.place(&snap, k, &mut rng());
        prop_assert_eq!(&lazy, &seq_fresh, "lazy diverged");
        prop_assert_eq!(snap.evaluate(&lazy).to_bits(), bits, "lazy objective diverged");
        let (inv, _) = InvertedGainEngine.place_with_index(&snap, &InvertedIndex::build(&snap), k);
        prop_assert_eq!(&inv, &seq_fresh, "inverted diverged");
        prop_assert_eq!(snap.evaluate(&inv).to_bits(), bits, "inverted objective diverged");

        // The live measurements read the maintained arrays directly and must
        // agree with the from-scratch rebuild, bit for bit.
        let probe: Placement = snap.candidates().iter().take(3).copied().collect();
        prop_assert_eq!(
            live.evaluate_current(&probe).to_bits(),
            fresh.evaluate(&probe).to_bits(),
            "evaluate_current diverged"
        );
        for k in 0..=fresh.candidates().len() + 2 {
            prop_assert_eq!(
                live.singleton_upper_bound(k).to_bits(),
                singleton_upper_bound(&fresh, k).to_bits(),
                "live singleton bound diverged from the rebuild at k={}",
                k
            );
        }
    }
}
