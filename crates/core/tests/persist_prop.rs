//! Property tests for snapshot persistence: for arbitrary delta histories
//! (including rejections and compactions), save -> load -> save is
//! byte-identical and the serving decode equals the resume decode bit for
//! bit. Crash recovery from arbitrary crash points is checked where it
//! runs, on `rap_stream::prepare_resume` (the root `tests/stream_recovery.rs`).

use proptest::prelude::*;
use rap_core::{
    decode_serving_snapshot, decode_snapshot, encode_snapshot, snapshot_crc32, FlowDelta,
    MutableScenario, Placement, Scenario, UtilityKind, WalOp,
};
use rap_graph::{Distance, GridGraph, NodeId};
use rap_traffic::{FlowSet, FlowSpec};

/// One raw op tuple: (kind, a, b, v) resolved against the live scenario.
type RawOp = (u8, u32, u32, u32);

fn arb_ops() -> impl Strategy<Value = Vec<RawOp>> {
    proptest::collection::vec((0u8..5, 0u32..64, 0u32..64, 1u32..100), 1..24)
}

/// The 4x4 base scenario every property starts from.
fn scenario() -> MutableScenario {
    let grid = GridGraph::new(4, 4, Distance::from_feet(100));
    let specs = vec![
        FlowSpec::new(NodeId::new(0), NodeId::new(15), 900.0)
            .unwrap()
            .with_attractiveness(0.3)
            .unwrap(),
        FlowSpec::new(NodeId::new(3), NodeId::new(12), 500.0)
            .unwrap()
            .with_attractiveness(0.2)
            .unwrap(),
    ];
    let flows = FlowSet::route(grid.graph(), specs).unwrap();
    MutableScenario::new(
        grid.graph().clone(),
        flows,
        vec![NodeId::new(5)],
        UtilityKind::Linear.instantiate(Distance::from_feet(600)),
    )
    .unwrap()
}

/// Resolves a raw tuple against the *current* live-id set, exactly as a
/// live source would (the mapping is deterministic given the history, so
/// reference and crashed runs that share a prefix resolve identically).
fn wal_op(ms: &MutableScenario, (op, a, b, v): RawOp) -> WalOp {
    let live = ms.live_stable_ids();
    let pick = |a: u32| live[a as usize % live.len()];
    match op {
        0 => WalOp::Delta(FlowDelta::AddFlow {
            origin: NodeId::new(a % 16),
            destination: NodeId::new(b % 16),
            volume: v as f64,
            alpha: 0.4,
        }),
        1 if !live.is_empty() => WalOp::Delta(FlowDelta::RemoveFlow { flow: pick(a) }),
        2 if !live.is_empty() => WalOp::Delta(FlowDelta::RescaleFlow {
            flow: pick(a),
            factor: 0.25 + v as f64 / 50.0,
        }),
        3 if !live.is_empty() => WalOp::Delta(FlowDelta::SetAlpha {
            flow: pick(a),
            alpha: (v % 10) as f64 / 10.0,
        }),
        4 => WalOp::Compact,
        // Ops 1-3 against an empty scenario degrade to compactions so the
        // stream length stays fixed.
        _ => WalOp::Compact,
    }
}

/// Applies one op the way the stream pipeline does: rejected deltas leave
/// the scenario untouched (rejections are deterministic, so they replay
/// to rejections again).
fn apply_op(ms: &mut MutableScenario, op: &WalOp) {
    match op {
        WalOp::Compact => ms.compact(),
        WalOp::Delta(d) => {
            let _ = ms.apply(d);
        }
    }
}

/// Asserts two scenarios equal field for field and bit for bit: the graph,
/// every flow's id, spec and path, the first-visit index, the detour table
/// with its shop distances, every entry value, and the candidates.
fn assert_same_scenario(a: &Scenario, b: &Scenario) {
    let (ga, gb) = (a.graph(), b.graph());
    assert_eq!(ga.node_count(), gb.node_count());
    for v in 0..ga.node_count() {
        let node = NodeId::new(v as u32);
        let (pa, pb) = (ga.point(node), gb.point(node));
        assert_eq!(
            (pa.x.to_bits(), pa.y.to_bits()),
            (pb.x.to_bits(), pb.y.to_bits())
        );
    }
    let edges = |g: &rap_graph::RoadGraph| -> Vec<(u32, u32, u64)> {
        g.edges()
            .map(|e| (e.src.raw(), e.dst.raw(), e.length.feet()))
            .collect()
    };
    assert_eq!(edges(ga), edges(gb));
    assert_eq!(a.shops(), b.shops());
    assert_eq!(a.utility().name(), b.utility().name());
    assert_eq!(a.utility().threshold(), b.utility().threshold());

    assert_eq!(a.flows().len(), b.flows().len());
    for (fa, fb) in a.flows().iter().zip(b.flows()) {
        assert_eq!(fa.id(), fb.id());
        assert_eq!(
            (fa.origin(), fa.destination()),
            (fb.origin(), fb.destination())
        );
        assert_eq!(fa.volume().to_bits(), fb.volume().to_bits());
        assert_eq!(fa.attractiveness().to_bits(), fb.attractiveness().to_bits());
        assert_eq!(fa.path(), fb.path());
    }
    assert_eq!(a.flows().node_count(), b.flows().node_count());
    for v in 0..ga.node_count() {
        let node = NodeId::new(v as u32);
        assert_eq!(
            a.flows().visits_at(node),
            b.flows().visits_at(node),
            "visits at {node}"
        );
        assert_eq!(a.entries_at(node), b.entries_at(node), "entries at {node}");
        assert_eq!(
            a.detours().shop_distance(node),
            b.detours().shop_distance(node),
            "shop distance at {node}"
        );
        let (af, av) = a.value_entries_at(node);
        let (bf, bv) = b.value_entries_at(node);
        assert_eq!(af, bf, "entry flows at {node}");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(av), bits(bv), "entry values at {node}");
    }
    assert_eq!(a.detours().flow_count(), b.detours().flow_count());
    assert_eq!(a.candidates(), b.candidates());
    // Anything the fields above miss shows in the full dump.
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The serving decode builds exactly the scenario a resume decode
    /// materializes, for arbitrary histories (tombstones, overlay rows,
    /// compactions), with and without a placement and extra bytes.
    #[test]
    fn serving_decode_matches_the_materialized_resume(
        ops in arb_ops(),
        placed in 0u8..2,
        extra_len in 0usize..4,
        threads in 1usize..3,
    ) {
        let mut ms = scenario();
        for &raw in &ops {
            let op = wal_op(&ms, raw);
            apply_op(&mut ms, &op);
        }
        let placement = (placed == 1).then(|| Placement::new(vec![NodeId::new(9), NodeId::new(6)]));
        let extra = vec![0x5A; extra_len];
        let bytes = encode_snapshot(&ms, placement.as_ref(), ops.len() as u64, &extra).unwrap();
        let mut resumed = decode_snapshot(&bytes).unwrap();
        let served = decode_serving_snapshot(&bytes, threads).unwrap();
        prop_assert_eq!(&served.placement, &resumed.placement);
        prop_assert_eq!(served.scenario_epoch, resumed.scenario.epoch());
        prop_assert_eq!(served.live_flows, resumed.scenario.live_flows());
        prop_assert_eq!(served.file_crc32, snapshot_crc32(&bytes));
        assert_same_scenario(&served.scenario, &resumed.scenario.snapshot());
    }

    /// save -> load -> save is byte-identical for arbitrary histories.
    #[test]
    fn save_load_save_is_byte_identical(ops in arb_ops()) {
        let mut ms = scenario();
        for &raw in &ops {
            let op = wal_op(&ms, raw);
            apply_op(&mut ms, &op);
        }
        let bytes = encode_snapshot(&ms, None, ops.len() as u64, &[7, 7]).unwrap();
        let decoded = decode_snapshot(&bytes).unwrap();
        prop_assert_eq!(decoded.source_position, ops.len() as u64);
        let again = encode_snapshot(&decoded.scenario, None, ops.len() as u64, &[7, 7]).unwrap();
        prop_assert_eq!(bytes, again);
    }
}
