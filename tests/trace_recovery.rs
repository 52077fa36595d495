//! Demand-recovery quality of the trace pipeline: simulate known ground
//! truth, push it through GPS noise + map matching, and measure the OD error
//! with [`rap_vcps::traffic::OdMatrix`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rap_vcps::graph::{sssp, Distance, GridGraph, NodeId};
use rap_vcps::trace::{
    drive_path, extract_flows, BusId, DriveParams, ExtractParams, GpsNoise, JourneyId,
};
use rap_vcps::traffic::OdMatrix;

/// Simulates `journeys` ground-truth journeys with the given noise and
/// returns (ground truth, recovered) OD matrices.
fn roundtrip(noise_feet: f64, seed: u64) -> (OdMatrix, OdMatrix) {
    let grid = GridGraph::new(6, 6, Distance::from_feet(1_000));
    let graph = grid.graph();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut truth = OdMatrix::new();
    let mut records = Vec::new();
    let mut bus = 0u32;
    for j in 0..15u32 {
        let (o, d) = loop {
            let o = NodeId::new(rng.random_range(0..36));
            let d = NodeId::new(rng.random_range(0..36));
            if o != d {
                break (o, d);
            }
        };
        let buses = rng.random_range(1..=3u32);
        truth.add(o, d, buses as f64 * 100.0);
        let path = sssp::shortest_path(graph, o, d).unwrap();
        for _ in 0..buses {
            records.extend(drive_path(
                graph,
                &path,
                BusId(bus),
                JourneyId(j),
                rng.random_range(0.0..3_600.0),
                DriveParams {
                    speed_fps: 30.0,
                    sample_interval_s: 10.0,
                    noise: GpsNoise::new(noise_feet),
                },
                &mut rng,
            ));
            bus += 1;
        }
    }
    let specs = extract_flows(
        graph,
        &records,
        ExtractParams {
            passengers_per_bus: 100.0,
            attractiveness: 0.001,
        },
    )
    .unwrap();
    (truth, OdMatrix::from_specs(&specs))
}

#[test]
fn noiseless_recovery_is_exact() {
    let (truth, recovered) = roundtrip(0.0, 1);
    assert_eq!(
        truth.l1_distance(&recovered),
        0.0,
        "noiseless pipeline must recover demand exactly"
    );
    assert_eq!(truth.total_volume(), recovered.total_volume());
}

#[test]
fn mild_noise_keeps_total_volume() {
    // 100 ft of noise against 1,000 ft blocks: endpoints may occasionally
    // snap one block off, but no bus is lost, so total volume is preserved.
    let (truth, recovered) = roundtrip(100.0, 2);
    assert_eq!(truth.total_volume(), recovered.total_volume());
    // And the OD error stays a small fraction of the demand.
    let err = truth.l1_distance(&recovered) / truth.total_volume();
    assert!(err < 0.5, "od error fraction {err} too large");
}

#[test]
fn recovery_error_grows_with_noise() {
    let errs: Vec<f64> = [0.0f64, 100.0, 2_000.0]
        .iter()
        .map(|&n| {
            let (truth, recovered) = roundtrip(n, 3);
            truth.l1_distance(&recovered) / truth.total_volume()
        })
        .collect();
    assert_eq!(errs[0], 0.0);
    assert!(
        errs[2] >= errs[1],
        "extreme noise ({}) should hurt at least as much as mild ({})",
        errs[2],
        errs[1]
    );
}
