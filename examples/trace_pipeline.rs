//! The full trace pipeline, end to end: simulate a bus fleet, write the
//! Seattle-schema CSV to disk, read it back, map-match, extract flows, and
//! feed them into a placement — the loop a user with a *real* trace file
//! would follow.
//!
//! ```sh
//! cargo run --release --example trace_pipeline
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rap_vcps::graph::{sssp, Distance, GridGraph, NodeId};
use rap_vcps::placement::{GreedyCoverage, PlacementAlgorithm, Scenario, UtilityKind};
use rap_vcps::trace::{
    drive_path, extract_flows, read_csv, write_csv, BusId, DriveParams, ExtractParams, GpsNoise,
    JourneyId, TraceSchema,
};
use rap_vcps::traffic::FlowSet;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let grid = GridGraph::new(8, 8, Distance::from_feet(1_000));
    let graph = grid.graph().clone();
    let mut rng = StdRng::seed_from_u64(99);

    // 1. Simulate a small fleet: 12 routes, 1-4 buses each.
    let mut records = Vec::new();
    let mut bus = 0u32;
    for route in 0..12u32 {
        let o = NodeId::new(rng.random_range(0..graph.node_count() as u32));
        let d = NodeId::new(rng.random_range(0..graph.node_count() as u32));
        if o == d {
            continue;
        }
        let path = sssp::shortest_path(&graph, o, d)?;
        for _ in 0..rng.random_range(1..=4u32) {
            records.extend(drive_path(
                &graph,
                &path,
                BusId(bus),
                JourneyId(route),
                rng.random_range(0.0..3_600.0),
                DriveParams {
                    speed_fps: 30.0,
                    sample_interval_s: 15.0,
                    noise: GpsNoise::new(80.0),
                },
                &mut rng,
            ));
            bus += 1;
        }
    }
    println!("simulated {} gps records from {bus} buses", records.len());

    // 2. Write and re-read the Seattle-schema CSV.
    let path = std::env::temp_dir().join("rap_vcps_seattle_trace.csv");
    let mut file = std::fs::File::create(&path)?;
    write_csv(&records, TraceSchema::Seattle, &mut file)?;
    let reread = read_csv(std::fs::File::open(&path)?, TraceSchema::Seattle)?;
    println!(
        "csv round-trip via {}: {} records",
        path.display(),
        reread.len()
    );
    assert_eq!(reread.len(), records.len());

    // 3. Map-match and extract flows (Seattle calibration: 200
    //    passengers/bus).
    let specs = extract_flows(
        &graph,
        &reread,
        ExtractParams {
            passengers_per_bus: 200.0,
            attractiveness: 0.001,
        },
    )?;
    println!("recovered {} traffic flows", specs.len());

    // 4. Place RAPs for a shop near the center.
    let flows = FlowSet::route(&graph, specs)?;
    let scenario = Scenario::single_shop(
        graph,
        flows,
        grid.center(),
        UtilityKind::Threshold.instantiate(Distance::from_feet(2_500)),
    )?;
    let placement = GreedyCoverage.place(&scenario, 5, &mut rng);
    println!(
        "{} -> {placement}: {:.3} customers/day",
        GreedyCoverage.name(),
        scenario.evaluate(&placement)
    );
    std::fs::remove_file(&path).ok();
    Ok(())
}
