//! Property-based tests for the trace tooling: CSV codec round-trips and
//! map-matching recovery.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rap_graph::{sssp, Distance, GridGraph, NodeId, Point};
use rap_trace::{
    drive_path, extract_flows, match_fixes, read_csv, write_csv, BusId, DriveParams, ExtractParams,
    GpsNoise, GpsPoint, JourneyId, TraceRecord, TraceSchema,
};

fn arb_record() -> impl Strategy<Value = TraceRecord> {
    (
        0u32..1_000,
        0u32..100,
        -1.0e5..1.0e5f64,
        -1.0e5..1.0e5f64,
        0.0..86_400.0f64,
    )
        .prop_map(|(bus, journey, x, y, t)| TraceRecord {
            bus: BusId(bus),
            journey: JourneyId(journey),
            fix: GpsPoint::new(Point::new(x, y), t),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CSV round-trips arbitrary records exactly in both schemas.
    #[test]
    fn csv_roundtrip(records in proptest::collection::vec(arb_record(), 0..40)) {
        for schema in [TraceSchema::Dublin, TraceSchema::Seattle] {
            let mut buf = Vec::new();
            write_csv(&records, schema, &mut buf).expect("write succeeds");
            let back = read_csv(buf.as_slice(), schema).expect("read succeeds");
            prop_assert_eq!(&back, &records);
        }
    }

    /// Driving any OD pair noiselessly and map-matching recovers the exact
    /// endpoints and the shortest-path length.
    #[test]
    fn noiseless_drive_roundtrip(
        o in 0u32..36,
        d in 0u32..36,
        interval in 1.0..60.0f64,
        speed in 10.0..60.0f64,
    ) {
        prop_assume!(o != d);
        let grid = GridGraph::new(6, 6, Distance::from_feet(500));
        let g = grid.graph();
        let path = sssp::shortest_path(g, NodeId::new(o), NodeId::new(d)).expect("connected");
        let recs = drive_path(
            g,
            &path,
            BusId(0),
            JourneyId(0),
            0.0,
            DriveParams {
                speed_fps: speed,
                sample_interval_s: interval,
                noise: GpsNoise::NONE,
            },
            &mut StdRng::seed_from_u64(0),
        );
        let matched = match_fixes(g, &recs).expect("matchable").expect("non-trivial");
        prop_assert_eq!(matched.origin(), NodeId::new(o));
        prop_assert_eq!(matched.destination(), NodeId::new(d));
        prop_assert_eq!(matched.length(), path.length());
    }

    /// With sub-half-block GPS noise the extracted flow volume still counts
    /// every bus.
    #[test]
    fn extraction_counts_buses(buses in 1u32..6, noise in 0.0..100.0f64, seed in 0u64..20) {
        let grid = GridGraph::new(5, 5, Distance::from_feet(1_000));
        let g = grid.graph();
        let path = sssp::shortest_path(g, NodeId::new(0), NodeId::new(24)).expect("connected");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut records = Vec::new();
        for b in 0..buses {
            records.extend(drive_path(
                g,
                &path,
                BusId(b),
                JourneyId(7),
                0.0,
                DriveParams {
                    speed_fps: 30.0,
                    sample_interval_s: 10.0,
                    noise: GpsNoise::new(noise),
                },
                &mut rng,
            ));
        }
        let specs = extract_flows(
            g,
            &records,
            ExtractParams {
                passengers_per_bus: 100.0,
                attractiveness: 0.001,
            },
        )
        .expect("extraction succeeds");
        prop_assert_eq!(specs.len(), 1);
        prop_assert_eq!(specs[0].volume(), buses as f64 * 100.0);
    }
}
