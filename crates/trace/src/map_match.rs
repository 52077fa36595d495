//! Map matching: from noisy GPS fixes back to road-network paths and flows.
//!
//! The paper derives its traffic flows from raw bus traces; this module
//! closes our synthetic loop the same way:
//!
//! 1. group trace records by journey/route id,
//! 2. snap each bus's time-ordered fixes to nearest intersections,
//! 3. collapse repeats and bridge gaps with shortest paths to obtain a valid
//!    walk through the graph,
//! 4. one matched path per journey (from the journey's most frequent bus
//!    path), one [`rap_traffic::FlowSpec`] per journey, with volume
//!    `buses_observed × passengers_per_bus` (the paper assumes 100
//!    passengers/bus/day in Dublin, 200 in Seattle).

use crate::error::TraceError;
use crate::gps::{BusId, JourneyId, TraceRecord};
use rap_graph::{sssp, NodeId, Path, RoadGraph};
use rap_traffic::FlowSpec;
use std::collections::BTreeMap;

/// Snaps one bus's time-ordered fixes to a valid path through `graph`.
///
/// Consecutive identical snaps are collapsed; non-adjacent consecutive snaps
/// are bridged with a shortest path. Returns `None` when the records snap to
/// a single intersection (no movement — such fragments carry no flow
/// information).
///
/// # Errors
///
/// [`TraceError::UnmatchableTrace`] when two consecutive snapped
/// intersections are mutually unreachable in `graph`.
pub fn match_fixes(graph: &RoadGraph, records: &[TraceRecord]) -> Result<Option<Path>, TraceError> {
    // Snap, collapsing consecutive duplicates.
    let mut snapped: Vec<NodeId> = Vec::with_capacity(records.len());
    for r in records {
        let node = graph
            .nearest_node(r.fix.position)
            .ok_or(TraceError::EmptyGraph)?;
        if snapped.last() != Some(&node) {
            snapped.push(node);
        }
    }
    if snapped.len() < 2 {
        return Ok(None);
    }
    // Bridge non-adjacent hops with shortest paths.
    let mut walk: Vec<NodeId> = vec![snapped[0]];
    for w in snapped.windows(2) {
        let (a, b) = (w[0], w[1]);
        if graph.edge_length(a, b).is_some() {
            walk.push(b);
            continue;
        }
        let bridge = sssp::shortest_path(graph, a, b)
            .map_err(|_| TraceError::UnmatchableTrace { from: a, to: b })?;
        walk.extend_from_slice(&bridge.nodes()[1..]);
    }
    let path = Path::new(graph, walk).map_err(TraceError::from)?;
    Ok(Some(path))
}

/// Options for [`extract_flows`].
#[derive(Clone, Copy, Debug)]
pub struct ExtractParams {
    /// Potential customers carried per observed bus per day (100 for the
    /// Dublin assumption, 200 for Seattle).
    pub passengers_per_bus: f64,
    /// Advertisement attractiveness `α` assigned to every extracted flow.
    pub attractiveness: f64,
}

impl Default for ExtractParams {
    fn default() -> Self {
        ExtractParams {
            passengers_per_bus: 100.0,
            attractiveness: rap_traffic::flow::DEFAULT_ATTRACTIVENESS,
        }
    }
}

/// A matched journey: its representative path and observed bus count.
#[derive(Clone, Debug)]
pub struct MatchedJourney {
    /// The journey/route id.
    pub journey: JourneyId,
    /// The representative matched path.
    pub path: Path,
    /// Number of distinct buses observed serving the journey.
    pub buses: usize,
}

/// Groups `records` by journey, map-matches each bus's fragment, and elects
/// each journey's representative path — the longest matched fragment, which
/// is the most complete observation of the route.
///
/// Unmatchable or stationary fragments are dropped (real traces contain
/// such noise too); journeys whose every fragment drops are omitted.
pub fn match_journeys(graph: &RoadGraph, records: &[TraceRecord]) -> Vec<MatchedJourney> {
    // journey -> bus -> time-ordered records.
    let mut grouped: BTreeMap<JourneyId, BTreeMap<BusId, Vec<TraceRecord>>> = BTreeMap::new();
    for r in records {
        grouped
            .entry(r.journey)
            .or_default()
            .entry(r.bus)
            .or_default()
            .push(*r);
    }
    let mut journeys = Vec::new();
    for (journey, buses) in grouped {
        let mut best: Option<Path> = None;
        let mut observed = 0usize;
        for (_bus, mut recs) in buses {
            // total_cmp, not partial_cmp: callers may pass records that never
            // went through `TraceRecord::validate`, and a NaN timestamp must
            // not panic the matcher — NaN sorts last and the fix is harmless.
            recs.sort_by(|a, b| a.fix.time_s.total_cmp(&b.fix.time_s));
            if let Ok(Some(path)) = match_fixes(graph, &recs) {
                observed += 1;
                let better = match &best {
                    Some(cur) => path.length() > cur.length(),
                    None => true,
                };
                if better {
                    best = Some(path);
                }
            }
        }
        if let Some(path) = best {
            journeys.push(MatchedJourney {
                journey,
                path,
                buses: observed,
            });
        }
    }
    journeys
}

/// Full pipeline: records → matched journeys → flow specs.
///
/// Journeys whose matched path starts and ends at the same intersection are
/// dropped (degenerate loops carry no OD demand).
///
/// # Errors
///
/// Propagates invalid parameter combinations as [`TraceError::BadParams`].
pub fn extract_flows(
    graph: &RoadGraph,
    records: &[TraceRecord],
    params: ExtractParams,
) -> Result<Vec<FlowSpec>, TraceError> {
    if !(params.passengers_per_bus.is_finite() && params.passengers_per_bus > 0.0) {
        return Err(TraceError::BadParams {
            message: format!(
                "passengers per bus must be positive, got {}",
                params.passengers_per_bus
            ),
        });
    }
    let mut specs = Vec::new();
    for j in match_journeys(graph, records) {
        if j.path.origin() == j.path.destination() {
            continue;
        }
        let volume = j.buses as f64 * params.passengers_per_bus;
        let spec = FlowSpec::new(j.path.origin(), j.path.destination(), volume)
            .map_err(|e| TraceError::BadParams {
                message: e.to_string(),
            })?
            .with_attractiveness(params.attractiveness)
            .map_err(|e| TraceError::BadParams {
                message: e.to_string(),
            })?;
        specs.push(spec);
    }
    Ok(specs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::{drive_path, DriveParams};
    use crate::gps::GpsNoise;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rap_graph::{Distance, GridGraph};

    fn grid() -> rap_graph::RoadGraph {
        GridGraph::new(4, 4, Distance::from_feet(400)).into_graph()
    }

    fn simulate(
        graph: &rap_graph::RoadGraph,
        o: u32,
        d: u32,
        bus: u32,
        journey: u32,
        noise: f64,
        seed: u64,
    ) -> Vec<TraceRecord> {
        let path = sssp::shortest_path(graph, NodeId::new(o), NodeId::new(d)).unwrap();
        drive_path(
            graph,
            &path,
            BusId(bus),
            JourneyId(journey),
            0.0,
            DriveParams {
                speed_fps: 30.0,
                sample_interval_s: 5.0,
                noise: GpsNoise::new(noise),
            },
            &mut StdRng::seed_from_u64(seed),
        )
    }

    #[test]
    fn noiseless_roundtrip_recovers_od() {
        let g = grid();
        let recs = simulate(&g, 0, 15, 1, 1, 0.0, 0);
        let path = match_fixes(&g, &recs).unwrap().unwrap();
        assert_eq!(path.origin(), NodeId::new(0));
        assert_eq!(path.destination(), NodeId::new(15));
        // The matched path length equals the true shortest path length.
        assert_eq!(path.length(), Distance::from_feet(2400));
    }

    #[test]
    fn mild_noise_still_recovers_od() {
        let g = grid();
        // 40 ft of noise against 400 ft blocks: snapping stays correct.
        let recs = simulate(&g, 0, 15, 1, 1, 40.0, 7);
        let path = match_fixes(&g, &recs).unwrap().unwrap();
        assert_eq!(path.origin(), NodeId::new(0));
        assert_eq!(path.destination(), NodeId::new(15));
    }

    #[test]
    fn stationary_fragment_is_dropped() {
        let g = grid();
        let p = rap_graph::Path::trivial(NodeId::new(5));
        let recs = drive_path(
            &g,
            &p,
            BusId(0),
            JourneyId(0),
            0.0,
            DriveParams {
                noise: GpsNoise::NONE,
                ..DriveParams::default()
            },
            &mut StdRng::seed_from_u64(0),
        );
        assert!(match_fixes(&g, &recs).unwrap().is_none());
    }

    #[test]
    fn journey_volume_counts_buses() {
        let g = grid();
        let mut records = Vec::new();
        for bus in 0..3 {
            records.extend(simulate(&g, 0, 15, bus, 1, 20.0, bus as u64));
        }
        records.extend(simulate(&g, 3, 12, 9, 2, 20.0, 99));
        let specs = extract_flows(
            &g,
            &records,
            ExtractParams {
                passengers_per_bus: 100.0,
                attractiveness: 0.001,
            },
        )
        .unwrap();
        assert_eq!(specs.len(), 2);
        let j1 = specs
            .iter()
            .find(|s| s.origin() == NodeId::new(0))
            .expect("journey 1 extracted");
        assert_eq!(j1.volume(), 300.0);
        let j2 = specs
            .iter()
            .find(|s| s.origin() == NodeId::new(3))
            .expect("journey 2 extracted");
        assert_eq!(j2.volume(), 100.0);
    }

    #[test]
    fn records_out_of_order_are_sorted_per_bus() {
        let g = grid();
        let mut recs = simulate(&g, 0, 3, 1, 1, 0.0, 0);
        recs.reverse();
        let journeys = match_journeys(&g, &recs);
        assert_eq!(journeys.len(), 1);
        assert_eq!(journeys[0].path.origin(), NodeId::new(0));
        assert_eq!(journeys[0].path.destination(), NodeId::new(3));
    }

    #[test]
    fn bad_params_rejected() {
        let g = grid();
        let err = extract_flows(
            &g,
            &[],
            ExtractParams {
                passengers_per_bus: 0.0,
                attractiveness: 0.001,
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("passengers"));
    }

    #[test]
    fn empty_records_produce_no_flows() {
        let g = grid();
        let specs = extract_flows(&g, &[], ExtractParams::default()).unwrap();
        assert!(specs.is_empty());
    }
}
