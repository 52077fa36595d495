//! City models: the synthetic Dublin and Seattle substrates.
//!
//! The paper evaluates on two real bus traces we cannot redistribute:
//!
//! * Dublin's central area — an irregular (non-grid) street plan within an
//!   80,000 × 80,000 ft window; each bus assumed to carry 100 potential
//!   customers per day.
//! * Seattle's central area — a *partially* grid-based plan within a
//!   10,000 × 10,000 ft window; each bus assumed to carry 200.
//!
//! A [`CityModel`] reproduces each end to end: generate a street network with
//! the city's gross structure, generate bus journeys on it, *simulate* the
//! GPS feed (noise and all), then recover traffic flows through the same
//! map-matching pipeline a real trace would go through, and classify
//! intersections into city-center / city / suburb zones. The placement
//! algorithms downstream only ever see the recovered [`FlowSet`], exactly as
//! the paper's algorithms only see flows derived from the traces.

use crate::bus::{drive_path, DriveParams};
use crate::error::TraceError;
use crate::gps::{BusId, GpsNoise, JourneyId, TraceRecord};
use crate::map_match::{extract_flows, ExtractParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rap_graph::sssp::SsspWorkspace;
use rap_graph::{generators, Direction, Distance, NodeId, Path, Point, RoadGraph};
use rap_traffic::zones::{ZoneMap, ZoneThresholds};
use rap_traffic::{demand, FlowSet, Zone};
use std::collections::HashMap;

/// A fully generated city: street network, recovered flows, zone labels.
#[derive(Clone, Debug)]
pub struct CityModel {
    name: &'static str,
    graph: RoadGraph,
    flows: FlowSet,
    zones: ZoneMap,
    trace_records: usize,
}

impl CityModel {
    /// The city's name ("dublin" or "seattle").
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The street network.
    pub fn graph(&self) -> &RoadGraph {
        &self.graph
    }

    /// The traffic flows recovered from the simulated trace.
    pub fn flows(&self) -> &FlowSet {
        &self.flows
    }

    /// Zone labels for every intersection.
    pub fn zones(&self) -> &ZoneMap {
        &self.zones
    }

    /// Number of raw trace records the flows were recovered from.
    pub fn trace_records(&self) -> usize {
        self.trace_records
    }

    /// Intersections in `zone`, the candidate shop locations of the paper's
    /// shop-location experiments.
    pub fn shop_candidates(&self, zone: Zone) -> Vec<NodeId> {
        self.zones.nodes_in(zone)
    }
}

/// Generation knobs shared by both city models.
#[derive(Clone, Copy, Debug)]
pub struct CityParams {
    /// Number of bus journeys (≈ traffic flows before degenerate drops).
    pub journeys: usize,
    /// Minimum buses observed per journey.
    pub min_buses: u32,
    /// Maximum buses observed per journey.
    pub max_buses: u32,
    /// Potential customers per bus per day.
    pub passengers_per_bus: f64,
    /// Advertisement attractiveness `α` for every flow.
    pub attractiveness: f64,
    /// GPS noise standard deviation in feet.
    pub gps_noise_feet: f64,
    /// Bus cruise speed in feet/second.
    pub speed_fps: f64,
    /// Seconds between GPS fixes.
    pub sample_interval_s: f64,
}

impl CityParams {
    /// The Dublin defaults: 120 journeys, 100 passengers/bus (paper
    /// Section V-A), 60 ft GPS noise against ~1,000+ ft blocks.
    pub fn dublin() -> Self {
        CityParams {
            journeys: 120,
            min_buses: 1,
            max_buses: 6,
            passengers_per_bus: 100.0,
            attractiveness: rap_traffic::flow::DEFAULT_ATTRACTIVENESS,
            gps_noise_feet: 60.0,
            speed_fps: 30.0,
            sample_interval_s: 20.0,
        }
    }

    /// The Seattle defaults: 80 routes, 200 passengers/bus (paper
    /// Section V-A), 25 ft GPS noise against 1,000 ft blocks.
    pub fn seattle() -> Self {
        CityParams {
            journeys: 80,
            min_buses: 1,
            max_buses: 5,
            passengers_per_bus: 200.0,
            attractiveness: rap_traffic::flow::DEFAULT_ATTRACTIVENESS,
            gps_noise_feet: 25.0,
            speed_fps: 30.0,
            sample_interval_s: 15.0,
        }
    }

    fn validate(&self) -> Result<(), TraceError> {
        if self.journeys == 0 {
            return Err(TraceError::BadParams {
                message: "at least one journey required".into(),
            });
        }
        if self.min_buses == 0 || self.min_buses > self.max_buses {
            return Err(TraceError::BadParams {
                message: format!("bus range [{}, {}] invalid", self.min_buses, self.max_buses),
            });
        }
        Ok(())
    }
}

/// Builds the Dublin-like city: an irregular radial-ring street plan scaled
/// to the paper's 80,000 × 80,000 ft central area, with commuter journeys
/// (home-bound traffic, Section I) and a trace-recovery pipeline.
///
/// # Errors
///
/// Propagates invalid parameters and (never in practice on this connected
/// generator) map-matching failures.
pub fn dublin(params: CityParams, seed: u64) -> Result<CityModel, TraceError> {
    params.validate()?;
    let center = Point::new(40_000.0, 40_000.0);
    let graph = generators::radial_ring_city(
        center,
        generators::RadialRingParams {
            rings: 7,
            spokes: 12,
            ring_spacing: 5_400.0,
            jitter: 0.18,
            chord_probability: 0.35,
        },
        seed,
    );
    // Commuter demand: origins near the center (offices), destinations
    // outward (homes) — the flows the shop wants to catch on their way home.
    let od = demand::commuter_demand(
        &graph,
        center,
        4.0,
        demand::DemandParams {
            flows: params.journeys,
            min_volume: 1.0, // volumes are re-derived from bus counts
            max_volume: 1.0,
            attractiveness: params.attractiveness,
        },
        seed.wrapping_add(1),
    )
    .map_err(|e| TraceError::BadParams {
        message: e.to_string(),
    })?;
    build_city("dublin", graph, od, params, seed.wrapping_add(2))
}

/// Builds the Seattle-like city: a perturbed Manhattan grid scaled to the
/// paper's 10,000 × 10,000 ft central area (partially grid-based, like the
/// real plan), with route traffic and the same trace-recovery pipeline.
///
/// # Errors
///
/// Propagates invalid parameters.
pub fn seattle(params: CityParams, seed: u64) -> Result<CityModel, TraceError> {
    params.validate()?;
    let graph = generators::perturbed_grid(
        generators::PerturbedGridParams {
            rows: 11,
            cols: 11,
            spacing: Distance::from_feet(1_000),
            delete_probability: 0.07,
            diagonal_probability: 0.04,
        },
        seed,
    );
    let center = Point::new(5_000.0, 5_000.0);
    let od = demand::gravity_demand(
        &graph,
        center,
        demand::DemandParams {
            flows: params.journeys,
            min_volume: 1.0,
            max_volume: 1.0,
            attractiveness: params.attractiveness,
        },
        seed.wrapping_add(1),
    )
    .map_err(|e| TraceError::BadParams {
        message: e.to_string(),
    })?;
    build_city("seattle", graph, od, params, seed.wrapping_add(2))
}

/// Shared tail of the pipeline: journeys → simulated GPS feed → map-matched
/// flows → zone classification.
fn build_city(
    name: &'static str,
    graph: RoadGraph,
    od: Vec<rap_traffic::FlowSpec>,
    params: CityParams,
    seed: u64,
) -> Result<CityModel, TraceError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let drive = DriveParams {
        speed_fps: params.speed_fps,
        sample_interval_s: params.sample_interval_s,
        noise: GpsNoise::new(params.gps_noise_feet),
    };
    let mut records: Vec<TraceRecord> = Vec::new();
    let mut next_bus = 0u32;
    // Route every journey up front: specs sharing an origin extract all
    // their destinations from one early-exit tree run (the same trick
    // `FlowSet::route` uses) instead of a full Dijkstra per spec. The rng
    // draws below keep their original per-journey order, so city models stay
    // seed-deterministic.
    let mut paths: Vec<Option<Path>> = vec![None; od.len()];
    {
        let mut groups: Vec<(NodeId, Vec<usize>)> = Vec::new();
        let mut slot: HashMap<NodeId, usize> = HashMap::new();
        for (j, spec) in od.iter().enumerate() {
            let g = *slot.entry(spec.origin()).or_insert_with(|| {
                groups.push((spec.origin(), Vec::new()));
                groups.len() - 1
            });
            groups[g].1.push(j);
        }
        let mut ws = SsspWorkspace::for_graph(&graph);
        for (origin, idxs) in &groups {
            let targets: Vec<NodeId> = idxs.iter().map(|&j| od[j].destination()).collect();
            ws.run_to_targets(&graph, *origin, Direction::Forward, &targets);
            for &j in idxs {
                // Disconnected OD pair: leave unrouted, skipped like real noise.
                paths[j] = ws.path_to(od[j].destination()).ok();
            }
        }
    }
    for (j, path) in paths.iter().enumerate() {
        let path = match path {
            Some(p) => p,
            None => continue,
        };
        let buses = if params.min_buses == params.max_buses {
            params.min_buses
        } else {
            rng.random_range(params.min_buses..=params.max_buses)
        };
        for _ in 0..buses {
            let start = rng.random_range(0.0..86_400.0);
            records.extend(drive_path(
                &graph,
                path,
                BusId(next_bus),
                JourneyId(j as u32),
                start,
                drive,
                &mut rng,
            ));
            next_bus += 1;
        }
    }
    let specs = extract_flows(
        &graph,
        &records,
        ExtractParams {
            passengers_per_bus: params.passengers_per_bus,
            attractiveness: params.attractiveness,
        },
    )?;
    let flows = FlowSet::route(&graph, specs).map_err(|e| TraceError::BadParams {
        message: e.to_string(),
    })?;
    let zones = ZoneMap::classify(&flows, ZoneThresholds::default());
    Ok(CityModel {
        name,
        graph,
        flows,
        zones,
        trace_records: records.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(params: CityParams) -> CityParams {
        CityParams {
            journeys: 25,
            max_buses: 3,
            ..params
        }
    }

    #[test]
    fn dublin_model_generates() {
        let city = dublin(small(CityParams::dublin()), 7).unwrap();
        assert_eq!(city.name(), "dublin");
        assert!(city.graph().node_count() > 50);
        assert!(!city.flows().is_empty(), "no flows recovered");
        assert!(city.trace_records() > 100);
        // Volumes are multiples of 100 (passengers per bus).
        for f in city.flows() {
            let v = f.volume();
            assert!(
                (v / 100.0).fract().abs() < 1e-9,
                "volume {v} not a multiple of 100"
            );
            assert!(v >= 100.0);
        }
        // The 80k ft extent is roughly respected.
        let bb = city.graph().bounding_box().unwrap();
        assert!(bb.width() > 40_000.0 && bb.width() < 110_000.0);
    }

    #[test]
    fn seattle_model_generates() {
        let city = seattle(small(CityParams::seattle()), 3).unwrap();
        assert_eq!(city.name(), "seattle");
        assert_eq!(city.graph().node_count(), 121);
        assert!(!city.flows().is_empty());
        for f in city.flows() {
            assert!((f.volume() / 200.0).fract().abs() < 1e-9);
        }
        let bb = city.graph().bounding_box().unwrap();
        assert!((bb.width() - 10_000.0).abs() < 1e-9);
    }

    #[test]
    fn models_are_seed_deterministic() {
        let a = seattle(small(CityParams::seattle()), 11).unwrap();
        let b = seattle(small(CityParams::seattle()), 11).unwrap();
        assert_eq!(a.flows().len(), b.flows().len());
        assert_eq!(a.trace_records(), b.trace_records());
        for (fa, fb) in a.flows().iter().zip(b.flows().iter()) {
            assert_eq!(fa.origin(), fb.origin());
            assert_eq!(fa.destination(), fb.destination());
            assert_eq!(fa.volume(), fb.volume());
        }
    }

    #[test]
    fn zones_cover_all_three_classes() {
        let city = dublin(small(CityParams::dublin()), 5).unwrap();
        for zone in [Zone::CityCenter, Zone::City, Zone::Suburb] {
            assert!(
                !city.shop_candidates(zone).is_empty(),
                "no {zone} intersections"
            );
        }
    }

    #[test]
    fn invalid_params_rejected() {
        let mut p = CityParams::dublin();
        p.journeys = 0;
        assert!(dublin(p, 0).is_err());
        let mut p = CityParams::seattle();
        p.min_buses = 5;
        p.max_buses = 2;
        assert!(seattle(p, 0).is_err());
    }
}
