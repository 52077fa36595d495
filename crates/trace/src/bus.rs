//! Bus journey simulation: driving routed paths and emitting GPS fixes.
//!
//! Stands in for the physical buses behind the Dublin/Seattle traces: each
//! simulated bus drives a journey's path at a constant cruise speed, sampling
//! a noisy GPS fix at a fixed reporting interval — the same shape as the real
//! feeds (Dublin buses report roughly every 20 s).

use crate::gps::{BusId, GpsNoise, GpsPoint, JourneyId, TraceRecord};
use rand::Rng;
use rap_graph::{Path, Point, RoadGraph};

/// Simulation knobs for one bus run.
#[derive(Clone, Copy, Debug)]
pub struct DriveParams {
    /// Cruise speed in feet per second (30 ft/s ≈ 20 mph).
    pub speed_fps: f64,
    /// Seconds between GPS fixes.
    pub sample_interval_s: f64,
    /// GPS noise model.
    pub noise: GpsNoise,
}

impl Default for DriveParams {
    fn default() -> Self {
        DriveParams {
            speed_fps: 30.0,
            sample_interval_s: 20.0,
            noise: GpsNoise::new(40.0),
        }
    }
}

impl DriveParams {
    fn validate(&self) {
        assert!(
            self.speed_fps.is_finite() && self.speed_fps > 0.0,
            "speed must be positive and finite"
        );
        assert!(
            self.sample_interval_s.is_finite() && self.sample_interval_s > 0.0,
            "sample interval must be positive and finite"
        );
    }
}

/// Drives `path` once and returns the emitted trace records.
///
/// The bus starts at the path's origin at `start_time_s`, moves along each
/// street segment at `params.speed_fps`, and reports a noisy fix every
/// `params.sample_interval_s` seconds (including one at departure and one at
/// arrival).
///
/// # Panics
///
/// Panics if `params` are invalid or the path is inconsistent with `graph`.
pub fn drive_path<R: Rng>(
    graph: &RoadGraph,
    path: &Path,
    bus: BusId,
    journey: JourneyId,
    start_time_s: f64,
    params: DriveParams,
    rng: &mut R,
) -> Vec<TraceRecord> {
    params.validate();
    let nodes = path.nodes();
    let mut records = Vec::new();
    fn emit<R: Rng>(
        records: &mut Vec<TraceRecord>,
        bus: BusId,
        journey: JourneyId,
        noise: &GpsNoise,
        pos: Point,
        t: f64,
        rng: &mut R,
    ) {
        records.push(TraceRecord {
            bus,
            journey,
            fix: GpsPoint::new(noise.perturb(pos, rng), t),
        });
    }

    // Piecewise-linear trajectory through the nodes' coordinates; segment
    // lengths use exact street lengths so time matches graph distance.
    let mut elapsed = 0.0;
    let mut next_sample = 0.0;
    emit(
        &mut records,
        bus,
        journey,
        &params.noise,
        graph.point(nodes[0]),
        start_time_s,
        rng,
    );
    next_sample += params.sample_interval_s;

    for w in nodes.windows(2) {
        let (a, b) = (w[0], w[1]);
        let seg_len = graph
            .edge_length(a, b)
            .expect("path edge exists in graph")
            .as_f64();
        let seg_time = seg_len / params.speed_fps;
        let (pa, pb) = (graph.point(a), graph.point(b));
        // Emit all samples whose timestamps fall within this segment.
        while next_sample <= elapsed + seg_time {
            let frac = (next_sample - elapsed) / seg_time;
            let pos = Point::new(pa.x + (pb.x - pa.x) * frac, pa.y + (pb.y - pa.y) * frac);
            emit(
                &mut records,
                bus,
                journey,
                &params.noise,
                pos,
                start_time_s + next_sample,
                rng,
            );
            next_sample += params.sample_interval_s;
        }
        elapsed += seg_time;
    }
    // Final fix at arrival (unless a sample landed exactly there).
    let last_time = records
        .last()
        .expect("at least the departure fix was emitted")
        .fix
        .time_s;
    if (last_time - (start_time_s + elapsed)).abs() > 1e-9 {
        emit(
            &mut records,
            bus,
            journey,
            &params.noise,
            graph.point(*nodes.last().expect("paths are non-empty")),
            start_time_s + elapsed,
            rng,
        );
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rap_graph::{sssp, Distance, GridGraph, NodeId};

    fn grid_path() -> (rap_graph::RoadGraph, Path) {
        let g = GridGraph::new(3, 3, Distance::from_feet(300)).into_graph();
        let p = sssp::shortest_path(&g, NodeId::new(0), NodeId::new(8)).unwrap();
        (g, p)
    }

    #[test]
    fn sample_count_matches_travel_time() {
        let (g, p) = grid_path();
        // 1,200 ft at 30 ft/s = 40 s; sampling every 10 s -> fixes at
        // 0, 10, 20, 30, 40 = 5 records (arrival coincides with a sample).
        let params = DriveParams {
            speed_fps: 30.0,
            sample_interval_s: 10.0,
            noise: GpsNoise::NONE,
        };
        let recs = drive_path(
            &g,
            &p,
            BusId(1),
            JourneyId(2),
            0.0,
            params,
            &mut StdRng::seed_from_u64(0),
        );
        assert_eq!(recs.len(), 5);
        assert_eq!(recs[0].fix.time_s, 0.0);
        assert!((recs[4].fix.time_s - 40.0).abs() < 1e-9);
    }

    #[test]
    fn arrival_fix_added_when_interval_does_not_divide() {
        let (g, p) = grid_path();
        let params = DriveParams {
            speed_fps: 30.0,
            sample_interval_s: 15.0, // 0, 15, 30, then arrival at 40
            noise: GpsNoise::NONE,
        };
        let recs = drive_path(
            &g,
            &p,
            BusId(1),
            JourneyId(2),
            100.0,
            params,
            &mut StdRng::seed_from_u64(0),
        );
        assert_eq!(recs.len(), 4);
        assert!((recs[3].fix.time_s - 140.0).abs() < 1e-9);
        // Without noise the last fix sits exactly on the destination.
        let dest = g.point(NodeId::new(8));
        assert!(recs[3].fix.position.euclidean(dest) < 1e-9);
    }

    #[test]
    fn noiseless_fixes_lie_on_the_route() {
        let (g, p) = grid_path();
        let params = DriveParams {
            speed_fps: 25.0,
            sample_interval_s: 7.0,
            noise: GpsNoise::NONE,
        };
        let recs = drive_path(
            &g,
            &p,
            BusId(0),
            JourneyId(0),
            0.0,
            params,
            &mut StdRng::seed_from_u64(0),
        );
        // Every fix must sit within the path's bounding box (the path is a
        // monotone staircase in this grid).
        for r in &recs {
            assert!(r.fix.position.x >= -1e-9 && r.fix.position.x <= 600.0 + 1e-9);
            assert!(r.fix.position.y >= -1e-9 && r.fix.position.y <= 600.0 + 1e-9);
        }
        // Timestamps strictly increase.
        for w in recs.windows(2) {
            assert!(w[1].fix.time_s > w[0].fix.time_s);
        }
    }

    #[test]
    fn tags_are_preserved() {
        let (g, p) = grid_path();
        let recs = drive_path(
            &g,
            &p,
            BusId(7),
            JourneyId(3),
            0.0,
            DriveParams::default(),
            &mut StdRng::seed_from_u64(0),
        );
        assert!(recs
            .iter()
            .all(|r| r.bus == BusId(7) && r.journey == JourneyId(3)));
    }

    #[test]
    fn trivial_path_yields_single_fix() {
        let (g, _) = grid_path();
        let p = Path::trivial(NodeId::new(4));
        let recs = drive_path(
            &g,
            &p,
            BusId(0),
            JourneyId(0),
            5.0,
            DriveParams {
                noise: GpsNoise::NONE,
                ..DriveParams::default()
            },
            &mut StdRng::seed_from_u64(0),
        );
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].fix.time_s, 5.0);
    }

    #[test]
    #[should_panic(expected = "speed must be positive")]
    fn invalid_speed_panics() {
        let (g, p) = grid_path();
        let params = DriveParams {
            speed_fps: 0.0,
            ..DriveParams::default()
        };
        let _ = drive_path(
            &g,
            &p,
            BusId(0),
            JourneyId(0),
            0.0,
            params,
            &mut StdRng::seed_from_u64(0),
        );
    }
}
