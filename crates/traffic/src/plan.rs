//! Instance-size auto-selection for routing acceleration.
//!
//! Every acceleration the routing stack offers has a setup cost that only
//! pays off past some instance size:
//!
//! * **Worker threads** — spawning scoped workers and cloning per-worker
//!   [`SsspWorkspace`](rap_graph::sssp::SsspWorkspace)s costs more than a
//!   whole sequential pass on a hundred-node city (the Seattle model spent
//!   ~1.7x its sequential build time on thread plumbing before this policy
//!   existed).
//! * **Goal-directed (ALT) routing** — landmark tables cost `2·L` full
//!   Dijkstra trees up front, and routing then runs one guided search per
//!   origin–destination pair (one lower-bound scan per heap push) instead
//!   of one early-exit tree per origin; on small graphs the plain search
//!   finishes before the tables are even built.
//! * **Spatial tiling** — tile partitions only matter once a single
//!   shortest-path tree stops fitting in cache.
//!
//! [`RoutePlan::auto`] centralizes those thresholds so every caller of the
//! scenario builder (`rap_core::build_scenario`) makes the same choice and
//! tiny instances never pay setup costs they cannot amortize. The
//! thresholds are deliberately coarse — each guards against an
//! order-of-magnitude mis-selection, not a 10% one — and are exported as
//! `pub const` so the benchmark and tests can pin instances to either side
//! of a boundary.

use crate::parallel;

/// Routing work (`nodes × flows`) below which the whole build runs on the
/// cheap sequential path: one thread, no landmark tables, no tiling.
///
/// A sequential early-exit tree on a sub-50M-work instance finishes in
/// milliseconds; any setup cost dominates.
pub const SMALL_INSTANCE_WORK: u128 = 50_000_000;

/// Minimum node count before ALT landmark tables pay for themselves.
/// Below this a full Dijkstra tree is cache-resident and the guided search
/// saves nothing measurable.
pub const ALT_MIN_NODES: usize = 30_000;

/// Minimum flow count before ALT pays: the `2·L` table trees amortize over
/// the guided searches, so few flows means few searches to speed up.
pub const ALT_MIN_FLOWS: usize = 5_000;

/// Minimum node count before spatial tiling is worth building. Tracks
/// [`ALT_MIN_NODES`]: both guards exist to keep per-tree working sets
/// cache-local, which is a non-issue for small graphs.
pub const TILE_MIN_NODES: usize = 30_000;

/// Landmarks selected when ALT is enabled. Eight farthest-point landmarks
/// give strong bounds on road-like geometry without letting table
/// construction (`2·L` trees) rival the routing phase itself.
pub const LANDMARK_COUNT: usize = 8;

/// Target intersections per tile. Sized so one tile's adjacency rows plus
/// the frontier of a tree rooted inside it stay within a few hundred KiB.
pub const TARGET_NODES_PER_TILE: usize = 4_096;

/// The acceleration choices for one routing/build workload.
///
/// Produced by [`RoutePlan::auto`]; consumers translate it into
/// [`RouteOptions`](crate::flow_set::RouteOptions) plus landmark/tile
/// construction on the graph side.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoutePlan {
    /// Worker threads for routing and table builds (1 = sequential).
    pub threads: usize,
    /// Build landmark tables and route with goal-directed (ALT) searches.
    pub use_alt: bool,
    /// Build a [`TileGrid`](rap_graph::tiles::TileGrid) and route flow
    /// origin groups in tile order.
    pub use_tiles: bool,
    /// Landmark count when `use_alt` ([`LANDMARK_COUNT`] under auto).
    pub landmark_count: usize,
    /// Tile sizing when `use_tiles` ([`TARGET_NODES_PER_TILE`] under auto).
    pub target_nodes_per_tile: usize,
}

impl RoutePlan {
    /// Picks accelerations for an instance of `nodes` intersections and
    /// `flows` demand specs.
    ///
    /// `requested_threads` overrides the worker count on large instances
    /// (`None` means use every core); small instances ignore it and run
    /// sequentially, because that *is* the fix for the small-city
    /// regression — no override re-enables thread plumbing below the work
    /// floor.
    pub fn auto(nodes: usize, flows: usize, requested_threads: Option<usize>) -> Self {
        let work = nodes as u128 * flows as u128;
        if work < SMALL_INSTANCE_WORK {
            return RoutePlan::sequential();
        }
        RoutePlan {
            threads: requested_threads
                .unwrap_or_else(parallel::default_threads)
                .max(1),
            use_alt: nodes >= ALT_MIN_NODES && flows >= ALT_MIN_FLOWS,
            use_tiles: nodes >= TILE_MIN_NODES,
            landmark_count: LANDMARK_COUNT,
            target_nodes_per_tile: TARGET_NODES_PER_TILE,
        }
    }

    /// The unaccelerated plan: one thread, plain early-exit Dijkstra.
    pub fn sequential() -> Self {
        RoutePlan {
            threads: 1,
            use_alt: false,
            use_tiles: false,
            landmark_count: LANDMARK_COUNT,
            target_nodes_per_tile: TARGET_NODES_PER_TILE,
        }
    }

    /// Everything on, regardless of instance size — lets tests and the
    /// benchmark's tiny size exercise the accelerated path on downsized
    /// instances.
    pub fn accelerated(threads: usize) -> Self {
        RoutePlan {
            threads: threads.max(1),
            use_alt: true,
            use_tiles: true,
            landmark_count: LANDMARK_COUNT,
            target_nodes_per_tile: TARGET_NODES_PER_TILE,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_instances_run_sequentially() {
        // Seattle-sized: 121 nodes x 900 flows is far below the work floor.
        let plan = RoutePlan::auto(121, 900, Some(16));
        assert_eq!(plan, RoutePlan::sequential());
        assert_eq!(plan.threads, 1);
        assert!(!plan.use_alt);
        assert!(!plan.use_tiles);
    }

    #[test]
    fn thread_override_cannot_reenable_small_instance_plumbing() {
        let plan = RoutePlan::auto(1_000, 1_000, Some(32));
        assert_eq!(plan.threads, 1);
    }

    #[test]
    fn bench_grid_gets_full_acceleration() {
        // 200x200 grid, 50k flows: above every threshold.
        let plan = RoutePlan::auto(40_000, 50_000, Some(4));
        assert_eq!(plan.threads, 4);
        assert!(plan.use_alt);
        assert!(plan.use_tiles);
        assert_eq!(plan.landmark_count, LANDMARK_COUNT);
    }

    #[test]
    fn mid_size_instance_parallelizes_without_alt() {
        // Enough work for threads, too few nodes for landmark tables.
        let plan = RoutePlan::auto(10_000, 100_000, Some(2));
        assert_eq!(plan.threads, 2);
        assert!(!plan.use_alt);
        assert!(!plan.use_tiles);
    }

    #[test]
    fn metro_instance_enables_everything() {
        let plan = RoutePlan::auto(1_000_000, 500_000, None);
        assert!(plan.threads >= 1);
        assert!(plan.use_alt);
        assert!(plan.use_tiles);
    }

    #[test]
    fn accelerated_ignores_size() {
        let plan = RoutePlan::accelerated(2);
        assert!(plan.use_alt && plan.use_tiles);
        assert_eq!(plan.threads, 2);
        assert_eq!(RoutePlan::accelerated(0).threads, 1);
    }
}
