//! End-to-end scenario construction with instance-aware acceleration.
//!
//! [`build_scenario`] is the one front door for turning raw inputs — a road
//! graph, unrouted demand specs, shop locations, a utility function — into a
//! ready-to-place [`Scenario`]; its sibling [`build_mutable_scenario`] runs
//! the same phases and assembles the incremental [`MutableScenario`] a
//! stream or a snapshot starts from, taking over the per-shop distance rows
//! the detour phase grew. Both consult the shared auto-selection policy
//! ([`RoutePlan::auto`]) to decide, per instance size, which accelerations
//! the build uses:
//!
//! * **Small instances** (Seattle-sized) run the plain sequential path:
//!   one thread, no landmark tables, no tiling. This is the fix for the
//!   historical small-city regression, where thread plumbing and setup work
//!   cost more than the entire sequential build.
//! * **Large instances** route with worker threads, goal-directed ALT
//!   searches over landmark tables ([`rap_graph::landmarks::Landmarks`]),
//!   and tile-batched processing order ([`rap_graph::tiles::TileGrid`]), and
//!   fill the detour table over tile-aligned shards.
//!
//! Every combination produces a **bit-identical** scenario — the
//! accelerations either reorder independent work or settle fewer nodes on
//! the way to the plain search's predecessor chains (see `rap_graph::sssp`)
//! — so callers pick a [`BuildMode`] by performance, never by semantics. The returned [`BuildReport`] records what was chosen and
//! how long each phase took.

use crate::detour::{DetourTable, ShopRows};
use crate::error::PlacementError;
use crate::mutable::MutableScenario;
use crate::scenario::Scenario;
use crate::utility::UtilityFunction;
use rap_graph::landmarks::Landmarks;
use rap_graph::tiles::TileGrid;
use rap_graph::{NodeId, RoadGraph};
use rap_traffic::plan::RoutePlan;
use rap_traffic::{FlowSet, FlowSpec, RouteOptions};
use std::sync::Arc;
use std::time::Instant;

/// How [`build_scenario`] chooses accelerations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BuildMode {
    /// Instance-size thresholds decide ([`RoutePlan::auto`]). The right
    /// choice everywhere outside benchmarks.
    #[default]
    Auto,
    /// Force the unaccelerated sequential path — the reference side of the
    /// identity checks.
    Plain,
    /// Force every acceleration on regardless of instance size — lets tests
    /// exercise the accelerated path on downsized instances.
    Accelerated,
}

/// Inputs controlling a [`build_scenario`] run.
#[derive(Clone, Copy, Debug, Default)]
pub struct BuildOptions {
    /// Worker threads for large instances; `None` uses every core. Small
    /// instances under [`BuildMode::Auto`] ignore it and run sequentially.
    pub threads: Option<usize>,
    /// Acceleration selection.
    pub mode: BuildMode,
    /// Natural tile cell size in coordinate units, when the graph's
    /// generator knows it (the metro generator exposes its block pitch as
    /// `MetroModel::tile_cell`). Cells aligned to the
    /// generator's layout make node ids tile-clustered, which upgrades the
    /// detour fill to tile-aligned shards; `None` falls back to
    /// density-derived cells ([`TileGrid::build`]).
    pub tile_cell: Option<f64>,
}

/// What a [`build_scenario`] run chose and how long each phase took.
#[derive(Clone, Debug)]
pub struct BuildReport {
    /// Instance size: intersections in the graph.
    pub nodes: usize,
    /// Instance size: demand specs routed.
    pub flows: usize,
    /// The acceleration plan the build executed.
    pub plan: RoutePlan,
    /// Tiles in the spatial partition (0 when tiling was off).
    pub tile_count: usize,
    /// Milliseconds selecting landmarks and building the tile grid.
    pub landmark_ms: f64,
    /// Milliseconds routing all flows.
    pub routing_ms: f64,
    /// Milliseconds building the detour table.
    pub detour_ms: f64,
    /// Milliseconds for the whole build, including scenario assembly.
    pub total_ms: f64,
}

/// Routes `specs`, builds the detour table, and assembles the [`Scenario`],
/// choosing accelerations per `opts`. Returns the scenario together with a
/// [`BuildReport`] of the choices and per-phase timings.
///
/// The scenario is bit-identical across every [`BuildMode`]; see the module
/// docs for why.
///
/// # Errors
///
/// * [`PlacementError::Traffic`] if a spec references a missing node or an
///   unreachable destination.
/// * [`PlacementError::NoShops`] / [`PlacementError::ShopOutOfBounds`] for
///   invalid shop lists.
pub fn build_scenario(
    graph: RoadGraph,
    specs: Vec<FlowSpec>,
    shops: Vec<NodeId>,
    utility: Arc<dyn UtilityFunction>,
    opts: &BuildOptions,
) -> Result<(Scenario, BuildReport), PlacementError> {
    build_with(
        graph,
        specs,
        shops,
        opts,
        |graph, flows, shops, table, _| Scenario::from_parts(graph, flows, shops, utility, table),
    )
}

/// [`build_scenario`]'s phases, assembled into a [`MutableScenario`] that
/// takes over the per-shop distance rows the detour phase grew. The result
/// is bit-identical across every [`BuildMode`], and to
/// [`MutableScenario::new`] over [`FlowSet::route`]: the same flows, base
/// CSR, entry values and shop rows, so the same snapshot bytes.
///
/// # Errors
///
/// Same as [`build_scenario`].
pub fn build_mutable_scenario(
    graph: RoadGraph,
    specs: Vec<FlowSpec>,
    shops: Vec<NodeId>,
    utility: Arc<dyn UtilityFunction>,
    opts: &BuildOptions,
) -> Result<(MutableScenario, BuildReport), PlacementError> {
    build_with(
        graph,
        specs,
        shops,
        opts,
        |graph, flows, shops, table, rows| {
            MutableScenario::assemble(graph, &flows, shops, utility, table, rows)
        },
    )
}

/// The phases both front doors share — plan, acceleration structures,
/// routing, detour table — followed by `assemble`, which is timed into
/// [`BuildReport::total_ms`].
fn build_with<S>(
    graph: RoadGraph,
    specs: Vec<FlowSpec>,
    shops: Vec<NodeId>,
    opts: &BuildOptions,
    assemble: impl FnOnce(RoadGraph, FlowSet, Vec<NodeId>, DetourTable, ShopRows) -> S,
) -> Result<(S, BuildReport), PlacementError> {
    let start = Instant::now();
    let nodes = graph.node_count();
    let flow_count = specs.len();
    let plan = match opts.mode {
        BuildMode::Auto => RoutePlan::auto(nodes, flow_count, opts.threads),
        BuildMode::Plain => RoutePlan::sequential(),
        BuildMode::Accelerated => RoutePlan::accelerated(
            opts.threads
                .unwrap_or_else(rap_traffic::parallel::default_threads),
        ),
    };

    // Phase 1 — acceleration structures: landmark distance tables and the
    // spatial tile partition.
    let phase = Instant::now();
    let landmarks = plan
        .use_alt
        .then(|| Landmarks::select_parallel(&graph, plan.landmark_count, plan.threads));
    let tiles = plan.use_tiles.then(|| match opts.tile_cell {
        Some(cell) => TileGrid::with_cell(&graph, cell),
        None => TileGrid::build(&graph, plan.target_nodes_per_tile),
    });
    let landmark_ms = phase.elapsed().as_secs_f64() * 1e3;

    // Phase 2 — route every spec (tile-batched, goal-directed, threaded as
    // planned).
    let phase = Instant::now();
    let flows = FlowSet::route_with(
        &graph,
        specs,
        RouteOptions {
            threads: (plan.threads > 1).then_some(plan.threads),
            landmarks: landmarks.as_ref(),
            tiles: tiles.as_ref(),
        },
    )?;
    let routing_ms = phase.elapsed().as_secs_f64() * 1e3;

    // Phase 3 — detour table, walking tile-aligned shards when available.
    let phase = Instant::now();
    let (detours, rows) =
        DetourTable::build_with_rows(&graph, &flows, &shops, plan.threads, tiles.as_ref())?;
    let detour_ms = phase.elapsed().as_secs_f64() * 1e3;

    let tile_count = tiles.as_ref().map_or(0, TileGrid::tile_count);
    let built = assemble(graph, flows, shops, detours, rows);
    Ok((
        built,
        BuildReport {
            nodes,
            flows: flow_count,
            plan,
            tile_count,
            landmark_ms,
            routing_ms,
            detour_ms,
            total_ms: start.elapsed().as_secs_f64() * 1e3,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::Placement;
    use crate::utility::UtilityKind;
    use rap_graph::{Distance, GridGraph};

    fn grid_inputs() -> (RoadGraph, Vec<FlowSpec>, Vec<NodeId>) {
        let grid = GridGraph::new(8, 8, Distance::from_feet(10));
        let g = grid.graph().clone();
        let mut state = 7u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 64) as u32
        };
        let specs: Vec<FlowSpec> = (0..40)
            .map(|_| {
                let o = next();
                let d = (o + 1 + next() % 63) % 64; // never equal to o
                FlowSpec::new(NodeId::new(o), NodeId::new(d), 2.0)
                    .unwrap()
                    .with_attractiveness(0.1)
                    .unwrap()
            })
            .collect();
        (g, specs, vec![NodeId::new(27), NodeId::new(5)])
    }

    fn assert_scenarios_identical(a: &Scenario, b: &Scenario) {
        assert_eq!(a.detours().entries(), b.detours().entries());
        assert_eq!(a.candidates(), b.candidates());
        for (fa, fb) in a.flows().iter().zip(b.flows().iter()) {
            assert_eq!(fa.id(), fb.id());
            assert_eq!(fa.path().nodes(), fb.path().nodes());
        }
        let p = Placement::new(a.candidates().to_vec());
        assert_eq!(a.evaluate(&p).to_bits(), b.evaluate(&p).to_bits());
    }

    #[test]
    fn all_modes_build_identical_scenarios() {
        let utility = UtilityKind::Linear.instantiate(Distance::from_feet(200));
        let (g, specs, shops) = grid_inputs();
        let (plain, plain_report) = build_scenario(
            g.clone(),
            specs.clone(),
            shops.clone(),
            utility.clone(),
            &BuildOptions {
                threads: None,
                mode: BuildMode::Plain,
                tile_cell: None,
            },
        )
        .unwrap();
        assert!(!plain_report.plan.use_alt);
        assert_eq!(plain_report.plan.threads, 1);
        for (mode, threads) in [
            (BuildMode::Auto, None),
            (BuildMode::Auto, Some(3)),
            (BuildMode::Accelerated, Some(2)),
        ] {
            let (built, report) =
                build_scenario(g.clone(), specs.clone(), shops.clone(), utility.clone(), &{
                    BuildOptions {
                        threads,
                        mode,
                        tile_cell: None,
                    }
                })
                .unwrap();
            assert_scenarios_identical(&plain, &built);
            assert_eq!(report.nodes, 64);
            assert_eq!(report.flows, 40);
            assert!(report.total_ms >= 0.0);
            if mode == BuildMode::Accelerated {
                assert!(report.plan.use_alt && report.plan.use_tiles);
                assert!(report.tile_count > 0);
            }
        }
    }

    #[test]
    fn mutable_front_door_encodes_like_the_routed_constructor() {
        let utility = UtilityKind::Linear.instantiate(Distance::from_feet(200));
        let (g, specs, shops) = grid_inputs();
        let flows = FlowSet::route(&g, specs.clone()).unwrap();
        let reference =
            MutableScenario::new(g.clone(), flows, shops.clone(), utility.clone()).unwrap();
        let want = crate::encode_snapshot(&reference, None, 0, &[]).unwrap();
        for (mode, threads) in [
            (BuildMode::Plain, None),
            (BuildMode::Auto, None),
            (BuildMode::Accelerated, Some(2)),
        ] {
            let (built, report) = build_mutable_scenario(
                g.clone(),
                specs.clone(),
                shops.clone(),
                utility.clone(),
                &BuildOptions {
                    threads,
                    mode,
                    tile_cell: None,
                },
            )
            .unwrap();
            if mode == BuildMode::Accelerated {
                assert!(report.plan.use_tiles && report.tile_count > 0);
                assert_eq!(report.plan.threads, 2);
            }
            let got = crate::encode_snapshot(&built, None, 0, &[]).unwrap();
            assert!(got == want, "{mode:?}: snapshot bytes differ");
        }
    }

    #[test]
    fn auto_keeps_small_instances_sequential() {
        let utility = UtilityKind::Threshold.instantiate(Distance::from_feet(50));
        let (g, specs, shops) = grid_inputs();
        let (_, report) = build_scenario(
            g,
            specs,
            shops,
            utility,
            &BuildOptions {
                threads: Some(8),
                mode: BuildMode::Auto,
                tile_cell: None,
            },
        )
        .unwrap();
        // 64 nodes x 40 flows is far below the work floor: the thread
        // request must not re-enable parallel plumbing.
        assert_eq!(report.plan, RoutePlan::sequential());
        assert_eq!(report.tile_count, 0);
    }

    #[test]
    fn routing_errors_surface_as_placement_errors() {
        let utility = UtilityKind::Linear.instantiate(Distance::from_feet(50));
        let (g, _, shops) = grid_inputs();
        let specs = vec![FlowSpec::new(NodeId::new(0), NodeId::new(999), 1.0).unwrap()];
        let err = build_scenario(g, specs, shops, utility, &BuildOptions::default()).unwrap_err();
        assert!(matches!(err, PlacementError::Traffic(_)));
    }

    #[test]
    fn shop_errors_surface() {
        let utility = UtilityKind::Linear.instantiate(Distance::from_feet(50));
        let (g, specs, _) = grid_inputs();
        let err = build_scenario(g, specs, vec![], utility, &BuildOptions::default()).unwrap_err();
        assert!(matches!(err, PlacementError::NoShops));
    }
}
