//! `bench_build` — the scenario-construction benchmark behind
//! `BENCH_build.json`.
//!
//! Three instances, one construction front door ([`build_scenario`]):
//!
//! * **grid** — a 200×200-node grid with 50k flows. Big enough that the
//!   auto-selection policy turns every acceleration on (ALT-pruned target
//!   searches, tile-batched routing order, tile-aligned detour shards).
//! * **seattle** — the recovered city model, 900 journeys. Small enough
//!   that the policy runs the plain sequential path; this row is the
//!   no-regression gate for the historical small-city slowdown, where
//!   thread plumbing cost more than the whole sequential build.
//! * **metro** — the 1M-intersection, 500k-flow synthetic metro
//!   ([`rap_trace::metro()`]), built end-to-end with every acceleration
//!   forced on. Too large for a baseline replica, so its identity check is
//!   subsampled: a slice of flows re-routed unpruned and a slice of nodes'
//!   detour entries recomputed from full per-shop trees.
//!
//! For grid and seattle the harness replicates the pre-workspace baseline
//! (fresh full binary-heap tree per origin / per shop, per-node `Option`
//! probing) and asserts the optimized artifacts are bit-identical before
//! reporting a speedup. Small instances are timed best-of-5 per phase —
//! their sub-millisecond phases are at the mercy of scheduler and
//! allocator noise, and the minimum is the least-contended observation of
//! the same deterministic work. Speedups compare the phases both sides
//! run (routing + detours, plus landmark selection on the optimized
//! side); `build_total_ms` additionally includes scenario assembly, which
//! the baseline replica never performed.
//!
//! Gates: the seattle row must show `total_speedup >= 1.0` (smoke included
//! — that is the regression gate), the grid row `>= 2.0` outside smoke.
//!
//! Usage: `cargo run --release -p rap-bench --bin bench_build [--smoke] [OUT.json]`
//! (default output path `BENCH_build.json`; `--smoke` shrinks all three
//! instances for CI and drops the grid speedup floor).

use rand::rngs::StdRng;
use rand::SeedableRng;
use rap_core::{
    build_scenario, BuildMode, BuildOptions, BuildReport, MarginalGreedy, PlacementAlgorithm,
    Scenario, UtilityKind,
};
use rap_graph::{dijkstra, Distance, GridGraph, NodeId, Path, RoadGraph};
use rap_traffic::demand::{uniform_demand, DemandParams};
use rap_traffic::{parallel, FlowId, FlowSet, FlowSpec, TrafficFlow, Zone};
use serde::Serialize;
use std::collections::HashMap;
use std::time::Instant;

/// Big configuration: a city-scale grid comfortably above the 200×200-node /
/// 50k-flow floor the optimization targets.
const GRID_SIDE: u32 = 200;
const GRID_FLOWS: usize = 50_000;
/// City-model configuration: journeys replayed into the Seattle model.
const CITY_JOURNEYS: usize = 900;
/// Smoke configuration (CI): same code paths, minutes smaller.
const SMOKE_GRID_SIDE: u32 = 30;
const SMOKE_GRID_FLOWS: usize = 2_000;
const SMOKE_CITY_JOURNEYS: usize = 40;
/// Metro identity subsample sizes: flows re-routed unpruned, nodes whose
/// detour entries are recomputed from full per-shop trees.
const METRO_FLOW_SAMPLE: usize = 2_000;
const METRO_NODE_SAMPLE: usize = 512;
const K: usize = 10;
const SEED: u64 = 2015;

#[derive(Serialize)]
struct PhaseTimes {
    routing_ms: f64,
    detour_ms: f64,
    total_ms: f64,
}

/// Optimized-path timings, one column per construction phase.
#[derive(Serialize)]
struct OptimizedTimes {
    /// Landmark selection plus tile-grid assembly (0 when both are off).
    landmark_ms: f64,
    routing_ms: f64,
    detour_ms: f64,
    /// Sum of the three phases above — the speedup denominator.
    total_ms: f64,
    /// End-to-end `build_scenario` wall time, including scenario assembly
    /// (candidate precompute) that the baseline replica never performed.
    build_total_ms: f64,
}

#[derive(Serialize)]
struct InstanceReport {
    name: String,
    nodes: usize,
    edges: usize,
    flows: usize,
    shops: usize,
    kernel: String,
    threads: usize,
    use_alt: bool,
    use_tiles: bool,
    tile_count: usize,
    /// How bit-identity was established: `full` (every artifact against a
    /// baseline replica) or `subsampled(...)` (metro).
    identity: String,
    #[serde(skip_serializing_if = "Option::is_none")]
    baseline: Option<PhaseTimes>,
    optimized: OptimizedTimes,
    #[serde(skip_serializing_if = "Option::is_none")]
    routing_speedup: Option<f64>,
    #[serde(skip_serializing_if = "Option::is_none")]
    detour_speedup: Option<f64>,
    #[serde(skip_serializing_if = "Option::is_none")]
    total_speedup: Option<f64>,
}

#[derive(Serialize)]
struct Report {
    smoke: bool,
    instances: Vec<InstanceReport>,
}

/// Pre-PR routing: a fresh, full binary-heap shortest-path tree per distinct
/// origin, paths probed out of the tree (the shape `FlowSet::route` had
/// before the workspace engine).
fn baseline_route(graph: &RoadGraph, specs: &[FlowSpec]) -> FlowSet {
    let mut groups: Vec<(NodeId, Vec<usize>)> = Vec::new();
    let mut slot: HashMap<NodeId, usize> = HashMap::new();
    for (i, s) in specs.iter().enumerate() {
        let g = *slot.entry(s.origin()).or_insert_with(|| {
            groups.push((s.origin(), Vec::new()));
            groups.len() - 1
        });
        groups[g].1.push(i);
    }
    let mut paths: Vec<Option<Path>> = vec![None; specs.len()];
    for (origin, idxs) in &groups {
        let tree = dijkstra::shortest_path_tree(graph, *origin);
        for &i in idxs {
            paths[i] = Some(
                tree.path_to(specs[i].destination())
                    .expect("benchmark instances route every flow"),
            );
        }
    }
    let flows: Vec<TrafficFlow> = paths
        .into_iter()
        .enumerate()
        .map(|(i, p)| TrafficFlow::new(FlowId::new(i as u32), specs[i], p.expect("routed")))
        .collect();
    FlowSet::from_routed(graph, flows)
}

/// The detour entries plus per-node shop distances, computed exactly as the
/// pre-PR `DetourTable::build` did: public per-shop tree API and per-node
/// `Option` probing.
struct BaselineDetours {
    to_shop: Vec<Option<Distance>>,
    /// `(flow id, visit position, detour)` in node-id order — the same order
    /// the CSR `entries` array uses.
    entries: Vec<(FlowId, u32, Distance)>,
}

fn baseline_detours(graph: &RoadGraph, flows: &FlowSet, shops: &[NodeId]) -> BaselineDetours {
    let n = graph.node_count();
    let rev_trees: Vec<_> = shops
        .iter()
        .map(|&s| dijkstra::reverse_shortest_path_tree(graph, s))
        .collect();
    let fwd_trees: Vec<_> = shops
        .iter()
        .map(|&s| dijkstra::shortest_path_tree(graph, s))
        .collect();

    let mut to_shop: Vec<Option<Distance>> = vec![None; n];
    for (v, slot) in to_shop.iter_mut().enumerate() {
        for tree in &rev_trees {
            if let Some(d) = tree.distance(NodeId::new(v as u32)) {
                *slot = Some(slot.map_or(d, |cur: Distance| cur.min(d)));
            }
        }
    }

    let shop_to_dest: Vec<Vec<Distance>> = flows
        .iter()
        .map(|f| {
            fwd_trees
                .iter()
                .map(|t| t.distance(f.destination()).unwrap_or(Distance::MAX))
                .collect()
        })
        .collect();

    let mut entries = Vec::new();
    for v in 0..n {
        let node = NodeId::new(v as u32);
        for visit in flows.visits_at(node) {
            let flow = flows.flow(visit.flow);
            let remaining = flow.path().length().saturating_sub(visit.prefix);
            let mut via_shop = Distance::MAX;
            for (s, rev) in rev_trees.iter().enumerate() {
                let d1 = match rev.distance(node) {
                    Some(d) => d,
                    None => continue,
                };
                let d2 = shop_to_dest[visit.flow.index()][s];
                if d2 == Distance::MAX {
                    continue;
                }
                via_shop = via_shop.min(d1.saturating_add(d2));
            }
            if via_shop == Distance::MAX {
                continue;
            }
            entries.push((
                visit.flow,
                visit.position,
                via_shop.saturating_sub(remaining),
            ));
        }
    }
    BaselineDetours { to_shop, entries }
}

/// Asserts every artifact of the optimized build matches the baseline's bit
/// for bit, then cross-checks the detour table and greedy placement between
/// a forced-plain and the auto-selected construction.
fn assert_identical(
    graph: &RoadGraph,
    base_flows: &FlowSet,
    base_detours: &BaselineDetours,
    auto: &Scenario,
    plain: &Scenario,
) {
    let opt_flows = auto.flows();
    assert_eq!(base_flows.len(), opt_flows.len(), "flow counts diverged");
    for (a, b) in base_flows.iter().zip(opt_flows.iter()) {
        assert_eq!(a.id(), b.id(), "flow ids diverged");
        assert_eq!(
            a.path().nodes(),
            b.path().nodes(),
            "routed path diverged for flow {:?}",
            a.id()
        );
    }
    let table = auto.detours();
    let entries = table.entries();
    assert_eq!(
        base_detours.entries.len(),
        entries.len(),
        "detour entry counts diverged"
    );
    for ((flow, position, detour), e) in base_detours.entries.iter().zip(entries) {
        assert_eq!((*flow, *position, *detour), (e.flow, e.position, e.detour));
    }
    for v in graph.nodes() {
        assert_eq!(
            base_detours.to_shop[v.index()],
            table.shop_distance(v),
            "shop distance diverged at {v}"
        );
    }
    // Same artifacts and the same placement out of the forced-plain and the
    // auto-selected construction.
    assert_eq!(plain.detours().entries(), table.entries());
    let k = K.min(graph.node_count());
    let pa = MarginalGreedy.place(auto, k, &mut StdRng::seed_from_u64(0));
    let pp = MarginalGreedy.place(plain, k, &mut StdRng::seed_from_u64(0));
    assert_eq!(pa, pp, "greedy placement diverged under acceleration");
}

fn time<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64() * 1e3, out)
}

/// Best (minimum) observation: the least scheduler- and allocator-
/// contended run of the same deterministic work.
fn best(xs: Vec<f64>) -> f64 {
    xs.into_iter().fold(f64::INFINITY, f64::min)
}

/// Benchmarks one baseline-comparable instance: the pre-workspace replica
/// vs [`build_scenario`] under [`BuildMode::Auto`], with full identity
/// assertions. `runs` timed repetitions each, best per phase (small
/// instances are noise-prone; city-scale ones swamp the timer in one run).
fn bench_comparative(
    name: &str,
    graph: &RoadGraph,
    specs: Vec<FlowSpec>,
    shops: Vec<NodeId>,
    runs: usize,
) -> InstanceReport {
    eprintln!(
        "[{name}] {} nodes, {} edges, {} flows, {} shop(s), {runs} timed run(s)",
        graph.node_count(),
        graph.edge_count(),
        specs.len(),
        shops.len(),
    );
    let utility = UtilityKind::Linear.instantiate(Distance::from_feet(2_500));

    let mut base_route = Vec::new();
    let mut base_detour = Vec::new();
    let mut baseline = None;
    for _ in 0..runs {
        let (route_ms, flows) = time(|| baseline_route(graph, &specs));
        let (detour_ms, detours) = time(|| baseline_detours(graph, &flows, &shops));
        base_route.push(route_ms);
        base_detour.push(detour_ms);
        baseline = Some((flows, detours));
    }
    let (base_flows, base_detours) = baseline.expect("at least one run");
    let (base_route_ms, base_detour_ms) = (best(base_route), best(base_detour));
    eprintln!("[{name}] baseline:  routing {base_route_ms:.1} ms, detours {base_detour_ms:.1} ms");

    let opts = BuildOptions {
        threads: None,
        mode: BuildMode::Auto,
        tile_cell: None,
    };
    let mut reports: Vec<BuildReport> = Vec::new();
    let mut auto = None;
    for _ in 0..runs {
        let (scenario, report) = build_scenario(
            graph.clone(),
            specs.clone(),
            shops.clone(),
            utility.clone(),
            &opts,
        )
        .expect("benchmark instances build");
        reports.push(report);
        auto = Some(scenario);
    }
    let auto = auto.expect("at least one run");
    let last = reports.last().expect("at least one run");
    let landmark_ms = best(reports.iter().map(|r| r.landmark_ms).collect());
    let routing_ms = best(reports.iter().map(|r| r.routing_ms).collect());
    let detour_ms = best(reports.iter().map(|r| r.detour_ms).collect());
    let optimized = OptimizedTimes {
        landmark_ms,
        routing_ms,
        detour_ms,
        total_ms: landmark_ms + routing_ms + detour_ms,
        build_total_ms: best(reports.iter().map(|r| r.total_ms).collect()),
    };
    eprintln!(
        "[{name}] optimized: landmarks {:.1} ms, routing {:.1} ms, detours {:.1} ms \
         ({} thread(s), alt={}, tiles={})",
        optimized.landmark_ms,
        optimized.routing_ms,
        optimized.detour_ms,
        last.plan.threads,
        last.plan.use_alt,
        last.plan.use_tiles,
    );

    let (plain, _) = build_scenario(
        graph.clone(),
        specs.clone(),
        shops.clone(),
        utility,
        &BuildOptions {
            threads: None,
            mode: BuildMode::Plain,
            tile_cell: None,
        },
    )
    .expect("benchmark instances build");
    assert_identical(graph, &base_flows, &base_detours, &auto, &plain);
    eprintln!("[{name}] artifacts bit-identical");

    let base_total = base_route_ms + base_detour_ms;
    InstanceReport {
        name: name.to_string(),
        nodes: graph.node_count(),
        edges: graph.edge_count(),
        flows: specs.len(),
        shops: shops.len(),
        kernel: last.kernel.name().to_string(),
        threads: last.plan.threads,
        use_alt: last.plan.use_alt,
        use_tiles: last.plan.use_tiles,
        tile_count: last.tile_count,
        identity: "full".to_string(),
        routing_speedup: Some(base_route_ms / optimized.routing_ms),
        detour_speedup: Some(base_detour_ms / optimized.detour_ms),
        total_speedup: Some(base_total / optimized.total_ms),
        baseline: Some(PhaseTimes {
            routing_ms: base_route_ms,
            detour_ms: base_detour_ms,
            total_ms: base_total,
        }),
        optimized,
    }
}

/// Verifies a metro build on subsamples: a stride of flows re-routed with
/// the unpruned sequential engine, and a stride of nodes whose detour
/// entries and shop distance are recomputed from full per-shop trees.
fn assert_metro_subsample(
    graph: &RoadGraph,
    specs: &[FlowSpec],
    shops: &[NodeId],
    scenario: &Scenario,
) -> String {
    let flow_stride = (specs.len() / METRO_FLOW_SAMPLE).max(1);
    let sampled: Vec<usize> = (0..specs.len()).step_by(flow_stride).collect();
    let sample_specs: Vec<FlowSpec> = sampled.iter().map(|&i| specs[i]).collect();
    let reference = FlowSet::route(graph, sample_specs).expect("metro flows route");
    for (k, &i) in sampled.iter().enumerate() {
        let opt = scenario.flows().flow(FlowId::new(i as u32));
        let refr = reference.flow(FlowId::new(k as u32));
        assert_eq!(
            opt.path().nodes(),
            refr.path().nodes(),
            "metro routed path diverged for spec {i}"
        );
    }

    let rev_trees: Vec<_> = shops
        .iter()
        .map(|&s| dijkstra::reverse_shortest_path_tree(graph, s))
        .collect();
    let fwd_trees: Vec<_> = shops
        .iter()
        .map(|&s| dijkstra::shortest_path_tree(graph, s))
        .collect();
    let table = scenario.detours();
    let flows = scenario.flows();
    let node_stride = (graph.node_count() / METRO_NODE_SAMPLE).max(1);
    let mut checked_nodes = 0usize;
    for v in (0..graph.node_count()).step_by(node_stride) {
        let node = NodeId::new(v as u32);
        let expect_shop = rev_trees.iter().filter_map(|t| t.distance(node)).min();
        assert_eq!(
            expect_shop,
            table.shop_distance(node),
            "metro shop distance diverged at {node}"
        );
        let mut expected: Vec<(FlowId, u32, Distance)> = Vec::new();
        for visit in flows.visits_at(node) {
            let flow = flows.flow(visit.flow);
            let remaining = flow.path().length().saturating_sub(visit.prefix);
            let mut via_shop = Distance::MAX;
            for (s, rev) in rev_trees.iter().enumerate() {
                let d1 = match rev.distance(node) {
                    Some(d) => d,
                    None => continue,
                };
                let d2 = match fwd_trees[s].distance(flow.destination()) {
                    Some(d) => d,
                    None => continue,
                };
                via_shop = via_shop.min(d1.saturating_add(d2));
            }
            if via_shop == Distance::MAX {
                continue;
            }
            expected.push((
                visit.flow,
                visit.position,
                via_shop.saturating_sub(remaining),
            ));
        }
        let got: Vec<(FlowId, u32, Distance)> = table
            .entries_at(node)
            .iter()
            .map(|e| (e.flow, e.position, e.detour))
            .collect();
        assert_eq!(expected, got, "metro detour entries diverged at {node}");
        checked_nodes += 1;
    }
    format!(
        "subsampled({} flows re-routed unpruned, {} nodes vs full shop trees)",
        sampled.len(),
        checked_nodes
    )
}

/// Benchmarks the metro instance: every acceleration forced on (at least
/// two workers, so the detour fill exercises the tile-aligned shard path),
/// the generator's block pitch as the tile cell, subsampled identity.
fn bench_metro(smoke: bool, threads: usize) -> InstanceReport {
    let params = if smoke {
        rap_trace::MetroParams::smoke()
    } else {
        rap_trace::MetroParams::metro()
    };
    let model = rap_trace::metro(params, SEED);
    let tile_cell = model.tile_cell();
    let (graph, specs, shops) = model.into_parts();
    let threads = threads.max(2);
    eprintln!(
        "[metro] {} nodes, {} edges, {} flows, {} shop(s), {threads} worker(s), \
         {tile_cell} ft tile cell",
        graph.node_count(),
        graph.edge_count(),
        specs.len(),
        shops.len(),
    );

    let utility = UtilityKind::Linear.instantiate(Distance::from_feet(2_500));
    let (scenario, report) = build_scenario(
        graph.clone(),
        specs.clone(),
        shops.clone(),
        utility,
        &BuildOptions {
            threads: Some(threads),
            mode: BuildMode::Accelerated,
            tile_cell: Some(tile_cell),
        },
    )
    .expect("metro builds");
    eprintln!(
        "[metro] built: landmarks {:.0} ms, routing {:.0} ms, detours {:.0} ms, \
         total {:.0} ms ({} tiles, kernel {})",
        report.landmark_ms,
        report.routing_ms,
        report.detour_ms,
        report.total_ms,
        report.tile_count,
        report.kernel.name(),
    );

    let identity = assert_metro_subsample(&graph, &specs, &shops, &scenario);
    eprintln!("[metro] identity: {identity}");

    InstanceReport {
        name: "metro".to_string(),
        nodes: graph.node_count(),
        edges: graph.edge_count(),
        flows: specs.len(),
        shops: shops.len(),
        kernel: report.kernel.name().to_string(),
        threads: report.plan.threads,
        use_alt: report.plan.use_alt,
        use_tiles: report.plan.use_tiles,
        tile_count: report.tile_count,
        identity,
        baseline: None,
        optimized: OptimizedTimes {
            landmark_ms: report.landmark_ms,
            routing_ms: report.routing_ms,
            detour_ms: report.detour_ms,
            total_ms: report.landmark_ms + report.routing_ms + report.detour_ms,
            build_total_ms: report.total_ms,
        },
        routing_speedup: None,
        detour_speedup: None,
        total_speedup: None,
    }
}

fn main() {
    let mut smoke = false;
    let mut out_path = "BENCH_build.json".to_string();
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else {
            out_path = arg;
        }
    }
    let threads = parallel::default_threads();
    let (side, grid_flows, journeys) = if smoke {
        (SMOKE_GRID_SIDE, SMOKE_GRID_FLOWS, SMOKE_CITY_JOURNEYS)
    } else {
        (GRID_SIDE, GRID_FLOWS, CITY_JOURNEYS)
    };
    // Small instances get best-of-5; the full grid swamps timer noise.
    let grid_runs = if smoke { 5 } else { 1 };

    let grid = GridGraph::new(side, side, Distance::from_feet(500));
    let specs = uniform_demand(
        grid.graph(),
        DemandParams {
            flows: grid_flows,
            min_volume: 100.0,
            max_volume: 1_000.0,
            attractiveness: 0.001,
        },
        SEED,
    )
    .expect("demand parameters valid");
    let grid_report =
        bench_comparative("grid", grid.graph(), specs, vec![grid.center()], grid_runs);

    let params = rap_trace::CityParams {
        journeys,
        ..rap_trace::CityParams::seattle()
    };
    let model = rap_trace::seattle(params, SEED).expect("city model builds");
    let city_specs: Vec<FlowSpec> = model.flows().iter().map(|f| *f.spec()).collect();
    let city_shops: Vec<NodeId> = model
        .shop_candidates(Zone::CityCenter)
        .into_iter()
        .take(3)
        .collect();
    let city_report = bench_comparative("seattle", model.graph(), city_specs, city_shops, 5);

    let metro_report = bench_metro(smoke, threads);

    if !smoke {
        assert!(
            grid_report.total_speedup.unwrap_or(0.0) >= 2.0,
            "grid scenario construction speedup {:.2}x fell below the 2x floor",
            grid_report.total_speedup.unwrap_or(0.0)
        );
    }
    // The small-instance no-regression gate (smoke included): auto-selection
    // must never make the city-scale build slower than the baseline.
    assert!(
        city_report.total_speedup.unwrap_or(0.0) >= 1.0,
        "seattle scenario construction speedup {:.2}x regressed below 1.0x",
        city_report.total_speedup.unwrap_or(0.0)
    );

    let report = Report {
        smoke,
        instances: vec![grid_report, city_report, metro_report],
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, json + "\n").expect("write benchmark report");
    for inst in &report.instances {
        match (
            inst.routing_speedup,
            inst.detour_speedup,
            inst.total_speedup,
        ) {
            (Some(r), Some(d), Some(t)) => eprintln!(
                "[{}] speedup: routing {r:.2}x, detours {d:.2}x, total {t:.2}x",
                inst.name
            ),
            _ => eprintln!(
                "[{}] end-to-end {:.0} ms ({} tiles, identity {})",
                inst.name, inst.optimized.total_ms, inst.tile_count, inst.identity
            ),
        }
    }
    eprintln!("wrote {out_path}");
}
