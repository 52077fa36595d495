//! `plan-cold`: a planner's full run, from a parsed city to a placement.
//!
//! Set-up parses the city graph from the repository's text format. One op
//! builds the scenario through `build_scenario` (routing, landmarks, tiles,
//! detour table), places k RAPs with Algorithm 2 and evaluates the result.
//! The instance sits just above every `RoutePlan::auto` floor, so the
//! threaded, ALT-pruned, tiled build runs.

use crate::calib::Kernel;
use crate::measure::{span_p50_ms, Config, Outcome, Size};
use crate::stats;
use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rap_core::{
    build_scenario, BuildMode, BuildOptions, BuildReport, CompositeGreedy, Placement,
    PlacementAlgorithm, PlacementError, Scenario, UtilityFunction, UtilityKind,
};
use rap_graph::{Distance, NodeId, RoadGraph};
use rap_trace::MetroParams;
use rap_traffic::FlowSpec;
use std::sync::Arc;
use std::time::Instant;

/// RAPs placed per op: the default budget of `rap place`.
const K: usize = 20;
/// Cold parses of the city per run; set-up reports their median.
const SETUPS: usize = 15;

fn params(size: Size) -> MetroParams {
    match size {
        // 40k nodes and 6k flows: above the 50M node x flow work floor and
        // the 30k-node / 5k-flow ALT and tile floors of `RoutePlan::auto`.
        Size::Full => MetroParams {
            rows: 200,
            cols: 200,
            block: 40,
            spacing_ft: 400,
            jitter_ft: 60,
            flows: 6_000,
            local_pct: 85,
            district_pct: 13,
            local_radius: 20,
            district_radius: 50,
            cross_radius: 100,
            shops: 3,
        },
        Size::Tiny => MetroParams {
            rows: 24,
            cols: 24,
            block: 8,
            spacing_ft: 400,
            jitter_ft: 60,
            flows: 300,
            local_pct: 85,
            district_pct: 13,
            local_radius: 4,
            district_radius: 8,
            cross_radius: 16,
            shops: 2,
        },
    }
}

struct Planned {
    scenario: Scenario,
    report: BuildReport,
    placement: Placement,
    objective: f64,
}

pub fn run(cfg: &Config, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let model = rap_trace::metro(params(cfg.size), cfg.seed);
    let (city, specs, shops) = model.into_parts();
    let mut text = Vec::new();
    rap_graph::io::write_text(&city, &mut text).expect("writing to memory cannot fail");
    drop(city);

    // One kernel per build thread: a host-speed sample before every op
    // times both CPUs the threaded build runs on; one before every parse
    // times the CPU the parse runs on.
    let threads = cfg.plan_threads;
    let mut kernels: Vec<Kernel> = (0..threads).map(|_| Kernel::new()).collect();

    // Set-up: cold parses of the city text, each discarding the last.
    let mut graph: Option<RoadGraph> = None;
    for _ in 0..SETUPS {
        graph = None;
        out.setup_reference
            .sample_on(out.setups_s.len(), &mut kernels[..1]);
        let start = Instant::now();
        let parsed = tracer.span("graph.io.read_text", || rap_graph::io::read_text(&text[..]));
        out.setups_s.push(start.elapsed().as_secs_f64());
        match parsed {
            Ok(g) => graph = Some(g),
            Err(e) => out.errors.push(format!("city text failed to parse: {e}")),
        }
    }
    let Some(graph) = graph else {
        return out;
    };
    let mut round_trip = Vec::new();
    rap_graph::io::write_text(&graph, &mut round_trip).expect("writing to memory cannot fail");
    out.check(round_trip == text, || {
        "parsed city does not re-serialize to its text".into()
    });

    out.threads.push(("plan.build_threads", threads));
    // The tiny instance sits below every auto floor, so the smoke test
    // forces the accelerated path to keep the identity check meaningful.
    let mode = match cfg.size {
        Size::Full => BuildMode::Auto,
        Size::Tiny => BuildMode::Accelerated,
    };
    let utility = UtilityKind::Linear.instantiate(Distance::from_feet(2_500));
    type Inputs = (
        RoadGraph,
        Vec<FlowSpec>,
        Vec<NodeId>,
        Arc<dyn UtilityFunction>,
    );
    let inputs = || -> Inputs {
        (
            graph.clone(),
            specs.clone(),
            shops.clone(),
            Arc::clone(&utility),
        )
    };
    let plan = |(graph, specs, shops, utility): Inputs, mode| -> Result<Planned, PlacementError> {
        let opts = BuildOptions {
            threads: Some(threads),
            mode,
            tile_cell: None,
        };
        let (scenario, report) = tracer.span("core.build_scenario", || {
            build_scenario(graph, specs, shops, utility, &opts)
        })?;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let placement = tracer.span("core.composite.place", || {
            CompositeGreedy.place(&scenario, K, &mut rng)
        });
        let objective = tracer.span("core.scenario.evaluate", || scenario.evaluate(&placement));
        Ok(Planned {
            scenario,
            report,
            placement,
            objective,
        })
    };

    // One warm-up op fixes the reference result every measured op must
    // reproduce bit for bit.
    let reference = match plan(inputs(), mode) {
        Ok(p) => p,
        Err(e) => {
            out.errors.push(format!("warm-up build failed: {e}"));
            return out;
        }
    };
    if cfg.size == Size::Full {
        let p = reference.report.plan;
        out.check(p.use_alt && p.use_tiles && p.threads == threads, || {
            format!("auto plan did not select threads, ALT and tiles: {p:?}")
        });
    }
    let ref_bits = reference.objective.to_bits();
    let ref_raps = reference.placement.raps().to_vec();
    drop(reference);

    let deadline = Instant::now() + cfg.measure;
    let mut last: Option<Planned> = None;
    let mut reports = Vec::new();
    while Instant::now() < deadline || out.ops.len() < 2 {
        last = None;
        out.reference.sample_on(out.ops.len(), &mut kernels);
        let input = inputs();
        let op = tracer.begin("plan.op");
        let result = out.ops.time(|| plan(input, mode));
        tracer.end(op);
        out.attempted += 1;
        match result {
            Ok(p) => {
                if p.objective.to_bits() != ref_bits || p.placement.raps() != ref_raps {
                    out.errors.push(format!(
                        "op {} placed {:?} worth {} instead of {:?} worth {}",
                        out.attempted,
                        p.placement.raps(),
                        p.objective,
                        ref_raps,
                        f64::from_bits(ref_bits)
                    ));
                }
                reports.push(p.report.clone());
                last = Some(p);
            }
            Err(e) => {
                out.failed += 1;
                out.errors.push(format!("op {} failed: {e}", out.attempted));
            }
        }
    }
    out.peak_rss_mb = crate::host::peak_rss_mb();

    // Once per run: the unaccelerated sequential build must agree on every
    // detour entry, the candidate set, the placement and its objective bits.
    if let Some(fast) = &last {
        match plan(inputs(), BuildMode::Plain) {
            Ok(plain) => {
                check_identical(&mut out, fast, &plain);
                out.check(plain.objective.to_bits() == ref_bits, || {
                    "plain build's objective differs from the accelerated one".into()
                });
            }
            Err(e) => out.errors.push(format!("plain rebuild failed: {e}")),
        }
    }

    if tracer.enabled() {
        if let Some(p) = &last {
            layers(&mut out, tracer, p, &reports);
        }
    }
    out
}

fn check_identical(out: &mut Outcome, fast: &Planned, plain: &Planned) {
    let (a, b) = (&fast.scenario, &plain.scenario);
    out.check(a.detours().entries() == b.detours().entries(), || {
        "detour entries differ between the accelerated and plain builds".into()
    });
    out.check(a.candidates() == b.candidates(), || {
        "candidate sets differ between the accelerated and plain builds".into()
    });
    let paths_equal = a.flows().len() == b.flows().len()
        && a.flows()
            .iter()
            .zip(b.flows().iter())
            .all(|(x, y)| x.path().nodes() == y.path().nodes());
    out.check(paths_equal, || {
        "routed paths differ between the accelerated and plain builds".into()
    });
    out.check(fast.placement.raps() == plain.placement.raps(), || {
        "placements differ between the accelerated and plain builds".into()
    });
}

fn layers(out: &mut Outcome, tracer: &Tracer, last: &Planned, reports: &[BuildReport]) {
    let p50 =
        |f: fn(&BuildReport) -> f64| stats::median(&reports.iter().map(f).collect::<Vec<_>>());
    let report = &last.report;
    out.layer("io.read_text_ms", span_p50_ms(tracer, "graph.io.read_text"));
    out.layer("construction.landmark_ms", p50(|r| r.landmark_ms));
    out.layer("construction.routing_ms", p50(|r| r.routing_ms));
    out.layer("construction.detour_ms", p50(|r| r.detour_ms));
    out.layer(
        "construction.assemble_ms",
        p50(|r| r.total_ms - r.landmark_ms - r.routing_ms - r.detour_ms),
    );
    out.layer("plan.use_alt", f64::from(u8::from(report.plan.use_alt)));
    out.layer("plan.use_tiles", f64::from(u8::from(report.plan.use_tiles)));
    out.layer("plan.tile_count", report.tile_count as f64);
    out.layer("plan.threads", report.plan.threads as f64);
    out.layer("traffic.flows", report.flows as f64);
    out.layer("graph.nodes", report.nodes as f64);
    out.layer(
        "detour.entries",
        last.scenario.detours().entries().len() as f64,
    );
    out.layer(
        "scenario.candidates",
        last.scenario.candidates().len() as f64,
    );
    out.layer(
        "composite.place_ms",
        span_p50_ms(tracer, "core.composite.place"),
    );
}
