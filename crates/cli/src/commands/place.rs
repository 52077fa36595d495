//! `rap place` — run a placement algorithm on a graph + flows from disk.

use crate::args::Args;
use crate::CliError;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rap_core::{
    build_scenario, BuildReport, CompositeGreedy, EngineReport, ExhaustiveOptimal, GreedyCoverage,
    GreedyWithSwaps, InvertedGainEngine, InvertedIndex, LazyGreedy, MarginalGreedy, MaxCardinality,
    MaxCustomers, MaxVehicles, Placement, PlacementAlgorithm, PlacementReport, Random, Scenario,
};
use rap_graph::{Distance, NodeId};
use rap_traffic::FlowSpec;
use serde::Serialize;

/// Options accepted by `rap place`.
pub const USAGE: &str = "\
rap place --graph FILE --flows FILE --shop NODE --k N
          [--utility threshold|linear|sqrt] [--d FEET] [--seed N]
          [--algorithm alg1|alg2|marginal|lazy|inverted|swaps|maxcard|maxveh|maxcust|random|optimal|all]
          [--lenient true] [--json true] [--threads N]

--graph  street network in the rap-graph text format (see `rap generate`)
--flows  CSV with header origin,destination,volume,alpha
--threads        worker threads for the scenario build on large instances
                 (flow routing and detour-table preprocessing; 0, the
                 default, uses every core, and small instances always
                 build on one) and for the inverted engine's index build
                 (0 builds on one; the greedy itself always runs on one
                 thread). Placements are bit-identical at any value.
--lenient        quarantine malformed flow rows (with a count in the
                 report) instead of aborting on the first one
--json           emit one machine-readable JSON report (the scenario
                 build's plan and phase timings, then per algorithm the
                 placement, objective and inverted-engine work counters)
                 instead of the text report — the same format family the
                 `rap stream` events use
Prints the chosen placement(s) and quality reports.";

/// Parses the flow summary CSV written by `rap generate` (shared with
/// `rap stream`). In lenient mode malformed rows are counted instead of
/// aborting the read.
pub(crate) fn read_flows(path: &str, lenient: bool) -> Result<(Vec<FlowSpec>, usize), CliError> {
    let text = std::fs::read_to_string(path)?;
    let mut specs = Vec::new();
    let mut quarantined = 0usize;
    for (idx, line) in text.lines().enumerate() {
        if idx == 0 || line.trim().is_empty() {
            continue; // header
        }
        match parse_flow_row(line, idx + 1) {
            Ok(spec) => specs.push(spec),
            Err(_) if lenient => quarantined += 1,
            Err(e) => return Err(e),
        }
    }
    Ok((specs, quarantined))
}

/// Parses one `origin,destination,volume,alpha` row.
fn parse_flow_row(line: &str, line_no: usize) -> Result<FlowSpec, CliError> {
    let fields: Vec<&str> = line.split(',').collect();
    if fields.len() != 4 {
        return Err(CliError::Usage(format!(
            "flows file line {line_no}: expected 4 columns"
        )));
    }
    let parse_err =
        |what: &str| CliError::Usage(format!("flows file line {line_no}: invalid {what}"));
    let origin: u32 = fields[0].trim().parse().map_err(|_| parse_err("origin"))?;
    let dest: u32 = fields[1]
        .trim()
        .parse()
        .map_err(|_| parse_err("destination"))?;
    let volume: f64 = fields[2].trim().parse().map_err(|_| parse_err("volume"))?;
    let alpha: f64 = fields[3].trim().parse().map_err(|_| parse_err("alpha"))?;
    FlowSpec::new(NodeId::new(origin), NodeId::new(dest), volume)
        .map_err(|e| CliError::Usage(format!("flows file line {line_no}: {e}")))?
        .with_attractiveness(alpha)
        .map_err(|e| CliError::Usage(format!("flows file line {line_no}: {e}")))
}

/// Runs one algorithm. The inverted engine also returns its work counters,
/// with its index built over `threads` workers (0 = one); placements are
/// thread-count invariant.
fn place_with_counters(
    name: &str,
    alg: &dyn PlacementAlgorithm,
    scenario: &Scenario,
    k: usize,
    threads: usize,
    rng: &mut StdRng,
) -> (Placement, Option<EngineReport>) {
    if name == "inverted" {
        let index = InvertedIndex::build_with_threads(scenario, threads.max(1));
        let (placement, report) = InvertedGainEngine.place_with_index(scenario, &index, k);
        return (placement, Some(report));
    }
    (alg.place(scenario, k, rng), None)
}

/// One algorithm's entry in the `--json` report.
#[derive(Debug, Serialize)]
struct JsonAlgorithm {
    /// The `--algorithm` token.
    algorithm: String,
    /// The engine's display name.
    name: String,
    /// Chosen RAP intersection ids, in selection order.
    raps: Vec<u32>,
    /// Expected customers/day of the placement.
    objective: f64,
    /// Work counters (the inverted engine only).
    engine: Option<EngineReport>,
}

/// The scenario build in the `--json` report: the plan `build_scenario`
/// chose and how long each phase took.
#[derive(Debug, Serialize)]
struct JsonBuild {
    /// Worker threads for routing and table builds.
    threads: usize,
    /// Whether routing ran goal-directed over landmark tables.
    use_alt: bool,
    /// Whether routing and the detour fill ran over a tile grid.
    use_tiles: bool,
    /// Tiles in the spatial partition (0 when tiling was off).
    tile_count: usize,
    /// Milliseconds selecting landmarks and building the tile grid.
    landmark_ms: f64,
    /// Milliseconds routing all flows.
    routing_ms: f64,
    /// Milliseconds building the detour table.
    detour_ms: f64,
    /// Milliseconds for the whole build.
    total_ms: f64,
}

impl From<&BuildReport> for JsonBuild {
    fn from(r: &BuildReport) -> Self {
        JsonBuild {
            threads: r.plan.threads,
            use_alt: r.plan.use_alt,
            use_tiles: r.plan.use_tiles,
            tile_count: r.tile_count,
            landmark_ms: r.landmark_ms,
            routing_ms: r.routing_ms,
            detour_ms: r.detour_ms,
            total_ms: r.total_ms,
        }
    }
}

/// The whole `--json` report.
#[derive(Debug, Serialize)]
struct JsonReport {
    shop: u32,
    utility: String,
    d_feet: u64,
    k: usize,
    quarantined_rows: usize,
    build: JsonBuild,
    algorithms: Vec<JsonAlgorithm>,
}

fn algorithm_by_name(name: &str) -> Option<Box<dyn PlacementAlgorithm>> {
    Some(match name {
        "alg1" => Box::new(GreedyCoverage),
        "alg2" => Box::new(CompositeGreedy),
        "marginal" => Box::new(MarginalGreedy),
        "lazy" => Box::new(LazyGreedy),
        "inverted" => Box::new(InvertedGainEngine),
        "swaps" => Box::new(GreedyWithSwaps),
        "maxcard" => Box::new(MaxCardinality),
        "maxveh" => Box::new(MaxVehicles),
        "maxcust" => Box::new(MaxCustomers),
        "random" => Box::new(Random),
        "optimal" => Box::new(ExhaustiveOptimal::new()),
        _ => return None,
    })
}

const ALL_ALGORITHMS: [&str; 10] = [
    "alg1", "alg2", "marginal", "lazy", "inverted", "swaps", "maxcard", "maxveh", "maxcust",
    "random",
];

/// Runs the command; returns the human-readable report.
///
/// # Errors
///
/// Propagates argument, parsing, scenario, and I/O failures.
pub fn run(args: &Args) -> Result<String, CliError> {
    let graph_path = args.required("graph")?;
    let flows_path = args.required("flows")?;
    let shop: u32 = args.required_parsed("shop", "node id")?;
    let k: usize = args.required_parsed("k", "integer")?;
    let (utility, d) = super::utility_and_threshold(args, "linear")?;
    let seed: u64 = args.get_or("seed", "integer", 2015)?;
    let algorithm = args.get("algorithm").unwrap_or("alg2");
    let lenient: bool = args.get_or("lenient", "true/false", false)?;
    let json: bool = args.get_or("json", "true/false", false)?;
    let threads: usize = args.get_or("threads", "integer", 0)?;

    let graph = rap_graph::io::read_text(std::fs::File::open(graph_path)?)?;
    let (specs, quarantined) = read_flows(flows_path, lenient)?;
    let (scenario, build) = build_scenario(
        graph,
        specs,
        vec![NodeId::new(shop)],
        utility.instantiate(Distance::from_feet(d)),
        &super::build_options(threads),
    )
    .map_err(super::build_error)?;

    let names: Vec<&str> = if algorithm == "all" {
        ALL_ALGORITHMS.to_vec()
    } else {
        vec![algorithm]
    };
    let mut report = format!(
        "shop at V{shop}, {} utility, D = {d} ft, k = {k}\n",
        utility
    );
    if quarantined > 0 {
        report.push_str(&format!(
            "flows: {quarantined} malformed row(s) quarantined (lenient mode)\n"
        ));
    }
    let mut json_algorithms = Vec::new();
    for name in names {
        let alg = algorithm_by_name(name).ok_or_else(|| {
            CliError::Usage(format!("unknown algorithm `{name}` (try --algorithm all)"))
        })?;
        let mut rng = StdRng::seed_from_u64(seed);
        let (placement, engine_report) =
            place_with_counters(name, alg.as_ref(), &scenario, k, threads, &mut rng);
        if json {
            json_algorithms.push(JsonAlgorithm {
                algorithm: name.to_string(),
                name: alg.name().to_string(),
                raps: placement.iter().map(|v| v.raw()).collect(),
                objective: scenario.evaluate(&placement),
                engine: engine_report,
            });
            continue;
        }
        let quality = PlacementReport::compute(&scenario, &placement);
        report.push_str(&format!("{:<28} {placement}\n    {quality}\n", alg.name()));
    }
    if json {
        let payload = JsonReport {
            shop,
            utility: utility.to_string(),
            d_feet: d,
            k,
            quarantined_rows: quarantined,
            build: JsonBuild::from(&build),
            algorithms: json_algorithms,
        };
        return serde_json::to_string_pretty(&payload)
            .map_err(|e| CliError::Usage(format!("json serialization failed: {e}")));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Writes a tiny graph + flows pair into the test's scratch dir and
    /// returns the paths.
    fn fixture(dir: &crate::TestDir) -> (std::path::PathBuf, std::path::PathBuf) {
        let gp = dir.path("graph.txt");
        let fp = dir.path("flows.csv");
        let grid = rap_graph::GridGraph::new(3, 3, Distance::from_feet(100));
        let mut f = std::fs::File::create(&gp).unwrap();
        rap_graph::io::write_text(grid.graph(), &mut f).unwrap();
        std::fs::write(
            &fp,
            "origin,destination,volume,alpha\n0,2,100,0.01\n6,8,50,0.01\n",
        )
        .unwrap();
        (gp, fp)
    }

    #[test]
    fn places_with_default_algorithm() {
        let dir = crate::TestDir::new("place_places_with_default_algorithm");
        let (gp, fp) = fixture(&dir);
        let args = Args::parse([
            "--graph",
            gp.to_str().unwrap(),
            "--flows",
            fp.to_str().unwrap(),
            "--shop",
            "4",
            "--k",
            "2",
            "--d",
            "400",
        ])
        .unwrap();
        let report = run(&args).unwrap();
        assert!(report.contains("Algorithm 2"));
        assert!(report.contains("customers/day"));
    }

    #[test]
    fn all_algorithms_run() {
        let dir = crate::TestDir::new("place_all_algorithms_run");
        let (gp, fp) = fixture(&dir);
        let args = Args::parse([
            "--graph",
            gp.to_str().unwrap(),
            "--flows",
            fp.to_str().unwrap(),
            "--shop",
            "4",
            "--k",
            "2",
            "--algorithm",
            "all",
        ])
        .unwrap();
        let report = run(&args).unwrap();
        for needle in [
            "Algorithm 1",
            "Algorithm 2",
            "MaxVehicles",
            "Random",
            "CELF",
            "inverted delta-propagation greedy",
        ] {
            assert!(report.contains(needle), "missing {needle}: {report}");
        }
    }

    #[test]
    fn threads_flag_keeps_placements_identical() {
        let dir = crate::TestDir::new("place_threads_flag_keeps_placements_identical");
        let (gp, fp) = fixture(&dir);
        let base = [
            "--graph",
            gp.to_str().unwrap(),
            "--flows",
            fp.to_str().unwrap(),
            "--shop",
            "4",
            "--k",
            "2",
            "--d",
            "400",
            "--algorithm",
            "all",
        ];
        let default = run(&Args::parse(base).unwrap()).unwrap();
        for threads in ["1", "3"] {
            let mut widened: Vec<&str> = base.to_vec();
            widened.extend(["--threads", threads]);
            let report = run(&Args::parse(widened).unwrap()).unwrap();
            assert_eq!(report, default, "--threads {threads} changed a placement");
        }
    }

    #[test]
    fn json_report_carries_placement_objective_and_engine_counters() {
        let dir = crate::TestDir::new(
            "place_json_report_carries_placement_objective_and_engine_counters",
        );
        let (gp, fp) = fixture(&dir);
        let json_for = |algorithm: &str| {
            let args = Args::parse([
                "--graph",
                gp.to_str().unwrap(),
                "--flows",
                fp.to_str().unwrap(),
                "--shop",
                "4",
                "--k",
                "2",
                "--d",
                "400",
                "--algorithm",
                algorithm,
                "--json",
                "true",
            ])
            .unwrap();
            let v: serde::Value = serde_json::from_str(&run(&args).unwrap()).expect("valid JSON");
            v
        };

        // The inverted engine reports its gain-fold and delta-push counters.
        let v = json_for("inverted");
        assert_eq!(v["shop"], 4u64);
        assert_eq!(v["k"], 2u64);
        let alg = &v["algorithms"][0];
        assert_eq!(alg["algorithm"], "inverted");
        assert_eq!(alg["name"], "inverted delta-propagation greedy");
        assert!(alg["objective"].as_f64().unwrap() > 0.0);
        let raps: Vec<_> = match &alg["raps"] {
            serde::Value::Seq(items) => items.clone(),
            other => panic!("raps not an array: {other:?}"),
        };
        assert_eq!(raps.len(), 2);
        assert!(alg["engine"]["gain_evals"].as_f64().unwrap() > 0.0);
        assert!(alg["engine"]["delta_pushes"].as_f64().is_some());

        // Every other engine carries no counter object, and the greedy
        // variants agree with the inverted engine exactly.
        for name in ["alg2", "marginal", "lazy"] {
            let other = json_for(name);
            let row = &other["algorithms"][0];
            assert_eq!(row["engine"], serde::Value::Null, "{name}");
            if name != "alg2" {
                assert_eq!(row["raps"], alg["raps"], "{name}");
                assert_eq!(row["objective"], alg["objective"], "{name}");
            }
        }
    }

    #[test]
    fn json_report_matches_the_plain_reference_build() {
        // `rap place` builds through `build_scenario` under
        // `BuildMode::Auto`; every algorithm must report the RAPs and
        // objective bits that the plain sequential build gives in process,
        // with the same algorithm and seed.
        let dir = crate::TestDir::new("place_json_report_matches_the_plain_reference_build");
        let gp = dir.path("seattle.txt");
        let fp = dir.path("seattle.csv");
        crate::dispatch([
            "generate",
            "--city",
            "seattle",
            "--journeys",
            "40",
            "--out-graph",
            gp.to_str().unwrap(),
            "--out-flows",
            fp.to_str().unwrap(),
        ])
        .unwrap();
        let args = Args::parse([
            "--graph",
            gp.to_str().unwrap(),
            "--flows",
            fp.to_str().unwrap(),
            "--shop",
            "60",
            "--k",
            "5",
            "--d",
            "2500",
            "--algorithm",
            "all",
            "--json",
            "true",
        ])
        .unwrap();
        let report: serde::Value = serde_json::from_str(&run(&args).unwrap()).unwrap();

        let graph = rap_graph::io::read_text(std::fs::File::open(&gp).unwrap()).unwrap();
        let (specs, _) = read_flows(fp.to_str().unwrap(), false).unwrap();
        let (plain, _) = build_scenario(
            graph,
            specs,
            vec![NodeId::new(60)],
            rap_core::UtilityKind::Linear.instantiate(Distance::from_feet(2_500)),
            &rap_core::BuildOptions {
                mode: rap_core::BuildMode::Plain,
                ..rap_core::BuildOptions::default()
            },
        )
        .unwrap();
        let rows = match &report["algorithms"] {
            serde::Value::Seq(rows) => rows.clone(),
            other => panic!("algorithms not an array: {other:?}"),
        };
        assert_eq!(rows.len(), ALL_ALGORITHMS.len());
        for (row, name) in rows.iter().zip(ALL_ALGORITHMS) {
            assert_eq!(row["algorithm"], name);
            let mut rng = StdRng::seed_from_u64(2015);
            let expected = algorithm_by_name(name).unwrap().place(&plain, 5, &mut rng);
            let raps: Vec<u32> = match &row["raps"] {
                serde::Value::Seq(items) => {
                    items.iter().map(|v| v.as_f64().unwrap() as u32).collect()
                }
                other => panic!("{name}: raps not an array: {other:?}"),
            };
            let expected_raps: Vec<u32> = expected.iter().map(|v| v.raw()).collect();
            assert_eq!(raps, expected_raps, "{name}");
            assert_eq!(
                row["objective"].as_f64().unwrap().to_bits(),
                plain.evaluate(&expected).to_bits(),
                "{name}"
            );
        }
    }

    #[test]
    fn json_report_carries_the_build_plan_and_phase_timings() {
        // The 121-node Seattle model sits far below every `RoutePlan::auto`
        // floor, so the build runs sequentially without landmarks or tiles.
        let dir = crate::TestDir::new("place_json_report_carries_the_build_plan_and_phase_timings");
        let gp = dir.path("seattle.txt");
        let fp = dir.path("seattle.csv");
        crate::dispatch([
            "generate",
            "--city",
            "seattle",
            "--journeys",
            "40",
            "--out-graph",
            gp.to_str().unwrap(),
            "--out-flows",
            fp.to_str().unwrap(),
        ])
        .unwrap();
        let args = Args::parse([
            "--graph",
            gp.to_str().unwrap(),
            "--flows",
            fp.to_str().unwrap(),
            "--shop",
            "60",
            "--k",
            "5",
            "--threads",
            "4",
            "--json",
            "true",
        ])
        .unwrap();
        let report: serde::Value = serde_json::from_str(&run(&args).unwrap()).unwrap();
        let build = &report["build"];
        let keys: Vec<&str> = match build {
            serde::Value::Map(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("build not an object: {other:?}"),
        };
        assert_eq!(
            keys,
            [
                "threads",
                "use_alt",
                "use_tiles",
                "tile_count",
                "landmark_ms",
                "routing_ms",
                "detour_ms",
                "total_ms"
            ]
        );
        assert_eq!(build["threads"], 1u64);
        assert_eq!(build["use_alt"], serde::Value::Bool(false));
        assert_eq!(build["use_tiles"], serde::Value::Bool(false));
        assert_eq!(build["tile_count"], 0u64);
        let ms = |field: &str| build[field].as_f64().unwrap();
        for field in ["landmark_ms", "routing_ms", "detour_ms"] {
            assert!(ms(field) >= 0.0, "{field}: {}", ms(field));
        }
        assert!(ms("routing_ms") > 0.0);
        assert!(ms("total_ms") >= ms("landmark_ms") + ms("routing_ms") + ms("detour_ms"));
    }

    #[test]
    fn zero_threshold_is_a_usage_error() {
        let dir = crate::TestDir::new("place_zero_threshold_is_a_usage_error");
        let (gp, fp) = fixture(&dir);
        let args = Args::parse([
            "--graph",
            gp.to_str().unwrap(),
            "--flows",
            fp.to_str().unwrap(),
            "--shop",
            "4",
            "--k",
            "2",
            "--d",
            "0",
        ])
        .unwrap();
        assert!(
            matches!(run(&args), Err(CliError::Usage(ref m)) if m.contains("--d")),
            "--d 0 must be a usage error"
        );
    }

    #[test]
    fn bad_inputs_are_usage_errors() {
        let dir = crate::TestDir::new("place_bad_inputs_are_usage_errors");
        let (gp, fp) = fixture(&dir);
        let base = [
            "--graph",
            gp.to_str().unwrap(),
            "--flows",
            fp.to_str().unwrap(),
            "--shop",
            "4",
            "--k",
            "2",
        ];
        let mut bad_utility: Vec<&str> = base.to_vec();
        bad_utility.extend(["--utility", "cubic"]);
        assert!(matches!(
            run(&Args::parse(bad_utility).unwrap()),
            Err(CliError::Usage(_))
        ));
        let mut bad_alg: Vec<&str> = base.to_vec();
        bad_alg.extend(["--algorithm", "magic"]);
        assert!(matches!(
            run(&Args::parse(bad_alg).unwrap()),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn lenient_mode_quarantines_bad_flow_rows() {
        let dir = crate::TestDir::new("place_lenient_mode_quarantines_bad_flow_rows");
        let (gp, _) = fixture(&dir);
        let fp = dir.path("lenient_flows.csv");
        std::fs::write(
            &fp,
            "origin,destination,volume,alpha\n0,2,100,0.01\nbogus,row\n6,8,50,0.01\n",
        )
        .unwrap();
        let base = [
            "--graph",
            gp.to_str().unwrap(),
            "--flows",
            fp.to_str().unwrap(),
            "--shop",
            "4",
            "--k",
            "2",
            "--d",
            "400",
        ];
        // Strict (default) aborts on the malformed row.
        assert!(matches!(
            run(&Args::parse(base).unwrap()),
            Err(CliError::Usage(_))
        ));
        // Lenient salvages the two good rows and reports the quarantine.
        let mut lenient: Vec<&str> = base.to_vec();
        lenient.extend(["--lenient", "true"]);
        let report = run(&Args::parse(lenient).unwrap()).unwrap();
        assert!(
            report.contains("1 malformed row(s) quarantined"),
            "{report}"
        );
        assert!(report.contains("customers/day"));
    }

    #[test]
    fn malformed_flows_rejected() {
        let dir = crate::TestDir::new("place_malformed_flows_rejected");
        let (gp, _) = fixture(&dir);
        let bad = dir.path("bad_flows.csv");
        std::fs::write(&bad, "origin,destination,volume,alpha\n1,2,3\n").unwrap();
        let args = Args::parse([
            "--graph",
            gp.to_str().unwrap(),
            "--flows",
            bad.to_str().unwrap(),
            "--shop",
            "0",
            "--k",
            "1",
        ])
        .unwrap();
        assert!(matches!(run(&args), Err(CliError::Usage(_))));
    }
}
