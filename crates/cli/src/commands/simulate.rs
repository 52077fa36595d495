//! `rap simulate` — Manhattan-grid scenario with driver microsimulation.

use crate::args::Args;
use crate::CliError;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rap_graph::{Distance, GridGraph};
use rap_manhattan::gen::{boundary_flows, class_histogram, BoundaryFlowParams};
use rap_manhattan::simulate::{flexibility_gain, simulate_rap_seeking};
use rap_manhattan::{
    ClassReport, GridGreedy, ManhattanAlgorithm, ManhattanScenario, ModifiedTwoStage, TwoStage,
};

/// Options accepted by `rap simulate`.
pub const USAGE: &str = "\
rap simulate [--side N] [--spacing FEET] [--d FEET] [--flows N] [--k N]
             [--utility threshold|linear|sqrt] [--seed N] [--samples N]

Builds a Manhattan-grid city, runs Algorithms 3/4 and the adaptive grid
greedy, and reports per-class coverage plus the Monte-Carlo path-flexibility
gain (RAP-seeking vs random-shortest-path drivers).";

/// Runs the command; returns the human-readable report.
///
/// # Errors
///
/// Propagates argument and generation failures.
pub fn run(args: &Args) -> Result<String, CliError> {
    let side: u32 = args.get_or("side", "integer", 21)?;
    let spacing: u64 = args.get_or("spacing", "feet", 250)?;
    let (utility, d) = super::utility_and_threshold(args, "threshold")?;
    let flows: usize = args.get_or("flows", "integer", 100)?;
    let k: usize = args.get_or("k", "integer", 8)?;
    let seed: u64 = args.get_or("seed", "integer", 2015)?;
    let samples: usize = args.get_or("samples", "integer", 200)?;
    if side < 2 {
        return Err(CliError::Usage("side must be at least 2".into()));
    }

    let grid = GridGraph::new(side, side, Distance::from_feet(spacing));
    let specs = boundary_flows(
        &grid,
        BoundaryFlowParams {
            flows,
            min_volume: 200.0,
            max_volume: 1_000.0,
            attractiveness: rap_traffic::flow::DEFAULT_ATTRACTIVENESS,
            straight_fraction: 0.3,
        },
        seed,
    )
    .map_err(|e| CliError::Usage(e.to_string()))?;

    let mut report = String::from("through-traffic classes:\n");
    for (class, count) in class_histogram(&grid, &specs) {
        report.push_str(&format!("  {class:<20} {count}\n"));
    }

    let scenario = ManhattanScenario::with_region(
        grid,
        specs,
        utility.instantiate(Distance::from_feet(d)),
        Distance::from_feet(d),
    )?;
    report.push_str(&format!(
        "\n{} candidate sites in the D x D region, {utility} utility, k = {k}\n\n",
        scenario.candidates().len()
    ));

    let algorithms: [&dyn ManhattanAlgorithm; 3] = [&TwoStage, &ModifiedTwoStage, &GridGreedy];
    for alg in algorithms {
        let mut rng = StdRng::seed_from_u64(seed);
        let placement = alg.place(&scenario, k, &mut rng);
        let seeking = simulate_rap_seeking(&scenario, &placement);
        let gain = flexibility_gain(&scenario, &placement, samples, &mut rng);
        report.push_str(&format!(
            "{} -> {placement}\n  {:.3} customers/day; flexibility worth {:.3} ({} mc samples)\n",
            alg.name(),
            seeking.customers,
            gain,
            samples
        ));
        let classes = ClassReport::compute(&scenario, &placement);
        for line in classes.to_string().lines() {
            report.push_str(&format!("  {line}\n"));
        }
        report.push('\n');
    }

    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulate_runs_with_defaults_scaled_down() {
        let args = Args::parse([
            "--side",
            "9",
            "--spacing",
            "250",
            "--d",
            "1000",
            "--flows",
            "30",
            "--k",
            "6",
            "--samples",
            "20",
        ])
        .unwrap();
        let report = run(&args).unwrap();
        assert!(report.contains("Algorithm 3"));
        assert!(report.contains("flexibility"));
        assert!(report.contains("turned"));
    }

    #[test]
    fn zero_threshold_is_a_usage_error() {
        let args = Args::parse(["--side", "9", "--d", "0"]).unwrap();
        assert!(matches!(
            run(&args),
            Err(CliError::Usage(ref m)) if m.contains("--d")
        ));
    }

    #[test]
    fn rejects_bad_utility_and_side() {
        let args = Args::parse(["--utility", "exp"]).unwrap();
        assert!(matches!(run(&args), Err(CliError::Usage(_))));
        let args = Args::parse(["--side", "1"]).unwrap();
        assert!(matches!(run(&args), Err(CliError::Usage(_))));
    }
}
