//! `rap figures` — regenerate the paper's figures from the command line.

use crate::args::Args;
use crate::CliError;
use rap_experiments::{Settings, EXPERIMENTS};

/// Options accepted by `rap figures`.
pub const USAGE: &str = "\
rap figures --which <fig10|fig11|fig12|fig13|ablation|sensitivity|robustness|drift|complexity|all>
            [--trials N] [--seed N]

Regenerates the requested experiment (tables to stdout, JSON to
results/<name>.json); `all` runs every one.";

/// Runs the command; returns the rendered tables.
///
/// # Errors
///
/// Propagates argument and I/O failures.
pub fn run(args: &Args) -> Result<String, CliError> {
    let which = args.required("which")?;
    let trials: usize = args.get_or("trials", "integer", Settings::default().trials)?;
    let seed: u64 = args.get_or("seed", "integer", 2015)?;
    let settings = Settings { trials, seed };

    let runs: Vec<_> = EXPERIMENTS
        .iter()
        .filter(|(name, _)| which == "all" || *name == which)
        .collect();
    if runs.is_empty() {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        return Err(CliError::Usage(format!(
            "unknown figure `{which}` (expected {} or all)",
            names.join(", ")
        )));
    }

    let mut out = String::new();
    for (_, run) in runs {
        let figure = run(&settings);
        out.push_str(&figure.render());
        match rap_experiments::save_results(&figure) {
            Ok(path) => out.push_str(&format!("json written to {}\n\n", path.display())),
            Err(e) => out.push_str(&format!("could not write results: {e}\n\n")),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig10_renders_quickly_with_few_trials() {
        let args = Args::parse(["--which", "fig10", "--trials", "2"]).unwrap();
        let out = run(&args).unwrap();
        assert!(out.contains("fig10"));
        assert!(out.contains("Algorithm 1"));
    }

    #[test]
    fn unknown_figure_is_usage_error() {
        let args = Args::parse(["--which", "fig99"]).unwrap();
        let Err(CliError::Usage(msg)) = run(&args) else {
            panic!("fig99 must be a usage error");
        };
        for (name, _) in EXPERIMENTS {
            assert!(msg.contains(name), "{msg}");
        }
    }
}
