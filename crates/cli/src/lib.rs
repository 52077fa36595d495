//! # rap-cli
//!
//! The `rap` command-line interface: generate synthetic city models, run
//! placement algorithms on on-disk graphs/flows, and regenerate the paper's
//! figures.
//!
//! ```text
//! rap generate --city dublin --out-graph city.txt --out-flows flows.csv
//! rap place --graph city.txt --flows flows.csv --shop 12 --k 10 --algorithm all
//! rap figures --which fig10 --trials 1000
//! ```
//!
//! The command logic lives in [`commands`] as plain functions returning
//! strings, so it is unit-testable without spawning processes; `main`
//! only does dispatch and exit codes.

pub mod args;
pub mod commands;

use std::fmt;

/// Top-level CLI errors.
#[derive(Debug)]
pub enum CliError {
    /// Bad arguments or malformed user input files.
    Usage(String),
    /// Argument-parser failures.
    Args(args::ArgsError),
    /// Generation/model failures.
    Trace(rap_trace::TraceError),
    /// Graph I/O or validation failures.
    Graph(rap_graph::GraphError),
    /// Traffic routing failures.
    Traffic(rap_traffic::TrafficError),
    /// Placement failures.
    Placement(rap_core::PlacementError),
    /// Streaming pipeline failures (delta parsing, rejected deltas in
    /// strict mode, event-sink I/O).
    Stream(rap_stream::StreamError),
    /// Snapshot encode/decode/verify failures (corruption, truncation,
    /// version mismatch).
    Snapshot(rap_core::SnapshotError),
    /// Serving-layer failures (snapshot load/reload, bind).
    Serve(rap_serve::ServeError),
    /// Filesystem failures.
    Io(std::io::Error),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "{m}"),
            CliError::Args(e) => write!(f, "{e}"),
            CliError::Trace(e) => write!(f, "{e}"),
            CliError::Graph(e) => write!(f, "{e}"),
            CliError::Traffic(e) => write!(f, "{e}"),
            CliError::Placement(e) => write!(f, "{e}"),
            CliError::Stream(e) => write!(f, "{e}"),
            CliError::Snapshot(e) => write!(f, "{e}"),
            CliError::Serve(e) => write!(f, "{e}"),
            CliError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<args::ArgsError> for CliError {
    fn from(e: args::ArgsError) -> Self {
        CliError::Args(e)
    }
}

impl From<rap_trace::TraceError> for CliError {
    fn from(e: rap_trace::TraceError) -> Self {
        CliError::Trace(e)
    }
}

impl From<rap_graph::GraphError> for CliError {
    fn from(e: rap_graph::GraphError) -> Self {
        CliError::Graph(e)
    }
}

impl From<rap_traffic::TrafficError> for CliError {
    fn from(e: rap_traffic::TrafficError) -> Self {
        CliError::Traffic(e)
    }
}

impl From<rap_core::PlacementError> for CliError {
    fn from(e: rap_core::PlacementError) -> Self {
        CliError::Placement(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<rap_stream::StreamError> for CliError {
    fn from(e: rap_stream::StreamError) -> Self {
        CliError::Stream(e)
    }
}

impl From<rap_core::SnapshotError> for CliError {
    fn from(e: rap_core::SnapshotError) -> Self {
        CliError::Snapshot(e)
    }
}

impl From<rap_serve::ServeError> for CliError {
    fn from(e: rap_serve::ServeError) -> Self {
        CliError::Serve(e)
    }
}

/// Top-level usage text.
pub const USAGE: &str = "\
rap — roadside advertisement dissemination toolkit (ICDCS 2015 reproduction)

commands:
  generate   build a synthetic city model and write its artifacts
  place      run placement algorithms on a graph + flows from disk
  figures    regenerate the paper's evaluation figures
  simulate   Manhattan-grid scenario with driver microsimulation
  stream     serve a placement over a stream of traffic deltas
  snapshot   save, load, verify, and inspect checksummed scenario snapshots
  serve      serve a scenario snapshot over HTTP (healthz/evaluate/topk/reload)

run `rap <command> --help` for command options.";

/// Dispatches a full command line (without the program name).
///
/// # Errors
///
/// Returns the failure to be printed to stderr; usage requests ("--help",
/// no command) return `Ok` with the usage text.
pub fn dispatch<I, S>(raw: I) -> Result<String, CliError>
where
    I: IntoIterator<Item = S>,
    S: Into<String>,
{
    let raw: Vec<String> = raw.into_iter().map(Into::into).collect();
    if raw.is_empty() || raw[0] == "--help" || raw[0] == "help" {
        return Ok(USAGE.to_string());
    }
    let name = raw[0].as_str();
    let rest = &raw[1..];
    let found = command(name);
    if rest.first().map(String::as_str) == Some("--help") {
        return Ok(found.map_or(USAGE, |(usage, _)| usage).to_string());
    }
    let Some((usage, run)) = found else {
        return Err(CliError::Usage(format!(
            "unknown command `{name}`\n\n{USAGE}"
        )));
    };
    run(&parse_options(usage, rest)?)
}

/// A command's entry point.
type Run = fn(&args::Args) -> Result<String, CliError>;

/// The usage text and entry point of the command `name`, or `None` for an
/// unknown command. The usage text is also the one list of the options the
/// command accepts.
fn command(name: &str) -> Option<(&'static str, Run)> {
    Some(match name {
        "generate" => (commands::generate::USAGE, commands::generate::run),
        "place" => (commands::place::USAGE, commands::place::run),
        "figures" => (commands::figures::USAGE, commands::figures::run),
        "simulate" => (commands::simulate::USAGE, commands::simulate::run),
        "stream" => (commands::stream::USAGE, commands::stream::run),
        "snapshot" => (commands::snapshot::USAGE, commands::snapshot::run),
        "serve" => (commands::serve::USAGE, commands::serve::run),
        _ => return None,
    })
}

/// Parses a command's arguments, rejecting any option its `usage` text
/// does not name.
fn parse_options(usage: &str, rest: &[String]) -> Result<args::Args, CliError> {
    let parsed = args::Args::parse(rest.iter().cloned())?;
    parsed.reject_undocumented(usage)?;
    Ok(parsed)
}

/// A test's scratch directory, `$TMPDIR/rap_cli_{pid}_{test}`, removed
/// when the value drops. The test harness runs tests concurrently, so every
/// test passes its own name and no two tests share a fixture file.
#[cfg(test)]
pub(crate) struct TestDir(std::path::PathBuf);

#[cfg(test)]
impl TestDir {
    pub(crate) fn new(test: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("rap_cli_{}_{test}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir is writable");
        TestDir(dir)
    }

    /// `file` inside the directory.
    pub(crate) fn path(&self, file: &str) -> std::path::PathBuf {
        self.0.join(file)
    }
}

#[cfg(test)]
impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_args_prints_usage() {
        let out = dispatch([] as [&str; 0]).unwrap();
        assert!(out.contains("commands:"));
    }

    #[test]
    fn help_flags() {
        assert!(dispatch(["--help"]).unwrap().contains("commands:"));
        assert!(dispatch(["generate", "--help"]).unwrap().contains("--city"));
        assert!(dispatch(["place", "--help"]).unwrap().contains("--graph"));
        assert!(dispatch(["figures", "--help"]).unwrap().contains("--which"));
    }

    #[test]
    fn unknown_command_errors() {
        assert!(matches!(dispatch(["frobnicate"]), Err(CliError::Usage(_))));
    }

    const COMMANDS: [&str; 7] = [
        "generate", "place", "figures", "simulate", "stream", "snapshot", "serve",
    ];

    #[test]
    fn misspelt_options_are_rejected_before_anything_runs() {
        // A misspelt option must stop the run, not fall back to its default.
        let err = dispatch([
            "place",
            "--graph",
            "g.txt",
            "--flows",
            "f.csv",
            "--shop",
            "60",
            "--k",
            "5",
            "--algoritm",
            "lazy",
            "--thread",
            "4",
        ])
        .unwrap_err();
        assert!(
            matches!(&err, CliError::Args(args::ArgsError::UnknownOption(o)) if o == "algoritm"),
            "{err}"
        );
        for name in COMMANDS {
            let err = dispatch([name, "--no-such-option", "1"]).unwrap_err();
            assert!(
                matches!(err, CliError::Args(args::ArgsError::UnknownOption(_))),
                "{name}: {err}"
            );
        }
    }

    #[test]
    fn every_documented_option_is_accepted() {
        for name in COMMANDS {
            let (usage, _) = command(name).unwrap();
            let options = args::documented_options(usage);
            assert!(options.len() >= 2, "{name} documents {options:?}");
            let raw: Vec<String> = options
                .iter()
                .flat_map(|o| [format!("--{o}"), "1".to_string()])
                .collect();
            let parsed = parse_options(usage, &raw).unwrap();
            for o in options {
                assert_eq!(parsed.get(o), Some("1"), "{name} --{o}");
            }
        }
        assert!(args::documented_options(commands::generate::USAGE).contains("out-trace"));
    }

    #[test]
    fn end_to_end_generate_then_place() {
        let dir = TestDir::new("e2e");
        let gp = dir.path("graph.txt");
        let fp = dir.path("flows.csv");
        dispatch([
            "generate",
            "--city",
            "seattle",
            "--journeys",
            "12",
            "--out-graph",
            gp.to_str().unwrap(),
            "--out-flows",
            fp.to_str().unwrap(),
        ])
        .unwrap();
        let report = dispatch([
            "place",
            "--graph",
            gp.to_str().unwrap(),
            "--flows",
            fp.to_str().unwrap(),
            "--shop",
            "60",
            "--k",
            "5",
            "--utility",
            "threshold",
            "--d",
            "2500",
        ])
        .unwrap();
        assert!(report.contains("customers/day"), "{report}");
    }
}
