//! `rap stream` — serve a placement over a stream of traffic deltas.
//!
//! Three delta sources, exactly one of which must be selected:
//!
//! * `--deltas FILE|-` — replay an NDJSON delta log from a file (or stdin
//!   with `-`), the wire format documented in `rap-stream`;
//! * `--synthetic COUNT` — a seeded generator of plausible drift over the
//!   loaded scenario;
//! * `--replay dublin|seattle` — compress a city model's recovered bus
//!   journeys into a sliding-window arrival/retirement stream.
//!
//! Events (placement updates, metrics, rejects) stream as NDJSON to
//! `--out FILE` when given, otherwise to stdout line by line as they
//! happen; the returned report is the closing human summary and its JSON
//! form.

use super::place::read_flows;
use crate::args::Args;
use crate::CliError;
use rap_core::{build_mutable_scenario, FsyncPolicy, MutableScenario, UtilityKind, WalStop};
use rap_graph::{Distance, NodeId};
use rap_stream::{
    prepare_resume, read_ndjson, run_stream_with, Durability, DurabilityConfig, Journal,
    MaintainerConfig, NoJournal, ResumePoint, StreamConfig, StreamDelta, StreamError,
    StreamSummary, SyntheticDrift, TraceReplay,
};
use rap_traffic::Zone;
use std::io::{BufReader, Write};
use std::path::PathBuf;

/// Options accepted by `rap stream`.
pub const USAGE: &str = "\
rap stream --k N [--utility threshold|linear|sqrt] [--d FEET] [--seed N]
           (--graph FILE --flows FILE --shop NODE | --replay dublin|seattle)
           (--deltas FILE|- | --synthetic COUNT)   [replay is its own source]
           [--journeys N] [--window N]             [replay mode only]
           [--threshold F] [--check-interval N] [--threads N]
           [--metrics-interval N] [--strict true] [--out FILE]
           [--wal FILE] [--snapshot FILE] [--snapshot-every N]
           [--fsync always|never|every-n] [--fsync-n N]
           [--resume true] [--record-deltas FILE] [--crash-after N]

--deltas           NDJSON delta log; `-` reads from stdin. One JSON object
                   per line: {\"op\":\"add\",\"origin\":N,\"destination\":N,
                   \"volume\":F,\"alpha\":F}, {\"op\":\"remove\",\"flow\":ID},
                   {\"op\":\"rescale\",\"flow\":ID,\"factor\":F},
                   {\"op\":\"set_alpha\",\"flow\":ID,\"alpha\":F},
                   {\"op\":\"compact\"}
--synthetic        generate COUNT seeded drift deltas over the loaded flows
--replay           start from an empty city scenario and stream the model's
                   journeys through a sliding window (--window, default 200);
                   --shop defaults to the first city-center candidate
--threshold        certified staleness that triggers a repair (default 0.05)
--check-interval   applied deltas between staleness checks (default 32)
--threads          worker threads for the inverted-index build behind the
                   initial solve and each escalation (default 4), for the
                   scenario build (large instances only, as in `rap
                   place`) and for a resume's snapshot decode (default:
                   every core); the greedy runs on one thread. Placements
                   are identical at any value
--metrics-interval applied deltas between metrics events (default 1000)
--strict           stop at the first rejected delta instead of skipping it
--out              write NDJSON events here instead of to stdout
--wal              write-ahead-log every source item here (crash safety)
--snapshot         rotate checksummed scenario snapshots here (needs --wal)
--snapshot-every   journaled items between snapshot rotations (default 1024)
--fsync            WAL fsync policy (default every-n; see --fsync-n)
--fsync-n          sync the WAL every N appends under every-n (default 64)
--resume           true: continue from --snapshot/--wal after a crash; the
                   original scenario and source flags must be passed again
                   (a stdin delta source cannot be resumed)
--record-deltas    tee every consumed source delta to this NDJSON file
--crash-after      abort the process after N journaled items (testing)
Prints (or writes) the event stream and a closing summary.";

/// The scenario plus its delta source, resolved from the arguments.
struct Session {
    scenario: MutableScenario,
    source: Box<dyn Iterator<Item = Result<StreamDelta, StreamError>>>,
}

/// Rebuilds the deterministic city model for `--replay` mode (both fresh
/// sessions and resumed ones regenerate the identical journey stream).
fn city_model(
    args: &Args,
    city: &str,
    seed: u64,
) -> Result<(rap_trace::CityModel, usize), CliError> {
    let journeys: usize = args.get_or("journeys", "integer", 200)?;
    let window: usize = args.get_or("window", "integer", 200)?;
    let params = match city {
        "dublin" => rap_trace::CityParams {
            journeys,
            ..rap_trace::CityParams::dublin()
        },
        "seattle" => rap_trace::CityParams {
            journeys,
            ..rap_trace::CityParams::seattle()
        },
        other => {
            return Err(CliError::Usage(format!(
                "unknown city `{other}` (expected dublin or seattle)"
            )))
        }
    };
    let model = match city {
        "dublin" => rap_trace::dublin(params, seed)?,
        _ => rap_trace::seattle(params, seed)?,
    };
    Ok((model, window))
}

/// Builds a city-model session: empty initial traffic, journeys replayed
/// through a sliding window.
fn replay_session(
    args: &Args,
    city: &str,
    seed: u64,
    utility: UtilityKind,
    d: u64,
    build_threads: usize,
) -> Result<Session, CliError> {
    let (model, window) = city_model(args, city, seed)?;
    let shop = match args.get_parsed::<u32>("shop", "node id")? {
        Some(raw) => NodeId::new(raw),
        None => *model
            .shop_candidates(Zone::CityCenter)
            .first()
            .ok_or_else(|| {
                CliError::Usage("city model has no city-center shop candidate".into())
            })?,
    };
    let (scenario, _) = build_mutable_scenario(
        model.graph().clone(),
        Vec::new(),
        vec![shop],
        utility.instantiate(Distance::from_feet(d)),
        &super::build_options(build_threads),
    )
    .map_err(super::build_error)?;
    let source = TraceReplay::new(&model, window, scenario.next_stable_id());
    Ok(Session {
        scenario,
        source: Box::new(source.map(Ok)),
    })
}

/// Builds an on-disk session (graph + flows files) with the file/stdin or
/// synthetic delta source.
fn file_session(
    args: &Args,
    seed: u64,
    utility: UtilityKind,
    d: u64,
    build_threads: usize,
) -> Result<Session, CliError> {
    let graph_path = args.required("graph").map_err(|_| {
        CliError::Usage(
            "need a scenario: either --graph/--flows/--shop or --replay dublin|seattle".into(),
        )
    })?;
    let flows_path = args.required("flows")?;
    let shop: u32 = args.required_parsed("shop", "node id")?;
    let graph = rap_graph::io::read_text(std::fs::File::open(graph_path)?)?;
    let (specs, _) = read_flows(flows_path, false)?;
    let node_count = graph.node_count() as u32;
    let (scenario, _) = build_mutable_scenario(
        graph,
        specs,
        vec![NodeId::new(shop)],
        utility.instantiate(Distance::from_feet(d)),
        &super::build_options(build_threads),
    )
    .map_err(super::build_error)?;

    let source: Box<dyn Iterator<Item = Result<StreamDelta, StreamError>>> = match (
        args.get("deltas"),
        args.get_parsed::<usize>("synthetic", "integer")?,
    ) {
        (Some(_), Some(_)) => {
            return Err(CliError::Usage(
                "--deltas and --synthetic are mutually exclusive".into(),
            ))
        }
        (None, None) => {
            return Err(CliError::Usage(
                "need a delta source: --deltas FILE|- or --synthetic COUNT".into(),
            ))
        }
        (Some("-"), None) => Box::new(read_ndjson(std::io::stdin().lock())),
        (Some(path), None) => Box::new(read_ndjson(BufReader::new(std::fs::File::open(path)?))),
        (None, Some(count)) => Box::new(
            SyntheticDrift::new(
                node_count,
                scenario.live_stable_ids(),
                scenario.next_stable_id(),
                count,
                seed,
            )
            .map(Ok),
        ),
    };
    Ok(Session { scenario, source })
}

/// The boxed delta source type every session path produces.
type DeltaSource = Box<dyn Iterator<Item = Result<StreamDelta, StreamError>>>;

/// Builds the scenario + source for this invocation from scratch (fresh
/// runs and WAL-only resumes, which must rebuild and re-route everything),
/// through the scenario front door with `--threads` (0 = every core).
fn build_session(
    args: &Args,
    seed: u64,
    utility: UtilityKind,
    d: u64,
    build_threads: usize,
) -> Result<Session, CliError> {
    match args.get("replay") {
        Some(city) => {
            let city = city.to_string();
            replay_session(args, &city, seed, utility, d, build_threads)
        }
        None => file_session(args, seed, utility, d, build_threads),
    }
}

/// Rebuilds just the delta source for a snapshot resume, already advanced
/// past the `consumed` items the snapshot + WAL cover — without routing a
/// single flow. The synthetic generator's stream depends only on the
/// graph's node count and the flow-spec count (live ids `0..n`, next id
/// `n`), both cheap to re-read; file and replay sources are deterministic
/// by construction. A stdin source is gone after the crash and cannot be
/// resumed.
fn resume_source(args: &Args, seed: u64, consumed: u64) -> Result<DeltaSource, CliError> {
    let consumed = usize::try_from(consumed)
        .map_err(|_| CliError::Usage("resume position overflows this platform".into()))?;
    if let Some(city) = args.get("replay") {
        let city = city.to_string();
        let (model, window) = city_model(args, &city, seed)?;
        let replay = TraceReplay::new(&model, window, 0);
        return Ok(Box::new(replay.map(Ok).skip(consumed)));
    }
    match (
        args.get("deltas"),
        args.get_parsed::<usize>("synthetic", "integer")?,
    ) {
        (Some(_), Some(_)) => Err(CliError::Usage(
            "--deltas and --synthetic are mutually exclusive".into(),
        )),
        (None, None) => Err(CliError::Usage(
            "need a delta source: --deltas FILE or --synthetic COUNT".into(),
        )),
        (Some("-"), None) => Err(CliError::Usage(
            "--resume cannot re-read a stdin delta source; use --deltas FILE".into(),
        )),
        (Some(path), None) => {
            let reader = BufReader::new(std::fs::File::open(path)?);
            Ok(Box::new(read_ndjson(reader).skip(consumed)))
        }
        (None, Some(count)) => {
            let graph_path = args.required("graph")?;
            let flows_path = args.required("flows")?;
            let graph = rap_graph::io::read_text(std::fs::File::open(graph_path)?)?;
            let (specs, _) = read_flows(flows_path, false)?;
            let node_count = graph.node_count() as u32;
            let next_stable = specs.len() as u64;
            let live: Vec<u64> = (0..next_stable).collect();
            let drift = SyntheticDrift::new(node_count, live, next_stable, count, seed);
            Ok(Box::new(drift.map(Ok).skip(consumed)))
        }
    }
}

/// Parses the durability flags into a [`DurabilityConfig`] (plus the
/// resume request), rejecting dependent flags given without `--wal`.
fn durability_config(args: &Args) -> Result<(Option<DurabilityConfig>, bool), CliError> {
    let resume: bool = args.get_or("resume", "true/false", false)?;
    let crash_after = args.get_parsed::<u64>("crash-after", "integer")?;
    let Some(wal) = args.get("wal") else {
        for (flag, present) in [
            ("--snapshot", args.get("snapshot").is_some()),
            ("--snapshot-every", args.get("snapshot-every").is_some()),
            ("--fsync", args.get("fsync").is_some()),
            ("--fsync-n", args.get("fsync-n").is_some()),
            ("--resume", resume),
            ("--crash-after", crash_after.is_some()),
        ] {
            if present {
                return Err(CliError::Usage(format!("{flag} requires --wal")));
            }
        }
        return Ok((None, false));
    };
    let fsync = match args.get("fsync").unwrap_or("every-n") {
        "always" => FsyncPolicy::Always,
        "never" => FsyncPolicy::Never,
        "every-n" => FsyncPolicy::EveryN(args.get_or("fsync-n", "integer", 64)?),
        other => {
            return Err(CliError::Usage(format!(
                "unknown fsync policy `{other}` (expected always, never, or every-n)"
            )))
        }
    };
    let mut cfg = DurabilityConfig::wal_only(PathBuf::from(wal));
    match args.get("snapshot") {
        Some(snap) => {
            let every: u64 = args.get_or("snapshot-every", "integer", 1_024)?;
            cfg = cfg.with_snapshot(PathBuf::from(snap), every);
        }
        None => {
            if args.get("snapshot-every").is_some() {
                return Err(CliError::Usage(
                    "--snapshot-every requires --snapshot".into(),
                ));
            }
        }
    }
    cfg.fsync = fsync;
    cfg.crash_after = crash_after;
    Ok((Some(cfg), resume))
}

/// Reports on stderr the damaged WAL tail a resume dropped: the items it
/// held are read again from the source, so the run's output is unchanged.
fn report_wal_stop(stop: Option<WalStop>) {
    if let Some(stop) = stop {
        eprintln!(
            "rap stream: resume dropped the WAL tail from byte {} ({}); its items are re-read from the source",
            stop.offset, stop.reason
        );
    }
}

/// Tees every delta the pipeline consumes to an NDJSON file
/// (`--record-deltas`), turning an unrepeatable source (stdin, a synthetic
/// generator whose parameters are lost) into a replayable log.
struct RecordTee<I> {
    inner: I,
    out: std::io::LineWriter<std::fs::File>,
}

impl<I: Iterator<Item = Result<StreamDelta, StreamError>>> Iterator for RecordTee<I> {
    type Item = Result<StreamDelta, StreamError>;

    fn next(&mut self) -> Option<Self::Item> {
        let item = self.inner.next()?;
        if let Ok(delta) = &item {
            let line = match serde_json::to_string(delta) {
                Ok(line) => line,
                Err(e) => {
                    return Some(Err(StreamError::Io(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("--record-deltas serialization failed: {e}"),
                    ))))
                }
            };
            if let Err(e) = writeln!(self.out, "{line}") {
                return Some(Err(StreamError::Io(e)));
            }
        }
        Some(item)
    }
}

/// Formats the closing human summary line.
fn describe(summary: &StreamSummary) -> String {
    format!(
        "stream done: {} applied, {} rejected, {} compaction(s), {} check(s), {} repair(s), {} resolve(s), objective {:.1} customers/day\n",
        summary.deltas_applied,
        summary.deltas_rejected,
        summary.compactions,
        summary.checks,
        summary.repairs,
        summary.resolves,
        summary.final_objective,
    )
}

/// Runs the command. Events go to `--out` when given, otherwise to stdout
/// as they happen; returns the closing summary.
///
/// # Errors
///
/// Propagates argument, scenario, source, and I/O failures, including a
/// stdout that closed mid-stream.
pub fn run(args: &Args) -> Result<String, CliError> {
    run_with_stdout(args, &mut std::io::stdout())
}

/// [`run`], with `stdout` standing in for the process's standard output.
fn run_with_stdout<W: Write>(args: &Args, stdout: &mut W) -> Result<String, CliError> {
    let k: usize = args.required_parsed("k", "integer")?;
    let (utility, d) = super::utility_and_threshold(args, "linear")?;
    let seed: u64 = args.get_or("seed", "integer", 2015)?;

    let defaults = MaintainerConfig::default();
    let cfg = StreamConfig {
        maintainer: MaintainerConfig {
            k,
            staleness_threshold: args.get_or(
                "threshold",
                "number",
                defaults.staleness_threshold,
            )?,
            check_interval: args.get_or("check-interval", "integer", defaults.check_interval)?,
            threads: args.get_or("threads", "integer", defaults.threads)?,
            seed,
            ..defaults
        },
        metrics_interval: args.get_or("metrics-interval", "integer", 1_000)?,
        strict: args.get_or("strict", "true/false", false)?,
    };

    let build_threads: usize = args.get_or("threads", "integer", 0)?;
    let (dur_cfg, resume) = durability_config(args)?;

    // Resolve the scenario, the delta source (with any WAL replay
    // prepended and already-consumed items skipped), the resume state, and
    // the journal — three shapes depending on what survives on disk.
    let (mut scenario, source, resume_state, mut journal): (_, _, _, Box<dyn Journal>) = if resume {
        let dcfg = dur_cfg
            .clone()
            .expect("durability_config ties --resume to --wal");
        let decode_threads = match build_threads {
            0 => rap_traffic::parallel::default_threads(),
            given => given,
        };
        match prepare_resume(dcfg, decode_threads)? {
            ResumePoint::Snapshot(setup) => {
                // Warm resume: the snapshot is the scenario; only the
                // source is rebuilt, and it skips everything the snapshot
                // and WAL already cover.
                let setup = *setup;
                report_wal_stop(setup.wal_stop);
                let rest = resume_source(args, seed, setup.consumed)?;
                let source: DeltaSource = Box::new(setup.replay.into_iter().map(Ok).chain(rest));
                (
                    setup.scenario,
                    source,
                    Some(setup.resume),
                    Box::new(setup.durability),
                )
            }
            ResumePoint::WalOnly(setup) => {
                // Crash before the first rotation: rebuild from the
                // original inputs, then replay the whole WAL through the
                // normal pipeline.
                report_wal_stop(setup.wal_stop);
                let session = build_session(args, seed, utility, d, build_threads)?;
                let consumed = usize::try_from(setup.consumed).map_err(|_| {
                    CliError::Usage("resume position overflows this platform".into())
                })?;
                let rest = session.source.skip(consumed);
                let source: DeltaSource = Box::new(setup.replay.into_iter().map(Ok).chain(rest));
                (session.scenario, source, None, Box::new(setup.durability))
            }
            ResumePoint::Fresh => {
                let session = build_session(args, seed, utility, d, build_threads)?;
                let dcfg = dur_cfg.expect("durability_config ties --resume to --wal");
                let durability = Durability::start(dcfg).map_err(CliError::Stream)?;
                (session.scenario, session.source, None, Box::new(durability))
            }
        }
    } else {
        let session = build_session(args, seed, utility, d, build_threads)?;
        let journal: Box<dyn Journal> = match dur_cfg {
            Some(dcfg) => Box::new(Durability::start(dcfg).map_err(CliError::Stream)?),
            None => Box::new(NoJournal),
        };
        (session.scenario, session.source, None, journal)
    };

    let source: DeltaSource = match args.get("record-deltas") {
        Some(path) => Box::new(RecordTee {
            inner: source,
            out: std::io::LineWriter::new(std::fs::File::create(path)?),
        }),
        None => source,
    };

    let summary = match args.get("out") {
        Some(path) => {
            let mut sink = std::io::BufWriter::new(std::fs::File::create(path)?);
            run_stream_with(
                &mut scenario,
                &cfg,
                source,
                &mut sink,
                journal.as_mut(),
                resume_state,
            )?
        }
        None => run_stream_with(
            &mut scenario,
            &cfg,
            source,
            stdout,
            journal.as_mut(),
            resume_state,
        )?,
    };

    let mut report = describe(&summary);
    report.push_str(
        &serde_json::to_string_pretty(&summary)
            .map_err(|e| CliError::Usage(format!("json serialization failed: {e}")))?,
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Writes a 5×5 grid graph + two-flow CSV into the test's scratch dir.
    fn fixture(dir: &crate::TestDir) -> (std::path::PathBuf, std::path::PathBuf) {
        let gp = dir.path("graph.txt");
        let fp = dir.path("flows.csv");
        let grid = rap_graph::GridGraph::new(5, 5, Distance::from_feet(200));
        let mut f = std::fs::File::create(&gp).unwrap();
        rap_graph::io::write_text(grid.graph(), &mut f).unwrap();
        std::fs::write(
            &fp,
            "origin,destination,volume,alpha\n0,24,900,0.3\n4,20,500,0.2\n",
        )
        .unwrap();
        (gp, fp)
    }

    /// [`run`] with the events that would go to stdout thrown away.
    fn run_quietly(args: &Args) -> Result<String, CliError> {
        run_with_stdout(args, &mut std::io::sink())
    }

    fn base_args(gp: &std::path::Path, fp: &std::path::Path) -> Vec<String> {
        [
            "--graph",
            gp.to_str().unwrap(),
            "--flows",
            fp.to_str().unwrap(),
            "--shop",
            "12",
            "--k",
            "2",
            "--d",
            "1500",
            "--check-interval",
            "8",
            "--threads",
            "2",
            "--metrics-interval",
            "25",
        ]
        .iter()
        .map(ToString::to_string)
        .collect()
    }

    #[test]
    fn replays_the_bundled_smoke_deltas() {
        let dir = crate::TestDir::new("stream_replays_the_bundled_smoke_deltas");
        let (gp, fp) = fixture(&dir);
        let smoke = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../stream/testdata/smoke.ndjson"
        );
        let out = dir.path("events.ndjson");
        let mut argv = base_args(&gp, &fp);
        argv.extend([
            "--deltas".to_string(),
            smoke.to_string(),
            "--out".to_string(),
            out.to_str().unwrap().to_string(),
        ]);
        let report = run(&Args::parse(argv).unwrap()).unwrap();
        let events = std::fs::read_to_string(&out).unwrap();
        assert!(events.contains("\"event\":\"placement\""), "{events}");
        assert!(report.contains("stream done:"), "{report}");
        assert!(report.contains("\"forced_compactions\": 1"), "{report}");
    }

    #[test]
    fn without_out_events_go_to_stdout_as_out_would_hold_them() {
        let dir = crate::TestDir::new("stream_without_out_events_go_to_stdout");
        let (gp, fp) = fixture(&dir);
        let out = dir.path("events.ndjson");
        let mut argv = base_args(&gp, &fp);
        argv.extend(["--synthetic".to_string(), "120".to_string()]);
        let mut stdout = Vec::new();
        let report = run_with_stdout(&Args::parse(argv.clone()).unwrap(), &mut stdout).unwrap();
        argv.extend(["--out".to_string(), out.to_str().unwrap().to_string()]);
        let report_with_out = run(&Args::parse(argv).unwrap()).unwrap();

        // stdout carries the NDJSON `--out` holds, bar measured latencies;
        // the summary is the report either way, so a process prints the
        // events as they happen, then the summary.
        let timeless = |events: &str| -> Vec<String> {
            events
                .lines()
                .map(|l| l.split(",\"latency_us\"").next().unwrap().to_string())
                .collect()
        };
        let events = std::fs::read_to_string(&out).unwrap();
        assert!(events.lines().count() >= 2, "{events}");
        assert_eq!(
            timeless(&String::from_utf8(stdout).unwrap()),
            timeless(&events)
        );
        assert!(report.starts_with("stream done:"), "{report}");
        assert_eq!(report.lines().next(), report_with_out.lines().next());
    }

    #[test]
    fn synthetic_source_streams_and_writes_out_file() {
        let dir = crate::TestDir::new("stream_synthetic_source_streams_and_writes_out_file");
        let (gp, fp) = fixture(&dir);
        let out = dir.path("events.ndjson");
        let mut argv = base_args(&gp, &fp);
        argv.extend([
            "--synthetic".to_string(),
            "120".to_string(),
            "--out".to_string(),
            out.to_str().unwrap().to_string(),
        ]);
        let report = run(&Args::parse(argv).unwrap()).unwrap();
        // Events went to the file, not the report.
        assert!(report.starts_with("stream done:"), "{report}");
        assert!(report.contains("\"deltas_applied\": 120"), "{report}");
        let events = std::fs::read_to_string(&out).unwrap();
        assert!(events.lines().count() >= 2);
        for line in events.lines() {
            let v: serde::Value = serde_json::from_str(line).expect("valid NDJSON");
            assert!(v.get("event").is_some());
        }
    }

    #[test]
    fn replay_mode_builds_its_own_scenario() {
        let argv = [
            "--replay",
            "dublin",
            "--journeys",
            "16",
            "--window",
            "6",
            "--k",
            "2",
            "--d",
            "2500",
            "--check-interval",
            "8",
            "--threads",
            "2",
        ];
        let report = run_quietly(&Args::parse(argv).unwrap()).unwrap();
        assert!(report.contains("stream done:"), "{report}");
        assert!(report.contains("\"deltas_rejected\": 0"), "{report}");
    }

    #[test]
    fn zero_threshold_is_a_usage_error() {
        let dir = crate::TestDir::new("stream_zero_threshold_is_a_usage_error");
        let (gp, fp) = fixture(&dir);
        let mut argv = base_args(&gp, &fp);
        let at = argv.iter().position(|a| a == "--d").unwrap();
        argv[at + 1] = "0".to_string();
        argv.extend(["--synthetic".to_string(), "10".to_string()]);
        assert!(matches!(
            run_quietly(&Args::parse(argv).unwrap()),
            Err(CliError::Usage(ref m)) if m.contains("--d")
        ));
    }

    #[test]
    fn source_selection_is_validated() {
        let dir = crate::TestDir::new("stream_source_selection_is_validated");
        let (gp, fp) = fixture(&dir);
        // No source.
        let argv = base_args(&gp, &fp);
        assert!(matches!(
            run(&Args::parse(argv).unwrap()),
            Err(CliError::Usage(_))
        ));
        // Both sources.
        let mut argv = base_args(&gp, &fp);
        argv.extend([
            "--deltas".to_string(),
            "x.ndjson".to_string(),
            "--synthetic".to_string(),
            "5".to_string(),
        ]);
        assert!(matches!(
            run(&Args::parse(argv).unwrap()),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn durability_flags_require_a_wal() {
        let dir = crate::TestDir::new("stream_durability_flags_require_a_wal");
        let (gp, fp) = fixture(&dir);
        for extra in [
            ["--snapshot", "s.snap"],
            ["--resume", "true"],
            ["--crash-after", "5"],
            ["--fsync", "always"],
        ] {
            let mut argv = base_args(&gp, &fp);
            argv.extend(["--synthetic".to_string(), "5".to_string()]);
            argv.extend(extra.iter().map(ToString::to_string));
            match run(&Args::parse(argv).unwrap()) {
                Err(CliError::Usage(msg)) => assert!(msg.contains("--wal"), "{msg}"),
                other => panic!("expected a usage error, got {other:?}"),
            }
        }
        // Bogus fsync policy.
        let mut argv = base_args(&gp, &fp);
        argv.extend(
            ["--synthetic", "5", "--wal", "w.wal", "--fsync", "sometimes"]
                .iter()
                .map(ToString::to_string),
        );
        assert!(matches!(
            run(&Args::parse(argv).unwrap()),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn wal_run_resumes_to_the_identical_summary() {
        let dir = crate::TestDir::new("stream_wal_run_resumes_to_the_identical_summary");
        let (gp, fp) = fixture(&dir);
        let wal = dir.path("resume.wal");
        let snap = dir.path("resume.snap");
        std::fs::remove_file(&wal).ok();
        std::fs::remove_file(&snap).ok();

        let durable_args = |gp: &std::path::Path, fp: &std::path::Path| {
            let mut argv = base_args(gp, fp);
            argv.extend(
                [
                    "--synthetic",
                    "60",
                    "--wal",
                    wal.to_str().unwrap(),
                    "--snapshot",
                    snap.to_str().unwrap(),
                    "--snapshot-every",
                    "25",
                    "--fsync",
                    "never",
                ]
                .iter()
                .map(ToString::to_string),
            );
            argv
        };

        let clean = run_quietly(&Args::parse(durable_args(&gp, &fp)).unwrap()).unwrap();
        assert!(clean.contains("\"deltas_applied\": 60"), "{clean}");
        // A clean finish rotates a final snapshot and truncates the WAL.
        assert!(snap.exists());
        assert_eq!(std::fs::metadata(&wal).unwrap().len(), 0);
        let final_epoch = clean
            .lines()
            .find(|l| l.contains("\"final_epoch\""))
            .unwrap()
            .to_string();
        let final_objective = clean
            .lines()
            .find(|l| l.contains("\"final_objective\""))
            .unwrap()
            .to_string();

        // Resuming with the same arguments consumes no further deltas and
        // reproduces the crashed-run bookkeeping bit-for-bit.
        let events = dir.path("resumed.ndjson");
        let mut argv = durable_args(&gp, &fp);
        argv.extend(
            ["--resume", "true", "--out", events.to_str().unwrap()]
                .iter()
                .map(ToString::to_string),
        );
        let resumed = run(&Args::parse(argv).unwrap()).unwrap();
        let events = std::fs::read_to_string(&events).unwrap();
        assert!(events.contains("\"action\":\"resume\""), "{events}");
        assert!(resumed.contains("\"deltas_applied\": 60"), "{resumed}");
        assert!(
            resumed.contains(&final_epoch),
            "{resumed}\nvs {final_epoch}"
        );
        assert!(
            resumed.contains(&final_objective),
            "{resumed}\nvs {final_objective}"
        );
    }

    #[test]
    fn record_deltas_tees_a_replayable_log() {
        let dir = crate::TestDir::new("stream_record_deltas_tees_a_replayable_log");
        let (gp, fp) = fixture(&dir);
        let rec = dir.path("record.ndjson");
        let mut argv = base_args(&gp, &fp);
        argv.extend(
            [
                "--synthetic",
                "30",
                "--record-deltas",
                rec.to_str().unwrap(),
            ]
            .iter()
            .map(ToString::to_string),
        );
        let report = run_quietly(&Args::parse(argv).unwrap()).unwrap();
        assert!(report.contains("stream done:"), "{report}");

        let log = std::fs::read_to_string(&rec).unwrap();
        assert_eq!(log.lines().count(), 30);

        // The tee is itself a valid source: replaying it applies the same
        // number of deltas.
        let mut argv = base_args(&gp, &fp);
        argv.extend(["--deltas".to_string(), rec.to_str().unwrap().to_string()]);
        let replayed = run_quietly(&Args::parse(argv).unwrap()).unwrap();
        let applied = |r: &str| {
            r.lines()
                .find(|l| l.contains("\"deltas_applied\""))
                .unwrap()
                .to_string()
        };
        assert_eq!(applied(&report), applied(&replayed));
    }

    #[test]
    fn strict_mode_surfaces_rejects() {
        let dir = crate::TestDir::new("stream_strict_mode_surfaces_rejects");
        let (gp, fp) = fixture(&dir);
        let bad = dir.path("bad.ndjson");
        std::fs::write(&bad, "{\"op\":\"remove\",\"flow\":999}\n").unwrap();
        let mut argv = base_args(&gp, &fp);
        argv.extend([
            "--deltas".to_string(),
            bad.to_str().unwrap().to_string(),
            "--strict".to_string(),
            "true".to_string(),
        ]);
        assert!(matches!(
            run_quietly(&Args::parse(argv).unwrap()),
            Err(CliError::Stream(_))
        ));
        // Lenient keeps going and reports the reject.
        let mut argv = base_args(&gp, &fp);
        argv.extend(["--deltas".to_string(), bad.to_str().unwrap().to_string()]);
        let report = run_quietly(&Args::parse(argv).unwrap()).unwrap();
        assert!(report.contains("\"deltas_rejected\": 1"), "{report}");
    }
}
