//! The serving loop: deltas in, placement-update and metrics events out.

use crate::delta::{StreamDelta, StreamError};
use crate::events::{MetricsEvent, PlacementEvent, RejectEvent};
use crate::maintain::{MaintainAction, Maintainer, MaintainerConfig, MaintainerState};
use rap_core::{MutableScenario, Placement};
use serde::Serialize;
use std::io::Write;

/// Serving-loop knobs on top of the maintenance policy.
#[derive(Clone, Debug)]
pub struct StreamConfig {
    /// Maintenance policy (staleness threshold, check interval, seed, …).
    pub maintainer: MaintainerConfig,
    /// Emit a metrics event every this many applied deltas (0 disables
    /// periodic metrics; a final sample is always emitted).
    pub metrics_interval: u64,
    /// Strict mode stops at the first rejected delta; lenient mode (the
    /// default) emits a reject event and keeps streaming.
    pub strict: bool,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            maintainer: MaintainerConfig::default(),
            metrics_interval: 1_000,
            strict: false,
        }
    }
}

/// End-of-stream accounting, also serialized as the CLI's closing report.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct StreamSummary {
    /// Deltas applied to the scenario.
    pub deltas_applied: u64,
    /// Deltas the scenario rejected (lenient mode).
    pub deltas_rejected: u64,
    /// Forced `compact` control ops processed.
    pub forced_compactions: u64,
    /// Total compactions (forced + threshold-triggered).
    pub compactions: u64,
    /// Staleness checks performed.
    pub checks: u64,
    /// Swap-repairs adopted.
    pub repairs: u64,
    /// Full re-greedy escalations adopted.
    pub resolves: u64,
    /// Final scenario epoch.
    pub final_epoch: u64,
    /// Live flows at end of stream.
    pub live_flows: u64,
    /// Serving placement's objective at the final check.
    pub final_objective: f64,
    /// Worst single repair-or-resolve latency, microseconds.
    pub max_intervention_us: u64,
}

/// Running counters the serving loop shares with its [`Journal`].
#[derive(Clone, Copy, Debug, Default)]
pub struct StreamProgress {
    /// Deltas applied so far (including any resumed prefix).
    pub applied: u64,
    /// Deltas rejected so far.
    pub rejected: u64,
    /// Forced `compact` control ops so far.
    pub forced_compactions: u64,
}

/// Durability hooks around the serving loop. [`run_stream_with`] calls
/// [`record`](Journal::record) *before* an item touches the scenario
/// (write-ahead), [`committed`](Journal::committed) after the item has been
/// fully processed and its events emitted (a safe point for snapshot
/// rotation), and [`finish`](Journal::finish) once at clean end of stream.
pub trait Journal {
    /// Persist the intent to process `delta`. Called before the scenario
    /// mutates, so a crash after this point can replay the delta.
    ///
    /// # Errors
    ///
    /// Persistence failures stop the stream.
    fn record(
        &mut self,
        scenario: &MutableScenario,
        delta: &StreamDelta,
    ) -> Result<(), StreamError>;

    /// The item recorded last is fully processed; scenario and maintainer
    /// are consistent. A snapshot taken here, with the progress counters,
    /// captures a resumable safe point.
    ///
    /// # Errors
    ///
    /// Persistence failures stop the stream.
    fn committed(
        &mut self,
        scenario: &MutableScenario,
        maintainer: &Maintainer,
        progress: &StreamProgress,
    ) -> Result<(), StreamError>;

    /// Clean end of stream; flush anything buffered.
    ///
    /// # Errors
    ///
    /// Persistence failures surface in the stream result.
    fn finish(
        &mut self,
        _scenario: &MutableScenario,
        _maintainer: &Maintainer,
        _progress: &StreamProgress,
    ) -> Result<(), StreamError> {
        Ok(())
    }
}

/// The default journal: no durability, every hook is a no-op.
pub struct NoJournal;

impl Journal for NoJournal {
    fn record(
        &mut self,
        _scenario: &MutableScenario,
        _delta: &StreamDelta,
    ) -> Result<(), StreamError> {
        Ok(())
    }

    fn committed(
        &mut self,
        _scenario: &MutableScenario,
        _maintainer: &Maintainer,
        _progress: &StreamProgress,
    ) -> Result<(), StreamError> {
        Ok(())
    }
}

/// Mid-trajectory state for [`run_stream_with`]: rebuilt from a snapshot's
/// extra section, it skips the initial solve and continues the crashed
/// run's counters and maintenance trajectory exactly.
#[derive(Clone, Debug)]
pub struct ResumeState {
    /// The serving placement at the resume point.
    pub placement: Placement,
    /// The maintainer's scalar state at the resume point.
    pub maintainer: MaintainerState,
    /// Deltas applied before the resume point.
    pub applied: u64,
    /// Deltas rejected before the resume point.
    pub rejected: u64,
    /// Forced compactions before the resume point.
    pub forced_compactions: u64,
}

fn emit<W: Write, E: Serialize>(out: &mut W, event: &E) -> Result<(), StreamError> {
    let line = serde_json::to_string(event)
        .map_err(|e| StreamError::Io(std::io::Error::other(e.to_string())))?;
    writeln!(out, "{line}")?;
    Ok(())
}

/// Rewraps a sink I/O failure as [`StreamError::Sink`] carrying the
/// accounting at the moment of failure, so the caller can still print a
/// closing summary (e.g. when stdout is a pipe whose reader went away).
fn as_sink(err: StreamError, summary: StreamSummary) -> StreamError {
    match err {
        StreamError::Io(error) => StreamError::Sink { error, summary },
        other => other,
    }
}

fn summarize(
    scenario: &MutableScenario,
    maintainer: &Maintainer,
    progress: &StreamProgress,
) -> StreamSummary {
    let stats = maintainer.stats();
    StreamSummary {
        deltas_applied: progress.applied,
        deltas_rejected: progress.rejected,
        forced_compactions: progress.forced_compactions,
        compactions: scenario.compactions(),
        checks: stats.checks,
        repairs: stats.repairs,
        resolves: stats.resolves,
        final_epoch: scenario.epoch(),
        live_flows: scenario.live_flows() as u64,
        final_objective: maintainer.objective(),
        max_intervention_us: stats.max_intervention_us,
    }
}

fn placement_event(
    action_name: &str,
    delta_index: u64,
    scenario: &MutableScenario,
    maintainer: &Maintainer,
    staleness: f64,
    latency_us: u64,
) -> PlacementEvent {
    PlacementEvent {
        event: "placement".into(),
        delta_index,
        epoch: scenario.epoch(),
        action: action_name.into(),
        staleness,
        objective: maintainer.objective(),
        raps: maintainer.placement().iter().map(|v| v.raw()).collect(),
        latency_us,
    }
}

fn metrics_event(
    delta_index: u64,
    scenario: &MutableScenario,
    maintainer: &Maintainer,
) -> MetricsEvent {
    let stats = maintainer.stats();
    MetricsEvent {
        event: "metrics".into(),
        delta_index,
        epoch: scenario.epoch(),
        live_flows: scenario.live_flows() as u64,
        total_entries: scenario.total_entries() as u64,
        dead_entries: scenario.dead_entries() as u64,
        compactions: scenario.compactions(),
        objective: maintainer.objective(),
        checks: stats.checks,
        repairs: stats.repairs,
        resolves: stats.resolves,
    }
}

/// The placement event a maintenance action warrants, if any.
fn action_event(
    action: &MaintainAction,
    applied: u64,
    scenario: &MutableScenario,
    maintainer: &Maintainer,
) -> Option<PlacementEvent> {
    match *action {
        MaintainAction::None | MaintainAction::Checked { .. } => None,
        MaintainAction::Repaired {
            staleness,
            latency_us,
            ..
        } => Some(placement_event(
            "repair", applied, scenario, maintainer, staleness, latency_us,
        )),
        MaintainAction::Resolved {
            staleness,
            latency_us,
            ..
        } => Some(placement_event(
            "resolve", applied, scenario, maintainer, staleness, latency_us,
        )),
    }
}

/// Drives the full pipeline: initial solve, then per-delta apply → maintain
/// → emit, then a final check + metrics sample.
///
/// # Errors
///
/// Propagates source and sink failures; in strict mode also the first
/// rejected delta. Sink failures surface as [`StreamError::Sink`] with the
/// accounting at the moment of failure.
pub fn run_stream<I, W>(
    scenario: &mut MutableScenario,
    cfg: &StreamConfig,
    deltas: I,
    out: &mut W,
) -> Result<StreamSummary, StreamError>
where
    I: IntoIterator<Item = Result<StreamDelta, StreamError>>,
    W: Write,
{
    run_stream_with(scenario, cfg, deltas, out, &mut NoJournal, None)
}

/// [`run_stream`] with durability hooks and optional mid-stream resume.
///
/// With a [`Journal`], every source item is recorded *before* it touches
/// the scenario and committed after its events are out, so the journal's
/// log is always a replayable superset of the applied state. With a
/// [`ResumeState`], the initial solve is skipped: the maintainer continues
/// from the persisted placement and counters, and the initial event is
/// tagged `"resume"` instead of `"initial"`.
///
/// # Errors
///
/// Same contract as [`run_stream`], plus journal persistence failures
/// ([`StreamError::Persist`]).
pub fn run_stream_with<I, W, J>(
    scenario: &mut MutableScenario,
    cfg: &StreamConfig,
    deltas: I,
    out: &mut W,
    journal: &mut J,
    resume: Option<ResumeState>,
) -> Result<StreamSummary, StreamError>
where
    I: IntoIterator<Item = Result<StreamDelta, StreamError>>,
    W: Write,
    J: Journal + ?Sized,
{
    let mut progress = StreamProgress::default();
    let (mut maintainer, start_action) = match resume {
        Some(r) => {
            progress.applied = r.applied;
            progress.rejected = r.rejected;
            progress.forced_compactions = r.forced_compactions;
            (
                Maintainer::resume(cfg.maintainer.clone(), r.placement, r.maintainer),
                "resume",
            )
        }
        None => (
            Maintainer::new(cfg.maintainer.clone(), scenario)?,
            "initial",
        ),
    };
    emit(
        out,
        &placement_event(
            start_action,
            progress.applied,
            scenario,
            &maintainer,
            0.0,
            0,
        ),
    )
    .map_err(|e| as_sink(e, summarize(scenario, &maintainer, &progress)))?;

    for (index, item) in deltas.into_iter().enumerate() {
        let stream_index = index as u64 + 1;
        let delta = item?;
        journal.record(scenario, &delta)?;
        match delta {
            StreamDelta::Compact => {
                scenario.compact();
                progress.forced_compactions += 1;
            }
            StreamDelta::Flow(delta) => match scenario.apply(&delta) {
                Err(err) => {
                    if cfg.strict {
                        return Err(err.into());
                    }
                    progress.rejected += 1;
                    emit(
                        out,
                        &RejectEvent {
                            event: "reject".into(),
                            delta_index: stream_index,
                            reason: err.to_string(),
                        },
                    )
                    .map_err(|e| as_sink(e, summarize(scenario, &maintainer, &progress)))?;
                }
                Ok(_) => {
                    progress.applied += 1;
                    let action = maintainer.note_delta(scenario);
                    if let Some(event) =
                        action_event(&action, progress.applied, scenario, &maintainer)
                    {
                        emit(out, &event)
                            .map_err(|e| as_sink(e, summarize(scenario, &maintainer, &progress)))?;
                    }
                    if cfg.metrics_interval > 0
                        && progress.applied.is_multiple_of(cfg.metrics_interval)
                    {
                        emit(out, &metrics_event(progress.applied, scenario, &maintainer))
                            .map_err(|e| as_sink(e, summarize(scenario, &maintainer, &progress)))?;
                    }
                }
            },
        }
        journal.committed(scenario, &maintainer, &progress)?;
    }

    // Final measurement so the summary reflects the end-of-stream state even
    // mid-interval, then one closing metrics sample.
    let action = maintainer.check(scenario);
    if let Some(event) = action_event(&action, progress.applied, scenario, &maintainer) {
        emit(out, &event).map_err(|e| as_sink(e, summarize(scenario, &maintainer, &progress)))?;
    }
    emit(out, &metrics_event(progress.applied, scenario, &maintainer))
        .map_err(|e| as_sink(e, summarize(scenario, &maintainer, &progress)))?;
    journal.finish(scenario, &maintainer, &progress)?;

    Ok(summarize(scenario, &maintainer, &progress))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SyntheticDrift;
    use rap_core::{FlowDelta, UtilityKind};
    use rap_graph::{Distance, GridGraph, NodeId};
    use rap_traffic::{FlowSet, FlowSpec};

    fn scenario() -> MutableScenario {
        let grid = GridGraph::new(5, 5, Distance::from_feet(200));
        let specs = vec![
            FlowSpec::new(NodeId::new(0), NodeId::new(24), 900.0)
                .unwrap()
                .with_attractiveness(0.3)
                .unwrap(),
            FlowSpec::new(NodeId::new(4), NodeId::new(20), 500.0)
                .unwrap()
                .with_attractiveness(0.2)
                .unwrap(),
        ];
        let flows = FlowSet::route(grid.graph(), specs).unwrap();
        MutableScenario::new(
            grid.graph().clone(),
            flows,
            vec![grid.center()],
            UtilityKind::Linear.instantiate(Distance::from_feet(1_500)),
        )
        .unwrap()
    }

    fn config() -> StreamConfig {
        StreamConfig {
            maintainer: MaintainerConfig {
                k: 2,
                check_interval: 8,
                threads: 2,
                ..MaintainerConfig::default()
            },
            metrics_interval: 50,
            strict: false,
        }
    }

    #[test]
    fn synthetic_run_emits_valid_ndjson_and_counts_match() {
        let mut m = scenario();
        let deltas = SyntheticDrift::new(25, m.live_stable_ids(), m.next_stable_id(), 200, 11)
            .map(Ok)
            .collect::<Vec<_>>();
        let mut out = Vec::new();
        let summary = run_stream(&mut m, &config(), deltas, &mut out).unwrap();
        assert_eq!(summary.deltas_applied, 200);
        assert_eq!(summary.deltas_rejected, 0);
        assert_eq!(summary.final_epoch, m.epoch());
        assert!(summary.checks >= 200 / 8);
        let text = String::from_utf8(out).unwrap();
        let mut placements = 0;
        let mut metrics = 0;
        for line in text.lines() {
            let v: serde::Value = serde_json::from_str(line).expect("every line is JSON");
            match v.get("event").and_then(serde::Value::as_str) {
                Some("placement") => placements += 1,
                Some("metrics") => metrics += 1,
                Some("reject") => panic!("synthetic stream never rejects"),
                other => panic!("unexpected event {other:?}"),
            }
        }
        assert!(placements >= 1, "at least the initial placement");
        assert!(metrics >= 4, "200 deltas / 50 interval + final");
    }

    #[test]
    fn lenient_mode_reports_rejects_and_strict_mode_stops() {
        let bad = StreamDelta::Flow(FlowDelta::RemoveFlow { flow: 999 });
        let mut m = scenario();
        let mut out = Vec::new();
        let summary = run_stream(&mut m, &config(), vec![Ok(bad)], &mut out).unwrap();
        assert_eq!(summary.deltas_rejected, 1);
        assert!(String::from_utf8(out).unwrap().contains("\"reject\""));

        let mut m = scenario();
        let strict = StreamConfig {
            strict: true,
            ..config()
        };
        let err = run_stream(&mut m, &strict, vec![Ok(bad)], &mut Vec::new()).unwrap_err();
        assert!(matches!(err, StreamError::Delta(_)), "{err}");
    }

    #[test]
    fn forced_compaction_ops_are_honored() {
        let m = scenario();
        let deltas = vec![
            Ok(StreamDelta::Flow(FlowDelta::RemoveFlow { flow: 0 })),
            Ok(StreamDelta::Compact),
        ];
        // Disable auto-compaction so the control op is the only trigger.
        let mut m2 = m.with_compact_ratio(1.0);
        let summary = run_stream(&mut m2, &config(), deltas, &mut Vec::new()).unwrap();
        assert_eq!(summary.forced_compactions, 1);
        assert_eq!(summary.compactions, 1);
        assert_eq!(m2.dead_entries(), 0);
    }

    /// A sink that accepts `budget` bytes, then fails like a closed pipe.
    struct BrokenPipe {
        budget: usize,
    }

    impl Write for BrokenPipe {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.budget < buf.len() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::BrokenPipe,
                    "reader went away",
                ));
            }
            self.budget -= buf.len();
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn broken_sink_surfaces_a_summary_not_a_bare_io_error() {
        let mut m = scenario();
        let deltas = SyntheticDrift::new(25, m.live_stable_ids(), m.next_stable_id(), 200, 11)
            .map(Ok)
            .collect::<Vec<_>>();
        // Enough budget for the initial placement event, then the pipe dies
        // at some later emit (a metrics line at the latest).
        let mut out = BrokenPipe { budget: 300 };
        let err = run_stream(&mut m, &config(), deltas, &mut out).unwrap_err();
        match err {
            StreamError::Sink { error, summary } => {
                assert_eq!(error.kind(), std::io::ErrorKind::BrokenPipe);
                assert!(
                    summary.deltas_applied >= 1,
                    "failure happened mid-stream: {summary:?}"
                );
                assert!(summary.deltas_applied < 200, "must not have finished");
            }
            other => panic!("expected Sink, got {other}"),
        }

        // A pipe that dies on the very first byte still reports accounting.
        let mut m = scenario();
        let err = run_stream(&mut m, &config(), vec![], &mut BrokenPipe { budget: 0 }).unwrap_err();
        assert!(matches!(
            err,
            StreamError::Sink { summary, .. } if summary.deltas_applied == 0
        ));
    }

    #[test]
    fn summary_is_deterministic() {
        let run = || {
            let mut m = scenario();
            let deltas = SyntheticDrift::new(25, m.live_stable_ids(), m.next_stable_id(), 120, 5)
                .map(Ok)
                .collect::<Vec<_>>();
            let mut out = Vec::new();
            let s = run_stream(&mut m, &config(), deltas, &mut out).unwrap();
            (s.final_objective.to_bits(), s.checks, s.repairs, s.resolves)
        };
        assert_eq!(run(), run());
    }
}
