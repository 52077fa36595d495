//! `stream-durable`: seeded drift through the durable `rap stream` loop.
//!
//! A run is a series of rounds. Each round is one complete cold set-up
//! (`MutableScenario::new`, `Durability::start`, the initial solve) followed
//! by a fixed-length drift stream through `run_stream_with`. A round's
//! length is fixed, not timed, because the drift grows the flow population
//! and so the cost of later deltas: a slow host must not see cheaper ops. One op is one
//! delta: the time between two pulls on the benchmark's delta iterator.

use crate::calib::{Kernel, Reference};
use crate::host::process_cpu;
use crate::measure::{derive_seed, Config, Ops, Outcome, Size};
use crate::stats;
use crate::trace::{SpanId, Tracer};
use rap_core::{
    encode_record, encode_snapshot, FaultPlan, FsyncPolicy, MutableScenario, Placement, Scenario,
    UtilityFunction, UtilityKind, WalOp,
};
use rap_graph::{Distance, GridGraph, NodeId, RoadGraph};
use rap_stream::{
    prepare_resume, run_stream_with, Durability, DurabilityConfig, Journal, Maintainer,
    MaintainerConfig, MaintainerState, ResumePoint, StreamConfig, StreamDelta, StreamError,
    StreamProgress, StreamSummary, SyntheticDrift,
};
use rap_traffic::demand::{uniform_demand, DemandParams};
use rap_traffic::FlowSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// RAPs the maintainer serves.
const K: usize = 10;
/// Applied deltas between staleness checks (the maintainer default).
const CHECK_INTERVAL: u64 = 32;
/// WAL fsync cadence: the `rap stream` default.
const FSYNC_EVERY: u64 = 64;
/// Deltas per second no host reaches through the durable loop.
const MAX_OPS_PER_S: f64 = 50_000.0;
/// Threads of the maintainer's escalation engine and of snapshot decodes.
const THREADS: usize = 1;
/// Deltas between two host-speed kernel samples.
const SAMPLE_EVERY: u64 = 1_000;

struct Instance {
    side: u32,
    flows: usize,
    /// Deltas per round. Not a multiple of `snapshot_every`, so the clean
    /// finish rotates once more and the snapshot left on disk holds the
    /// state after the final staleness check.
    deltas: usize,
    /// Journaled items between snapshot rotations.
    snapshot_every: u64,
}

fn instance(size: Size) -> Instance {
    match size {
        Size::Full => Instance {
            side: 20,
            flows: 400,
            deltas: 5_000,
            snapshot_every: 2_000,
        },
        Size::Tiny => Instance {
            side: 6,
            flows: 30,
            deltas: 300,
            snapshot_every: 128,
        },
    }
}

/// Per-op samples the delta iterator takes, for one round.
#[derive(Default)]
struct PullLog {
    first_pull: Option<Instant>,
    ops: Ops,
    reference: Reference,
}

/// The delta iterator: times the gap between successive pulls, and takes
/// a host-speed kernel sample between two ops every [`SAMPLE_EVERY`]
/// pulls. The CPU clock brackets sit outside the wall-clock brackets.
struct Pulls<'a> {
    drift: SyntheticDrift,
    tracer: &'a Tracer,
    log: &'a mut PullLog,
    kernel: &'a mut [Kernel; 1],
    /// Ops the run recorded before this round.
    offset: usize,
    pulled: u64,
    open: Option<(Duration, Instant, SpanId)>,
}

impl Iterator for Pulls<'_> {
    type Item = Result<StreamDelta, StreamError>;

    fn next(&mut self) -> Option<Self::Item> {
        let wall = Instant::now();
        let cpu = process_cpu();
        match self.open.take() {
            Some((c0, w0, span)) => {
                self.tracer.end(span);
                self.log.ops.push(wall - w0, cpu - c0);
            }
            None => self.log.first_pull = Some(wall),
        }
        if self.pulled.is_multiple_of(SAMPLE_EVERY) {
            let at = self.offset + self.log.ops.len();
            self.log.reference.sample_on(at, self.kernel);
        }
        self.pulled += 1;
        let delta = self.drift.next()?;
        let span = self.tracer.begin("stream.delta");
        let c0 = process_cpu();
        self.open = Some((c0, Instant::now(), span));
        Some(Ok(delta))
    }
}

/// What the journal wrapper observed in one round (traced runs).
#[derive(Default)]
struct JournalLog {
    record_ns: Vec<u64>,
    commit_ns: Vec<u64>,
    rotate_ns: Vec<u64>,
    /// Per delta: whether the maintainer ran a staleness check on it.
    checked: Vec<bool>,
    wal_bytes: u64,
    fsyncs: u64,
    final_placement: Option<Placement>,
    final_state: Option<MaintainerState>,
}

/// Forwards to [`Durability`], timing each call when traced, and keeps the
/// maintainer's final placement for the output checks.
struct Timed<'a> {
    inner: Durability,
    tracer: &'a Tracer,
    log: &'a mut JournalLog,
    snapshot_every: u64,
    records: u64,
    since_snapshot: u64,
    pending_sync: u64,
    checks_seen: u64,
}

/// Runs `f` in a span and returns its result with its wall time in ns.
fn timed<R>(tracer: &Tracer, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
    let start = Instant::now();
    let result = tracer.span(name, f);
    (result, start.elapsed().as_nanos() as u64)
}

impl Journal for Timed<'_> {
    fn record(
        &mut self,
        scenario: &MutableScenario,
        delta: &StreamDelta,
    ) -> Result<(), StreamError> {
        if !self.tracer.enabled() {
            return self.inner.record(scenario, delta);
        }
        let op = match delta {
            StreamDelta::Flow(d) => WalOp::Delta(*d),
            StreamDelta::Compact => WalOp::Compact,
        };
        self.log.wal_bytes += encode_record(scenario.epoch(), self.records, &op).len() as u64;
        let (result, ns) = timed(self.tracer, "stream.persist.record", || {
            self.inner.record(scenario, delta)
        });
        self.log.record_ns.push(ns);
        self.records += 1;
        self.since_snapshot += 1;
        // The WAL writer's own rule: fsync once `FSYNC_EVERY` appends wait.
        self.pending_sync += 1;
        if self.pending_sync >= FSYNC_EVERY {
            self.pending_sync = 0;
            self.log.fsyncs += 1;
        }
        result
    }

    fn committed(
        &mut self,
        scenario: &MutableScenario,
        maintainer: &Maintainer,
        progress: &StreamProgress,
    ) -> Result<(), StreamError> {
        if !self.tracer.enabled() {
            return self.inner.committed(scenario, maintainer, progress);
        }
        let rotates = self.since_snapshot >= self.snapshot_every;
        let name = if rotates {
            "stream.persist.rotate"
        } else {
            "stream.persist.commit"
        };
        let (result, ns) = timed(self.tracer, name, || {
            self.inner.committed(scenario, maintainer, progress)
        });
        if rotates {
            self.log.rotate_ns.push(ns);
            self.since_snapshot = 0;
            // Truncating the WAL after a rotation syncs it.
            self.pending_sync = 0;
            self.log.fsyncs += 1;
        } else {
            self.log.commit_ns.push(ns);
        }
        let checks = maintainer.stats().checks;
        self.log.checked.push(checks != self.checks_seen);
        self.checks_seen = checks;
        result
    }

    fn finish(
        &mut self,
        scenario: &MutableScenario,
        maintainer: &Maintainer,
        progress: &StreamProgress,
    ) -> Result<(), StreamError> {
        self.log.final_placement = Some(maintainer.placement().clone());
        self.log.final_state = Some(maintainer.state());
        // A clean finish syncs the WAL, then rotates if items are pending.
        self.log.fsyncs += 1 + u64::from(self.since_snapshot > 0);
        self.tracer.span("stream.persist.finish", || {
            self.inner.finish(scenario, maintainer, progress)
        })
    }
}

/// Per-round figures the traced run aggregates.
#[derive(Default)]
struct RoundStats {
    rounds: f64,
    compactions: f64,
    dead_entries: f64,
    live_flows: f64,
    checks: f64,
    repairs: f64,
    resolves: f64,
    repair_us: f64,
    resolve_us: f64,
    wal_records: f64,
    wal_bytes: f64,
    fsyncs: f64,
    rotations: f64,
    delta_ns: Vec<u64>,
    check_ns: Vec<u64>,
    record_ns: Vec<u64>,
    commit_ns: Vec<u64>,
    rotate_ns: Vec<u64>,
}

pub fn run(cfg: &Config, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let inst = instance(cfg.size);
    let grid = GridGraph::new(inst.side, inst.side, Distance::from_feet(500));
    let graph = grid.graph().clone();
    let params = DemandParams {
        flows: inst.flows,
        min_volume: 100.0,
        max_volume: 1_000.0,
        attractiveness: 0.001,
    };
    let shops = vec![grid.center()];
    let utility = UtilityKind::Linear.instantiate(Distance::from_feet(u64::from(inst.side) * 250));
    let stream_cfg = StreamConfig {
        maintainer: MaintainerConfig {
            k: K,
            check_interval: CHECK_INTERVAL,
            threads: THREADS,
            seed: cfg.seed,
            ..MaintainerConfig::default()
        },
        ..StreamConfig::default()
    };
    let durability_cfg = DurabilityConfig {
        wal: cfg.work_dir.join("stream.wal"),
        snapshot: Some(cfg.work_dir.join("stream.snap")),
        snapshot_every: inst.snapshot_every,
        fsync: FsyncPolicy::EveryN(FSYNC_EVERY),
        faults: FaultPlan::none(),
        crash_after: None,
    };
    out.threads.push(("stream.maintainer_threads", THREADS));
    out.threads.push(("stream.decode_threads", THREADS));

    out.ops.reserve(cfg.measure, MAX_OPS_PER_S);
    let mut kernel = [Kernel::new()];
    let mut totals = RoundStats::default();
    let deadline = Instant::now() + cfg.measure;
    let mut round = 0u64;
    while round == 0 || Instant::now() < deadline {
        // Every round draws its own demand and drift, so a run averages over
        // many scenarios instead of riding on one seed's.
        let specs = uniform_demand(&graph, params, derive_seed(cfg.seed, 2 * round + 1))
            .expect("demand parameters are valid");
        let flows = FlowSet::route(&graph, specs).expect("a grid routes every flow");
        let inputs = (graph.clone(), flows, shops.clone(), Arc::clone(&utility));
        let mut pulls = PullLog::default();
        let mut journal_log = JournalLog::default();
        out.setup_reference
            .sample_on(out.setups_s.len(), &mut kernel);
        let start = Instant::now();
        let result = (|| {
            let (g, f, s, u) = inputs;
            let mut scenario = tracer
                .span("core.mutable.new", || MutableScenario::new(g, f, s, u))
                .map_err(|e| format!("scenario failed to build: {e}"))?;
            let durability = tracer
                .span("stream.persist.start", || {
                    Durability::start(durability_cfg.clone())
                })
                .map_err(|e| format!("durability failed to start: {e}"))?;
            let drift = SyntheticDrift::new(
                graph.node_count() as u32,
                scenario.live_stable_ids(),
                scenario.next_stable_id(),
                inst.deltas,
                derive_seed(cfg.seed, 2 * round + 2),
            );
            let deltas = Pulls {
                drift,
                tracer,
                log: &mut pulls,
                kernel: &mut kernel,
                offset: out.ops.len(),
                pulled: 0,
                open: None,
            };
            let mut journal = Timed {
                inner: durability,
                tracer,
                log: &mut journal_log,
                snapshot_every: inst.snapshot_every,
                records: 0,
                since_snapshot: 0,
                pending_sync: 0,
                checks_seen: 0,
            };
            let summary = tracer
                .span("stream.service.run_stream_with", || {
                    run_stream_with(
                        &mut scenario,
                        &stream_cfg,
                        deltas,
                        &mut std::io::sink(),
                        &mut journal,
                        None,
                    )
                })
                .map_err(|e| format!("stream failed: {e}"))?;
            Ok::<_, String>((scenario, summary))
        })();
        if let Some(first) = pulls.first_pull {
            out.setups_s.push((first - start).as_secs_f64());
        }
        out.attempted += pulls.ops.len() as u64;
        let (mut scenario, summary) = match result {
            Ok(r) => r,
            Err(e) => {
                out.failed += 1;
                out.errors.push(format!("round {round}: {e}"));
                break;
            }
        };
        out.failed += summary.deltas_rejected;
        check_round(
            &mut out,
            &inst,
            &durability_cfg,
            &mut scenario,
            &summary,
            &journal_log,
            (&graph, &shops, &utility),
        );
        if tracer.enabled() {
            tally(&mut totals, &scenario, &summary, &pulls, journal_log);
        }
        out.ops.wall_ms.extend(pulls.ops.wall_ms);
        out.ops.cpu_ms.extend(pulls.ops.cpu_ms);
        out.reference.samples.extend(pulls.reference.samples);
        round += 1;
    }
    out.peak_rss_mb = crate::host::peak_rss_mb();
    let _ = std::fs::remove_file(&durability_cfg.wal);
    if let Some(p) = &durability_cfg.snapshot {
        let _ = std::fs::remove_file(p);
    }
    if tracer.enabled() {
        layers(&mut out, &totals);
    }
    out
}

/// The exact checks of one round, all outside the timed sections.
fn check_round(
    out: &mut Outcome,
    inst: &Instance,
    durability_cfg: &DurabilityConfig,
    live: &mut MutableScenario,
    summary: &StreamSummary,
    journal: &JournalLog,
    (graph, shops, utility): (&RoadGraph, &[NodeId], &Arc<dyn UtilityFunction>),
) {
    let n = inst.deltas as u64;
    out.check(
        summary.deltas_rejected == 0 && summary.deltas_applied == n,
        || {
            format!(
                "applied {} and rejected {} of {n} deltas",
                summary.deltas_applied, summary.deltas_rejected
            )
        },
    );
    // One check per CHECK_INTERVAL applied deltas, plus the final one.
    let expected_checks = n / CHECK_INTERVAL + 1;
    out.check(summary.checks == expected_checks, || {
        format!(
            "{} staleness checks, expected {expected_checks}",
            summary.checks
        )
    });
    let Some(placement) = &journal.final_placement else {
        out.errors
            .push("stream ended without a clean finish".into());
        return;
    };

    // The files on disk must restore the live scenario and the placement.
    match prepare_resume(durability_cfg.clone(), THREADS) {
        Ok(ResumePoint::Snapshot(setup)) => {
            let same_placement = &setup.resume.placement == placement
                && journal.final_state.map(|s| s.objective.to_bits())
                    == Some(setup.resume.maintainer.objective.to_bits());
            out.check(
                same_placement && setup.replay.is_empty() && setup.consumed == n,
                || "resumed maintainer state differs from the live one".into(),
            );
            let a = encode_snapshot(&setup.scenario, Some(placement), 0, &[]);
            let b = encode_snapshot(live, Some(placement), 0, &[]);
            out.check(matches!((&a, &b), (Ok(a), Ok(b)) if a == b), || {
                "resumed scenario does not re-encode to the live scenario's bytes".into()
            });
        }
        Ok(_) => out
            .errors
            .push("no snapshot left on disk after a clean finish".into()),
        Err(e) => out.errors.push(format!("prepare_resume failed: {e}")),
    }

    // A scenario built from scratch over the live flows must score the
    // final placement to the same bits as the maintained one.
    let live_value = live.snapshot().evaluate(placement);
    let rebuilt = FlowSet::route(graph, live.live_specs())
        .map_err(|e| e.to_string())
        .and_then(|flows| {
            Scenario::new(graph.clone(), flows, shops.to_vec(), Arc::clone(utility))
                .map_err(|e| e.to_string())
        });
    match rebuilt {
        Ok(s) => out.check(
            s.evaluate(placement).to_bits() == live_value.to_bits(),
            || "from-scratch scenario scores the final placement differently".into(),
        ),
        Err(e) => out.errors.push(format!("from-scratch rebuild failed: {e}")),
    }
}

fn tally(
    t: &mut RoundStats,
    scenario: &MutableScenario,
    summary: &StreamSummary,
    pulls: &PullLog,
    journal: JournalLog,
) {
    t.rounds += 1.0;
    t.compactions += scenario.compactions() as f64;
    t.dead_entries += scenario.dead_entries() as f64;
    t.live_flows += scenario.live_flows() as f64;
    t.checks += summary.checks as f64;
    t.repairs += summary.repairs as f64;
    t.resolves += summary.resolves as f64;
    if let Some(s) = journal.final_state {
        t.repair_us += s.stats.repair_us as f64;
        t.resolve_us += s.stats.resolve_us as f64;
    }
    t.wal_records += journal.record_ns.len() as f64;
    t.wal_bytes += journal.wal_bytes as f64;
    t.fsyncs += journal.fsyncs as f64;
    t.rotations += journal.rotate_ns.len() as f64;
    for (&ms, &checked) in pulls.ops.wall_ms.iter().zip(&journal.checked) {
        let ns = (f64::from(ms) * 1e6) as u64;
        if checked {
            t.check_ns.push(ns);
        } else {
            t.delta_ns.push(ns);
        }
    }
    t.record_ns.extend(journal.record_ns);
    t.commit_ns.extend(journal.commit_ns);
    t.rotate_ns.extend(journal.rotate_ns);
}

fn layers(out: &mut Outcome, t: &RoundStats) {
    let pct = |ns: &[u64], p: f64, scale: f64| {
        if ns.is_empty() {
            return 0.0;
        }
        stats::percentile(
            &stats::sorted(&ns.iter().map(|&n| n as f64).collect::<Vec<_>>()),
            p,
        ) / scale
    };
    let per_round = |v: f64| v / t.rounds.max(1.0);
    let mean_ms = |total_us: f64, n: f64| if n > 0.0 { total_us / n / 1e3 } else { 0.0 };
    out.layer("stream.delta_p50_us", pct(&t.delta_ns, 50.0, 1e3));
    out.layer("stream.check_p50_ms", pct(&t.check_ns, 50.0, 1e6));
    out.layer("mutable.compactions", per_round(t.compactions));
    out.layer("mutable.dead_entries", per_round(t.dead_entries));
    out.layer("mutable.live_flows", per_round(t.live_flows));
    out.layer("maintain.checks", per_round(t.checks));
    out.layer("maintain.repairs", per_round(t.repairs));
    out.layer("maintain.resolves", per_round(t.resolves));
    out.layer("maintain.repair_ms", mean_ms(t.repair_us, t.repairs));
    out.layer("maintain.resolve_ms", mean_ms(t.resolve_us, t.resolves));
    let interventions = t.repairs + t.resolves;
    out.layer(
        "maintain.escalation_ratio",
        if interventions > 0.0 {
            t.resolves / interventions
        } else {
            0.0
        },
    );
    out.layer("persist.record_p50_us", pct(&t.record_ns, 50.0, 1e3));
    out.layer("persist.record_p99_us", pct(&t.record_ns, 99.0, 1e3));
    // A commit that does not rotate is a counter check: its p50 sits on
    // one nanosecond bucket, so its mean is the figure that can move.
    let commit_mean_us = if t.commit_ns.is_empty() {
        0.0
    } else {
        t.commit_ns.iter().sum::<u64>() as f64 / t.commit_ns.len() as f64 / 1e3
    };
    out.layer("persist.commit_mean_us", commit_mean_us);
    out.layer("persist.commit_p99_us", pct(&t.commit_ns, 99.0, 1e3));
    out.layer("persist.rotate_ms", pct(&t.rotate_ns, 50.0, 1e6));
    out.layer("wal.records", per_round(t.wal_records));
    out.layer("wal.bytes", per_round(t.wal_bytes));
    out.layer("wal.fsyncs", per_round(t.fsyncs));
    out.layer("snapshot.rotations", per_round(t.rotations));
    out.layer("stream.rounds", t.rounds);
}
