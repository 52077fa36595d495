//! Crash-safe durability for the serving loop: a [`Journal`] implementation
//! that write-ahead-logs every source item and periodically rotates
//! checksummed snapshots, plus the resume path that puts a killed stream
//! back exactly where it was.
//!
//! ## Protocol
//!
//! - **Before** an item touches the scenario, [`Durability::record`]
//!   appends it to the WAL (`seq` = pre-apply epoch, `source_index` = the
//!   item's 0-based position in the delta source). A crash after the append
//!   but before the apply loses nothing: replay re-applies the delta.
//! - **After** an item is fully processed, [`Durability::committed`] may
//!   rotate a snapshot: scenario + serving placement + maintainer state +
//!   progress counters are encoded, written atomically (temp + fsync +
//!   rename), and only then is the WAL truncated. A crash between the
//!   rename and the truncate is harmless — replay skips records whose
//!   `source_index` the snapshot already covers.
//! - **Resume** ([`prepare_resume`]) loads the snapshot (if any), maps the
//!   WAL's valid prefix back to [`StreamDelta`]s, and hands the caller a
//!   replay list to chain *in front of* the remaining source items. The
//!   replayed prefix goes through the full pipeline — apply, maintenance,
//!   events — so the resumed trajectory is bit-identical to a run that
//!   never crashed; the journal skips re-appending items it already holds.
//!
//! This is the crate graph's one recovery path: `rap_core` supplies the
//! snapshot and WAL codecs, and the policy of which records to replay
//! lives here. The first replayed record must continue the resume point
//! (the snapshot, or item 0 at epoch 0 without one), so a log that belongs
//! to another stream or to a snapshot that is gone is refused rather than
//! replayed onto the wrong state. Torn or corrupt WAL tails stop the
//! replay cleanly at the last whole record, the setup reports where and
//! why (`wal_stop`), and the writer reopens the log truncated to that
//! valid prefix so new appends never land after garbage. The tier-1
//! proptest `tests/stream_recovery.rs` crashes journaled runs at arbitrary
//! items, damages their logs, and resumes them through this path.

use crate::delta::{StreamDelta, StreamError};
use crate::maintain::{Maintainer, MaintainerState, MaintainerStats};
use crate::service::{Journal, ResumeState, StreamProgress};
use rap_core::{
    decode_snapshot_with_threads, encode_snapshot, read_snapshot_file, read_wal,
    write_snapshot_atomic, FaultPlan, FsyncPolicy, MutableScenario, SnapshotError, WalOp, WalScan,
    WalStop, WalWriter,
};
use std::path::{Path, PathBuf};

/// Where and how the stream persists its state.
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// Write-ahead log path.
    pub wal: PathBuf,
    /// Snapshot path; `None` disables rotation (WAL-only durability).
    pub snapshot: Option<PathBuf>,
    /// Rotate a snapshot every this many journaled items (0 = never).
    pub snapshot_every: u64,
    /// When the WAL fsyncs.
    pub fsync: FsyncPolicy,
    /// Injected disk faults (testing); [`FaultPlan::none`] in production.
    pub faults: FaultPlan,
    /// Abort the process (as `kill -9` would) right after this many items
    /// have been journaled — deterministic crash injection for recovery
    /// tests. `None` in production.
    pub crash_after: Option<u64>,
}

impl DurabilityConfig {
    /// WAL-only durability at `path` with the default fsync policy.
    pub fn wal_only(path: PathBuf) -> Self {
        DurabilityConfig {
            wal: path,
            snapshot: None,
            snapshot_every: 0,
            fsync: FsyncPolicy::default(),
            faults: FaultPlan::none(),
            crash_after: None,
        }
    }

    /// Adds snapshot rotation at `path` every `every` journaled items.
    #[must_use]
    pub fn with_snapshot(mut self, path: PathBuf, every: u64) -> Self {
        self.snapshot = Some(path);
        self.snapshot_every = every;
        self
    }
}

/// The WAL + snapshot [`Journal`] for [`crate::service::run_stream_with`].
pub struct Durability {
    cfg: DurabilityConfig,
    wal: WalWriter,
    /// 0-based index of the next source item to record.
    source_index: u64,
    /// Items journaled since the last snapshot rotation.
    since_snapshot: u64,
    /// Fresh items journaled this process (drives `crash_after`).
    journaled: u64,
    /// Leading `record`/`committed` calls to ignore: the resume path chains
    /// WAL-replayed items through the pipeline, and those are already in
    /// the log.
    skip: u64,
}

fn persist_io(e: std::io::Error) -> StreamError {
    StreamError::Persist(SnapshotError::Io(e))
}

impl Durability {
    /// Starts fresh durability: creates (truncates) the WAL and removes any
    /// stale snapshot so leftover state from an unrelated run can never be
    /// mistaken for this stream's.
    ///
    /// # Errors
    ///
    /// WAL creation failures.
    pub fn start(cfg: DurabilityConfig) -> Result<Self, StreamError> {
        let wal = WalWriter::create(&cfg.wal, cfg.fsync)
            .map_err(persist_io)?
            .with_faults(cfg.faults.clone());
        if let Some(path) = &cfg.snapshot {
            let _ = std::fs::remove_file(path);
        }
        Ok(Durability {
            cfg,
            wal,
            source_index: 0,
            since_snapshot: 0,
            journaled: 0,
            skip: 0,
        })
    }

    fn rotate(
        &mut self,
        scenario: &MutableScenario,
        maintainer: &Maintainer,
        progress: &StreamProgress,
    ) -> Result<(), StreamError> {
        let Some(path) = self.cfg.snapshot.clone() else {
            return Ok(());
        };
        let extra = encode_resume_extra(&maintainer.state(), progress);
        let bytes = encode_snapshot(
            scenario,
            Some(maintainer.placement()),
            self.source_index,
            &extra,
        )
        .map_err(StreamError::Persist)?;
        write_snapshot_atomic(&path, &bytes, &self.cfg.faults).map_err(StreamError::Persist)?;
        self.wal.truncate().map_err(persist_io)?;
        self.since_snapshot = 0;
        Ok(())
    }
}

impl Journal for Durability {
    fn record(
        &mut self,
        scenario: &MutableScenario,
        delta: &StreamDelta,
    ) -> Result<(), StreamError> {
        if self.skip > 0 {
            // Replayed prefix: the log already holds this record.
            self.skip -= 1;
            self.source_index += 1;
            return Ok(());
        }
        let op = match delta {
            StreamDelta::Flow(d) => WalOp::Delta(*d),
            StreamDelta::Compact => WalOp::Compact,
        };
        self.wal
            .append(scenario.epoch(), self.source_index, &op)
            .map_err(persist_io)?;
        self.source_index += 1;
        self.since_snapshot += 1;
        self.journaled += 1;
        if let Some(n) = self.cfg.crash_after {
            if self.journaled >= n {
                // Die like a power cut: the record is in the log, the state
                // change it announces never happens. Sync first so the test
                // observes the log a real crash would leave behind.
                let _ = self.wal.sync();
                std::process::abort();
            }
        }
        Ok(())
    }

    fn committed(
        &mut self,
        scenario: &MutableScenario,
        maintainer: &Maintainer,
        progress: &StreamProgress,
    ) -> Result<(), StreamError> {
        if self.cfg.snapshot_every > 0 && self.since_snapshot >= self.cfg.snapshot_every {
            self.rotate(scenario, maintainer, progress)?;
        }
        Ok(())
    }

    fn finish(
        &mut self,
        scenario: &MutableScenario,
        maintainer: &Maintainer,
        progress: &StreamProgress,
    ) -> Result<(), StreamError> {
        // Make the tail durable, and leave a final snapshot when rotation is
        // on so a later resume restarts from the end state without replay.
        self.wal.sync().map_err(persist_io)?;
        if self.cfg.snapshot_every > 0 && self.since_snapshot > 0 {
            self.rotate(scenario, maintainer, progress)?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The snapshot's opaque extra section: maintainer state + progress counters.

const EXTRA_VERSION: u32 = 1;

/// Encodes the maintainer's scalar state and the stream progress counters
/// into the snapshot's opaque extra section.
pub fn encode_resume_extra(state: &MaintainerState, progress: &StreamProgress) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 12 * 8);
    out.extend_from_slice(&EXTRA_VERSION.to_le_bytes());
    for v in [
        progress.applied,
        progress.rejected,
        progress.forced_compactions,
        state.objective.to_bits(),
        state.baseline_certified.to_bits(),
        state.deltas_since_check,
        state.stats.checks,
        state.stats.repairs,
        state.stats.resolves,
        state.stats.repair_us,
        state.stats.resolve_us,
        state.stats.max_intervention_us,
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Decodes [`encode_resume_extra`]'s payload.
///
/// # Errors
///
/// A description of the first structural problem (wrong length or version).
pub fn decode_resume_extra(bytes: &[u8]) -> Result<(MaintainerState, StreamProgress), String> {
    if bytes.len() != 4 + 12 * 8 {
        return Err(format!(
            "resume extra must be {} bytes, found {}",
            4 + 12 * 8,
            bytes.len()
        ));
    }
    let version = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes"));
    if version != EXTRA_VERSION {
        return Err(format!("unsupported resume extra version {version}"));
    }
    let mut fields = [0u64; 12];
    for (i, f) in fields.iter_mut().enumerate() {
        let at = 4 + 8 * i;
        *f = u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    }
    Ok((
        MaintainerState {
            objective: f64::from_bits(fields[3]),
            baseline_certified: f64::from_bits(fields[4]),
            deltas_since_check: fields[5],
            stats: MaintainerStats {
                checks: fields[6],
                repairs: fields[7],
                resolves: fields[8],
                repair_us: fields[9],
                resolve_us: fields[10],
                max_intervention_us: fields[11],
            },
        },
        StreamProgress {
            applied: fields[0],
            rejected: fields[1],
            forced_compactions: fields[2],
        },
    ))
}

// ---------------------------------------------------------------------------
// Resume.

/// A resume with a snapshot: restored scenario + maintainer state, the WAL
/// suffix to replay through the pipeline, and the journal to keep writing.
pub struct ResumeSetup {
    /// The scenario exactly as it was when the snapshot rotated.
    pub scenario: MutableScenario,
    /// Maintainer placement/state and progress counters at that point.
    pub resume: ResumeState,
    /// WAL records newer than the snapshot, as pipeline deltas. Chain these
    /// *before* the remaining source items.
    pub replay: Vec<StreamDelta>,
    /// Source items already consumed (`snapshot position + replay.len()`);
    /// skip this many from the original delta source.
    pub consumed: u64,
    /// The journal, reopened on the WAL's valid prefix with the replayed
    /// window marked as already logged.
    pub durability: Durability,
    /// Where and why the WAL scan stopped before the end of the log: the
    /// damaged tail this resume dropped. `None` for a whole log.
    pub wal_stop: Option<WalStop>,
}

/// A resume without a snapshot: the caller cold-builds the initial
/// scenario and replays the whole WAL through the pipeline.
pub struct WalReplaySetup {
    /// Every valid WAL record, as pipeline deltas, chained before the
    /// remaining source items.
    pub replay: Vec<StreamDelta>,
    /// Source items already consumed (`replay.len()`).
    pub consumed: u64,
    /// The journal, reopened on the WAL's valid prefix.
    pub durability: Durability,
    /// Where and why the WAL scan stopped before the end of the log: the
    /// damaged tail this resume dropped. `None` for a whole log.
    pub wal_stop: Option<WalStop>,
}

/// What [`prepare_resume`] found on disk.
pub enum ResumePoint {
    /// Snapshot (and possibly WAL suffix) found: warm resume.
    Snapshot(Box<ResumeSetup>),
    /// WAL but no snapshot (crash before the first rotation): the caller
    /// rebuilds the scenario from its original inputs, then replays.
    WalOnly(Box<WalReplaySetup>),
    /// Nothing on disk: start fresh with [`Durability::start`].
    Fresh,
}

/// Inspects the configured WAL/snapshot paths and assembles everything a
/// resumed stream needs. This is the one recovery path, and its policy is:
///
/// - resume from the snapshot if there is one, else from the cold-built
///   initial scenario (epoch 0, source position 0);
/// - skip WAL records the resume point already covers (a crash between
///   the snapshot's rename and the WAL truncate leaves them in the log);
/// - require the first remaining record to continue the resume point, in
///   epoch and in source position;
/// - stop at the first damaged record: a torn or corrupt tail bounds the
///   replay (that is what crash recovery *is*), is reported in
///   `wal_stop`, and is cut off before the journal appends again.
///
/// A corrupt snapshot is an error. Deleting it does not fall back to the
/// log: once a snapshot has rotated, the log no longer starts at the
/// stream's first item, so the resume without it is refused too, and the
/// stream must start fresh.
///
/// # Errors
///
/// Snapshot read/decode failures, malformed resume metadata, or a WAL that
/// does not continue the resume point (a foreign log, or the log of a
/// snapshot that is gone).
pub fn prepare_resume(cfg: DurabilityConfig, threads: usize) -> Result<ResumePoint, StreamError> {
    let snapshot_path = cfg.snapshot.clone().filter(|p| p.exists());
    let wal_exists = cfg.wal.exists();
    if snapshot_path.is_none() && !wal_exists {
        return Ok(ResumePoint::Fresh);
    }
    let wal_bytes = if wal_exists {
        std::fs::read(&cfg.wal).map_err(persist_io)?
    } else {
        Vec::new()
    };
    let scan = read_wal(&wal_bytes);
    let snapshot = match &snapshot_path {
        Some(path) => Some(load_resume_snapshot(path, &cfg.faults, threads)?),
        None => None,
    };
    let (epoch, position) = snapshot.as_ref().map_or((0, 0), |(scenario, _, position)| {
        (scenario.epoch(), *position)
    });
    let replay = replay_after(&scan, epoch, position, snapshot.is_some())?;
    let wal = if wal_exists {
        WalWriter::open_truncated(&cfg.wal, scan.valid_len, cfg.fsync)
    } else {
        WalWriter::create(&cfg.wal, cfg.fsync)
    }
    .map_err(persist_io)?
    .with_faults(cfg.faults.clone());
    let skip = replay.len() as u64;
    let durability = Durability {
        cfg,
        wal,
        source_index: position,
        since_snapshot: 0,
        journaled: 0,
        skip,
    };
    Ok(match snapshot {
        Some((scenario, resume, position)) => ResumePoint::Snapshot(Box::new(ResumeSetup {
            scenario,
            resume,
            replay,
            consumed: position + skip,
            durability,
            wal_stop: scan.stop,
        })),
        None => ResumePoint::WalOnly(Box::new(WalReplaySetup {
            replay,
            consumed: skip,
            durability,
            wal_stop: scan.stop,
        })),
    })
}

/// Reads and decodes a stream snapshot: the scenario, the resume state
/// from its placement and extra section, and its source position.
fn load_resume_snapshot(
    path: &Path,
    faults: &FaultPlan,
    threads: usize,
) -> Result<(MutableScenario, ResumeState, u64), StreamError> {
    let bytes = read_snapshot_file(path, faults).map_err(StreamError::Persist)?;
    let contents = decode_snapshot_with_threads(&bytes, threads).map_err(StreamError::Persist)?;
    let placement = contents
        .placement
        .ok_or(StreamError::Persist(SnapshotError::Malformed {
            section: "placement",
            detail: "stream snapshots must record the serving placement".into(),
        }))?;
    let (maintainer, progress) = decode_resume_extra(&contents.extra).map_err(|detail| {
        StreamError::Persist(SnapshotError::Malformed {
            section: "extra",
            detail,
        })
    })?;
    let resume = ResumeState {
        placement,
        maintainer,
        applied: progress.applied,
        rejected: progress.rejected,
        forced_compactions: progress.forced_compactions,
    };
    Ok((contents.scenario, resume, contents.source_position))
}

/// The WAL records past the resume point at (`epoch`, `position`), as
/// pipeline deltas. Records before `position` are skipped; the first one
/// kept must be exactly the item the resume point continues with.
fn replay_after(
    scan: &WalScan,
    epoch: u64,
    position: u64,
    from_snapshot: bool,
) -> Result<Vec<StreamDelta>, StreamError> {
    let mut suffix = scan
        .records
        .iter()
        .filter(|r| r.source_index >= position)
        .peekable();
    if let Some(first) = suffix.peek() {
        if (first.seq, first.source_index) != (epoch, position) {
            let (point, hint) = if from_snapshot {
                ("the snapshot ends", "")
            } else {
                (
                    "with no snapshot a resume starts",
                    " (is its snapshot missing?)",
                )
            };
            return Err(StreamError::Persist(SnapshotError::Malformed {
                section: "wal",
                detail: format!(
                    "the log continues from source item {} at epoch {}, but {point} at item \
                     {position}, epoch {epoch}: not this stream's log{hint}",
                    first.source_index, first.seq
                ),
            }));
        }
    }
    Ok(suffix
        .map(|r| match r.op {
            WalOp::Delta(d) => StreamDelta::Flow(d),
            WalOp::Compact => StreamDelta::Compact,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maintain::MaintainerConfig;
    use crate::service::{run_stream, run_stream_with, StreamConfig};
    use crate::source::SyntheticDrift;
    use rap_core::UtilityKind;
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
                ..MaintainerConfig::default()
            },
            metrics_interval: 50,
            strict: false,
        }
    }

    fn deltas(count: usize) -> Vec<StreamDelta> {
        let m = scenario();
        SyntheticDrift::new(25, m.live_stable_ids(), m.next_stable_id(), count, 11).collect()
    }

    fn temp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("rap_persist_{name}_{}", std::process::id()))
    }

    fn durability_cfg(tag: &str, every: u64) -> DurabilityConfig {
        DurabilityConfig::wal_only(temp(&format!("{tag}.wal")))
            .with_snapshot(temp(&format!("{tag}.snap")), every)
    }

    fn cleanup(cfg: &DurabilityConfig) {
        let _ = std::fs::remove_file(&cfg.wal);
        if let Some(p) = &cfg.snapshot {
            let _ = std::fs::remove_file(p);
            let _ = std::fs::remove_file(p.with_extension("tmp"));
        }
    }

    /// The summary facts that must survive a crash bit-exactly.
    fn fingerprint(s: &crate::service::StreamSummary) -> (u64, u64, u64, u64, u64, u64) {
        (
            s.final_epoch,
            s.final_objective.to_bits(),
            s.deltas_applied,
            s.checks,
            s.repairs,
            s.resolves,
        )
    }

    #[test]
    fn resume_extra_roundtrips_bit_exactly() {
        let state = MaintainerState {
            objective: 123.456,
            baseline_certified: 0.789,
            deltas_since_check: 5,
            stats: MaintainerStats {
                checks: 9,
                repairs: 2,
                resolves: 1,
                repair_us: 333,
                resolve_us: 4444,
                max_intervention_us: 4000,
            },
        };
        let progress = StreamProgress {
            applied: 77,
            rejected: 3,
            forced_compactions: 1,
        };
        let bytes = encode_resume_extra(&state, &progress);
        let (s2, p2) = decode_resume_extra(&bytes).unwrap();
        assert_eq!(s2.objective.to_bits(), state.objective.to_bits());
        assert_eq!(
            s2.baseline_certified.to_bits(),
            state.baseline_certified.to_bits()
        );
        assert_eq!(s2.deltas_since_check, 5);
        assert_eq!(s2.stats.checks, 9);
        assert_eq!(p2.applied, 77);
        assert_eq!(p2.rejected, 3);
        assert_eq!(p2.forced_compactions, 1);
        assert!(decode_resume_extra(&bytes[..50]).is_err());
        let mut bad = bytes.clone();
        bad[0] = 9;
        assert!(decode_resume_extra(&bad).is_err());
    }

    /// Crash the stream at an arbitrary item (source error mid-stream, as a
    /// kill would leave it), resume from disk, and demand the exact summary
    /// of a run that never crashed.
    fn crash_and_resume_matches(tag: &str, crash_at: usize, snapshot_every: u64) {
        let all = deltas(120);

        // Reference: the uninterrupted run.
        let mut reference = scenario();
        let clean = run_stream(
            &mut reference,
            &config(),
            all.iter().copied().map(Ok),
            &mut Vec::new(),
        )
        .unwrap();

        // Crashed run: the source dies after `crash_at` items.
        let cfg = durability_cfg(tag, snapshot_every);
        cleanup(&cfg);
        let mut crashed = scenario();
        let mut journal = Durability::start(cfg.clone()).unwrap();
        let source = all
            .iter()
            .copied()
            .map(Ok)
            .take(crash_at)
            .chain(std::iter::once(Err(StreamError::Io(
                std::io::Error::other("simulated crash"),
            ))));
        let err = run_stream_with(
            &mut crashed,
            &config(),
            source,
            &mut Vec::new(),
            &mut journal,
            None,
        )
        .unwrap_err();
        assert!(matches!(err, StreamError::Io(_)));
        drop(journal);

        // Resume and finish the stream.
        let resumed = match prepare_resume(cfg.clone(), 2).unwrap() {
            ResumePoint::Snapshot(setup) => {
                let setup = *setup;
                assert_eq!(setup.consumed as usize, crash_at);
                let mut m = setup.scenario;
                let mut journal = setup.durability;
                let rest = setup
                    .replay
                    .into_iter()
                    .chain(all.iter().skip(crash_at).copied())
                    .map(Ok);
                run_stream_with(
                    &mut m,
                    &config(),
                    rest,
                    &mut Vec::new(),
                    &mut journal,
                    Some(setup.resume),
                )
                .unwrap()
            }
            ResumePoint::WalOnly(setup) => {
                assert_eq!(setup.consumed as usize, crash_at);
                let mut m = scenario();
                let mut journal = setup.durability;
                let rest = setup
                    .replay
                    .into_iter()
                    .chain(all.iter().skip(crash_at).copied())
                    .map(Ok);
                run_stream_with(&mut m, &config(), rest, &mut Vec::new(), &mut journal, None)
                    .unwrap()
            }
            ResumePoint::Fresh => panic!("journal files must exist after a crash"),
        };
        assert_eq!(fingerprint(&resumed), fingerprint(&clean), "{tag}");
        cleanup(&cfg);
    }

    #[test]
    fn resume_before_first_snapshot_replays_the_wal() {
        // Crash at item 7 with rotation every 40: WAL-only resume.
        crash_and_resume_matches("early", 7, 40);
    }

    #[test]
    fn resume_from_snapshot_plus_wal_suffix() {
        // Crash at item 97 with rotation every 40: snapshot at 80 + 17 in WAL.
        crash_and_resume_matches("late", 97, 40);
    }

    #[test]
    fn resume_exactly_at_a_rotation_boundary() {
        crash_and_resume_matches("boundary", 80, 40);
    }

    #[test]
    fn clean_finish_leaves_a_directly_resumable_snapshot() {
        let all = deltas(60);
        let cfg = durability_cfg("finish", 25);
        cleanup(&cfg);
        let mut m = scenario();
        let mut journal = Durability::start(cfg.clone()).unwrap();
        let clean = run_stream_with(
            &mut m,
            &config(),
            all.iter().copied().map(Ok),
            &mut Vec::new(),
            &mut journal,
            None,
        )
        .unwrap();
        drop(journal);
        // finish() rotated a final snapshot and truncated the WAL: resuming
        // with zero new items reproduces the end state without replay.
        match prepare_resume(cfg.clone(), 2).unwrap() {
            ResumePoint::Snapshot(setup) => {
                assert!(setup.replay.is_empty(), "WAL must be empty after finish");
                assert_eq!(setup.consumed, 60);
                let mut m = setup.scenario;
                let mut journal = setup.durability;
                let resumed = run_stream_with(
                    &mut m,
                    &config(),
                    std::iter::empty(),
                    &mut Vec::new(),
                    &mut journal,
                    Some(setup.resume),
                )
                .unwrap();
                assert_eq!(resumed.final_epoch, clean.final_epoch);
                assert_eq!(
                    resumed.final_objective.to_bits(),
                    clean.final_objective.to_bits()
                );
                assert_eq!(resumed.deltas_applied, clean.deltas_applied);
            }
            _ => panic!("finish must leave a snapshot"),
        }
        cleanup(&cfg);
    }

    #[test]
    fn torn_wal_tail_bounds_the_replay() {
        let all = deltas(30);
        let cfg = DurabilityConfig::wal_only(temp("torn.wal"));
        cleanup(&cfg);
        let mut m = scenario();
        let mut journal = Durability::start(cfg.clone()).unwrap();
        run_stream_with(
            &mut m,
            &config(),
            all.iter().copied().map(Ok),
            &mut Vec::new(),
            &mut journal,
            None,
        )
        .unwrap();
        drop(journal);
        // Tear the last record mid-byte.
        let bytes = std::fs::read(&cfg.wal).unwrap();
        std::fs::write(&cfg.wal, &bytes[..bytes.len() - 5]).unwrap();
        match prepare_resume(cfg.clone(), 2).unwrap() {
            ResumePoint::WalOnly(setup) => {
                assert_eq!(setup.replay.len(), 29, "torn record must be dropped");
                let stop = setup.wal_stop.expect("the torn tail is reported");
                assert_eq!(stop.reason, rap_core::WalStopReason::TornPayload);
                assert_eq!(
                    std::fs::metadata(&cfg.wal).unwrap().len(),
                    stop.offset,
                    "the journal cut the torn tail off"
                );
            }
            _ => panic!("no snapshot configured"),
        }
        cleanup(&cfg);
    }

    #[test]
    fn wal_of_a_missing_snapshot_is_refused() {
        // Rotation every 20 items and a crash at 45: the snapshot holds
        // items 0..40 and the WAL items 40..45.
        let all = deltas(60);
        let cfg = durability_cfg("orphan", 20);
        cleanup(&cfg);
        let mut m = scenario();
        let mut journal = Durability::start(cfg.clone()).unwrap();
        let source = all
            .iter()
            .copied()
            .map(Ok)
            .take(45)
            .chain(std::iter::once(Err(StreamError::Io(
                std::io::Error::other("simulated crash"),
            ))));
        run_stream_with(
            &mut m,
            &config(),
            source,
            &mut Vec::new(),
            &mut journal,
            None,
        )
        .unwrap_err();
        drop(journal);
        // Without its snapshot the log does not start at item 0: replaying
        // it onto the cold-built scenario would apply items 40..45 to the
        // state of item 0.
        std::fs::remove_file(cfg.snapshot.as_ref().unwrap()).unwrap();
        let log = std::fs::read(&cfg.wal).unwrap();
        let err = match prepare_resume(cfg.clone(), 2) {
            Err(e) => e,
            Ok(_) => panic!("the log of a missing snapshot must not resume"),
        };
        match &err {
            StreamError::Persist(SnapshotError::Malformed { section, detail }) => {
                assert_eq!(*section, "wal");
                assert!(detail.contains("source item 40"), "{detail}");
            }
            other => panic!("expected a malformed-log error, got {other}"),
        }
        assert_eq!(
            std::fs::read(&cfg.wal).unwrap(),
            log,
            "a refusal leaves the log"
        );
        cleanup(&cfg);
    }

    #[test]
    fn foreign_wal_is_rejected_at_resume() {
        let all = deltas(50);
        let cfg = durability_cfg("foreign", 20);
        cleanup(&cfg);
        let mut m = scenario();
        let mut journal = Durability::start(cfg.clone()).unwrap();
        run_stream_with(
            &mut m,
            &config(),
            all.iter().copied().map(Ok).take(45),
            &mut Vec::new(),
            &mut journal,
            None,
        )
        .unwrap();
        drop(journal);
        // Forge a WAL whose records claim epochs from some other stream but
        // whose source positions continue past the snapshot (the clean run's
        // finish() rotated a final snapshot at position 45).
        let mut forged = Vec::new();
        for i in 0..5u64 {
            forged.extend_from_slice(&rap_core::encode_record(1_000 + i, 45 + i, &WalOp::Compact));
        }
        std::fs::write(&cfg.wal, &forged).unwrap();
        let err = match prepare_resume(cfg.clone(), 2) {
            Err(e) => e,
            Ok(_) => panic!("a foreign WAL must not resume"),
        };
        assert!(
            matches!(err, StreamError::Persist(SnapshotError::Malformed { .. })),
            "{err}"
        );
        cleanup(&cfg);
    }
}
