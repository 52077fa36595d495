//! Tier-1 crash recovery, checked where it runs: `rap stream --resume`
//! recovers through `rap_stream::prepare_resume`, so this property drives
//! that path and nothing else.
//!
//! Each case journals a drift stream through `run_stream_with` and a
//! `Durability` journal (WAL only, or rotating a snapshot every 1–12
//! items), crashes it at an arbitrary item, optionally damages the WAL,
//! resumes from disk and finishes the run. The finished run must match a
//! run that never crashed: the same `encode_snapshot` bytes of the final
//! scenario and serving placement, and the same summary. The histories mix
//! `SyntheticDrift` with deltas the scenario rejects and forced compactions.
//!
//! A crash lands either before the item reaches the WAL or after its
//! record is appended but before it is applied, as `--crash-after` does.
//! The WAL is then left as the crash left it, torn by 1–16 bytes, given
//! one flipped bit anywhere, or left untruncated: the records of the
//! previous snapshot window stay in front of the current ones, as after a
//! crash between a snapshot's rename and the WAL truncate. The resume must
//! consume exactly the snapshot's items plus the whole records before the
//! first damaged byte. Some cases crash the resumed run again, and the
//! second resume must recover every item the second run journaled, which
//! holds only if the first resume cut the damaged tail off before
//! appending.

use proptest::prelude::*;
use rap_stream::{
    prepare_resume, run_stream_with, Durability, DurabilityConfig, Journal, Maintainer,
    MaintainerConfig, ResumePoint, StreamConfig, StreamDelta, StreamError, StreamProgress,
    StreamSummary, SyntheticDrift,
};
use rap_vcps::graph::{Distance, GridGraph, NodeId};
use rap_vcps::placement::{
    encode_record, encode_snapshot, FlowDelta, FsyncPolicy, MutableScenario, Placement,
    UtilityKind, WalOp, WalStop,
};
use rap_vcps::traffic::{FlowSet, FlowSpec};
use std::sync::atomic::{AtomicU64, Ordering};

const SIDE: u32 = 5;

/// A 5×5 grid at 200 ft with three flows and the shop at the center.
fn base() -> MutableScenario {
    let grid = GridGraph::new(SIDE, SIDE, Distance::from_feet(200));
    let specs = [
        (0, 24, 900.0, 0.3),
        (4, 20, 500.0, 0.2),
        (10, 14, 700.0, 0.25),
    ]
    .iter()
    .map(|&(o, d, volume, alpha)| {
        FlowSpec::new(NodeId::new(o), NodeId::new(d), volume)
            .unwrap()
            .with_attractiveness(alpha)
            .unwrap()
    })
    .collect();
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
            check_interval: 4,
            threads: 1,
            ..MaintainerConfig::default()
        },
        metrics_interval: 0,
        strict: false,
    }
}

/// `len` drift deltas with rejects and forced compactions inserted. A
/// reject changes no state and a compaction keeps every stable id, so
/// the drift's ids stay live where it emits them.
fn history(seed: u64, len: usize, injected: &[(usize, u8)]) -> Vec<StreamDelta> {
    let m = base();
    let mut items: Vec<StreamDelta> = SyntheticDrift::new(
        SIDE * SIDE,
        m.live_stable_ids(),
        m.next_stable_id(),
        len,
        seed,
    )
    .collect();
    for &(at, kind) in injected {
        let item = match kind {
            0 => StreamDelta::Flow(FlowDelta::RemoveFlow { flow: 1 << 40 }),
            1 => StreamDelta::Flow(FlowDelta::AddFlow {
                origin: NodeId::new(7),
                destination: NodeId::new(7),
                volume: 300.0,
                alpha: 0.2,
            }),
            _ => StreamDelta::Compact,
        };
        items.insert(at % (items.len() + 1), item);
    }
    items
}

/// Where a run dies: while handling source item `at`, either before its
/// record reaches the WAL or right after it is appended.
#[derive(Clone, Copy, Debug)]
struct Crash {
    at: u64,
    after_append: bool,
}

fn crashed() -> StreamError {
    StreamError::Io(std::io::Error::other("simulated crash"))
}

/// The journal a run sees: forwards to the journal under test (none for
/// the reference run), dies at the scripted item, records each item's
/// canonical WAL frame, and keeps the placement the run finishes on.
struct Tap {
    inner: Option<Durability>,
    /// Source position of this run's first item.
    first: u64,
    crash: Option<Crash>,
    calls: u64,
    frames: Vec<Vec<u8>>,
    placement: Option<Placement>,
}

impl Tap {
    fn new(inner: Option<Durability>, first: u64, crash: Option<Crash>) -> Self {
        Tap {
            inner,
            first,
            crash,
            calls: 0,
            frames: Vec::new(),
            placement: None,
        }
    }
}

impl Journal for Tap {
    fn record(
        &mut self,
        scenario: &MutableScenario,
        delta: &StreamDelta,
    ) -> Result<(), StreamError> {
        let index = self.first + self.calls;
        self.calls += 1;
        let op = match delta {
            StreamDelta::Flow(d) => WalOp::Delta(*d),
            StreamDelta::Compact => WalOp::Compact,
        };
        self.frames
            .push(encode_record(scenario.epoch(), index, &op));
        let crash = self.crash.filter(|c| c.at == index);
        if crash.is_some_and(|c| !c.after_append) {
            return Err(crashed());
        }
        if let Some(inner) = &mut self.inner {
            inner.record(scenario, delta)?;
        }
        match crash {
            Some(_) => Err(crashed()),
            None => Ok(()),
        }
    }

    fn committed(
        &mut self,
        scenario: &MutableScenario,
        maintainer: &Maintainer,
        progress: &StreamProgress,
    ) -> Result<(), StreamError> {
        match &mut self.inner {
            Some(inner) => inner.committed(scenario, maintainer, progress),
            None => Ok(()),
        }
    }

    fn finish(
        &mut self,
        scenario: &MutableScenario,
        maintainer: &Maintainer,
        progress: &StreamProgress,
    ) -> Result<(), StreamError> {
        self.placement = Some(maintainer.placement().clone());
        match &mut self.inner {
            Some(inner) => inner.finish(scenario, maintainer, progress),
            None => Ok(()),
        }
    }
}

/// What a finished run must reproduce: the final scenario and serving
/// placement as snapshot bytes, and every deterministic summary field.
#[derive(Debug, PartialEq)]
struct Outcome {
    snapshot: Vec<u8>,
    summary: [u64; 10],
}

fn outcome(scenario: &MutableScenario, tap: &Tap, s: &StreamSummary) -> Outcome {
    Outcome {
        snapshot: encode_snapshot(scenario, tap.placement.as_ref(), 0, &[]).unwrap(),
        summary: [
            s.final_epoch,
            s.final_objective.to_bits(),
            s.deltas_applied,
            s.deltas_rejected,
            s.checks,
            s.repairs,
            s.resolves,
            s.forced_compactions,
            s.compactions,
            s.live_flows,
        ],
    }
}

/// A resumed run: how far the journal reached, the dropped WAL tail, and
/// the outcome once the run finished (`None` if it crashed again).
struct Resumed {
    consumed: u64,
    wal_stop: Option<WalStop>,
    outcome: Option<Outcome>,
}

/// Resumes from disk through `prepare_resume` and runs the rest of
/// `items`, dying at `crash` if it comes.
fn resume(cfg: &DurabilityConfig, items: &[StreamDelta], crash: Option<Crash>) -> Resumed {
    let (mut scenario, state, replay, consumed, durability, wal_stop) =
        match prepare_resume(cfg.clone(), 1).expect("the journal resumes") {
            ResumePoint::Snapshot(setup) => {
                let s = *setup;
                (
                    s.scenario,
                    Some(s.resume),
                    s.replay,
                    s.consumed,
                    s.durability,
                    s.wal_stop,
                )
            }
            ResumePoint::WalOnly(setup) => {
                let s = *setup;
                (base(), None, s.replay, s.consumed, s.durability, s.wal_stop)
            }
            ResumePoint::Fresh => panic!("a crashed run leaves its journal on disk"),
        };
    let first = consumed - replay.len() as u64;
    let rest = replay
        .into_iter()
        .chain(items[consumed as usize..].iter().copied())
        .map(Ok);
    let mut tap = Tap::new(Some(durability), first, crash);
    let result = run_stream_with(
        &mut scenario,
        &config(),
        rest,
        &mut std::io::sink(),
        &mut tap,
        state,
    );
    let outcome = match result {
        Ok(summary) => Some(outcome(&scenario, &tap, &summary)),
        Err(StreamError::Io(e)) if e.to_string() == "simulated crash" => None,
        Err(e) => panic!("resumed run failed: {e}"),
    };
    Resumed {
        consumed,
        wal_stop,
        outcome,
    }
}

/// What happens to the WAL between the crash and the resume.
#[derive(Clone, Copy, Debug)]
enum Damage {
    None,
    /// The last `n` bytes are gone.
    Torn(usize),
    /// One bit of one byte (both taken modulo the log) is flipped.
    Flip(usize, u8),
    /// The previous snapshot window's records are still in front.
    Untruncated,
}

static CASE: AtomicU64 = AtomicU64::new(0);

fn journal_config(every: u64) -> DurabilityConfig {
    let tag = format!(
        "rap_stream_recovery_{}_{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    );
    let dir = std::env::temp_dir();
    let mut cfg = DurabilityConfig::wal_only(dir.join(format!("{tag}.wal")));
    if every > 0 {
        cfg = cfg.with_snapshot(dir.join(format!("{tag}.snap")), every);
    }
    cfg.fsync = FsyncPolicy::Never;
    cfg
}

/// Removes a case's journal files even when an assertion fails.
struct Cleanup(DurabilityConfig);

impl Drop for Cleanup {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0.wal);
        if let Some(snap) = &self.0.snapshot {
            let _ = std::fs::remove_file(snap);
            let _ = std::fs::remove_file(snap.with_extension("tmp"));
        }
    }
}

/// Damages the log, whose records are `frames` in log order. Returns how
/// many stay whole before the first damaged byte, and whether any damaged
/// bytes follow them.
fn apply_damage(
    cfg: &DurabilityConfig,
    damage: Damage,
    frames: &[Vec<u8>],
    covered: &[Vec<u8>],
) -> (usize, bool) {
    let mut log = std::fs::read(&cfg.wal).unwrap();
    let whole_before = |cut: usize| {
        frames
            .iter()
            .scan(0, |end, f| {
                *end += f.len();
                Some(*end)
            })
            .take_while(|&end| end <= cut)
            .count()
    };
    let (intact, damaged) = match damage {
        Damage::None => (frames.len(), false),
        Damage::Torn(n) => {
            log.truncate(log.len().saturating_sub(n));
            let intact = whole_before(log.len());
            (intact, intact < frames.len() && !log.is_empty())
        }
        Damage::Flip(at, bit) if !log.is_empty() => {
            let at = at % log.len();
            log[at] ^= 1 << bit;
            (whole_before(at), true)
        }
        Damage::Flip(..) => (0, false),
        Damage::Untruncated => {
            log = covered.concat().into_iter().chain(log).collect();
            (frames.len(), false)
        }
    };
    std::fs::write(&cfg.wal, &log).unwrap();
    (intact, damaged)
}

fn crash_damage_resume(
    items: &[StreamDelta],
    every: u64,
    crash: Crash,
    damage: Damage,
    second: Option<(usize, bool)>,
) {
    // The run that never crashed, and each item's canonical WAL frame.
    let mut reference = base();
    let mut tap = Tap::new(None, 0, None);
    let summary = run_stream_with(
        &mut reference,
        &config(),
        items.iter().copied().map(Ok),
        &mut std::io::sink(),
        &mut tap,
        None,
    )
    .unwrap();
    let want = outcome(&reference, &tap, &summary);
    let frames = tap.frames;

    // The crashed run.
    let cfg = journal_config(every);
    let _cleanup = Cleanup(cfg.clone());
    let mut scenario = base();
    let mut tap = Tap::new(
        Some(Durability::start(cfg.clone()).unwrap()),
        0,
        Some(crash),
    );
    let err = run_stream_with(
        &mut scenario,
        &config(),
        items.iter().copied().map(Ok),
        &mut std::io::sink(),
        &mut tap,
        None,
    )
    .unwrap_err();
    assert!(matches!(err, StreamError::Io(_)), "{err}");
    drop(tap);

    // Rotations follow every `every` committed items; the WAL holds the
    // records since the last one, the crashed item's if it was appended.
    let at = crash.at as usize;
    let position = match every as usize {
        0 => 0,
        every => at / every * every,
    };
    let logged = &frames[position..at + usize::from(crash.after_append)];
    assert_eq!(
        std::fs::read(&cfg.wal).unwrap(),
        logged.concat(),
        "the WAL holds the records since the last rotation"
    );
    let covered = &frames[position.saturating_sub(every as usize)..position];
    let (intact, damaged) = apply_damage(&cfg, damage, logged, covered);

    let consumed = position + intact;
    let second_crash = second.and_then(|(offset, after_append)| {
        (consumed < items.len()).then(|| Crash {
            at: (consumed + offset % (items.len() - consumed)) as u64,
            after_append,
        })
    });
    let first = resume(&cfg, items, second_crash);
    assert_eq!(
        first.consumed as usize, consumed,
        "the resume consumes the snapshot's items and the whole records before the damage"
    );
    let intact_bytes = logged[..intact].iter().map(Vec::len).sum::<usize>() as u64;
    assert_eq!(
        first.wal_stop.map(|stop| stop.offset),
        damaged.then_some(intact_bytes),
        "the resume reports where the damaged tail it dropped starts"
    );

    let outcome = match (first.outcome, second_crash) {
        (Some(outcome), None) => outcome,
        (None, Some(crash)) => {
            // The first resume cut the damaged tail off before appending,
            // so every item the second run journaled is recovered.
            let again = resume(&cfg, items, None);
            assert_eq!(again.wal_stop, None);
            assert_eq!(
                again.consumed,
                crash.at + u64::from(crash.after_append),
                "the second resume lost journaled items"
            );
            again.outcome.expect("the second resume finishes")
        }
        (outcome, crash) => panic!("crash {crash:?} but outcome {:?}", outcome.is_some()),
    };
    assert_eq!(outcome, want, "the resumed run diverged from the clean run");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn resume_after_any_crash_matches_the_run_that_never_crashed(
        seed in 0u64..1_000_000,
        len in 8usize..48,
        injected in proptest::collection::vec((0usize..1_000, 0u8..3), 0..6),
        (rotate, every) in (0u8..3, 1u64..13),
        (crash_at, after_append) in (0usize..1_000, 0u8..2),
        (damage, torn, flip_at, flip_bit) in (0u8..4, 1usize..17, 0usize..4_096, 0u8..8),
        (again, again_at, again_after_append) in (0u8..2, 0usize..1_000, 0u8..2),
    ) {
        let items = history(seed, len, &injected);
        // One journal in three is WAL-only; the rest rotate every 1-12.
        let every = if rotate == 0 { 0 } else { every };
        let crash = Crash {
            at: (crash_at % items.len()) as u64,
            after_append: after_append == 1,
        };
        let damage = match damage {
            0 => Damage::None,
            1 => Damage::Torn(torn),
            2 => Damage::Flip(flip_at, flip_bit),
            _ => Damage::Untruncated,
        };
        let second = (again == 1).then_some((again_at, again_after_append == 1));
        crash_damage_resume(&items, every, crash, damage, second);
    }
}
