//! Epoch-swapped serving state.
//!
//! The server holds one [`ServeState`]; every request clones an
//! `Arc<EpochState>` out of it and works against that immutable view for
//! the request's whole lifetime. Start-up and `/reload` load an epoch the
//! same way: one file read, then [`decode_serving_snapshot`], which turns
//! the bytes straight into the immutable [`Scenario`] and folds the file's
//! CRC from the section checksums it verifies. No `MutableScenario` is
//! built; only a live-attached state ([`ServeState::from_scenario`])
//! materializes one. `/reload` builds the replacement epoch *outside* the
//! lock, then swaps the `Arc` in one short write-lock critical section.
//! In-flight requests keep their old epoch alive through their own `Arc`
//! until they finish; a corrupt or invalid replacement snapshot is
//! rejected by the decoder and the old epoch keeps serving untouched.
//!
//! `/topk` answers from one resumable CELF run per epoch
//! ([`EpochState::topk`]): the greedy is nested in its budget, so every
//! answer is a prefix of that run, and only a request for a longer prefix
//! than any before it does greedy work.

use crate::ServeError;
use rap_core::{
    decode_serving_snapshot, read_snapshot_file, CelfRun, FaultPlan, MutableScenario, Placement,
    Scenario,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

/// One serving generation. Everything a request needs lives here, so a
/// request observes exactly one epoch end to end. The scenario is
/// immutable; the only state that grows is the epoch's CELF run, which
/// `/topk` advances and every answer reads a prefix of.
#[derive(Debug)]
pub struct EpochState {
    /// Serving generation, starting at 1 and bumped by every successful
    /// reload. Distinct from the scenario's own delta epoch.
    pub epoch: u64,
    /// The scenario this epoch serves.
    pub scenario: Arc<Scenario>,
    /// Placement recorded in the snapshot, if any (`GET /placement`).
    pub placement: Option<Placement>,
    /// CRC32 of the snapshot bytes this epoch was loaded from (0 for
    /// live-attached scenarios).
    pub snapshot_crc: u32,
    /// The scenario's internal delta epoch (diagnostic).
    pub scenario_epoch: u64,
    /// Live flow count (diagnostic).
    pub live_flows: u64,
    /// The resumable CELF run `/topk` answers from, created by the epoch's
    /// first `/topk` and dropped with the epoch.
    topk_run: Mutex<Option<CelfRun<Arc<Scenario>>>>,
}

/// One `/topk` answer: a prefix of the epoch's CELF run.
#[derive(Clone, Debug, PartialEq)]
pub struct TopkAnswer {
    /// The first `k` RAPs of the epoch's greedy order (fewer once no
    /// positive gain is left).
    pub placement: Placement,
    /// Gain evaluations a fresh CELF run to `k` makes, which is what
    /// reaching `k` cost the epoch's run.
    pub gain_evals: u64,
    /// Whether this request committed at least one RAP to the run.
    pub extended: bool,
}

impl EpochState {
    /// Epoch `epoch` over a live-attached scenario.
    fn build(mut scenario: MutableScenario, placement: Option<Placement>, epoch: u64) -> Self {
        EpochState {
            epoch,
            scenario: scenario.snapshot(),
            placement,
            snapshot_crc: 0,
            scenario_epoch: scenario.epoch(),
            live_flows: scenario.live_flows() as u64,
            topk_run: Mutex::new(None),
        }
    }

    /// Epoch `epoch` read from the snapshot file at `path`: the one load
    /// path of start-up and `/reload`.
    fn load(path: &Path, threads: usize, epoch: u64) -> Result<Self, ServeError> {
        let bytes = read_snapshot_file(path, &FaultPlan::none())?;
        let served = decode_serving_snapshot(&bytes, threads)?;
        Ok(EpochState {
            epoch,
            scenario: Arc::new(served.scenario),
            placement: served.placement,
            snapshot_crc: served.file_crc32,
            scenario_epoch: served.scenario_epoch,
            live_flows: served.live_flows as u64,
            topk_run: Mutex::new(None),
        })
    }

    /// The first `k` RAPs of this epoch's CELF run, advancing the run as
    /// far as `k` needs: bit-identical to a fresh
    /// [`LazyGreedy::place_with_stats`](rap_core::LazyGreedy::place_with_stats)`(k)`
    /// on [`EpochState::scenario`].
    ///
    /// The lock is taken once per committed RAP, so a request whose prefix
    /// already exists never waits behind another request's long extension.
    pub fn topk(&self, k: usize) -> TopkAnswer {
        let mut extended = false;
        loop {
            let mut slot = self.lock_topk_run();
            let run = slot.get_or_insert_with(|| CelfRun::new(Arc::clone(&self.scenario)));
            if let Some((raps, gain_evals)) = run.answer(k) {
                return TopkAnswer {
                    placement: Placement::new(raps.to_vec()),
                    gain_evals,
                    extended,
                };
            }
            extended |= run.step();
        }
    }

    /// Locks the CELF run. A panic mid-step can leave its heap and prefix
    /// out of step, so a poisoned lock discards the run; the next access
    /// starts a fresh one.
    fn lock_topk_run(&self) -> MutexGuard<'_, Option<CelfRun<Arc<Scenario>>>> {
        self.topk_run.lock().unwrap_or_else(|poisoned| {
            self.topk_run.clear_poison();
            let mut slot = poisoned.into_inner();
            *slot = None;
            slot
        })
    }
}

/// Shared, reloadable serving state (see module docs for the lifecycle).
pub struct ServeState {
    current: RwLock<Arc<EpochState>>,
    /// Serializes reloads so concurrent `/reload`s cannot interleave their
    /// read-decode-swap sequences (readers are never blocked by this).
    reload_gate: Mutex<()>,
    snapshot_path: Option<PathBuf>,
    /// Threads a reload's decode fans its per-shop Dijkstra runs across.
    threads: usize,
    reloads_ok: AtomicU64,
    reloads_failed: AtomicU64,
}

impl std::fmt::Debug for ServeState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeState")
            .field("epoch", &self.current().epoch)
            .field("snapshot_path", &self.snapshot_path)
            .finish_non_exhaustive()
    }
}

impl ServeState {
    /// Loads epoch 1 from a snapshot file; `/reload` re-reads the same
    /// path. `threads` fans out the decode's per-shop Dijkstra runs, here
    /// and on every reload.
    ///
    /// # Errors
    ///
    /// I/O failures and every flavor of snapshot corruption, as
    /// [`ServeError`].
    pub fn from_snapshot_file(path: &Path, threads: usize) -> Result<Self, ServeError> {
        let epoch = EpochState::load(path, threads.max(1), 1)?;
        Ok(ServeState {
            current: RwLock::new(Arc::new(epoch)),
            reload_gate: Mutex::new(()),
            snapshot_path: Some(path.to_path_buf()),
            threads: threads.max(1),
            reloads_ok: AtomicU64::new(0),
            reloads_failed: AtomicU64::new(0),
        })
    }

    /// Attaches live to an in-process scenario (the `rap-stream`
    /// maintainer hand-off, also the test/bench path). `/reload` on such a
    /// state fails with [`ServeError::NoSnapshotPath`].
    pub fn from_scenario(scenario: MutableScenario, placement: Option<Placement>) -> Self {
        let epoch = EpochState::build(scenario, placement, 1);
        ServeState {
            current: RwLock::new(Arc::new(epoch)),
            reload_gate: Mutex::new(()),
            snapshot_path: None,
            threads: 1,
            reloads_ok: AtomicU64::new(0),
            reloads_failed: AtomicU64::new(0),
        }
    }

    /// The current epoch. Requests call this once and hold the `Arc` for
    /// their whole lifetime.
    pub fn current(&self) -> Arc<EpochState> {
        Arc::clone(&self.current.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Path reloads re-read, if this state is file-backed.
    pub fn snapshot_path(&self) -> Option<&Path> {
        self.snapshot_path.as_deref()
    }

    /// Successful reload count.
    pub fn reloads_ok(&self) -> u64 {
        self.reloads_ok.load(Ordering::Relaxed)
    }

    /// Failed (rejected) reload count.
    pub fn reloads_failed(&self) -> u64 {
        self.reloads_failed.load(Ordering::Relaxed)
    }

    /// Re-reads the snapshot file and swaps in a new epoch, returning the
    /// epoch it installed, whose number is one past the previous epoch's.
    /// The returned `Arc` is this reload's epoch even if another reload
    /// has replaced it by the time the caller reads it.
    ///
    /// All heavy work happens before the swap; the write lock is held only
    /// for the pointer exchange, so in-flight readers are never blocked
    /// behind a decode.
    ///
    /// # Errors
    ///
    /// [`ServeError::NoSnapshotPath`] for live-attached states; otherwise
    /// I/O or corruption errors, in which case the current epoch is left
    /// untouched and keeps serving.
    pub fn reload(&self) -> Result<Arc<EpochState>, ServeError> {
        let path = self
            .snapshot_path
            .as_deref()
            .ok_or(ServeError::NoSnapshotPath)?;
        // A panic while holding either lock leaves its data intact (the
        // gate guards nothing, the epoch slot is swapped in one store), so
        // a poisoned guard is recovered rather than propagated.
        let _gate = self
            .reload_gate
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let next = self.current().epoch + 1;
        match EpochState::load(path, self.threads, next) {
            Ok(epoch) => {
                let installed = Arc::new(epoch);
                *self.current.write().unwrap_or_else(PoisonError::into_inner) =
                    Arc::clone(&installed);
                self.reloads_ok.fetch_add(1, Ordering::Relaxed);
                Ok(installed)
            }
            Err(e) => {
                self.reloads_failed.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rap_core::fixtures::small_grid_scenario;
    use rap_core::{LazyGreedy, UtilityKind};
    use rap_graph::Distance;

    fn epoch() -> EpochState {
        let threshold = Distance::from_feet(400);
        let s = small_grid_scenario(UtilityKind::Linear, threshold);
        let scenario = MutableScenario::new(
            s.graph().clone(),
            s.flows().clone(),
            s.shops().to_vec(),
            UtilityKind::Linear.instantiate(threshold),
        )
        .unwrap();
        EpochState::build(scenario, None, 1)
    }

    fn fresh(epoch: &EpochState, k: usize) -> (Placement, u64) {
        LazyGreedy.place_with_stats(&epoch.scenario, k)
    }

    #[test]
    fn answers_are_prefixes_of_one_run() {
        let epoch = epoch();
        assert!(epoch.topk_run.lock().unwrap().is_none(), "built lazily");
        let all = epoch.scenario.candidates().len();
        for (k, extends) in [(4, true), (2, false), (4, false), (0, false), (5, true)] {
            let answer = epoch.topk(k);
            assert_eq!((answer.placement, answer.gain_evals), fresh(&epoch, k));
            assert_eq!(answer.extended, extends, "k = {k}");
        }
        let exhausted = epoch.topk(all);
        assert_eq!(
            (exhausted.placement, exhausted.gain_evals),
            fresh(&epoch, all)
        );
    }

    #[test]
    fn a_poisoned_run_is_discarded_and_rebuilt() {
        let epoch = Arc::new(epoch());
        assert!(epoch.topk(3).extended);
        let holder = Arc::clone(&epoch);
        let panicked = std::thread::spawn(move || {
            let _run = holder.topk_run.lock().unwrap();
            panic!("handler died holding the run");
        })
        .join();
        assert!(panicked.is_err() && epoch.topk_run.is_poisoned());

        // The prefix of length 2 existed, but the run went with the poison.
        let answer = epoch.topk(2);
        assert!(answer.extended, "a fresh run had to commit again");
        assert!(!epoch.topk_run.is_poisoned());
        assert_eq!((answer.placement, answer.gain_evals), fresh(&epoch, 2));
        assert!(!epoch.topk(1).extended);
    }
}
