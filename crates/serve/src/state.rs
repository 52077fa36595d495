//! Epoch-swapped serving state.
//!
//! The server holds one [`ServeState`]; every request clones an
//! `Arc<EpochState>` out of it and works against that immutable view for
//! the request's whole lifetime. `/reload` builds a complete replacement
//! epoch *outside* the lock (file read and decode — the expensive part),
//! then swaps the `Arc` in one short write-lock critical section.
//! In-flight requests keep their old epoch alive through their own `Arc`
//! until they finish; a corrupt replacement snapshot is rejected by the
//! decoder's checksums and the old epoch keeps serving untouched.

use crate::ServeError;
use rap_core::{
    decode_snapshot_with_threads, read_snapshot_file, snapshot_crc32, FaultPlan, MutableScenario,
    Placement, Scenario,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

/// One immutable serving generation. Everything a request needs lives
/// here, so a request observes exactly one epoch end to end. `/topk` runs
/// CELF straight on `scenario`, so an epoch carries no derived index.
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
}

impl EpochState {
    fn build(
        mut scenario: MutableScenario,
        placement: Option<Placement>,
        snapshot_crc: u32,
        epoch: u64,
    ) -> Self {
        let scenario_epoch = scenario.epoch();
        let live_flows = scenario.live_flows() as u64;
        EpochState {
            epoch,
            scenario: scenario.snapshot(),
            placement,
            snapshot_crc,
            scenario_epoch,
            live_flows,
        }
    }
}

/// Shared, reloadable serving state (see module docs for the lifecycle).
pub struct ServeState {
    current: RwLock<Arc<EpochState>>,
    /// Serializes reloads so concurrent `/reload`s cannot interleave their
    /// read-decode-swap sequences (readers are never blocked by this).
    reload_gate: Mutex<()>,
    snapshot_path: Option<PathBuf>,
    /// Threads a reload decodes the snapshot with.
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
    /// path. `threads` decodes the snapshot, here and on every reload.
    ///
    /// # Errors
    ///
    /// I/O failures and every flavor of snapshot corruption, as
    /// [`ServeError`].
    pub fn from_snapshot_file(path: &Path, threads: usize) -> Result<Self, ServeError> {
        let bytes = read_snapshot_file(path, &FaultPlan::none())?;
        let crc = snapshot_crc32(&bytes);
        let contents = decode_snapshot_with_threads(&bytes, threads.max(1))?;
        let epoch = EpochState::build(contents.scenario, contents.placement, crc, 1);
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
        let epoch = EpochState::build(scenario, placement, 0, 1);
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

    /// Re-reads the snapshot file and swaps in a new epoch, returning
    /// `(previous_epoch, new_epoch)`.
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
    pub fn reload(&self) -> Result<(u64, u64), ServeError> {
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
        let outcome = (|| {
            let bytes = read_snapshot_file(path, &FaultPlan::none())?;
            let crc = snapshot_crc32(&bytes);
            let contents = decode_snapshot_with_threads(&bytes, self.threads)?;
            Ok::<_, ServeError>((contents, crc))
        })();
        match outcome {
            Ok((contents, crc)) => {
                let previous = self.current().epoch;
                let next =
                    EpochState::build(contents.scenario, contents.placement, crc, previous + 1);
                *self.current.write().unwrap_or_else(PoisonError::into_inner) = Arc::new(next);
                self.reloads_ok.fetch_add(1, Ordering::Relaxed);
                Ok((previous, previous + 1))
            }
            Err(e) => {
                self.reloads_failed.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }
}
