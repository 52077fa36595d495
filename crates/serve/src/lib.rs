//! # rap-serve
//!
//! A threaded HTTP/1.1 serving layer over epoch-swapped scenario
//! snapshots: the online query path for RAP placements (the deployment
//! shape the paper's RSU-dissemination setting implies).
//!
//! No async runtime and no external HTTP crate — a hand-rolled request
//! parser ([`http`]) over `std::net::TcpListener`, served by a worker
//! pool ([`server`]) that respawns a panicked worker against a bounded
//! budget. State lives in an epoch-swapped
//! `Arc<Scenario>` ([`state`]): requests pin one immutable epoch for
//! their whole lifetime, `POST /reload` re-reads the `RAPSNAP1` snapshot,
//! decodes it straight to the serving scenario and swaps epochs in a
//! pointer-sized critical section, and a corrupt or invalid replacement
//! is rejected by the decoder while the old epoch keeps serving.
//!
//! | Endpoint | Method | Purpose |
//! |---|---|---|
//! | `/healthz` | GET | liveness + current epoch |
//! | `/metrics` | GET | counters, p50/p99 latencies, epoch, snapshot CRC |
//! | `/placement` | GET | placement recorded in the snapshot (if any) |
//! | `/evaluate` | POST | score an arbitrary placement `{"raps": [..]}` |
//! | `/topk` | POST | `{"k": n}`: a prefix of the epoch's one resumable CELF run |
//! | `/reload` | POST | atomic snapshot re-read + epoch bump |
//!
//! ```no_run
//! use rap_serve::{serve, ServeState, ServerConfig};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let state = Arc::new(ServeState::from_snapshot_file(
//!     std::path::Path::new("scenario.snap"),
//!     2,
//! )?);
//! let handle = serve(state, "127.0.0.1:7878", ServerConfig::default())?;
//! println!("serving on {}", handle.addr());
//! # Ok(())
//! # }
//! ```

pub mod client;
pub mod http;
pub mod server;
pub mod signals;
pub mod state;

pub use client::{Client, ClientError, ClientResponse};
pub use http::{HttpError, Method, Request, MAX_BODY_BYTES, MAX_HEADER_BYTES};
pub use server::{serve, ServerConfig, ServerHandle, ServerMetrics};
pub use state::{EpochState, ServeState, TopkAnswer};

use std::fmt;

/// Serving-layer failures.
#[derive(Debug)]
pub enum ServeError {
    /// Filesystem failure reading the snapshot.
    Io(std::io::Error),
    /// The snapshot failed checksum or structural validation.
    Snapshot(rap_core::SnapshotError),
    /// `/reload` on a live-attached state with no backing file.
    NoSnapshotPath,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "snapshot i/o: {e}"),
            ServeError::Snapshot(e) => write!(f, "snapshot rejected: {e}"),
            ServeError::NoSnapshotPath => {
                write!(f, "state is live-attached; no snapshot file to reload")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<rap_core::SnapshotError> for ServeError {
    fn from(e: rap_core::SnapshotError) -> Self {
        ServeError::Snapshot(e)
    }
}
