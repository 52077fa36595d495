//! # rap-stream
//!
//! Streaming traffic subsystem: the long-running counterpart to the one-shot
//! solver. The paper optimizes RAP placement against a static daily traffic
//! matrix; this crate keeps a placement current while the traffic *drifts* —
//! flows appearing, retiring, rescaling, and changing price sensitivity —
//! without rebuilding the scenario or re-running the full greedy for every
//! change.
//!
//! Three layers:
//!
//! 1. **Delta protocol** ([`delta`]) — a newline-delimited JSON wire format
//!    for [`rap_core::FlowDelta`] plus a `compact` control op, shared by the
//!    CLI daemon, the experiment harness, and the benches.
//! 2. **Delta sources** ([`source`]) — an NDJSON reader for files/stdin, a
//!    seeded synthetic drift generator, and a trace-replay source built on
//!    [`rap_trace`] city models.
//! 3. **Online maintenance** ([`maintain`]) + **serving loop** ([`service`])
//!    — applies deltas to a [`rap_core::MutableScenario`], watches a
//!    staleness metric (certified fraction of the cheap singleton upper
//!    bound from `rap_core::bounds`), repairs the placement with swap local
//!    search when it drifts past a threshold, and escalates to a full CELF
//!    re-greedy when swaps stall. Events out
//!    ([`events`]) are NDJSON too, so the daemon's output is scriptable.
//! 4. **Durability** ([`persist`]) — a write-ahead log for every source
//!    item plus periodic checksummed snapshots (`rap_core::snapshot`),
//!    rotated atomically; after a crash, [`prepare_resume`] — the one
//!    recovery path — restores the scenario, maintainer, and counters and
//!    replays the WAL suffix through the full pipeline, reproducing the
//!    uninterrupted trajectory bit-identically.
//!
//! Everything is deterministic under a seed: the synthetic source, the
//! maintainer's escalation engine, and the maintenance policy itself contain
//! no wall-clock-dependent decisions (timing appears only in metrics).

pub mod delta;
pub mod events;
pub mod maintain;
pub mod persist;
pub mod service;
pub mod source;

pub use delta::{StreamDelta, StreamError};
pub use events::{MetricsEvent, PlacementEvent, RejectEvent};
pub use maintain::{
    MaintainAction, Maintainer, MaintainerConfig, MaintainerState, MaintainerStats,
};
pub use persist::{
    decode_resume_extra, encode_resume_extra, prepare_resume, Durability, DurabilityConfig,
    ResumePoint, ResumeSetup, WalReplaySetup,
};
pub use service::{
    run_stream, run_stream_with, Journal, NoJournal, ResumeState, StreamConfig, StreamProgress,
    StreamSummary,
};
pub use source::{read_ndjson, SyntheticDrift, TraceReplay};
