//! # rap-core
//!
//! The paper's primary contribution: RAP (Roadside Access Point) placement
//! algorithms for roadside advertisement dissemination in vehicular
//! cyber-physical systems (Zheng & Wu, ICDCS 2015, Sections III and V).
//!
//! Given a road graph, a set of routed traffic flows, one or more shop
//! locations, and a non-increasing utility function `f(d)` mapping detour
//! distance to detour probability, choose `k` intersections for RAPs to
//! maximize the expected number of customers attracted to the shop:
//!
//! ```text
//! maximize  w(P) = Σ_flows  f(min detour over RAPs in P) · volume
//! ```
//!
//! ## Algorithms
//!
//! | Type | Paper | Guarantee |
//! |---|---|---|
//! | [`GreedyCoverage`] | Algorithm 1 | `1 − 1/e` (threshold utility); a lazy queue of stale uncovered gains, the eager scan's bits |
//! | [`CompositeGreedy`] | Algorithm 2 | `1 − 1/√e` (any non-increasing utility); two lazy queues, the eager scan's bits |
//! | [`MarginalGreedy`] | Sec. III-C naive greedy | none (ablation) |
//! | [`LazyGreedy`] | — (CELF extension) | identical output to `MarginalGreedy`; its loop is the resumable [`CelfRun`] |
//! | [`InvertedGainEngine`] | — (inverted-index delta propagation; benchmark only, no production path runs it) | identical output to `MarginalGreedy` |
//! | [`MaxCardinality`], [`MaxVehicles`], [`MaxCustomers`], [`Random`] | Sec. V-B baselines | none |
//! | [`ExhaustiveOptimal`] | — | exact (small instances) |
//!
//! ## Quickstart
//!
//! ```
//! use rap_graph::{GridGraph, Distance, NodeId};
//! use rap_traffic::{FlowSpec, FlowSet};
//! use rap_core::{Scenario, UtilityKind, CompositeGreedy, PlacementAlgorithm};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let grid = GridGraph::new(5, 5, Distance::from_feet(500));
//! let flows = FlowSet::route(
//!     grid.graph(),
//!     vec![
//!         FlowSpec::new(NodeId::new(0), NodeId::new(24), 900.0)?,
//!         FlowSpec::new(NodeId::new(4), NodeId::new(20), 400.0)?,
//!     ],
//! )?;
//! let scenario = Scenario::single_shop(
//!     grid.graph().clone(),
//!     flows,
//!     grid.center(),
//!     UtilityKind::Linear.instantiate(Distance::from_feet(2_000)),
//! )?;
//! let mut rng = StdRng::seed_from_u64(7);
//! let placement = CompositeGreedy.place(&scenario, 3, &mut rng);
//! println!("attracts {:.3} customers/day", scenario.evaluate(&placement));
//! # Ok(())
//! # }
//! ```

pub mod algorithms;
pub mod baselines;
pub mod bounds;
pub mod budgeted;
pub mod composite;
pub mod construction;
pub mod detour;
pub mod error;
pub mod exhaustive;
pub mod faults;
pub mod fixtures;
pub mod greedy;
pub mod inverted;
pub mod kernel;
pub mod lazy;
pub mod local_search;
pub mod metrics;
pub mod mutable;
pub mod placement;
pub mod robustness;
pub mod scenario;
pub mod scheduling;
pub mod snapshot;
pub mod utility;
pub mod wal;

pub use algorithms::PlacementAlgorithm;
pub use baselines::{MaxCardinality, MaxCustomers, MaxVehicles, Random};
pub use bounds::{certified_fraction, greedy_upper_bound, singleton_upper_bound, upper_bound};
pub use budgeted::{BudgetedGreedy, SiteCosts};
pub use composite::{CompositeGreedy, MarginalGreedy};
pub use construction::{
    build_mutable_scenario, build_scenario, BuildMode, BuildOptions, BuildReport,
};
pub use detour::{DetourTable, FlowDetour};
pub use error::PlacementError;
pub use exhaustive::ExhaustiveOptimal;
pub use faults::{DiskFault, DiskFaultEvent, FaultPlan};
pub use greedy::GreedyCoverage;
pub use inverted::{EngineReport, InvertedGainEngine, InvertedIndex};
pub use lazy::{CelfRun, LazyGreedy};
pub use local_search::{GreedyWithSwaps, SwapSearch};
pub use metrics::{LatencyHistogram, PlacementReport};
pub use mutable::{DeltaError, DeltaOutcome, FlowDelta, MutableScenario};
pub use placement::Placement;
pub use robustness::{
    correlated_evaluate, failure_aware_evaluate, simulate_correlated_outages, simulate_outages,
    CorrelatedFailureGreedy, CorrelatedFailureModel, FailureAwareGreedy, OutageSimulation,
    RegionMap,
};
pub use scenario::Scenario;
pub use scheduling::{AdCampaign, Schedule, ScheduleGreedy};
pub use snapshot::{
    decode_serving_snapshot, decode_snapshot, decode_snapshot_with_threads, encode_snapshot,
    read_snapshot_file, snapshot_crc32, verify_snapshot, write_snapshot_atomic, SectionInfo,
    ServingSnapshot, SnapshotContents, SnapshotError, SnapshotInfo,
};
pub use utility::{LinearUtility, SqrtUtility, ThresholdUtility, UtilityFunction, UtilityKind};
pub use wal::{
    encode_record, read_wal, FsyncPolicy, WalOp, WalRecord, WalScan, WalStop, WalStopReason,
    WalWriter, MAX_RECORD_LEN,
};
