//! # rap-traffic
//!
//! Traffic-flow substrate for the roadside-advertisement dissemination system.
//!
//! The paper models demand as a set of *traffic flows* `T_{i,j}`: a daily
//! volume of potential customers driving from intersection `i` to
//! intersection `j` along a fixed shortest path (Section III-A). This crate
//! provides:
//!
//! * [`FlowSpec`] / [`TrafficFlow`] — unrouted demand and its routed form;
//! * [`FlowSet`] — a routed collection with a per-intersection index of
//!   *first visits* (the visit that matters under Theorem 1), the data
//!   structure every placement algorithm iterates over;
//! * [`demand`] — origin–destination demand generators (uniform, commuter,
//!   gravity) standing in for the paper's trace-derived flows;
//! * [`zones`] — classification of intersections into city-center / city /
//!   suburb by passing traffic mass, mirroring the paper's shop-location
//!   experiment dimension;
//! * [`stats`] — summary statistics used by the experiment harness.
//!
//! ## Quickstart
//!
//! ```
//! use rap_graph::{GridGraph, Distance, NodeId};
//! use rap_traffic::{FlowSpec, FlowSet};
//!
//! # fn main() -> Result<(), rap_traffic::TrafficError> {
//! let grid = GridGraph::new(3, 3, Distance::from_feet(100));
//! let specs = vec![FlowSpec::new(NodeId::new(0), NodeId::new(8), 120.0)?];
//! let flows = FlowSet::route(grid.graph(), specs)?;
//! assert_eq!(flows.len(), 1);
//! # Ok(())
//! # }
//! ```

pub mod demand;
pub mod error;
pub mod flow;
pub mod flow_set;
pub mod matrix;
pub mod parallel;
pub mod plan;
pub mod stats;
pub mod temporal;
pub mod zones;

pub use error::TrafficError;
pub use flow::{FlowId, FlowSpec, TrafficFlow};
pub use flow_set::{FlowSet, FlowVisit, RouteOptions};
pub use matrix::OdMatrix;
pub use plan::RoutePlan;
pub use temporal::TimeProfile;
pub use zones::{Zone, ZoneMap};
