//! # rap-trace
//!
//! Synthetic bus-trace tooling: the substrate standing in for the Dublin \[19\]
//! and Seattle \[20\] datasets of the paper's evaluation (Section V-A).
//!
//! The real traces are per-bus GPS feeds tagged with journey/route ids. This
//! crate reproduces the entire data path:
//!
//! * [`gps`] — trace records and a Gaussian GPS noise model;
//! * [`bus`] — buses driving routed paths and emitting noisy fixes;
//! * [`csv`] — reading/writing the Dublin and Seattle record schemas;
//! * [`map_match`] — snapping fixes back onto the road network, recovering
//!   journeys, and extracting traffic flows (volume = buses × passengers per
//!   bus: 100 in Dublin, 200 in Seattle);
//! * [`city`] — end-to-end city models used by the experiment harness.
//!
//! The placement algorithms never see raw GPS — only the recovered flow sets
//! — matching how the paper's algorithms consume trace-derived flows.
//!
//! ## Quickstart
//!
//! ```
//! use rap_trace::city::{seattle, CityParams};
//!
//! # fn main() -> Result<(), rap_trace::TraceError> {
//! let mut params = CityParams::seattle();
//! params.journeys = 20; // keep the doc test quick
//! let city = seattle(params, 42)?;
//! assert!(!city.flows().is_empty());
//! println!(
//!     "{}: {} intersections, {} flows from {} raw records",
//!     city.name(),
//!     city.graph().node_count(),
//!     city.flows().len(),
//!     city.trace_records(),
//! );
//! # Ok(())
//! # }
//! ```

pub mod bus;
pub mod city;
pub mod csv;
pub mod error;
pub mod gps;
pub mod map_match;
pub mod metro;

pub use bus::{drive_path, DriveParams};
pub use city::{dublin, seattle, CityModel, CityParams};
pub use csv::{
    read_csv, read_csv_report, write_csv, ParseMode, ParseReport, QuarantinedLine, TraceSchema,
};
pub use error::TraceError;
pub use gps::{BusId, GpsNoise, GpsPoint, JourneyId, TraceRecord};
pub use map_match::{extract_flows, match_fixes, match_journeys, ExtractParams, MatchedJourney};
pub use metro::{metro, MetroModel, MetroParams};
