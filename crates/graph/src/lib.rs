//! # rap-graph
//!
//! Directed road-network graph engine for the roadside-advertisement
//! dissemination system (Zheng & Wu, ICDCS 2015 reproduction).
//!
//! This crate is the bottom-most substrate: it models a city street network as
//! a directed weighted graph whose nodes are street intersections and whose
//! edges are (possibly one-way) street segments, and provides the shortest-path
//! machinery every placement algorithm in the upper crates relies on.
//!
//! ## Highlights
//!
//! * [`RoadGraph`] — compact CSR (compressed sparse row) adjacency in both
//!   directions, built through [`GraphBuilder`].
//! * [`Distance`] — exact fixed-point distances in feet (`u64`), so shortest
//!   paths never suffer floating-point comparison hazards.
//! * [`sssp`] — the one shortest-path search: Dial-style bucket-queue
//!   Dijkstra over a reusable epoch-stamped [`SsspWorkspace`], automatic
//!   bucket-vs-heap selection by edge-length spread, forward and reverse
//!   ([`Direction`]) runs, early exit for routing workloads, path
//!   extraction, and [`sssp::shortest_path`] for one-off queries.
//! * [`apsp`] — all-pairs shortest paths, one [`SsspWorkspace`] run per
//!   node, plus a Floyd–Warshall reference used in tests.
//! * [`grid`] — Manhattan-grid generator used by the grid scenario of the
//!   paper (Section IV).
//! * [`generators`] — random city-like graph generators (geometric, radial
//!   ring, perturbed grid) used to synthesize the Dublin/Seattle substrates.
//! * [`io`] — a line-oriented text codec and serde support for graphs.
//!
//! ## Quickstart
//!
//! ```
//! use rap_graph::{Direction, Distance, GraphBuilder, Point, SsspWorkspace};
//!
//! # fn main() -> Result<(), rap_graph::GraphError> {
//! let mut b = GraphBuilder::new();
//! let a = b.add_node(Point::new(0.0, 0.0));
//! let c = b.add_node(Point::new(100.0, 0.0));
//! b.add_two_way(a, c, Distance::from_feet(100))?;
//! let g = b.build();
//! // One workspace serves any number of runs over the graph.
//! let mut ws = SsspWorkspace::for_graph(&g);
//! ws.run(&g, a, Direction::Forward);
//! assert_eq!(ws.distance(c), Some(Distance::from_feet(100)));
//! assert_eq!(ws.path_to(c)?.nodes(), &[a, c]);
//! # Ok(())
//! # }
//! ```

pub mod apsp;
pub mod error;
pub mod generators;
pub mod geometry;
pub mod graph;
pub mod grid;
pub mod io;
pub mod landmarks;
pub mod node;
pub mod path;
pub mod sssp;
pub mod tiles;

pub use error::GraphError;
pub use geometry::{BoundingBox, Point};
pub use graph::{Edge, GraphBuilder, RoadGraph};
pub use grid::{GridGraph, GridPos};
pub use node::{Distance, EdgeId, NodeId};
pub use path::Path;
pub use sssp::{Direction, SsspKernel, SsspWorkspace};
