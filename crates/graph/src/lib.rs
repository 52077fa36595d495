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
//! * [`dijkstra`] — forward and reverse single-source shortest paths with
//!   predecessor trees and path extraction.
//! * [`sssp`] — the batched preprocessing kernel: Dial-style bucket-queue
//!   Dijkstra with a reusable epoch-stamped [`SsspWorkspace`], automatic
//!   bucket-vs-heap selection by edge-length spread, and early-exit runs for
//!   routing workloads. Bit-identical results to [`dijkstra`].
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
//! use rap_graph::{GraphBuilder, Point, Distance};
//!
//! # fn main() -> Result<(), rap_graph::GraphError> {
//! let mut b = GraphBuilder::new();
//! let a = b.add_node(Point::new(0.0, 0.0));
//! let c = b.add_node(Point::new(100.0, 0.0));
//! b.add_two_way(a, c, Distance::from_feet(100))?;
//! let g = b.build();
//! let tree = rap_graph::dijkstra::shortest_path_tree(&g, a);
//! assert_eq!(tree.distance(c), Some(Distance::from_feet(100)));
//! # Ok(())
//! # }
//! ```

pub mod apsp;
pub mod connectivity;
pub mod dijkstra;
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
pub mod subgraph;
pub mod tiles;
pub mod validate;

pub use error::GraphError;
pub use geometry::{BoundingBox, Point};
pub use graph::{Edge, GraphBuilder, RoadGraph};
pub use grid::{GridGraph, GridPos};
pub use node::{Distance, EdgeId, NodeId};
pub use path::Path;
pub use sssp::{SsspKernel, SsspWorkspace};
