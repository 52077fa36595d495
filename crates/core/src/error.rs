//! Error types for the placement engine.

use rap_graph::{GraphError, NodeId};
use rap_traffic::TrafficError;
use std::error::Error;
use std::fmt;

/// Errors produced while setting up a scenario or running a placement
/// algorithm.
#[derive(Debug)]
#[non_exhaustive]
pub enum PlacementError {
    /// A scenario was created without any shop.
    NoShops,
    /// A shop intersection does not exist in the graph.
    ShopOutOfBounds {
        /// The offending shop location.
        shop: NodeId,
    },
    /// An exhaustive search was asked to enumerate more candidate placements
    /// than its budget allows.
    SearchTooLarge {
        /// Number of candidate intersections.
        candidates: usize,
        /// Requested number of RAPs.
        k: usize,
        /// The enumeration budget that would be exceeded.
        budget: u64,
    },
    /// An underlying graph error.
    Graph(GraphError),
    /// An underlying traffic error.
    Traffic(TrafficError),
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementError::NoShops => write!(f, "scenario requires at least one shop"),
            PlacementError::ShopOutOfBounds { shop } => {
                write!(
                    f,
                    "shop location {shop} is not an intersection of the graph"
                )
            }
            PlacementError::SearchTooLarge {
                candidates,
                k,
                budget,
            } => write!(
                f,
                "exhaustive search over {candidates} candidates choose {k} exceeds \
                 the budget of {budget} evaluations"
            ),
            PlacementError::Graph(e) => write!(f, "graph error: {e}"),
            PlacementError::Traffic(e) => write!(f, "traffic error: {e}"),
        }
    }
}

impl Error for PlacementError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PlacementError::Graph(e) => Some(e),
            PlacementError::Traffic(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for PlacementError {
    fn from(e: GraphError) -> Self {
        PlacementError::Graph(e)
    }
}

impl From<TrafficError> for PlacementError {
    fn from(e: TrafficError) -> Self {
        PlacementError::Traffic(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(PlacementError::NoShops.to_string().contains("shop"));
        assert!(PlacementError::ShopOutOfBounds {
            shop: NodeId::new(4)
        }
        .to_string()
        .contains("V4"));
        let e = PlacementError::SearchTooLarge {
            candidates: 100,
            k: 5,
            budget: 1_000_000,
        };
        assert!(e.to_string().contains("100"));
        assert!(e.to_string().contains("1000000"));
        assert!(e.source().is_none());
    }

    #[test]
    fn sources_propagate() {
        let g = PlacementError::from(GraphError::NodeOutOfBounds {
            node: NodeId::new(0),
            node_count: 0,
        });
        assert!(g.source().is_some());
        let t = PlacementError::from(TrafficError::InvalidVolume { volume: -1.0 });
        assert!(t.source().is_some());
        assert!(PlacementError::NoShops.source().is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PlacementError>();
    }
}
