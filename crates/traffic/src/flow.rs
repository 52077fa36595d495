//! Traffic flows: unrouted demand specs and routed flows.

use crate::error::TrafficError;
use rap_graph::{NodeId, Path};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Default advertisement attractiveness `α(T_{i,j})` used throughout the
/// paper's evaluation: "a person receiving advertisements has a probability
/// of 0.001 to go shopping if the shop is on the way" (Section V-A).
pub const DEFAULT_ATTRACTIVENESS: f64 = 0.001;

/// Identifier of a traffic flow within a [`crate::FlowSet`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
#[serde(transparent)]
pub struct FlowId(u32);

impl FlowId {
    /// Creates a flow id from a raw index.
    pub const fn new(index: u32) -> Self {
        FlowId(index)
    }

    /// Returns the raw index as a `usize`.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw `u32`.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Unrouted traffic demand: `volume` potential customers per day want to
/// travel from `origin` to `destination`.
///
/// `attractiveness` is the paper's `α(T_{i,j})`: the probability that a driver
/// of this flow detours given a zero-cost detour. It defaults to
/// [`DEFAULT_ATTRACTIVENESS`].
///
/// ```
/// use rap_traffic::FlowSpec;
/// use rap_graph::NodeId;
/// # fn main() -> Result<(), rap_traffic::TrafficError> {
/// let spec = FlowSpec::new(NodeId::new(0), NodeId::new(5), 200.0)?
///     .with_attractiveness(0.002)?;
/// assert_eq!(spec.volume(), 200.0);
/// assert_eq!(spec.attractiveness(), 0.002);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct FlowSpec {
    origin: NodeId,
    destination: NodeId,
    volume: f64,
    attractiveness: f64,
}

impl FlowSpec {
    /// Creates a demand spec with the default attractiveness.
    ///
    /// # Errors
    ///
    /// * [`TrafficError::DegenerateFlow`] if origin equals destination.
    /// * [`TrafficError::InvalidVolume`] if `volume` is not positive and
    ///   finite.
    pub fn new(origin: NodeId, destination: NodeId, volume: f64) -> Result<Self, TrafficError> {
        if origin == destination {
            return Err(TrafficError::DegenerateFlow { node: origin });
        }
        if !(volume.is_finite() && volume > 0.0) {
            return Err(TrafficError::InvalidVolume { volume });
        }
        Ok(FlowSpec {
            origin,
            destination,
            volume,
            attractiveness: DEFAULT_ATTRACTIVENESS,
        })
    }

    /// Replaces the attractiveness `α`.
    ///
    /// # Errors
    ///
    /// [`TrafficError::InvalidAttractiveness`] if `alpha` is outside `[0, 1]`
    /// or not finite.
    pub fn with_attractiveness(mut self, alpha: f64) -> Result<Self, TrafficError> {
        if !(alpha.is_finite() && (0.0..=1.0).contains(&alpha)) {
            return Err(TrafficError::InvalidAttractiveness { alpha });
        }
        self.attractiveness = alpha;
        Ok(self)
    }

    /// Flow origin intersection.
    pub fn origin(&self) -> NodeId {
        self.origin
    }

    /// Flow destination intersection.
    pub fn destination(&self) -> NodeId {
        self.destination
    }

    /// Daily volume of potential customers.
    pub fn volume(&self) -> f64 {
        self.volume
    }

    /// Advertisement attractiveness `α(T_{i,j})`.
    pub fn attractiveness(&self) -> f64 {
        self.attractiveness
    }
}

impl fmt::Display for FlowSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}→{} ({} persons/day, α={})",
            self.origin, self.destination, self.volume, self.attractiveness
        )
    }
}

/// A routed traffic flow: a [`FlowSpec`] bound to the concrete path it drives.
///
/// In the general scenario (paper Section III) the path is the unique
/// shortest path from origin to destination; in the Manhattan scenario
/// (Section IV) it may be re-chosen among several shortest paths depending on
/// the RAP placement, in which case the path stored here is the *default*
/// route and path flexibility is handled by `rap-manhattan`.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct TrafficFlow {
    id: FlowId,
    spec: FlowSpec,
    path: Path,
}

impl TrafficFlow {
    /// Binds a spec to its routed path.
    ///
    /// # Panics
    ///
    /// Panics (debug assertion) if the path endpoints disagree with the spec.
    pub fn new(id: FlowId, spec: FlowSpec, path: Path) -> Self {
        debug_assert_eq!(path.origin(), spec.origin(), "path origin mismatch");
        debug_assert_eq!(
            path.destination(),
            spec.destination(),
            "path destination mismatch"
        );
        TrafficFlow { id, spec, path }
    }

    /// The flow's id within its [`crate::FlowSet`].
    pub fn id(&self) -> FlowId {
        self.id
    }

    /// The underlying demand spec.
    pub fn spec(&self) -> &FlowSpec {
        &self.spec
    }

    /// Origin intersection.
    pub fn origin(&self) -> NodeId {
        self.spec.origin()
    }

    /// Destination intersection.
    pub fn destination(&self) -> NodeId {
        self.spec.destination()
    }

    /// Daily volume of potential customers.
    pub fn volume(&self) -> f64 {
        self.spec.volume()
    }

    /// Advertisement attractiveness `α(T_{i,j})`.
    pub fn attractiveness(&self) -> f64 {
        self.spec.attractiveness()
    }

    /// The routed path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Re-ids the flow in place, keeping its spec and path.
    pub(crate) fn set_id(&mut self, id: FlowId) {
        self.id = id;
    }
}

impl fmt::Display for TrafficFlow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.id, self.spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rap_graph::Distance;

    #[test]
    fn spec_construction_and_accessors() {
        let s = FlowSpec::new(NodeId::new(1), NodeId::new(2), 50.0).unwrap();
        assert_eq!(s.origin(), NodeId::new(1));
        assert_eq!(s.destination(), NodeId::new(2));
        assert_eq!(s.volume(), 50.0);
        assert_eq!(s.attractiveness(), DEFAULT_ATTRACTIVENESS);
    }

    #[test]
    fn spec_rejects_degenerate() {
        assert!(matches!(
            FlowSpec::new(NodeId::new(1), NodeId::new(1), 10.0),
            Err(TrafficError::DegenerateFlow { .. })
        ));
    }

    #[test]
    fn spec_rejects_bad_volume() {
        for v in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                FlowSpec::new(NodeId::new(0), NodeId::new(1), v),
                Err(TrafficError::InvalidVolume { .. })
            ));
        }
    }

    #[test]
    fn spec_rejects_bad_alpha() {
        let s = FlowSpec::new(NodeId::new(0), NodeId::new(1), 1.0).unwrap();
        for a in [-0.1, 1.1, f64::NAN] {
            assert!(matches!(
                s.with_attractiveness(a),
                Err(TrafficError::InvalidAttractiveness { .. })
            ));
        }
        assert!(s.with_attractiveness(0.0).is_ok());
        assert!(s.with_attractiveness(1.0).is_ok());
    }

    #[test]
    fn flow_display() {
        let s = FlowSpec::new(NodeId::new(0), NodeId::new(1), 10.0).unwrap();
        assert!(s.to_string().contains("V0→V1"));
        let flow = TrafficFlow::new(
            FlowId::new(3),
            s,
            Path::from_parts_unchecked(
                vec![NodeId::new(0), NodeId::new(1)],
                Distance::from_feet(5),
            ),
        );
        assert!(flow.to_string().starts_with("T3"));
        assert_eq!(flow.id(), FlowId::new(3));
        assert_eq!(flow.volume(), 10.0);
        assert_eq!(flow.path().length(), Distance::from_feet(5));
    }

    #[test]
    fn flow_id_roundtrip() {
        let id = FlowId::new(9);
        assert_eq!(id.index(), 9);
        assert_eq!(id.raw(), 9);
        assert_eq!(id.to_string(), "T9");
    }
}
