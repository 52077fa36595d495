//! Random city-like street-network generators.
//!
//! The paper evaluates on two real cities whose traces are not redistributable
//! (Dublin \[19\], Seattle \[20\]). These generators synthesize street networks
//! with the same gross structure, which the `rap-trace` crate turns into full
//! city models:
//!
//! * [`random_geometric`] — a connected random planar-ish network; building
//!   block for irregular cities.
//! * [`radial_ring_city`] — rings plus radial spokes with jitter: the
//!   irregular, non-grid structure of central Dublin.
//! * [`perturbed_grid`] — a Manhattan lattice with deleted streets and a few
//!   diagonal shortcuts: the *partially* grid-based structure of central
//!   Seattle that the paper notes degrades Algorithms 3–4 slightly.
//!
//! All generators are deterministic in their seed and always return strongly
//! connected graphs (every street two-way, components stitched together).

use crate::geometry::{BoundingBox, Point};
use crate::graph::{GraphBuilder, RoadGraph};
use crate::node::{Distance, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Minimal union-find used to stitch generated components together.
struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
        }
    }

    fn find(&mut self, x: u32) -> u32 {
        let mut root = x;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        // Path compression.
        let mut cur = x;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        self.parent[ra as usize] = rb;
        true
    }
}

/// Connects all components of `builder` by repeatedly adding the shortest
/// two-way Euclidean edge between two different components.
fn stitch_components(builder: &mut GraphBuilder, uf: &mut UnionFind) {
    let n = builder.node_count();
    loop {
        // Group nodes by component root.
        let mut roots = vec![0u32; n];
        let mut distinct = std::collections::HashSet::new();
        for (i, root) in roots.iter_mut().enumerate() {
            *root = uf.find(i as u32);
            distinct.insert(*root);
        }
        if distinct.len() <= 1 {
            break;
        }
        // Find the globally closest cross-component pair. O(n²) but only
        // runs while disconnected, which is rare for sensible parameters.
        let mut best: Option<(f64, u32, u32)> = None;
        for i in 0..n {
            for j in (i + 1)..n {
                if roots[i] == roots[j] {
                    continue;
                }
                let d = builder
                    .point(NodeId::new(i as u32))
                    .euclidean(builder.point(NodeId::new(j as u32)));
                if best.is_none_or(|(bd, _, _)| d < bd) {
                    best = Some((d, i as u32, j as u32));
                }
            }
        }
        let (_, a, b) = best.expect("disconnected graph has a cross pair");
        builder
            .add_two_way_euclidean(NodeId::new(a), NodeId::new(b))
            .expect("stitch edge endpoints are valid and distinct");
        uf.union(a, b);
    }
}

/// Generates a connected random geometric street network.
///
/// `n` intersections are placed uniformly in `extent`; every pair closer than
/// `radius` feet is joined by a two-way street of Euclidean length. Any
/// remaining components are stitched with shortest cross-component streets, so
/// the result is always strongly connected.
///
/// # Panics
///
/// Panics if `n == 0` or `radius` is not positive and finite.
///
/// ```
/// use rap_graph::{generators, BoundingBox, Point};
/// let bb = BoundingBox::new(Point::new(0.0, 0.0), Point::new(1000.0, 1000.0));
/// let g = generators::random_geometric(50, bb, 300.0, 7);
/// assert_eq!(g.node_count(), 50);
/// let m = rap_graph::apsp::DistanceMatrix::dijkstra_all(&g);
/// assert!(m.strongly_connected());
/// ```
pub fn random_geometric(n: usize, extent: BoundingBox, radius: f64, seed: u64) -> RoadGraph {
    assert!(n > 0, "node count must be positive");
    assert!(
        radius > 0.0 && radius.is_finite(),
        "radius must be positive and finite"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(n, n * 4);
    for _ in 0..n {
        let x = rng.random_range(extent.min.x..=extent.max.x);
        let y = rng.random_range(extent.min.y..=extent.max.y);
        b.add_node(Point::new(x, y));
    }
    let mut uf = UnionFind::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            let (a, c) = (NodeId::new(i as u32), NodeId::new(j as u32));
            let d = b.point(a).euclidean(b.point(c));
            if d > 0.0 && d <= radius {
                b.add_two_way_euclidean(a, c)
                    .expect("endpoints valid, distance positive");
                uf.union(i as u32, j as u32);
            }
        }
    }
    stitch_components(&mut b, &mut uf);
    b.build()
}

/// Parameters for [`radial_ring_city`].
#[derive(Clone, Copy, Debug)]
pub struct RadialRingParams {
    /// Number of concentric rings around the center.
    pub rings: u32,
    /// Number of radial spokes.
    pub spokes: u32,
    /// Distance between consecutive rings, in feet.
    pub ring_spacing: f64,
    /// Relative positional jitter (0 = perfectly regular; 0.25 = noticeably
    /// irregular). Must be in `[0, 0.4]`.
    pub jitter: f64,
    /// Probability of adding a chord street between nearby nodes on the same
    /// ring two spokes apart, creating the irregular cross-links of an old
    /// European city.
    pub chord_probability: f64,
}

impl Default for RadialRingParams {
    fn default() -> Self {
        RadialRingParams {
            rings: 6,
            spokes: 10,
            ring_spacing: 5_000.0,
            jitter: 0.15,
            chord_probability: 0.3,
        }
    }
}

/// Generates a Dublin-like irregular city: a center intersection, concentric
/// rings, radial spokes, jittered positions, and random chords.
///
/// The graph is strongly connected by construction (every spoke connects each
/// ring to the next, every ring is a cycle).
///
/// # Panics
///
/// Panics if `rings == 0`, `spokes < 3`, `ring_spacing` is not positive, or
/// `jitter` is outside `[0, 0.4]`.
pub fn radial_ring_city(center: Point, params: RadialRingParams, seed: u64) -> RoadGraph {
    assert!(params.rings > 0, "ring count must be positive");
    assert!(params.spokes >= 3, "at least 3 spokes required");
    assert!(
        params.ring_spacing > 0.0 && params.ring_spacing.is_finite(),
        "ring spacing must be positive and finite"
    );
    assert!(
        (0.0..=0.4).contains(&params.jitter),
        "jitter must lie in [0, 0.4]"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new();
    let hub = b.add_node(center);

    // nodes[r][s] = node on ring r (0-based), spoke s.
    let mut rings: Vec<Vec<NodeId>> = Vec::with_capacity(params.rings as usize);
    for r in 1..=params.rings {
        let mut ring_nodes = Vec::with_capacity(params.spokes as usize);
        for s in 0..params.spokes {
            let base_angle = (s as f64) / (params.spokes as f64) * std::f64::consts::TAU;
            let angle = base_angle
                + rng.random_range(-params.jitter..=params.jitter) / (params.rings as f64);
            let radius = (r as f64)
                * params.ring_spacing
                * (1.0 + rng.random_range(-params.jitter..=params.jitter));
            ring_nodes.push(b.add_node(Point::new(
                center.x + radius * angle.cos(),
                center.y + radius * angle.sin(),
            )));
        }
        rings.push(ring_nodes);
    }

    // Spokes: hub -> ring 1, ring r -> ring r+1 along each spoke.
    for s in 0..params.spokes as usize {
        b.add_two_way_euclidean(hub, rings[0][s])
            .expect("hub and ring nodes are distinct");
        for pair in rings.windows(2) {
            b.add_two_way_euclidean(pair[0][s], pair[1][s])
                .expect("consecutive ring nodes are distinct");
        }
    }
    // Ring cycles.
    for ring in &rings {
        for s in 0..ring.len() {
            let next = (s + 1) % ring.len();
            b.add_two_way_euclidean(ring[s], ring[next])
                .expect("ring neighbors are distinct");
        }
    }
    // Chords: same ring, two spokes apart.
    for ring in &rings {
        for s in 0..ring.len() {
            if rng.random_bool(params.chord_probability) {
                let other = (s + 2) % ring.len();
                if !b.has_edge(ring[s], ring[other]) {
                    b.add_two_way_euclidean(ring[s], ring[other])
                        .expect("chord endpoints are distinct");
                }
            }
        }
    }
    b.build()
}

/// Parameters for [`perturbed_grid`].
#[derive(Clone, Copy, Debug)]
pub struct PerturbedGridParams {
    /// Grid rows.
    pub rows: u32,
    /// Grid columns.
    pub cols: u32,
    /// Block length.
    pub spacing: Distance,
    /// Probability that a (non-critical) grid street is removed.
    pub delete_probability: f64,
    /// Probability that a diagonal shortcut is added across a block.
    pub diagonal_probability: f64,
}

impl Default for PerturbedGridParams {
    fn default() -> Self {
        PerturbedGridParams {
            rows: 11,
            cols: 11,
            spacing: Distance::from_feet(1_000),
            delete_probability: 0.08,
            diagonal_probability: 0.05,
        }
    }
}

/// Generates a Seattle-like partially-grid city: a Manhattan lattice with some
/// streets deleted and occasional diagonal avenues, re-stitched to stay
/// strongly connected.
///
/// # Panics
///
/// Panics if the grid dimensions or spacing are zero, or probabilities are
/// outside `[0, 1]`.
pub fn perturbed_grid(params: PerturbedGridParams, seed: u64) -> RoadGraph {
    assert!(
        params.rows > 0 && params.cols > 0,
        "grid dimensions must be positive"
    );
    assert!(!params.spacing.is_zero(), "grid spacing must be positive");
    assert!(
        (0.0..=1.0).contains(&params.delete_probability)
            && (0.0..=1.0).contains(&params.diagonal_probability),
        "probabilities must lie in [0, 1]"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let (rows, cols) = (params.rows, params.cols);
    let n = (rows * cols) as usize;
    let mut b = GraphBuilder::with_capacity(n, n * 4);
    for r in 0..rows {
        for c in 0..cols {
            b.add_node(Point::new(
                c as f64 * params.spacing.feet() as f64,
                r as f64 * params.spacing.feet() as f64,
            ));
        }
    }
    let id = |r: u32, c: u32| NodeId::new(r * cols + c);
    let mut uf = UnionFind::new(n);
    let diag_len = Distance::from_feet_f64(params.spacing.feet() as f64 * std::f64::consts::SQRT_2);

    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols && !rng.random_bool(params.delete_probability) {
                b.add_two_way(id(r, c), id(r, c + 1), params.spacing)
                    .expect("grid edge valid");
                uf.union(id(r, c).raw(), id(r, c + 1).raw());
            }
            if r + 1 < rows && !rng.random_bool(params.delete_probability) {
                b.add_two_way(id(r, c), id(r + 1, c), params.spacing)
                    .expect("grid edge valid");
                uf.union(id(r, c).raw(), id(r + 1, c).raw());
            }
            if r + 1 < rows && c + 1 < cols && rng.random_bool(params.diagonal_probability) {
                b.add_two_way(id(r, c), id(r + 1, c + 1), diag_len)
                    .expect("diagonal edge valid");
                uf.union(id(r, c).raw(), id(r + 1, c + 1).raw());
            }
        }
    }
    stitch_components(&mut b, &mut uf);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apsp::DistanceMatrix;

    fn unit_box(side: f64) -> BoundingBox {
        BoundingBox::new(Point::new(0.0, 0.0), Point::new(side, side))
    }

    #[test]
    fn random_geometric_is_connected_and_deterministic() {
        let g1 = random_geometric(40, unit_box(1_000.0), 250.0, 42);
        let g2 = random_geometric(40, unit_box(1_000.0), 250.0, 42);
        assert_eq!(g1.node_count(), 40);
        assert_eq!(g1.edge_count(), g2.edge_count());
        for (a, b) in g1.edges().zip(g2.edges()) {
            assert_eq!(a, b);
        }
        assert!(DistanceMatrix::dijkstra_all(&g1).strongly_connected());
    }

    #[test]
    fn random_geometric_different_seeds_differ() {
        let g1 = random_geometric(30, unit_box(1_000.0), 300.0, 1);
        let g2 = random_geometric(30, unit_box(1_000.0), 300.0, 2);
        let differs = g1.nodes().any(|v| g1.point(v) != g2.point(v));
        assert!(differs, "different seeds should place nodes differently");
    }

    #[test]
    fn random_geometric_sparse_radius_still_connected() {
        // Tiny radius: relies entirely on stitching.
        let g = random_geometric(25, unit_box(10_000.0), 1.0, 5);
        assert!(DistanceMatrix::dijkstra_all(&g).strongly_connected());
    }

    #[test]
    fn radial_ring_city_structure() {
        let params = RadialRingParams {
            rings: 4,
            spokes: 8,
            ring_spacing: 1_000.0,
            jitter: 0.1,
            chord_probability: 0.2,
        };
        let g = radial_ring_city(Point::new(0.0, 0.0), params, 9);
        assert_eq!(g.node_count(), 1 + 4 * 8);
        assert!(DistanceMatrix::dijkstra_all(&g).strongly_connected());
        // Hub has degree >= spokes.
        assert!(g.out_degree(NodeId::new(0)) >= 8);
    }

    #[test]
    fn radial_ring_city_deterministic() {
        let g1 = radial_ring_city(Point::ORIGIN, RadialRingParams::default(), 3);
        let g2 = radial_ring_city(Point::ORIGIN, RadialRingParams::default(), 3);
        assert_eq!(g1.edge_count(), g2.edge_count());
        assert!(DistanceMatrix::dijkstra_all(&g1).strongly_connected());
    }

    #[test]
    fn perturbed_grid_connected() {
        let params = PerturbedGridParams {
            rows: 8,
            cols: 8,
            spacing: Distance::from_feet(500),
            delete_probability: 0.25,
            diagonal_probability: 0.1,
        };
        let g = perturbed_grid(params, 11);
        assert_eq!(g.node_count(), 64);
        assert!(DistanceMatrix::dijkstra_all(&g).strongly_connected());
        let g = perturbed_grid(PerturbedGridParams::default(), 4);
        assert!(DistanceMatrix::dijkstra_all(&g).strongly_connected());
    }

    #[test]
    fn perturbed_grid_no_perturbation_is_full_grid() {
        let params = PerturbedGridParams {
            rows: 4,
            cols: 5,
            spacing: Distance::from_feet(100),
            delete_probability: 0.0,
            diagonal_probability: 0.0,
        };
        let g = perturbed_grid(params, 0);
        // 4*4 horizontal + 3*5 vertical = 31 streets, 62 directed edges.
        assert_eq!(g.edge_count(), 62);
    }

    #[test]
    #[should_panic(expected = "node count")]
    fn random_geometric_zero_nodes_panics() {
        let _ = random_geometric(0, unit_box(10.0), 1.0, 0);
    }

    #[test]
    #[should_panic(expected = "radius")]
    fn random_geometric_bad_radius_panics() {
        let _ = random_geometric(3, unit_box(10.0), 0.0, 0);
    }

    #[test]
    #[should_panic(expected = "spokes")]
    fn radial_ring_too_few_spokes_panics() {
        let params = RadialRingParams {
            spokes: 2,
            ..RadialRingParams::default()
        };
        let _ = radial_ring_city(Point::ORIGIN, params, 0);
    }

    #[test]
    #[should_panic(expected = "probabilities")]
    fn perturbed_grid_bad_probability_panics() {
        let params = PerturbedGridParams {
            delete_probability: 1.5,
            ..PerturbedGridParams::default()
        };
        let _ = perturbed_grid(params, 0);
    }
}
