//! Tier-1 coverage of the accelerated construction path on the metro
//! layout: `build_scenario` with threads, ALT pruning and a tile grid whose
//! cells coincide with the generator's numbering blocks, so the detour fill
//! walks tile-aligned id-range shards. Every artifact and the greedy
//! placement must match the plain sequential build bit for bit.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rap_vcps::graph::tiles::TileGrid;
use rap_vcps::graph::Distance;
use rap_vcps::placement::{
    build_scenario, BuildMode, BuildOptions, MarginalGreedy, PlacementAlgorithm, UtilityKind,
};
use rap_vcps::trace::{metro, MetroParams};

#[test]
fn tile_aligned_metro_build_matches_the_plain_build() {
    let model = metro(MetroParams::smoke(), 2015);
    let tile_cell = model.tile_cell();
    let tiles = TileGrid::with_cell(model.graph(), tile_cell);
    assert!(
        tiles.id_contiguous(),
        "block-pitch tiles must be id ranges, or the detour fill never shards by tile"
    );
    let (graph, specs, shops) = model.into_parts();
    let utility = UtilityKind::Linear.instantiate(Distance::from_feet(2_500));
    let build = |mode, threads, tile_cell| {
        build_scenario(
            graph.clone(),
            specs.clone(),
            shops.clone(),
            utility.clone(),
            &BuildOptions {
                threads,
                mode,
                tile_cell,
            },
        )
        .unwrap()
    };
    let (fast, report) = build(BuildMode::Accelerated, Some(2), Some(tile_cell));
    assert!(report.plan.use_alt && report.plan.use_tiles);
    assert_eq!(report.plan.threads, 2);
    assert_eq!(report.tile_count, tiles.tile_count());
    assert!(report.tile_count > 1, "{} tile(s)", report.tile_count);
    let (plain, _) = build(BuildMode::Plain, None, None);

    assert_eq!(fast.detours().entries(), plain.detours().entries());
    for v in graph.nodes() {
        assert_eq!(
            fast.detours().shop_distance(v),
            plain.detours().shop_distance(v)
        );
    }
    assert_eq!(fast.candidates(), plain.candidates());
    assert_eq!(fast.flows().len(), plain.flows().len());
    for (a, b) in fast.flows().iter().zip(plain.flows().iter()) {
        assert_eq!(a.id(), b.id());
        assert_eq!(
            a.path().nodes(),
            b.path().nodes(),
            "flow {:?} routed differently",
            a.id()
        );
    }

    let place = |scenario| MarginalGreedy.place(scenario, 10, &mut StdRng::seed_from_u64(0));
    let (pf, pp) = (place(&fast), place(&plain));
    assert_eq!(pf.len(), 10);
    assert_eq!(pf, pp, "greedy placement diverged under acceleration");
    assert_eq!(fast.evaluate(&pf).to_bits(), plain.evaluate(&pp).to_bits());
}
