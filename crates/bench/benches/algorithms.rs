//! Placement-algorithm scaling benchmarks: city size, RAP budget, and the
//! lazy-greedy (CELF) ablation against the plain marginal greedy.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rap_bench::grid_scenario;
use rap_core::{
    CompositeGreedy, GreedyCoverage, LazyGreedy, MarginalGreedy, MaxCustomers, PlacementAlgorithm,
    Random, UtilityKind,
};
use rap_manhattan::gen::{boundary_flows, BoundaryFlowParams};
use rap_manhattan::{
    GridGreedy, ManhattanAlgorithm, ManhattanScenario, ModifiedTwoStage, TwoStage,
};
use std::hint::black_box;

fn rng() -> StdRng {
    StdRng::seed_from_u64(0)
}

/// Algorithms 1–2 and baselines at k = 10 as the city grows.
fn bench_city_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("scaling/city_size");
    for side in [10u32, 20, 30] {
        let scenario = grid_scenario(side, (side * side / 2) as usize, UtilityKind::Linear);
        let algorithms: [(&str, &dyn PlacementAlgorithm); 4] = [
            ("algorithm1", &GreedyCoverage),
            ("algorithm2", &CompositeGreedy),
            ("max_customers", &MaxCustomers),
            ("random", &Random),
        ];
        for (name, alg) in algorithms {
            g.bench_with_input(
                BenchmarkId::new(name, side * side),
                &scenario,
                |b, scenario| {
                    let mut r = rng();
                    b.iter(|| black_box(alg.place(scenario, 10, &mut r)))
                },
            );
        }
    }
    g.finish();
}

/// Greedy variants as the RAP budget grows.
fn bench_k_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("scaling/k");
    let scenario = grid_scenario(20, 200, UtilityKind::Linear);
    for k in [5usize, 20, 50] {
        g.bench_with_input(BenchmarkId::new("algorithm2", k), &k, |b, &k| {
            let mut r = rng();
            b.iter(|| black_box(CompositeGreedy.place(&scenario, k, &mut r)))
        });
        g.bench_with_input(BenchmarkId::new("marginal", k), &k, |b, &k| {
            let mut r = rng();
            b.iter(|| black_box(MarginalGreedy.place(&scenario, k, &mut r)))
        });
        g.bench_with_input(BenchmarkId::new("lazy_celf", k), &k, |b, &k| {
            let mut r = rng();
            b.iter(|| black_box(LazyGreedy.place(&scenario, k, &mut r)))
        });
    }
    g.finish();
}

/// Manhattan two-stage algorithms against the adaptive grid greedy.
fn bench_manhattan(c: &mut Criterion) {
    let mut g = c.benchmark_group("scaling/manhattan");
    let grid = rap_graph::GridGraph::new(21, 21, rap_graph::Distance::from_feet(250));
    let specs = boundary_flows(
        &grid,
        BoundaryFlowParams {
            flows: 100,
            min_volume: 200.0,
            max_volume: 1_000.0,
            attractiveness: 0.001,
            straight_fraction: 0.3,
        },
        9,
    )
    .expect("valid params");
    let scenario = ManhattanScenario::with_region(
        grid,
        specs,
        UtilityKind::Threshold.instantiate(rap_graph::Distance::from_feet(2_500)),
        rap_graph::Distance::from_feet(2_500),
    )
    .expect("valid scenario");
    let algorithms: [(&str, &dyn ManhattanAlgorithm); 3] = [
        ("algorithm3", &TwoStage),
        ("algorithm4", &ModifiedTwoStage),
        ("grid_greedy", &GridGreedy),
    ];
    for (name, alg) in algorithms {
        g.bench_function(name, |b| {
            let mut r = rng();
            b.iter(|| black_box(alg.place(&scenario, 8, &mut r)))
        });
    }
    g.finish();
}

/// The extension algorithms: budgeted greedy, swap refinement, failure-aware
/// greedy, multi-ad scheduling, and Yen's K-shortest enumeration.
fn bench_extensions(c: &mut Criterion) {
    use rap_core::{
        AdCampaign, BudgetedGreedy, FailureAwareGreedy, GreedyWithSwaps, ScheduleGreedy, SiteCosts,
    };
    let mut g = c.benchmark_group("scaling/extensions");
    let scenario = grid_scenario(15, 120, UtilityKind::Linear);

    let costs = SiteCosts::traffic_weighted(&scenario, 10, 0.02);
    g.bench_function("budgeted_greedy", |b| {
        b.iter(|| black_box(BudgetedGreedy.place(&scenario, &costs, 300).expect("sized")))
    });
    g.bench_function("greedy_with_swaps", |b| {
        let mut r = rng();
        b.iter(|| black_box(GreedyWithSwaps.place(&scenario, 6, &mut r)))
    });
    g.bench_function("failure_aware_greedy", |b| {
        let mut r = rng();
        b.iter(|| black_box(FailureAwareGreedy::new(0.3).place(&scenario, 10, &mut r)))
    });

    let campaign = AdCampaign::new(
        scenario.graph().clone(),
        scenario.flows().clone(),
        vec![rap_bench::grid_center(15), rap_graph::NodeId::new(0)],
        UtilityKind::Linear.instantiate(rap_graph::Distance::from_feet(3_000)),
    )
    .expect("valid campaign");
    g.bench_function("schedule_greedy_2shops", |b| {
        b.iter(|| black_box(ScheduleGreedy.schedule(&campaign, 8, 2)))
    });

    let grid = rap_graph::GridGraph::new(10, 10, rap_graph::Distance::from_feet(250));
    g.bench_function("yen_k_shortest_16", |b| {
        b.iter(|| {
            black_box(
                rap_graph::k_shortest::k_shortest_paths(
                    grid.graph(),
                    rap_graph::NodeId::new(0),
                    rap_graph::NodeId::new(99),
                    16,
                )
                .expect("connected"),
            )
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_city_scaling,
    bench_k_scaling,
    bench_manhattan,
    bench_extensions
);
criterion_main!(benches);
