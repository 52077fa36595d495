//! Integration tests for the extensions beyond the paper's core algorithms:
//! budgeted placement, swap local search, multi-ad scheduling and
//! optimality bounds.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rap_vcps::graph::Distance;
use rap_vcps::placement::{
    certified_fraction, upper_bound, AdCampaign, BudgetedGreedy, CompositeGreedy, GreedyWithSwaps,
    PlacementAlgorithm, Scenario, ScheduleGreedy, SiteCosts, UtilityKind,
};
use rap_vcps::trace::{dublin, CityParams};
use rap_vcps::traffic::Zone;

fn city() -> rap_vcps::trace::CityModel {
    let params = CityParams {
        journeys: 40,
        max_buses: 3,
        ..CityParams::dublin()
    };
    dublin(params, 77).unwrap()
}

fn city_scenario(city: &rap_vcps::trace::CityModel) -> Scenario {
    let shop = city.shop_candidates(Zone::City)[0];
    Scenario::single_shop(
        city.graph().clone(),
        city.flows().clone(),
        shop,
        UtilityKind::Linear.instantiate(Distance::from_feet(20_000)),
    )
    .unwrap()
}

#[test]
fn budgeted_placement_on_a_real_city() {
    let city = city();
    let s = city_scenario(&city);
    let costs = SiteCosts::traffic_weighted(&s, 10, 0.02);
    let mut prev = 0.0;
    for budget in [20u64, 80, 300, 1_200] {
        let p = BudgetedGreedy.place(&s, &costs, budget).unwrap();
        assert!(costs.total(&p) <= budget);
        let w = s.evaluate(&p);
        assert!(w + 1e-9 >= prev, "budget {budget} decreased the objective");
        prev = w;
    }
}

#[test]
fn swap_search_dominates_greedy_on_a_real_city() {
    let city = city();
    let s = city_scenario(&city);
    let mut rng = StdRng::seed_from_u64(3);
    let greedy = s.evaluate(&CompositeGreedy.place(&s, 6, &mut rng));
    let refined = s.evaluate(&GreedyWithSwaps.place(&s, 6, &mut rng));
    assert!(refined + 1e-9 >= greedy);
}

#[test]
fn bounds_certify_greedy_quality_on_a_real_city() {
    let city = city();
    let s = city_scenario(&city);
    let mut rng = StdRng::seed_from_u64(4);
    let k = 8;
    let value = s.evaluate(&CompositeGreedy.place(&s, k, &mut rng));
    let ub = upper_bound(&s, k);
    assert!(value <= ub + 1e-9, "greedy value exceeds its upper bound");
    let frac = certified_fraction(&s, k, value);
    assert!(
        frac >= 0.5,
        "greedy certified at only {frac:.2} of optimal on a real city"
    );
}

#[test]
fn scheduling_across_city_shops() {
    let city = city();
    let zones = city.shop_candidates(Zone::City);
    let shops = vec![zones[0], zones[zones.len() / 2]];
    let campaign = AdCampaign::new(
        city.graph().clone(),
        city.flows().clone(),
        shops,
        UtilityKind::Linear.instantiate(Distance::from_feet(20_000)),
    )
    .unwrap();
    let one_slot = campaign.evaluate(&ScheduleGreedy.schedule(&campaign, 6, 1));
    let two_slots = campaign.evaluate(&ScheduleGreedy.schedule(&campaign, 6, 2));
    assert!(one_slot > 0.0);
    assert!(two_slots + 1e-9 >= one_slot);
}
