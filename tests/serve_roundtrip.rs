//! Tier-1 coverage of the serving path: a one-worker `rap-serve` server
//! over a tiny snapshot, driven through one keep-alive client.
//!
//! The run crosses the server's `Connection: close` rotation (a connection
//! is closed after 128 requests) and one `/reload` onto a second snapshot
//! generation. Every `/evaluate` body must carry the offline
//! `PlacementReport::compute` figures and every `/topk` body the offline
//! `MarginalGreedy` placement, objective bits included, for the epoch that
//! served it. Five `/evaluate` requests on three edge cases (an empty
//! placement, a repeated RAP, a node no flow passes) must answer with
//! pinned body bytes.
//! `/metrics` must count no 4xx and no 5xx.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rap_serve::{serve, Client, ClientResponse, ServeState, ServerConfig};
use rap_vcps::graph::{Distance, GridGraph, NodeId};
use rap_vcps::placement::{
    decode_snapshot, encode_snapshot, write_snapshot_atomic, FaultPlan, MarginalGreedy,
    MutableScenario, Placement, PlacementAlgorithm, PlacementReport, Scenario, UtilityKind,
};
use rap_vcps::traffic::demand::{uniform_demand, DemandParams};
use rap_vcps::traffic::FlowSet;
use std::sync::Arc;
use std::time::Duration;

/// `/evaluate` and `/topk` requests sent; the `/reload` goes after half.
const QUERIES: usize = 140;
const MAX_K: usize = 6;

/// The one node of the first generation that no flow passes.
const IDLE_NODE: u32 = 27;

/// `/evaluate` edge cases on the first generation, with their bodies.
const EDGE_CASES: [(&str, &str); 5] = [
    (
        "[]",
        r#"{"epoch":1,"raps":[],"objective":0.0,"covered_flows":0,"total_flows":30}"#,
    ),
    (
        "[0,24,48,0]",
        r#"{"epoch":1,"raps":[0,24,48],"objective":45.47083923602093,"covered_flows":8,"total_flows":30}"#,
    ),
    (
        "[0,24,48]",
        r#"{"epoch":1,"raps":[0,24,48],"objective":45.47083923602093,"covered_flows":8,"total_flows":30}"#,
    ),
    (
        "[24,27]",
        r#"{"epoch":1,"raps":[24,27],"objective":42.02555371943763,"covered_flows":7,"total_flows":30}"#,
    ),
    (
        "[24]",
        r#"{"epoch":1,"raps":[24],"objective":42.02555371943763,"covered_flows":7,"total_flows":30}"#,
    ),
];

/// A seeded 7×7 grid scenario; `volume_scale` tells the two snapshot
/// generations apart.
fn scenario(volume_scale: f64) -> MutableScenario {
    let grid = GridGraph::new(7, 7, Distance::from_feet(500));
    let params = DemandParams {
        flows: 30,
        min_volume: 100.0 * volume_scale,
        max_volume: 1_000.0 * volume_scale,
        attractiveness: 0.01,
    };
    let specs = uniform_demand(grid.graph(), params, 5).unwrap();
    let flows = FlowSet::route(grid.graph(), specs).unwrap();
    MutableScenario::new(
        grid.graph().clone(),
        flows,
        vec![grid.center()],
        UtilityKind::Linear.instantiate(Distance::from_feet(2_000)),
    )
    .unwrap()
}

/// The offline view a served epoch must agree with.
fn offline(bytes: &[u8]) -> Arc<Scenario> {
    decode_snapshot(bytes).unwrap().scenario.snapshot()
}

fn num(response: &ClientResponse, field: &str) -> f64 {
    response.body[field]
        .as_f64()
        .unwrap_or_else(|| panic!("`{field}` missing from {:?}", response.body))
}

fn raps(response: &ClientResponse) -> Vec<u32> {
    let list = &response.body["raps"];
    assert_eq!(list.kind(), "array", "raps in {:?}", response.body);
    (0..)
        .map_while(|i| list.get_index(i))
        .map(|v| v.as_f64().unwrap() as u32)
        .collect()
}

fn ids(placement: &Placement) -> Vec<u32> {
    placement.raps().iter().map(|r| r.raw()).collect()
}

#[test]
fn served_bodies_match_offline_engines_across_rotation_and_reload() {
    let generations = [
        encode_snapshot(&scenario(1.0), None, 0, &[]).unwrap(),
        encode_snapshot(&scenario(3.0), None, 0, &[]).unwrap(),
    ];
    let dir = std::env::temp_dir().join(format!("rap_serve_roundtrip_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("scenario.snap");
    write_snapshot_atomic(&path, &generations[0], &FaultPlan::none()).unwrap();

    let config = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let keepalive = config.max_keepalive_requests as usize;
    let state = Arc::new(ServeState::from_snapshot_file(&path, 1).unwrap());
    let handle = serve(state, "127.0.0.1:0", config).unwrap();
    let mut client = Client::new(handle.addr()).with_timeout(Duration::from_secs(20));

    let mut reference = offline(&generations[0]);
    let candidates: Vec<u32> = reference.candidates().iter().map(|c| c.raw()).collect();
    assert!(candidates.len() > MAX_K, "fixture must offer a real choice");
    let mut epoch = 1.0;
    let mut rng = StdRng::seed_from_u64(11);
    let mut sent = 0;

    // Edge cases, each pinned to the body bytes the server has always sent
    // for it: an empty placement scores a positive zero over no flow, a
    // repeated RAP scores the deduplicated placement's bits, and a node no
    // flow passes adds nothing.
    let idle = reference
        .graph()
        .nodes()
        .find(|&v| reference.flows().visits_at(v).is_empty())
        .expect("the fixture has a node no flow passes");
    assert_eq!(idle.raw(), IDLE_NODE);
    for (raps, body) in EDGE_CASES {
        let response = client
            .post("/evaluate", &format!("{{\"raps\":{raps}}}"))
            .unwrap();
        sent += 1;
        assert_eq!(response.status, 200, "{:?}", response.body);
        assert_eq!(
            serde_json::to_string(&response.body).unwrap(),
            body,
            "/evaluate {raps}"
        );
    }
    for i in 0..QUERIES {
        if i == QUERIES / 2 {
            write_snapshot_atomic(&path, &generations[1], &FaultPlan::none()).unwrap();
            let reloaded = client.post("/reload", "").unwrap();
            sent += 1;
            assert_eq!(reloaded.status, 200, "{:?}", reloaded.body);
            assert_eq!(num(&reloaded, "previous_epoch"), epoch);
            epoch += 1.0;
            assert_eq!(num(&reloaded, "epoch"), epoch);
            reference = offline(&generations[1]);
        }
        let response = if i % 4 == 3 {
            let k = rng.random_range(0..=MAX_K);
            let response = client.post("/topk", &format!("{{\"k\":{k}}}")).unwrap();
            let expected = MarginalGreedy.place(&reference, k, &mut StdRng::seed_from_u64(0));
            assert_eq!(num(&response, "k"), k as f64);
            assert_eq!(raps(&response), ids(&expected), "/topk k = {k}");
            assert_eq!(
                num(&response, "objective").to_bits(),
                reference.evaluate(&expected).to_bits(),
                "/topk k = {k}"
            );
            response
        } else {
            let size = rng.random_range(1..=MAX_K);
            let picked: Vec<u32> = (0..size)
                .map(|_| candidates[rng.random_range(0..candidates.len())])
                .collect();
            let response = client
                .post("/evaluate", &format!("{{\"raps\":{picked:?}}}"))
                .unwrap();
            let placement = Placement::new(picked.iter().copied().map(NodeId::new).collect());
            let report = PlacementReport::compute(&reference, &placement);
            assert_eq!(raps(&response), ids(&placement), "/evaluate {picked:?}");
            assert_eq!(
                num(&response, "objective").to_bits(),
                report.attracted.to_bits(),
                "/evaluate {picked:?}"
            );
            assert_eq!(num(&response, "covered_flows"), report.covered_flows as f64);
            assert_eq!(num(&response, "total_flows"), report.total_flows as f64);
            response
        };
        sent += 1;
        assert_eq!(response.status, 200, "{:?}", response.body);
        assert_eq!(num(&response, "epoch"), epoch, "request {sent}");
    }

    let metrics = client.get("/metrics").unwrap();
    sent += 1;
    assert_eq!(metrics.status, 200);
    assert_eq!(num(&metrics, "errors_4xx"), 0.0, "{:?}", metrics.body);
    assert_eq!(num(&metrics, "errors_5xx"), 0.0, "{:?}", metrics.body);
    assert_eq!(num(&metrics, "worker_respawns"), 0.0);
    assert_eq!(num(&metrics, "reloads_ok"), 1.0);
    assert_eq!(num(&metrics, "epoch"), epoch);
    assert_eq!(num(&metrics, "requests"), sent as f64);
    // Past the keep-alive cap, so the client had to reconnect once.
    assert!(sent > keepalive);
    assert_eq!(
        num(&metrics, "connections"),
        sent.div_ceil(keepalive) as f64
    );

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
