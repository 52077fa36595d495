//! End-to-end serving tests: endpoint contracts, `/topk` bit-identity
//! with the offline greedy engines in any request order and under
//! concurrent clients, and epoch-swap semantics under snapshot rotation
//! (including corrupt replacements and concurrent in-flight readers).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rap_core::fixtures::reseal_snapshot;
use rap_core::{
    decode_snapshot, encode_snapshot, snapshot_crc32, verify_snapshot, write_snapshot_atomic,
    FaultPlan, LazyGreedy, MarginalGreedy, MutableScenario, Placement, PlacementAlgorithm,
    SnapshotError, UtilityKind,
};
use rap_graph::{Distance, GridGraph, NodeId};
use rap_serve::{serve, Client, ServeError, ServeState, ServerConfig};
use rap_traffic::demand::{uniform_demand, DemandParams};
use rap_traffic::{FlowSet, FlowSpec};
use serde::Value;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// A deterministic 6x6 scenario; `volume_scale` distinguishes snapshot
/// "generations" so tests can observe which epoch served a request.
fn scenario(volume_scale: f64) -> MutableScenario {
    let grid = GridGraph::new(6, 6, Distance::from_feet(400));
    let specs: Vec<FlowSpec> = [
        (0u32, 35u32, 900.0),
        (5, 30, 700.0),
        (2, 33, 500.0),
        (30, 5, 300.0),
    ]
    .iter()
    .map(|&(origin, destination, volume)| {
        FlowSpec::new(
            NodeId::new(origin),
            NodeId::new(destination),
            volume * volume_scale,
        )
        .unwrap()
    })
    .collect();
    let flows = FlowSet::route(grid.graph(), specs).unwrap();
    MutableScenario::new(
        grid.graph().clone(),
        flows,
        vec![grid.center()],
        UtilityKind::Linear.instantiate(Distance::from_feet(2_500)),
    )
    .unwrap()
}

fn snapshot_bytes(volume_scale: f64, placement: Option<&Placement>) -> Vec<u8> {
    encode_snapshot(&scenario(volume_scale), placement, 0, &[]).unwrap()
}

/// A seeded 6x6 scenario with 40 flows, enough demand that the greedy
/// keeps placing RAPs well past the first few.
fn demand_snapshot_bytes() -> Vec<u8> {
    scaled_demand_snapshot_bytes(1.0)
}

/// [`demand_snapshot_bytes`] with every flow volume multiplied by
/// `volume_scale`.
fn scaled_demand_snapshot_bytes(volume_scale: f64) -> Vec<u8> {
    let grid = GridGraph::new(6, 6, Distance::from_feet(400));
    let params = DemandParams {
        flows: 40,
        min_volume: 100.0,
        max_volume: 1_000.0,
        attractiveness: 0.01,
    };
    let specs: Vec<FlowSpec> = uniform_demand(grid.graph(), params, 3)
        .unwrap()
        .iter()
        .map(|spec| {
            FlowSpec::new(
                spec.origin(),
                spec.destination(),
                spec.volume() * volume_scale,
            )
            .unwrap()
            .with_attractiveness(spec.attractiveness())
            .unwrap()
        })
        .collect();
    let flows = FlowSet::route(grid.graph(), specs).unwrap();
    let scenario = MutableScenario::new(
        grid.graph().clone(),
        flows,
        vec![grid.center()],
        UtilityKind::Linear.instantiate(Distance::from_feet(2_500)),
    )
    .unwrap();
    encode_snapshot(&scenario, None, 0, &[]).unwrap()
}

fn temp_snapshot(name: &str, bytes: &[u8]) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("rap_serve_test_{name}_{}.snap", std::process::id()));
    write_snapshot_atomic(&path, bytes, &FaultPlan::none()).unwrap();
    path
}

fn start(path: &std::path::Path, workers: usize) -> (rap_serve::ServerHandle, Client) {
    let state = Arc::new(ServeState::from_snapshot_file(path, 1).unwrap());
    let handle = serve(
        state,
        "127.0.0.1:0",
        ServerConfig {
            workers,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let client = Client::new(handle.addr()).with_timeout(Duration::from_secs(20));
    (handle, client)
}

fn as_u64(value: &Value) -> u64 {
    value.as_f64().expect("numeric field") as u64
}

fn raps_of(body: &Value) -> Vec<u64> {
    match &body["raps"] {
        Value::Seq(items) => items.iter().map(as_u64).collect(),
        other => panic!("raps not an array: {other:?}"),
    }
}

#[test]
fn endpoint_contracts_end_to_end() {
    let placement = Placement::new(vec![NodeId::new(14), NodeId::new(21)]);
    let bytes = snapshot_bytes(1.0, Some(&placement));
    let path = temp_snapshot("contracts", &bytes);
    let (handle, mut client) = start(&path, 2);

    let health = client.get("/healthz").unwrap();
    assert_eq!(health.status, 200);
    assert_eq!(health.body["status"], "ok");
    assert_eq!(as_u64(&health.body["epoch"]), 1);
    assert_eq!(as_u64(&health.body["live_flows"]), 4);

    let recorded = client.get("/placement").unwrap();
    assert_eq!(recorded.status, 200);
    assert_eq!(raps_of(&recorded.body), vec![14, 21]);
    assert!(recorded.body["objective"].as_f64().unwrap() > 0.0);

    let evaluated = client
        .post("/evaluate", r#"{"raps": [14, 21, 14]}"#)
        .unwrap();
    assert_eq!(evaluated.status, 200);
    // Duplicates collapse (Placement dedups); objective matches /placement.
    assert_eq!(
        evaluated.body["objective"].as_f64().unwrap().to_bits(),
        recorded.body["objective"].as_f64().unwrap().to_bits()
    );
    assert_eq!(as_u64(&evaluated.body["total_flows"]), 4);

    // Validation: out-of-range node is a 400 with a reason, not a panic.
    let rejected = client.post("/evaluate", r#"{"raps": [9999]}"#).unwrap();
    assert_eq!(rejected.status, 400);
    assert!(rejected.body["error"]
        .as_str()
        .unwrap()
        .contains("out of range"));

    let rejected = client.post("/topk", r#"{"k": 10000}"#).unwrap();
    assert_eq!(rejected.status, 400);

    assert_eq!(client.get("/nope").unwrap().status, 404);
    assert_eq!(client.get("/evaluate").unwrap().status, 405);
    assert_eq!(client.post("/healthz", "{}").unwrap().status, 405);

    let metrics = client.get("/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    assert!(as_u64(&metrics.body["requests"]) >= 8);
    // Two 400s, one 404, two 405s so far.
    assert_eq!(as_u64(&metrics.body["errors_4xx"]), 5);
    assert_eq!(as_u64(&metrics.body["worker_respawns"]), 0);
    assert_eq!(
        as_u64(&metrics.body["snapshot_crc"]),
        u64::from(snapshot_crc32(&bytes))
    );
    assert!(as_u64(&metrics.body["evaluate"]["count"]) >= 2);

    handle.shutdown();
    std::fs::remove_file(&path).ok();
}

/// A body's fields other than `epoch`, in order.
fn without_epoch(body: &Value) -> Vec<(String, Value)> {
    match body {
        Value::Map(fields) => fields
            .iter()
            .filter(|(k, _)| k != "epoch")
            .cloned()
            .collect(),
        other => panic!("body not an object: {other:?}"),
    }
}

/// `0..=n` plus `extra`, in a seeded Fisher–Yates order.
fn shuffled(n: usize, extra: &[usize], seed: u64) -> Vec<usize> {
    let mut ks: Vec<usize> = (0..=n).chain(extra.iter().copied()).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..ks.len()).rev() {
        ks.swap(i, rng.random_range(0..=i));
    }
    ks
}

fn topk_extended(client: &mut Client) -> u64 {
    as_u64(&client.get("/metrics").unwrap().body["topk_extended"])
}

#[test]
fn topk_is_bit_identical_to_offline_engine() {
    let bytes = demand_snapshot_bytes();
    let path = temp_snapshot("topk", &bytes);

    // Offline reference: the same snapshot under the sequential marginal
    // greedy, the engine every `/topk` placement must reproduce, and a
    // fresh CELF run for the evaluation count.
    let mut offline = decode_snapshot(&bytes).unwrap().scenario;
    let frozen = offline.snapshot();
    let candidates = frozen.candidates().len();
    let longest = MarginalGreedy.place(&frozen, candidates, &mut StdRng::seed_from_u64(0));
    assert!(longest.len() >= 8, "fixture must keep the greedy placing");
    assert!(
        longest.len() < candidates,
        "fixture must exhaust the greedy"
    );

    let (handle, mut client) = start(&path, 2);
    let mut first_epoch = Vec::new();
    for k in 0..=candidates {
        let expected = MarginalGreedy.place(&frozen, k, &mut StdRng::seed_from_u64(0));
        let expected_ids: Vec<u64> = expected.raps().iter().map(|r| u64::from(r.raw())).collect();
        let response = client.post("/topk", &format!(r#"{{"k": {k}}}"#)).unwrap();
        assert_eq!(response.status, 200, "k = {k}");
        assert_eq!(as_u64(&response.body["epoch"]), 1);
        assert_eq!(as_u64(&response.body["k"]), k as u64);
        assert_eq!(
            raps_of(&response.body),
            expected_ids,
            "placement must match the marginal greedy exactly at k = {k}"
        );
        assert_eq!(
            response.body["objective"].as_f64().unwrap().to_bits(),
            frozen.evaluate(&expected).to_bits(),
            "objective must be bit-identical to the offline engine at k = {k}"
        );
        assert_eq!(
            as_u64(&response.body["gain_evals"]),
            LazyGreedy.place_with_stats(&frozen, k).1,
            "gain_evals must be a fresh CELF run's count at k = {k}"
        );
        assert!(response.body.get("delta_pushes").is_none());
        first_epoch.push(response.body);
    }
    // Each k up to the greedy's length committed exactly one RAP; k = 0
    // and every k past exhaustion committed none.
    let extended = topk_extended(&mut client);
    assert_eq!(extended, longest.len() as u64);

    // Descending, every answer is a prefix the epoch's run already holds:
    // the same bytes, and nothing committed.
    for k in (0..=candidates).rev() {
        let response = client.post("/topk", &format!(r#"{{"k": {k}}}"#)).unwrap();
        assert_eq!(response.status, 200, "k = {k} descending");
        assert_eq!(response.body, first_epoch[k], "k = {k} descending");
    }
    assert_eq!(topk_extended(&mut client), extended);

    // The same file reloads as epoch 2, whose fresh run answers every k in
    // shuffled order with the same body, bar the epoch.
    let reloaded = client.post("/reload", "").unwrap();
    assert_eq!(reloaded.status, 200);
    assert_eq!(as_u64(&reloaded.body["epoch"]), 2);
    for k in shuffled(candidates, &[], 19) {
        let before = &first_epoch[k];
        let response = client.post("/topk", &format!(r#"{{"k": {k}}}"#)).unwrap();
        assert_eq!(response.status, 200, "k = {k} after reload");
        assert_eq!(
            as_u64(&response.body["epoch"]),
            as_u64(&before["epoch"]) + 1
        );
        assert_eq!(
            without_epoch(&response.body),
            without_epoch(before),
            "k = {k} after reload"
        );
    }

    handle.shutdown();
    std::fs::remove_file(&path).ok();
}

/// What a fresh CELF run to every k from 0 to the candidate count answers
/// on `bytes`: `(raps, objective bits, gain_evals)` per k.
fn fresh_celf_answers(bytes: &[u8]) -> Vec<(Vec<u64>, u64, u64)> {
    let mut offline = decode_snapshot(bytes).unwrap().scenario;
    let frozen = offline.snapshot();
    (0..=frozen.candidates().len())
        .map(|k| {
            let (placement, evals) = LazyGreedy.place_with_stats(&frozen, k);
            let raps = placement
                .raps()
                .iter()
                .map(|r| u64::from(r.raw()))
                .collect();
            (raps, frozen.evaluate(&placement).to_bits(), evals)
        })
        .collect()
}

#[test]
fn concurrent_topk_bodies_match_fresh_celf_across_a_reload() {
    let bytes_v1 = demand_snapshot_bytes();
    let bytes_v3 = scaled_demand_snapshot_bytes(3.0);
    let path = temp_snapshot("topk_concurrent", &bytes_v1);
    let answers_v1 = fresh_celf_answers(&bytes_v1);
    let answers_v3 = fresh_celf_answers(&bytes_v3);
    let candidates = answers_v1.len() - 1;
    assert_eq!(answers_v3.len(), answers_v1.len());
    assert_ne!(
        answers_v1[5].1, answers_v3[5].1,
        "the two generations must be told apart by their bodies"
    );
    let expected = Arc::new([answers_v1, answers_v3]);

    let (handle, mut client) = start(&path, 4);
    let addr = handle.addr();
    // Four clients send mixed k values, each in its own shuffled order,
    // to whichever epoch is current; every body must be fresh CELF on the
    // epoch that served it. Each client returns the longest prefix it was
    // served.
    let burst = |round: u64| -> Vec<std::thread::JoinHandle<u64>> {
        (0..4u64)
            .map(|c| {
                let expected = Arc::clone(&expected);
                std::thread::spawn(move || {
                    let mut client = Client::new(addr).with_timeout(Duration::from_secs(20));
                    let mut longest = 0u64;
                    for k in shuffled(candidates, &[3, 7, 7, 1], round * 10 + c) {
                        let response = client.post("/topk", &format!(r#"{{"k": {k}}}"#)).unwrap();
                        assert_eq!(response.status, 200, "k = {k}");
                        let epoch = as_u64(&response.body["epoch"]);
                        let (raps, bits, evals) = &expected[epoch as usize - 1][k];
                        assert_eq!(as_u64(&response.body["k"]), k as u64);
                        assert_eq!(&raps_of(&response.body), raps, "epoch {epoch}, k = {k}");
                        assert_eq!(
                            response.body["objective"].as_f64().unwrap().to_bits(),
                            *bits,
                            "epoch {epoch}, k = {k}"
                        );
                        assert_eq!(
                            as_u64(&response.body["gain_evals"]),
                            *evals,
                            "epoch {epoch}, k = {k}"
                        );
                        longest = longest.max(raps.len() as u64);
                    }
                    longest
                })
            })
            .collect()
    };
    let committed_v1: u64 = burst(1)
        .into_iter()
        .map(|h| h.join().unwrap())
        .max()
        .unwrap();

    write_snapshot_atomic(&path, &bytes_v3, &FaultPlan::none()).unwrap();
    let reloaded = client.post("/reload", "").unwrap();
    assert_eq!(reloaded.status, 200);
    assert_eq!(as_u64(&reloaded.body["epoch"]), 2);
    let committed_v3: u64 = burst(2)
        .into_iter()
        .map(|h| h.join().unwrap())
        .max()
        .unwrap();

    // Each epoch's run committed as many RAPs as the longest prefix it
    // served. One request commits each RAP, and may commit several, so
    // each epoch counts at least one extending request and at most one
    // per RAP.
    let extended = topk_extended(&mut client);
    assert!(
        (2..=committed_v1 + committed_v3).contains(&extended),
        "{extended} extending requests for {committed_v1} + {committed_v3} committed RAPs"
    );
    assert_eq!(
        as_u64(&client.get("/metrics").unwrap().body["errors_5xx"]),
        0
    );

    handle.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn old_epoch_readers_survive_rotation_and_reload() {
    let bytes_v1 = snapshot_bytes(1.0, None);
    let path = temp_snapshot("rotate", &bytes_v1);
    let state = ServeState::from_snapshot_file(&path, 1).unwrap();

    let probe = Placement::new(vec![NodeId::new(14), NodeId::new(22)]);
    let old_epoch = state.current();
    let old_objective = old_epoch.scenario.evaluate(&probe);
    assert_eq!(old_epoch.epoch, 1);

    // Rotate the file on disk (atomic temp+fsync+rename) and reload.
    let bytes_v2 = snapshot_bytes(3.0, None);
    write_snapshot_atomic(&path, &bytes_v2, &FaultPlan::none()).unwrap();
    let installed = state.reload().unwrap();
    assert_eq!(installed.epoch, 2);
    assert_eq!(installed.snapshot_crc, snapshot_crc32(&bytes_v2));

    let new_epoch = state.current();
    assert!(Arc::ptr_eq(&installed, &new_epoch));
    let new_objective = new_epoch.scenario.evaluate(&probe);
    assert!(
        (new_objective - 3.0 * old_objective).abs() < 1e-6,
        "tripled volumes must triple the objective ({new_objective} vs {old_objective})"
    );

    // The reader that pinned epoch 1 before the rotation still sees its
    // original scenario, bit for bit.
    assert_eq!(old_epoch.epoch, 1);
    assert_eq!(
        old_epoch.scenario.evaluate(&probe).to_bits(),
        old_objective.to_bits()
    );

    // A later reload replaces the epoch; the earlier reload's answer still
    // describes the epoch it installed.
    let bytes_v3 = snapshot_bytes(5.0, None);
    write_snapshot_atomic(&path, &bytes_v3, &FaultPlan::none()).unwrap();
    let later = state.reload().unwrap();
    assert_eq!(
        (later.epoch, later.snapshot_crc),
        (3, snapshot_crc32(&bytes_v3))
    );
    assert_eq!(
        (installed.epoch, installed.snapshot_crc),
        (2, snapshot_crc32(&bytes_v2))
    );

    std::fs::remove_file(&path).ok();
}

/// A 6×6 snapshot whose first flow drives 0 → 1 → 2, with `edits` written
/// into it as `(section, byte offset, u32)` and every checksum re-sealed:
/// bytes that pass the checksums but carry the decoded state the edits
/// make.
fn resealed_short_flow_snapshot(edits: &[(&str, usize, u32)]) -> Vec<u8> {
    let grid = GridGraph::new(6, 6, Distance::from_feet(400));
    let specs = vec![
        FlowSpec::new(NodeId::new(0), NodeId::new(2), 900.0).unwrap(),
        FlowSpec::new(NodeId::new(5), NodeId::new(30), 700.0).unwrap(),
    ];
    let flows = FlowSet::route(grid.graph(), specs).unwrap();
    let scenario = MutableScenario::new(
        grid.graph().clone(),
        flows,
        vec![grid.center()],
        UtilityKind::Linear.instantiate(Distance::from_feet(2_500)),
    )
    .unwrap();
    let mut bytes = encode_snapshot(&scenario, None, 0, &[]).unwrap();
    let sections = verify_snapshot(&bytes).unwrap().sections;
    for &(name, at, value) in edits {
        let section = sections.iter().find(|s| s.name == name).unwrap();
        let at = section.offset as usize + at;
        bytes[at..at + 4].copy_from_slice(&value.to_le_bytes());
    }
    reseal_snapshot(&mut bytes);
    bytes
}

/// Reloading `bad` over a state serving a good snapshot fails with a
/// typed error naming `what`, counts one rejected reload, and leaves the
/// old epoch serving; starting from `bad` fails the same way.
fn assert_reload_rejects(name: &str, bad: &[u8], what: &str) {
    let path = temp_snapshot(name, &resealed_short_flow_snapshot(&[]));
    let state = ServeState::from_snapshot_file(&path, 1).unwrap();
    let probe = Placement::new(vec![NodeId::new(1), NodeId::new(14)]);
    let before = state.current();
    let objective = before.scenario.evaluate(&probe);

    write_snapshot_atomic(&path, bad, &FaultPlan::none()).unwrap();
    let err = state.reload().unwrap_err();
    assert!(
        matches!(
            err,
            ServeError::Snapshot(SnapshotError::Malformed {
                section: "state",
                ..
            })
        ),
        "{err}"
    );
    assert!(err.to_string().contains(what), "{err}");
    assert_eq!((state.reloads_ok(), state.reloads_failed()), (0, 1));
    let after = state.current();
    assert!(Arc::ptr_eq(&before, &after), "the old epoch keeps serving");
    assert_eq!(after.epoch, 1);
    assert_eq!(
        after.scenario.evaluate(&probe).to_bits(),
        objective.to_bits()
    );
    assert!(matches!(
        ServeState::from_snapshot_file(&path, 1),
        Err(ServeError::Snapshot(SnapshotError::Malformed { .. }))
    ));
    std::fs::remove_file(&path).ok();
}

#[test]
fn reload_rejects_a_path_hop_with_no_edge() {
    // Path 0 → 8 → 2: the endpoints still match the flow, but node 8 sits
    // a row above node 2, two blocks from node 0: the first hop is no
    // street.
    let bad = resealed_short_flow_snapshot(&[("paths", 4, 8)]);
    assert_reload_rejects("hop", &bad, "hops V0 → V8, which no edge connects");
}

#[test]
fn reload_rejects_a_live_flow_that_ends_where_it_starts() {
    // Path 0 → 1 → 0 and destination 0: every hop is a street, but the
    // flow has no distinct endpoints.
    let bad = resealed_short_flow_snapshot(&[("paths", 8, 0), ("flows", 12, 0)]);
    assert_reload_rejects("loop", &bad, "live flow #0 starts and ends at V0");
}

#[test]
fn corrupt_replacement_is_rejected_and_old_epoch_keeps_serving() {
    let bytes = snapshot_bytes(1.0, None);
    let path = temp_snapshot("corrupt", &bytes);
    let (handle, mut client) = start(&path, 2);

    let before = client.get("/healthz").unwrap();
    assert_eq!(as_u64(&before.body["epoch"]), 1);

    // A good reload works, bumps the epoch and reports the file's CRC.
    let reloaded = client.post("/reload", "").unwrap();
    assert_eq!(reloaded.status, 200);
    assert_eq!(as_u64(&reloaded.body["epoch"]), 2);
    assert_eq!(as_u64(&reloaded.body["previous_epoch"]), 1);
    assert_eq!(
        as_u64(&reloaded.body["snapshot_crc"]),
        u64::from(snapshot_crc32(&bytes))
    );

    // Torn write: truncate the file mid-section. The reload must be
    // rejected by the checksums and epoch 2 keeps serving.
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    let rejected = client.post("/reload", "").unwrap();
    assert_eq!(rejected.status, 500);
    assert!(rejected.body["error"]
        .as_str()
        .unwrap()
        .contains("epoch 2 retained"));

    // Bit flip inside a section: same rejection path.
    let mut flipped = bytes.clone();
    let at = flipped.len() - 10;
    flipped[at] ^= 0xFF;
    std::fs::write(&path, &flipped).unwrap();
    assert_eq!(client.post("/reload", "").unwrap().status, 500);

    let after = client.get("/healthz").unwrap();
    assert_eq!(after.status, 200);
    assert_eq!(as_u64(&after.body["epoch"]), 2);
    assert!(client.post("/topk", r#"{"k": 2}"#).unwrap().status == 200);

    let metrics = client.get("/metrics").unwrap();
    assert_eq!(as_u64(&metrics.body["reloads_ok"]), 1);
    assert_eq!(as_u64(&metrics.body["reloads_failed"]), 2);

    handle.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn reload_under_concurrent_load_drops_nothing() {
    let bytes_v1 = snapshot_bytes(1.0, None);
    let bytes_v2 = snapshot_bytes(3.0, None);
    let path = temp_snapshot("concurrent", &bytes_v1);
    let (handle, mut reload_client) = start(&path, 3);
    let addr = handle.addr();

    // Both generations' expected objectives for the probe placement.
    let probe = r#"{"raps": [14, 22]}"#;
    let objective_of = |bytes: &[u8]| {
        let mut m = decode_snapshot(bytes).unwrap().scenario;
        let frozen = m.snapshot();
        frozen.evaluate(&Placement::new(vec![NodeId::new(14), NodeId::new(22)]))
    };
    let expected = [
        objective_of(&bytes_v1).to_bits(),
        objective_of(&bytes_v2).to_bits(),
    ];

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let hammers: Vec<_> = (0..2)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client = Client::new(addr).with_timeout(Duration::from_secs(20));
                let mut served = 0u64;
                let mut last_epoch = 0u64;
                while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                    let response = client.post("/evaluate", probe).expect("in-flight request");
                    assert_eq!(response.status, 200, "no request may fail during reloads");
                    let bits = response.body["objective"].as_f64().unwrap().to_bits();
                    assert!(
                        expected.contains(&bits),
                        "objective must belong to exactly one epoch"
                    );
                    let epoch = response.body["epoch"].as_f64().unwrap() as u64;
                    assert!(epoch >= last_epoch, "epochs must be monotonic per client");
                    last_epoch = epoch;
                    served += 1;
                }
                served
            })
        })
        .collect();

    // Rotate between the two generations under load.
    let mut reloads = 0u64;
    for round in 0..8 {
        let bytes = if round % 2 == 0 { &bytes_v2 } else { &bytes_v1 };
        write_snapshot_atomic(&path, bytes, &FaultPlan::none()).unwrap();
        let response = reload_client.post("/reload", "").unwrap();
        assert_eq!(response.status, 200);
        reloads += 1;
        std::thread::sleep(Duration::from_millis(30));
    }
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    let served: u64 = hammers.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(served > 0, "hammer threads must have exercised the swap");
    assert_eq!(reloads, 8);

    let health = reload_client.get("/healthz").unwrap();
    assert_eq!(as_u64(&health.body["epoch"]), 1 + reloads);

    handle.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn graceful_shutdown_drains_and_joins() {
    let bytes = snapshot_bytes(1.0, None);
    let path = temp_snapshot("shutdown", &bytes);
    let (handle, mut client) = start(&path, 2);
    assert_eq!(client.get("/healthz").unwrap().status, 200);
    handle.shutdown(); // joins every worker; must not hang or panic
    assert!(
        client.get("/healthz").is_err(),
        "server must stop accepting"
    );
    std::fs::remove_file(&path).ok();
}
