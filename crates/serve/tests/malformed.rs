//! Malformed-input coverage: every hostile byte stream must produce a 4xx
//! (or a clean close) and the server must keep serving — no panics, no
//! worker respawns. The fuzz-ish sweep uses deterministic seeds in the
//! style of `rap_core::faults::FaultPlan` so failures replay exactly.

use rap_core::{encode_snapshot, write_snapshot_atomic, FaultPlan, MutableScenario, UtilityKind};
use rap_graph::{Distance, GridGraph, NodeId};
use rap_serve::{serve, Client, ServeState, ServerConfig, ServerHandle, MAX_HEADER_BYTES};
use rap_traffic::{FlowSet, FlowSpec};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn scenario() -> MutableScenario {
    let grid = GridGraph::new(5, 5, Distance::from_feet(400));
    let flows = FlowSet::route(
        grid.graph(),
        vec![
            FlowSpec::new(NodeId::new(0), NodeId::new(24), 800.0).unwrap(),
            FlowSpec::new(NodeId::new(4), NodeId::new(20), 400.0).unwrap(),
        ],
    )
    .unwrap();
    MutableScenario::new(
        grid.graph().clone(),
        flows,
        vec![grid.center()],
        UtilityKind::Linear.instantiate(Distance::from_feet(2_000)),
    )
    .unwrap()
}

fn start(name: &str) -> (ServerHandle, PathBuf) {
    let bytes = encode_snapshot(&scenario(), None, 0, &[]).unwrap();
    let path = std::env::temp_dir().join(format!(
        "rap_serve_malformed_{name}_{}.snap",
        std::process::id()
    ));
    write_snapshot_atomic(&path, &bytes, &FaultPlan::none()).unwrap();
    let state = Arc::new(ServeState::from_snapshot_file(&path, 1).unwrap());
    let handle = serve(
        state,
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            read_timeout: Duration::from_millis(50),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    (handle, path)
}

/// Sends raw bytes, optionally half-closing the write side, and returns
/// whatever the server answered (empty when it just closed).
fn send_raw(handle: &ServerHandle, payload: &[u8], shutdown_write: bool) -> String {
    let stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut stream = stream;
    // The server may answer-and-close while we are still writing (e.g.
    // oversized headers); treat a broken pipe as "response ready".
    let _ = stream.write_all(payload);
    let _ = stream.flush();
    if shutdown_write {
        let _ = stream.shutdown(std::net::Shutdown::Write);
    }
    let mut response = Vec::new();
    let _ = stream.read_to_end(&mut response);
    String::from_utf8_lossy(&response).into_owned()
}

fn status_of(response: &str) -> Option<u16> {
    response
        .strip_prefix("HTTP/1.1 ")?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

fn assert_alive(handle: &ServerHandle) {
    let mut client = Client::new(handle.addr()).with_timeout(Duration::from_secs(20));
    let health = client.get("/healthz").expect("server must stay up");
    assert_eq!(health.status, 200);
    assert_eq!(
        handle
            .metrics()
            .worker_respawns
            .load(std::sync::atomic::Ordering::Relaxed),
        0,
        "malformed input must never panic a worker"
    );
}

#[test]
fn protocol_violations_get_typed_4xx_5xx() {
    let (handle, path) = start("protocol");
    let cases: &[(&[u8], u16, &str)] = &[
        (b"DELETE /healthz HTTP/1.1\r\n\r\n", 405, "unknown method"),
        (b"GET /healthz HTTP/2.0\r\n\r\n", 505, "bad version"),
        (b"GET /healthz\r\n\r\n", 400, "missing version"),
        (
            b"\x01\x02\xFF\xFE garbage\r\n\r\n",
            400,
            "binary request line",
        ),
        (
            b"POST /evaluate HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
            400,
            "unparsable content-length",
        ),
        (
            b"POST /evaluate HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 9\r\n\r\nxxxxx",
            400,
            "conflicting content-lengths",
        ),
        (
            b"POST /evaluate HTTP/1.1\r\nContent-Length: 3000000\r\n\r\n",
            413,
            "declared body over the cap",
        ),
        (
            b"POST /evaluate HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            501,
            "chunked framing",
        ),
        (
            b"GET /healthz HTTP/1.1\r\nno-colon-here\r\n\r\n",
            400,
            "header without a colon",
        ),
        (
            b"POST /topk HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}",
            400,
            "valid JSON with missing field",
        ),
    ];
    for (payload, expected, what) in cases {
        let response = send_raw(&handle, payload, true);
        assert_eq!(
            status_of(&response),
            Some(*expected),
            "{what}: got {response:?}"
        );
        assert_alive(&handle);
    }
    handle.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn oversized_headers_are_431() {
    let (handle, path) = start("headers");
    let mut payload = b"GET /healthz HTTP/1.1\r\n".to_vec();
    payload.extend_from_slice(format!("X-Pad: {}\r\n", "a".repeat(MAX_HEADER_BYTES)).as_bytes());
    payload.extend_from_slice(b"\r\n");
    let response = send_raw(&handle, &payload, true);
    assert_eq!(status_of(&response), Some(431), "got {response:?}");
    assert_alive(&handle);
    handle.shutdown();
    std::fs::remove_file(&path).ok();
}

#[test]
fn truncated_bodies_are_408() {
    let (handle, path) = start("truncated");
    // EOF mid-body (half-close after 3 of 10 promised bytes).
    let response = send_raw(
        &handle,
        b"POST /evaluate HTTP/1.1\r\nContent-Length: 10\r\n\r\nxyz",
        true,
    );
    assert_eq!(status_of(&response), Some(408), "eof: {response:?}");
    assert_alive(&handle);

    // Stalled peer: connection left open but silent; the read timeout
    // must fire instead of wedging the worker.
    let response = send_raw(
        &handle,
        b"POST /evaluate HTTP/1.1\r\nContent-Length: 10\r\n\r\nxyz",
        false,
    );
    assert_eq!(status_of(&response), Some(408), "stall: {response:?}");
    assert_alive(&handle);

    // Truncated header line, same treatment.
    let response = send_raw(&handle, b"GET /healthz HT", true);
    assert_eq!(status_of(&response), Some(408), "header: {response:?}");
    assert_alive(&handle);
    handle.shutdown();
    std::fs::remove_file(&path).ok();
}

/// Deterministic xorshift so every fuzz case replays from its seed alone
/// (the `FaultPlan` discipline: print the seed, reproduce the run).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

#[test]
fn seeded_fuzz_never_panics_the_server() {
    let (handle, path) = start("fuzz");
    for seed in 1u64..=40 {
        let mut rng = Lcg(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let len = (rng.next() % 300) as usize + 1;
        let mut payload = Vec::with_capacity(len);
        // Half the seeds start with a plausible prefix so the fuzz reaches
        // deeper parse states; the rest are raw noise.
        if seed % 2 == 0 {
            payload.extend_from_slice(b"POST /topk HTTP/1.1\r\n");
        }
        for _ in 0..len {
            payload.push((rng.next() % 256) as u8);
        }
        let response = send_raw(&handle, &payload, seed % 3 == 0);
        if let Some(status) = status_of(&response) {
            assert!(
                (400..=505).contains(&status),
                "seed {seed}: fuzz input answered {status}"
            );
        }
        if seed % 10 == 0 {
            assert_alive(&handle);
        }
    }
    assert_alive(&handle);
    handle.shutdown();
    std::fs::remove_file(&path).ok();
}
