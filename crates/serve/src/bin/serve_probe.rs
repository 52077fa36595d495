//! CI smoke probe: hits a running `rap serve` instance and asserts the
//! JSON contract of every endpoint, exiting nonzero on the first failure.
//! `/topk` is checked for the prefix property on the epoch it starts on and
//! again on the epoch its own `/reload` swaps in.
//!
//! ```text
//! serve_probe ADDR [--min-epoch N] [--skip-reload] [--expect-crc CRC]
//! ```
//!
//! `--min-epoch` additionally asserts that `/healthz` reports at least
//! that epoch (used to check a trigger-file reload happened);
//! `--skip-reload` leaves `/reload` untested (for read-only checks);
//! `--expect-crc` (`0x` and hex, as `rap snapshot info` prints it) asserts
//! that `/metrics` and the `/reload` body report that snapshot CRC.

use rap_serve::Client;
use serde::Value;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

fn fail(message: &str) -> ! {
    eprintln!("serve_probe: FAIL: {message}");
    std::process::exit(1);
}

fn check(condition: bool, message: &str) {
    if !condition {
        fail(message);
    }
}

fn num(value: &Value, key: &str) -> f64 {
    value[key]
        .as_f64()
        .unwrap_or_else(|| fail(&format!("missing numeric field `{key}` in {value:?}")))
}

fn raps_of(body: &Value, what: &str) -> Vec<u64> {
    match &body["raps"] {
        Value::Seq(items) => items
            .iter()
            .map(|r| {
                r.as_f64()
                    .unwrap_or_else(|| fail(&format!("{what}: rap id"))) as u64
            })
            .collect(),
        other => fail(&format!("{what}: raps not an array: {other:?}")),
    }
}

/// `/topk` at `k`, whose objective must be bit-identical to `/evaluate` of
/// its RAPs (same scenario epoch, same arithmetic). Returns the RAPs.
fn topk(client: &mut Client, k: usize) -> Vec<u64> {
    let what = format!("/topk k={k}");
    let topk = client
        .post("/topk", &format!(r#"{{"k": {k}}}"#))
        .unwrap_or_else(|e| fail(&format!("{what}: {e}")));
    check(topk.status == 200, &format!("{what} status"));
    let raps = raps_of(&topk.body, &what);
    check(
        !raps.is_empty() && raps.len() <= k,
        &format!("{what} raps length"),
    );
    let objective = num(&topk.body, "objective");
    check(objective > 0.0, &format!("{what} objective > 0"));
    let rap_list: Vec<String> = raps.iter().map(u64::to_string).collect();
    let body = format!(r#"{{"raps": [{}]}}"#, rap_list.join(", "));
    let evaluated = client.post("/evaluate", &body).expect("/evaluate");
    check(evaluated.status == 200, "/evaluate status");
    check(
        num(&evaluated.body, "objective").to_bits() == objective.to_bits(),
        &format!("/evaluate objective bit-identical to {what}"),
    );
    raps
}

/// `/topk` at k = 8, then k = 3: both answers come from the epoch's one
/// greedy run, so the shorter must be a prefix of the longer. Returns the
/// k = 3 RAP count.
fn check_topk_prefix(client: &mut Client) -> usize {
    let long = topk(client, 8);
    let short = topk(client, 3);
    check(
        long.starts_with(&short),
        &format!("/topk k=3 {short:?} is a prefix of k=8 {long:?}"),
    );
    short.len()
}

/// Parses a CRC32 written as `rap snapshot info` prints it: `0x` and hex.
fn parse_crc(text: &str) -> Option<u32> {
    u32::from_str_radix(text.strip_prefix("0x")?, 16).ok()
}

/// Asserts a body's `snapshot_crc` equals `expected`, when one is given.
fn check_crc(body: &Value, expected: Option<u32>, what: &str) {
    if let Some(crc) = expected {
        let served = num(body, "snapshot_crc");
        check(
            served == f64::from(crc),
            &format!("{what} snapshot_crc {served} is the file's crc32 0x{crc:08X}"),
        );
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(addr) = args.next() else {
        eprintln!("usage: serve_probe ADDR [--min-epoch N] [--skip-reload] [--expect-crc CRC]");
        std::process::exit(2);
    };
    let mut min_epoch = 0u64;
    let mut skip_reload = false;
    let mut expect_crc = None;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--min-epoch" => {
                min_epoch = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| fail("--min-epoch needs an integer"));
            }
            "--skip-reload" => skip_reload = true,
            "--expect-crc" => {
                expect_crc = Some(
                    args.next()
                        .as_deref()
                        .and_then(parse_crc)
                        .unwrap_or_else(|| fail("--expect-crc needs a CRC32 as 0x-prefixed hex")),
                );
            }
            other => fail(&format!("unknown flag `{other}`")),
        }
    }
    let addr: SocketAddr = addr
        .parse()
        .unwrap_or_else(|_| fail("ADDR must be ip:port"));

    // The server may still be binding, and a just-touched trigger file may
    // not have been consumed yet; retry until healthy AND at the required
    // epoch, within one shared deadline.
    let mut client = Client::new(addr).with_timeout(Duration::from_secs(15));
    let deadline = Instant::now() + Duration::from_secs(10);
    let (health, epoch) = loop {
        match client.get("/healthz") {
            Ok(response) => {
                let epoch = num(&response.body, "epoch") as u64;
                if epoch >= min_epoch {
                    break (response, epoch);
                }
                if Instant::now() >= deadline {
                    fail(&format!("/healthz epoch {epoch} < required {min_epoch}"));
                }
                eprintln!("serve_probe: epoch {epoch} < {min_epoch}, waiting for reload");
                std::thread::sleep(Duration::from_millis(200));
            }
            Err(e) if Instant::now() < deadline => {
                eprintln!("serve_probe: waiting for server ({e})");
                std::thread::sleep(Duration::from_millis(200));
            }
            Err(e) => fail(&format!("server never came up: {e}")),
        }
    };
    check(health.status == 200, "/healthz status");
    check(health.body["status"] == "ok", "/healthz body.status");
    check(epoch >= 1, "/healthz epoch >= 1");

    let metrics = client.get("/metrics").expect("/metrics");
    check(metrics.status == 200, "/metrics status");
    for key in [
        "epoch",
        "snapshot_crc",
        "requests",
        "live_flows",
        "topk_extended",
    ] {
        let _ = num(&metrics.body, key);
    }
    check(
        metrics.body["evaluate"].get("p99_us").is_some(),
        "/metrics evaluate.p99_us",
    );
    check_crc(&metrics.body, expect_crc, "/metrics");

    let placement = client.get("/placement").expect("/placement");
    check(placement.status == 200, "/placement status");

    let raps = check_topk_prefix(&mut client);

    // Malformed input must be 4xx, never a dropped connection.
    let bad = client.post("/topk", "not json").expect("malformed /topk");
    check(bad.status == 400, "malformed /topk is 400");
    let missing = client.get("/no-such-route").expect("unknown route");
    check(missing.status == 404, "unknown route is 404");
    let wrong = client.get("/topk").expect("GET /topk");
    check(wrong.status == 405, "GET /topk is 405");

    if !skip_reload {
        let reload = client.post("/reload", "").expect("/reload");
        check(reload.status == 200, "/reload status");
        check(reload.body["status"] == "reloaded", "/reload body.status");
        let new_epoch = num(&reload.body, "epoch") as u64;
        check(new_epoch == epoch + 1, "/reload bumps epoch by one");
        check_crc(&reload.body, expect_crc, "/reload");
        let health = client.get("/healthz").expect("/healthz after reload");
        check(
            num(&health.body, "epoch") as u64 == new_epoch,
            "/healthz reflects reloaded epoch",
        );
        let metrics = client.get("/metrics").expect("/metrics after reload");
        check_crc(&metrics.body, expect_crc, "/metrics after reload");
        check_topk_prefix(&mut client);
    }

    println!("serve_probe: OK (epoch {epoch}, {raps} raps)");
}
