//! `bench_serve` — the serving-layer traffic harness behind
//! `BENCH_serve.json`: the repo's first end-to-end requests/sec number.
//!
//! Spins up the real `rap-serve` worker pool over a snapshot of a
//! grid scenario and drives it with closed-loop in-process clients
//! (one per worker) over keep-alive connections, measuring:
//!
//! * **requests/sec and p50/p99/max latency** for `POST /evaluate` and
//!   `POST /topk` at 1, 4, and 8 workers;
//! * **reload-under-load**: `/reload` latency while 4 clients hammer
//!   `/evaluate`, asserting zero dropped or failed requests across the
//!   epoch swaps;
//! * the **`/topk` bit-identity** contract against the offline CELF
//!   greedy, checked on every single response.
//!
//! Scaling gates (4 workers must out-serve 1) are enforced only on hosts
//! with at least four cores — a timesharing single-core host cannot
//! honestly falsify a parallel-scaling claim.
//!
//! Usage: `cargo run --release -p rap-bench --bin bench_serve [--smoke] [OUT.json]`
//! (default output path `BENCH_serve.json`; `--smoke` shrinks the
//! instance and durations for CI).

use rap_core::{
    encode_snapshot, write_snapshot_atomic, FaultPlan, LazyGreedy, MutableScenario, UtilityKind,
};
use rap_graph::{Distance, GridGraph};
use rap_serve::{serve, Client, ServeState, ServerConfig, ServerHandle};
use rap_traffic::demand::{uniform_demand, DemandParams};
use rap_traffic::FlowSet;
use serde::Serialize;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEED: u64 = 2015;
const THREADS: usize = 2;

struct Config {
    grid_side: u32,
    flows: usize,
    k: usize,
    warmup: Duration,
    measure: Duration,
    worker_counts: &'static [usize],
}

impl Config {
    fn full() -> Config {
        Config {
            grid_side: 30,
            flows: 1_500,
            k: 8,
            warmup: Duration::from_millis(300),
            measure: Duration::from_millis(1_500),
            worker_counts: &[1, 4, 8],
        }
    }

    /// CI smoke scale: seconds, not minutes, while still exercising every
    /// endpoint, the identity assertion, and the reload-under-load sweep.
    fn smoke() -> Config {
        Config {
            grid_side: 16,
            flows: 400,
            k: 5,
            warmup: Duration::from_millis(100),
            measure: Duration::from_millis(400),
            worker_counts: &[1, 4],
        }
    }
}

#[derive(Serialize)]
struct HostMeta {
    cores: usize,
    smoke: bool,
    hard_gates: bool,
}

#[derive(Serialize)]
struct ScenarioMeta {
    grid_side: u32,
    nodes: usize,
    flows: usize,
    candidates: usize,
    k: usize,
    snapshot_bytes: usize,
    seed: u64,
}

#[derive(Clone, Serialize)]
struct ThroughputRow {
    endpoint: &'static str,
    workers: usize,
    clients: usize,
    requests: u64,
    rps: f64,
    p50_us: u64,
    p99_us: u64,
    max_us: u64,
}

#[derive(Serialize)]
struct ReloadUnderLoad {
    workers: usize,
    hammer_clients: usize,
    reloads: u64,
    reload_p50_us: u64,
    reload_max_us: u64,
    hammer_requests: u64,
    hammer_failures: u64,
    hammer_p99_us: u64,
}

#[derive(Serialize)]
struct Gates {
    evaluate_4w_over_1w: f64,
    topk_4w_over_1w: f64,
    enforced: bool,
}

#[derive(Serialize)]
struct Report {
    host: HostMeta,
    scenario: ScenarioMeta,
    throughput: Vec<ThroughputRow>,
    reload_under_load: ReloadUnderLoad,
    gates: Gates,
}

fn build_scenario(config: &Config) -> MutableScenario {
    let grid = GridGraph::new(config.grid_side, config.grid_side, Distance::from_feet(500));
    let specs = uniform_demand(
        grid.graph(),
        DemandParams {
            flows: config.flows,
            min_volume: 100.0,
            max_volume: 1_000.0,
            attractiveness: 0.001,
        },
        SEED,
    )
    .expect("demand parameters valid");
    let flows = FlowSet::route_parallel(grid.graph(), specs, THREADS).expect("grid routes");
    let threshold = Distance::from_feet(u64::from(config.grid_side) * 250);
    MutableScenario::new_with_threads(
        grid.graph().clone(),
        flows,
        vec![grid.center()],
        UtilityKind::Linear.instantiate(threshold),
        THREADS,
    )
    .expect("scenario valid")
}

fn start_server(path: &std::path::Path, workers: usize) -> ServerHandle {
    let state = Arc::new(ServeState::from_snapshot_file(path, THREADS).expect("snapshot loads"));
    serve(
        state,
        "127.0.0.1:0",
        ServerConfig {
            workers,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback")
}

struct Expected {
    topk_ids: Vec<u64>,
    topk_objective_bits: u64,
    evaluate_body: String,
    topk_body: String,
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Closed-loop load: `clients` threads each issue `endpoint` requests
/// back-to-back over keep-alive until the measure window closes.
fn drive(
    handle: &ServerHandle,
    endpoint: &'static str,
    workers: usize,
    config: &Config,
    expected: &Expected,
) -> ThroughputRow {
    let clients = workers;
    let addr = handle.addr();
    let warmup_until = Instant::now() + config.warmup;
    let measure_until = warmup_until + config.measure;
    let threads: Vec<_> = (0..clients)
        .map(|_| {
            let body = match endpoint {
                "evaluate" => expected.evaluate_body.clone(),
                _ => expected.topk_body.clone(),
            };
            let topk_ids = expected.topk_ids.clone();
            let objective_bits = expected.topk_objective_bits;
            std::thread::spawn(move || {
                let mut client = Client::new(addr).with_timeout(Duration::from_secs(30));
                let path = format!("/{endpoint}");
                let mut latencies: Vec<u64> = Vec::with_capacity(4_096);
                loop {
                    let now = Instant::now();
                    if now >= measure_until {
                        break;
                    }
                    let start = Instant::now();
                    let response = client.post(&path, &body).expect("request succeeds");
                    let elapsed = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
                    assert_eq!(response.status, 200, "{endpoint} must not fail under load");
                    let bits = response.body["objective"]
                        .as_f64()
                        .expect("objective present")
                        .to_bits();
                    assert_eq!(
                        bits, objective_bits,
                        "{endpoint} objective must be bit-identical to the offline engine"
                    );
                    if endpoint == "topk" {
                        let served: Vec<u64> = match &response.body["raps"] {
                            serde::Value::Seq(items) => items
                                .iter()
                                .map(|v| v.as_f64().expect("rap id") as u64)
                                .collect(),
                            other => panic!("raps not an array: {other:?}"),
                        };
                        assert_eq!(served, topk_ids, "topk placement drifted");
                    }
                    if now >= warmup_until {
                        latencies.push(elapsed);
                    }
                }
                latencies
            })
        })
        .collect();
    let mut latencies: Vec<u64> = Vec::new();
    for thread in threads {
        latencies.extend(thread.join().expect("client thread"));
    }
    latencies.sort_unstable();
    let requests = latencies.len() as u64;
    let rps = requests as f64 / config.measure.as_secs_f64();
    ThroughputRow {
        endpoint,
        workers,
        clients,
        requests,
        rps,
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
        max_us: latencies.last().copied().unwrap_or(0),
    }
}

fn reload_under_load(
    path: &std::path::Path,
    bytes: &[u8],
    config: &Config,
    expected: &Expected,
) -> ReloadUnderLoad {
    let workers = 4;
    let handle = start_server(path, workers);
    let addr = handle.addr();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let hammer_clients = 4;
    let hammers: Vec<_> = (0..hammer_clients)
        .map(|_| {
            let stop = Arc::clone(&stop);
            let body = expected.evaluate_body.clone();
            std::thread::spawn(move || {
                let mut client = Client::new(addr).with_timeout(Duration::from_secs(30));
                let mut latencies: Vec<u64> = Vec::new();
                let mut failures = 0u64;
                while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                    let start = Instant::now();
                    match client.post("/evaluate", &body) {
                        Ok(response) if response.status == 200 => {
                            latencies.push(u64::try_from(start.elapsed().as_micros()).unwrap_or(0));
                        }
                        Ok(_) | Err(_) => failures += 1,
                    }
                }
                (latencies, failures)
            })
        })
        .collect();

    // Rotate the snapshot on disk and reload it, repeatedly, under load.
    let mut reload_client = Client::new(addr).with_timeout(Duration::from_secs(30));
    let mut reload_latencies: Vec<u64> = Vec::new();
    let deadline = Instant::now() + config.measure;
    while Instant::now() < deadline {
        write_snapshot_atomic(path, bytes, &FaultPlan::none()).expect("rotate snapshot");
        let start = Instant::now();
        let response = reload_client.post("/reload", "").expect("reload request");
        assert_eq!(response.status, 200, "reload must succeed under load");
        reload_latencies.push(u64::try_from(start.elapsed().as_micros()).unwrap_or(0));
        std::thread::sleep(Duration::from_millis(40));
    }
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    let mut hammer_latencies: Vec<u64> = Vec::new();
    let mut hammer_failures = 0u64;
    for hammer in hammers {
        let (latencies, failures) = hammer.join().expect("hammer thread");
        hammer_latencies.extend(latencies);
        hammer_failures += failures;
    }
    assert_eq!(
        hammer_failures, 0,
        "epoch swaps must not drop or fail in-flight requests"
    );
    hammer_latencies.sort_unstable();
    reload_latencies.sort_unstable();
    let epochs = reload_latencies.len() as u64 + 1;
    let health = reload_client.get("/healthz").expect("final healthz");
    assert_eq!(
        health.body["epoch"].as_f64().map(|e| e as u64),
        Some(epochs),
        "every reload must have bumped the epoch exactly once"
    );
    handle.shutdown();
    ReloadUnderLoad {
        workers,
        hammer_clients,
        reloads: reload_latencies.len() as u64,
        reload_p50_us: percentile(&reload_latencies, 0.50),
        reload_max_us: reload_latencies.last().copied().unwrap_or(0),
        hammer_requests: hammer_latencies.len() as u64,
        hammer_failures,
        hammer_p99_us: percentile(&hammer_latencies, 0.99),
    }
}

fn main() {
    let mut smoke = false;
    let mut out_path = "BENCH_serve.json".to_string();
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else {
            out_path = arg;
        }
    }
    let config = if smoke {
        Config::smoke()
    } else {
        Config::full()
    };
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let hard_gates = cores >= 4 && !smoke;

    eprintln!(
        "bench_serve: building {0}x{0} grid, {1} flows ...",
        config.grid_side, config.flows
    );
    let mut scenario = build_scenario(&config);
    let bytes = encode_snapshot(&scenario, None, 0, &[]).expect("encodable");
    let snap_path: PathBuf = std::env::temp_dir().join(format!(
        "bench_serve_{}_{}.snap",
        std::process::id(),
        config.grid_side
    ));
    write_snapshot_atomic(&snap_path, &bytes, &FaultPlan::none()).expect("snapshot written");

    // Offline reference for the bit-identity contract and request bodies.
    let frozen = scenario.snapshot();
    let (reference, _) = LazyGreedy.place_with_stats(&frozen, config.k);
    let topk_ids: Vec<u64> = reference
        .raps()
        .iter()
        .map(|r| u64::from(r.raw()))
        .collect();
    let objective = frozen.evaluate(&reference);
    let id_list = topk_ids
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(", ");
    let expected = Expected {
        topk_objective_bits: objective.to_bits(),
        evaluate_body: format!("{{\"raps\": [{id_list}]}}"),
        topk_body: format!("{{\"k\": {}}}", config.k),
        topk_ids,
    };

    let mut throughput: Vec<ThroughputRow> = Vec::new();
    for &workers in config.worker_counts {
        let handle = start_server(&snap_path, workers);
        for endpoint in ["evaluate", "topk"] {
            let row = drive(&handle, endpoint, workers, &config, &expected);
            eprintln!(
                "  {endpoint:>8} @ {workers} worker(s): {:.0} req/s  p50 {} us  p99 {} us ({} requests)",
                row.rps, row.p50_us, row.p99_us, row.requests
            );
            throughput.push(row);
        }
        handle.shutdown();
    }

    eprintln!("bench_serve: reload under load ...");
    let reload = reload_under_load(&snap_path, &bytes, &config, &expected);
    eprintln!(
        "  {} reloads: p50 {} us, max {} us; {} hammer requests, {} failures",
        reload.reloads,
        reload.reload_p50_us,
        reload.reload_max_us,
        reload.hammer_requests,
        reload.hammer_failures
    );

    let rps_of = |endpoint: &str, workers: usize| {
        throughput
            .iter()
            .find(|row| row.endpoint == endpoint && row.workers == workers)
            .map_or(f64::NAN, |row| row.rps)
    };
    let evaluate_ratio = rps_of("evaluate", 4) / rps_of("evaluate", 1);
    let topk_ratio = rps_of("topk", 4) / rps_of("topk", 1);
    for (label, ratio) in [("evaluate", evaluate_ratio), ("topk", topk_ratio)] {
        if ratio.is_nan() {
            continue;
        }
        if ratio > 1.0 {
            eprintln!("  gate ok: {label} 4-worker/1-worker throughput = {ratio:.2}x");
        } else if hard_gates {
            panic!("{label}: 4 workers must out-serve 1 on a {cores}-core host (got {ratio:.2}x)");
        } else {
            eprintln!(
                "  gate waived ({cores} core(s){}): {label} 4w/1w = {ratio:.2}x",
                if smoke { ", smoke" } else { "" }
            );
        }
    }

    let report = Report {
        host: HostMeta {
            cores,
            smoke,
            hard_gates,
        },
        scenario: ScenarioMeta {
            grid_side: config.grid_side,
            nodes: (config.grid_side * config.grid_side) as usize,
            flows: config.flows,
            candidates: frozen.candidates().len(),
            k: config.k,
            snapshot_bytes: bytes.len(),
            seed: SEED,
        },
        throughput,
        reload_under_load: reload,
        gates: Gates {
            evaluate_4w_over_1w: evaluate_ratio,
            topk_4w_over_1w: topk_ratio,
            enforced: hard_gates,
        },
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, format!("{json}\n")).expect("report written");
    std::fs::remove_file(&snap_path).ok();
    eprintln!("bench_serve: wrote {out_path}");
}
