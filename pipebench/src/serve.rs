//! `serve-query`: one keep-alive client against a one-worker `rap serve`.
//!
//! Set-up loads the snapshot and starts the server. One op is one request:
//! 80 % `/evaluate` of a random 1–20-RAP placement, 20 % `/topk` with
//! k = 1–20, and a `/reload` every [`RELOAD_EVERY`] requests. Response
//! bodies are stored during the loop and verified after each reload
//! window, off the clock.

use crate::calib::Kernel;
use crate::client::RawClient;
use crate::measure::{derive_seed, ms, span_p50_ms, Config, Outcome, Size};
use crate::stats;
use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rap_core::{
    decode_snapshot_with_threads, encode_snapshot, snapshot_crc32, write_snapshot_atomic,
    FaultPlan, InvertedGainEngine, InvertedIndex, MarginalGreedy, MutableScenario, Placement,
    PlacementAlgorithm, PlacementReport, Scenario, UtilityKind,
};
use rap_graph::{Distance, GridGraph, NodeId};
use rap_serve::{serve, ServeState, ServerConfig};
use rap_traffic::demand::{uniform_demand, DemandParams};
use rap_traffic::FlowSet;
use serde::Value;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests between two `/reload`s.
const RELOAD_EVERY: u64 = 2_000;
/// Cold set-ups per run; set-up reports their median.
const SETUPS: usize = 15;
/// Largest placement and largest k a request asks for.
const MAX_RAPS: usize = 20;
/// Threads the state uses to decode snapshots and build its index.
const STATE_THREADS: usize = 1;
/// Requests per second no host reaches with one worker and one client.
const MAX_OPS_PER_S: f64 = 50_000.0;
/// Requests the traced run replays offline to time the handlers' cores.
const OFFLINE_SAMPLE: usize = 2_000;
/// Requests between two host-speed kernel samples.
const SAMPLE_EVERY: u64 = 1_000;

struct Instance {
    side: u32,
    flows: usize,
    reload_every: u64,
}

fn instance(size: Size) -> Instance {
    match size {
        Size::Full => Instance {
            side: 60,
            flows: 3_000,
            reload_every: RELOAD_EVERY,
        },
        Size::Tiny => Instance {
            side: 12,
            flows: 150,
            reload_every: 40,
        },
    }
}

#[derive(Clone, Debug)]
enum Request {
    Evaluate(Vec<u32>),
    Topk(usize),
    Reload,
}

impl Request {
    fn span(&self) -> &'static str {
        match self {
            Request::Evaluate(_) => "serve.request.evaluate",
            Request::Topk(_) => "serve.request.topk",
            Request::Reload => "serve.request.reload",
        }
    }
}

fn scenario(cfg: &Config, inst: &Instance) -> MutableScenario {
    let grid = GridGraph::new(inst.side, inst.side, Distance::from_feet(500));
    let params = DemandParams {
        flows: inst.flows,
        min_volume: 100.0,
        max_volume: 1_000.0,
        attractiveness: 0.001,
    };
    let specs = uniform_demand(grid.graph(), params, derive_seed(cfg.seed, 1))
        .expect("demand parameters are valid");
    let flows = FlowSet::route(grid.graph(), specs).expect("a grid routes every flow");
    let threshold = Distance::from_feet(u64::from(inst.side) * 250);
    MutableScenario::new(
        grid.graph().clone(),
        flows,
        vec![grid.center()],
        UtilityKind::Linear.instantiate(threshold),
    )
    .expect("grid scenario is valid")
}

pub fn run(cfg: &Config, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let inst = instance(cfg.size);
    let mut source = scenario(cfg, &inst);
    let bytes = encode_snapshot(&source, None, 0, &[]).expect("linear utility encodes");
    let crc = snapshot_crc32(&bytes);
    let candidates: Vec<u32> = source
        .snapshot()
        .candidates()
        .iter()
        .map(|c| c.raw())
        .collect();
    drop(source);
    let path = cfg.work_dir.join("serve.snap");
    write_snapshot_atomic(&path, &bytes, &FaultPlan::none()).expect("work dir is writable");

    let config = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    out.threads.push(("serve.workers", config.workers));
    out.threads.push(("serve.state_threads", STATE_THREADS));

    // Set-up: snapshot load plus server start, until the listener is bound
    // and listening; each set-up shuts the previous server down first.
    let mut handle = None;
    let mut kernel = [Kernel::new()];
    for _ in 0..SETUPS {
        drop(handle.take());
        out.setup_reference
            .sample_on(out.setups_s.len(), &mut kernel);
        let start = Instant::now();
        let state = tracer.span("serve.state.from_snapshot_file", || {
            ServeState::from_snapshot_file(&path, STATE_THREADS)
        });
        let state = match state {
            Ok(s) => Arc::new(s),
            Err(e) => {
                out.errors.push(format!("snapshot failed to load: {e}"));
                return out;
            }
        };
        let started = tracer.span("serve.server.serve", || serve(state, "127.0.0.1:0", config));
        out.setups_s.push(start.elapsed().as_secs_f64());
        match started {
            Ok(h) => handle = Some(h),
            Err(e) => {
                out.errors.push(format!("server failed to start: {e}"));
                return out;
            }
        }
    }
    let handle = handle.expect("at least one set-up ran");
    let mut client = RawClient::new(handle.addr());
    // Opens the connection and lets the worker accept it before timing.
    if let Err(e) = client.send("GET", "/healthz", "") {
        out.errors.push(format!("server does not answer: {e}"));
        return out;
    }

    // The reference the stored bodies are checked against: the same
    // snapshot, decoded offline.
    let mut checker = match Checker::new(tracer, &bytes, crc) {
        Ok(c) => c,
        Err(e) => {
            out.errors.push(e);
            return out;
        }
    };
    out.ops.reserve(cfg.measure, MAX_OPS_PER_S);
    let mut rng = StdRng::seed_from_u64(derive_seed(cfg.seed, 2));
    let mut log: Vec<(Request, u16, Vec<u8>)> = Vec::new();
    let start = Instant::now();
    // Time spent on body checks and kernel samples, which is not measured.
    let mut paused = Duration::ZERO;
    while start.elapsed() - paused < cfg.measure || out.attempted < inst.reload_every {
        if out.attempted.is_multiple_of(SAMPLE_EVERY) {
            let t = Instant::now();
            out.reference.sample_on(out.ops.len(), &mut kernel);
            paused += t.elapsed();
        }
        let request = if (out.attempted + 1) % inst.reload_every == 0 {
            Request::Reload
        } else if rng.random_range(0.0..1.0) < 0.8 {
            let size = rng.random_range(1..=MAX_RAPS.min(candidates.len()));
            let mut raps: Vec<u32> = Vec::with_capacity(size);
            while raps.len() < size {
                let c = candidates[rng.random_range(0..candidates.len())];
                if !raps.contains(&c) {
                    raps.push(c);
                }
            }
            Request::Evaluate(raps)
        } else {
            Request::Topk(rng.random_range(1..=MAX_RAPS.min(candidates.len())))
        };
        let (path, body) = match &request {
            Request::Evaluate(raps) => ("/evaluate", format!("{{\"raps\":{raps:?}}}")),
            Request::Topk(k) => ("/topk", format!("{{\"k\":{k}}}")),
            Request::Reload => ("/reload", String::new()),
        };
        let span = tracer.begin(request.span());
        let response = out.ops.time(|| client.send("POST", path, &body));
        tracer.end(span);
        out.attempted += 1;
        let batch_done = matches!(request, Request::Reload);
        match response {
            Ok(r) => {
                if r.status != 200 {
                    out.failed += 1;
                }
                log.push((request, r.status, r.body));
            }
            Err(e) => {
                out.failed += 1;
                out.errors
                    .push(format!("request {} failed: {e}", out.attempted));
            }
        }
        // Bodies are checked a reload window at a time, off the clock and
        // outside the measured time, so stored bodies never pile up.
        if batch_done {
            let t = Instant::now();
            checker.verify(&mut out, tracer, &log);
            log.clear();
            paused += t.elapsed();
        }
    }
    out.peak_rss_mb = crate::host::peak_rss_mb();
    checker.verify(&mut out, tracer, &log);
    let metrics = client
        .send("GET", "/metrics", "")
        .ok()
        .and_then(|r| serde_json::from_str::<Value>(std::str::from_utf8(&r.body).ok()?).ok());
    handle.shutdown();

    match &metrics {
        Some(m) => {
            let count = |key: &str| m.get(key).and_then(Value::as_f64).unwrap_or(-1.0);
            out.check(
                count("errors_4xx") == 0.0 && count("errors_5xx") == 0.0,
                || format!("server counted errors: {m:?}"),
            );
            out.check(count("worker_respawns") == 0.0, || {
                "server respawned a worker".into()
            });
        }
        None => out.errors.push("GET /metrics failed".into()),
    }

    if tracer.enabled() {
        if let Some(m) = &metrics {
            layers(&mut out, tracer, &checker, m, &bytes, client.connects);
        }
    }
    let _ = std::fs::remove_file(&path);
    out
}

fn field_f64(v: &Value, key: &str) -> Option<f64> {
    v.get(key).and_then(Value::as_f64)
}

fn field_raps(v: &Value) -> Option<Vec<u32>> {
    match v.get("raps")? {
        Value::Seq(items) => items.iter().map(|x| x.as_f64().map(|f| f as u32)).collect(),
        _ => None,
    }
}

/// Checks stored responses against the offline engines on the decoded
/// snapshot, and keeps what the traced run reports about them.
struct Checker {
    scenario: Arc<Scenario>,
    crc: u32,
    /// Serving epoch the next response must carry.
    epoch: u64,
    checked: usize,
    topk: HashMap<usize, (Vec<u32>, u64)>,
    /// The first [`OFFLINE_SAMPLE`] k values asked for.
    ks: Vec<usize>,
    gain_evals: f64,
    delta_pushes: f64,
    topks: f64,
}

impl Checker {
    fn new(tracer: &Tracer, bytes: &[u8], crc: u32) -> Result<Checker, String> {
        let contents = tracer
            .span("core.snapshot.decode", || {
                decode_snapshot_with_threads(bytes, STATE_THREADS)
            })
            .map_err(|e| format!("snapshot does not decode: {e}"))?;
        let mut mutable = contents.scenario;
        Ok(Checker {
            scenario: mutable.snapshot(),
            crc,
            epoch: 1,
            checked: 0,
            topk: HashMap::new(),
            ks: Vec::new(),
            gain_evals: 0.0,
            delta_pushes: 0.0,
            topks: 0.0,
        })
    }

    fn verify(&mut self, out: &mut Outcome, tracer: &Tracer, log: &[(Request, u16, Vec<u8>)]) {
        for (request, status, body) in log {
            let i = self.checked;
            self.checked += 1;
            let parsed = std::str::from_utf8(body)
                .ok()
                .and_then(|t| serde_json::from_str::<Value>(t).ok());
            let Some(v) = parsed.filter(|_| *status == 200) else {
                out.errors
                    .push(format!("request {i} ({request:?}) got status {status}"));
                continue;
            };
            let ok = match request {
                Request::Evaluate(raps) => self.evaluate(tracer, &v, raps),
                Request::Topk(k) => self.topk(&v, *k),
                Request::Reload => {
                    let fine = field_f64(&v, "previous_epoch") == Some(self.epoch as f64)
                        && field_f64(&v, "epoch") == Some((self.epoch + 1) as f64)
                        && field_f64(&v, "snapshot_crc") == Some(f64::from(self.crc));
                    self.epoch += 1;
                    fine
                }
            };
            out.check(ok, || {
                format!(
                    "request {i} ({request:?}) answered {}",
                    String::from_utf8_lossy(body)
                )
            });
        }
    }

    fn evaluate(&self, tracer: &Tracer, v: &Value, raps: &[u32]) -> bool {
        let placement = Placement::new(raps.iter().copied().map(NodeId::new).collect());
        let report = tracer.span("core.metrics.placement_report", || {
            PlacementReport::compute(&self.scenario, &placement)
        });
        field_f64(v, "epoch") == Some(self.epoch as f64)
            && field_raps(v).as_deref() == Some(raps)
            && field_f64(v, "objective").map(f64::to_bits) == Some(report.attracted.to_bits())
            && field_f64(v, "covered_flows") == Some(report.covered_flows as f64)
            && field_f64(v, "total_flows") == Some(report.total_flows as f64)
    }

    fn topk(&mut self, v: &Value, k: usize) -> bool {
        let scenario = &self.scenario;
        let (raps, bits) = self.topk.entry(k).or_insert_with(|| {
            let mut rng = StdRng::seed_from_u64(0);
            let p = MarginalGreedy.place(scenario, k, &mut rng);
            let raps = p.raps().iter().map(|r| r.raw()).collect();
            (raps, scenario.evaluate(&p).to_bits())
        });
        if self.ks.len() < OFFLINE_SAMPLE {
            self.ks.push(k);
        }
        self.gain_evals += field_f64(v, "gain_evals").unwrap_or(0.0);
        self.delta_pushes += field_f64(v, "delta_pushes").unwrap_or(0.0);
        self.topks += 1.0;
        field_f64(v, "epoch") == Some(self.epoch as f64)
            && field_f64(v, "k") == Some(k as f64)
            && field_raps(v).as_ref() == Some(raps)
            && field_f64(v, "objective").map(f64::to_bits) == Some(*bits)
    }
}

fn layers(
    out: &mut Outcome,
    tracer: &Tracer,
    checker: &Checker,
    metrics: &Value,
    bytes: &[u8],
    connects: u64,
) {
    // Offline cores of the two handlers on this run's own requests.
    let scenario = &checker.scenario;
    let index = tracer.span("core.inverted.build", || {
        InvertedIndex::build_with_threads(scenario, STATE_THREADS)
    });
    for &k in &checker.ks {
        tracer.span("core.inverted.place_with_index", || {
            InvertedGainEngine.place_with_index(scenario, &index, k)
        });
    }
    let topks = checker.topks.max(1.0);

    let spans = tracer.by_name();
    let client_p50_us = |name: &str| {
        spans
            .get(name)
            .map_or(0.0, |s| stats::median(&ms(&s.total_ns)) * 1e3)
    };
    let evaluate_us = span_p50_ms(tracer, "core.metrics.placement_report") * 1e3;
    let topk_us = span_p50_ms(tracer, "core.inverted.place_with_index") * 1e3;
    out.layer("scenario.evaluate_us", evaluate_us);
    out.layer(
        "serve.evaluate_p50_ms",
        client_p50_us("serve.request.evaluate") / 1e3,
    );
    out.layer("inverted.topk_us", topk_us);
    out.layer(
        "serve.topk_p50_ms",
        client_p50_us("serve.request.topk") / 1e3,
    );
    out.layer("inverted.gain_evals_per_topk", checker.gain_evals / topks);
    out.layer(
        "inverted.delta_pushes_per_topk",
        checker.delta_pushes / topks,
    );
    out.layer(
        "serve.http_evaluate_us",
        client_p50_us("serve.request.evaluate") - evaluate_us,
    );
    out.layer(
        "serve.http_topk_us",
        client_p50_us("serve.request.topk") - topk_us,
    );
    let count = |key: &str| field_f64(metrics, key).unwrap_or(0.0);
    // The server's own histograms: their percentiles are power-of-two
    // bucket bounds, so the mean is the figure that can move.
    let handler_mean = |endpoint: &str| {
        metrics
            .get(endpoint)
            .and_then(|e| field_f64(e, "mean_us"))
            .unwrap_or(0.0)
    };
    out.layer("serve.requests", count("requests"));
    out.layer("serve.connections", count("connections"));
    out.layer("serve.client_connects", connects as f64);
    out.layer("serve.errors_4xx", count("errors_4xx"));
    out.layer("serve.errors_5xx", count("errors_5xx"));
    out.layer("serve.worker_respawns", count("worker_respawns"));
    out.layer("serve.handler_evaluate_mean_us", handler_mean("evaluate"));
    out.layer("serve.handler_topk_mean_us", handler_mean("topk"));
    out.layer("serve.handler_reload_mean_us", handler_mean("reload"));
    out.layer("snapshot.bytes", bytes.len() as f64);
    out.layer(
        "snapshot.decode_ms",
        span_p50_ms(tracer, "core.snapshot.decode"),
    );
    out.layer(
        "inverted.build_ms",
        span_p50_ms(tracer, "core.inverted.build"),
    );
    out.layer(
        "serve.reload_p50_ms",
        client_p50_us("serve.request.reload") / 1e3,
    );
    out.layer("serve.reloads_ok", count("reloads_ok"));
    out.layer("serve.reloads_failed", count("reloads_failed"));
    out.layer(
        "serve.setup_load_ms",
        span_p50_ms(tracer, "serve.state.from_snapshot_file"),
    );
}
