//! The worker-pool HTTP server: accept loop, endpoint dispatch, metrics.
//!
//! N worker threads share one nonblocking listener and each run
//! accept → serve-connection loops. A worker that panics while handling a
//! connection is caught and its slot respawned against a bounded shared
//! budget. Connections are kept alive for up to
//! [`ServerConfig::max_keepalive_requests`] requests, then closed (with
//! `Connection: close` announced) so workers rotate back to the accept
//! loop and a full house of chatty clients cannot starve new connections.

use crate::http::{self, HttpError, Method, Request};
use crate::state::ServeState;
use rap_core::{LatencyHistogram, Placement};
use rap_graph::NodeId;
use serde::{Deserialize, Serialize};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for [`serve`].
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Worker threads sharing the accept loop.
    pub workers: usize,
    /// Read timeout on connections; doubles as the idle-poll tick at which
    /// workers notice shutdown.
    pub read_timeout: Duration,
    /// Requests served on one connection before the server closes it
    /// (announced via `Connection: close`) to rotate the worker back to
    /// accepting.
    pub max_keepalive_requests: u32,
    /// Total worker respawns allowed after handler panics before a slot is
    /// abandoned (the pool keeps serving on the surviving slots).
    pub max_respawns: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            read_timeout: Duration::from_millis(100),
            max_keepalive_requests: 128,
            max_respawns: 8,
        }
    }
}

/// Request counters and latency histograms, all lock-free.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Requests dispatched to a handler.
    pub requests: AtomicU64,
    /// Responses with a 4xx status (including parse rejections).
    pub errors_4xx: AtomicU64,
    /// Responses with a 5xx status.
    pub errors_5xx: AtomicU64,
    /// Worker slots respawned after a handler panic.
    pub worker_respawns: AtomicU32,
    /// `/topk` requests that committed at least one RAP to their epoch's
    /// CELF run; every other `/topk` was answered from an existing prefix.
    pub topk_extended: AtomicU64,
    /// `/evaluate` handler latency.
    pub evaluate: LatencyHistogram,
    /// `/topk` handler latency.
    pub topk: LatencyHistogram,
    /// `/reload` handler latency: the snapshot read, the serving decode
    /// (checksums, validation, first-visit index, one reverse Dijkstra per
    /// shop, entry values) and the epoch swap.
    pub reload: LatencyHistogram,
}

/// A running server: join handle, shared state, and shutdown control.
///
/// Dropping the handle shuts the server down and joins every worker.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    metrics: Arc<ServerMetrics>,
    state: Arc<ServeState>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves `:0` to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live request counters.
    pub fn metrics(&self) -> &Arc<ServerMetrics> {
        &self.metrics
    }

    /// The epoch-swapped state being served.
    pub fn state(&self) -> &Arc<ServeState> {
        &self.state
    }

    /// Requests shutdown without blocking; workers notice within one
    /// poll tick and drain their current request first.
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Requests shutdown and joins every worker.
    pub fn shutdown(mut self) {
        self.begin_shutdown();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.begin_shutdown();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Binds `addr` and starts the worker pool over `state`.
///
/// # Errors
///
/// Bind/configuration failures from the OS.
pub fn serve(
    state: Arc<ServeState>,
    addr: impl ToSocketAddrs,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let metrics = Arc::new(ServerMetrics::default());
    let respawns_left = Arc::new(AtomicU32::new(config.max_respawns));
    let workers = (0..config.workers.max(1))
        .map(|slot| {
            let listener = listener.try_clone().expect("clone listener");
            let state = Arc::clone(&state);
            let metrics = Arc::clone(&metrics);
            let shutdown = Arc::clone(&shutdown);
            let respawns_left = Arc::clone(&respawns_left);
            std::thread::Builder::new()
                .name(format!("rap-serve-{slot}"))
                .spawn(move || {
                    // Self-healing slot: a panic escaping a handler kills
                    // only the current connection; the slot re-enters its
                    // accept loop while the shared respawn budget lasts.
                    loop {
                        let ran = catch_unwind(AssertUnwindSafe(|| {
                            worker_loop(&listener, &state, &metrics, &shutdown, config);
                        }));
                        match ran {
                            Ok(()) => break,
                            Err(_) => {
                                metrics.worker_respawns.fetch_add(1, Ordering::Relaxed);
                                let left = respawns_left.fetch_sub(1, Ordering::Relaxed);
                                if left == 0 || left > config.max_respawns {
                                    break;
                                }
                            }
                        }
                    }
                })
                .expect("spawn worker")
        })
        .collect();
    Ok(ServerHandle {
        addr,
        shutdown,
        metrics,
        state,
        workers,
    })
}

fn worker_loop(
    listener: &TcpListener,
    state: &Arc<ServeState>,
    metrics: &Arc<ServerMetrics>,
    shutdown: &AtomicBool,
    config: ServerConfig,
) {
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                metrics.connections.fetch_add(1, Ordering::Relaxed);
                handle_connection(stream, state, metrics, shutdown, config);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn handle_connection(
    stream: TcpStream,
    state: &Arc<ServeState>,
    metrics: &Arc<ServerMetrics>,
    shutdown: &AtomicBool,
    config: ServerConfig,
) {
    // The accepted socket inherits the listener's nonblocking flag on some
    // platforms; force blocking-with-timeout semantics explicitly.
    if stream.set_nonblocking(false).is_err()
        || stream.set_read_timeout(Some(config.read_timeout)).is_err()
    {
        return;
    }
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream);
    // Response bytes are staged here so each one leaves in a single write.
    let mut out = Vec::with_capacity(512);
    let mut served = 0u32;
    loop {
        match http::read_request(&mut reader) {
            Ok(request) => {
                served += 1;
                let keep = request.keep_alive
                    && served < config.max_keepalive_requests
                    && !shutdown.load(Ordering::SeqCst);
                metrics.requests.fetch_add(1, Ordering::Relaxed);
                let (status, reason, body) = dispatch(&request, state, metrics);
                count_errors(metrics, status);
                let ok =
                    http::write_response(reader.get_mut(), &mut out, status, reason, &body, keep)
                        .is_ok();
                if !ok || !keep {
                    break;
                }
            }
            Err(HttpError::Idle) => {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(HttpError::Closed) | Err(HttpError::Io(_)) => break,
            Err(e) => {
                // Protocol error: answer with its status when one exists,
                // then drop the connection — resynchronizing a corrupt
                // stream is not worth the risk.
                if let Some((status, reason)) = e.status() {
                    count_errors(metrics, status);
                    let body = error_body(e.detail());
                    let _ = http::write_response(
                        reader.get_mut(),
                        &mut out,
                        status,
                        reason,
                        &body,
                        false,
                    );
                }
                break;
            }
        }
    }
}

fn count_errors(metrics: &ServerMetrics, status: u16) {
    if (400..500).contains(&status) {
        metrics.errors_4xx.fetch_add(1, Ordering::Relaxed);
    } else if status >= 500 {
        metrics.errors_5xx.fetch_add(1, Ordering::Relaxed);
    }
}

fn error_body(detail: String) -> String {
    serde_json::to_string(&ErrorResponse { error: detail }).unwrap_or_else(|_| "{}".into())
}

#[derive(Serialize)]
struct ErrorResponse {
    error: String,
}

#[derive(Deserialize)]
struct EvaluateRequest {
    raps: Vec<u32>,
}

#[derive(Deserialize)]
struct TopkRequest {
    k: usize,
}

#[derive(Serialize)]
struct HealthzResponse {
    status: String,
    epoch: u64,
    live_flows: u64,
}

#[derive(Serialize)]
struct PlacementResponse {
    epoch: u64,
    raps: Option<Vec<u32>>,
    objective: Option<f64>,
}

#[derive(Serialize)]
struct EvaluateResponse {
    epoch: u64,
    raps: Vec<u32>,
    objective: f64,
    covered_flows: usize,
    total_flows: usize,
}

#[derive(Serialize)]
struct TopkResponse {
    epoch: u64,
    k: usize,
    raps: Vec<u32>,
    objective: f64,
    gain_evals: u64,
}

#[derive(Serialize)]
struct ReloadResponse {
    status: String,
    previous_epoch: u64,
    epoch: u64,
    snapshot_crc: u32,
}

#[derive(Serialize)]
struct EndpointStats {
    count: u64,
    mean_us: f64,
    p50_us: u64,
    p99_us: u64,
    max_us: u64,
}

impl EndpointStats {
    fn of(histogram: &LatencyHistogram) -> Self {
        EndpointStats {
            count: histogram.count(),
            mean_us: histogram.mean_us(),
            p50_us: histogram.percentile_us(0.50),
            p99_us: histogram.percentile_us(0.99),
            max_us: histogram.max_us(),
        }
    }
}

#[derive(Serialize)]
struct MetricsResponse {
    epoch: u64,
    snapshot_crc: u32,
    scenario_epoch: u64,
    live_flows: u64,
    connections: u64,
    requests: u64,
    errors_4xx: u64,
    errors_5xx: u64,
    worker_respawns: u32,
    reloads_ok: u64,
    reloads_failed: u64,
    topk_extended: u64,
    evaluate: EndpointStats,
    topk: EndpointStats,
    reload: EndpointStats,
}

type Response = (u16, &'static str, String);

fn ok(body: String) -> Response {
    (200, "OK", body)
}

fn bad_request(detail: String) -> Response {
    (400, "Bad Request", error_body(detail))
}

fn json<T: Serialize>(value: &T) -> Response {
    match serde_json::to_string(value) {
        Ok(body) => ok(body),
        Err(e) => (500, "Internal Server Error", error_body(e.to_string())),
    }
}

/// Routes one parsed request. Unknown paths are 404; a known path with the
/// other method is 405.
fn dispatch(request: &Request, state: &Arc<ServeState>, metrics: &ServerMetrics) -> Response {
    match (request.method, request.path.as_str()) {
        (Method::Get, "/healthz") => {
            let epoch = state.current();
            json(&HealthzResponse {
                status: "ok".into(),
                epoch: epoch.epoch,
                live_flows: epoch.live_flows,
            })
        }
        (Method::Get, "/metrics") => {
            let epoch = state.current();
            json(&MetricsResponse {
                epoch: epoch.epoch,
                snapshot_crc: epoch.snapshot_crc,
                scenario_epoch: epoch.scenario_epoch,
                live_flows: epoch.live_flows,
                connections: metrics.connections.load(Ordering::Relaxed),
                requests: metrics.requests.load(Ordering::Relaxed),
                errors_4xx: metrics.errors_4xx.load(Ordering::Relaxed),
                errors_5xx: metrics.errors_5xx.load(Ordering::Relaxed),
                worker_respawns: metrics.worker_respawns.load(Ordering::Relaxed),
                reloads_ok: state.reloads_ok(),
                reloads_failed: state.reloads_failed(),
                topk_extended: metrics.topk_extended.load(Ordering::Relaxed),
                evaluate: EndpointStats::of(&metrics.evaluate),
                topk: EndpointStats::of(&metrics.topk),
                reload: EndpointStats::of(&metrics.reload),
            })
        }
        (Method::Get, "/placement") => {
            let epoch = state.current();
            let (raps, objective) = match &epoch.placement {
                Some(p) => (
                    Some(p.raps().iter().map(|r| r.raw()).collect()),
                    Some(epoch.scenario.evaluate(p)),
                ),
                None => (None, None),
            };
            json(&PlacementResponse {
                epoch: epoch.epoch,
                raps,
                objective,
            })
        }
        (Method::Post, "/evaluate") => timed(&metrics.evaluate, || evaluate(request, state)),
        (Method::Post, "/topk") => timed(&metrics.topk, || topk(request, state, metrics)),
        (Method::Post, "/reload") => timed(&metrics.reload, || reload(state)),
        (_, "/healthz" | "/metrics" | "/placement" | "/evaluate" | "/topk" | "/reload") => (
            405,
            "Method Not Allowed",
            error_body(format!("wrong method for {}", request.path)),
        ),
        (_, path) => (
            404,
            "Not Found",
            error_body(format!("no route for `{path}`")),
        ),
    }
}

fn timed(histogram: &LatencyHistogram, handler: impl FnOnce() -> Response) -> Response {
    let start = Instant::now();
    let response = handler();
    histogram.record_us(u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX));
    response
}

fn parse_body<T: for<'de> Deserialize<'de>>(request: &Request) -> Result<T, Response> {
    let text =
        std::str::from_utf8(&request.body).map_err(|_| bad_request("body is not UTF-8".into()))?;
    serde_json::from_str(text).map_err(|e| bad_request(format!("bad request body: {e}")))
}

fn evaluate(request: &Request, state: &Arc<ServeState>) -> Response {
    let parsed: EvaluateRequest = match parse_body(request) {
        Ok(parsed) => parsed,
        Err(response) => return response,
    };
    let epoch = state.current();
    let nodes = epoch.scenario.graph().node_count() as u32;
    if let Some(&bad) = parsed.raps.iter().find(|&&r| r >= nodes) {
        return bad_request(format!("rap {bad} out of range (graph has {nodes} nodes)"));
    }
    let placement = Placement::new(parsed.raps.iter().copied().map(NodeId::new).collect());
    // The sparse fold: no detour and no flow record is read.
    let (objective, covered_flows) = epoch.scenario.coverage(&placement);
    json(&EvaluateResponse {
        epoch: epoch.epoch,
        raps: placement.raps().iter().map(|r| r.raw()).collect(),
        objective,
        covered_flows,
        total_flows: epoch.scenario.flows().len(),
    })
}

fn topk(request: &Request, state: &Arc<ServeState>, metrics: &ServerMetrics) -> Response {
    let parsed: TopkRequest = match parse_body(request) {
        Ok(parsed) => parsed,
        Err(response) => return response,
    };
    let epoch = state.current();
    let candidates = epoch.scenario.candidates().len();
    if parsed.k > candidates {
        return bad_request(format!(
            "k = {} exceeds the {candidates} candidate intersections",
            parsed.k
        ));
    }
    let answer = epoch.topk(parsed.k);
    if answer.extended {
        metrics.topk_extended.fetch_add(1, Ordering::Relaxed);
    }
    let objective = epoch.scenario.evaluate(&answer.placement);
    json(&TopkResponse {
        epoch: epoch.epoch,
        k: parsed.k,
        raps: answer.placement.raps().iter().map(|r| r.raw()).collect(),
        objective,
        gain_evals: answer.gain_evals,
    })
}

fn reload(state: &Arc<ServeState>) -> Response {
    match state.reload() {
        // The installed epoch, not `state.current()`: another reload may
        // already have replaced it.
        Ok(installed) => json(&ReloadResponse {
            status: "reloaded".into(),
            previous_epoch: installed.epoch - 1,
            epoch: installed.epoch,
            snapshot_crc: installed.snapshot_crc,
        }),
        Err(e) => {
            // The old epoch keeps serving; report the rejection.
            let epoch = state.current();
            (
                500,
                "Internal Server Error",
                error_body(format!(
                    "reload rejected, epoch {} retained: {e}",
                    epoch.epoch
                )),
            )
        }
    }
}
