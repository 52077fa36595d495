//! `rap serve` — serve a scenario snapshot over HTTP.
//!
//! ```text
//! rap serve --snapshot scenario.snap --addr 127.0.0.1:7878 --workers 4
//! ```
//!
//! Runs until SIGTERM/SIGINT, then shuts down gracefully (in-flight
//! requests drain, workers join, a final summary is printed). Reloads are
//! triggered three ways, all equivalent to `POST /reload`: the endpoint
//! itself, SIGHUP, or touching the `--reload-on` trigger file (which the
//! loop consumes by deleting).

use crate::args::Args;
use crate::CliError;
use rap_serve::{serve, signals, ServeState, ServerConfig};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Options accepted by `rap serve`.
pub const USAGE: &str = "\
rap serve --snapshot PATH [--addr HOST:PORT] [--workers N]
          [--reload-on TRIGGER_PATH]

Serve a checksummed scenario snapshot over HTTP/1.1.

  --snapshot PATH       RAPSNAP1 snapshot to load and serve (required)
  --addr HOST:PORT      bind address            [default 127.0.0.1:7878]
  --workers N           accept-pool threads     [default: available cores]
  --reload-on PATH      poll for this file; when it appears, reload the
                        snapshot and delete it (a SIGHUP-style trigger
                        for environments without signals)

endpoints: GET /healthz /metrics /placement — POST /evaluate /topk /reload
Runs until SIGTERM or SIGINT; SIGHUP (or the trigger file) reloads the
snapshot and bumps the serving epoch without interrupting requests.";

/// Runs the command (blocks until a shutdown signal).
///
/// # Errors
///
/// Argument, bind, and snapshot-load failures; reload failures are
/// reported on stderr but keep the old epoch serving.
pub fn run(args: &Args) -> Result<String, CliError> {
    let snapshot = PathBuf::from(args.required("snapshot")?);
    let addr = args.get("addr").unwrap_or("127.0.0.1:7878").to_string();
    let default_workers = std::thread::available_parallelism().map_or(4, usize::from);
    let workers: usize = args.get_or("workers", "thread count", default_workers)?;
    if workers == 0 {
        return Err(CliError::Usage("--workers must be at least 1".into()));
    }
    let trigger = args.get("reload-on").map(PathBuf::from);

    let state = Arc::new(ServeState::from_snapshot_file(&snapshot, workers)?);
    // Read before the workers start: a `/reload` may replace it at once.
    let loaded = state.current();
    let config = ServerConfig {
        workers,
        ..ServerConfig::default()
    };
    let handle = serve(Arc::clone(&state), addr.as_str(), config).map_err(CliError::Io)?;
    let signals_installed = signals::install();
    eprintln!(
        "rap serve: listening on {} ({} workers, epoch {}, crc 0x{:08X})",
        handle.addr(),
        workers,
        loaded.epoch,
        loaded.snapshot_crc,
    );
    // Holding it would keep this epoch's scenario alive past every reload.
    drop(loaded);

    while !signals::shutdown_requested() {
        std::thread::sleep(Duration::from_millis(100));
        let triggered = trigger
            .as_deref()
            .is_some_and(|path| path.exists() && std::fs::remove_file(path).is_ok());
        if signals::take_reload_request() || triggered {
            match state.reload() {
                Ok(installed) => eprintln!(
                    "rap serve: reloaded snapshot, epoch {} -> {}",
                    installed.epoch - 1,
                    installed.epoch
                ),
                Err(e) => eprintln!("rap serve: reload rejected, old epoch retained: {e}"),
            }
        }
        if !signals_installed && trigger.is_none() {
            // No way to ever stop cleanly; rely on process termination.
            std::thread::sleep(Duration::from_secs(1));
        }
    }

    let metrics = Arc::clone(handle.metrics());
    handle.shutdown();
    Ok(format!(
        "rap serve: shut down cleanly\n  requests {}  connections {}  4xx {}  5xx {}  reloads {} ok / {} rejected\n",
        metrics
            .requests
            .load(std::sync::atomic::Ordering::Relaxed),
        metrics
            .connections
            .load(std::sync::atomic::Ordering::Relaxed),
        metrics
            .errors_4xx
            .load(std::sync::atomic::Ordering::Relaxed),
        metrics
            .errors_5xx
            .load(std::sync::atomic::Ordering::Relaxed),
        state.reloads_ok(),
        state.reloads_failed(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_snapshot_flag_is_args_error() {
        let args = Args::parse(["--addr", "127.0.0.1:0"]).unwrap();
        assert!(matches!(run(&args), Err(CliError::Args(_))));
    }

    #[test]
    fn zero_workers_is_usage_error() {
        let args = Args::parse(["--snapshot", "missing.snap", "--workers", "0"]).unwrap();
        assert!(matches!(run(&args), Err(CliError::Usage(_))));
    }

    #[test]
    fn missing_snapshot_file_is_serve_error() {
        let args = Args::parse(["--snapshot", "/definitely/not/here.snap"]).unwrap();
        assert!(matches!(run(&args), Err(CliError::Serve(_))));
    }
}
