//! `pipebench`: the pipeline benchmark.
//!
//! ```text
//! pipebench --workload <plan-cold|serve-query|stream-durable> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root (see `pipebench/README.md`). With
//! `--trace 0` the last stdout line carries the end-to-end metrics of the
//! named workload; with `--trace 1` it carries the per-layer metrics of all
//! three workloads, measured with spans, plus the tracing overhead of the
//! named one. Timed end-to-end metrics are in reference-host time (see
//! `calib`). The line before it holds diagnostics: host CPUs, steal share,
//! host slowdown, thread counts, the raw timed metrics, wall throughput and
//! tail. The exit code is 0 only when every output check passed.

mod calib;
mod client;
mod host;
mod measure;
mod plan;
mod serve;
mod stats;
mod stream;
mod trace;

use measure::{Config, Ops, Outcome, Size};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;
use trace::Tracer;

const WORKLOADS: [&str; 3] = ["plan-cold", "serve-query", "stream-durable"];
/// Threads `plan-cold` asks `build_scenario` for, before the `nproc` cap.
const PLAN_THREADS: usize = 2;

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must lie in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Runs one workload. `serve-query` and `stream-durable` run pinned to one
/// CPU: unpinned, client/server and maintainer/pool hand-offs cross vCPUs
/// and the wakeups, not the code, set their latency.
fn run_workload(workload: &str, cfg: &Config, tracer: &Tracer) -> Outcome {
    match workload {
        "plan-cold" => plan::run(cfg, tracer),
        "serve-query" => host::pinned(|| serve::run(cfg, tracer)),
        "stream-durable" => host::pinned(|| stream::run(cfg, tracer)),
        other => unreachable!("workload `{other}` was validated at parse time"),
    }
}

/// Unit of a per-layer metric, from its name.
fn layer_unit(name: &str) -> &'static str {
    if name.ends_with("_ms") {
        "ms"
    } else if name.ends_with("_us") {
        "us"
    } else if name.ends_with("_frac") || name.ends_with("_ratio") {
        "ratio"
    } else if name.ends_with("ops_per_s") {
        "1/s"
    } else if name.ends_with("bytes") {
        "bytes"
    } else {
        "count"
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Median wall latency, CPU tail and CPU rate of a run's ops, each op's
/// times divided by its factor.
struct OpFigures {
    p50_ms: f64,
    tail_cpu_ms: f64,
    per_cpu_s: f64,
}

fn op_figures(ops: &Ops, factors: &[f64]) -> OpFigures {
    let scaled = |ms: &[f32]| -> Vec<f64> {
        ms.iter()
            .zip(factors)
            .map(|(&m, &f)| f64::from(m) / f)
            .collect()
    };
    let cpu_ms = scaled(&ops.cpu_ms);
    OpFigures {
        p50_ms: stats::percentile(&stats::sorted(&scaled(&ops.wall_ms)), 50.0),
        tail_cpu_ms: stats::percentile(&stats::sorted(&cpu_ms), stats::cpu_tail(ops.len())),
        per_cpu_s: ops.len() as f64 / (cpu_ms.iter().sum::<f64>() / 1e3),
    }
}

/// Median set-up time, each set-up divided by its factor.
fn setup_figure(setups_s: &[f64], factors: &[f64]) -> f64 {
    let scaled: Vec<f64> = setups_s.iter().zip(factors).map(|(s, f)| s / f).collect();
    stats::median(&scaled)
}

/// The end-to-end metrics, timed ones in reference-host time: every op
/// and every set-up is divided by the host slowdown the kernel samples
/// around it give (the rate is the ops over the corrected CPU time).
fn end_to_end(out: &Outcome) -> Vec<Metric> {
    let ops = op_figures(&out.ops, &out.reference.factors(out.ops.len()));
    let setup_s = setup_figure(
        &out.setups_s,
        &out.setup_reference.factors(out.setups_s.len()),
    );
    vec![
        metric("setup_s", setup_s, "s"),
        metric("op_p50_ms", ops.p50_ms, "ms"),
        metric("op_tail_cpu_ms", ops.tail_cpu_ms, "ms"),
        metric("ops_per_cpu_s", ops.per_cpu_s, "1/s"),
        metric("peak_rss_mb", out.peak_rss_mb, "MB"),
    ]
}

fn json_number(value: f64) -> String {
    // `Display` prints the shortest decimal that reads back to the same
    // bits: every digit the measurement has, and no more.
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".into()
    }
}

fn json_string(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            json_string(m.name),
            json_number(m.value),
            json_string(m.unit)
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

struct Host {
    nproc: usize,
    cpus_allowed: usize,
}

/// Diagnostics of one measured pass: the host slowdown and the op figures
/// before the correction for it, and wall figures, which move with steal.
/// They are printed but are not end-to-end metrics.
fn pass_diagnostics(out: &Outcome) -> Vec<(&'static str, f64)> {
    let wall = out.ops.sorted_wall_ms();
    let cpu = out.ops.sorted_cpu_ms();
    let raw = op_figures(&out.ops, &vec![1.0; out.ops.len()]);
    let mut d = vec![
        ("host.slowdown", out.reference.slowdown()),
        ("host.setup_slowdown", out.setup_reference.slowdown()),
        ("reference.samples", out.reference.samples.len() as f64),
        ("raw.setup_s", stats::median(&out.setups_s)),
        ("raw.op_p50_ms", raw.p50_ms),
        ("raw.op_tail_cpu_ms", raw.tail_cpu_ms),
        ("tail.cpu_percentile", stats::cpu_tail(out.ops.len())),
        ("raw.ops_per_cpu_s", raw.per_cpu_s),
        ("wall.ops_per_s", out.ops.ops_per_wall_s()),
        ("wall.op_p99_ms", stats::percentile(&wall, 99.0)),
        ("samples", out.ops.len() as f64),
        ("fail_frac", out.failed as f64 / out.attempted.max(1) as f64),
        ("setups", out.setups_s.len() as f64),
    ];
    if let Some((p, beyond)) = stats::supported_tail(wall.len()) {
        d.push(("tail.percentile", p));
        d.push(("tail.samples_beyond", beyond as f64));
        d.push(("tail.wall_ms", stats::percentile(&wall, p)));
        d.push(("tail.cpu_ms", stats::percentile(&cpu, p)));
    }
    d
}

fn diagnostics_line(
    args: &Args,
    host: &Host,
    steal: f64,
    passes: &[(&str, bool, &Outcome)],
) -> String {
    let mut s = format!(
        "{{\"diagnostics\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"host.nproc\": {}, \"host.cpus_allowed\": {}, \"host.steal_frac\": {}, \"passes\": [",
        json_string(args.workload),
        args.seed,
        json_number(args.seconds),
        u8::from(args.trace),
        host.nproc,
        host.cpus_allowed,
        json_number(steal)
    );
    for (i, (workload, traced, out)) in passes.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}{{\"workload\": {}, \"traced\": {traced}",
            json_string(workload)
        );
        for (name, value) in pass_diagnostics(out) {
            let _ = write!(s, ", {}: {}", json_string(name), json_number(value));
        }
        for (name, value) in &out.threads {
            let _ = write!(s, ", {}: {value}", json_string(name));
        }
        s.push('}');
    }
    s.push_str("]}}");
    s
}

fn main() {
    if std::env::var_os("RAP_FAULT_SEED").is_some() {
        eprintln!(
            "pipebench: RAP_FAULT_SEED is set; it injects worker faults into the \
             evaluation pools. Unset it to measure."
        );
        std::process::exit(2);
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pipebench: {e}");
            eprintln!(
                "usage: pipebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let host = Host {
        nproc: host::nproc(),
        cpus_allowed: host::CpuSet::current().cpus().len(),
    };
    let work_root = PathBuf::from(".pipebench");
    let work_dir = work_root.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("pipebench: cannot create {}: {e}", work_dir.display());
        std::process::exit(2);
    }
    let config = |seconds: f64| Config {
        seed: args.seed,
        measure: Duration::from_secs_f64(seconds),
        size: Size::Full,
        work_dir: work_dir.clone(),
        plan_threads: PLAN_THREADS.min(host.nproc).min(host.cpus_allowed).max(1),
    };

    let ticks = host::cpu_ticks();
    let mut passes: Vec<(&str, bool, Outcome)> = Vec::new();
    let metrics = if args.trace {
        // Untraced and traced passes of the named workload give the tracing
        // overhead; traced passes of every workload give every layer.
        let seconds = args.seconds / 2.0;
        passes.push((
            args.workload,
            false,
            run_workload(args.workload, &config(seconds), &Tracer::new(false)),
        ));
        for workload in WORKLOADS {
            let tracer = Tracer::new(true);
            let out = run_workload(workload, &config(seconds), &tracer);
            write_trace(&work_root, workload, args.seed, &tracer);
            passes.push((workload, true, out));
        }
        let named = |traced: bool| {
            passes
                .iter()
                .find(|(w, t, _)| *w == args.workload && *t == traced)
                .map(|(_, _, o)| o)
                .expect("both passes of the named workload ran")
        };
        let (plain, traced) = (named(false), named(true));
        let mut m: Vec<Metric> = passes
            .iter()
            .filter(|(_, traced, _)| *traced)
            .flat_map(|(_, _, o)| o.layers.iter())
            .map(|&(name, value)| metric(name, value, layer_unit(name)))
            .collect();
        // Each pass's rate in reference-host time, so host drift between
        // the two passes does not read as tracing overhead.
        let rate = |o: &Outcome| op_figures(&o.ops, &o.reference.factors(o.ops.len())).per_cpu_s;
        let overhead = rate(plain) / rate(traced) - 1.0;
        m.push(metric("trace.overhead_frac", overhead, "ratio"));
        m.push(metric("host.nproc", host.nproc as f64, "count"));
        m.push(metric(
            "host.cpus_allowed",
            host.cpus_allowed as f64,
            "count",
        ));
        m.push(metric(
            "host.steal_frac",
            host::steal_share(ticks, host::cpu_ticks()),
            "ratio",
        ));
        m.push(metric("host.slowdown", plain.reference.slowdown(), "ratio"));
        m.push(metric("wall.ops_per_s", plain.ops.ops_per_wall_s(), "1/s"));
        m.push(metric(
            "wall.op_p99_ms",
            stats::percentile(&plain.ops.sorted_wall_ms(), 99.0),
            "ms",
        ));
        m
    } else {
        let out = run_workload(args.workload, &config(args.seconds), &Tracer::new(false));
        let m = end_to_end(&out);
        passes.push((args.workload, false, out));
        m
    };
    let steal = host::steal_share(ticks, host::cpu_ticks());
    let _ = std::fs::remove_dir_all(&work_dir);

    let mut correct = true;
    let (mut attempted, mut failed) = (0, 0);
    for (workload, traced, out) in &passes {
        attempted += out.attempted;
        failed += out.failed;
        let pass_ok = out.errors.is_empty() && out.failed == 0 && out.ops.len() > 0;
        correct &= pass_ok;
        for e in out.errors.iter().take(20) {
            eprintln!("pipebench: {workload} (traced: {traced}): check failed: {e}");
        }
        if !pass_ok && out.errors.is_empty() {
            eprintln!("pipebench: {workload} (traced: {traced}): no op completed");
        }
    }
    correct &= metrics.iter().all(|m| m.value.is_finite());
    let views: Vec<(&str, bool, &Outcome)> = passes.iter().map(|(w, t, o)| (*w, *t, o)).collect();
    println!("{}", diagnostics_line(&args, &host, steal, &views));
    println!(
        "{}",
        result_line(correct, attempted.max(1), failed, &metrics)
    );
    std::process::exit(if correct { 0 } else { 1 });
}

/// Writes the traced pass's spans to `.pipebench/traces/`.
fn write_trace(root: &Path, workload: &str, seed: u64, tracer: &Tracer) {
    let dir = root.join("traces");
    let path = dir.join(format!("{workload}-seed{seed}.tsv"));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| tracer.write_tsv(&path)) {
        eprintln!("pipebench: could not write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload at its tiny size, traced, on two seeds: all output
    /// checks must pass and every per-layer metric must be produced.
    #[test]
    fn smoke_all_workloads_on_two_seeds() {
        for seed in [1, 2] {
            for workload in WORKLOADS {
                let dir = std::env::temp_dir().join(format!(
                    "pipebench-smoke-{}-{workload}-{seed}",
                    std::process::id()
                ));
                std::fs::create_dir_all(&dir).expect("temp dir is writable");
                let cfg = Config {
                    seed,
                    measure: Duration::from_millis(200),
                    size: Size::Tiny,
                    work_dir: dir.clone(),
                    plan_threads: 2,
                };
                let tracer = Tracer::new(true);
                let out = run_workload(workload, &cfg, &tracer);
                let _ = std::fs::remove_dir_all(&dir);
                assert!(
                    out.errors.is_empty(),
                    "{workload} seed {seed}: {:?}",
                    out.errors
                );
                assert_eq!(out.failed, 0, "{workload} seed {seed}");
                assert!(out.ops.len() >= 2, "{workload} seed {seed}: too few ops");
                assert!(!out.setups_s.is_empty());
                assert!(!out.layers.is_empty());
                assert!(out.layers.iter().all(|(_, v)| v.is_finite()));
                assert!(end_to_end(&out).iter().all(|m| m.value > 0.0));
            }
        }
    }

    #[test]
    fn args_are_validated() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload serve-query --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!((a.workload, a.seed, a.trace), ("serve-query", 7, true));
        assert!(parse("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(parse("--workload plan-cold --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload plan-cold --seed 1 --seconds 1 --trace 2").is_err());
        assert!(parse("--workload plan-cold --seed 1 --seconds 1").is_err());
    }

    #[test]
    fn result_line_prints_every_digit() {
        let line = result_line(true, 3, 0, &[metric("op_p50_ms", 1.203_456_789, "ms")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"op_p50_ms\": {\"value\": 1.203456789, \"unit\": \"ms\"}}}"
        );
    }
}
