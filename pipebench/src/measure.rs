//! What every workload shares: its settings, the per-op clock, and the
//! outcome it hands back to the report.

use crate::calib::Reference;
use crate::host::process_cpu;
use crate::stats;
use crate::trace::Tracer;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Instance sizes: the measured ones, and a tiny one for the smoke test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    /// Only the smoke test runs this size.
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

/// Settings of one workload run.
pub struct Config {
    /// Seed every input generator derives from.
    pub seed: u64,
    /// How long the op loop runs.
    pub measure: Duration,
    pub size: Size,
    /// Working directory for files the workload writes (snapshots, WAL).
    pub work_dir: PathBuf,
    /// Worker threads `plan-cold` routes with.
    pub plan_threads: usize,
}

/// Wall and process-CPU time of every measured op, in ms. They are kept
/// as `f32` (24 significant bits, far finer than the clocks' resolution
/// here): a faster host records more ops, and the smaller the samples, the
/// less that shows in `peak_rss_mb`.
#[derive(Default)]
pub struct Ops {
    pub wall_ms: Vec<f32>,
    pub cpu_ms: Vec<f32>,
}

impl Ops {
    /// Room for `rate` ops per second of `measure`. Reserving up front keeps
    /// the sample vectors from reallocating mid-run, which would show in
    /// peak RSS as a step that depends on the op count.
    pub fn reserve(&mut self, measure: Duration, rate: f64) {
        let n = (measure.as_secs_f64() * rate) as usize;
        self.wall_ms.reserve(n);
        self.cpu_ms.reserve(n);
    }

    /// Times `f` as one op. The CPU clock is read outside the wall-clock
    /// brackets, so the wall figure excludes the CPU clock's own cost.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let c0 = process_cpu();
        let w0 = Instant::now();
        let result = f();
        let wall = w0.elapsed();
        let cpu = process_cpu() - c0;
        self.push(wall, cpu);
        result
    }

    pub fn push(&mut self, wall: Duration, cpu: Duration) {
        self.wall_ms.push((wall.as_secs_f64() * 1e3) as f32);
        self.cpu_ms.push((cpu.as_secs_f64() * 1e3) as f32);
    }

    pub fn len(&self) -> usize {
        self.wall_ms.len()
    }

    /// Ascending wall times, ms.
    pub fn sorted_wall_ms(&self) -> Vec<f64> {
        stats::sorted(&widen(&self.wall_ms))
    }

    /// Ascending CPU times, ms.
    pub fn sorted_cpu_ms(&self) -> Vec<f64> {
        stats::sorted(&widen(&self.cpu_ms))
    }

    /// Ops per second of wall time spent inside ops.
    pub fn ops_per_wall_s(&self) -> f64 {
        let wall_s = widen(&self.wall_ms).iter().sum::<f64>() / 1e3;
        self.len() as f64 / wall_s
    }
}

pub fn widen(ms: &[f32]) -> Vec<f64> {
    ms.iter().map(|&m| f64::from(m)).collect()
}

pub fn ms(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 / 1e6).collect()
}

/// What one workload run hands back.
#[derive(Default)]
pub struct Outcome {
    /// Wall seconds of each complete cold set-up.
    pub setups_s: Vec<f64>,
    pub ops: Ops,
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks; any entry makes the run incorrect.
    pub errors: Vec<String>,
    /// `VmHWM` read right after the op loop, before the output checks.
    pub peak_rss_mb: f64,
    /// Every thread count the workload set, by name.
    pub threads: Vec<(&'static str, usize)>,
    /// Per-layer metrics (traced runs), by name.
    pub layers: Vec<(&'static str, f64)>,
    /// Host-speed kernel samples taken between ops.
    pub reference: Reference,
    /// Host-speed kernel samples taken between set-ups.
    pub setup_reference: Reference,
}

impl Outcome {
    /// Records a failed output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.push((name, value));
    }
}

/// Median self time, in ms, of the spans named `name` (0 if none ran).
pub fn span_p50_ms(tracer: &Tracer, name: &str) -> f64 {
    tracer
        .by_name()
        .get(name)
        .map_or(0.0, |s| stats::median(&ms(&s.self_ns)))
}

/// Deterministic per-purpose seeds from the run seed (SplitMix64).
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
