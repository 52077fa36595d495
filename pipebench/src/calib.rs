//! Host-speed reference: a fixed kernel timed between ops.
//!
//! On a shared host the speed of a vCPU drifts over minutes with what the
//! other tenants run, and every time the benchmark reads drifts with it:
//! CPU time as much as wall time. The benchmark therefore times this kernel
//! at regular points of each measured phase and reports its timed
//! end-to-end metrics in reference-host time: each op's and each set-up's
//! time divided by the slowdown the kernel samples around it show.
//!
//! The kernel is the benchmark's own code and takes no seed, so it does
//! the same work on every commit, seed and workload; only the host's speed
//! moves its time. It mixes what the workloads spend their time on: a
//! shortest-path search with a binary heap over a sparse graph, hashing,
//! sorting, and printing and parsing decimal numbers.

use crate::host::thread_cpu;
use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::fmt::Write as _;
use std::hash::BuildHasherDefault;
use std::hint::black_box;

/// Thread CPU time of one kernel pass on the reference host, a 2-vCPU
/// Xeon (Sapphire Rapids) VM with no other load: the unit the timed
/// metrics are reported in.
pub const NOMINAL_NS: f64 = 2_000_000.0;

/// Nodes of the kernel's graph.
const NODES: usize = 1 << 13;
/// Out-degree of every node.
const DEGREE: usize = 4;
/// Keys hashed and sorted per pass.
const KEYS: usize = 4_096;
/// Numbers printed and parsed per pass.
const NUMBERS: usize = 1_024;

/// The kernel's inputs and scratch space; building it is not timed.
pub struct Kernel {
    targets: Vec<u32>,
    weights: Vec<u32>,
    dist: Vec<u64>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    keys: Vec<u64>,
    sorted: Vec<u64>,
    map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    text: String,
}

/// A fixed 64-bit LCG, so the kernel's inputs never change.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *state >> 17
}

impl Kernel {
    pub fn new() -> Kernel {
        let mut s = 0x5eed_u64;
        let mut targets = Vec::with_capacity(NODES * DEGREE);
        let mut weights = Vec::with_capacity(NODES * DEGREE);
        for v in 0..NODES {
            // A ring keeps every node reachable; three random arcs per node
            // make the search touch the whole table in no useful order.
            targets.push(((v + 1) % NODES) as u32);
            weights.push(1_000);
            for _ in 1..DEGREE {
                targets.push((lcg(&mut s) % NODES as u64) as u32);
                weights.push((lcg(&mut s) % 1_000 + 1) as u32);
            }
        }
        let keys = (0..KEYS).map(|_| lcg(&mut s)).collect();
        Kernel {
            targets,
            weights,
            dist: vec![u64::MAX; NODES],
            heap: BinaryHeap::with_capacity(NODES * DEGREE),
            keys,
            sorted: Vec::with_capacity(KEYS),
            map: HashMap::with_capacity_and_hasher(KEYS, Default::default()),
            text: String::with_capacity(NUMBERS * 24),
        }
    }

    /// One pass; returns a checksum so no part can be optimised away.
    pub fn pass(&mut self) -> u64 {
        // Shortest paths from node 0.
        self.dist.fill(u64::MAX);
        self.dist[0] = 0;
        self.heap.push(Reverse((0, 0)));
        while let Some(Reverse((d, v))) = self.heap.pop() {
            if d > self.dist[v as usize] {
                continue;
            }
            let arcs = v as usize * DEGREE..(v as usize + 1) * DEGREE;
            for (&t, &w) in self.targets[arcs.clone()].iter().zip(&self.weights[arcs]) {
                let nd = d + u64::from(w);
                if nd < self.dist[t as usize] {
                    self.dist[t as usize] = nd;
                    self.heap.push(Reverse((nd, t)));
                }
            }
        }
        let mut sum = self.dist.iter().fold(0u64, |a, &d| a.wrapping_add(d));

        // Hashing: insert every key, then look each one up.
        self.map.clear();
        for (i, &k) in self.keys.iter().enumerate() {
            self.map.insert(k, i as u64);
        }
        for &k in &self.keys {
            sum = sum.wrapping_add(self.map.get(&k).copied().unwrap_or(0));
        }

        // Sorting.
        self.sorted.clear();
        self.sorted.extend_from_slice(&self.keys);
        self.sorted.sort_unstable();
        sum = sum.wrapping_add(self.sorted[KEYS / 2]);

        // Printing and parsing decimals, as JSON bodies need.
        self.text.clear();
        for &k in &self.keys[..NUMBERS] {
            let _ = write!(self.text, "{},", k as f64 / 7.0);
        }
        for field in self.text.split(',').filter(|f| !f.is_empty()) {
            let x: f64 = field.parse().unwrap_or(0.0);
            sum = sum.wrapping_add(x.to_bits());
        }
        black_box(sum)
    }

    /// Thread CPU ns of one pass, after an untimed pass that brings the
    /// kernel's data back into the caches the workload just used.
    pub fn sample(&mut self) -> u64 {
        self.pass();
        let start = thread_cpu();
        self.pass();
        (thread_cpu() - start).as_nanos() as u64
    }
}

/// Kernel samples of one phase (the op loop, or the set-ups), and the
/// host slowdown they give each op.
#[derive(Default)]
pub struct Reference {
    /// Ops recorded before the sample, and the kernel's time in ns (the
    /// mean over the kernels sampled at once).
    pub samples: Vec<(usize, f64)>,
}

impl Reference {
    /// Times one pass on every kernel at once, one thread each, so every
    /// CPU a threaded op runs on is sampled. `at` is the number of ops
    /// recorded so far.
    pub fn sample_on(&mut self, at: usize, kernels: &mut [Kernel]) {
        let times: Vec<u64> = match kernels {
            [one] => vec![one.sample()],
            many => std::thread::scope(|s| {
                let handles: Vec<_> = many
                    .iter_mut()
                    .map(|k| s.spawn(move || k.sample()))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("kernel threads do not panic"))
                    .collect()
            }),
        };
        let mean = times.iter().sum::<u64>() as f64 / times.len() as f64;
        self.samples.push((at, mean));
    }

    /// Median slowdown over the phase: how much slower than the reference
    /// host this host ran; NaN without samples.
    pub fn slowdown(&self) -> f64 {
        let ns: Vec<f64> = self.samples.iter().map(|&(_, ns)| ns).collect();
        crate::stats::median(&ns) / NOMINAL_NS
    }

    /// The slowdown each of `n` ops ran at: the median of the last sample
    /// taken before the op and its two neighbours, over [`NOMINAL_NS`].
    /// The host's speed drifts within a run too, so every op is corrected
    /// by the samples taken around it. All NaN without samples, which the
    /// report turns into an incorrect run.
    pub fn factors(&self, n: usize) -> Vec<f64> {
        if self.samples.is_empty() {
            return vec![f64::NAN; n];
        }
        let last = self.samples.len() - 1;
        let mut j = 0;
        (0..n)
            .map(|i| {
                while j < last && self.samples[j + 1].0 <= i {
                    j += 1;
                }
                let near: Vec<f64> = self.samples[j.saturating_sub(1)..=(j + 1).min(last)]
                    .iter()
                    .map(|&(_, ns)| ns)
                    .collect();
                crate::stats::median(&near) / NOMINAL_NS
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_work_is_fixed() {
        let mut a = Kernel::new();
        let mut b = Kernel::new();
        let first = a.pass();
        assert_eq!(first, a.pass());
        assert_eq!(first, b.pass());
        assert!(a.dist.iter().all(|&d| d < u64::MAX), "ring reaches all");
    }

    #[test]
    fn each_op_takes_the_median_of_the_samples_around_it() {
        let nominal = NOMINAL_NS;
        let r = Reference {
            samples: vec![
                (0, nominal),
                (2, 3.0 * nominal),
                (4, 2.0 * nominal),
                (6, 4.0 * nominal),
            ],
        };
        // Ops 0-1 follow sample 0 (neighbours 0, 1): the lower middle of
        // two; ops 2-3 follow sample 1 (0, 1, 2); ops 4-5 follow sample 2
        // (1, 2, 3); ops 6-7 follow the last one (2, 3).
        assert_eq!(r.factors(8), vec![1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 2.0, 2.0]);
        assert_eq!(r.slowdown(), 2.0);
        assert!(Reference::default().factors(2).iter().all(|f| f.is_nan()));
        assert!(Reference::default().slowdown().is_nan());
    }

    #[test]
    fn parallel_samples_give_one_mean_per_call() {
        let mut r = Reference::default();
        let mut kernels = vec![Kernel::new(), Kernel::new()];
        r.sample_on(0, &mut kernels);
        r.sample_on(1, &mut kernels[..1]);
        assert_eq!(r.samples.len(), 2);
        assert_eq!(r.samples[1].0, 1);
        assert!(r.samples.iter().all(|&(_, ns)| ns > 0.0));
    }
}
