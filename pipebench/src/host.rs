//! What the benchmark reads from the host: CPU counts and affinity, the
//! process CPU clock, the `/proc/stat` steal share, and peak RSS.
//!
//! Linux only. Everything here reads `/proc` or calls libc directly, since
//! the workspace vendors no `libc` crate.

use std::time::Duration;

/// `CLOCK_PROCESS_CPUTIME_ID` from `<time.h>`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
/// `CLOCK_THREAD_CPUTIME_ID` from `<time.h>`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
/// Bytes in the affinity masks passed to the scheduler (1024 CPUs).
const MASK_WORDS: usize = 16;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

fn cpu_clock(clock: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark builds for), and
    // both clock ids used here are constants the kernel always supports.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time consumed so far by every thread of this process.
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed so far by the calling thread.
pub fn thread_cpu() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// An affinity mask of the calling thread.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CpuSet([u64; MASK_WORDS]);

impl CpuSet {
    /// The CPUs the calling thread may run on.
    pub fn current() -> CpuSet {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        assert!(rc >= 0, "sched_getaffinity failed");
        CpuSet(mask)
    }

    /// The allowed CPU ids, ascending.
    pub fn cpus(&self) -> Vec<usize> {
        (0..MASK_WORDS * 64)
            .filter(|&cpu| self.0[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect()
    }

    fn single(cpu: usize) -> CpuSet {
        let mut mask = [0u64; MASK_WORDS];
        mask[cpu / 64] |= 1 << (cpu % 64);
        CpuSet(mask)
    }

    /// Restricts the calling thread, and every thread it spawns afterwards,
    /// to this set.
    pub fn apply(&self) {
        // SAFETY: `self.0` is a readable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&self.0), self.0.as_ptr()) };
        assert_eq!(rc, 0, "sched_setaffinity failed");
    }
}

/// Runs `f` with the calling thread pinned to its lowest allowed CPU, so
/// that threads `f` spawns share that CPU too, then restores the mask.
pub fn pinned<R>(f: impl FnOnce() -> R) -> R {
    let saved = CpuSet::current();
    let cpu = *saved.cpus().first().expect("at least one allowed CPU");
    CpuSet::single(cpu).apply();
    let result = f();
    saved.apply();
    result
}

/// Online CPUs as the scheduler reports them to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Aggregate `/proc/stat` CPU counters, in clock ticks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CpuTicks {
    /// Sum of every field of the aggregate `cpu` line.
    pub total: u64,
    /// The `steal` field: time the hypervisor ran someone else.
    pub steal: u64,
}

/// Parses the aggregate `cpu` line of `/proc/stat` text.
pub fn parse_proc_stat(text: &str) -> Option<CpuTicks> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user, so it is left out of the total.
    let steal = *fields.get(7)?;
    let total = fields.iter().take(8).sum();
    Some(CpuTicks { total, steal })
}

/// Reads the current aggregate counters (zeros when `/proc` is absent).
pub fn cpu_ticks() -> CpuTicks {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|t| parse_proc_stat(&t))
        .unwrap_or_default()
}

/// Steal share of all CPU time between two readings.
pub fn steal_share(before: CpuTicks, after: CpuTicks) -> f64 {
    let total = after.total.saturating_sub(before.total);
    if total == 0 {
        return 0.0;
    }
    after.steal.saturating_sub(before.steal) as f64 / total as f64
}

/// Peak resident set (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_share_comes_from_the_aggregate_line() {
        let before = "cpu  100 0 50 800 10 0 5 35 7 0\ncpu0 1 2 3 4 5 6 7 8 9 10\nintr 5\n";
        let after = "cpu  200 0 70 1500 10 0 5 135 9 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        let a = parse_proc_stat(before).expect("parses");
        let b = parse_proc_stat(after).expect("parses");
        assert_eq!(
            a,
            CpuTicks {
                total: 1000,
                steal: 35
            }
        );
        assert_eq!(b.total, 1920);
        // 100 steal ticks out of 920 elapsed.
        assert!((steal_share(a, b) - 100.0 / 920.0).abs() < 1e-12);
    }

    #[test]
    fn short_or_garbled_stat_lines_are_rejected() {
        assert_eq!(parse_proc_stat("cpu  1 2 3 4\n"), None);
        assert_eq!(parse_proc_stat("cpu  1 2 x 4 5 6 7 8\n"), None);
        assert_eq!(parse_proc_stat("cpu0 1 2 3 4 5 6 7 8\n"), None);
        assert_eq!(steal_share(CpuTicks::default(), CpuTicks::default()), 0.0);
    }

    #[test]
    fn pinning_restores_the_mask() {
        let before = CpuSet::current();
        let inside = pinned(CpuSet::current);
        assert_eq!(inside.cpus().len(), 1);
        assert_eq!(CpuSet::current(), before);
    }

    #[test]
    fn process_cpu_advances() {
        let a = process_cpu();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        std::hint::black_box(x);
        assert!(process_cpu() > a);
    }
}
