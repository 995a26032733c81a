//! Host conditions recorded with every run: cores, CPU steal, load
//! average and peak memory.  A disturbed machine shows in these numbers,
//! so a steadiness check can tell which runs it should distrust.

/// Aggregate CPU tick counters from `/proc/stat`: `(steal, total)`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user/nice.
    let total = ticks.iter().take(8).sum();
    Some((*ticks.get(7)?, total))
}

/// CPU steal over an interval, opened by [`StealProbe::start`].
pub struct StealProbe(Option<(u64, u64)>);

impl StealProbe {
    /// Start the interval now.
    pub fn start() -> StealProbe {
        StealProbe(cpu_ticks())
    }

    /// Steal share of all CPU ticks since the start, percent (0 where the
    /// counters are unavailable).
    pub fn steal_pct(&self) -> f64 {
        match (self.0, cpu_ticks()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                100.0 * s1.saturating_sub(s0) as f64 / (t1 - t0) as f64
            }
            _ => 0.0,
        }
    }
}

/// One-minute load average (0 where unavailable).
pub fn load_avg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `struct timespec` on the 64-bit Linux targets this benchmark builds
/// for.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` of `<time.h>`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

// `std` links libc on every Linux target, so this resolves without any
// crates.io dependency.
extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU time this process has used so far, user plus system, over all its
/// threads including those that have ended, seconds (0 where
/// unavailable).  Time a thread spends waiting for a core is not in it.
pub fn cpu_s() -> f64 {
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `t` is a valid, writable timespec for the whole call.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) } != 0 {
        return 0.0;
    }
    t.sec as f64 + t.nsec as f64 * 1e-9
}
