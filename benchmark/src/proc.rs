//! Process accounting: CPU time from the process CPU clock and `/proc`,
//! peak resident memory from `/proc`. Linux only, like the container the
//! benchmark runs in.

use std::fs;

/// User + system CPU time of the whole process so far, in ms, threads
/// that already exited included. Read from the process CPU clock, which has
/// nanosecond resolution: the 10 ms ticks of `/proc/self/stat` are 2 % of
/// what a half-second window spends.
pub fn process_cpu_ms() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid `struct timespec` for 64-bit Linux, which is
    // all the call writes to.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock exists on Linux");
    ts.sec as f64 * 1e3 + ts.nsec as f64 / 1e6
}

/// On-CPU time of the calling thread so far, in ns (scheduler
/// accounting, so it has nanosecond rather than tick resolution).
pub fn thread_cpu_ns() -> u64 {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size (`VmHWM`) of the process, in MB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))?
                .split_whitespace()
                .next()?
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_read_and_advance() {
        assert!(peak_rss_mb() > 0.0);
        let (cpu0, thr0) = (process_cpu_ms(), thread_cpu_ns());
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu_ms() > cpu0);
        assert!(thread_cpu_ns() > thr0);
    }
}
