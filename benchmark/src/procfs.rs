//! Process and per-thread accounting read from `/proc/self` (Linux).
//!
//! CPU time comes from each thread's `schedstat` (nanoseconds on the
//! processor). Where the kernel keeps none, it falls back to `stat`'s
//! `utime + stime` in clock ticks; Linux reports those in `USER_HZ`,
//! which is 100 on every mainstream architecture, so one tick is 10 ms
//! — one percent of the CPU an open-loop window uses, coarse enough for
//! two runs to read exactly the same.

use std::fs;

/// Microseconds per `/proc` clock tick (`USER_HZ` = 100).
pub const TICK_US: u64 = 10_000;

/// The fields of a `/proc/<pid>/stat` line this benchmark uses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stat {
    /// Thread or process name, as the kernel holds it (≤ 15 bytes).
    pub comm: String,
    /// User + system time, clock ticks.
    pub cpu_ticks: u64,
}

/// Parse one `stat` line. The name sits between the first `(` and the
/// *last* `)` — it may itself contain spaces and parentheses — and the
/// numbered fields resume after it (`state` is field 3, `utime` 14,
/// `stime` 15).
pub fn parse_stat(line: &str) -> Option<Stat> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    let comm = line.get(open + 1..close)?.to_string();
    let mut rest = line.get(close + 1..)?.split_ascii_whitespace();
    let utime: u64 = rest.nth(11)?.parse().ok()?;
    let stime: u64 = rest.next()?.parse().ok()?;
    Some(Stat { comm, cpu_ticks: utime + stime })
}

/// Sum of the two context-switch counters of a `status` file.
pub fn parse_ctx_switches(status: &str) -> u64 {
    status
        .lines()
        .filter_map(|line| {
            let (key, value) = line.split_once(':')?;
            matches!(key, "voluntary_ctxt_switches" | "nonvoluntary_ctxt_switches")
                .then(|| value.trim().parse::<u64>().ok())?
        })
        .sum()
}

/// A `kB` field of a `status` file (`VmHWM`, `VmRSS`, …).
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let (k, value) = line.split_once(':')?;
        (k == key).then(|| value.trim().strip_suffix("kB")?.trim().parse().ok())?
    })
}

/// Time on the processor from a `schedstat` line (its first field, ns),
/// in µs.
pub fn parse_schedstat_us(line: &str) -> Option<u64> {
    Some(line.split_ascii_whitespace().next()?.parse::<u64>().ok()? / 1_000)
}

/// CPU of the live threads so far, µs. Measured windows open and close
/// while the deployment's threads are all alive, so differences of this
/// are the process CPU of the window.
pub fn process_cpu_us() -> u64 {
    let threads = Threads::snapshot();
    threads.reactor_cpu_us + threads.driver_cpu_us
}

/// Peak resident set size of the process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| parse_status_kb(&status, "VmHWM"))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// A point-in-time view of the live threads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Threads {
    /// Live threads.
    pub count: u64,
    /// CPU of the `ac-loop-*` reactor threads, µs.
    pub reactor_cpu_us: u64,
    /// CPU of every other live thread (the driver), µs.
    pub driver_cpu_us: u64,
    /// Voluntary + involuntary context switches over live threads.
    pub ctx_switches: u64,
}

impl Threads {
    /// Read `/proc/self/task/*`. Threads that exit between the listing
    /// and the read are skipped.
    pub fn snapshot() -> Threads {
        let mut threads = Threads::default();
        let Ok(tasks) = fs::read_dir("/proc/self/task") else { return threads };
        for task in tasks.flatten() {
            let Some(stat) =
                fs::read_to_string(task.path().join("stat")).ok().and_then(|l| parse_stat(&l))
            else {
                continue;
            };
            threads.count += 1;
            let cpu_us = fs::read_to_string(task.path().join("schedstat"))
                .ok()
                .and_then(|line| parse_schedstat_us(&line))
                .unwrap_or(stat.cpu_ticks * TICK_US);
            if stat.comm.starts_with("ac-loop-") {
                threads.reactor_cpu_us += cpu_us;
            } else {
                threads.driver_cpu_us += cpu_us;
            }
            if let Ok(status) = fs::read_to_string(task.path().join("status")) {
                threads.ctx_switches += parse_ctx_switches(&status);
            }
        }
        threads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT_TAIL: &str = "S 1 2 3 0 -1 4194560 9 8 7 6 120 34 0 0 20 0 3 0 100 1 2";

    #[test]
    fn stat_line_with_plain_name() {
        let stat = parse_stat(&format!("4242 (ac-loop-1) {STAT_TAIL}")).unwrap();
        assert_eq!(stat, Stat { comm: "ac-loop-1".into(), cpu_ticks: 154 });
    }

    #[test]
    fn stat_name_may_hold_spaces_and_parentheses() {
        for name in ["my thread", "a) S 9 9 9 (b", "((x))", ") 1 2 3 4 5 6 7 8 9 10 11 12 13 14"] {
            let stat = parse_stat(&format!("7 ({name}) {STAT_TAIL}")).unwrap();
            assert_eq!(stat.comm, name);
            assert_eq!(stat.cpu_ticks, 154, "fields resume after the last ')' for {name:?}");
        }
    }

    #[test]
    fn truncated_stat_lines_are_rejected() {
        assert_eq!(parse_stat("1 (x) S 1 2"), None);
        assert_eq!(parse_stat("no parens here"), None);
        assert_eq!(parse_stat(""), None);
    }

    #[test]
    fn schedstat_line() {
        assert_eq!(parse_schedstat_us("58598123 1200 7\n"), Some(58_598));
        assert_eq!(parse_schedstat_us(""), None);
        assert_eq!(parse_schedstat_us("x 1 2"), None);
    }

    #[test]
    fn status_fields() {
        let status = "Name:\tbench\nVmHWM:\t  123456 kB\nVmRSS:\t 1000 kB\n\
                      voluntary_ctxt_switches:\t40\nnonvoluntary_ctxt_switches:\t2\n";
        assert_eq!(parse_ctx_switches(status), 42);
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(123_456));
        assert_eq!(parse_status_kb(status, "VmPeak"), None);
        assert_eq!(parse_ctx_switches("Name:\tx\n"), 0);
    }

    #[test]
    fn live_snapshot_sees_this_thread() {
        let started = std::time::Instant::now();
        while started.elapsed() < std::time::Duration::from_millis(20) {
            std::hint::spin_loop();
        }
        let threads = Threads::snapshot();
        assert!(threads.count >= 1);
        assert!(threads.driver_cpu_us >= 10_000, "this thread just spent 20 ms on the processor");
        assert_eq!(threads.reactor_cpu_us, 0, "no reactor thread in a unit test");
        assert!(peak_rss_mb() > 0.0);
    }
}
