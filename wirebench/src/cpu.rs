//! CPU time of this process, from `/proc/self/stat`, and a probe of the
//! core's clock speed.
//!
//! Time the process is runnable but the hypervisor runs another guest
//! (steal) is not charged to it, so CPU time per operation follows the
//! program's own work more closely than wall time does on a shared host.

use std::time::{Duration, Instant};

/// Clock ticks per second of the `/proc` time fields (`USER_HZ`), fixed
/// at 100 by the Linux ABI.
const TICKS_PER_SECOND: u64 = 100;

/// Steps of the clock probe's multiply-add chain.
const PROBE_STEPS: u32 = 1_000_000;
/// Runs of the probe; the fastest counts.
const PROBE_RUNS: usize = 5;

/// Wall time, in ms, of a chain of [`PROBE_STEPS`] dependent 64-bit
/// multiply-adds: the fastest of [`PROBE_RUNS`] runs, so that a run the
/// scheduler interrupts does not count. Each step waits for the one
/// before it, so the time is a fixed number of core clock cycles and
/// shows the speed at which this core runs now. On a shared host that
/// speed moves with the load other guests put on the host.
pub fn probe_ms() -> f64 {
    (0..PROBE_RUNS)
        .map(|_| {
            let start = Instant::now();
            let mut x = std::hint::black_box(0x2545_F491_4F6C_DD1Du64);
            for _ in 0..PROBE_STEPS {
                x = std::hint::black_box(x.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1));
            }
            std::hint::black_box(x);
            start.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// User plus system CPU time of every thread this process has run,
/// exited ones included.
pub fn process_cpu() -> Result<Duration, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|err| format!("/proc/self/stat: {err}"))?;
    parse_stat(&stat).ok_or_else(|| "unreadable /proc/self/stat".to_string())
}

/// `utime + stime` of a `/proc/<pid>/stat` line.
fn parse_stat(stat: &str) -> Option<Duration> {
    // The command name, in parentheses, may hold spaces; fields after it
    // start at field 3 (state), so utime and stime (14, 15) are 11 and 12.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(Duration::from_millis((utime + stime) * 1000 / TICKS_PER_SECOND))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_user_and_system_ticks() {
        let line =
            "4242 (wire bench) S 1 4242 4242 0 -1 4194560 900 0 0 0 250 37 0 0 20 0 9 0 100 0 0";
        assert_eq!(parse_stat(line), Some(Duration::from_millis(2_870)));
        assert_eq!(parse_stat("4242 (x) S 1"), None);
        assert!(process_cpu().is_ok());
    }

    #[test]
    fn probe_takes_a_positive_time() {
        let t = probe_ms();
        assert!(t.is_finite() && t > 0.0, "{t}");
    }
}
