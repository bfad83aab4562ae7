//! Process resource accounting from `/proc/self`: CPU seconds (user +
//! system, every thread, including ones that already exited) and the
//! resident-set high-water mark.

use std::fs;

/// Kernel clock ticks per second as exposed to user space (`USER_HZ`). The
/// value is an ABI constant of 100 on Linux; without libc there is no
/// `sysconf(_SC_CLK_TCK)` to ask.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds from the text of `/proc/<pid>/stat`.
///
/// The second field (the command name) is parenthesised and may itself
/// contain spaces and parentheses, so fields are counted from the *last*
/// `)`: `utime` and `stime` are fields 14 and 15 of the line, the 12th and
/// 13th after the command.
pub fn parse_stat_cpu_seconds(stat: &str) -> Option<f64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_ascii_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SECOND)
}

/// `VmHWM` (peak resident set) in MiB from the text of `/proc/<pid>/status`.
pub fn parse_status_peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_ascii_whitespace();
    let kib: u64 = fields.next()?.parse().ok()?;
    (fields.next()? == "kB").then_some(kib as f64 / 1024.0)
}

/// CPU seconds this process has consumed so far.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    parse_stat_cpu_seconds(&stat).ok_or_else(|| "/proc/self/stat: unexpected format".to_string())
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    parse_status_peak_rss_mb(&status).ok_or_else(|| "/proc/self/status: no VmHWM line".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (bench (v2) x) S 1 4242 4242 0 -1 4194304 1234 0 0 0 \
                        731 59 0 0 20 0 3 0 100 1000000 2000 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";

    #[test]
    fn stat_cpu_is_utime_plus_stime_even_with_a_hostile_command_name() {
        assert_eq!(parse_stat_cpu_seconds(STAT), Some(7.9));
        assert_eq!(parse_stat_cpu_seconds("1 (a) S 1 2 3"), None);
        assert_eq!(parse_stat_cpu_seconds("no parenthesis"), None);
        assert_eq!(parse_stat_cpu_seconds("1 (a) S 0 0 0 0 0 0 0 0 0 0 x 1"), None);
    }

    #[test]
    fn status_peak_rss_reads_vmhwm_in_kib() {
        let status = "Name:\tbench\nVmPeak:\t  999999 kB\nVmHWM:\t  112640 kB\nVmRSS:\t  100 kB\n";
        assert_eq!(parse_status_peak_rss_mb(status), Some(110.0));
        assert_eq!(parse_status_peak_rss_mb("Name:\tbench\n"), None);
        assert_eq!(parse_status_peak_rss_mb("VmHWM:\t12 MB\n"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(cpu_seconds().unwrap() >= 0.0);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
