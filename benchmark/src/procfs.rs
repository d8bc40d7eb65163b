//! What the operating system says about the process, read from `/proc`.
//!
//! Linux only: elsewhere every reading is `None` and the metrics derived
//! from it print `n/a`.

/// Kernel clock ticks per second for the `utime`/`stime` fields: `USER_HZ`,
/// which the Linux user-space ABI fixes at 100 on every architecture.
const TICKS_PER_SECOND: f64 = 100.0;

/// One reading of the process-wide counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// CPU seconds (user + system) of the process so far, exited threads
    /// included.
    pub cpu_s: Option<f64>,
    /// Processes and threads created on the whole machine since boot.
    pub forks: Option<u64>,
}

impl ProcSample {
    pub fn now() -> Self {
        let read = |path| std::fs::read_to_string(path).ok();
        ProcSample {
            cpu_s: read("/proc/self/stat")
                .and_then(|text| parse_cpu_ticks(&text))
                .map(|ticks| ticks as f64 / TICKS_PER_SECOND),
            forks: read("/proc/stat").and_then(|text| parse_forks(&text)),
        }
    }
}

/// Peak resident set size of the process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&text).map(|kb| kb as f64 / 1024.0)
}

/// `utime + stime` (fields 14 and 15) of a `/proc/<pid>/stat` line. The
/// command name (field 2) may itself hold spaces and parentheses, so fields
/// are counted from the last `)`.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    utime.checked_add(stime)
}

/// The `processes` line of `/proc/stat`.
pub fn parse_forks(stat: &str) -> Option<u64> {
    stat.lines()
        .find_map(|line| line.strip_prefix("processes "))?
        .trim()
        .parse()
        .ok()
}

/// The `VmHWM` line of `/proc/<pid>/status`, in kB.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SELF_STAT: &str = "8248 (rainbow bench) x) R 8203 8248 8203 0 -1 4194304 88 0 0 0 \
        1234 567 0 0 20 0 1 0 148157 2568192 328 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1";

    #[test]
    fn cpu_ticks_skip_a_command_name_with_spaces_and_parentheses() {
        assert_eq!(parse_cpu_ticks(SELF_STAT), Some(1234 + 567));
        assert_eq!(parse_cpu_ticks("1 (a) R 2 3"), None);
        assert_eq!(parse_cpu_ticks("no parenthesis"), None);
    }

    #[test]
    fn forks_come_from_the_processes_line() {
        let stat = "cpu  1 2 3\nctxt 99\nbtime 1\nprocesses 4258412\nprocs_running 2\n";
        assert_eq!(parse_forks(stat), Some(4_258_412));
        assert_eq!(parse_forks("cpu 1 2 3\nprocs_running 2\n"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kb() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    1628 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(1628));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn live_proc_files_parse() {
        let sample = ProcSample::now();
        assert!(sample.cpu_s.is_some());
        assert!(sample.forks.is_some());
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
