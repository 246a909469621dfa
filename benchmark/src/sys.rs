//! What the benchmark reads from the operating system: process CPU time,
//! resident memory, and the environment block recorded with a run.
//! Linux `/proc` only — the workspace has no libc binding.

use crate::json::Json;
use std::fs;
use std::process::Command;

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, 100 on
/// every Linux ABI).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds consumed so far by all threads of this
/// process (fields 14 and 15 of `/proc/self/stat`; 10 ms resolution).
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis, so utime/stime are the 12th/13th from there.
    let mut rest = stat
        .rsplit_once(')')
        .map_or("", |(_, r)| r)
        .split_whitespace();
    let ticks = |s: Option<&str>| s.and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    let utime = ticks(rest.nth(11));
    let stime = ticks(rest.next());
    (utime + stime) / USER_HZ
}

fn status_kb(field: &str) -> u64 {
    fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Resident set size now, in KiB.
pub fn rss_kb() -> u64 {
    status_kb("VmRSS:")
}

/// Peak resident set size since the last [`reset_peak_rss`] (or process
/// start where the kernel refuses the reset), in KiB.
pub fn peak_rss_kb() -> u64 {
    status_kb("VmHWM:")
}

/// Ask the kernel to restart peak-RSS tracking from the current RSS.
pub fn reset_peak_rss() {
    let _ = fs::write("/proc/self/clear_refs", "5");
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The environment a set of numbers was measured in.
pub fn environment(seed: u64) -> Json {
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or_else(|| "unknown".to_string(), |(_, v)| v.trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("cpu_model", Json::Str(cpu)),
        ("rustc", Json::Str(command_line("rustc", &["-V"]))),
        (
            "commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::Num(seed as f64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_see_this_process() {
        assert!(rss_kb() > 0);
        assert!(peak_rss_kb() >= rss_kb() / 2);
        let before = cpu_seconds();
        let mut x = 0u64;
        while cpu_seconds() - before < 0.02 {
            for i in 0..1_000_000u64 {
                x = x.wrapping_add(std::hint::black_box(i));
            }
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() > before);
    }
}
