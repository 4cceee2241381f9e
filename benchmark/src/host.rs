//! What the benchmark reads about its own process and host: CPU time,
//! peak memory, core count and the filesystem the journals live on.

use std::path::Path;

/// Kernel clock ticks per second for `/proc/self/stat` times. Linux has
/// reported `USER_HZ = 100` on every architecture since 2.6; there is no
/// `sysconf` in `std` to ask.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds this process (every thread) has consumed.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may hold spaces; fields are counted
    // from the closing parenthesis.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state), so utime (14) and stime (15) sit
    // at indices 11 and 12.
    let ticks = |i: usize| fields[i].parse::<f64>().expect("tick counts are numeric");
    (ticks(11) + ticks(12)) / TICKS_PER_SECOND
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse::<f64>().ok())
        .expect("VmHWM is reported");
    kib / 1024.0
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Filesystem type of the mount holding `path` (longest matching mount
/// point in `/proc/mounts`) — recorded because an fsync on tmpfs is free.
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".to_string();
    };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, point, kind) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(point).then_some((point.len(), kind))
        })
        .max_by_key(|&(len, _)| len)
        .map_or("unknown".to_string(), |(_, kind)| kind.to_string())
}

/// One progress line on standard error (standard output is the result).
pub fn progress(what: &str) {
    static START: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    let start = START.get_or_init(std::time::Instant::now);
    eprintln!("[{:7.2}s] {what}", start.elapsed().as_secs_f64());
}
