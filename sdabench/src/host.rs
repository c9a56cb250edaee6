//! Host and process probes, read from outside the measured crates.

/// Logical cores available to this process.
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The CPU model name from `/proc/cpuinfo`, or `"unknown"`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The compiler that built this benchmark.
pub fn rustc_version() -> &'static str {
    env!("SDABENCH_RUSTC_VERSION")
}

/// Peak resident set size of this process (`VmHWM`), in MB (10^6 bytes).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, fixed
/// at 100 by the Linux user ABI).
const USER_HZ: f64 = 100.0;

/// CPU seconds (user + system, all threads, including exited ones) this
/// process has used, from `/proc/self/stat`.
pub fn process_cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces; fields after the
    // closing parenthesis start at field 3 (`state`).
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15, i.e. indices 11 and 12 here.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// The host a committed baseline was recorded on.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordedHost {
    /// `host_cores` at recording time.
    pub host_cores: usize,
    /// CPU model name at recording time.
    pub cpu_model: String,
    /// The reference simulation's event rate on an uncontended recording
    /// host: the speed throughputs are scaled to.
    pub reference_events_per_s: f64,
}

/// Reads the recorded host from the `key = value` lines of `text`
/// (`host_cores`, `cpu_model` and `reference_events_per_s`).
pub fn parse_recorded_host(text: &str) -> Option<RecordedHost> {
    let mut cores = None;
    let mut model = None;
    let mut reference = None;
    for line in text.lines() {
        let Some((k, v)) = line.split_once('=') else {
            continue;
        };
        match k.trim() {
            "host_cores" => cores = v.trim().parse().ok(),
            "cpu_model" => model = Some(v.trim().to_string()),
            "reference_events_per_s" => reference = v.trim().parse().ok(),
            _ => {}
        }
    }
    Some(RecordedHost {
        host_cores: cores?,
        cpu_model: model?,
        reference_events_per_s: reference?,
    })
}
