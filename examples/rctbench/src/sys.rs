//! Process clocks and the machine fingerprint, read from `/proc` with std
//! only.

use std::time::Instant;

/// The monotonic clock every timing of the benchmark reads.
pub fn now() -> Instant {
    // lint: wall-clock — a benchmark measures real durations
    Instant::now()
}

/// Clock ticks per second from the auxiliary vector (`AT_CLKTCK`), falling
/// back to the Linux default of 100.
fn clock_ticks_per_s() -> f64 {
    const AT_CLKTCK: u64 = 17;
    let Ok(auxv) = std::fs::read("/proc/self/auxv") else { return 100.0 };
    for pair in auxv.chunks_exact(16) {
        let key = u64::from_ne_bytes(pair[..8].try_into().expect("8-byte word"));
        let val = u64::from_ne_bytes(pair[8..].try_into().expect("8-byte word"));
        if key == AT_CLKTCK && val > 0 {
            return val as f64;
        }
    }
    100.0
}

/// Process CPU time (user + system, every thread, live or exited), seconds,
/// from `/proc/self/stat`.
pub fn cpu_time_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name start at field 3 (state);
    // utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 =
        fields[11].parse::<f64>().expect("utime") + fields[12].parse::<f64>().expect("stime");
    ticks / clock_ticks_per_s()
}

/// Peak resident set size so far (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Worker threads the benchmark uses: the machine's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// What a measurement depends on besides the code: results recorded under
/// different fingerprints are not comparable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Machine {
    pub nproc: usize,
    /// The `puffer-nn` matmul kernel tier this CPU dispatches to.
    pub tier: &'static str,
    pub rustc: &'static str,
    pub cpu: String,
}

impl Machine {
    pub fn detect() -> Machine {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Machine {
            nproc: nproc(),
            tier: puffer_nn::Tier::detect().name(),
            rustc: env!("RCTBENCH_RUSTC"),
            cpu,
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"tier\": {}, \"rustc\": {}, \"cpu\": {}}}",
            self.nproc,
            crate::json::quote(self.tier),
            crate::json::quote(self.rustc),
            crate::json::quote(&self.cpu)
        )
    }
}
