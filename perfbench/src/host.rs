//! Process resource usage and the host fingerprint printed with every run.

/// `struct rusage` of 64-bit Linux: two `timeval`s, then fourteen `long`s.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    longs: [i64; 14],
}

const RUSAGE_SELF: i32 = 0;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

fn rusage() -> Rusage {
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        longs: [0; 14],
    };
    // SAFETY: `usage` is a valid, writable `struct rusage` for this target.
    let status = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(status, 0, "getrusage failed");
    usage
}

/// User + system CPU seconds of the whole process so far.
pub fn cpu_seconds() -> f64 {
    let usage = rusage();
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
    secs(usage.utime) + secs(usage.stime)
}

/// Peak resident set of the process since the last `reset_peak_rss`, in MB
/// (10^6 bytes): `VmHWM` of `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|value| value.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib * 1024.0 / 1e6
}

/// Lowers the peak resident set to the current one (`clear_refs` mode 5).
pub fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5").expect("reset the peak resident set");
}

/// `nproc`, CPU model, commit and the rustflags the benchmark was built
/// with, as one line.
pub fn fingerprint(commit: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    format!(
        "host: nproc={nproc} cpu=\"{cpu}\" commit={commit} rustflags=\"{}\"",
        env!("PERFBENCH_RUSTFLAGS")
    )
}
