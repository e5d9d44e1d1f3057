//! Host-side measurements: process CPU time, peak memory, and the
//! calibration probe that tells a slow host from a slow VM.

use std::process::{Command, Stdio};
use std::time::Instant;

/// Calibration time of the fixed kernel on a quiet reference host (a
/// 2-vCPU KVM guest on a 2.1 GHz Xeon). A run whose probe is more than
/// [`NOISY_FACTOR`] slower ran on a contended host; its numbers are
/// flagged, not gated.
pub const CALIB_REFERENCE_MS: f64 = 7.5;
/// How much slower than [`CALIB_REFERENCE_MS`] counts as a noisy host.
pub const NOISY_FACTOR: f64 = 1.15;

/// CPU nanoseconds consumed so far by every live thread of this process
/// (the VM thread plus translation-pool workers), summed over the first
/// field of `/proc/self/task/*/schedstat`.
pub fn process_cpu_ns() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(|t| t.ok())
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// Pins the calling (main) thread to CPU 0 with `taskset`; threads it
/// spawns afterwards, the translation-pool worker among them, inherit
/// the mask. Left to the scheduler, a woken worker lands on the VM
/// thread's CPU in some runs and on the idle one in others, and the two
/// placements differ by a fifth in `cold` throughput. On one CPU the
/// worker preempts the VM thread as soon as it is woken, so every run
/// puts translation on the critical path the same way. Returns whether
/// the thread was pinned (not without `taskset`).
pub fn pin_to_cpu0() -> bool {
    Command::new("taskset")
        .args(["-p", "-c", "0"])
        .arg(std::process::id().to_string())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Best of three timings, in ms, of a fixed kernel: a xorshift stream
/// scattering updates over a 1 MiB table — integer ALU work plus
/// cache-missing memory traffic, the VM's own mix.
pub fn calibrate() -> f64 {
    (0..3).map(|_| kernel_ms()).fold(f64::INFINITY, f64::min)
}

fn kernel_ms() -> f64 {
    const WORDS: usize = (1 << 20) / 8;
    let mut table = vec![0u64; WORDS];
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let start = Instant::now();
    for _ in 0..4_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        table[(x as usize) % WORDS] = table[(x as usize) % WORDS].wrapping_add(x);
    }
    std::hint::black_box(&table);
    start.elapsed().as_secs_f64() * 1e3
}
