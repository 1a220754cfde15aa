//! Small statistics and environment helpers: percentiles, seeded mixing,
//! the calibration loop and the process's peak resident memory.

use std::hint::black_box;
use std::time::Instant;

use xchain_sim::crypto::splitmix64;

/// Rounds of the fixed pure-CPU calibration loop (about 20–40 ms on one
/// core of a current x86-64 machine).
const CALIBRATION_ROUNDS: u64 = 20_000_000;

/// Derives the `i`-th input seed from the workload seed.
pub fn mix(seed: u64, i: u64) -> u64 {
    splitmix64(seed ^ splitmix64(i.wrapping_add(0x5eed)))
}

/// Nearest-rank percentile of an ascending slice (`q` in `(0, 1]`).
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a set of readings.
pub fn median(mut values: Vec<f64>) -> f64 {
    assert!(!values.is_empty(), "median of no readings");
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// Times the fixed calibration loop, in milliseconds. Run at the start and
/// end of every run so a slow machine shows as a slow calibration.
pub fn calibrate_ms() -> f64 {
    let start = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..CALIBRATION_ROUNDS {
        x = splitmix64(black_box(x ^ i));
    }
    black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// Peak resident memory of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("unreadable VmHWM line {line:?}: {e}"))?;
    Ok(kib / 1024.0)
}

/// The machine's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&[7], 0.99), 7);
    }
}
