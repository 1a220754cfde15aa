//! Benchmark support for the workspace: a tiny, dependency-free timing
//! harness used by the `benches/` binaries (the build environment has no
//! crates.io access, so criterion is unavailable; the benches are plain
//! `harness = false` executables instead).
//!
//! Each bench binary calls [`measure`] once per measurement, which prints a
//! criterion-style line with the best and the **median** repetition. The
//! end-to-end numbers of record come from the deal benchmark (`dealbench/`);
//! these microbenches time building blocks that no dealbench workload runs on
//! their own.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::hint::black_box;
use std::time::Instant;

/// How many timed repetitions each measurement runs (the best and the median
/// of these are reported).
const REPS: usize = 3;

/// The statistics of one measurement.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Best-of-reps nanoseconds per iteration (damps scheduler noise).
    pub ns_per_iter: f64,
    /// Median-of-reps nanoseconds per iteration (robust central tendency).
    pub median_ns: f64,
    /// Iterations per repetition.
    pub iters: u32,
}

/// Times `f` over `iters` iterations × `REPS` repetitions (after warmup)
/// and returns the per-iteration statistics, printing a criterion-style line.
pub fn measure<T>(name: &str, iters: u32, mut f: impl FnMut() -> T) -> BenchResult {
    for _ in 0..iters.div_ceil(10).max(1) {
        black_box(f());
    }
    let mut reps = [0f64; REPS];
    for rep in reps.iter_mut() {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        *rep = start.elapsed().as_nanos() as f64 / iters as f64;
    }
    reps.sort_by(|a, b| a.total_cmp(b));
    let best = reps[0];
    let median = reps[REPS / 2];
    println!("{name:<55} {best:>14.0} ns/iter (median {median:>10.0}) ({iters} iters)");
    BenchResult {
        ns_per_iter: best,
        median_ns: median,
        iters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_reports() {
        let mut count = 0u64;
        measure("smoke", 10, || {
            count += 1;
            count
        });
        // 1 warmup + 3 × 10 measured iterations.
        assert_eq!(count, 31);
    }

    #[test]
    fn measure_yields_ordered_statistics() {
        let r = measure("stats", 5, || std::hint::black_box(40 + 2));
        assert_eq!(r.iters, 5);
        assert!(r.ns_per_iter >= 0.0);
        assert!(r.median_ns >= r.ns_per_iter, "median is at least the best");
    }
}
