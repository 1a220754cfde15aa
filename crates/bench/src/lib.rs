//! Benchmark support for the workspace: a tiny, dependency-free timing
//! harness used by the `benches/` binaries (the build environment has no
//! crates.io access, so criterion is unavailable; the benches are plain
//! `harness = false` executables instead).
//!
//! Each bench binary builds a [`Suite`], runs its measurements through
//! [`Suite::bench`], and calls [`Suite::finish`]. Besides the criterion-style
//! stdout lines (now reporting both the best and the **median** repetition),
//! passing `--json` to the binary writes the results as
//! `BENCH_<suite>.json` at the repository root — an array of
//! `{"name", "ns_per_iter", "median_ns", "iters"}` records — so the perf
//! trajectory can be tracked across PRs (see `BENCH_baseline.json`), and
//! passing `--diff BENCH_baseline.json` prints a regression table comparing
//! the fresh run against the committed baseline (report-only: the
//! `bench-baseline` CI job never fails on timing). Adding
//! `--fail-above <pct>` opts into gating: the process exits non-zero if any
//! baseline benchmark regressed by more than `pct` percent — for local perf
//! work and dedicated hardware, not the shared CI runners.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// How many timed repetitions each measurement runs (the best and the median
/// of these are reported).
const REPS: usize = 3;

/// One measured benchmark.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name, e.g. `"fig4_gas/timelock/3"`.
    pub name: String,
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
        name: name.to_string(),
        ns_per_iter: best,
        median_ns: median,
        iters,
    }
}

/// Times `f` and prints a criterion-style `name ... ns/iter` line.
/// Standalone convenience wrapper around [`measure`] for callers that do not
/// need a [`Suite`].
pub fn bench<T>(name: &str, iters: u32, f: impl FnMut() -> T) {
    measure(name, iters, f);
}

/// A named collection of benchmark results with optional JSON output and
/// baseline diffing.
#[derive(Debug)]
pub struct Suite {
    name: String,
    json: bool,
    diff_against: Option<PathBuf>,
    fail_above: Option<f64>,
    results: Vec<BenchResult>,
}

impl Suite {
    /// Creates the suite for one bench binary, reading the process arguments:
    /// `--json` enables writing `BENCH_<name>.json` on [`Suite::finish`];
    /// `--diff <baseline.json>` (or `--diff=<baseline.json>`) compares the
    /// fresh run against a committed baseline and prints a regression table
    /// (report-only by default — timing never fails the run). Relative
    /// baseline paths are resolved against the repository root.
    ///
    /// `--fail-above <pct>` (or `--fail-above=<pct>`) opts into gating: if
    /// any benchmark present in the `--diff` baseline regressed by more than
    /// `pct` percent, [`Suite::finish`] exits with a non-zero status after
    /// printing the table. The `bench-baseline` CI job deliberately does
    /// *not* pass it (timing on shared runners is noisy); it exists for
    /// local perf work and dedicated hardware.
    pub fn from_args(name: &str) -> Self {
        let args: Vec<String> = std::env::args().collect();
        let json = args.iter().any(|a| a == "--json");
        let mut diff_against = None;
        let mut fail_above = None;
        for (i, a) in args.iter().enumerate() {
            if let Some(path) = a.strip_prefix("--diff=") {
                diff_against = Some(resolve_baseline(path));
            } else if a == "--diff" {
                if let Some(path) = args.get(i + 1) {
                    diff_against = Some(resolve_baseline(path));
                }
            } else if let Some(pct) = a.strip_prefix("--fail-above=") {
                fail_above = Some(parse_threshold(pct));
            } else if a == "--fail-above" {
                if let Some(pct) = args.get(i + 1) {
                    fail_above = Some(parse_threshold(pct));
                }
            }
        }
        Suite {
            name: name.to_string(),
            json,
            diff_against,
            fail_above,
            results: Vec::new(),
        }
    }

    /// Runs and records one measurement (see [`measure`]).
    pub fn bench<T>(&mut self, name: &str, iters: u32, f: impl FnMut() -> T) -> &BenchResult {
        let r = measure(name, iters, f);
        self.results.push(r);
        self.results.last().expect("just pushed")
    }

    /// The results measured so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Writes `BENCH_<suite>.json` at the repository root when the binary was
    /// invoked with `--json`, and prints the baseline regression table when
    /// it was invoked with `--diff <baseline.json>`.
    pub fn finish(&self) {
        if self.json {
            let path = json_path(&self.name);
            std::fs::write(&path, render_json(&self.results))
                .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
            println!("wrote {}", path.display());
        }
        let Some(baseline_path) = &self.diff_against else {
            if self.fail_above.is_some() {
                // Gating without a baseline to gate against is an operator
                // error, not a pass.
                eprintln!("--fail-above requires --diff <baseline.json>");
                std::process::exit(2);
            }
            return;
        };
        match std::fs::read_to_string(baseline_path) {
            Ok(json) => {
                let baseline = parse_results(&json);
                print!("{}", render_diff(&self.results, &baseline));
                if let Some(threshold) = self.fail_above {
                    if let Some((name, delta)) = worst_regression(&self.results, &baseline) {
                        if delta > threshold {
                            println!(
                                "FAIL: {name} regressed {delta:+.1}% \
                                 (--fail-above {threshold}%)"
                            );
                            std::process::exit(1);
                        }
                    }
                    println!("ok: no regression above {threshold}% vs the baseline");
                }
            }
            // Without gating, a missing or unreadable baseline is a note,
            // never a failure; with --fail-above in force it must abort —
            // exiting 0 here would skip the gate the operator asked for.
            Err(e) => {
                println!("no baseline at {}: {e}", baseline_path.display());
                if self.fail_above.is_some() {
                    eprintln!("--fail-above: cannot gate without a readable baseline");
                    std::process::exit(2);
                }
            }
        }
    }
}

/// The largest relative slowdown among benchmarks present in both runs, as
/// `(name, +pct)`. `None` if nothing overlaps. Used by `--fail-above`.
pub fn worst_regression(
    current: &[BenchResult],
    baseline: &[BenchResult],
) -> Option<(String, f64)> {
    current
        .iter()
        .filter_map(|r| {
            let base = baseline.iter().find(|b| b.name == r.name)?;
            if base.ns_per_iter <= 0.0 {
                return None;
            }
            let delta = (r.ns_per_iter - base.ns_per_iter) / base.ns_per_iter * 100.0;
            Some((r.name.clone(), delta))
        })
        .max_by(|a, b| a.1.total_cmp(&b.1))
}

/// Parses a `--fail-above` operand. A malformed threshold aborts the run
/// loudly: silently ignoring it would disable gating the operator explicitly
/// asked for.
fn parse_threshold(pct: &str) -> f64 {
    pct.parse().unwrap_or_else(|_| {
        eprintln!("--fail-above expects a percentage (e.g. 10), got '{pct}'");
        std::process::exit(2);
    })
}

/// Resolves a `--diff` operand: absolute paths are used as given, relative
/// ones (the committed `BENCH_baseline.json`) against the repository root.
fn resolve_baseline(path: &str) -> PathBuf {
    let p = PathBuf::from(path);
    if p.is_absolute() {
        p
    } else {
        PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).join(p)
    }
}

/// Parses a `BENCH_*.json` report produced by [`render_json`] back into
/// results (hand-rolled: no serde in this sandbox). Tolerant of unknown
/// fields; records missing a name or `ns_per_iter` are skipped.
pub fn parse_results(json: &str) -> Vec<BenchResult> {
    let mut out = Vec::new();
    for line in json.lines() {
        let Some(name) = extract_str(line, "name") else {
            continue;
        };
        let Some(ns_per_iter) = extract_num(line, "ns_per_iter") else {
            continue;
        };
        out.push(BenchResult {
            name,
            ns_per_iter,
            median_ns: extract_num(line, "median_ns").unwrap_or(ns_per_iter),
            iters: extract_num(line, "iters").unwrap_or(0.0) as u32,
        });
    }
    out
}

fn extract_str(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    // Names are escaped by render_json (backslash + quote only).
    let mut value = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => {
                if let Some(escaped) = chars.next() {
                    value.push(escaped);
                }
            }
            '"' => return Some(value),
            _ => value.push(c),
        }
    }
    None
}

fn extract_num(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest: String = line[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    rest.parse().ok()
}

/// Renders the regression table comparing a fresh run against a baseline:
/// one row per benchmark present in both, with the relative change and a
/// marker on regressions beyond ±5%. Purely informational — callers (the
/// `bench-baseline` CI job) never fail on timing.
pub fn render_diff(current: &[BenchResult], baseline: &[BenchResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "\n{:<55} {:>14} {:>14} {:>9}\n",
        "vs baseline", "baseline ns", "current ns", "delta"
    ));
    let mut missing = 0usize;
    for r in current {
        let Some(base) = baseline.iter().find(|b| b.name == r.name) else {
            missing += 1;
            continue;
        };
        let delta = if base.ns_per_iter > 0.0 {
            (r.ns_per_iter - base.ns_per_iter) / base.ns_per_iter * 100.0
        } else {
            0.0
        };
        let marker = if delta > 5.0 {
            "  << regression"
        } else if delta < -5.0 {
            "  << improvement"
        } else {
            ""
        };
        out.push_str(&format!(
            "{:<55} {:>14.0} {:>14.0} {:>+8.1}%{}\n",
            r.name, base.ns_per_iter, r.ns_per_iter, delta, marker
        ));
    }
    if missing > 0 {
        out.push_str(&format!("({missing} benchmark(s) not in baseline)\n"));
    }
    out
}

/// The repo-root path of a suite's JSON report.
fn json_path(suite: &str) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).join(format!("BENCH_{suite}.json"))
}

/// Renders results as a JSON array (hand-rolled: no serde in this sandbox).
/// Bench names are plain ASCII identifiers/paths, so escaping quotes and
/// backslashes suffices.
pub fn render_json(results: &[BenchResult]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in results.iter().enumerate() {
        let name = r.name.replace('\\', "\\\\").replace('"', "\\\"");
        out.push_str(&format!(
            "  {{\"name\": \"{}\", \"ns_per_iter\": {:.1}, \"median_ns\": {:.1}, \"iters\": {}}}{}\n",
            name,
            r.ns_per_iter,
            r.median_ns,
            r.iters,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_reports() {
        let mut count = 0u64;
        bench("smoke", 10, || {
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

    #[test]
    fn json_rendering_is_wellformed() {
        let results = vec![
            BenchResult {
                name: "a/b\"c".into(),
                ns_per_iter: 1.25,
                median_ns: 2.0,
                iters: 7,
            },
            BenchResult {
                name: "d".into(),
                ns_per_iter: 3.0,
                median_ns: 3.0,
                iters: 9,
            },
        ];
        let json = render_json(&results);
        assert!(json.starts_with("[\n"));
        assert!(json.ends_with("]\n"));
        assert!(json.contains("\"name\": \"a/b\\\"c\""));
        assert!(json.contains("\"ns_per_iter\": 1.2"));
        assert!(json.contains("\"iters\": 9"));
        // exactly one separator comma between the two records
        assert_eq!(json.matches("},").count(), 1);
    }

    #[test]
    fn worst_regression_finds_the_biggest_slowdown() {
        let mk = |name: &str, ns: f64| BenchResult {
            name: name.into(),
            ns_per_iter: ns,
            median_ns: ns,
            iters: 1,
        };
        let baseline = vec![mk("a", 100.0), mk("b", 100.0), mk("c", 100.0)];
        let current = vec![
            mk("a", 107.0),
            mk("b", 130.0),
            mk("c", 60.0),
            mk("new", 5.0),
        ];
        let (name, delta) = worst_regression(&current, &baseline).unwrap();
        assert_eq!(name, "b");
        assert!((delta - 30.0).abs() < 1e-9);
        // Nothing in common → no verdict.
        assert!(worst_regression(&[mk("x", 1.0)], &baseline).is_none());
        // All faster → the "worst" is still the max delta (negative).
        let (_, delta) = worst_regression(&[mk("c", 60.0)], &baseline).unwrap();
        assert!(delta < 0.0);
    }

    #[test]
    fn suite_collects_results() {
        let mut suite = Suite {
            name: "test".into(),
            json: false,
            diff_against: None,
            fail_above: None,
            results: Vec::new(),
        };
        suite.bench("one", 3, || 1);
        suite.bench("two", 3, || 2);
        assert_eq!(suite.results().len(), 2);
        assert_eq!(suite.results()[0].name, "one");
        suite.finish(); // json disabled: writes nothing, must not panic
    }

    #[test]
    fn json_roundtrips_through_the_parser() {
        let results = vec![
            BenchResult {
                name: "suite/a\"b".into(),
                ns_per_iter: 120.5,
                median_ns: 130.0,
                iters: 50,
            },
            BenchResult {
                name: "suite/plain".into(),
                ns_per_iter: 9.0,
                median_ns: 9.5,
                iters: 100,
            },
        ];
        let parsed = parse_results(&render_json(&results));
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].name, "suite/a\"b");
        assert_eq!(parsed[0].ns_per_iter, 120.5);
        assert_eq!(parsed[0].median_ns, 130.0);
        assert_eq!(parsed[1].iters, 100);
    }

    #[test]
    fn committed_baseline_parses() {
        let json = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_baseline.json"
        ))
        .expect("committed baseline");
        let baseline = parse_results(&json);
        assert!(baseline.len() > 10, "got {} records", baseline.len());
        assert!(baseline
            .iter()
            .any(|r| r.name == "protocol_micro/fig3_broker_deal_timelock"));
    }

    #[test]
    fn diff_table_flags_regressions_and_improvements() {
        let base = |name: &str, ns: f64| BenchResult {
            name: name.into(),
            ns_per_iter: ns,
            median_ns: ns,
            iters: 1,
        };
        let baseline = vec![
            base("same", 100.0),
            base("slower", 100.0),
            base("faster", 100.0),
        ];
        let current = vec![
            base("same", 102.0),
            base("slower", 150.0),
            base("faster", 50.0),
            base("new-bench", 10.0),
        ];
        let table = render_diff(&current, &baseline);
        assert!(table.contains("slower"));
        assert!(table.contains("<< regression"));
        assert!(table.contains("<< improvement"));
        assert!(table.contains("+50.0%"));
        assert!(table.contains("-50.0%"));
        assert!(table.contains("1 benchmark(s) not in baseline"));
        // The unchanged row carries no marker.
        let same_line = table.lines().find(|l| l.starts_with("same")).unwrap();
        assert!(!same_line.contains("<<"));
    }
}
