//! `dealbench`: the repository's end-to-end deal benchmark.
//!
//! One process runs one workload as a closed loop for `--seconds`, checks
//! every deal's output, and prints each metric by name with its unit. With
//! `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
//! alternates untraced chunks of the workload with traced ones, which put a
//! span around every call the benchmark makes into a layer, and reports the
//! per-layer metrics. The last line of standard output is a JSON summary.
//! README.md in this directory describes the workloads and every metric.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path dealbench/Cargo.toml -- \
//!     --workload chain9_commit --seed 1 --seconds 30 --trace 0
//! ```

mod checks;
mod closed;
mod probes;
mod stats;
mod sweep;
mod trace;
mod workload;
mod wrap;

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use xchain_deals::ProtocolKind;

use crate::probes::Probes;
use crate::trace::{engine_name, Tracer};
use crate::workload::{LoopStats, Workload};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// How far the traced run's per-deal span total may stray from the
/// untraced `deal_p50_us`, as a share of it.
const COVERAGE_TOLERANCE: f64 = 0.1;

const USAGE: &str = "usage: dealbench --workload <chain9_commit|small_market|adversarial_sweep> \
                     --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value:?}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match number()? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be between 1 and 600".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds as f64,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// Everything one run prints.
struct Report {
    attempted: u64,
    failed: u64,
    /// Why the outputs are not correct; empty when they are.
    problems: Vec<String>,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        if !value.is_finite() {
            self.problems.push(format!("{name} is not a finite number"));
        }
        self.metrics.push(Metric { name, value, unit });
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("dealbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            for note in &report.notes {
                println!("{note}");
            }
            for p in &report.problems {
                println!("problem: {p}");
            }
            for m in &report.metrics {
                println!("{:<34} {:>16.4} {}", m.name, m.value, m.unit);
            }
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("dealbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let calibration_start = stats::calibrate_ms();
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..if args.trace { 1 } else { SETUP_REPS } {
        let start = Instant::now();
        let w = workload::setup(&args.workload, args.seed)?;
        setups.push(start.elapsed().as_secs_f64());
        built = Some(w);
    }
    let w = built.expect("at least one set-up ran");
    let mut report = Report {
        attempted: 0,
        failed: 0,
        problems: w.setup_problems(),
        metrics: Vec::new(),
        notes: vec![format!(
            "workload {} seed {} seconds {} trace {}",
            args.workload,
            args.seed,
            args.seconds,
            u8::from(args.trace)
        )],
    };
    let st = if args.trace {
        traced(args, &*w, &mut report)?
    } else {
        untraced(args, &*w, stats::median(setups), &mut report)?
    };
    if let Some(reference) = w.reference_window() {
        if !reference.same_as(&st.window) {
            report
                .problems
                .push("the timed loop's outcome digest differs from set-up's".into());
        }
    }
    let calibration_end = stats::calibrate_ms();
    report.notes.push(format!(
        "env nproc {} threads {} calibration_start_ms {calibration_start:.3} \
         calibration_end_ms {calibration_end:.3}",
        stats::nproc(),
        w.threads()
    ));
    if args.trace {
        report.metric("env.calib_start_ms", calibration_start, "ms");
        report.metric("env.calib_end_ms", calibration_end, "ms");
    }
    Ok(report)
}

/// Counts a timed loop's deals into the report; any failed deal makes the
/// run incorrect and names the first one.
fn count_deals(report: &mut Report, loops: &[&LoopStats]) {
    for st in loops {
        report.attempted += st.attempted;
        report.failed += st.attempted - st.ok;
        if let Some(first) = &st.first_failure {
            report.problems.push(format!(
                "{} of {} deals failed; first: {first}",
                st.attempted - st.ok,
                st.attempted
            ));
        }
    }
}

fn untraced(
    args: &Args,
    w: &dyn Workload,
    setup_s: f64,
    report: &mut Report,
) -> Result<LoopStats, String> {
    let st = workload::run(w, args.seconds);
    let samples: usize = st.periods.iter().map(|p| p.samples).sum();
    let above_p99 = st.periods.iter().map(|p| p.above_p99).min().unwrap_or(0);
    if above_p99 < 10 {
        report
            .problems
            .push(format!("only {above_p99} samples above p99 in a period"));
    }
    count_deals(report, &[&st]);
    let failed_share = report.failed as f64 / st.attempted as f64;
    report.notes.push(format!(
        "digest {} seed {} window {} deals {:016x}",
        args.workload,
        args.seed,
        st.window.deals,
        st.window.digest()
    ));
    // `failed_share` is 0 on a correct run, so it is printed and checked
    // here but not among the metrics compared between runs.
    report.notes.push(format!(
        "samples {samples} in {} periods, at least {above_p99} above p99 in each",
        st.periods.len()
    ));
    report
        .notes
        .push(format!("{:<34} {failed_share:>16.4} ratio", "failed_share"));
    report.metric("deals_per_s", st.median_of(|p| p.rate), "deals/s");
    report.metric("deal_p50_us", st.median_of(|p| p.p50_ns as f64) / 1e3, "us");
    report.metric("deal_p99_us", st.median_of(|p| p.p99_ns as f64) / 1e3, "us");
    report.metric("setup_s", setup_s, "s");
    report.metric("gas_per_deal", st.window.gas_per_deal(), "gas");
    report.metric("sim_delta_per_deal", st.window.delta_per_deal(), "delta");
    report.metric("peak_rss_mb", stats::peak_rss_mb()?, "MiB");
    Ok(st)
}

fn traced(args: &Args, w: &dyn Workload, report: &mut Report) -> Result<LoopStats, String> {
    let (f, parties, spec) = w.probe_inputs();
    let mut t = Tracer::new(Probes::measure(f, parties, &spec)?);
    // Untraced chunks, the overhead baseline, alternate with traced ones.
    // Both loops run the same deals, so their digests match.
    let (plain, st) = workload::run_paired(w, args.seconds, &mut t);
    if !plain.window.same_as(&st.window) {
        report
            .problems
            .push("traced and untraced outcome digests differ".into());
    }
    count_deals(report, &[&plain, &st]);
    report.notes.push(format!(
        "digest {} seed {} window {} deals {:016x}",
        args.workload,
        args.seed,
        st.window.deals,
        st.window.digest()
    ));

    let mean = |name: &str| t.mean(name).unwrap_or(0.0);
    let p = t.probes;
    let plan_us = t
        .mean("plan.resolve_us")
        .or(w.shared_plan_us())
        .unwrap_or(0.0);
    report.metric("plan.resolve_us", plan_us, "us");
    report.metric("setup.world_us", mean("setup.world_us"), "us");
    report.metric("world.holdings_us", mean("world.holdings_us"), "us");
    let kinds = [
        ProtocolKind::Timelock,
        ProtocolKind::Cbc,
        ProtocolKind::Swap,
    ];
    let mut engines = Vec::new();
    for kind in kinds {
        let name = engine_name(kind);
        let measured = t
            .mean(&format!("{name}.execute_us"))
            .zip(t.mean(&format!("{name}.unattributed_us")));
        let (exec, rest) = match measured {
            Some(m) => m,
            None => {
                report.notes.push(format!(
                    "{name}: not run by this workload; measured alone on the two-party ring"
                ));
                closed::engine_probe(kind, &t)?
            }
        };
        engines.push((name, exec, rest));
    }
    for (name, exec, _) in &engines {
        report.metric(format!("{name}.execute_us"), *exec, "us");
    }
    for (name, _, rest) in &engines {
        report.metric(format!("{name}.unattributed_us"), *rest, "us");
    }
    report.metric("strategy.ctx_us", mean("strategy.ctx_us"), "us");
    report.metric("strategy.ctx_caught_up_ns", p.ctx_caught_up_ns, "ns");
    report.metric(
        "strategy.decisions_per_deal",
        mean("strategy.decisions_per_deal"),
        "count",
    );
    report.metric(
        "strategy.hook_ns",
        t.sum("strategy.hook_ns_timed") / t.sum("strategy.hooks_timed").max(1.0),
        "ns",
    );
    report.metric("ledger.call_ns", p.call_ns, "ns");
    for name in [
        "ledger.calls_per_deal",
        "ledger.log_entries_per_deal",
        "ledger.storage_writes_per_deal",
    ] {
        report.metric(name, mean(name), "count");
    }
    report.metric("crypto.verify_ns", p.verify_ns, "ns");
    report.metric("crypto.sign_ns", p.sign_ns, "ns");
    report.metric(
        "crypto.sig_verifies_per_deal",
        mean("crypto.sig_verifies_per_deal"),
        "count",
    );
    report.metric("bft.certificate_us", p.certificate_ns / 1e3, "us");
    report.metric("bft.append_us", p.append_ns / 1e3, "us");
    report.metric("properties.check_us", mean("properties.check_us"), "us");
    report.metric(
        "executor.efficiency",
        plain.busy_ns / plain.capacity_ns,
        "ratio",
    );
    for phase in xchain_deals::Phase::ALL {
        report.metric(
            format!("phase.{phase}.delta"),
            mean(&format!("phase.{phase}.delta")),
            "delta",
        );
        report.metric(
            format!("phase.{phase}.gas"),
            mean(&format!("phase.{phase}.gas")),
            "gas",
        );
    }
    let traced_p50 = st.median_of(|p| p.p50_ns as f64) / 1e3;
    let plain_p50 = plain.median_of(|p| p.p50_ns as f64) / 1e3;
    report.metric("trace.deal_p50_us", traced_p50, "us");
    report.metric("trace.untraced_p50_us", plain_p50, "us");
    report.metric("trace.overhead_us", traced_p50 - plain_p50, "us");
    let coverage = traced_p50 / plain_p50;
    if !(1.0 - COVERAGE_TOLERANCE..=1.0 + COVERAGE_TOLERANCE).contains(&coverage) {
        report.problems.push(format!(
            "traced spans per deal ({traced_p50:.2} us) are not within \
             {COVERAGE_TOLERANCE} of the untraced deal_p50_us ({plain_p50:.2} us)"
        ));
    }
    report.notes.push(format!(
        "traced spans per deal are {coverage:.4} of the untraced deal_p50_us"
    ));

    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}.tsv", args.workload));
    t.write(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    report.notes.push(format!(
        "trace {} spans ({} past the in-memory cap) written to {}",
        t.spans_recorded(),
        t.spans_dropped(),
        path.display()
    ));
    Ok(st)
}
