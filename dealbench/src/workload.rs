//! What every workload provides, and what one timed loop measured.

use std::time::Instant;

use xchain_deals::DealSpec;

use crate::checks::Window;
use crate::closed;
use crate::stats;
use crate::sweep;
use crate::trace::Tracer;

/// Simulated synchrony bound ∆, in ticks, used by every workload.
pub const DELTA: u64 = 100;

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["chain9_commit", "small_market", "adversarial_sweep"];

/// One deal's result: `Ok` if it ran and passed every output check, else
/// what failed.
pub type Verdict = Result<(), String>;

/// Least wall time of one timing period. Each period gives one reading of
/// throughput, p50 and p99, and a run reports their medians, so load from
/// outside the process that comes and goes moves few readings.
const PERIOD_S: f64 = 1.0;

/// The timing readings of one period.
#[derive(Debug, Clone, Copy)]
pub struct Period {
    /// Deals passed per second of wall time, checks included.
    pub rate: f64,
    /// Percentiles of deal-call time, in ns.
    pub p50_ns: u64,
    pub p99_ns: u64,
    pub samples: usize,
    pub above_p99: usize,
}

/// What one timed loop measured.
#[derive(Debug)]
pub struct LoopStats {
    pub attempted: u64,
    /// Deals that returned `Ok` and passed every output check.
    pub ok: u64,
    /// Wall time of each deal call in the open period, in ns.
    pub samples: Vec<u64>,
    /// Readings of the closed periods.
    pub periods: Vec<Period>,
    /// Wall time and passed deals of the open period.
    period_s: f64,
    period_ok: u64,
    /// Σ deal-call time, and the wall time × threads it was spread over:
    /// their ratio is `executor.efficiency`.
    pub busy_ns: f64,
    pub capacity_ns: f64,
    /// The first deals' outcome digest.
    pub window: Window,
    /// What went wrong with the first failed deal.
    pub first_failure: Option<String>,
}

impl LoopStats {
    pub fn new() -> Self {
        LoopStats {
            attempted: 0,
            ok: 0,
            samples: Vec::new(),
            periods: Vec::new(),
            period_s: 0.0,
            period_ok: 0,
            busy_ns: 0.0,
            capacity_ns: 0.0,
            window: Window::new(),
            first_failure: None,
        }
    }

    /// Closes a chunk that began when `ok_before` deals had passed and took
    /// `wall_s`, checks included; closes the period once it is long enough.
    pub fn end_chunk(&mut self, ok_before: u64, wall_s: f64) {
        self.period_s += wall_s;
        self.period_ok += self.ok - ok_before;
        if self.period_s < PERIOD_S || self.samples.is_empty() {
            return;
        }
        self.samples.sort_unstable();
        let p99_ns = stats::percentile(&self.samples, 0.99);
        self.periods.push(Period {
            rate: self.period_ok as f64 / self.period_s,
            p50_ns: stats::percentile(&self.samples, 0.5),
            p99_ns,
            samples: self.samples.len(),
            above_p99: self.samples.iter().filter(|&&s| s > p99_ns).count(),
        });
        self.samples.clear();
        self.period_s = 0.0;
        self.period_ok = 0;
    }

    /// The median over closed periods of one reading.
    pub fn median_of(&self, reading: impl Fn(&Period) -> f64) -> f64 {
        stats::median(self.periods.iter().map(reading).collect())
    }

    /// Counts one attempted deal; `which` names it if it is the first to
    /// fail.
    pub fn count(&mut self, verdict: Verdict, which: impl FnOnce() -> String) {
        self.attempted += 1;
        match verdict {
            Ok(()) => self.ok += 1,
            Err(what) => {
                if self.first_failure.is_none() {
                    self.first_failure = Some(format!("{}: {what}", which()));
                }
            }
        }
    }
}

/// A workload: inputs built in setup, then a closed loop over them in
/// chunks of deals (a whole number of engine cycles, or one sweep pass).
pub trait Workload {
    /// Worker threads the loop runs deals on.
    fn threads(&self) -> usize;

    /// Chunks that cover the outcome digest's window.
    fn min_chunks(&self) -> u64;

    /// Runs chunk `k` into `st`, checking every output. Chunk `k` is the
    /// same deals whatever ran before it. With a tracer, every call into a
    /// layer is recorded as a span and attributed.
    fn run_chunk(&self, k: u64, tracer: Option<&mut Tracer>, st: &mut LoopStats);

    /// Failures seen during setup: warm-up deals that failed their checks,
    /// or digests that differ between thread counts.
    fn setup_problems(&self) -> Vec<String>;

    /// The digest window computed in setup, which the timed loop's first
    /// deals must reproduce (if the workload computes one).
    fn reference_window(&self) -> Option<Window>;

    /// Inputs of the unit-cost probes: the CBC fault parameter, a typical
    /// deal size, and a deal for the observation-context probe.
    fn probe_inputs(&self) -> (usize, u32, DealSpec);

    /// Mean plan resolution in setup, for workloads whose deals share
    /// plans resolved there.
    fn shared_plan_us(&self) -> Option<f64>;
}

/// Runs chunks 0, 1, … untraced for at least `seconds`, the digest window
/// and one timing period.
pub fn run(w: &dyn Workload, seconds: f64) -> LoopStats {
    let mut st = LoopStats::new();
    let start = Instant::now();
    let mut k = 0;
    while k < w.min_chunks() || start.elapsed().as_secs_f64() < seconds || st.periods.is_empty() {
        w.run_chunk(k, None, &mut st);
        k += 1;
    }
    st
}

/// Runs each chunk untraced and then traced, for at least `seconds` in
/// all, so both loops meet the same machine load. Returns the untraced and
/// the traced loop.
pub fn run_paired(w: &dyn Workload, seconds: f64, t: &mut Tracer) -> (LoopStats, LoopStats) {
    let (mut plain, mut traced) = (LoopStats::new(), LoopStats::new());
    let start = Instant::now();
    let mut k = 0;
    while k < w.min_chunks()
        || start.elapsed().as_secs_f64() < seconds
        || plain.periods.is_empty()
        || traced.periods.is_empty()
    {
        w.run_chunk(k, None, &mut plain);
        w.run_chunk(k, Some(t), &mut traced);
        k += 1;
    }
    (plain, traced)
}

/// Builds a workload's inputs from the seed.
pub fn setup(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    match name {
        "chain9_commit" => Ok(Box::new(closed::chain9_commit(seed)?)),
        "small_market" => Ok(Box::new(closed::small_market(seed)?)),
        "adversarial_sweep" => Ok(Box::new(sweep::adversarial_sweep(seed)?)),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {})",
            NAMES.join(", ")
        )),
    }
}
