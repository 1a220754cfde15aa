//! The `adversarial_sweep` workload: repeated passes over specs × the
//! standard engines × two networks × every built-in and strategy-only
//! adversary. It exercises the abort and refund paths the commit-heavy
//! workloads never reach: timeouts, CBC patience and abort votes, stateful
//! strategies and offline windows.
//!
//! Set-up runs the first pass on one worker and on every core and requires
//! the same digest, so the parallel executor is checked on every run. The
//! timed passes run on one worker: on a small shared machine, whether a
//! second core is free swings a two-thread pass's throughput several-fold
//! from second to second, far beyond any usable regression bound.
//!
//! The HTLC swap runs on the synchronous network only. Its safety rests on
//! synchrony (Herlihy, *Atomic Cross-Chain Swaps*): before GST a compliant
//! party's claim can arrive after its hashlock's timeout, and the checks
//! then report a safety violation, so each pass is two `Sweep`s.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use xchain_deals::builders::{broker_spec, ring_spec};
use xchain_deals::engine::DealEngine;
use xchain_deals::setup::world_for_plan;
use xchain_deals::{CbcOptions, DealPlan, DealSpec, ProtocolKind};
use xchain_harness::adversary::strategy_scenarios;
use xchain_harness::sweep::{standard_engines, EngineFactory, Sweep};
use xchain_sim::ids::DealId;
use xchain_sim::network::NetworkModel;

use crate::checks::{self, Window};
use crate::stats::{self, mix};
use crate::trace::{Layer, Tracer};
use crate::workload::{LoopStats, Workload, DELTA};
use crate::wrap::{counted_configs, Timed, TimedCall};

/// Passes run in setup after the thread-count comparison.
const WARMUP_PASSES: u64 = 6;
/// The network label strong liveness is checked under.
const SYNCHRONOUS: &str = "synchronous";
/// The scenario label of `strategy_scenarios`' all-compliant baseline.
const ALL_COMPLIANT: &str = "all compliant";

pub struct AdvSweep {
    specs: Vec<(String, DealSpec)>,
    /// The plans `Sweep::run` resolves per sweep, resolved once more here
    /// to replay world setup and observation in the traced run.
    plans: Vec<DealPlan>,
    plan_us: f64,
    networks: Vec<(String, NetworkModel)>,
    base_seed: u64,
    /// Where the timing engine wrapper records each `execute`.
    sink: Arc<Mutex<Vec<TimedCall>>>,
    points_per_pass: u64,
    reference: Window,
    problems: Vec<String>,
}

pub fn adversarial_sweep(seed: u64) -> Result<AdvSweep, String> {
    let specs: Vec<(String, DealSpec)> = vec![
        ("broker".into(), broker_spec()),
        ("ring n=5".into(), ring_spec(DealId(5), 5)),
        ("ring n=2".into(), ring_spec(DealId(2), 2)),
    ];
    let start = Instant::now();
    let plans = specs
        .iter()
        .map(|(_, spec)| DealPlan::new(spec))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("adversarial_sweep: a spec does not plan: {e}"))?;
    let plan_us = start.elapsed().as_secs_f64() * 1e6 / plans.len() as f64;
    let mut w = AdvSweep {
        specs,
        plans,
        plan_us,
        networks: vec![
            (SYNCHRONOUS.into(), NetworkModel::synchronous(DELTA)),
            (
                "eventually synchronous".into(),
                NetworkModel::eventually_synchronous(500, DELTA, 1_000),
            ),
        ],
        base_seed: mix(seed, 0xad),
        sink: Arc::new(Mutex::new(Vec::new())),
        points_per_pass: 0,
        reference: Window::new(),
        problems: Vec::new(),
    };

    // The first pass, on one worker and on every core, must agree exactly.
    let mut st = LoopStats::new();
    let serial = w.pass(0, 1, None, &mut st);
    w.points_per_pass = st.attempted;
    let cores = stats::nproc();
    let parallel = w.pass(0, cores, None, &mut st);
    if !serial.same_as(&parallel) {
        w.problems.push(format!(
            "outcome digest differs between 1 and {cores} threads"
        ));
    }
    for k in 1..=WARMUP_PASSES {
        w.pass(k, 1, None, &mut st);
    }
    if let Some(first) = &st.first_failure {
        w.problems.push(format!(
            "{} of {} warm-up points failed; first: {first}",
            st.attempted - st.ok,
            st.attempted
        ));
    }
    w.reference = serial;
    Ok(w)
}

impl AdvSweep {
    /// The sweeps of pass `pass`: timelock and CBC on both networks, then
    /// the HTLC swap on the synchronous one. Every engine is wrapped to
    /// time `execute`; with `counted`, every party's strategy is wrapped to
    /// count its hooks.
    fn sweeps(&self, pass: u64, threads: usize, counted: bool) -> [Sweep; 2] {
        let (swap, others): (Vec<_>, Vec<_>) = standard_engines(DELTA)
            .into_iter()
            .map(|(label, make)| {
                let is_swap = make().kind() == ProtocolKind::Swap;
                let sink = self.sink.clone();
                let timed: EngineFactory = Arc::new(move || {
                    Box::new(Timed::new(make(), sink.clone())) as Box<dyn DealEngine + Send + Sync>
                });
                (is_swap, (label, timed))
            })
            .partition(|(is_swap, _)| *is_swap);
        let sweep = |i: u64, engines: Vec<(bool, (String, EngineFactory))>, networks| {
            let sweep = Sweep::new()
                .over_specs(self.specs.clone())
                .over_protocols(engines.into_iter().map(|(_, e)| e).collect())
                .over_networks(networks)
                .seed(mix(self.base_seed, 2 * pass + i))
                .threads(threads);
            if counted {
                sweep.over_adversaries(|spec| {
                    strategy_scenarios(spec, DELTA)
                        .into_iter()
                        .map(|(label, configs)| (label, counted_configs(spec, &configs)))
                        .collect()
                })
            } else {
                sweep.over_adversaries(|spec| strategy_scenarios(spec, DELTA))
            }
        };
        let synchronous = self.networks[..1].to_vec();
        [
            sweep(0, others, self.networks.clone()),
            sweep(1, swap, synchronous),
        ]
    }

    /// Runs pass `k` on `threads` workers, checks every point, folds the
    /// pass into `st` and returns the pass's digest window.
    fn pass(
        &self,
        k: u64,
        threads: usize,
        mut tracer: Option<&mut Tracer>,
        st: &mut LoopStats,
    ) -> Window {
        let ok_before = st.ok;
        let start = Instant::now();
        let sweeps = self.sweeps(k, threads, tracer.is_some());
        let out = sweeps.iter().map(Sweep::run).collect::<Result<Vec<_>, _>>();
        st.capacity_ns += start.elapsed().as_nanos() as f64 * threads as f64;
        let calls =
            std::mem::take(&mut *self.sink.lock().expect("no thread panics holding the sink"));
        st.busy_ns += calls.iter().map(|c| c.ns as f64).sum::<f64>();
        st.samples.extend(calls.iter().map(|c| c.ns));

        let mut window = Window::new();
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                // The whole pass failed: every point counts as failed.
                for _ in 0..self.points_per_pass.max(1) {
                    st.count(Err(format!("sweep: {e}")), || format!("pass {k}"));
                }
                st.end_chunk(ok_before, start.elapsed().as_secs_f64());
                return window;
            }
        };
        let by_seed: HashMap<u64, TimedCall> = match tracer {
            Some(_) => calls.iter().map(|c| (c.seed, *c)).collect(),
            None => HashMap::new(),
        };
        for p in out.iter().flat_map(|o| &o.points) {
            let strong = p.adversary == ALL_COMPLIANT && p.network == SYNCHRONOUS;
            let deal = st.attempted;
            let verdict = match tracer.as_deref_mut() {
                None => checks::deal_check(&p.deal, &p.configs, &p.run.outcome, strong),
                Some(t) => {
                    let spec_ix = self
                        .specs
                        .iter()
                        .position(|(label, _)| *label == p.spec)
                        .expect("points carry the sweep's spec labels");
                    let network = self
                        .networks
                        .iter()
                        .find(|(label, _)| *label == p.network)
                        .expect("points carry the sweep's network labels")
                        .1;
                    let plan = &self.plans[spec_ix];
                    let call = by_seed[&p.seed];
                    t.span_of(deal, Layer::Execute, call.start, call.ns);

                    // `Sweep` builds each cell's world internally: replay it.
                    let start = Instant::now();
                    let world = world_for_plan(plan, network, p.seed);
                    let ns = t.span(deal, Layer::Setup, start);
                    t.add("setup.world_us", ns as f64 / 1e3);
                    drop(world);

                    let start = Instant::now();
                    let verdict = checks::deal_check(&p.deal, &p.configs, &p.run.outcome, strong);
                    let ns = t.span(deal, Layer::Checks, start);
                    t.add("properties.check_us", ns as f64 / 1e3);
                    t.attribute(
                        deal,
                        call.start,
                        call.ns,
                        plan,
                        &p.run.world,
                        &p.run.outcome,
                        &p.run.ext,
                        call.hooks,
                    );
                    verdict
                }
            };
            st.count(verdict.map_err(String::from), || {
                format!(
                    "pass {k} point ({} / {} / {} / {}, seed {})",
                    p.spec, p.engine, p.network, p.adversary, p.seed
                )
            });
            window.add(Some(&p.run.outcome));
        }
        // Freeing the pass's worlds is part of its cost, as in a closed loop.
        drop(out);
        st.end_chunk(ok_before, start.elapsed().as_secs_f64());
        window
    }
}

impl Workload for AdvSweep {
    fn threads(&self) -> usize {
        1
    }

    fn min_chunks(&self) -> u64 {
        1
    }

    fn run_chunk(&self, k: u64, tracer: Option<&mut Tracer>, st: &mut LoopStats) {
        let window = self.pass(k, 1, tracer, st);
        if k == 0 {
            st.window = window;
        }
    }

    fn setup_problems(&self) -> Vec<String> {
        self.problems.clone()
    }

    fn reference_window(&self) -> Option<Window> {
        Some(self.reference)
    }

    fn probe_inputs(&self) -> (usize, u32, DealSpec) {
        let ring5 = self.specs[1].1.clone();
        (CbcOptions::default().f, ring5.n_parties() as u32, ring5)
    }

    fn shared_plan_us(&self) -> Option<f64> {
        Some(self.plan_us)
    }
}
