//! The single-threaded closed-loop workloads: `chain9_commit` (the paper's
//! largest figure deals, plans shared) and `small_market` (many distinct
//! small deals, each resolving its own plan). Each deal starts when the
//! previous one has been checked.

use std::sync::Arc;
use std::time::Instant;

use xchain_deals::builders::{brokered_chain_spec, ring_spec};
use xchain_deals::engine::DealEngine;
use xchain_deals::party::fresh_configs;
use xchain_deals::setup::world_for_plan;
use xchain_deals::{
    CbcOptions, Deal, DealOutcome, DealPlan, DealSpec, Protocol, ProtocolKind, TimelockOptions,
};
use xchain_harness::workload::{random_well_formed_deal, RandomDealParams};
use xchain_sim::ids::DealId;
use xchain_sim::network::NetworkModel;
use xchain_sim::time::Duration;
use xchain_swap::SwapEngine;

use crate::checks::{self, Window};
use crate::stats::mix;
use crate::trace::{engine_name, Layer, Tracer};
use crate::workload::{LoopStats, Verdict, Workload, DELTA};
use crate::wrap;

/// Deals run in setup to warm caches and check the inputs.
const WARMUP_DEALS: usize = 600;
/// `small_market` specs generated per seed. The loop cycles through them;
/// every deal call still resolves its own plan and gets its own world seed.
const MARKET_POOL: u64 = 4096;

/// One deal of the cycle: which spec under which engine.
#[derive(Debug, Clone, Copy)]
struct Job {
    spec: usize,
    engine: usize,
}

pub struct Closed {
    network: NetworkModel,
    /// One session per spec, every party compliant.
    sessions: Vec<Deal>,
    /// Plans resolved once in setup and shared by every deal of a spec, or
    /// `None` when each deal call resolves its own.
    plans: Option<Vec<Arc<DealPlan>>>,
    plan_us: Option<f64>,
    engines: Vec<Box<dyn DealEngine>>,
    jobs: Vec<Job>,
    /// Deal `i` gets world seed `mix(seed_base, i)`.
    seed_base: u64,
    /// Deals per chunk of the loop; for `chain9_commit`, whole round-robin
    /// cycles.
    chunk: usize,
    /// Deals folded into the outcome digest.
    window: usize,
    /// The warm-up's failure count and first failure, if any deal failed.
    warmup_failure: Option<String>,
    probe_f: usize,
}

fn synchronous() -> NetworkModel {
    NetworkModel::synchronous(DELTA)
}

/// Fig 4's brokered chain and Fig 7's ring at n = 9, each under timelock
/// with forwarded votes, timelock with broadcast votes and concurrent
/// transfers, and CBC with f = 2, round-robin with a fresh seed per deal.
pub fn chain9_commit(seed: u64) -> Result<Closed, String> {
    let specs = [
        brokered_chain_spec(DealId(9_001), 9, 100),
        ring_spec(DealId(9_002), 9),
    ];
    let engines: Vec<Box<dyn DealEngine>> = vec![
        Box::new(Protocol::Timelock(TimelockOptions::default())),
        Box::new(Protocol::Timelock(TimelockOptions {
            altruistic_broadcast: true,
            concurrent_transfers: true,
            ..TimelockOptions::default()
        })),
        Box::new(Protocol::Cbc(CbcOptions {
            f: 2,
            ..CbcOptions::default()
        })),
    ];
    let sessions: Vec<Deal> = specs
        .into_iter()
        .map(|spec| Deal::new(spec).network(synchronous()))
        .collect();
    let start = Instant::now();
    let plans = sessions
        .iter()
        .map(Deal::plan)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("chain9_commit: a spec does not plan: {e}"))?;
    let plan_us = start.elapsed().as_secs_f64() * 1e6 / plans.len() as f64;
    let jobs = (0..sessions.len())
        .flat_map(|spec| (0..engines.len()).map(move |engine| Job { spec, engine }))
        .collect::<Vec<_>>();
    let cycle = jobs.len();
    Closed {
        network: synchronous(),
        sessions,
        plans: Some(plans),
        plan_us: Some(plan_us),
        engines,
        jobs,
        seed_base: mix(seed, 9),
        chunk: 10 * cycle,
        window: 200 * cycle,
        warmup_failure: None,
        probe_f: 2,
    }
    .warmed_up()
}

/// Random well-formed deals of 2–5 parties, each spec with its own
/// `DealId`, under timelock and CBC, plus the HTLC swap on the deals it
/// supports. The pool of [`MARKET_POOL`] specs is cycled with a fresh world
/// seed per deal call.
pub fn small_market(seed: u64) -> Result<Closed, String> {
    let engines: Vec<Box<dyn DealEngine>> = vec![
        Box::new(Protocol::timelock()),
        Box::new(Protocol::cbc()),
        Box::new(SwapEngine::new(Duration(DELTA))),
    ];
    let swap = SwapEngine::new(Duration(DELTA));
    let mut sessions = Vec::new();
    let mut jobs = Vec::new();
    for j in 0..MARKET_POOL {
        let s = mix(seed, j);
        // At three or more extra transfers the generator emits specs that
        // validate but do not plan ("transfers cannot be ordered").
        let params = RandomDealParams {
            parties: 2 + (s % 4) as u32,
            extra_transfers: ((s >> 8) % 3) as u32,
            amount: 100,
        };
        let spec = random_well_formed_deal(DealId(j + 1), &params, s);
        DealPlan::new(&spec)
            .map_err(|e| format!("small_market: generated spec {j} does not plan: {e}"))?;
        let ix = sessions.len();
        jobs.push(Job {
            spec: ix,
            engine: 0,
        });
        jobs.push(Job {
            spec: ix,
            engine: 1,
        });
        if swap.supports(&spec) {
            jobs.push(Job {
                spec: ix,
                engine: 2,
            });
        }
        sessions.push(Deal::new(spec).network(synchronous()));
    }
    let window = jobs.len();
    Closed {
        network: synchronous(),
        sessions,
        plans: None,
        plan_us: None,
        engines,
        jobs,
        seed_base: mix(seed, 0x3a),
        chunk: 200,
        window,
        warmup_failure: None,
        probe_f: CbcOptions::default().f,
    }
    .warmed_up()
}

/// A traced run of `kind` alone on the two-party ring: prices an engine a
/// workload does not run, so every per-layer metric is measured. Returns
/// its mean execute and unattributed time in µs.
pub fn engine_probe(kind: ProtocolKind, tracer: &Tracer) -> Result<(f64, f64), String> {
    const DEALS: usize = 200;
    let engine: Box<dyn DealEngine> = match kind {
        ProtocolKind::Timelock => Box::new(Protocol::timelock()),
        ProtocolKind::Cbc => Box::new(Protocol::cbc()),
        ProtocolKind::Swap => Box::new(SwapEngine::new(Duration(DELTA))),
    };
    let session = Deal::new(ring_spec(DealId(2), 2)).network(synchronous());
    let plan = session.plan().map_err(|e| e.to_string())?;
    let probe = Closed {
        network: synchronous(),
        sessions: vec![session],
        plans: Some(vec![plan]),
        plan_us: None,
        engines: vec![engine],
        jobs: vec![Job { spec: 0, engine: 0 }],
        seed_base: 1,
        chunk: DEALS,
        window: 0,
        warmup_failure: None,
        probe_f: 1,
    };
    let mut t = Tracer::new(tracer.probes);
    let mut st = LoopStats::new();
    probe.run_chunk(0, Some(&mut t), &mut st);
    let name = engine_name(kind);
    match (
        t.mean(&format!("{name}.execute_us")),
        t.mean(&format!("{name}.unattributed_us")),
    ) {
        (Some(exec), Some(rest)) if st.ok == st.attempted => Ok((exec, rest)),
        _ => Err(format!("the {name} engine probe failed")),
    }
}

impl Closed {
    fn warmed_up(mut self) -> Result<Self, String> {
        let mut st = LoopStats::new();
        for k in 0..WARMUP_DEALS.div_ceil(self.chunk) {
            self.run_chunk(k as u64, None, &mut st);
        }
        self.warmup_failure = st.first_failure.map(|first| {
            format!(
                "{} of {} warm-up deals failed; first: {first}",
                st.attempted - st.ok,
                st.attempted
            )
        });
        Ok(self)
    }

    /// Deals `k * chunk ..` of the cycle, one after the other.
    fn run_chunk(&self, k: u64, mut tracer: Option<&mut Tracer>, st: &mut LoopStats) {
        let ok_before = st.ok;
        let start = Instant::now();
        let first = k as usize * self.chunk;
        for i in first..first + self.chunk {
            let job = self.jobs[i % self.jobs.len()];
            let seed = mix(self.seed_base, i as u64);
            let (ns, outcome, verdict) = match tracer.as_deref_mut() {
                None => self.deal(job, seed),
                Some(t) => self.traced_deal(i as u64, job, seed, t),
            };
            st.count(verdict, || {
                format!(
                    "deal {i} ({} on {:?}, seed {seed})",
                    self.engines[job.engine].label(),
                    self.sessions[job.spec].spec().deal
                )
            });
            st.samples.push(ns);
            st.busy_ns += ns as f64;
            if i < self.window {
                st.window.add(outcome.as_ref());
            }
        }
        let wall_s = start.elapsed().as_secs_f64();
        st.capacity_ns += wall_s * 1e9;
        st.end_chunk(ok_before, wall_s);
    }

    /// One deal call through the `Deal` builder, timed, then checked.
    fn deal(&self, job: Job, seed: u64) -> (u64, Option<DealOutcome>, Verdict) {
        let deal = self.sessions[job.spec].clone().seed(seed);
        let engine = &*self.engines[job.engine];
        let start = Instant::now();
        let run = match &self.plans {
            Some(plans) => deal.run_planned(&plans[job.spec], engine),
            None => deal.run(engine),
        };
        let ns = start.elapsed().as_nanos() as u64;
        match run {
            Ok(run) => {
                let verdict = checks::deal_check(deal.spec(), &[], &run.outcome, true);
                (ns, Some(run.outcome), verdict.map_err(String::from))
            }
            Err(e) => (ns, None, Err(format!("error: {e}"))),
        }
    }

    /// The same deal as [`Closed::deal`], made of the calls `Deal::run`
    /// makes (plan, world setup, execute), each in its own span, with every
    /// party's strategy counted. Returns the deal's span total.
    fn traced_deal(
        &self,
        deal: u64,
        job: Job,
        seed: u64,
        t: &mut Tracer,
    ) -> (u64, Option<DealOutcome>, Verdict) {
        let spec = self.sessions[job.spec].spec();
        let engine = &*self.engines[job.engine];
        let counted = wrap::counted_configs(spec, &[]);
        let mut total = 0;

        let resolved: DealPlan;
        let plan = match &self.plans {
            Some(plans) => &*plans[job.spec],
            None => {
                let start = Instant::now();
                let plan = DealPlan::new(spec);
                let ns = t.span(deal, Layer::Plan, start);
                t.add("plan.resolve_us", ns as f64 / 1e3);
                total += ns;
                match plan {
                    Ok(plan) => {
                        resolved = plan;
                        &resolved
                    }
                    Err(e) => return (total, None, Err(format!("plan: {e}"))),
                }
            }
        };

        let start = Instant::now();
        let world = world_for_plan(plan, self.network, seed);
        let configs = fresh_configs(&counted);
        let ns = t.span(deal, Layer::Setup, start);
        t.add("setup.world_us", ns as f64 / 1e3);
        total += ns;
        let mut world = match world {
            Ok(world) => world,
            Err(e) => return (total, None, Err(format!("setup: {e}"))),
        };

        wrap::take_hooks();
        let exec_start = Instant::now();
        let run = engine.execute(&mut world, plan, &configs);
        let exec_ns = t.span(deal, Layer::Execute, exec_start);
        let hooks = wrap::take_hooks();
        total += exec_ns;
        let run = match run {
            Ok(run) => run,
            Err(e) => return (total, None, Err(format!("execute: {e}"))),
        };

        let start = Instant::now();
        let verdict = checks::deal_check(spec, &configs, &run.outcome, true);
        let ns = t.span(deal, Layer::Checks, start);
        t.add("properties.check_us", ns as f64 / 1e3);
        t.attribute(
            deal,
            exec_start,
            exec_ns,
            plan,
            &world,
            &run.outcome,
            &run.ext,
            hooks,
        );
        (total, Some(run.outcome), verdict.map_err(String::from))
    }
}

impl Workload for Closed {
    fn threads(&self) -> usize {
        1
    }

    fn min_chunks(&self) -> u64 {
        self.window.div_ceil(self.chunk) as u64
    }

    fn run_chunk(&self, k: u64, tracer: Option<&mut Tracer>, st: &mut LoopStats) {
        Closed::run_chunk(self, k, tracer, st);
    }

    fn setup_problems(&self) -> Vec<String> {
        self.warmup_failure.iter().cloned().collect()
    }

    fn reference_window(&self) -> Option<Window> {
        None
    }

    fn probe_inputs(&self) -> (usize, u32, DealSpec) {
        let largest = self
            .sessions
            .iter()
            .map(|d| d.spec())
            .max_by_key(|s| s.n_parties())
            .expect("a workload has specs");
        (self.probe_f, largest.n_parties() as u32, largest.clone())
    }

    fn shared_plan_us(&self) -> Option<f64> {
        self.plan_us
    }
}
