//! The engine-driven sweep API: one declarative cross-product over
//! specifications × protocols × networks × adversary configurations,
//! replacing the copy-pasted per-protocol experiment loops.
//!
//! Cells are independent (each builds its own world), so the sweep executes
//! them on the work-queue pool in [`crate::executor`]; `threads(1)` forces the
//! classic serial loop. Cell seeds and output order are derived from the
//! declaration order alone, so a sweep's [`SweepOutcome`] is identical for
//! every thread count.
//!
//! Before execution, the sweep resolves one [`DealPlan`] per specification
//! and builds each engine once: every cell that runs a given spec reuses its
//! plan, and workers share the hoisted engine values instead of re-invoking
//! the factories per cell.
//!
//! ```
//! use xchain_harness::sweep::{standard_engines, Sweep};
//! use xchain_deals::builders::{broker_spec, ring_spec};
//! use xchain_sim::ids::DealId;
//! use xchain_sim::network::NetworkModel;
//!
//! let outcome = Sweep::new()
//!     .spec("broker", broker_spec())
//!     .spec("ring n=2", ring_spec(DealId(2), 2))
//!     .over_protocols(standard_engines(100))
//!     .over_networks(vec![
//!         ("synchronous".into(), NetworkModel::synchronous(100)),
//!         ("eventually synchronous".into(), NetworkModel::eventually_synchronous(500, 100, 1_000)),
//!     ])
//!     .seed(42)
//!     .threads(4)
//!     .run()
//!     .unwrap();
//! // Engines skip specifications they cannot express (the swap engine only
//! // handles two-party exchanges), so every produced point actually ran.
//! assert!(outcome.points.iter().all(|p| p.run.outcome.fully_resolved()));
//! ```

use std::sync::{Arc, Mutex};

use xchain_deals::engine::{DealEngine, Protocol};
use xchain_deals::error::DealError;
use xchain_deals::party::PartyConfig;
use xchain_deals::plan::DealPlan;
use xchain_deals::spec::DealSpec;
use xchain_deals::{Deal, DealRun};
use xchain_sim::network::NetworkModel;
use xchain_sim::time::Duration;
use xchain_swap::SwapEngine;

use crate::executor;

/// A labelled set of party behaviour configurations for one sweep cell.
pub type AdversaryScenario = (String, Vec<PartyConfig>);

/// Generates the adversary scenarios to run against one specification.
/// (`Send + Sync` so a configured sweep can be shared with worker threads;
/// generation itself always happens serially before execution starts.)
pub type AdversaryGen = Box<dyn Fn(&DealSpec) -> Vec<AdversaryScenario> + Send + Sync>;

/// A thread-shareable engine factory. The sweep invokes each factory **once
/// per run** (not once per cell): the produced engines are `Send + Sync` and
/// shared by reference across worker threads, so factories exist to defer
/// construction, not to isolate cells.
pub type EngineFactory = Arc<dyn Fn() -> Box<dyn DealEngine + Send + Sync> + Send + Sync>;

/// Wraps a cloneable engine value into an [`EngineFactory`].
pub fn engine_factory<E>(engine: E) -> EngineFactory
where
    E: DealEngine + Clone + Send + Sync + 'static,
{
    Arc::new(move || Box::new(engine.clone()))
}

/// The three standard engines — timelock, CBC, and the HTLC swap — with
/// default options and the given synchrony bound ∆ (in ticks) for the swap's
/// HTLC timeouts.
pub fn standard_engines(delta: u64) -> Vec<(String, EngineFactory)> {
    vec![
        ("timelock".into(), engine_factory(Protocol::timelock())),
        ("CBC".into(), engine_factory(Protocol::cbc())),
        (
            "HTLC swap".into(),
            engine_factory(SwapEngine::new(Duration(delta))),
        ),
    ]
}

/// The two commit-protocol engines (timelock and CBC) with default options.
pub fn protocol_engines() -> Vec<(String, EngineFactory)> {
    vec![
        ("timelock".into(), engine_factory(Protocol::timelock())),
        ("CBC".into(), engine_factory(Protocol::cbc())),
    ]
}

/// One executed cell of a sweep.
#[derive(Debug)]
pub struct SweepPoint {
    /// Label of the deal specification.
    pub spec: String,
    /// Label of the engine that ran.
    pub engine: String,
    /// Label of the network model.
    pub network: String,
    /// Label of the adversary scenario.
    pub adversary: String,
    /// The specification that ran (for property checks over the point).
    pub deal: DealSpec,
    /// The party configurations that were in force.
    pub configs: Vec<PartyConfig>,
    /// The seed the cell ran with.
    pub seed: u64,
    /// The unified result.
    pub run: DealRun,
}

/// The result of a sweep: every executed point, plus how many cells were
/// skipped because an engine could not express a specification.
#[derive(Debug)]
pub struct SweepOutcome {
    /// The executed cells, in deterministic iteration order (independent of
    /// the thread count the sweep ran with).
    pub points: Vec<SweepPoint>,
    /// Cells skipped via [`DealEngine::supports`].
    pub skipped: usize,
}

impl SweepOutcome {
    /// The points produced by the given engine label.
    pub fn by_engine(&self, engine: &str) -> Vec<&SweepPoint> {
        self.points.iter().filter(|p| p.engine == engine).collect()
    }
}

/// A declarative sweep over specifications × engines × networks × adversary
/// scenarios. Every cell is executed through the [`Deal`] builder with a
/// deterministic per-cell seed, so sweeps are reproducible end to end — and
/// cells run in parallel on [`Sweep::threads`] workers without changing the
/// outcome.
pub struct Sweep {
    specs: Vec<(String, DealSpec)>,
    engines: Vec<(String, EngineFactory)>,
    networks: Vec<(String, NetworkModel)>,
    adversaries: AdversaryGen,
    base_seed: u64,
    threads: Option<usize>,
}

impl Default for Sweep {
    fn default() -> Self {
        Sweep::new()
    }
}

/// One enumerated cell: indices into the sweep's axes plus the derived seed.
/// Enumeration happens serially in declaration order (including the skip
/// bookkeeping), so seeds never depend on the thread count.
struct Cell {
    spec_ix: usize,
    engine_ix: usize,
    net_ix: usize,
    adv_ix: usize,
    seed: u64,
}

impl Sweep {
    /// An empty sweep: no specifications yet, the two commit-protocol
    /// engines, a synchronous ∆ = 100 network, the all-compliant scenario,
    /// and as many worker threads as the machine offers.
    pub fn new() -> Self {
        Sweep {
            specs: Vec::new(),
            engines: protocol_engines(),
            networks: vec![("synchronous ∆=100".into(), NetworkModel::synchronous(100))],
            adversaries: Box::new(|_| vec![("all compliant".into(), Vec::new())]),
            base_seed: 0,
            threads: None,
        }
    }

    /// Adds one labelled specification.
    pub fn spec(mut self, label: impl Into<String>, spec: DealSpec) -> Self {
        self.specs.push((label.into(), spec));
        self
    }

    /// Replaces the specifications with the given labelled set.
    pub fn over_specs(mut self, specs: Vec<(String, DealSpec)>) -> Self {
        self.specs = specs;
        self
    }

    /// Replaces the engines with the given labelled factory set (see
    /// [`standard_engines`], [`protocol_engines`] and [`engine_factory`]).
    pub fn over_protocols(mut self, engines: Vec<(String, EngineFactory)>) -> Self {
        self.engines = engines;
        self
    }

    /// Replaces the network models with the given labelled set.
    pub fn over_networks(mut self, networks: Vec<(String, NetworkModel)>) -> Self {
        self.networks = networks;
        self
    }

    /// Replaces the adversary generator: for each specification it yields the
    /// labelled behaviour configurations to run (see
    /// [`crate::adversary::single_deviator_configs`] and friends).
    pub fn over_adversaries<F>(mut self, gen: F) -> Self
    where
        F: Fn(&DealSpec) -> Vec<AdversaryScenario> + Send + Sync + 'static,
    {
        self.adversaries = Box::new(gen);
        self
    }

    /// Sets the base seed; each executed cell derives its own seed from it.
    pub fn seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Sets the number of worker threads (clamped to at least 1). The default
    /// is the machine's available parallelism; `threads(1)` runs the classic
    /// serial loop. The outcome is identical either way.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n.max(1));
        self
    }

    /// Executes the full cross-product and collects every point.
    pub fn run(&self) -> Result<SweepOutcome, DealError> {
        // Phase 1 (serial): generate scenarios, build each engine once
        // (hoisted out of the cell loop — cells share them by reference),
        // resolve one plan per specification (shared by every cell running
        // that spec), and enumerate the executable cells in declaration
        // order. This fixes each cell's seed and output slot before any
        // execution happens.
        let scenarios: Vec<Vec<AdversaryScenario>> = self
            .specs
            .iter()
            .map(|(_, spec)| (self.adversaries)(spec))
            .collect();
        let engines: Vec<Box<dyn DealEngine + Send + Sync>> =
            self.engines.iter().map(|(_, make)| make()).collect();
        let plans: Vec<DealPlan> = self
            .specs
            .iter()
            .map(|(_, spec)| DealPlan::new(spec))
            .collect::<Result<_, _>>()?;

        let mut cells = Vec::new();
        let mut skipped = 0;
        let mut cell = 0u64;
        for (spec_ix, (_, spec)) in self.specs.iter().enumerate() {
            for (engine_ix, probe) in engines.iter().enumerate() {
                if !probe.supports(spec) {
                    skipped += self.networks.len() * scenarios[spec_ix].len();
                    continue;
                }
                for net_ix in 0..self.networks.len() {
                    for adv_ix in 0..scenarios[spec_ix].len() {
                        let seed = self.base_seed.wrapping_add(cell);
                        cell += 1;
                        cells.push(Cell {
                            spec_ix,
                            engine_ix,
                            net_ix,
                            adv_ix,
                            seed,
                        });
                    }
                }
            }
        }

        // Phase 2 (parallel): run the cells on the pool. Workers share the
        // engines built in phase 1; results come back in cell order. A cell
        // error fails the sweep fast: workers stop executing new cells once
        // one has failed (serial runs therefore report the first error in
        // cell order; parallel runs report the earliest-indexed error among
        // the cells that ran before the flag was seen).
        let threads = self.threads.unwrap_or_else(executor::available_threads);
        let first_err: Mutex<Option<(usize, DealError)>> = Mutex::new(None);
        let points: Vec<Option<SweepPoint>> = executor::run_indexed(cells.len(), threads, |i| {
            if first_err.lock().expect("sweep error slot").is_some() {
                return None;
            }
            match self.run_cell(&cells[i], &scenarios, &engines, &plans) {
                Ok(point) => Some(point),
                Err(e) => {
                    let mut slot = first_err.lock().expect("sweep error slot");
                    if slot.as_ref().is_none_or(|(j, _)| i < *j) {
                        *slot = Some((i, e));
                    }
                    None
                }
            }
        });
        if let Some((_, e)) = first_err.into_inner().expect("sweep error slot") {
            return Err(e);
        }
        let points = points.into_iter().flatten().collect();
        Ok(SweepOutcome { points, skipped })
    }

    /// Executes one enumerated cell (on whichever worker claimed it), reusing
    /// the hoisted engine and the specification's shared plan.
    fn run_cell(
        &self,
        cell: &Cell,
        scenarios: &[Vec<AdversaryScenario>],
        engines: &[Box<dyn DealEngine + Send + Sync>],
        plans: &[DealPlan],
    ) -> Result<SweepPoint, DealError> {
        let (spec_label, spec) = &self.specs[cell.spec_ix];
        let (engine_label, _) = &self.engines[cell.engine_ix];
        let (net_label, network) = &self.networks[cell.net_ix];
        let (adv_label, configs) = &scenarios[cell.spec_ix][cell.adv_ix];
        let run = Deal::new(spec.clone())
            .network(*network)
            .parties(configs)
            .seed(cell.seed)
            .run_planned(&plans[cell.spec_ix], &engines[cell.engine_ix])?;
        Ok(SweepPoint {
            spec: spec_label.clone(),
            engine: engine_label.clone(),
            network: net_label.clone(),
            adversary: adv_label.clone(),
            deal: spec.clone(),
            configs: configs.clone(),
            seed: cell.seed,
            run,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::single_deviator_configs;
    use xchain_deals::builders::{broker_spec, ring_spec};
    use xchain_deals::properties::check_safety;
    use xchain_sim::ids::DealId;

    #[test]
    fn sweep_covers_the_cross_product_and_skips_unsupported_cells() {
        let outcome = Sweep::new()
            .spec("broker", broker_spec())
            .spec("two-party ring", ring_spec(DealId(9), 2))
            .over_protocols(standard_engines(100))
            .over_networks(vec![
                ("sync".into(), NetworkModel::synchronous(100)),
                (
                    "eventually sync".into(),
                    NetworkModel::eventually_synchronous(0, 100, 100),
                ),
            ])
            .seed(11)
            .run()
            .unwrap();
        // 2 specs × 3 engines × 2 networks × 1 scenario, minus the swap
        // engine's skipped broker cells (2 networks × 1 scenario).
        assert_eq!(outcome.points.len(), 10);
        assert_eq!(outcome.skipped, 2);
        assert_eq!(outcome.by_engine("HTLC swap").len(), 2);
        for p in &outcome.points {
            assert!(
                p.run.outcome.committed_everywhere(),
                "{} / {} / {} should commit",
                p.spec,
                p.engine,
                p.network
            );
        }
    }

    #[test]
    fn adversary_generator_runs_per_spec() {
        let outcome = Sweep::new()
            .spec("broker", broker_spec())
            .over_adversaries(|spec| {
                let mut scenarios = vec![("all compliant".to_string(), Vec::new())];
                scenarios.extend(
                    single_deviator_configs(spec, 100)
                        .into_iter()
                        .enumerate()
                        .map(|(i, c)| (format!("deviator #{i}"), c)),
                );
                scenarios
            })
            .seed(23)
            .run()
            .unwrap();
        // 1 spec × 2 engines × 1 network × (1 + 3 parties × 11 deviations).
        assert_eq!(outcome.points.len(), 2 * (1 + 33));
        for p in &outcome.points {
            assert!(
                check_safety(&p.deal, &p.configs, &p.run.outcome).holds(),
                "{} / {} violated safety",
                p.engine,
                p.adversary
            );
        }
    }

    /// A failing cell fails the sweep (fail-fast), at any thread count.
    #[test]
    fn cell_errors_fail_the_sweep() {
        use xchain_deals::engine::EngineRun;
        use xchain_deals::outcome::ProtocolKind;
        use xchain_sim::world::World;

        #[derive(Clone)]
        struct FailingEngine;
        impl DealEngine for FailingEngine {
            fn kind(&self) -> ProtocolKind {
                ProtocolKind::Timelock
            }
            fn execute(
                &self,
                _world: &mut World,
                _plan: &DealPlan,
                _configs: &[PartyConfig],
            ) -> Result<EngineRun, DealError> {
                Err(DealError::Config("engine always fails".into()))
            }
        }

        for threads in [1, 4] {
            let err = Sweep::new()
                .spec("broker", broker_spec())
                .over_protocols(vec![("failing".into(), engine_factory(FailingEngine))])
                .threads(threads)
                .run()
                .unwrap_err();
            assert!(matches!(err, DealError::Config(_)), "threads={threads}");
        }
    }

    /// The executor must not change what a sweep produces: point labels,
    /// seeds, outcomes and gas totals are identical across thread counts.
    #[test]
    fn parallel_sweep_output_matches_serial() {
        let run_with = |threads: usize| {
            Sweep::new()
                .spec("broker", broker_spec())
                .spec("ring n=3", ring_spec(DealId(5), 3))
                .over_protocols(standard_engines(100))
                .seed(7)
                .threads(threads)
                .run()
                .unwrap()
        };
        let serial = run_with(1);
        let parallel = run_with(4);
        assert_eq!(serial.skipped, parallel.skipped);
        assert_eq!(serial.points.len(), parallel.points.len());
        for (a, b) in serial.points.iter().zip(&parallel.points) {
            assert_eq!(a.spec, b.spec);
            assert_eq!(a.engine, b.engine);
            assert_eq!(a.seed, b.seed);
            assert_eq!(
                a.run.outcome.metrics.total_gas(),
                b.run.outcome.metrics.total_gas()
            );
        }
    }
}
