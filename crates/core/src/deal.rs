//! The fluent deal session builder: the one entry point for executing a deal
//! under any [`DealEngine`].
//!
//! A [`Deal`] bundles the specification, the network timing model, the
//! parties' behaviour configurations and the world seed. Calling
//! [`Deal::run`] resolves the deal's [`DealPlan`] (once per session), builds
//! the world from it (chains, parties, minted escrow assets) and executes the
//! chosen engine, returning a unified [`DealRun`].
//!
//! ```
//! use xchain_deals::builders::broker_spec;
//! use xchain_deals::party::PartyConfig;
//! use xchain_deals::strategy::strategies;
//! use xchain_deals::{Deal, Protocol};
//! use xchain_sim::ids::PartyId;
//! use xchain_sim::network::NetworkModel;
//!
//! let deal = Deal::new(broker_spec())
//!     .network(NetworkModel::synchronous(100))
//!     .parties(&[PartyConfig::with_strategy(PartyId(2), strategies::withhold_vote())])
//!     .seed(42);
//! let run = deal.run(Protocol::timelock()).unwrap();
//! assert!(run.outcome.aborted_everywhere());
//! ```

use std::collections::BTreeMap;
use std::sync::Arc;

use xchain_sim::ids::{ChainId, ContractId};
use xchain_sim::network::NetworkModel;
use xchain_sim::world::World;

use crate::engine::{DealEngine, EngineRun, ProtocolExt};
use crate::error::DealError;
use crate::outcome::DealOutcome;
use crate::party::PartyConfig;
use crate::plan::DealPlan;
use crate::setup;
use crate::spec::DealSpec;

/// A configured deal session: specification + network + behaviours + seed.
///
/// The builder is reusable: `run` borrows it, so the same session can be
/// executed under several engines (as the sweeps in `xchain-harness` do).
/// The specification is fixed at [`Deal::new`], so the session resolves its
/// [`DealPlan`] exactly once and every subsequent [`Deal::run`] reuses it.
/// The session and its plans share one copy of the specification, so
/// cloning a session or resolving its plan copies no spec.
#[derive(Debug, Clone)]
pub struct Deal {
    spec: Arc<DealSpec>,
    network: NetworkModel,
    configs: Vec<PartyConfig>,
    seed: u64,
    /// The session's resolved plan, filled on first use. Only the spec feeds
    /// the plan and the spec never changes after `new`, so the cache can
    /// never go stale. Cloning a session shares the resolved plan.
    plan: std::sync::OnceLock<Arc<DealPlan>>,
}

impl Deal {
    /// Starts a session for the given specification with a synchronous
    /// ∆ = 100 network, all parties compliant, and seed 0.
    pub fn new(spec: DealSpec) -> Self {
        Deal {
            spec: Arc::new(spec),
            network: NetworkModel::default(),
            configs: Vec::new(),
            seed: 0,
            plan: std::sync::OnceLock::new(),
        }
    }

    /// Sets the network timing model the world will use.
    pub fn network(mut self, network: NetworkModel) -> Self {
        self.network = network;
        self
    }

    /// Sets the parties' behaviour configurations (replacing any previously
    /// set). Parties without a configuration behave compliantly.
    pub fn parties(mut self, configs: &[PartyConfig]) -> Self {
        self.configs = configs.to_vec();
        self
    }

    /// Adds a single party behaviour configuration.
    pub fn party(mut self, config: PartyConfig) -> Self {
        self.configs.push(config);
        self
    }

    /// Sets the deterministic world seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The deal specification this session executes.
    pub fn spec(&self) -> &DealSpec {
        &self.spec
    }

    /// The configured party behaviours.
    pub fn configs(&self) -> &[PartyConfig] {
        &self.configs
    }

    /// Builds the world this session would run in: every referenced chain and
    /// party exists and every escrow owner holds its asset. Exposed for
    /// callers that need to inspect or enrich the world before running
    /// ([`Deal::run_in`] executes against a caller-supplied world).
    pub fn build_world(&self) -> Result<World, DealError> {
        setup::world_for_plan(&*self.plan()?, self.network, self.seed)
    }

    /// The session's resolved [`DealPlan`] (validation, transfer order,
    /// per-party tables — all computed once per session and cached; planning
    /// errors are not cached). Callers that share one spec
    /// across *sessions* (the sweeps in `xchain-harness`, workload loops)
    /// can also pass the returned plan to [`Deal::run_planned`] explicitly.
    pub fn plan(&self) -> Result<Arc<DealPlan>, DealError> {
        if let Some(p) = self.plan.get() {
            return Ok(p.clone());
        }
        let plan = DealPlan::resolve(Arc::clone(&self.spec))?;
        let fresh = Arc::new(plan);
        Ok(self.plan.get_or_init(|| fresh).clone())
    }

    /// Builds the world and executes the deal under `engine`, returning the
    /// unified [`DealRun`]. Stateful strategies get a clean interior state
    /// for each execution ([`crate::party::fresh_configs`]), so re-running
    /// one session is deterministic and concurrent sweep cells are isolated.
    pub fn run<E: DealEngine>(&self, engine: E) -> Result<DealRun, DealError> {
        let plan = self.plan()?;
        self.run_planned(&plan, engine)
    }

    /// [`Deal::run`] with a caller-resolved plan: the world is built from the
    /// plan and the engine executes straight from it. The
    /// plan must come from [`Deal::plan`] on a session with this same
    /// specification (one plan can serve many sessions that differ only in
    /// network, parties, or seed).
    pub fn run_planned<E: DealEngine>(
        &self,
        plan: &DealPlan,
        engine: E,
    ) -> Result<DealRun, DealError> {
        // A plan of this session shares its spec, so the deep comparison
        // runs only for plans resolved elsewhere.
        if !std::ptr::eq(plan.spec(), &*self.spec) && plan.spec() != &*self.spec {
            return Err(DealError::Config(
                "run_planned called with a plan resolved from a different specification".into(),
            ));
        }
        if !engine.supports(&self.spec) {
            return Err(DealError::Config(format!(
                "the {} engine does not support this deal specification",
                engine.label()
            )));
        }
        let mut world = setup::world_for_plan(plan, self.network, self.seed)?;
        let configs = crate::party::fresh_configs(&self.configs);
        let run = engine.execute(&mut world, plan, &configs)?;
        Ok(DealRun {
            world,
            outcome: run.outcome,
            contracts: run.contracts,
            ext: run.ext,
        })
    }

    /// Executes the deal in a caller-supplied world (which must already
    /// contain the referenced chains, parties and escrowed assets). Most
    /// callers want [`Deal::run`]; this exists for scripted scenarios that
    /// share one world across several deals. The engine runs the session's
    /// cached plan ([`Deal::plan`]).
    pub fn run_in<E: DealEngine>(
        &self,
        world: &mut World,
        engine: E,
    ) -> Result<EngineRun, DealError> {
        if !engine.supports(&self.spec) {
            return Err(DealError::Config(format!(
                "the {} engine does not support this deal specification",
                engine.label()
            )));
        }
        let plan = self.plan()?;
        let configs = crate::party::fresh_configs(&self.configs);
        engine.execute(world, &plan, &configs)
    }
}

/// The unified result of a deal session: the world after the run, the
/// measured protocol-agnostic outcome (resolutions, holdings, per-phase gas
/// and durations), the escrow contracts, and the protocol-specific extension.
#[derive(Debug)]
pub struct DealRun {
    /// The world after the run (and all timeouts), for post-mortem holdings
    /// and contract-state inspection.
    pub world: World,
    /// The measured outcome: per-chain resolutions, per-party holdings
    /// before/after, and per-phase gas/duration metrics.
    pub outcome: DealOutcome,
    /// The escrow contract installed on each involved chain.
    pub contracts: BTreeMap<ChainId, ContractId>,
    /// Protocol-specific evidence (validated map for timelock, certified log
    /// and status for CBC, swap completion for HTLC).
    pub ext: ProtocolExt,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{broker_spec, ring_spec};
    use crate::engine::Protocol;
    use crate::party::PartyConfig;
    use crate::strategy::strategies;
    use xchain_sim::asset::Asset;
    use xchain_sim::ids::{DealId, Owner, PartyId};

    #[test]
    fn builder_runs_both_protocols_on_one_session() {
        let deal = Deal::new(broker_spec())
            .network(NetworkModel::synchronous(100))
            .seed(42);
        let tl = deal.run(Protocol::timelock()).unwrap();
        let cbc = deal.run(Protocol::cbc()).unwrap();
        assert!(tl.outcome.committed_everywhere());
        assert!(cbc.outcome.committed_everywhere());
        // The world travels with the run: Carol holds the tickets either way.
        for run in [&tl, &cbc] {
            assert!(run
                .world
                .holdings(Owner::Party(PartyId(2)))
                .contains(&Asset::non_fungible("ticket", [1, 2])));
        }
    }

    #[test]
    fn party_configs_flow_through() {
        let run = Deal::new(broker_spec())
            .party(PartyConfig::with_strategy(
                PartyId(1),
                strategies::withhold_vote(),
            ))
            .seed(3)
            .run(Protocol::timelock())
            .unwrap();
        assert!(run.outcome.aborted_everywhere());
    }

    #[test]
    fn same_seed_is_deterministic() {
        let deal = Deal::new(ring_spec(DealId(5), 5)).seed(9);
        let a = deal.run(Protocol::timelock()).unwrap();
        let b = deal.run(Protocol::timelock()).unwrap();
        assert_eq!(a.outcome.metrics.total_gas(), b.outcome.metrics.total_gas());
        assert_eq!(
            a.outcome.metrics.total_duration(),
            b.outcome.metrics.total_duration()
        );
    }

    #[test]
    fn run_in_uses_the_supplied_world() {
        let deal = Deal::new(broker_spec()).seed(7);
        let mut world = deal.build_world().unwrap();
        let run = deal.run_in(&mut world, Protocol::timelock()).unwrap();
        assert!(run.outcome.committed_everywhere());
        // Effects landed in the caller's world.
        assert!(world
            .holdings(Owner::Party(PartyId(2)))
            .contains(&Asset::non_fungible("ticket", [1, 2])));
    }
}
