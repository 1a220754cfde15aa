//! The deal driver: the one place a deal execution's shared machinery lives.
//!
//! The paper's two commit protocols share the first four phases of
//! Section 4 — clearing, escrow, tentative transfers and validation — and
//! differ only in how the deal commits; the HTLC swap of Section 8 shares
//! their bookkeeping but funds and claims in its own order. A
//! [`DealDriver`] owns everything the engines have in common:
//!
//! * the world, the [`DealPlan`], the [`PhaseMetrics`], the party
//!   configurations (resolved once per deal, in plan order) and, when some
//!   party deviates, the deal's shared [`ObservationHub`];
//! * per-phase gas and simulated-duration metering ([`DealDriver::phase`]);
//! * every strategy consultation ([`DealDriver::decide`], online parties
//!   only) and every contract call a party makes ([`DealDriver::call`]);
//! * the escrow, tentative-transfer and validation phases, generic over the
//!   protocol's [`DealEscrow`] manager (`DealDriver::shared_phases`), and
//!   the validation verdicts;
//! * outcome collection ([`DealDriver::finish`]).
//!
//! Each protocol supplies only what differs: its clearing step (which
//! contracts to install, with which deal information) and its commit step —
//! votes, forwarding and timeouts for the timelock protocol, the certified
//! log for CBC, leader-then-follower funding and claims for the swap.

use std::collections::BTreeMap;

use xchain_contracts::escrow::DealEscrow;
use xchain_sim::asset::AssetBag;
use xchain_sim::contract::{CallCtx, Contract};
use xchain_sim::error::{ChainError, ChainResult};
use xchain_sim::ids::{ChainId, ContractId, Owner, PartyId};
use xchain_sim::time::Duration;
use xchain_sim::world::World;

use crate::engine::{EngineRun, ProtocolExt};
use crate::error::DealError;
use crate::outcome::{ChainResolution, DealOutcome, ProtocolKind};
use crate::party::{config_of, PartyConfig};
use crate::phases::{Phase, PhaseMetrics};
use crate::plan::DealPlan;
use crate::setup::{self, advance_one_observation};
use crate::strategy::{DealView, ObservationCtx, ObservationHub, Strategy};
use crate::validation;

/// One deal execution in progress. Built by [`DealDriver::new`], driven by a
/// protocol's clearing and commit steps, and consumed by
/// [`DealDriver::finish`].
pub struct DealDriver<'a> {
    /// The world the deal executes in.
    pub world: &'a mut World,
    /// The resolved deal.
    pub(crate) plan: &'a DealPlan,
    /// The deal contract the clearing step installed on each of the plan's
    /// chains, parallel to [`DealPlan::chains`].
    contracts: Vec<Option<ContractId>>,
    /// The deal's observation hub; `None` when every party is compliant,
    /// since compliant parties decide without a view.
    hub: Option<ObservationHub>,
    metrics: PhaseMetrics,
    /// One configuration per deal party, in plan order. Cloning keeps each
    /// `Arc` strategy shared, so a coalition stays one value.
    configs: Vec<PartyConfig>,
    /// Each party's validation verdict, in plan order; empty until
    /// validation has run, and throughout the swap.
    verdicts: Vec<bool>,
    initial_holdings: BTreeMap<PartyId, AssetBag>,
}

impl<'a> DealDriver<'a> {
    /// Checks that the world holds the deal's parties and chains, registers
    /// the configured offline windows, and snapshots every party's holdings.
    pub fn new(
        world: &'a mut World,
        plan: &'a DealPlan,
        configs: &[PartyConfig],
    ) -> Result<Self, DealError> {
        let spec = plan.spec();
        setup::check_parties_exist(world, spec)?;
        setup::check_chains_exist(world, spec)?;
        setup::apply_offline_windows(world, configs);
        let initial_holdings = holdings(world, &spec.parties);
        let configs: Vec<PartyConfig> = spec
            .parties
            .iter()
            .map(|&p| config_of(configs, p))
            .collect();
        let deviates = configs.iter().any(|c| !c.is_compliant());
        Ok(DealDriver {
            world,
            plan,
            contracts: vec![None; plan.chains().len()],
            hub: deviates.then(|| ObservationHub::new(plan)),
            metrics: PhaseMetrics::new(),
            configs,
            verdicts: Vec::new(),
            initial_holdings,
        })
    }

    /// Runs `body` as (part of) `phase`, attributing the gas it burns and the
    /// simulated time it takes to that phase.
    pub fn phase<R>(&mut self, phase: Phase, body: impl FnOnce(&mut Self) -> R) -> R {
        let start = self.world.now();
        let gas = self.world.total_gas();
        let result = body(self);
        self.metrics
            .add_gas(phase, gas.delta_to(&self.world.total_gas()));
        self.metrics.add_duration(phase, self.world.now() - start);
        result
    }

    /// Asks `party`'s strategy for a decision: builds the party's observation
    /// context (see `DealDriver::ask`), whose `validated` is the party's own
    /// verdict once validation has run, and hands it to `hook` if the world
    /// and the strategy both have the party online. An offline party answers
    /// `R::default()` (`false`, [`crate::strategy::Vote::Withhold`]): it
    /// never reaches a call.
    pub fn decide<R: Default>(
        &mut self,
        party: PartyId,
        phase: Phase,
        hook: impl FnOnce(&dyn Strategy, &ObservationCtx<'_>) -> R,
    ) -> R {
        let (i, online) = (self.slot(party), self.available(party));
        let validated = self.verdicts.get(i).copied();
        self.ask(i, phase, validated, |s, ctx| {
            if online {
                hook(s, ctx)
            } else {
                R::default()
            }
        })
    }

    /// Builds the `i`-th party's observation context and hands it, with the
    /// party's strategy, to `hook`. A deviating party's view comes from the
    /// hub; a compliant party's hooks never read theirs, so it gets the empty
    /// view and the hub folds nothing for it. Since a view depends only on
    /// the logs at the party's own decisions, skipping those folds changes
    /// no deviator's view.
    fn ask<R>(
        &mut self,
        i: usize,
        phase: Phase,
        validated: Option<bool>,
        hook: impl FnOnce(&dyn Strategy, &ObservationCtx<'_>) -> R,
    ) -> R {
        static EMPTY_VIEW: DealView = DealView {
            escrows: Vec::new(),
            transfers: Vec::new(),
            commit_votes: Vec::new(),
            resolutions: Vec::new(),
        };
        let (config, spec) = (&self.configs[i], self.plan.spec());
        let ctx = match &mut self.hub {
            Some(hub) if !config.is_compliant() => {
                hub.ctx(self.world, spec, config.id, phase, validated)
            }
            _ => ObservationCtx {
                party: config.id,
                phase,
                now: self.world.now(),
                spec,
                view: &EMPTY_VIEW,
                validated,
            },
        };
        hook(&*config.strategy, &ctx)
    }

    /// Submits `f` as `caller`'s call to the deal contract on `chain`; fails
    /// with [`ChainError::UnknownChain`] if the deal installed none there.
    pub fn call<M: Contract, R>(
        &mut self,
        chain: ChainId,
        caller: PartyId,
        f: impl FnOnce(&mut M, &mut CallCtx<'_>) -> ChainResult<R>,
    ) -> ChainResult<R> {
        let contract = self.plan.chain_index(chain).and_then(|c| self.contracts[c]);
        let contract = contract.ok_or(ChainError::UnknownChain(chain))?;
        self.world.call(chain, Owner::Party(caller), contract, f)
    }

    /// True if `party` follows the protocol exactly.
    pub(crate) fn is_compliant(&self, party: PartyId) -> bool {
        self.configs[self.slot(party)].is_compliant()
    }

    /// True if `party` can act now: the world has it online and so does its
    /// strategy.
    pub(crate) fn available(&self, party: PartyId) -> bool {
        let now = self.world.now();
        !self.world.is_offline(party, now) && self.configs[self.slot(party)].strategy.is_online(now)
    }

    /// A party to submit housekeeping calls (timeout claims, proof
    /// presentations): the first available compliant party in plist order,
    /// else the first available party at all; `None` if everyone is offline.
    pub(crate) fn online_party(&self) -> Option<PartyId> {
        let parties = &self.plan.spec().parties;
        parties
            .iter()
            .copied()
            .find(|&p| self.is_compliant(p) && self.available(p))
            .or_else(|| parties.iter().copied().find(|&p| self.available(p)))
    }

    /// The position of `party` in plan order.
    fn slot(&self, party: PartyId) -> usize {
        self.configs
            .iter()
            .position(|c| c.id == party)
            .expect("configs are resolved for every deal party")
    }

    /// Installs `contract` on `chain` and records it as that chain's deal
    /// contract; `chain` must be one of the plan's.
    pub fn install<M: Contract>(
        &mut self,
        chain: ChainId,
        contract: M,
    ) -> Result<ContractId, DealError> {
        let slot = self.plan.chain_index(chain);
        let slot = slot.ok_or(DealError::Chain(ChainError::UnknownChain(chain)))?;
        let id = self
            .world
            .chain_mut(chain)
            .map_err(DealError::Chain)?
            .install(contract);
        self.contracts[slot] = Some(id);
        Ok(id)
    }

    /// Installs one contract from `make` on every chain of the plan.
    pub(crate) fn install_everywhere<M: Contract>(
        &mut self,
        make: impl Fn() -> M,
    ) -> Result<(), DealError> {
        for &chain in self.plan.chains() {
            self.install(chain, make())?;
        }
        Ok(())
    }

    /// Reads the deal contract on the `c`-th chain of the plan; `None` if
    /// there is none or it cannot be viewed.
    fn view<M: Contract, R>(&self, c: usize, read: impl FnOnce(&M) -> R) -> Option<R> {
        let contract = self.contracts[c]?;
        let chain = self.world.chain(self.plan.chains()[c]).ok()?;
        chain.view(contract, read).ok()
    }

    /// Whether the escrow on the `c`-th chain of the plan has resolved;
    /// `None` if it cannot be viewed.
    pub(crate) fn resolved<M: DealEscrow>(&self, c: usize) -> Option<bool> {
        self.view(c, |m: &M| m.resolution().is_some())
    }

    /// True if every deal escrow has resolved (committed or refunded).
    pub(crate) fn all_resolved<M: DealEscrow>(&self) -> bool {
        (0..self.contracts.len())
            .all(|c| self.contracts[c].is_none() || self.resolved::<M>(c) == Some(true))
    }

    /// Each party's validation verdict, by party.
    pub(crate) fn verdicts(&self) -> BTreeMap<PartyId, bool> {
        let parties = self.configs.iter().map(|c| c.id);
        parties.zip(self.verdicts.iter().copied()).collect()
    }

    /// The escrow, tentative-transfer and validation phases both commit
    /// protocols share (Section 4.1), against the `M` managers the clearing
    /// step installed. Leaves each party's validation verdict with the
    /// driver.
    pub(crate) fn shared_phases<M: DealEscrow>(
        &mut self,
        info: &M::Info,
        concurrent_transfers: bool,
    ) -> Result<(), DealError> {
        self.phase(Phase::Escrow, |d| d.escrow_all::<M>())?;
        self.phase(Phase::Transfer, |d| {
            d.transfer_all::<M>(concurrent_transfers)
        });
        self.phase(Phase::Validation, |d| d.validate_all::<M>(info));
        Ok(())
    }

    /// Escrow: every willing party escrows its outgoing assets in parallel;
    /// the phase costs at most one observation delay.
    fn escrow_all<M: DealEscrow>(&mut self) -> Result<(), DealError> {
        let plan = self.plan;
        for e in &plan.spec().escrows {
            if !self.decide(e.owner, Phase::Escrow, |s, ctx| s.on_escrow(ctx)) {
                continue;
            }
            let result = self.call(e.chain, e.owner, |m: &mut M, ctx| {
                m.escrow(ctx, e.asset.clone())
            });
            // Deviating parties simply fail to escrow.
            if let Err(err) = result {
                if self.is_compliant(e.owner) {
                    return Err(DealError::Chain(err));
                }
            }
        }
        advance_one_observation(self.world);
        Ok(())
    }

    /// Tentative transfers in the plan's dependency-respecting order.
    fn transfer_all<M: DealEscrow>(&mut self, concurrent: bool) {
        let plan = self.plan;
        let order = plan.transfer_order();
        for (step, &idx) in order.iter().enumerate() {
            let t = &plan.spec().transfers[idx];
            if self.decide(t.from, Phase::Transfer, |s, ctx| s.on_transfer(ctx)) {
                let _ = self.call(t.chain, t.from, |m: &mut M, ctx| {
                    m.transfer(ctx, &t.asset, t.to)
                });
            }
            // Sequential transfers: the next sender must observe this one first.
            if !concurrent && step + 1 < order.len() {
                advance_one_observation(self.world);
            }
        }
        advance_one_observation(self.world);
    }

    /// Validation: each party inspects its escrowed incoming assets. The
    /// mechanical verdict rides in the context; the strategy decides whether
    /// to accept it. Every party is asked, online or not: validation reads
    /// the escrows and sends nothing.
    fn validate_all<M: DealEscrow>(&mut self, info: &M::Info) {
        let plan = self.plan;
        let verdict = |(i, pp): (usize, _)| {
            let mechanical =
                validation::validate_plan::<M>(self.world, plan, &self.contracts, pp, info);
            self.ask(i, Phase::Validation, Some(mechanical), |s, ctx| {
                s.on_validate(ctx)
            })
        };
        self.verdicts = plan.parties().iter().enumerate().map(verdict).collect();
        advance_one_observation(self.world);
    }

    /// Collects the outcome: every party's final holdings, each chain's
    /// resolution as `read` maps its deal contract (unresolved when it
    /// cannot be viewed), and the metered phases.
    pub fn finish<M: Contract>(
        self,
        protocol: ProtocolKind,
        delta: Duration,
        read: impl Fn(&M) -> ChainResolution,
        ext: ProtocolExt,
    ) -> EngineRun {
        let final_holdings = holdings(self.world, &self.plan.spec().parties);
        let mut contracts = BTreeMap::new();
        let mut resolutions = BTreeMap::new();
        for (c, (&chain, id)) in self.plan.chains().iter().zip(&self.contracts).enumerate() {
            let Some(id) = *id else { continue };
            contracts.insert(chain, id);
            let resolution = self.view(c, &read);
            resolutions.insert(chain, resolution.unwrap_or(ChainResolution::Unresolved));
        }
        EngineRun {
            outcome: DealOutcome {
                protocol,
                initial_holdings: self.initial_holdings,
                final_holdings,
                resolutions,
                metrics: self.metrics,
                delta,
            },
            contracts,
            ext,
        }
    }
}

/// Snapshot of each party's holdings across all chains.
fn holdings(world: &World, parties: &[PartyId]) -> BTreeMap<PartyId, AssetBag> {
    parties
        .iter()
        .map(|&p| (p, world.holdings(Owner::Party(p))))
        .collect()
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use xchain_contracts::timelock::{TimelockDealInfo, TimelockManager};
    use xchain_sim::network::NetworkModel;
    use xchain_sim::time::Time;

    use super::*;
    use crate::builders::broker_spec;
    use crate::setup::world_for_plan;
    use crate::strategy::strategies;

    /// Runs the escrow phase of the broker deal under timelock with
    /// `configs`, then returns whether the driver built a hub and what view
    /// each party sees at its next decision.
    fn views_after_escrow(configs: &[PartyConfig]) -> (bool, Vec<DealView>) {
        let spec = broker_spec();
        let plan = DealPlan::new(&spec).unwrap();
        let mut world = world_for_plan(&plan, NetworkModel::synchronous(100), 7).unwrap();
        let mut d = DealDriver::new(&mut world, &plan, configs).unwrap();
        let info = Arc::new(TimelockDealInfo {
            deal: spec.deal,
            plist: spec.parties.clone(),
            t0: Time(10_000),
            delta: Duration(100),
        });
        d.install_everywhere(|| TimelockManager::new(Arc::clone(&info)))
            .unwrap();
        d.escrow_all::<TimelockManager>().unwrap();
        let has_hub = d.hub.is_some();
        let views = spec
            .parties
            .iter()
            .map(|&p| d.decide(p, Phase::Transfer, |_, ctx| ctx.view.clone()))
            .collect();
        (has_hub, views)
    }

    #[test]
    fn an_all_compliant_deal_builds_no_hub_and_shows_empty_views() {
        let (has_hub, views) = views_after_escrow(&[]);
        assert!(!has_hub);
        assert!(views.iter().all(|v| *v == DealView::default()));
    }

    #[test]
    fn only_deviating_parties_see_the_hubs_views() {
        let bob = PartyId(1);
        let configs = [PartyConfig::with_strategy(
            bob,
            strategies::crash_after(Phase::Commit),
        )];
        let (has_hub, views) = views_after_escrow(&configs);
        assert!(has_hub);
        let spec = broker_spec();
        for (&p, view) in spec.parties.iter().zip(&views) {
            if p == bob {
                let escrows: Vec<_> = spec.escrows.iter().map(|e| (e.chain, e.owner)).collect();
                assert_eq!(view.escrows, escrows);
            } else {
                assert_eq!(*view, DealView::default(), "{p}");
            }
        }
    }
}
