//! The deal driver: the one place a deal execution's shared machinery lives.
//!
//! The paper's two commit protocols share the first four phases of
//! Section 4 — clearing, escrow, tentative transfers and validation — and
//! differ only in how the deal commits; the HTLC swap of Section 8 shares
//! their bookkeeping but funds and claims in its own order. A
//! [`DealDriver`] owns everything the engines have in common:
//!
//! * the world, the [`DealPlan`], the deal's shared [`ObservationHub`], the
//!   [`PhaseMetrics`], and the party configurations (resolved once per deal,
//!   in plan order);
//! * per-phase gas and simulated-duration metering ([`DealDriver::phase`]);
//! * every strategy consultation ([`DealDriver::decide`]);
//! * the escrow, tentative-transfer and validation phases, generic over the
//!   protocol's [`DealEscrow`] manager (`DealDriver::shared_phases`);
//! * outcome collection ([`DealDriver::finish`]).
//!
//! Each protocol supplies only what differs: its clearing step (which
//! contracts to install, with which deal information) and its commit step —
//! votes, forwarding and timeouts for the timelock protocol, the certified
//! log for CBC, leader-then-follower funding and claims for the swap.

use std::collections::BTreeMap;

use xchain_contracts::escrow::DealEscrow;
use xchain_sim::asset::AssetBag;
use xchain_sim::contract::Contract;
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
use crate::strategy::{ObservationCtx, ObservationHub, Strategy};
use crate::validation;

/// One deal execution in progress. Built by [`DealDriver::new`], driven by a
/// protocol's clearing and commit steps, and consumed by
/// [`DealDriver::finish`].
pub struct DealDriver<'a> {
    /// The world the deal executes in.
    pub world: &'a mut World,
    /// The resolved deal.
    pub(crate) plan: &'a DealPlan,
    /// The contract the clearing step installed on each involved chain.
    pub(crate) contracts: BTreeMap<ChainId, ContractId>,
    hub: ObservationHub,
    metrics: PhaseMetrics,
    /// One configuration per deal party, in plan order. Cloning keeps each
    /// `Arc` strategy shared, so a coalition stays one value.
    configs: Vec<PartyConfig>,
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
        Ok(DealDriver {
            world,
            plan,
            contracts: BTreeMap::new(),
            hub: ObservationHub::new(plan),
            metrics: PhaseMetrics::new(),
            configs: spec
                .parties
                .iter()
                .map(|&p| config_of(configs, p))
                .collect(),
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

    /// Asks `party`'s strategy for a decision: builds the party's
    /// observation context from the shared hub and hands it, with the
    /// strategy, to `hook`. Gating on [`Strategy::is_online`] is the hook's
    /// business, so each call site keeps its exact sequence of hook calls.
    pub fn decide<R>(
        &mut self,
        party: PartyId,
        phase: Phase,
        validated: Option<bool>,
        hook: impl FnOnce(&dyn Strategy, &ObservationCtx<'_>) -> R,
    ) -> R {
        let strategy = &*config(&self.configs, party).strategy;
        let ctx = self
            .hub
            .ctx(self.world, self.plan.spec(), party, phase, validated);
        hook(strategy, &ctx)
    }

    /// True if `party` follows the protocol exactly.
    pub(crate) fn is_compliant(&self, party: PartyId) -> bool {
        config(&self.configs, party).is_compliant()
    }

    /// True if `party` can act now: the world has it online and so does its
    /// strategy.
    pub(crate) fn available(&self, party: PartyId) -> bool {
        let now = self.world.now();
        !self.world.is_offline(party, now) && config(&self.configs, party).strategy.is_online(now)
    }

    /// An online party, compliant ones first, to submit housekeeping calls
    /// (see [`setup::pick_online_party`]).
    pub(crate) fn online_party(&self) -> Option<PartyId> {
        setup::pick_online_party(self.world, self.plan.spec(), &self.configs)
    }

    /// Installs `contract` on `chain` and records it as that chain's deal
    /// contract.
    pub fn install<M: Contract>(
        &mut self,
        chain: ChainId,
        contract: M,
    ) -> Result<ContractId, DealError> {
        let id = self
            .world
            .chain_mut(chain)
            .map_err(DealError::Chain)?
            .install(contract);
        self.contracts.insert(chain, id);
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

    /// Reads the deal contract on `chain`; `None` if it cannot be viewed.
    fn view<M: Contract, R>(&self, chain: ChainId, read: impl FnOnce(&M) -> R) -> Option<R> {
        let contract = *self.contracts.get(&chain)?;
        self.world.chain(chain).ok()?.view(contract, read).ok()
    }

    /// Whether the escrow on `chain` has resolved; `None` if it cannot be
    /// viewed.
    pub(crate) fn resolved<M: DealEscrow>(&self, chain: ChainId) -> Option<bool> {
        self.view(chain, |m: &M| m.resolution().is_some())
    }

    /// True if every deal escrow has resolved (committed or refunded).
    pub(crate) fn all_resolved<M: DealEscrow>(&self) -> bool {
        self.contracts
            .keys()
            .all(|&chain| self.resolved::<M>(chain) == Some(true))
    }

    /// The escrow, tentative-transfer and validation phases both commit
    /// protocols share (Section 4.1), against the `M` managers the clearing
    /// step installed. Returns each party's validation verdict.
    pub(crate) fn shared_phases<M: DealEscrow>(
        &mut self,
        info: &M::Info,
        concurrent_transfers: bool,
    ) -> Result<BTreeMap<PartyId, bool>, DealError> {
        self.phase(Phase::Escrow, |d| d.escrow_all::<M>())?;
        self.phase(Phase::Transfer, |d| {
            d.transfer_all::<M>(concurrent_transfers)
        });
        Ok(self.phase(Phase::Validation, |d| d.validate_all::<M>(info)))
    }

    /// Escrow: every willing party escrows its outgoing assets in parallel;
    /// the phase costs at most one observation delay.
    fn escrow_all<M: DealEscrow>(&mut self) -> Result<(), DealError> {
        let plan = self.plan;
        for e in plan.escrows() {
            let willing = self.decide(e.owner, Phase::Escrow, None, |s, ctx| {
                s.is_online(ctx.now) && s.on_escrow(ctx)
            });
            if !willing {
                continue;
            }
            let result = self.world.call(
                e.chain,
                Owner::Party(e.owner),
                self.contracts[&e.chain],
                |m: &mut M, ctx| m.escrow_interned(ctx, e.asset.clone()),
            );
            // Deviating or offline parties simply fail to escrow.
            if let Err(err) = result {
                if self.is_compliant(e.owner) && !self.world.is_offline(e.owner, self.world.now()) {
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
            let t = &plan.transfers()[idx];
            let willing = self.decide(t.from, Phase::Transfer, None, |s, ctx| {
                s.is_online(ctx.now) && s.on_transfer(ctx)
            });
            if willing {
                let _ = self.world.call(
                    t.chain,
                    Owner::Party(t.from),
                    self.contracts[&t.chain],
                    |m: &mut M, ctx| m.transfer_interned(ctx, &t.asset, t.to),
                );
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
    /// to accept it.
    fn validate_all<M: DealEscrow>(&mut self, info: &M::Info) -> BTreeMap<PartyId, bool> {
        let plan = self.plan;
        let mut validated = BTreeMap::new();
        for pp in plan.parties() {
            let mechanical = validation::validate_plan::<M>(self.world, pp, info, &self.contracts);
            let ok = self.decide(pp.id, Phase::Validation, Some(mechanical), |s, ctx| {
                s.on_validate(ctx)
            });
            validated.insert(pp.id, ok);
        }
        advance_one_observation(self.world);
        validated
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
        let resolutions = self
            .contracts
            .keys()
            .map(|&chain| {
                let resolution = self.view(chain, &read);
                (chain, resolution.unwrap_or(ChainResolution::Unresolved))
            })
            .collect();
        EngineRun {
            outcome: DealOutcome {
                protocol,
                initial_holdings: self.initial_holdings,
                final_holdings,
                resolutions,
                metrics: self.metrics,
                delta,
            },
            contracts: self.contracts,
            ext,
        }
    }
}

/// The resolved configuration of a deal party.
fn config(configs: &[PartyConfig], party: PartyId) -> &PartyConfig {
    configs
        .iter()
        .find(|c| c.id == party)
        .expect("configs are resolved for every deal party")
}

/// Snapshot of each party's holdings across all chains.
fn holdings(world: &World, parties: &[PartyId]) -> BTreeMap<PartyId, AssetBag> {
    parties
        .iter()
        .map(|&p| (p, world.holdings(Owner::Party(p))))
        .collect()
}
