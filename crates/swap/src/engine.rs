//! The HTLC atomic swap as a third [`DealEngine`]: two-party deals that are
//! expressible as swaps (Section 8) can be executed by hashed-timelock
//! contracts instead of a commit protocol, making the swap directly
//! comparable to the timelock and CBC engines in gas and delay.
//!
//! The engine maps a two-party [`DealSpec`] onto a [`SwapSpec`] (leader =
//! first party, follower = second) and runs the classic asymmetric-timeout
//! HTLC exchange on the shared [`DealDriver`], which meters the phases,
//! consults each [`PartyConfig`]'s [`xchain_deals::strategy::Strategy`]
//! through the deal's observation hub, and collects the outcome. The swap
//! supplies only its own steps: clearing installs the two HTLCs, escrow is
//! leader-then-follower funding (`on_escrow`), and commit is the claims
//! (`on_claim`) plus the refunds after timeout. It has no transfer or
//! validation phase: the claim is the transfer and the hashlock validates.
//! Results are reported in the same [`DealOutcome`] vocabulary as the commit
//! protocols, via the [`HtlcState`] mapping.
//!
//! [`DealOutcome`]: xchain_deals::outcome::DealOutcome

use xchain_deals::driver::DealDriver;
use xchain_deals::engine::{DealEngine, EngineRun, ProtocolExt};
use xchain_deals::error::DealError;
use xchain_deals::outcome::{ChainResolution, ProtocolKind};
use xchain_deals::party::PartyConfig;
use xchain_deals::phases::Phase;
use xchain_deals::plan::DealPlan;
use xchain_deals::setup::advance_one_observation;
use xchain_deals::spec::DealSpec;
use xchain_sim::asset::Asset;
use xchain_sim::ids::{ChainId, PartyId};
use xchain_sim::time::Duration;
use xchain_sim::world::World;

use crate::htlc::{HtlcContract, HtlcState};
use crate::limits::expressible_as_swap;

/// A two-party swap: `leader` gives `leader_asset` (on `leader_chain`) for
/// `follower_asset` (on `follower_chain`) owned by `follower`.
#[derive(Debug, Clone)]
pub struct SwapSpec {
    /// The party that generates the secret.
    pub leader: PartyId,
    /// Its counterparty.
    pub follower: PartyId,
    /// The chain of the leader's outgoing asset.
    pub leader_chain: ChainId,
    /// The leader's outgoing asset.
    pub leader_asset: Asset,
    /// The chain of the follower's outgoing asset.
    pub follower_chain: ChainId,
    /// The follower's outgoing asset.
    pub follower_asset: Asset,
}

/// The two-party HTLC swap engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapEngine {
    /// The synchrony bound ∆ used for the asymmetric HTLC timeouts (leader
    /// 4∆, follower 2∆) and for normalising durations in reports.
    pub delta: Duration,
}

impl SwapEngine {
    /// A swap engine with the given synchrony bound.
    pub fn new(delta: Duration) -> Self {
        SwapEngine { delta }
    }

    /// Maps a deal specification onto a [`SwapSpec`], if it is a two-party,
    /// two-chain exchange in which each party escrows exactly the single
    /// asset it sends (the Section 8 expressibility condition, specialised to
    /// what an HTLC pair can execute).
    pub fn as_swap_spec(spec: &DealSpec) -> Option<SwapSpec> {
        if spec.n_parties() != 2
            || spec.n_transfers() != 2
            || spec.n_assets() != 2
            || !expressible_as_swap(spec)
        {
            return None;
        }
        let leader = spec.parties[0];
        let follower = spec.parties[1];
        let leader_t = spec.transfers.iter().find(|t| t.from == leader)?;
        let follower_t = spec.transfers.iter().find(|t| t.from == follower)?;
        if leader_t.to != follower || follower_t.to != leader {
            return None;
        }
        // One HTLC per chain: the two legs must live on different chains.
        if leader_t.chain == follower_t.chain {
            return None;
        }
        // Each leg must be backed by a matching escrow obligation.
        let escrow_matches = |p: PartyId, chain: ChainId, asset: &Asset| {
            spec.escrows
                .iter()
                .any(|e| e.owner == p && e.chain == chain && e.asset == *asset)
        };
        if !escrow_matches(leader, leader_t.chain, &leader_t.asset)
            || !escrow_matches(follower, follower_t.chain, &follower_t.asset)
        {
            return None;
        }
        Some(SwapSpec {
            leader,
            follower,
            leader_chain: leader_t.chain,
            leader_asset: leader_t.asset.clone(),
            follower_chain: follower_t.chain,
            follower_asset: follower_t.asset.clone(),
        })
    }
}

impl Default for SwapEngine {
    fn default() -> Self {
        SwapEngine::new(Duration(100))
    }
}

impl DealEngine for SwapEngine {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::Swap
    }

    fn supports(&self, spec: &DealSpec) -> bool {
        Self::as_swap_spec(spec).is_some()
    }

    fn execute(
        &self,
        world: &mut World,
        plan: &DealPlan,
        configs: &[PartyConfig],
    ) -> Result<EngineRun, DealError> {
        let swap = Self::as_swap_spec(plan.spec()).ok_or_else(|| {
            DealError::Config("deal is not expressible as a two-party HTLC swap".into())
        })?;
        let mut d = DealDriver::new(world, plan, configs)?;
        let secret = 0xA11CE ^ d.world.seed();

        // Clearing: install the two HTLCs under one hashlock, with the
        // standard asymmetric timeouts (the leader's escrow outlives the
        // follower's so the follower always has time to claim after the
        // secret is revealed). Funding consumes up to two observation delays
        // (each bounded by ∆) before the leader can claim, so the follower's
        // HTLC must live strictly longer than 2∆; the leader's must outlive
        // the follower's by more than another observation delay so the
        // follower can always claim after the reveal.
        let leader_timeout = d.world.now() + self.delta.times(6);
        let follower_timeout = d.world.now() + self.delta.times(3);
        d.phase(Phase::Clearing, |d| {
            let hashlock = HtlcContract::hash_secret(secret);
            d.install(
                swap.leader_chain,
                HtlcContract::new(swap.leader, swap.follower, hashlock, leader_timeout),
            )?;
            d.install(
                swap.follower_chain,
                HtlcContract::new(swap.follower, swap.leader, hashlock, follower_timeout),
            )
        })?;

        // Escrow: the leader funds first; the follower funds only after
        // observing the leader's escrow (one observation delay).
        let (leader_funded, follower_funded) = d.phase(Phase::Escrow, |d| {
            let leader_funded = d.decide(swap.leader, Phase::Escrow, |s, ctx| s.on_escrow(ctx))
                && d.call(
                    swap.leader_chain,
                    swap.leader,
                    |h: &mut HtlcContract, ctx| h.fund(ctx, swap.leader_asset.clone()),
                )
                .is_ok();
            advance_one_observation(d.world);
            let follower_funded = leader_funded
                && d.decide(swap.follower, Phase::Escrow, |s, ctx| s.on_escrow(ctx))
                && d.call(
                    swap.follower_chain,
                    swap.follower,
                    |h: &mut HtlcContract, ctx| h.fund(ctx, swap.follower_asset.clone()),
                )
                .is_ok();
            advance_one_observation(d.world);
            (leader_funded, follower_funded)
        });

        // Commit: the leader claims the follower's HTLC (revealing the secret
        // on-chain), then the follower claims the leader's. A party that
        // withholds its claim plays the same role as one withholding a
        // commit vote in the deal protocols.
        let swapped = d.phase(Phase::Commit, |d| {
            let leader_claimed = leader_funded
                && follower_funded
                && d.decide(swap.leader, Phase::Commit, |s, ctx| s.on_claim(ctx))
                && d.call(
                    swap.follower_chain,
                    swap.leader,
                    |h: &mut HtlcContract, ctx| h.claim(ctx, secret),
                )
                .is_ok();
            advance_one_observation(d.world);
            let follower_claimed = leader_claimed
                && d.decide(swap.follower, Phase::Commit, |s, ctx| s.on_claim(ctx))
                && d.call(
                    swap.leader_chain,
                    swap.follower,
                    |h: &mut HtlcContract, ctx| h.claim(ctx, secret),
                )
                .is_ok();

            // Timeouts: whatever is still locked refunds to its depositor
            // once the longer (leader) timeout has passed.
            let leader_locked = leader_funded && !follower_claimed;
            let follower_locked = follower_funded && !leader_claimed;
            if leader_locked || follower_locked {
                d.world.advance_to(leader_timeout + Duration(1));
                if leader_locked {
                    let _ = d.call(
                        swap.leader_chain,
                        swap.leader,
                        |h: &mut HtlcContract, ctx| h.refund(ctx),
                    );
                }
                if follower_locked {
                    let _ = d.call(
                        swap.follower_chain,
                        swap.follower,
                        |h: &mut HtlcContract, ctx| h.refund(ctx),
                    );
                }
            }
            leader_claimed && follower_claimed
        });

        Ok(d.finish(
            ProtocolKind::Swap,
            self.delta,
            |h: &HtlcContract| match h.state() {
                HtlcState::Claimed => ChainResolution::Committed,
                // Never funded means nothing was ever at stake there; the
                // exchange is off, which is an abort in deal terms.
                HtlcState::Refunded | HtlcState::Created => ChainResolution::Aborted,
                HtlcState::Funded => ChainResolution::Unresolved,
            },
            ProtocolExt::Swap { swapped },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xchain_deals::builders::{broker_spec, ring_spec};
    use xchain_deals::properties::{check_conservation, check_safety};
    use xchain_deals::strategy::{strategies, DealView, ObservationHub};
    use xchain_deals::{Deal, DealRun};
    use xchain_sim::ids::{DealId, Owner};
    use xchain_sim::network::NetworkModel;

    fn two_party() -> DealSpec {
        ring_spec(DealId(77), 2)
    }

    /// What a party reading the finished run's logs through a fresh hub
    /// sees: the HTLC tags must land in the same view fields as the escrow
    /// contracts' tags.
    fn hub_view(deal: &Deal, run: &DealRun) -> DealView {
        let plan = deal.plan().unwrap();
        let mut hub = ObservationHub::new(&plan);
        let ctx = hub.ctx(&run.world, deal.spec(), PartyId(0), Phase::Commit, None);
        ctx.view.clone()
    }

    #[test]
    fn supports_only_swap_expressible_two_party_deals() {
        let engine = SwapEngine::default();
        assert!(engine.supports(&two_party()));
        assert!(!engine.supports(&broker_spec()));
        assert!(!engine.supports(&ring_spec(DealId(1), 4)));
    }

    #[test]
    fn compliant_swap_commits_both_chains() {
        let deal = Deal::new(two_party())
            .network(NetworkModel::synchronous(100))
            .seed(5);
        let run = deal.run(SwapEngine::default()).unwrap();
        assert!(run.outcome.committed_everywhere());
        assert_eq!(run.ext.swapped(), Some(true));
        assert_eq!(run.outcome.protocol, ProtocolKind::Swap);
        // Party 1 now holds party 0's asset and vice versa.
        assert!(run
            .world
            .holdings(Owner::Party(PartyId(1)))
            .contains(&Asset::fungible("asset-0", 10)));
        assert!(run
            .world
            .holdings(Owner::Party(PartyId(0)))
            .contains(&Asset::fungible("asset-1", 10)));
        assert!(check_safety(deal.spec(), &[], &run.outcome).holds());
        assert!(check_conservation(deal.spec(), &run.outcome));
        // Both fundings are escrows; both claims are commit votes (chain 0
        // first: the follower's claim of the leader's HTLC); a claim is not
        // an escrow resolution.
        let (c0, c1, p0, p1) = (ChainId(0), ChainId(1), PartyId(0), PartyId(1));
        assert_eq!(
            hub_view(&deal, &run),
            DealView {
                escrows: vec![(c0, p0), (c1, p1)],
                transfers: vec![],
                commit_votes: vec![p1, p0],
                resolutions: vec![],
            }
        );
    }

    #[test]
    fn defecting_follower_costs_nobody_anything() {
        let deal = Deal::new(two_party())
            .party(PartyConfig::with_strategy(
                PartyId(1),
                strategies::refuse_escrow(),
            ))
            .seed(6);
        let run = deal.run(SwapEngine::default()).unwrap();
        assert!(run.outcome.aborted_everywhere());
        assert_eq!(run.ext.swapped(), Some(false));
        assert!(run
            .world
            .holdings(Owner::Party(PartyId(0)))
            .contains(&Asset::fungible("asset-0", 10)));
        assert!(check_safety(deal.spec(), deal.configs(), &run.outcome).holds());
    }

    #[test]
    fn withheld_claim_refunds_both_sides() {
        let deal = Deal::new(two_party())
            .party(PartyConfig::with_strategy(
                PartyId(0),
                strategies::withhold_vote(),
            ))
            .seed(7);
        let run = deal.run(SwapEngine::default()).unwrap();
        assert!(run.outcome.aborted_everywhere());
        assert!(check_safety(deal.spec(), deal.configs(), &run.outcome).holds());
        assert!(check_conservation(deal.spec(), &run.outcome));
        // Both fundings, no claims, and a refund on each chain.
        let (c0, c1, p0, p1) = (ChainId(0), ChainId(1), PartyId(0), PartyId(1));
        assert_eq!(
            hub_view(&deal, &run),
            DealView {
                escrows: vec![(c0, p0), (c1, p1)],
                transfers: vec![],
                commit_votes: vec![],
                resolutions: vec![(c0, false), (c1, false)],
            }
        );
    }

    #[test]
    fn builder_rejects_unsupported_specs() {
        let err = Deal::new(broker_spec())
            .run(SwapEngine::default())
            .unwrap_err();
        assert!(err.to_string().contains("does not support"));
    }

    #[test]
    fn compliant_swaps_commit_for_adversarial_delay_seeds() {
        // Regression: with follower_timeout at install + 2∆ the claim could
        // land at exactly `now == timeout` (two worst-case observation delays
        // during funding) and a fully-compliant swap spuriously aborted.
        // Seeds 1897, 12735, 23841, 26817 and 27893 all produced that timing
        // under the default synchronous ∆ = 100 network.
        for seed in [1897u64, 12735, 23841, 26817, 27893] {
            let run = Deal::new(two_party())
                .network(NetworkModel::synchronous(100))
                .seed(seed)
                .run(SwapEngine::default())
                .unwrap();
            assert!(run.outcome.committed_everywhere(), "seed {seed}");
        }
    }
}
