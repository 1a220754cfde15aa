//! The timelock commit protocol engine (Section 5).
//!
//! The protocol's clearing step and commit step, run on the shared
//! [`DealDriver`] (which owns the escrow, tentative-transfer and validation
//! phases, strategy consultation, metering and outcome collection). Clearing
//! broadcasts `(D, plist, t0, ∆)` and installs a [`TimelockManager`] on every
//! involved chain; the commit step is the vote / vote-forwarding phase with
//! path-signature timeouts, ending in a refund once `t0 + N·∆` has passed.
//! Party behaviour is controlled by each [`PartyConfig`]'s
//! [`crate::strategy::Strategy`], so both the all-compliant executions of
//! Theorem 5.3 and arbitrary adversarial executions (Theorem 5.1) are
//! produced by the same engine.

use std::sync::Arc;

use xchain_contracts::escrow::DealEscrow;
use xchain_contracts::timelock::{TimelockDealInfo, TimelockManager};
use xchain_sim::crypto::{KeyPair, PathSignature};
use xchain_sim::ids::{ChainId, PartyId};
use xchain_sim::time::Duration;
use xchain_sim::world::World;

use crate::driver::DealDriver;
use crate::engine::{EngineRun, ProtocolExt};
use crate::error::DealError;
use crate::outcome::ProtocolKind;
use crate::party::PartyConfig;
use crate::phases::Phase;
use crate::plan::{DealPlan, PartyPlan};
use crate::setup::advance_one_observation;
use crate::spec::DealSpec;
use crate::strategy::Vote;

/// Tunable options for the timelock protocol engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelockOptions {
    /// The synchrony bound ∆ used for all timeouts.
    pub delta: Duration,
    /// If true, parties altruistically send their commit votes to every
    /// escrow contract instead of only their incoming-asset chains; the
    /// commit phase then completes in O(1)·∆ instead of O(n)·∆ (Section 7.2).
    pub altruistic_broadcast: bool,
    /// If true, independent tentative transfers are submitted concurrently
    /// (transfer phase ≈ ∆); otherwise they are performed sequentially
    /// (transfer phase ≈ t·∆), matching the two columns of Figure 7.
    pub concurrent_transfers: bool,
}

impl Default for TimelockOptions {
    fn default() -> Self {
        TimelockOptions {
            delta: Duration(100),
            altruistic_broadcast: false,
            concurrent_transfers: false,
        }
    }
}

/// A commit vote visible on some chain, tracked engine-side so other parties
/// can observe and forward it. Its path signature lives in the deal's
/// signature pool, so a vote accepted on several chains is stored once.
#[derive(Debug, Clone, Copy)]
struct PublishedVote {
    /// The accepting chain's index in [`DealPlan::chains`].
    chain: usize,
    /// The voter's index in [`DealPlan::parties`].
    voter: usize,
    /// Index into the pool of built path signatures.
    path: usize,
}

/// The commit phase's vote bookkeeping: every path signature built, every
/// vote a contract accepted, and a dense chains × parties table of which
/// chain accepted which voter.
struct Votes {
    /// Every path signature built this deal, each stored once.
    paths: Vec<PathSignature>,
    /// Accepted votes in acceptance order; a chain accepts each voter once.
    published: Vec<PublishedVote>,
    /// `accepted[chain * parties + voter]`: the chain accepted the voter.
    /// It mirrors the contracts' acceptance state exactly (every published
    /// vote was an `Ok` commit), so no duplicate check re-reads a contract.
    accepted: Vec<bool>,
    parties: usize,
}

impl Votes {
    fn new(plan: &DealPlan) -> Self {
        let (chains, parties) = (plan.chains().len(), plan.parties().len());
        // A compliant deal builds at most one signature per accepted vote.
        Votes {
            paths: Vec::with_capacity(parties * chains),
            published: Vec::with_capacity(parties * chains),
            accepted: vec![false; chains * parties],
            parties,
        }
    }

    /// Submits the pooled path signature `path` to `chain` on behalf of
    /// `caller`, publishing the vote if the contract accepts it. Returns
    /// whether it did.
    fn submit(
        &mut self,
        d: &mut DealDriver<'_>,
        caller: PartyId,
        chain: usize,
        voter: usize,
        path: usize,
    ) -> bool {
        let accepted = d
            .call(
                d.plan.chains()[chain],
                caller,
                |m: &mut TimelockManager, ctx| m.commit(ctx, &self.paths[path]),
            )
            .is_ok();
        if accepted {
            self.accepted[chain * self.parties + voter] = true;
            self.published.push(PublishedVote { chain, voter, path });
        }
        accepted
    }

    /// `forwarder` forwards published vote `i` from its source chain to each
    /// of the forwarder's incoming-asset chains that has not accepted the
    /// voter yet. Returns true if some chain refused the forward.
    fn forward(
        &mut self,
        d: &mut DealDriver<'_>,
        info: &TimelockDealInfo,
        forwarder: &PartyPlan,
        key: &KeyPair,
        i: usize,
    ) -> bool {
        let plan = d.plan;
        let seen = self.published[i];
        if !forwarder
            .outgoing_chains
            .contains(&plan.chains()[seen.chain])
        {
            return false;
        }
        // The forwarded signature does not depend on the target chain, so it
        // is built at most once per look at a vote, and not at all when
        // every target already accepted the voter.
        let mut forwarded: Option<usize> = None;
        let mut refused = false;
        for &target in &forwarder.incoming_chains {
            let t = plan
                .chain_index(target)
                .expect("a party's chains are the plan's");
            if t == seen.chain || self.accepted[t * self.parties + seen.voter] {
                continue;
            }
            let path = *forwarded.get_or_insert_with(|| {
                let source = &self.paths[seen.path];
                let fwd = source.forwarded_by(forwarder.id, key, &info.vote_message(source.voter));
                self.paths.push(fwd);
                self.paths.len() - 1
            });
            refused |= !self.submit(d, forwarder.id, t, seen.voter, path);
        }
        refused
    }
}

/// Where a party's forwarding stands: the votes it has yet to look at start
/// at `cursor` in the published list, and `retry` lists, in publication
/// order, the votes below the cursor that some chain refused.
#[derive(Clone, Default)]
struct Forwarder {
    cursor: usize,
    retry: Vec<usize>,
}

/// The timelock protocol driver behind [`crate::Protocol::Timelock`]:
/// clearing installs the escrow contracts, the shared phases run on the
/// [`DealDriver`], and the commit step votes, forwards and times out.
pub(crate) fn drive(
    world: &mut World,
    plan: &DealPlan,
    configs: &[PartyConfig],
    opts: &TimelockOptions,
) -> Result<EngineRun, DealError> {
    let spec: &DealSpec = plan.spec();
    let mut d = DealDriver::new(world, plan, configs)?;

    // Clearing: broadcast (D, plist, t0, ∆) and install the escrow contract
    // on every involved chain. t0 must be far enough in the future for
    // escrow, transfers and validation to complete (Section 5: "The choice
    // of t0 should be far enough in the future to take into account the time
    // needed to perform the deal's tentative transfers").
    let info = d.phase(Phase::Clearing, |d| {
        let info = Arc::new(TimelockDealInfo {
            deal: spec.deal,
            plist: spec.parties.clone(),
            t0: d.world.now() + opts.delta.times(spec.n_transfers() as u64 + 6),
            delta: opts.delta,
        });
        d.install_everywhere(|| TimelockManager::new(Arc::clone(&info)))
            .map(|()| info)
    })?;

    d.shared_phases::<TimelockManager>(&info, opts.concurrent_transfers)?;

    // Commit: direct votes at t0, then forwarding rounds, then timeout.
    d.world.advance_to(info.t0);
    d.phase(Phase::Commit, |d| commit(d, &info, opts))?;

    let validated = d.verdicts();
    Ok(d.finish(
        ProtocolKind::Timelock,
        opts.delta,
        |m: &TimelockManager| m.resolution().into(),
        ProtocolExt::Timelock { validated },
    ))
}

/// The commit step: direct votes, forwarding rounds, and the timeout refund.
fn commit(
    d: &mut DealDriver<'_>,
    info: &TimelockDealInfo,
    opts: &TimelockOptions,
) -> Result<(), DealError> {
    let plan = d.plan;
    let mut votes = Votes::new(plan);

    // Direct votes: each willing party votes on its incoming-asset chains
    // (or on every chain when broadcasting altruistically).
    for (voter, pp) in plan.parties().iter().enumerate() {
        let p = pp.id;
        if !d.decide(p, Phase::Commit, |s, ctx| s.on_vote(ctx) == Vote::Commit) {
            continue;
        }
        let target_chains: &[ChainId] = if opts.altruistic_broadcast {
            plan.chains()
        } else {
            &pp.incoming_chains
        };
        let key = *d.world.key_pair(p).map_err(DealError::Chain)?;
        let path = votes.paths.len();
        votes
            .paths
            .push(PathSignature::direct(p, &key, &info.vote_message(p)));
        for &chain in target_chains {
            let c = plan
                .chain_index(chain)
                .expect("a party's chains are the plan's");
            votes.submit(d, p, c, voter, path);
        }
    }

    // Forwarding rounds: each round, every willing party forwards the votes it
    // observes on its outgoing-asset chains to its incoming-asset chains.
    // Strong connectivity guarantees every vote reaches every contract within
    // n rounds; each round costs at most ∆.
    //
    // A party looks at each published vote once: in a round where it
    // forwards, it first retries the votes some chain refused, then looks at
    // the votes published since its cursor and moves the cursor past them.
    // A vote that left its retry list can never make another call (its
    // targets are its source chain or chains that accepted the voter, and
    // acceptance is permanent), so every round makes the same calls, in the
    // same order, as a rescan of every published vote would.
    let mut forwarders = vec![Forwarder::default(); plan.parties().len()];
    for _round in 0..plan.spec().n_parties() {
        if d.all_resolved::<TimelockManager>() {
            break;
        }
        advance_one_observation(d.world);
        // Votes observable this round are exactly the prefix published before
        // the round began: the observation step above moves the clock at
        // least one tick past each of them, and the votes pushed below join
        // the prefix next round.
        let visible = votes.published.len();
        for (pp, f) in plan.parties().iter().zip(&mut forwarders) {
            let p = pp.id;
            if !d.decide(p, Phase::Commit, |s, ctx| s.on_forward(ctx)) {
                continue;
            }
            let key = *d.world.key_pair(p).map_err(DealError::Chain)?;
            // Retried votes precede the cursor and stay in publication
            // order, so retries then fresh votes is publication order.
            f.retry.retain(|&i| votes.forward(d, info, pp, &key, i));
            let fresh = f.cursor..visible;
            f.retry
                .extend(fresh.filter(|&i| votes.forward(d, info, pp, &key, i)));
            f.cursor = visible;
        }
    }

    // Timeout: refund any unresolved escrow once t0 + N·∆ has passed.
    if !d.all_resolved::<TimelockManager>() {
        d.world.advance_to(info.refund_time() + Duration(1));
        for (c, &chain) in plan.chains().iter().enumerate() {
            if d.resolved::<TimelockManager>(c) != Some(false) {
                continue;
            }
            if let Some(caller) = d.online_party() {
                let _ = d.call(chain, caller, |m: &mut TimelockManager, ctx| {
                    m.claim_timeout(ctx)
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::broker_spec;
    use crate::deal::{Deal, DealRun};
    use crate::engine::Protocol;
    use crate::strategy::strategies;
    use xchain_sim::asset::Asset;
    use xchain_sim::ids::Owner;
    use xchain_sim::network::NetworkModel;

    fn run_broker(
        configs: &[PartyConfig],
        opts: &TimelockOptions,
        seed: u64,
    ) -> (DealRun, DealSpec) {
        let spec = broker_spec();
        let run = Deal::new(spec.clone())
            .network(NetworkModel::synchronous(opts.delta.ticks()))
            .parties(configs)
            .seed(seed)
            .run(Protocol::Timelock(*opts))
            .unwrap();
        (run, spec)
    }

    #[test]
    fn all_compliant_broker_deal_commits_everywhere() {
        let (run, spec) = run_broker(&[], &TimelockOptions::default(), 1);
        assert!(run.outcome.committed_everywhere());
        // Carol ends with the tickets, Bob with 100 coins, Alice with 1 coin.
        let alice = spec.parties[0];
        let bob = spec.parties[1];
        let carol = spec.parties[2];
        assert!(run
            .world
            .holdings(Owner::Party(carol))
            .contains(&Asset::non_fungible("ticket", [1, 2])));
        assert_eq!(
            run.world
                .holdings(Owner::Party(bob))
                .balance(&"coin".into()),
            100
        );
        assert_eq!(
            run.world
                .holdings(Owner::Party(alice))
                .balance(&"coin".into()),
            1
        );
    }

    #[test]
    fn withheld_vote_times_out_and_refunds() {
        let configs = vec![PartyConfig::with_strategy(
            PartyId(2),
            strategies::withhold_vote(),
        )];
        let (run, spec) = run_broker(&configs, &TimelockOptions::default(), 2);
        assert!(run.outcome.aborted_everywhere());
        let bob = spec.parties[1];
        let carol = spec.parties[2];
        // Original owners got their escrows back.
        assert!(run
            .world
            .holdings(Owner::Party(bob))
            .contains(&Asset::non_fungible("ticket", [1, 2])));
        assert_eq!(
            run.world
                .holdings(Owner::Party(carol))
                .balance(&"coin".into()),
            101
        );
    }

    #[test]
    fn crash_before_escrow_leaves_no_compliant_party_worse_off() {
        let configs = vec![PartyConfig::with_strategy(
            PartyId(1),
            strategies::refuse_escrow(),
        )];
        let (run, spec) = run_broker(&configs, &TimelockOptions::default(), 3);
        // Bob never escrowed his tickets, so validation fails for Carol/Alice
        // and the deal aborts everywhere.
        assert!(!run.outcome.committed_everywhere());
        assert!(run.outcome.fully_resolved());
        let carol = spec.parties[2];
        assert_eq!(
            run.world
                .holdings(Owner::Party(carol))
                .balance(&"coin".into()),
            101
        );
    }

    #[test]
    fn altruistic_broadcast_still_commits() {
        let opts = TimelockOptions {
            altruistic_broadcast: true,
            ..TimelockOptions::default()
        };
        let (run, _) = run_broker(&[], &opts, 4);
        assert!(run.outcome.committed_everywhere());
        // Broadcast should not need forwarding rounds: commit duration is a
        // small constant number of ∆.
        let commit = run.outcome.metrics.duration(Phase::Commit);
        assert!(commit.in_units_of(run.outcome.delta) <= 2.0 + 1e-9);
    }

    #[test]
    fn metrics_capture_gas_and_time_per_phase() {
        let (run, spec) = run_broker(&[], &TimelockOptions::default(), 5);
        let m = &run.outcome.metrics;
        // Escrow: 4 writes per escrowed asset (Figure 3).
        assert_eq!(
            m.gas(Phase::Escrow).storage_writes,
            4 * spec.n_assets() as u64
        );
        // Transfer: 2 writes per tentative transfer.
        assert_eq!(
            m.gas(Phase::Transfer).storage_writes,
            2 * spec.n_transfers() as u64
        );
        // Validation costs no gas.
        assert_eq!(m.gas(Phase::Validation).total(), 0);
        // Commit performs signature verifications.
        assert!(m.gas(Phase::Commit).sig_verifications > 0);
        assert!(m.duration(Phase::Commit) > Duration(0));
    }

    #[test]
    fn validated_map_is_carried_in_the_extension() {
        let (run, spec) = run_broker(&[], &TimelockOptions::default(), 6);
        let validated = run.ext.validated().unwrap();
        assert!(spec.parties.iter().all(|p| validated[p]));
    }

    #[test]
    fn deterministic_given_seed() {
        let (run_a, _) = run_broker(&[], &TimelockOptions::default(), 9);
        let (run_b, _) = run_broker(&[], &TimelockOptions::default(), 9);
        assert_eq!(
            run_a.outcome.metrics.total_gas(),
            run_b.outcome.metrics.total_gas()
        );
        assert_eq!(
            run_a.outcome.metrics.total_duration(),
            run_b.outcome.metrics.total_duration()
        );
    }
}
