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

use std::collections::{BTreeMap, BTreeSet};

use xchain_contracts::escrow::DealEscrow;
use xchain_contracts::timelock::{TimelockDealInfo, TimelockManager};
use xchain_sim::crypto::PathSignature;
use xchain_sim::ids::{ChainId, Owner, PartyId};
use xchain_sim::time::{Duration, Time};
use xchain_sim::world::World;

use crate::driver::DealDriver;
use crate::engine::{EngineRun, ProtocolExt};
use crate::error::DealError;
use crate::outcome::ProtocolKind;
use crate::party::PartyConfig;
use crate::phases::Phase;
use crate::plan::DealPlan;
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
/// can observe and forward it.
#[derive(Debug, Clone)]
struct PublishedVote {
    chain: ChainId,
    voter: PartyId,
    path: PathSignature,
    published_at: Time,
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
        let info = TimelockDealInfo {
            deal: spec.deal,
            plist: spec.parties.clone(),
            t0: d.world.now() + opts.delta.times(spec.n_transfers() as u64 + 6),
            delta: opts.delta,
        };
        d.install_everywhere(|| TimelockManager::new(info.clone()))
            .map(|()| info)
    })?;

    let validated = d.shared_phases::<TimelockManager>(&info, opts.concurrent_transfers)?;

    // Commit: direct votes at t0, then forwarding rounds, then timeout.
    d.world.advance_to(info.t0);
    d.phase(Phase::Commit, |d| commit(d, &info, &validated, opts))?;

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
    validated: &BTreeMap<PartyId, bool>,
    opts: &TimelockOptions,
) -> Result<(), DealError> {
    let plan = d.plan;
    let mut published: Vec<PublishedVote> = Vec::new();

    // Direct votes: each willing party votes on its incoming-asset chains
    // (or on every chain when broadcasting altruistically).
    for pp in plan.parties() {
        let p = pp.id;
        let verdict = validated.get(&p).copied().unwrap_or(false);
        let votes_commit = d.decide(p, Phase::Commit, Some(verdict), |s, ctx| {
            s.is_online(ctx.now) && s.on_vote(ctx) == Vote::Commit
        });
        if !votes_commit {
            continue;
        }
        let target_chains: &[ChainId] = if opts.altruistic_broadcast {
            plan.chains()
        } else {
            &pp.incoming_chains
        };
        let message = info.vote_message(p);
        let key = d.world.key_pair(p).map_err(DealError::Chain)?.clone();
        let vote = PathSignature::direct(p, &key, &message);
        for &chain in target_chains {
            let result = d.world.call(
                chain,
                Owner::Party(p),
                d.contracts[&chain],
                |m: &mut TimelockManager, ctx| m.commit(ctx, &vote),
            );
            if result.is_ok() {
                published.push(PublishedVote {
                    chain,
                    voter: p,
                    path: vote.clone(),
                    published_at: d.world.now(),
                });
            }
        }
    }

    // Forwarding rounds: each round, every willing party forwards the votes it
    // observes on its outgoing-asset chains to its incoming-asset chains.
    // Strong connectivity guarantees every vote reaches every contract within
    // n rounds; each round costs at most ∆. `accepted` mirrors the contracts'
    // acceptance state exactly (every vote in `published` was an `Ok` commit),
    // so the duplicate check never re-reads a contract.
    let mut accepted: BTreeSet<(ChainId, PartyId)> =
        published.iter().map(|v| (v.chain, v.voter)).collect();
    for _round in 0..plan.spec().n_parties() {
        if d.all_resolved::<TimelockManager>() {
            break;
        }
        advance_one_observation(d.world);
        // Votes observable this round are exactly those published in earlier
        // rounds: everything pushed below carries `published_at == now` and
        // fails the `< round_now` filter, so a prefix index replaces the
        // cloned snapshot of every path signature.
        let visible = published.len();
        for pp in plan.parties() {
            let p = pp.id;
            let verdict = validated.get(&p).copied().unwrap_or(false);
            let forwards = d.decide(p, Phase::Commit, Some(verdict), |s, ctx| {
                s.is_online(ctx.now) && s.on_forward(ctx)
            });
            if !forwards {
                continue;
            }
            let key = d.world.key_pair(p).map_err(DealError::Chain)?.clone();
            let round_now = d.world.now();
            let observable: Vec<usize> = (0..visible)
                .filter(|&i| {
                    let v = &published[i];
                    pp.outgoing_chains.contains(&v.chain) && v.published_at < round_now
                })
                .collect();
            for i in observable {
                let voter = published[i].voter;
                let from_chain = published[i].chain;
                // The forwarded signature does not depend on the target
                // chain, so it is built at most once per observed vote — and
                // not at all when every target already accepted the voter
                // (the common case once a vote has circulated).
                let mut forwarded: Option<PathSignature> = None;
                for &target in &pp.incoming_chains {
                    // Skip the source chain and targets that already accepted
                    // this voter.
                    if target == from_chain || accepted.contains(&(target, voter)) {
                        continue;
                    }
                    let fwd = forwarded.get_or_insert_with(|| {
                        published[i]
                            .path
                            .forwarded_by(p, &key, &info.vote_message(voter))
                    });
                    let result = d.world.call(
                        target,
                        Owner::Party(p),
                        d.contracts[&target],
                        |m: &mut TimelockManager, ctx| m.commit(ctx, fwd),
                    );
                    if result.is_ok() {
                        accepted.insert((target, voter));
                        published.push(PublishedVote {
                            chain: target,
                            voter,
                            path: fwd.clone(),
                            published_at: d.world.now(),
                        });
                    }
                }
            }
        }
    }

    // Timeout: refund any unresolved escrow once t0 + N·∆ has passed.
    if !d.all_resolved::<TimelockManager>() {
        d.world.advance_to(info.refund_time() + Duration(1));
        for &chain in plan.chains() {
            if d.resolved::<TimelockManager>(chain) != Some(false) {
                continue;
            }
            if let Some(caller) = d.online_party() {
                let _ = d.world.call(
                    chain,
                    Owner::Party(caller),
                    d.contracts[&chain],
                    |m: &mut TimelockManager, ctx| m.claim_timeout(ctx),
                );
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
    use crate::party::Deviation;
    use xchain_sim::asset::Asset;
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
        let configs = vec![PartyConfig::deviating(PartyId(2), Deviation::WithholdVote)];
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
        let configs = vec![PartyConfig::deviating(PartyId(1), Deviation::RefuseEscrow)];
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
