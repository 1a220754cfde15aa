//! The timelock escrow manager (Section 5, Figure 5).
//!
//! Escrowed assets are released when the contract has accepted a commit vote
//! from *every* party in the deal. Parties do not vote to abort; instead,
//! path-length-dependent timeouts guarantee that assets are not locked up
//! forever. A vote from party `X` arriving with path signature `p` is accepted
//! only if it arrives within `|p| · ∆` of the commit-phase start `t0`; if some
//! vote is still missing at `t0 + N · ∆` (N = number of parties) the contract
//! refunds the escrowed assets to their original owners.

use std::any::Any;
use std::collections::BTreeSet;
use std::sync::Arc;

use xchain_sim::contract::{CallCtx, Contract};
use xchain_sim::crypto::{hash_words, PathSignature};
use xchain_sim::error::ChainResult;
use xchain_sim::ids::{DealId, PartyId};
use xchain_sim::ledger::EventTag;
use xchain_sim::time::{Duration, Time};

use crate::escrow::{DealEscrow, EscrowCore};

/// Deal information broadcast by the market-clearing service and checked by
/// every escrow contract in the timelock protocol: `Dinfo` in the paper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelockDealInfo {
    /// The deal identifier `D`.
    pub deal: DealId,
    /// The participating parties.
    pub plist: Vec<PartyId>,
    /// Commit-phase starting time `t0`, used only to compute timeouts.
    pub t0: Time,
    /// The synchrony bound `∆`.
    pub delta: Duration,
}

impl TimelockDealInfo {
    /// The canonical vote message for voter `v` in this deal: what every
    /// signature in a path signature must attest to. A fixed-size array —
    /// it is built on every vote submission, forward, and verification, so
    /// it must not allocate.
    pub fn vote_message(&self, voter: PartyId) -> [u64; 3] {
        [0xC0717u64, self.deal.0, voter.0 as u64]
    }

    /// The final timeout `t0 + N · ∆` after which a refund is allowed.
    pub fn refund_time(&self) -> Time {
        self.t0 + self.delta.times(self.plist.len() as u64)
    }
}

/// The timelock escrow manager contract.
#[derive(Debug, Clone)]
pub struct TimelockManager {
    core: EscrowCore,
    /// Shared with the deal's other chains: one copy per deal, not per chain.
    info: Arc<TimelockDealInfo>,
    voted: BTreeSet<PartyId>,
    /// How many distinct parties the plist names: every vote is in plist and
    /// none is a duplicate, so all have voted once `voted` holds this many.
    parties: usize,
}

impl TimelockManager {
    /// Creates the manager for one deal on one asset chain. The engines
    /// pass one `Arc` to every chain of the deal; a plain
    /// [`TimelockDealInfo`] is wrapped.
    pub fn new(info: impl Into<Arc<TimelockDealInfo>>) -> Self {
        let info = info.into();
        let plist = &info.plist;
        let parties = (0..plist.len())
            .filter(|&i| !plist[..i].contains(&plist[i]))
            .count();
        TimelockManager {
            core: EscrowCore::new(info.deal),
            info,
            voted: BTreeSet::new(),
            parties,
        }
    }

    /// True if a vote from every party has been accepted.
    pub fn all_voted(&self) -> bool {
        self.voted.len() == self.parties
    }

    /// Commit phase: `commit(D, v, p)` — accept a (possibly forwarded) commit
    /// vote, following Figure 5:
    ///
    /// 1. not timed out: `now < t0 + |p| · ∆`;
    /// 2. the voter is a legitimate participant;
    /// 3. no duplicate vote from this voter;
    /// 4. no duplicate signers on the path, and every signer is in the plist;
    /// 5. every signature on the path verifies and attests to a vote from the
    ///    voter (the expensive step: one 3000-gas verification per signer);
    /// 6. record the voter (storage write).
    ///
    /// When votes from all parties have been accepted, the escrowed assets are
    /// released to their C-map owners.
    pub fn commit(&mut self, ctx: &mut CallCtx<'_>, vote: &PathSignature) -> ChainResult<()> {
        ctx.require(self.core.is_active(), "deal already resolved")?;
        // Figure 5 line 6: require(now < start + path.length() * DELTA)
        let deadline = self.info.t0 + self.info.delta.times(vote.len() as u64);
        ctx.require(
            ctx.now() < deadline,
            "commit vote arrived after its path timeout",
        )?;
        // line 7: legit voters only
        ctx.require(self.info.plist.contains(&vote.voter), "voter not in plist")?;
        // line 8: no duplicate votes
        ctx.require(!self.voted.contains(&vote.voter), "duplicate vote")?;
        // line 9: no duplicate signers; signers must be participants
        ctx.require(vote.signers_unique(), "duplicate signers on path")?;
        ctx.require(!vote.is_empty(), "empty signature path")?;
        ctx.require(
            vote.signers().all(|s| self.info.plist.contains(&s)),
            "path signer not in plist",
        )?;
        // The path must start with the voter's own signature: otherwise the
        // "vote" was fabricated by forwarders without the voter ever signing.
        ctx.require(
            vote.path.first().map(|(p, _)| *p) == Some(vote.voter),
            "path does not start with the voter's signature",
        )?;
        // lines 10-12: verify each signature (expensive); every signature
        // attests to the same message, so it is hashed once
        let digest = hash_words(&self.info.vote_message(vote.voter));
        for (signer, sig) in &vote.path {
            let Some(pk) = ctx.keys().public_key_of(*signer) else {
                return ctx.require(false, "unknown signer key").map(|_| ());
            };
            let ok = ctx.verify_signature(sig, pk, digest);
            ctx.require(ok, "invalid signature on vote path")?;
        }
        // line 13: remember who voted
        ctx.charge_storage_write();
        self.voted.insert(vote.voter);
        ctx.emit(
            EventTag::CommitVote,
            [self.info.deal.0, vote.voter.0 as u64, vote.len() as u64],
        );
        // Release once every party's vote has been accepted.
        if self.all_voted() {
            self.core.distribute_commit(ctx)?;
        }
        Ok(())
    }

    /// Refund path: anyone may trigger the timeout once `t0 + N · ∆` has
    /// passed without a full set of votes; escrowed assets revert to their
    /// original owners. (In the paper the contract "times out"; on gas-metered
    /// chains someone must submit the transaction that runs the refund.)
    pub fn claim_timeout(&mut self, ctx: &mut CallCtx<'_>) -> ChainResult<()> {
        ctx.require(self.core.is_active(), "deal already resolved")?;
        ctx.require(
            ctx.now() >= self.info.refund_time(),
            "deal has not timed out yet",
        )?;
        ctx.require(!self.all_voted(), "all votes accepted; deal committed")?;
        self.core.distribute_abort(ctx)?;
        Ok(())
    }
}

impl DealEscrow for TimelockManager {
    type Info = TimelockDealInfo;

    fn info(&self) -> &TimelockDealInfo {
        &self.info
    }

    fn core(&self) -> &EscrowCore {
        &self.core
    }

    fn parts(&mut self) -> (&mut EscrowCore, &[PartyId]) {
        (&mut self.core, &self.info.plist)
    }
}

impl Contract for TimelockManager {
    fn type_name(&self) -> &'static str {
        "timelock-manager"
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::escrow::EscrowResolution;
    use xchain_sim::asset::Asset;
    use xchain_sim::crypto::KeyPair;
    use xchain_sim::error::ChainError;
    use xchain_sim::ids::{ChainId, ContractId, Owner};
    use xchain_sim::ledger::Blockchain;

    const DELTA: u64 = 100;
    const T0: u64 = 1_000;

    struct Fixture {
        chain: Blockchain,
        contract: ContractId,
        info: TimelockDealInfo,
        keys: Vec<KeyPair>,
    }

    fn fixture() -> Fixture {
        let mut chain = Blockchain::new(ChainId(0), "tickets", Duration(1));
        let parties: Vec<PartyId> = (0..3).map(PartyId).collect();
        let keys: Vec<KeyPair> = parties
            .iter()
            .map(|p| {
                let kp = KeyPair::derive(*p, 77);
                chain.register_key(*p, &kp);
                kp
            })
            .collect();
        let tickets = Asset::non_fungible("ticket", [1, 2]);
        chain.mint(Owner::Party(parties[1]), &tickets).unwrap();
        let info = TimelockDealInfo {
            deal: DealId(7),
            plist: parties,
            t0: Time(T0),
            delta: Duration(DELTA),
        };
        let contract = chain.install(TimelockManager::new(info.clone()));
        Fixture {
            chain,
            contract,
            info,
            keys,
        }
    }

    fn escrow_and_transfer_to_carol(fx: &mut Fixture) {
        let bob = fx.info.plist[1];
        let alice = fx.info.plist[0];
        let carol = fx.info.plist[2];
        let tickets = Asset::non_fungible("ticket", [1, 2]);
        fx.chain
            .call(
                Time(0),
                Owner::Party(bob),
                fx.contract,
                |m: &mut TimelockManager, ctx| m.escrow(ctx, tickets.clone()),
            )
            .unwrap();
        fx.chain
            .call(
                Time(1),
                Owner::Party(bob),
                fx.contract,
                |m: &mut TimelockManager, ctx| m.transfer(ctx, &tickets, alice),
            )
            .unwrap();
        fx.chain
            .call(
                Time(2),
                Owner::Party(alice),
                fx.contract,
                |m: &mut TimelockManager, ctx| m.transfer(ctx, &tickets, carol),
            )
            .unwrap();
    }

    fn direct_vote(fx: &Fixture, voter_idx: usize) -> PathSignature {
        let voter = fx.info.plist[voter_idx];
        PathSignature::direct(voter, &fx.keys[voter_idx], &fx.info.vote_message(voter))
    }

    #[test]
    fn all_votes_release_assets_to_c_map_owners() {
        let mut fx = fixture();
        escrow_and_transfer_to_carol(&mut fx);
        let carol = fx.info.plist[2];
        for i in 0..3 {
            let vote = direct_vote(&fx, i);
            fx.chain
                .call(
                    Time(T0 + 10 + i as u64),
                    Owner::Party(fx.info.plist[i]),
                    fx.contract,
                    |m: &mut TimelockManager, ctx| m.commit(ctx, &vote),
                )
                .unwrap();
        }
        assert!(fx
            .chain
            .holdings(Owner::Party(carol))
            .contains(&Asset::non_fungible("ticket", [1, 2])));
        assert_eq!(
            fx.chain
                .view(fx.contract, |m: &TimelockManager| m.resolution())
                .unwrap(),
            Some(EscrowResolution::Committed)
        );
    }

    #[test]
    fn a_party_named_twice_in_the_plist_votes_once() {
        let mut fx = fixture();
        let (alice, bob) = (fx.info.plist[0], fx.info.plist[1]);
        let info = TimelockDealInfo {
            plist: vec![alice, bob, alice],
            ..fx.info.clone()
        };
        let contract = fx.chain.install(TimelockManager::new(info.clone()));
        let all_voted = |chain: &Blockchain| {
            chain
                .view(contract, |m: &TimelockManager| m.all_voted())
                .unwrap()
        };
        for (i, voter) in [alice, bob].into_iter().enumerate() {
            assert!(!all_voted(&fx.chain));
            let vote = PathSignature::direct(voter, &fx.keys[i], &info.vote_message(voter));
            fx.chain
                .call(
                    Time(T0 + 10),
                    Owner::Party(voter),
                    contract,
                    |m: &mut TimelockManager, ctx| m.commit(ctx, &vote),
                )
                .unwrap();
        }
        assert!(all_voted(&fx.chain));
    }

    #[test]
    fn direct_vote_must_arrive_within_one_delta() {
        let mut fx = fixture();
        escrow_and_transfer_to_carol(&mut fx);
        let vote = direct_vote(&fx, 0);
        let err = fx
            .chain
            .call(
                Time(T0 + DELTA), // exactly at the deadline: too late (strict <)
                Owner::Party(fx.info.plist[0]),
                fx.contract,
                |m: &mut TimelockManager, ctx| m.commit(ctx, &vote),
            )
            .unwrap_err();
        assert!(matches!(err, ChainError::Require(_)));
    }

    #[test]
    fn forwarded_vote_gets_extra_delta_per_hop() {
        let mut fx = fixture();
        escrow_and_transfer_to_carol(&mut fx);
        let bob = fx.info.plist[1];
        let carol = fx.info.plist[2];
        let msg = fx.info.vote_message(bob);
        // Bob's vote forwarded by Carol: |p| = 2, deadline t0 + 2∆.
        let vote =
            PathSignature::direct(bob, &fx.keys[1], &msg).forwarded_by(carol, &fx.keys[2], &msg);
        fx.chain
            .call(
                Time(T0 + DELTA + 10),
                Owner::Party(carol),
                fx.contract,
                |m: &mut TimelockManager, ctx| m.commit(ctx, &vote),
            )
            .unwrap();
        // But a three-hop forward after 3∆ is too late.
        let alice = fx.info.plist[0];
        let msg_a = fx.info.vote_message(alice);
        let vote3 = PathSignature::direct(alice, &fx.keys[0], &msg_a)
            .forwarded_by(bob, &fx.keys[1], &msg_a)
            .forwarded_by(carol, &fx.keys[2], &msg_a);
        let err = fx
            .chain
            .call(
                Time(T0 + 3 * DELTA),
                Owner::Party(carol),
                fx.contract,
                |m: &mut TimelockManager, ctx| m.commit(ctx, &vote3),
            )
            .unwrap_err();
        assert!(matches!(err, ChainError::Require(_)));
    }

    #[test]
    fn forged_or_malformed_votes_rejected() {
        let mut fx = fixture();
        escrow_and_transfer_to_carol(&mut fx);
        let alice = fx.info.plist[0];
        let bob = fx.info.plist[1];
        let msg_bob = fx.info.vote_message(bob);

        // Alice signs a "vote from Bob" without Bob's signature: rejected.
        let forged = PathSignature {
            voter: bob,
            path: vec![(alice, fx.keys[0].sign_words(&msg_bob))],
        };
        let err = fx
            .chain
            .call(
                Time(T0 + 10),
                Owner::Party(alice),
                fx.contract,
                |m: &mut TimelockManager, ctx| m.commit(ctx, &forged),
            )
            .unwrap_err();
        assert!(matches!(err, ChainError::Require(_)));

        // A signature over the wrong message is rejected.
        let wrong_msg = PathSignature {
            voter: bob,
            path: vec![(bob, fx.keys[1].sign_words(&[1, 2, 3]))],
        };
        let err = fx
            .chain
            .call(
                Time(T0 + 10),
                Owner::Party(bob),
                fx.contract,
                |m: &mut TimelockManager, ctx| m.commit(ctx, &wrong_msg),
            )
            .unwrap_err();
        assert!(matches!(err, ChainError::Require(_)));

        // A non-participant voter is rejected.
        let outsider = PartyId(9);
        let kp9 = KeyPair::derive(outsider, 77);
        let v = PathSignature::direct(outsider, &kp9, &fx.info.vote_message(outsider));
        let err = fx
            .chain
            .call(
                Time(T0 + 10),
                Owner::Party(bob),
                fx.contract,
                |m: &mut TimelockManager, ctx| m.commit(ctx, &v),
            )
            .unwrap_err();
        assert!(matches!(err, ChainError::Require(_)));
    }

    #[test]
    fn duplicate_votes_rejected() {
        let mut fx = fixture();
        escrow_and_transfer_to_carol(&mut fx);
        let vote = direct_vote(&fx, 0);
        fx.chain
            .call(
                Time(T0 + 5),
                Owner::Party(fx.info.plist[0]),
                fx.contract,
                |m: &mut TimelockManager, ctx| m.commit(ctx, &vote),
            )
            .unwrap();
        let err = fx
            .chain
            .call(
                Time(T0 + 6),
                Owner::Party(fx.info.plist[0]),
                fx.contract,
                |m: &mut TimelockManager, ctx| m.commit(ctx, &vote),
            )
            .unwrap_err();
        assert!(matches!(err, ChainError::Require(_)));
    }

    #[test]
    fn timeout_refunds_original_owner() {
        let mut fx = fixture();
        escrow_and_transfer_to_carol(&mut fx);
        let bob = fx.info.plist[1];
        // Only Alice votes; Bob and Carol never do.
        let vote = direct_vote(&fx, 0);
        fx.chain
            .call(
                Time(T0 + 5),
                Owner::Party(fx.info.plist[0]),
                fx.contract,
                |m: &mut TimelockManager, ctx| m.commit(ctx, &vote),
            )
            .unwrap();
        // Too early to refund.
        let err = fx
            .chain
            .call(
                Time(T0 + 2 * DELTA),
                Owner::Party(bob),
                fx.contract,
                |m: &mut TimelockManager, ctx| m.claim_timeout(ctx),
            )
            .unwrap_err();
        assert!(matches!(err, ChainError::Require(_)));
        // After t0 + N*delta the refund goes through, back to Bob.
        fx.chain
            .call(
                Time(T0 + 3 * DELTA),
                Owner::Party(bob),
                fx.contract,
                |m: &mut TimelockManager, ctx| m.claim_timeout(ctx),
            )
            .unwrap();
        assert!(fx
            .chain
            .holdings(Owner::Party(bob))
            .contains(&Asset::non_fungible("ticket", [1, 2])));
        assert_eq!(
            fx.chain
                .view(fx.contract, |m: &TimelockManager| m.resolution())
                .unwrap(),
            Some(EscrowResolution::Aborted)
        );
    }

    #[test]
    fn commit_gas_is_dominated_by_path_signature_verifications() {
        let mut fx = fixture();
        escrow_and_transfer_to_carol(&mut fx);
        let bob = fx.info.plist[1];
        let carol = fx.info.plist[2];
        let msg = fx.info.vote_message(bob);
        let vote =
            PathSignature::direct(bob, &fx.keys[1], &msg).forwarded_by(carol, &fx.keys[2], &msg);
        let before = fx.chain.gas_usage();
        fx.chain
            .call(
                Time(T0 + 50),
                Owner::Party(carol),
                fx.contract,
                |m: &mut TimelockManager, ctx| m.commit(ctx, &vote),
            )
            .unwrap();
        let delta = before.delta_to(&fx.chain.gas_usage());
        assert_eq!(delta.sig_verifications, 2); // one per signer on the path
        assert_eq!(delta.storage_writes, 1); // remember who voted
    }
}
