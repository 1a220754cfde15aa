//! The escrow state both commit protocols share: the paper's Section 4
//! escrow/transfer semantics.
//!
//! Escrow "plays the role of classical concurrency control, ensuring that a
//! single asset cannot be transferred to different parties at the same time":
//! the contract itself becomes the asset's owner for the duration of the deal.
//! The deal's tentative state is captured by two maps:
//!
//! * the **A map** (abort): who gets each escrowed asset back if the deal
//!   aborts — always the original owner;
//! * the **C map** (commit): who receives each asset if the deal commits —
//!   initially the original owner, updated by tentative transfers.
//!
//! Both commit protocols (timelock and CBC) embed an [`EscrowCore`] and add
//! their own resolution rules on top.

use std::collections::BTreeMap;

use xchain_sim::asset::{Asset, AssetBag};
use xchain_sim::contract::{CallCtx, Contract};
use xchain_sim::error::ChainResult;
use xchain_sim::ids::{DealId, PartyId};
use xchain_sim::ledger::EventTag;

/// How an escrow ultimately resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EscrowResolution {
    /// The deal committed here: the C map was paid out.
    Committed,
    /// The deal aborted here: the A map (original owners) was refunded.
    Aborted,
}

/// The escrow state shared by both commit protocols.
///
/// The A map (deposits) holds [`Asset`]s and the C map (tentative commit
/// ownership) holds one [`AssetBag`] per party, both keyed on the kind
/// names the deal specification shares. Readers get the A map from
/// [`EscrowCore::deposits_iter`] and compare the C map with
/// [`EscrowCore::on_commit_covers`].
///
/// The participant list is not stored here: the manager that embeds the
/// core already holds it in its deal information, and passes it to
/// [`EscrowCore::escrow`] and [`EscrowCore::transfer`], so a deal's plist is
/// not copied once more per chain.
#[derive(Debug, Clone)]
pub struct EscrowCore {
    deal: DealId,
    /// A map: deposits, refunded to their original owners on abort.
    deposits: Vec<(PartyId, Asset)>,
    /// C map: what each party receives if the deal commits at this chain.
    on_commit: BTreeMap<PartyId, AssetBag>,
    resolution: Option<EscrowResolution>,
}

impl EscrowCore {
    /// Creates the escrow state for a deal.
    pub fn new(deal: DealId) -> Self {
        EscrowCore {
            deal,
            deposits: Vec::new(),
            on_commit: BTreeMap::new(),
            resolution: None,
        }
    }

    /// The deal this escrow belongs to.
    pub fn deal(&self) -> DealId {
        self.deal
    }

    /// How the escrow resolved, if it has.
    pub fn resolution(&self) -> Option<EscrowResolution> {
        self.resolution
    }

    /// True if the escrow has neither committed nor aborted yet.
    pub fn is_active(&self) -> bool {
        self.resolution.is_none()
    }

    /// Borrowing iterator over the A map: `(original owner, deposit)` pairs
    /// in deposit order, with no allocation.
    pub fn deposits_iter(&self) -> impl Iterator<Item = (PartyId, &Asset)> {
        self.deposits.iter().map(|(owner, asset)| (*owner, asset))
    }

    /// True if `party`'s C-map entry covers at least `expected` — the
    /// validation check: compares the bags in place, so per-party validation
    /// never allocates a bag.
    pub fn on_commit_covers(&self, party: PartyId, expected: &AssetBag) -> bool {
        match self.on_commit.get(&party) {
            Some(bag) => bag.covers(expected),
            None => expected.is_empty(),
        }
    }

    /// Escrow precondition + postcondition of Section 4:
    /// `Pre: Owns(P, a)` — enforced by the deposit transfer;
    /// `Post: Owns(D, a) ∧ OwnsC(P, a) ∧ OwnsA(P, a)`. The caller must be
    /// in `plist`, the deal's participant list.
    ///
    /// Gas: 2 storage writes for the deposit transfer plus 1 each for the A
    /// and C map updates — the 4 writes of Figure 3's `escrow`.
    pub fn escrow(
        &mut self,
        ctx: &mut CallCtx<'_>,
        plist: &[PartyId],
        asset: Asset,
    ) -> ChainResult<()> {
        let caller = ctx.caller_party()?;
        ctx.require(self.is_active(), "deal already resolved")?;
        ctx.require(plist.contains(&caller), "caller not in plist")?;
        ctx.require(!asset.is_empty(), "cannot escrow an empty asset")?;
        // Pre: Owns(P, a): the deposit fails if the caller does not own it.
        ctx.deposit_from_caller(&asset)?;
        let magnitude = asset.magnitude();
        // A map entry (1 write) + C map entry (1 write).
        ctx.charge_storage_write();
        ctx.charge_storage_write();
        self.on_commit.entry(caller).or_default().add(&asset);
        self.deposits.push((caller, asset));
        ctx.emit(EventTag::Escrow, [self.deal.0, caller.0 as u64, magnitude]);
        Ok(())
    }

    /// Tentative transfer of Section 4:
    /// `Pre: Owns(D, a) ∧ OwnsC(P, a)`; `Post: OwnsC(Q, a)`. Sender and
    /// recipient must both be in `plist`.
    ///
    /// Gas: 2 storage writes (decrement sender's C entry, increment the
    /// recipient's — Figure 3 lines 15–16).
    pub fn transfer(
        &mut self,
        ctx: &mut CallCtx<'_>,
        plist: &[PartyId],
        asset: &Asset,
        to: PartyId,
    ) -> ChainResult<()> {
        let caller = ctx.caller_party()?;
        ctx.require(self.is_active(), "deal already resolved")?;
        ctx.require(plist.contains(&caller), "caller not in plist")?;
        ctx.require(plist.contains(&to), "recipient not in plist")?;
        let sender_bag = self.on_commit.entry(caller).or_default();
        ctx.require(
            sender_bag.contains(asset),
            "caller does not tentatively own the asset",
        )?;
        ctx.charge_storage_write();
        let removed = self
            .on_commit
            .get_mut(&caller)
            .map(|b| b.remove(asset))
            .unwrap_or(false);
        debug_assert!(removed, "contains() checked above");
        ctx.charge_storage_write();
        self.on_commit.entry(to).or_default().add(asset);
        ctx.emit(
            EventTag::TentativeTransfer,
            [self.deal.0, caller.0 as u64, to.0 as u64, asset.magnitude()],
        );
        Ok(())
    }

    /// Pays the C map out to its owners and marks the escrow committed.
    /// Called by the protocol-specific managers once their commit condition
    /// holds. One storage write records the outcome, plus the payout writes.
    pub fn distribute_commit(&mut self, ctx: &mut CallCtx<'_>) -> ChainResult<()> {
        ctx.require(self.is_active(), "deal already resolved")?;
        ctx.charge_storage_write();
        self.resolution = Some(EscrowResolution::Committed);
        for (party, bag) in &self.on_commit {
            for (kind, amount) in bag.fungible_holdings() {
                if amount == 0 {
                    continue;
                }
                ctx.pay_out_fungible((*party).into(), kind, amount)?;
            }
            for (kind, tokens) in bag.non_fungible_holdings() {
                if tokens.is_empty() {
                    continue;
                }
                ctx.pay_out_tokens((*party).into(), kind, tokens)?;
            }
        }
        ctx.emit(EventTag::EscrowCommitted, [self.deal.0]);
        Ok(())
    }

    /// Refunds every deposit to its original owner and marks the escrow
    /// aborted.
    pub fn distribute_abort(&mut self, ctx: &mut CallCtx<'_>) -> ChainResult<()> {
        ctx.require(self.is_active(), "deal already resolved")?;
        ctx.charge_storage_write();
        self.resolution = Some(EscrowResolution::Aborted);
        for (owner, asset) in self.deposits_iter() {
            ctx.pay_out(owner.into(), asset)?;
        }
        ctx.emit(EventTag::EscrowAborted, [self.deal.0]);
        Ok(())
    }
}

/// A deal's escrow contract: an [`EscrowCore`] plus the deal information its
/// parties check at validation, implemented by both commit protocols'
/// managers ([`crate::TimelockManager`], [`crate::CbcManager`]). The deal
/// engines run the shared escrow, tentative-transfer and validation phases
/// and read resolutions through this trait, generic over the protocol. A
/// manager supplies its deal information and its escrow state; the shared
/// entry points are written once, here.
pub trait DealEscrow: Contract {
    /// The deal information the contract is configured with (`Dinfo`).
    type Info: PartialEq;

    /// The deal information this contract was configured with (parties check
    /// it during validation).
    fn info(&self) -> &Self::Info;

    /// Read access to the escrow state.
    fn core(&self) -> &EscrowCore;

    /// The escrow state to update and the deal's participant list, borrowed
    /// together.
    fn parts(&mut self) -> (&mut EscrowCore, &[PartyId]);

    /// How the escrow resolved, if it has.
    fn resolution(&self) -> Option<EscrowResolution> {
        self.core().resolution()
    }

    /// Escrow phase: escrows an asset (see [`EscrowCore::escrow`]).
    fn escrow(&mut self, ctx: &mut CallCtx<'_>, asset: Asset) -> ChainResult<()> {
        let (core, plist) = self.parts();
        core.escrow(ctx, plist, asset)
    }

    /// Transfer phase: tentatively transfers an escrowed asset (see
    /// [`EscrowCore::transfer`]).
    fn transfer(&mut self, ctx: &mut CallCtx<'_>, asset: &Asset, to: PartyId) -> ChainResult<()> {
        let (core, plist) = self.parts();
        core.transfer(ctx, plist, asset, to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::any::Any;
    use xchain_sim::error::ChainError;
    use xchain_sim::ids::{ChainId, Owner};
    use xchain_sim::ledger::Blockchain;
    use xchain_sim::time::{Duration, Time};

    /// A bare escrow manager: the Section 4 escrow/transfer semantics plus
    /// explicit commit/abort, with no commit protocol of its own (the
    /// timelock and CBC managers wrap [`EscrowCore`] with one).
    #[derive(Debug, Clone)]
    struct EscrowManager {
        core: EscrowCore,
        plist: Vec<PartyId>,
    }

    impl EscrowManager {
        fn new(deal: DealId, plist: Vec<PartyId>) -> Self {
            EscrowManager {
                core: EscrowCore::new(deal),
                plist,
            }
        }

        fn core(&self) -> &EscrowCore {
            &self.core
        }

        fn escrow(&mut self, ctx: &mut CallCtx<'_>, asset: Asset) -> ChainResult<()> {
            self.core.escrow(ctx, &self.plist, asset)
        }

        fn transfer(
            &mut self,
            ctx: &mut CallCtx<'_>,
            asset: &Asset,
            to: PartyId,
        ) -> ChainResult<()> {
            self.core.transfer(ctx, &self.plist, asset, to)
        }

        fn force_commit(&mut self, ctx: &mut CallCtx<'_>) -> ChainResult<()> {
            self.core.distribute_commit(ctx)
        }

        fn force_abort(&mut self, ctx: &mut CallCtx<'_>) -> ChainResult<()> {
            self.core.distribute_abort(ctx)
        }
    }

    impl Contract for EscrowManager {
        fn type_name(&self) -> &'static str {
            "escrow-manager"
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn setup() -> (
        Blockchain,
        xchain_sim::ids::ContractId,
        PartyId,
        PartyId,
        PartyId,
    ) {
        let mut chain = Blockchain::new(ChainId(0), "tickets", Duration(1));
        let bob = PartyId(1);
        let alice = PartyId(0);
        let carol = PartyId(2);
        let tickets = Asset::non_fungible("ticket", [1, 2]);
        let coins = Asset::fungible("coin", 101);
        chain.mint(Owner::Party(bob), &tickets).unwrap();
        chain.mint(Owner::Party(carol), &coins).unwrap();
        let id = chain.install(EscrowManager::new(DealId(7), vec![alice, bob, carol]));
        (chain, id, alice, bob, carol)
    }

    #[test]
    fn escrow_requires_ownership_and_membership() {
        let (mut chain, id, _alice, bob, _carol) = setup();
        let tickets = Asset::non_fungible("ticket", [1, 2]);
        let one_coin = Asset::fungible("coin", 1);
        let ticket_1 = Asset::non_fungible("ticket", [1]);
        // Bob escrows his tickets: ok.
        chain
            .call(
                Time(0),
                Owner::Party(bob),
                id,
                |m: &mut EscrowManager, ctx| m.escrow(ctx, tickets),
            )
            .unwrap();
        // Escrow contract now owns the tickets.
        assert!(chain
            .holdings(Owner::Contract(id))
            .contains(&Asset::non_fungible("ticket", [1, 2])));
        // A stranger cannot escrow.
        let err = chain
            .call(
                Time(0),
                Owner::Party(PartyId(9)),
                id,
                |m: &mut EscrowManager, ctx| m.escrow(ctx, one_coin),
            )
            .unwrap_err();
        assert!(matches!(err, ChainError::Require(_)));
        // Bob cannot escrow tickets he no longer owns.
        let err = chain
            .call(
                Time(0),
                Owner::Party(bob),
                id,
                |m: &mut EscrowManager, ctx| m.escrow(ctx, ticket_1),
            )
            .unwrap_err();
        assert!(matches!(err, ChainError::NotTokenOwner { .. }));
    }

    #[test]
    fn escrow_costs_four_writes_and_transfer_two() {
        // Figure 3: escrow = 4 storage writes, tentative transfer = 2.
        let (mut chain, id, alice, bob, _carol) = setup();
        let tickets = Asset::non_fungible("ticket", [1, 2]);
        let before = chain.gas_usage();
        chain
            .call(
                Time(0),
                Owner::Party(bob),
                id,
                |m: &mut EscrowManager, ctx| m.escrow(ctx, tickets.clone()),
            )
            .unwrap();
        let after_escrow = chain.gas_usage();
        assert_eq!(before.delta_to(&after_escrow).storage_writes, 4);

        chain
            .call(
                Time(0),
                Owner::Party(bob),
                id,
                |m: &mut EscrowManager, ctx| m.transfer(ctx, &tickets, alice),
            )
            .unwrap();
        let after_transfer = chain.gas_usage();
        assert_eq!(after_escrow.delta_to(&after_transfer).storage_writes, 2);
    }

    #[test]
    fn tentative_transfers_update_c_map_only() {
        let (mut chain, id, alice, bob, carol) = setup();
        let tickets = Asset::non_fungible("ticket", [1, 2]);
        chain
            .call(
                Time(0),
                Owner::Party(bob),
                id,
                |m: &mut EscrowManager, ctx| m.escrow(ctx, tickets.clone()),
            )
            .unwrap();
        chain
            .call(
                Time(0),
                Owner::Party(bob),
                id,
                |m: &mut EscrowManager, ctx| m.transfer(ctx, &tickets, alice),
            )
            .unwrap();
        chain
            .call(
                Time(0),
                Owner::Party(alice),
                id,
                |m: &mut EscrowManager, ctx| m.transfer(ctx, &tickets, carol),
            )
            .unwrap();
        let mut all_tickets = AssetBag::new();
        all_tickets.add(&tickets);
        let (bob_c, carol_c) = chain
            .view(id, |m: &EscrowManager| {
                (
                    m.core().on_commit.get(&bob).cloned(),
                    m.core().on_commit.get(&carol).cloned(),
                )
            })
            .unwrap();
        assert!(bob_c.is_none_or(|b| b.is_empty()));
        assert_eq!(carol_c, Some(all_tickets));
        // The chain-level owner is still the contract until resolution.
        assert!(chain
            .holdings(Owner::Contract(id))
            .contains(&Asset::non_fungible("ticket", [1, 2])));
    }

    #[test]
    fn cannot_transfer_what_you_do_not_tentatively_own() {
        let (mut chain, id, alice, bob, carol) = setup();
        let coins = Asset::fungible("coin", 101);
        let fifty = Asset::fungible("coin", 50);
        let too_many = Asset::fungible("coin", 102);
        chain
            .call(
                Time(0),
                Owner::Party(carol),
                id,
                |m: &mut EscrowManager, ctx| m.escrow(ctx, coins),
            )
            .unwrap();
        // Bob has escrowed nothing here; he cannot move Carol's coins.
        let err = chain
            .call(
                Time(0),
                Owner::Party(bob),
                id,
                |m: &mut EscrowManager, ctx| m.transfer(ctx, &fifty, alice),
            )
            .unwrap_err();
        assert!(matches!(err, ChainError::Require(_)));
        // Carol cannot over-transfer either.
        let err = chain
            .call(
                Time(0),
                Owner::Party(carol),
                id,
                |m: &mut EscrowManager, ctx| m.transfer(ctx, &too_many, alice),
            )
            .unwrap_err();
        assert!(matches!(err, ChainError::Require(_)));
    }

    #[test]
    fn commit_pays_c_map_and_abort_refunds_a_map() {
        // Commit path.
        let (mut chain, id, alice, bob, carol) = setup();
        let coins = Asset::fungible("coin", 101);
        let hundred = Asset::fungible("coin", 100);
        chain
            .call(
                Time(0),
                Owner::Party(carol),
                id,
                |m: &mut EscrowManager, ctx| m.escrow(ctx, coins.clone()),
            )
            .unwrap();
        chain
            .call(
                Time(0),
                Owner::Party(carol),
                id,
                |m: &mut EscrowManager, ctx| m.transfer(ctx, &coins, alice),
            )
            .unwrap();
        chain
            .call(
                Time(0),
                Owner::Party(alice),
                id,
                |m: &mut EscrowManager, ctx| m.transfer(ctx, &hundred, bob),
            )
            .unwrap();
        chain
            .call(
                Time(1),
                Owner::Party(alice),
                id,
                |m: &mut EscrowManager, ctx| m.force_commit(ctx),
            )
            .unwrap();
        assert_eq!(
            chain.assets().balance(Owner::Party(bob), &"coin".into()),
            100
        );
        assert_eq!(
            chain.assets().balance(Owner::Party(alice), &"coin".into()),
            1
        );
        assert_eq!(
            chain.assets().balance(Owner::Party(carol), &"coin".into()),
            0
        );

        // Abort path on a fresh chain.
        let (mut chain, id, alice, _bob, carol) = setup();
        let coins = Asset::fungible("coin", 101);
        chain
            .call(
                Time(0),
                Owner::Party(carol),
                id,
                |m: &mut EscrowManager, ctx| m.escrow(ctx, coins.clone()),
            )
            .unwrap();
        chain
            .call(
                Time(0),
                Owner::Party(carol),
                id,
                |m: &mut EscrowManager, ctx| m.transfer(ctx, &coins, alice),
            )
            .unwrap();
        chain
            .call(
                Time(1),
                Owner::Party(carol),
                id,
                |m: &mut EscrowManager, ctx| m.force_abort(ctx),
            )
            .unwrap();
        // Despite the tentative transfer, the abort refunds the original owner.
        assert_eq!(
            chain.assets().balance(Owner::Party(carol), &"coin".into()),
            101
        );
        assert_eq!(
            chain.assets().balance(Owner::Party(alice), &"coin".into()),
            0
        );
    }

    #[test]
    fn resolution_is_terminal() {
        let (mut chain, id, _alice, bob, _carol) = setup();
        let ticket_1 = Asset::non_fungible("ticket", [1]);
        let ticket_2 = Asset::non_fungible("ticket", [2]);
        chain
            .call(
                Time(0),
                Owner::Party(bob),
                id,
                |m: &mut EscrowManager, ctx| m.escrow(ctx, ticket_1),
            )
            .unwrap();
        chain
            .call(
                Time(1),
                Owner::Party(bob),
                id,
                |m: &mut EscrowManager, ctx| m.force_abort(ctx),
            )
            .unwrap();
        // No further escrow, transfer, or second resolution.
        for result in [
            chain.call(
                Time(2),
                Owner::Party(bob),
                id,
                |m: &mut EscrowManager, ctx| m.escrow(ctx, ticket_2),
            ),
            chain.call(
                Time(2),
                Owner::Party(bob),
                id,
                |m: &mut EscrowManager, ctx| m.force_commit(ctx),
            ),
            chain.call(
                Time(2),
                Owner::Party(bob),
                id,
                |m: &mut EscrowManager, ctx| m.force_abort(ctx),
            ),
        ] {
            assert!(matches!(result, Err(ChainError::Require(_))));
        }
        assert_eq!(
            chain
                .view(id, |m: &EscrowManager| m.core().resolution())
                .unwrap(),
            Some(EscrowResolution::Aborted)
        );
    }

    #[test]
    fn deposits_iter_borrows_and_on_commit_covers_compares_interned() {
        let (mut chain, id, alice, _bob, carol) = setup();
        let coins = Asset::fungible("coin", 101);
        let sixty = Asset::fungible("coin", 60);
        chain
            .call(
                Time(0),
                Owner::Party(carol),
                id,
                |m: &mut EscrowManager, ctx| m.escrow(ctx, coins),
            )
            .unwrap();
        chain
            .call(
                Time(0),
                Owner::Party(carol),
                id,
                |m: &mut EscrowManager, ctx| m.transfer(ctx, &sixty, alice),
            )
            .unwrap();
        chain
            .view(id, |m: &EscrowManager| {
                // The borrowing iterator yields the A map directly.
                let deposits: Vec<_> = m.core().deposits_iter().collect();
                assert_eq!(deposits.len(), 1);
                assert_eq!(deposits[0].0, carol);
                assert_eq!(deposits[0].1, &Asset::fungible("coin", 101));
                // The C map is compared bag to bag.
                let mut expected = AssetBag::new();
                expected.add(&Asset::fungible("coin", 60));
                assert!(m.core().on_commit_covers(alice, &expected));
                expected.add(&Asset::fungible("coin", 1));
                assert!(!m.core().on_commit_covers(alice, &expected));
                // A party with no C-map entry covers only the empty bag.
                assert!(m.core().on_commit_covers(PartyId(9), &AssetBag::new()));
                assert!(!m.core().on_commit_covers(PartyId(9), &expected));
            })
            .unwrap();
    }

    #[test]
    fn empty_escrow_rejected() {
        let (mut chain, id, _alice, bob, _carol) = setup();
        let nothing = Asset::fungible("coin", 0);
        let err = chain
            .call(
                Time(0),
                Owner::Party(bob),
                id,
                |m: &mut EscrowManager, ctx| m.escrow(ctx, nothing),
            )
            .unwrap_err();
        assert!(matches!(err, ChainError::Require(_)));
    }
}
