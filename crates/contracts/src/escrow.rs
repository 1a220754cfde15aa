//! The generic escrow manager: the paper's Section 4 escrow/transfer semantics.
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

use std::any::Any;
use std::collections::BTreeMap;

use xchain_sim::asset::{Asset, AssetBag};
use xchain_sim::contract::{CallCtx, Contract};
use xchain_sim::error::ChainResult;
use xchain_sim::ids::{DealId, PartyId};
use xchain_sim::intern::{InternedAsset, InternedBag, KindTable};
use xchain_sim::ledger::EventTag;

/// How an escrow ultimately resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EscrowResolution {
    /// The deal committed here: the C map was paid out.
    Committed,
    /// The deal aborted here: the A map (original owners) was refunded.
    Aborted,
}

/// One escrow deposit: the A-map entry for an asset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EscrowDeposit {
    /// The party that escrowed the asset (refund target on abort).
    pub original_owner: PartyId,
    /// The escrowed asset.
    pub asset: Asset,
}

/// The escrow state shared by both commit protocols.
///
/// Internally, both the A map (deposits) and the C map (tentative commit
/// ownership) are kept in interned form ([`InternedAsset`] / [`InternedBag`]):
/// kind names are resolved to `Copy` [`xchain_sim::intern::KindId`]s once at
/// deposit time, so the per-call escrow/transfer/release paths never clone a
/// `String`. The name-keyed views ([`EscrowCore::deposits`],
/// [`EscrowCore::on_commit_of`], …) resolve ids back through the chain's
/// [`KindTable`], which the contract receives at install time.
#[derive(Debug, Clone)]
pub struct EscrowCore {
    deal: DealId,
    plist: Vec<PartyId>,
    /// The hosting chain's kind table (set on install; empty until then).
    kinds: KindTable,
    /// A map: deposits, refunded to their original owners on abort.
    deposits: Vec<(PartyId, InternedAsset)>,
    /// C map: what each party receives if the deal commits at this chain.
    on_commit: BTreeMap<PartyId, InternedBag>,
    resolution: Option<EscrowResolution>,
}

impl EscrowCore {
    /// Creates the escrow state for a deal with the given participant list.
    pub fn new(deal: DealId, plist: Vec<PartyId>) -> Self {
        EscrowCore {
            deal,
            plist,
            kinds: KindTable::new(),
            deposits: Vec::new(),
            on_commit: BTreeMap::new(),
            resolution: None,
        }
    }

    /// Adopts the hosting chain's kind table. The escrow managers forward
    /// [`Contract::on_install`] here.
    pub fn install(&mut self, kinds: &KindTable) {
        self.kinds = kinds.clone();
    }

    /// The deal this escrow belongs to.
    pub fn deal(&self) -> DealId {
        self.deal
    }

    /// The participant list.
    pub fn plist(&self) -> &[PartyId] {
        &self.plist
    }

    /// True if `p` participates in the deal.
    pub fn is_participant(&self, p: PartyId) -> bool {
        self.plist.contains(&p)
    }

    /// How the escrow resolved, if it has.
    pub fn resolution(&self) -> Option<EscrowResolution> {
        self.resolution
    }

    /// True if the escrow has neither committed nor aborted yet.
    pub fn is_active(&self) -> bool {
        self.resolution.is_none()
    }

    /// All deposits made so far (the A map), resolved to named assets.
    /// Materializes one `EscrowDeposit` (and its resolved kind name) per
    /// entry — a reporting convenience; hot paths use
    /// [`EscrowCore::deposits_iter`] instead.
    pub fn deposits(&self) -> Vec<EscrowDeposit> {
        self.deposits_iter()
            .map(|(owner, asset)| EscrowDeposit {
                original_owner: owner,
                asset: asset.resolve(&self.kinds),
            })
            .collect()
    }

    /// Borrowing iterator over the A map: `(original owner, interned
    /// deposit)` pairs in deposit order, with no resolution and no
    /// allocation. This is the engine-facing view of the deposits.
    pub fn deposits_iter(&self) -> impl Iterator<Item = (PartyId, &InternedAsset)> {
        self.deposits.iter().map(|(owner, asset)| (*owner, asset))
    }

    /// What `party` would receive if the deal committed now (the C map),
    /// resolved to named assets.
    pub fn on_commit_of(&self, party: PartyId) -> AssetBag {
        self.on_commit
            .get(&party)
            .map(|b| b.resolve(&self.kinds))
            .unwrap_or_default()
    }

    /// True if `party`'s C-map entry covers at least `expected` — the
    /// validation fast path: compares interned bags directly, so per-party
    /// validation never resolves a kind name or allocates a bag.
    pub fn on_commit_covers(&self, party: PartyId, expected: &InternedBag) -> bool {
        match self.on_commit.get(&party) {
            Some(bag) => bag.covers(expected),
            None => expected.is_empty(),
        }
    }

    /// Everything currently held in escrow, summed across deposits.
    pub fn total_escrowed(&self) -> AssetBag {
        let mut bag = AssetBag::new();
        for (_, asset) in self.deposits_iter() {
            bag.add(&asset.resolve(&self.kinds));
        }
        bag
    }

    /// Escrow precondition + postcondition of Section 4:
    /// `Pre: Owns(P, a)` — enforced by the deposit transfer;
    /// `Post: Owns(D, a) ∧ OwnsC(P, a) ∧ OwnsA(P, a)`.
    ///
    /// The asset arrives interned against the hosting chain's kind table
    /// (the engines intern once per deal, at planning time), so escrow entry
    /// touches no `String`.
    ///
    /// Gas: 2 storage writes for the deposit transfer plus 1 each for the A
    /// and C map updates — the 4 writes of Figure 3's `escrow`.
    pub fn escrow(&mut self, ctx: &mut CallCtx<'_>, asset: InternedAsset) -> ChainResult<()> {
        let caller = ctx.caller_party()?;
        ctx.require(self.is_active(), "deal already resolved")?;
        ctx.require(self.is_participant(caller), "caller not in plist")?;
        ctx.require(!asset.is_empty(), "cannot escrow an empty asset")?;
        // Pre: Owns(P, a): the deposit fails if the caller does not own it.
        ctx.deposit_interned_from_caller(&asset)?;
        let magnitude = asset.magnitude();
        // A map entry (1 write) + C map entry (1 write). Both maps are
        // recorded before the emit below can fail (out of gas), so an abort
        // can always refund exactly what was deposited.
        ctx.charge_storage_write()?;
        ctx.charge_storage_write()?;
        self.on_commit.entry(caller).or_default().add(&asset);
        self.deposits.push((caller, asset));
        ctx.emit(
            EventTag::Escrow,
            vec![self.deal.0, caller.0 as u64, magnitude],
        )?;
        Ok(())
    }

    /// Tentative transfer of Section 4:
    /// `Pre: Owns(D, a) ∧ OwnsC(P, a)`; `Post: OwnsC(Q, a)`.
    ///
    /// Gas: 2 storage writes (decrement sender's C entry, increment the
    /// recipient's — Figure 3 lines 15–16).
    pub fn transfer(
        &mut self,
        ctx: &mut CallCtx<'_>,
        asset: &InternedAsset,
        to: PartyId,
    ) -> ChainResult<()> {
        let caller = ctx.caller_party()?;
        ctx.require(self.is_active(), "deal already resolved")?;
        ctx.require(self.is_participant(caller), "caller not in plist")?;
        ctx.require(self.is_participant(to), "recipient not in plist")?;
        let sender_bag = self.on_commit.entry(caller).or_default();
        ctx.require(
            sender_bag.contains(asset),
            "caller does not tentatively own the asset",
        )?;
        ctx.charge_storage_write()?;
        let removed = self
            .on_commit
            .get_mut(&caller)
            .map(|b| b.remove(asset))
            .unwrap_or(false);
        debug_assert!(removed, "contains() checked above");
        ctx.charge_storage_write()?;
        self.on_commit.entry(to).or_default().add(asset);
        ctx.emit(
            EventTag::TentativeTransfer,
            vec![self.deal.0, caller.0 as u64, to.0 as u64, asset.magnitude()],
        )?;
        Ok(())
    }

    /// Pays the C map out to its owners and marks the escrow committed.
    /// Called by the protocol-specific managers once their commit condition
    /// holds. One storage write records the outcome, plus the payout writes.
    /// The whole release path works on interned kinds — no `String` is
    /// cloned, looked up, or constructed here.
    pub fn distribute_commit(&mut self, ctx: &mut CallCtx<'_>) -> ChainResult<()> {
        ctx.require(self.is_active(), "deal already resolved")?;
        ctx.charge_storage_write()?;
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
        ctx.emit(EventTag::EscrowCommitted, vec![self.deal.0])?;
        Ok(())
    }

    /// Refunds every deposit to its original owner and marks the escrow
    /// aborted. Like the commit path, refunds are paid out of the interned A
    /// map without touching kind names.
    pub fn distribute_abort(&mut self, ctx: &mut CallCtx<'_>) -> ChainResult<()> {
        ctx.require(self.is_active(), "deal already resolved")?;
        ctx.charge_storage_write()?;
        self.resolution = Some(EscrowResolution::Aborted);
        for (owner, asset) in self.deposits_iter() {
            ctx.pay_out_interned(owner.into(), asset)?;
        }
        ctx.emit(EventTag::EscrowAborted, vec![self.deal.0])?;
        Ok(())
    }
}

/// A deal's escrow contract: an [`EscrowCore`] plus the deal information its
/// parties check at validation, implemented by both commit protocols'
/// managers ([`crate::TimelockManager`], [`crate::CbcManager`]). The deal
/// engines run the shared escrow, tentative-transfer and validation phases
/// and read resolutions through this trait, generic over the protocol.
pub trait DealEscrow: Contract {
    /// The deal information the contract is configured with (`Dinfo`).
    type Info: PartialEq;

    /// The deal information this contract was configured with (parties check
    /// it during validation).
    fn info(&self) -> &Self::Info;

    /// Read access to the escrow state.
    fn core(&self) -> &EscrowCore;

    /// How the escrow resolved, if it has.
    fn resolution(&self) -> Option<EscrowResolution>;

    /// Escrow phase: escrows an interned asset (see [`EscrowCore::escrow`]).
    fn escrow(&mut self, ctx: &mut CallCtx<'_>, asset: InternedAsset) -> ChainResult<()>;

    /// Transfer phase: tentatively transfers an escrowed, interned asset (see
    /// [`EscrowCore::transfer`]).
    fn transfer(
        &mut self,
        ctx: &mut CallCtx<'_>,
        asset: &InternedAsset,
        to: PartyId,
    ) -> ChainResult<()>;
}

/// A bare escrow manager exposing only the Section 4 escrow/transfer
/// semantics plus explicit commit/abort. It has no commit *protocol* of its
/// own — the timelock and CBC managers wrap [`EscrowCore`] with one — but it
/// is useful on its own for unit tests, for the Figure 3 gas measurements and
/// as the building block of the swap baseline.
#[derive(Debug, Clone)]
pub struct EscrowManager {
    core: EscrowCore,
}

impl EscrowManager {
    /// Creates an escrow manager for a deal.
    pub fn new(deal: DealId, plist: Vec<PartyId>) -> Self {
        EscrowManager {
            core: EscrowCore::new(deal, plist),
        }
    }

    /// Read access to the shared escrow state.
    pub fn core(&self) -> &EscrowCore {
        &self.core
    }

    /// Escrows an interned asset (see [`EscrowCore::escrow`]).
    pub fn escrow(&mut self, ctx: &mut CallCtx<'_>, asset: InternedAsset) -> ChainResult<()> {
        self.core.escrow(ctx, asset)
    }

    /// Tentatively transfers an escrowed, interned asset (see
    /// [`EscrowCore::transfer`]).
    pub fn transfer(
        &mut self,
        ctx: &mut CallCtx<'_>,
        asset: &InternedAsset,
        to: PartyId,
    ) -> ChainResult<()> {
        self.core.transfer(ctx, asset, to)
    }

    /// Commits unconditionally (test/measurement hook).
    pub fn force_commit(&mut self, ctx: &mut CallCtx<'_>) -> ChainResult<()> {
        self.core.distribute_commit(ctx)
    }

    /// Aborts unconditionally (test/measurement hook).
    pub fn force_abort(&mut self, ctx: &mut CallCtx<'_>) -> ChainResult<()> {
        self.core.distribute_abort(ctx)
    }
}

impl Contract for EscrowManager {
    fn type_name(&self) -> &'static str {
        "escrow-manager"
    }
    fn on_install(&mut self, kinds: &KindTable) {
        self.core.install(kinds);
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
    use xchain_sim::error::ChainError;
    use xchain_sim::ids::{ChainId, Owner};
    use xchain_sim::ledger::Blockchain;
    use xchain_sim::time::{Duration, Time};

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
        chain
            .mint(Owner::Party(bob), &Asset::non_fungible("ticket", [1, 2]))
            .unwrap();
        chain
            .mint(Owner::Party(carol), &Asset::fungible("coin", 101))
            .unwrap();
        let id = chain.install(EscrowManager::new(DealId(7), vec![alice, bob, carol]));
        (chain, id, alice, bob, carol)
    }

    #[test]
    fn escrow_requires_ownership_and_membership() {
        let (mut chain, id, _alice, bob, _carol) = setup();
        let tickets = chain
            .assets()
            .intern_asset(&Asset::non_fungible("ticket", [1, 2]));
        let one_coin = chain.assets().intern_asset(&Asset::fungible("coin", 1));
        let ticket_1 = chain
            .assets()
            .intern_asset(&Asset::non_fungible("ticket", [1]));
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
            .assets()
            .holds(Owner::Contract(id), &Asset::non_fungible("ticket", [1, 2])));
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
        let tickets = chain
            .assets()
            .intern_asset(&Asset::non_fungible("ticket", [1, 2]));
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
        let tickets = chain
            .assets()
            .intern_asset(&Asset::non_fungible("ticket", [1, 2]));
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
        let (bob_c, carol_c) = chain
            .view(id, |m: &EscrowManager| {
                (m.core().on_commit_of(bob), m.core().on_commit_of(carol))
            })
            .unwrap();
        assert!(bob_c.is_empty());
        assert!(carol_c.contains(&Asset::non_fungible("ticket", [1, 2])));
        // The chain-level owner is still the contract until resolution.
        assert!(chain
            .assets()
            .holds(Owner::Contract(id), &Asset::non_fungible("ticket", [1, 2])));
    }

    #[test]
    fn cannot_transfer_what_you_do_not_tentatively_own() {
        let (mut chain, id, alice, bob, carol) = setup();
        let coins = chain.assets().intern_asset(&Asset::fungible("coin", 101));
        let fifty = chain.assets().intern_asset(&Asset::fungible("coin", 50));
        let too_many = chain.assets().intern_asset(&Asset::fungible("coin", 102));
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
        let coins = chain.assets().intern_asset(&Asset::fungible("coin", 101));
        let hundred = chain.assets().intern_asset(&Asset::fungible("coin", 100));
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
        let coins = chain.assets().intern_asset(&Asset::fungible("coin", 101));
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
        let ticket_1 = chain
            .assets()
            .intern_asset(&Asset::non_fungible("ticket", [1]));
        let ticket_2 = chain
            .assets()
            .intern_asset(&Asset::non_fungible("ticket", [2]));
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
        let coins = chain.assets().intern_asset(&Asset::fungible("coin", 101));
        let sixty = chain.assets().intern_asset(&Asset::fungible("coin", 60));
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
        let kinds = chain.kinds().clone();
        chain
            .view(id, |m: &EscrowManager| {
                // The borrowing iterator yields the interned A map directly.
                let deposits: Vec<_> = m.core().deposits_iter().collect();
                assert_eq!(deposits.len(), 1);
                assert_eq!(deposits[0].0, carol);
                assert_eq!(deposits[0].1.resolve(&kinds), Asset::fungible("coin", 101));
                // … and matches the materialized reporting view.
                let resolved = m.core().deposits();
                assert_eq!(resolved[0].original_owner, carol);
                assert_eq!(resolved[0].asset, Asset::fungible("coin", 101));

                // Interned coverage check mirrors the resolved C map.
                let mut expected = InternedBag::new();
                expected.add(&kinds.intern_asset(&Asset::fungible("coin", 60)));
                assert!(m.core().on_commit_covers(alice, &expected));
                expected.add(&kinds.intern_asset(&Asset::fungible("coin", 1)));
                assert!(!m.core().on_commit_covers(alice, &expected));
                // A party with no C-map entry covers only the empty bag.
                assert!(m.core().on_commit_covers(PartyId(9), &InternedBag::new()));
                assert!(!m.core().on_commit_covers(PartyId(9), &expected));
            })
            .unwrap();
    }

    #[test]
    fn empty_escrow_rejected() {
        let (mut chain, id, _alice, bob, _carol) = setup();
        let nothing = chain.assets().intern_asset(&Asset::fungible("coin", 0));
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
