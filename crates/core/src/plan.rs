//! Pre-resolved deal plans: the compile-once layer between a [`DealSpec`]
//! and the protocol engines.
//!
//! A [`DealSpec`] is the *human-facing* description of a deal: asset kinds
//! are names, per-party chain sets are derived on demand, and the tentative
//! transfer order is recomputed by whoever asks. That is the right shape for
//! authoring deals, but the wrong shape for executing them — PR 2 interned
//! the simulator's ledger so per-transaction paths work on `Copy`
//! [`KindId`]s, yet every engine still crossed the spec boundary with
//! `String`-kinded [`Asset`]s (escrow entry, tentative transfers, validation)
//! and re-derived `incoming_chains_of`/`outgoing_chains_of` (allocating,
//! sorting Vecs) at every commit round.
//!
//! A [`DealPlan`] resolves all of that **exactly once per deal**, in one
//! pass that is also the whole of [`DealSpec::validate`]:
//!
//! * the structural checks run first (parties distinct and non-empty, every
//!   escrow and transfer between listed parties, no empty asset);
//! * every escrow and transfer asset is then interned into the plan's
//!   canonical [`KindTable`], under one lock and sharing the spec's kind
//!   names, while each fungible kind's total volume is checked against
//!   `u64` — the engines hand the resulting [`InternedAsset`]s straight to
//!   the contracts' escrow and transfer entry points, so after planning
//!   **no kind is looked up by name anywhere on the deal hot path**; the
//!   only names a deal touches are the holdings snapshots taken before and
//!   after it, which resolve ids back to kinds by index and share each
//!   name (`Arc<str>`) instead of copying it;
//! * the tentative [`transfer order`] is computed once, on [`InternedBag`]s;
//! * per-party tables ([`PartyPlan`]) come from one scan of the planned
//!   transfers: the incoming/outgoing chain sets (the timelock vote and
//!   forwarding targets) and the per-chain *expected net incoming*
//!   [`InternedBag`]s that validation compares against the escrow C map via
//!   [`EscrowCore::on_commit_covers`].
//!
//! The name-keyed [`DealSpec::transfer_order`],
//! [`DealSpec::incoming_chains_of`]/[`DealSpec::outgoing_chains_of`] and
//! [`crate::validation::expected_on_chain`] remain as the references tests
//! compare a plan against.
//!
//! Kind-id validity is by construction: [`crate::setup::world_for_plan`]
//! builds each world from a [`KindTable::fork`] of the plan's table, so every
//! id the plan assigned resolves identically on all of that world's chains.
//! One plan can therefore be shared (it is `Send + Sync`) across many worlds
//! — the sweep executor in `xchain-harness` resolves one plan per
//! specification and reuses it for every cell (seed × network × adversary ×
//! engine) that runs that spec, and `Deal::run_in` resolves the plan against
//! the *caller's* world table instead, so caller-owned worlds keep working.
//!
//! [`transfer order`]: DealPlan::transfer_order
//! [`EscrowCore::on_commit_covers`]: xchain_contracts::escrow::EscrowCore::on_commit_covers
//! [`KindId`]: xchain_sim::intern::KindId
//! [`Asset`]: xchain_sim::asset::Asset

use std::sync::Arc;

use xchain_sim::asset::{Asset, AssetKind};
use xchain_sim::ids::{ChainId, PartyId};
use xchain_sim::intern::{InternedAsset, InternedBag, Interner, KindId, KindTable};

use crate::error::DealError;
use crate::spec::DealSpec;

/// One escrow obligation with its asset pre-interned (parallel to
/// [`DealSpec::escrows`]).
#[derive(Debug, Clone)]
pub struct PlannedEscrow {
    /// The original owner of the asset.
    pub owner: PartyId,
    /// The chain the asset lives on.
    pub chain: ChainId,
    /// The asset to escrow, interned against the plan's kind table.
    pub asset: InternedAsset,
}

/// One matrix entry with its asset pre-interned (parallel to
/// [`DealSpec::transfers`]).
#[derive(Debug, Clone)]
pub struct PlannedTransfer {
    /// The sending party.
    pub from: PartyId,
    /// The receiving party.
    pub to: PartyId,
    /// The chain the asset lives on.
    pub chain: ChainId,
    /// The asset to transfer, interned against the plan's kind table.
    pub asset: InternedAsset,
}

/// Everything one party's protocol actions need, precomputed (parallel to
/// [`DealSpec::parties`]).
#[derive(Debug, Clone)]
pub struct PartyPlan {
    /// The party.
    pub id: PartyId,
    /// Chains on which the party has incoming assets (vote targets under the
    /// timelock protocol) — sorted, deduplicated.
    pub incoming_chains: Vec<ChainId>,
    /// Chains on which the party has outgoing assets (what it monitors for
    /// forwarding) — sorted, deduplicated.
    pub outgoing_chains: Vec<ChainId>,
    /// Per incoming chain, the party's expected *net* incoming assets
    /// (incoming minus onward transfers on the same chain) — what validation
    /// requires the escrow C map to cover. Parallel to `incoming_chains`.
    pub expected: Vec<InternedBag>,
}

/// A deal specification resolved for execution: validated once, transfer
/// order fixed, every asset interned, per-party chain/validation tables
/// precomputed. See the module docs for how engines and worlds consume it.
#[derive(Debug, Clone)]
pub struct DealPlan {
    spec: Arc<DealSpec>,
    kinds: KindTable,
    chains: Vec<ChainId>,
    transfer_order: Vec<usize>,
    escrows: Vec<PlannedEscrow>,
    transfers: Vec<PlannedTransfer>,
    parties: Vec<PartyPlan>,
}

impl DealPlan {
    /// Resolves a specification into a plan with its own canonical kind
    /// table. Worlds meant to execute this plan must be built from it
    /// ([`crate::setup::world_for_plan`]) so the interned ids line up.
    pub fn new(spec: &DealSpec) -> Result<Self, DealError> {
        Self::resolve(Arc::new(spec.clone()), KindTable::new())
    }

    /// Resolves a specification against an *existing* kind table (shared,
    /// not forked): the plan's ids are assigned in — and stay valid for —
    /// whatever worlds share that table. This is how [`crate::Deal::run_in`]
    /// plans against a caller-supplied world. A spec that passes the
    /// structural checks but then fails (amounts past `u64`, transfers that
    /// cannot be ordered) leaves its kind names interned in the table.
    pub fn for_table(spec: &DealSpec, kinds: &KindTable) -> Result<Self, DealError> {
        Self::resolve(Arc::new(spec.clone()), kinds.clone())
    }

    /// The one resolution pass, also behind [`DealSpec::validate`]: the
    /// structural checks, then interning with the overflow check, then the
    /// transfer order, then the per-party tables. The plan keeps `spec`,
    /// so a [`crate::Deal`] session shares its spec with its plans.
    pub(crate) fn resolve(spec: Arc<DealSpec>, kinds: KindTable) -> Result<Self, DealError> {
        check_structure(&spec)?;
        // Deterministic id assignment: escrows in spec order, then transfers
        // in spec order, under one lock. Identical specs therefore produce
        // identical tables.
        let (escrows, transfers) = kinds.with_interner_mut(|interner| {
            let mut seen = Vec::new();
            let mut escrows = Vec::with_capacity(spec.escrows.len());
            for e in &spec.escrows {
                escrows.push(PlannedEscrow {
                    owner: e.owner,
                    chain: e.chain,
                    asset: intern(interner, &mut seen, &e.asset)?,
                });
            }
            let mut transfers = Vec::with_capacity(spec.transfers.len());
            for t in &spec.transfers {
                transfers.push(PlannedTransfer {
                    from: t.from,
                    to: t.to,
                    chain: t.chain,
                    asset: intern(interner, &mut seen, &t.asset)?,
                });
            }
            Ok::<_, DealError>((escrows, transfers))
        })?;
        let transfer_order = order_transfers(&escrows, &transfers)?;
        let parties = party_plans(&spec, &transfers);
        Ok(DealPlan {
            chains: spec.chains(),
            spec,
            kinds,
            transfer_order,
            escrows,
            transfers,
            parties,
        })
    }

    /// The specification this plan was resolved from.
    pub fn spec(&self) -> &DealSpec {
        &self.spec
    }

    /// The plan's canonical kind table (fork it to build a world, see
    /// [`crate::setup::world_for_plan`]).
    pub fn kinds(&self) -> &KindTable {
        &self.kinds
    }

    /// The chains involved in the deal (sorted, deduplicated).
    pub fn chains(&self) -> &[ChainId] {
        &self.chains
    }

    /// The fixed tentative-transfer order: indices into [`DealPlan::transfers`].
    pub fn transfer_order(&self) -> &[usize] {
        &self.transfer_order
    }

    /// The escrow obligations with pre-interned assets (parallel to
    /// [`DealSpec::escrows`]).
    pub fn escrows(&self) -> &[PlannedEscrow] {
        &self.escrows
    }

    /// The transfers with pre-interned assets (parallel to
    /// [`DealSpec::transfers`]).
    pub fn transfers(&self) -> &[PlannedTransfer] {
        &self.transfers
    }

    /// The per-party tables (parallel to [`DealSpec::parties`]).
    pub fn parties(&self) -> &[PartyPlan] {
        &self.parties
    }

    /// The precomputed table for one party. Deal parties are few, so a scan
    /// beats a map; the engines mostly iterate [`DealPlan::parties`] instead.
    pub fn party(&self, id: PartyId) -> Option<&PartyPlan> {
        self.parties.iter().find(|pp| pp.id == id)
    }
}

/// The structural checks of [`DealSpec::validate`], in its order: parties
/// are distinct and non-empty, and every escrow and transfer names listed
/// parties and a non-empty asset.
fn check_structure(spec: &DealSpec) -> Result<(), DealError> {
    let parties = &spec.parties;
    if parties.is_empty() {
        return Err(DealError::InvalidSpec("deal has no parties".into()));
    }
    for (i, p) in parties.iter().enumerate() {
        if parties[..i].contains(p) {
            return Err(DealError::InvalidSpec(format!("duplicate party {p}")));
        }
    }
    for e in &spec.escrows {
        if !parties.contains(&e.owner) {
            return Err(DealError::InvalidSpec(format!(
                "escrow owner {} not in plist",
                e.owner
            )));
        }
        if e.asset.is_empty() {
            return Err(DealError::InvalidSpec("empty escrow asset".into()));
        }
    }
    for t in &spec.transfers {
        if !parties.contains(&t.from) || !parties.contains(&t.to) {
            return Err(DealError::InvalidSpec(format!(
                "transfer {} -> {} involves a non-party",
                t.from, t.to
            )));
        }
        if t.from == t.to {
            return Err(DealError::InvalidSpec(format!(
                "self-transfer by {}",
                t.from
            )));
        }
        if t.asset.is_empty() {
            return Err(DealError::InvalidSpec("empty transfer asset".into()));
        }
    }
    Ok(())
}

/// Interns `asset`'s kind and adds a fungible amount to its kind's volume.
/// `seen` holds the deal's kinds met so far with their ids and volumes, so
/// the interner is searched once per distinct kind; kinds are shared names,
/// so the scan mostly compares pointers, and a new kind shares the spec's
/// name.
///
/// Every amount the deal adds up (holdings, a party's incoming or outgoing
/// assets, across chains) sums some of a kind's escrows and transfers, so
/// all of them fit in a `u64` once the kind's total volume does.
fn intern<'s>(
    interner: &mut Interner,
    seen: &mut Vec<(&'s AssetKind, KindId, u64)>,
    asset: &'s Asset,
) -> Result<InternedAsset, DealError> {
    let kind = asset.kind();
    let i = match seen.iter().position(|(k, ..)| *k == kind) {
        Some(i) => i,
        None => {
            seen.push((kind, interner.intern(kind), 0));
            seen.len() - 1
        }
    };
    let (_, id, volume) = &mut seen[i];
    if let Asset::Fungible { amount, .. } = asset {
        *volume = volume.checked_add(*amount).ok_or_else(|| {
            DealError::InvalidSpec(format!("the amounts of '{kind}' overflow u64"))
        })?;
    }
    Ok(asset.map_kind(|_| *id))
}

/// The tentative-transfer order: greedy passes over the transfers not yet
/// placed, each placing a transfer as soon as its sender tentatively owns
/// the asset, starting from the escrowed state. This is the order of the
/// name-keyed reference [`DealSpec::transfer_order`], computed on interned
/// bags. Fails if no such order exists (a party is supposed to forward
/// assets it never receives).
fn order_transfers(
    escrows: &[PlannedEscrow],
    transfers: &[PlannedTransfer],
) -> Result<Vec<usize>, DealError> {
    // Tentative ownership per (chain, party). A deal has few such pairs, so
    // a scanned Vec, sized for every pair the transfers can name, beats a map.
    let mut owned: Vec<((ChainId, PartyId), InternedBag)> =
        Vec::with_capacity(escrows.len() + 2 * transfers.len());
    fn bag_of(
        owned: &mut Vec<((ChainId, PartyId), InternedBag)>,
        key: (ChainId, PartyId),
    ) -> &mut InternedBag {
        let i = match owned.iter().position(|(k, _)| *k == key) {
            Some(i) => i,
            None => {
                owned.push((key, InternedBag::new()));
                owned.len() - 1
            }
        };
        &mut owned[i].1
    }
    for e in escrows {
        bag_of(&mut owned, (e.chain, e.owner)).add(&e.asset);
    }
    let mut remaining: Vec<usize> = (0..transfers.len()).collect();
    let mut order = Vec::with_capacity(remaining.len());
    while !remaining.is_empty() {
        let before = remaining.len();
        // Later transfers of a pass see the effect of earlier ones.
        remaining.retain(|&idx| {
            let t = &transfers[idx];
            if !bag_of(&mut owned, (t.chain, t.from)).remove(&t.asset) {
                return true;
            }
            bag_of(&mut owned, (t.chain, t.to)).add(&t.asset);
            order.push(idx);
            false
        });
        if remaining.len() == before {
            return Err(DealError::InvalidSpec(
                "transfers cannot be ordered: some sender never owns what it sends".into(),
            ));
        }
    }
    Ok(order)
}

/// Each party's chain sets from one scan of the planned transfers, then its
/// expected net incoming bags: every incoming transfer is added before any
/// onward transfer on the same chain is removed, as in the name-keyed
/// reference [`crate::validation::expected_on_chain`].
fn party_plans(spec: &DealSpec, transfers: &[PlannedTransfer]) -> Vec<PartyPlan> {
    let slot = |p: PartyId| {
        spec.parties
            .iter()
            .position(|&q| q == p)
            .expect("checked: transfers are between parties")
    };
    let mut parties: Vec<PartyPlan> = spec
        .parties
        .iter()
        .map(|&id| PartyPlan {
            id,
            incoming_chains: Vec::new(),
            outgoing_chains: Vec::new(),
            expected: Vec::new(),
        })
        .collect();
    for t in transfers {
        parties[slot(t.to)].incoming_chains.push(t.chain);
        parties[slot(t.from)].outgoing_chains.push(t.chain);
    }
    for pp in &mut parties {
        pp.incoming_chains.sort_unstable();
        pp.incoming_chains.dedup();
        pp.outgoing_chains.sort_unstable();
        pp.outgoing_chains.dedup();
        pp.expected = vec![InternedBag::new(); pp.incoming_chains.len()];
    }
    for t in transfers {
        let pp = &mut parties[slot(t.to)];
        let i = pp
            .incoming_chains
            .binary_search(&t.chain)
            .expect("collected above");
        pp.expected[i].add(&t.asset);
    }
    for t in transfers {
        let pp = &mut parties[slot(t.from)];
        if let Ok(i) = pp.incoming_chains.binary_search(&t.chain) {
            pp.expected[i].remove(&t.asset);
        }
    }
    parties
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{auction_spec, broker_spec, brokered_chain_spec, ring_spec};
    use xchain_sim::ids::DealId;

    #[test]
    fn plan_precomputes_what_the_spec_derives() {
        let spec = broker_spec();
        let plan = DealPlan::new(&spec).unwrap();
        assert_eq!(plan.spec(), &spec);
        assert_eq!(plan.chains(), &spec.chains()[..]);
        assert_eq!(plan.transfer_order(), &spec.transfer_order().unwrap()[..]);
        assert_eq!(plan.escrows().len(), spec.escrows.len());
        assert_eq!(plan.transfers().len(), spec.transfers.len());
        for (pp, &p) in plan.parties().iter().zip(&spec.parties) {
            assert_eq!(pp.id, p);
            assert_eq!(pp.incoming_chains, spec.incoming_chains_of(p));
            assert_eq!(pp.outgoing_chains, spec.outgoing_chains_of(p));
            assert_eq!(pp.expected.len(), pp.incoming_chains.len());
        }
        assert!(plan.party(PartyId(0)).is_some());
        assert!(plan.party(PartyId(9)).is_none());
    }

    #[test]
    fn planned_assets_resolve_back_to_the_spec_assets() {
        let spec = broker_spec();
        let plan = DealPlan::new(&spec).unwrap();
        for (pe, e) in plan.escrows().iter().zip(&spec.escrows) {
            assert_eq!(pe.asset.resolve(plan.kinds()), e.asset);
        }
        for (pt, t) in plan.transfers().iter().zip(&spec.transfers) {
            assert_eq!(pt.asset.resolve(plan.kinds()), t.asset);
        }
    }

    #[test]
    fn expected_bags_mirror_validation_expected_on_chain() {
        for spec in [
            broker_spec(),
            auction_spec(DealId(2), &[30, 50, 40]),
            ring_spec(DealId(3), 5),
            brokered_chain_spec(DealId(4), 9, 100),
        ] {
            let plan = DealPlan::new(&spec).unwrap();
            for pp in plan.parties() {
                for (chain, expected) in pp.incoming_chains.iter().zip(&pp.expected) {
                    assert_eq!(
                        expected.resolve(plan.kinds()),
                        crate::validation::expected_on_chain(&spec, pp.id, *chain),
                        "deal {} party {} chain {}",
                        spec.deal,
                        pp.id,
                        chain
                    );
                }
            }
        }
    }

    #[test]
    fn invalid_specs_fail_at_planning_time() {
        let mut spec = ring_spec(DealId(1), 3);
        spec.parties.push(spec.parties[0]); // duplicate party
        assert!(DealPlan::new(&spec).is_err());
    }

    #[test]
    fn identical_specs_produce_identical_id_assignments() {
        let a = DealPlan::new(&broker_spec()).unwrap();
        let b = DealPlan::new(&broker_spec()).unwrap();
        for (ea, eb) in a.escrows().iter().zip(b.escrows()) {
            assert_eq!(ea.asset, eb.asset);
        }
        for (ta, tb) in a.transfers().iter().zip(b.transfers()) {
            assert_eq!(ta.asset, tb.asset);
        }
    }
}
