//! Pre-resolved deal plans: the compile-once layer between a [`DealSpec`]
//! and the protocol engines.
//!
//! A [`DealSpec`] is the *human-facing* description of a deal: per-party
//! chain sets are derived on demand, and the tentative transfer order is
//! recomputed by whoever asks. That is the right shape for authoring deals,
//! but the wrong shape for executing them: every engine would re-derive
//! `incoming_chains_of`/`outgoing_chains_of` (allocating, sorting Vecs) at
//! every commit round.
//!
//! A [`DealPlan`] resolves all of that **exactly once per deal**, in one
//! pass that is also the whole of [`DealSpec::validate`]:
//!
//! * the structural checks run first (parties distinct and non-empty, every
//!   escrow and transfer between listed parties, no empty asset);
//! * each fungible kind's total volume is checked against `u64`;
//! * the tentative [`transfer order`] is computed once;
//! * per-party tables ([`PartyPlan`]) come from one scan of the transfers:
//!   the incoming/outgoing chain sets (the timelock vote and forwarding
//!   targets) and the per-chain *expected net incoming* [`AssetBag`]s that
//!   validation compares against the escrow C map via
//!   [`EscrowCore::on_commit_covers`].
//!
//! The plan keeps the spec and reads its escrows and transfers from it: the
//! engines hand the spec's assets straight to the contracts' escrow and
//! transfer entry points. The name-keyed [`DealSpec::transfer_order`],
//! [`DealSpec::incoming_chains_of`]/[`DealSpec::outgoing_chains_of`] and
//! [`crate::validation::expected_on_chain`] remain as the references tests
//! compare a plan against.
//!
//! A plan holds nothing tied to a world, so one plan can be shared (it is
//! `Send + Sync`) across many worlds — the sweep executor in
//! `xchain-harness` resolves one plan per specification and reuses it for
//! every cell (seed × network × adversary × engine) that runs that spec.
//!
//! [`transfer order`]: DealPlan::transfer_order
//! [`EscrowCore::on_commit_covers`]: xchain_contracts::escrow::EscrowCore::on_commit_covers

use std::sync::Arc;

use xchain_sim::asset::{Asset, AssetBag, AssetKind};
use xchain_sim::ids::{ChainId, PartyId};

use crate::error::DealError;
use crate::spec::{DealSpec, EscrowSpec, TransferSpec};

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
    pub expected: Vec<AssetBag>,
}

/// A deal specification resolved for execution: validated once, transfer
/// order fixed, per-party chain/validation tables precomputed. See the
/// module docs for how engines consume it.
#[derive(Debug, Clone)]
pub struct DealPlan {
    spec: Arc<DealSpec>,
    chains: Vec<ChainId>,
    transfer_order: Vec<usize>,
    parties: Vec<PartyPlan>,
}

impl DealPlan {
    /// Resolves a specification into a plan.
    pub fn new(spec: &DealSpec) -> Result<Self, DealError> {
        Self::resolve(Arc::new(spec.clone()))
    }

    /// The one resolution pass, also behind [`DealSpec::validate`]: the
    /// structural checks, then the volume check, then the transfer order,
    /// then the per-party tables. The plan keeps `spec`, so a
    /// [`crate::Deal`] session shares its spec with its plans.
    pub(crate) fn resolve(spec: Arc<DealSpec>) -> Result<Self, DealError> {
        check_structure(&spec)?;
        check_volumes(&spec)?;
        let transfer_order = order_transfers(&spec.escrows, &spec.transfers)?;
        let parties = party_plans(&spec);
        Ok(DealPlan {
            chains: spec.chains(),
            spec,
            transfer_order,
            parties,
        })
    }

    /// The specification this plan was resolved from.
    pub fn spec(&self) -> &DealSpec {
        &self.spec
    }

    /// The chains involved in the deal (sorted, deduplicated).
    pub fn chains(&self) -> &[ChainId] {
        &self.chains
    }

    /// The fixed tentative-transfer order: indices into the spec's
    /// [`DealSpec::transfers`].
    pub fn transfer_order(&self) -> &[usize] {
        &self.transfer_order
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

/// Checks that each fungible kind's total volume, over the escrows and
/// then the transfers in spec order, fits in a `u64`. A deal has few kinds,
/// and the escrows and transfers share the spec's kind names, so the scan
/// of the kinds met so far mostly compares pointers.
///
/// Every amount the deal adds up (holdings, a party's incoming or outgoing
/// assets, across chains) sums some of a kind's escrows and transfers, so
/// all of them fit in a `u64` once the kind's total volume does.
fn check_volumes(spec: &DealSpec) -> Result<(), DealError> {
    let assets = spec
        .escrows
        .iter()
        .map(|e| &e.asset)
        .chain(spec.transfers.iter().map(|t| &t.asset));
    let mut volumes: Vec<(&AssetKind, u64)> = Vec::with_capacity(spec.escrows.len());
    for asset in assets {
        let Asset::Fungible { kind, amount } = asset else {
            continue;
        };
        let i = match volumes.iter().position(|(k, _)| *k == kind) {
            Some(i) => i,
            None => {
                volumes.push((kind, 0));
                volumes.len() - 1
            }
        };
        let volume = &mut volumes[i].1;
        *volume = volume.checked_add(*amount).ok_or_else(|| {
            DealError::InvalidSpec(format!("the amounts of '{kind}' overflow u64"))
        })?;
    }
    Ok(())
}

/// The tentative-transfer order: greedy passes over the transfers not yet
/// placed, each placing a transfer as soon as its sender tentatively owns
/// the asset, starting from the escrowed state. This is the order of the
/// reference [`DealSpec::transfer_order`], with the bags kept in a scanned
/// `Vec`. Fails if no such order exists (a party is supposed to forward
/// assets it never receives).
fn order_transfers(
    escrows: &[EscrowSpec],
    transfers: &[TransferSpec],
) -> Result<Vec<usize>, DealError> {
    // Tentative ownership per (chain, party). A deal has few such pairs, so
    // a scanned Vec, sized for every pair the transfers can name, beats a map.
    let mut owned: Vec<((ChainId, PartyId), AssetBag)> =
        Vec::with_capacity(escrows.len() + 2 * transfers.len());
    fn bag_of(
        owned: &mut Vec<((ChainId, PartyId), AssetBag)>,
        key: (ChainId, PartyId),
    ) -> &mut AssetBag {
        let i = match owned.iter().position(|(k, _)| *k == key) {
            Some(i) => i,
            None => {
                owned.push((key, AssetBag::new()));
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

/// Each party's chain sets from one scan of the transfers, then its expected
/// net incoming bags: every incoming transfer is added before any onward
/// transfer on the same chain is removed, as in the reference
/// [`crate::validation::expected_on_chain`].
fn party_plans(spec: &DealSpec) -> Vec<PartyPlan> {
    let transfers = &spec.transfers;
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
        pp.expected = vec![AssetBag::new(); pp.incoming_chains.len()];
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
                        expected,
                        &crate::validation::expected_on_chain(&spec, pp.id, *chain),
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
}
