//! The validation phase: each party checks that its incoming assets are
//! properly escrowed and that the deal information the contracts carry is the
//! deal it agreed to (Section 4.1).

use std::collections::BTreeMap;

use xchain_contracts::escrow::DealEscrow;
use xchain_sim::asset::AssetBag;
use xchain_sim::ids::{ChainId, ContractId, PartyId};
use xchain_sim::world::World;

use crate::plan::PartyPlan;
use crate::spec::DealSpec;

/// The assets `party` expects to receive on `chain` according to the deal
/// matrix, minus what it sends onward on the same chain (its net incoming
/// position there is what must be tentatively owned by it at validation time).
/// Validation reads the plan's interned
/// [`crate::plan::PartyPlan::expected`] bags instead; this name-keyed
/// version is the reference tests compare them against.
pub fn expected_on_chain(spec: &DealSpec, party: PartyId, chain: ChainId) -> AssetBag {
    let mut bag = AssetBag::new();
    for t in spec
        .transfers
        .iter()
        .filter(|t| t.to == party && t.chain == chain)
    {
        bag.add(&t.asset);
    }
    for t in spec
        .transfers
        .iter()
        .filter(|t| t.from == party && t.chain == chain)
    {
        bag.remove(&t.asset);
    }
    bag
}

/// Validation under either commit protocol, driven by a pre-resolved
/// [`PartyPlan`]: on every chain where the party has incoming assets, the
/// escrow contract must carry the agreed deal information and the party's
/// C-map entry must cover its expected net incoming assets. Both sides are
/// [`xchain_sim::intern::InternedBag`]s (the plan interned its expectations
/// once, and the escrow keeps only ids), so each chain costs one bag
/// comparison ([`xchain_contracts::escrow::EscrowCore::on_commit_covers`])
/// that resolves no kind name and allocates nothing.
pub fn validate_plan<M: DealEscrow>(
    world: &World,
    party: &PartyPlan,
    info: &M::Info,
    contracts: &BTreeMap<ChainId, ContractId>,
) -> bool {
    party
        .incoming_chains
        .iter()
        .zip(&party.expected)
        .all(|(&chain, expected)| {
            let Some(&contract) = contracts.get(&chain) else {
                return false;
            };
            let Ok(chain_ref) = world.chain(chain) else {
                return false;
            };
            chain_ref
                .view(contract, |m: &M| {
                    m.info() == info && m.core().on_commit_covers(party.id, expected)
                })
                .unwrap_or(false)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::broker_spec;
    use xchain_sim::asset::Asset;

    #[test]
    fn expected_on_chain_accounts_for_onward_transfers() {
        let spec = broker_spec();
        let alice = PartyId(0);
        // On the coin chain Alice receives 101 and sends 100 onward: net 1.
        let bag = expected_on_chain(&spec, alice, ChainId(1));
        assert_eq!(bag.balance(&"coin".into()), 1);
        // On the ticket chain Alice receives the tickets but forwards them all.
        let bag = expected_on_chain(&spec, alice, ChainId(0));
        assert!(bag.is_empty());
        // Carol expects the two tickets on the ticket chain.
        let bag = expected_on_chain(&spec, PartyId(2), ChainId(0));
        assert!(bag.contains(&Asset::non_fungible("ticket", [1, 2])));
    }
}
