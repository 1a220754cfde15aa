//! The validation phase: each party checks that its incoming assets are
//! properly escrowed and that the deal information the contracts carry is the
//! deal it agreed to (Section 4.1).

use xchain_contracts::escrow::DealEscrow;
use xchain_sim::ids::ContractId;
use xchain_sim::world::World;

use crate::plan::{DealPlan, PartyPlan};

/// Validation under either commit protocol, driven by a pre-resolved
/// [`PartyPlan`]: on every chain where the party has incoming assets, the
/// escrow contract must carry the agreed deal information and the party's
/// C-map entry must cover its expected net incoming assets. `contracts`
/// holds the deal contract of each of the plan's chains, parallel to
/// [`DealPlan::chains`]. The plan built its expectations once, so each
/// chain costs one bag comparison
/// ([`xchain_contracts::escrow::EscrowCore::on_commit_covers`]) that
/// allocates nothing.
pub fn validate_plan<M: DealEscrow>(
    world: &World,
    plan: &DealPlan,
    contracts: &[Option<ContractId>],
    party: &PartyPlan,
    info: &M::Info,
) -> bool {
    party
        .incoming_chains
        .iter()
        .zip(&party.expected)
        .all(|(&chain, expected)| {
            let contract = plan.chain_index(chain).and_then(|c| contracts.get(c));
            let Some(&Some(contract)) = contract else {
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
