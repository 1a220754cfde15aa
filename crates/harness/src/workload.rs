//! Workload generation: the paper's example deals plus randomly generated
//! well-formed deals used by the sweeps and property tests.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use xchain_deals::builders;
use xchain_deals::spec::{DealSpec, EscrowSpec, TransferSpec};
use xchain_sim::asset::Asset;
use xchain_sim::ids::{ChainId, DealId, PartyId};

pub use builders::{auction_spec, broker_spec, broker_spec_with, brokered_chain_spec, ring_spec};

/// Parameters for random well-formed deal generation.
#[derive(Debug, Clone, Copy)]
pub struct RandomDealParams {
    /// Number of parties `n` (≥ 2).
    pub parties: u32,
    /// Number of extra (non-ring) transfers to add on top of the base ring.
    pub extra_transfers: u32,
    /// Fungible amount escrowed per party.
    pub amount: u64,
}

impl Default for RandomDealParams {
    fn default() -> Self {
        RandomDealParams {
            parties: 4,
            extra_transfers: 2,
            amount: 100,
        }
    }
}

/// Generates a random well-formed deal: a base ring (guaranteeing strong
/// connectivity) plus `extra_transfers` random forwarding hops that route part
/// of an escrowed amount through additional parties. Deterministic in `seed`.
pub fn random_well_formed_deal(deal: DealId, params: &RandomDealParams, seed: u64) -> DealSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = params.parties.max(2);
    let parties: Vec<PartyId> = (0..n).map(PartyId).collect();
    let mut escrows = Vec::new();
    let mut transfers = Vec::new();
    // Base ring: party i escrows `amount` of its own kind and sends it to i+1.
    for i in 0..n {
        let kind = format!("asset-{i}");
        let asset = Asset::fungible(kind.as_str(), params.amount);
        escrows.push(EscrowSpec {
            owner: PartyId(i),
            chain: ChainId(i),
            asset: asset.clone(),
        });
        transfers.push(TransferSpec {
            from: PartyId(i),
            to: PartyId((i + 1) % n),
            chain: ChainId(i),
            asset,
        });
    }
    // Extra hops: the ring recipient forwards a slice of what it received to a
    // random third party on the same chain. Slices are clamped to what is
    // left of the chain's `amount`, so a recipient never forwards more than
    // it got (the spec stays plannable); a hop with nothing left is skipped.
    let mut left = vec![params.amount; n as usize];
    for _ in 0..params.extra_transfers {
        let i = rng.gen_range(0..n);
        let recipient = PartyId((i + 1) % n);
        let others: Vec<PartyId> = parties
            .iter()
            .copied()
            .filter(|p| *p != recipient)
            .collect();
        let Some(&target) = others.choose(&mut rng) else {
            continue;
        };
        let slice = rng
            .gen_range(1..=(params.amount / 2).max(1))
            .min(left[i as usize]);
        if slice == 0 {
            continue;
        }
        left[i as usize] -= slice;
        transfers.push(TransferSpec {
            from: recipient,
            to: target,
            chain: ChainId(i),
            asset: Asset::fungible(format!("asset-{i}").as_str(), slice),
        });
    }
    DealSpec::new(deal, parties, escrows, transfers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xchain_deals::digraph::is_well_formed;
    use xchain_deals::plan::DealPlan;

    #[test]
    fn random_deals_are_valid_and_well_formed() {
        for parties in 2..=6 {
            for extra_transfers in 0..=6 {
                let params = RandomDealParams {
                    parties,
                    extra_transfers,
                    amount: 50,
                };
                for seed in 0..500 {
                    let case = format!("n={parties} extra={extra_transfers} seed={seed}");
                    let spec = random_well_formed_deal(DealId(seed), &params, seed);
                    spec.validate().unwrap_or_else(|e| panic!("{case}: {e}"));
                    assert!(is_well_formed(&spec), "{case} not well formed");
                    DealPlan::new(&spec).unwrap_or_else(|e| panic!("{case}: {e}"));
                }
            }
        }
    }

    #[test]
    fn random_deals_are_deterministic_in_seed() {
        let p = RandomDealParams::default();
        assert_eq!(
            random_well_formed_deal(DealId(1), &p, 9),
            random_well_formed_deal(DealId(1), &p, 9)
        );
    }
}
