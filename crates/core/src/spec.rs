//! Deal specification: the transfer matrix of Section 2.1 (Figure 1).
//!
//! A deal is "captured by a matrix (or table), where each row and column is
//! labeled with a party, and the entry at row i and column j shows the assets
//! to be transferred from party i to party j". A party's column is its
//! incoming assets, its row its outgoing assets.
//!
//! The specification also records which party escrows which asset on which
//! chain (the original owners), so the protocol engines can set up escrow and
//! find a valid order for the tentative transfers.

use std::collections::BTreeMap;
use std::fmt;

use xchain_sim::asset::{Asset, AssetBag};
use xchain_sim::ids::{ChainId, DealId, PartyId};

use crate::error::DealError;
use crate::plan::DealPlan;

/// One matrix entry: `from` transfers `asset` (living on `chain`) to `to`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransferSpec {
    /// The sending party (the row).
    pub from: PartyId,
    /// The receiving party (the column).
    pub to: PartyId,
    /// The chain the asset lives on.
    pub chain: ChainId,
    /// The asset to transfer.
    pub asset: Asset,
}

/// One escrow obligation: `owner` must place `asset` (on `chain`) in escrow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EscrowSpec {
    /// The original owner of the asset.
    pub owner: PartyId,
    /// The chain the asset lives on.
    pub chain: ChainId,
    /// The asset to escrow.
    pub asset: Asset,
}

/// A complete cross-chain deal specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DealSpec {
    /// The deal identifier (a nonce).
    pub deal: DealId,
    /// The participating parties (`plist`).
    pub parties: Vec<PartyId>,
    /// The escrow obligations (who owns what at the start).
    pub escrows: Vec<EscrowSpec>,
    /// The matrix entries (tentative transfers to perform).
    pub transfers: Vec<TransferSpec>,
}

impl DealSpec {
    /// Creates a deal specification.
    pub fn new(
        deal: DealId,
        parties: Vec<PartyId>,
        escrows: Vec<EscrowSpec>,
        transfers: Vec<TransferSpec>,
    ) -> Self {
        DealSpec {
            deal,
            parties,
            escrows,
            transfers,
        }
    }

    /// Number of parties `n`.
    pub fn n_parties(&self) -> usize {
        self.parties.len()
    }

    /// Number of escrowed assets `m`.
    pub fn n_assets(&self) -> usize {
        self.escrows.len()
    }

    /// Number of tentative transfers `t`.
    pub fn n_transfers(&self) -> usize {
        self.transfers.len()
    }

    /// The chains involved in the deal.
    pub fn chains(&self) -> Vec<ChainId> {
        let mut chains: Vec<ChainId> = self
            .escrows
            .iter()
            .map(|e| e.chain)
            .chain(self.transfers.iter().map(|t| t.chain))
            .collect();
        chains.sort();
        chains.dedup();
        chains
    }

    /// What `party` expects to relinquish (its row of the matrix), across all
    /// chains.
    pub fn outgoing_of(&self, party: PartyId) -> AssetBag {
        let mut bag = AssetBag::new();
        for t in self.transfers.iter().filter(|t| t.from == party) {
            bag.add(&t.asset);
        }
        bag
    }

    /// What `party` expects to acquire (its column of the matrix), across all
    /// chains.
    pub fn incoming_of(&self, party: PartyId) -> AssetBag {
        let mut bag = AssetBag::new();
        for t in self.transfers.iter().filter(|t| t.to == party) {
            bag.add(&t.asset);
        }
        bag
    }

    /// The escrow obligations of `party`.
    pub fn escrows_of(&self, party: PartyId) -> Vec<&EscrowSpec> {
        self.escrows.iter().filter(|e| e.owner == party).collect()
    }

    /// Chains on which `party` has incoming assets (where it sends its commit
    /// votes in the timelock protocol). The engines read the plan's
    /// [`crate::plan::PartyPlan::incoming_chains`] instead; tests compare it
    /// against this.
    pub fn incoming_chains_of(&self, party: PartyId) -> Vec<ChainId> {
        let mut chains: Vec<ChainId> = self
            .transfers
            .iter()
            .filter(|t| t.to == party)
            .map(|t| t.chain)
            .collect();
        chains.sort();
        chains.dedup();
        chains
    }

    /// Chains on which `party` has outgoing assets (which it monitors for
    /// other parties' votes). The name-keyed reference for
    /// [`crate::plan::PartyPlan::outgoing_chains`].
    pub fn outgoing_chains_of(&self, party: PartyId) -> Vec<ChainId> {
        let mut chains: Vec<ChainId> = self
            .transfers
            .iter()
            .filter(|t| t.from == party)
            .map(|t| t.chain)
            .collect();
        chains.sort();
        chains.dedup();
        chains
    }

    /// Validates the specification: parties are distinct and non-empty, every
    /// transfer and escrow references listed parties, the escrowed and
    /// transferred amounts of each fungible kind sum to at most `u64::MAX`,
    /// and the tentative transfers can actually be ordered so that every
    /// sender tentatively owns what it sends. This is resolving the spec into
    /// a [`DealPlan`], so validation and planning are one code path and fail
    /// with the same [`DealError`].
    pub fn validate(&self) -> Result<(), DealError> {
        DealPlan::new(self).map(drop)
    }

    /// Computes an order in which the tentative transfers can be performed
    /// such that each sender tentatively owns the asset at that point,
    /// starting from the escrowed state. Returns indices into
    /// [`Self::transfers`]. Fails if no such order exists (e.g. a party is
    /// supposed to forward assets it never receives).
    ///
    /// This name-keyed version is the reference that tests compare
    /// [`DealPlan::transfer_order`] against; planning computes the same
    /// order once, keeping its bags in a scanned `Vec` instead of a map.
    pub fn transfer_order(&self) -> Result<Vec<usize>, DealError> {
        // Tentative ownership per (chain, party), starting from the escrows.
        let mut owned: BTreeMap<(ChainId, PartyId), AssetBag> = BTreeMap::new();
        for e in &self.escrows {
            owned.entry((e.chain, e.owner)).or_default().add(&e.asset);
        }
        let mut remaining: Vec<usize> = (0..self.transfers.len()).collect();
        let mut order = Vec::with_capacity(remaining.len());
        while !remaining.is_empty() {
            let mut progressed = false;
            let mut i = 0;
            while i < remaining.len() {
                let idx = remaining[i];
                let t = &self.transfers[idx];
                let sender_has = owned
                    .get(&(t.chain, t.from))
                    .map(|b| b.contains(&t.asset))
                    .unwrap_or(false);
                if sender_has {
                    let bag = owned.entry((t.chain, t.from)).or_default();
                    bag.remove(&t.asset);
                    owned.entry((t.chain, t.to)).or_default().add(&t.asset);
                    order.push(idx);
                    remaining.remove(i);
                    progressed = true;
                } else {
                    i += 1;
                }
            }
            if !progressed {
                return Err(DealError::InvalidSpec(
                    "transfers cannot be ordered: some sender never owns what it sends".into(),
                ));
            }
        }
        Ok(order)
    }

    /// Renders the deal as the matrix of Figure 1 (rows = outgoing, columns =
    /// incoming), for reports and examples.
    pub fn matrix_string(&self, names: &BTreeMap<PartyId, String>) -> String {
        let name = |p: PartyId| names.get(&p).cloned().unwrap_or_else(|| p.to_string());
        let mut out = String::new();
        out.push_str(&format!("{:>12} |", ""));
        for p in &self.parties {
            out.push_str(&format!(" {:>18} |", name(*p)));
        }
        out.push('\n');
        for from in &self.parties {
            out.push_str(&format!("{:>12} |", name(*from)));
            for to in &self.parties {
                let mut cell = String::new();
                for t in self
                    .transfers
                    .iter()
                    .filter(|t| t.from == *from && t.to == *to)
                {
                    if !cell.is_empty() {
                        cell.push_str(", ");
                    }
                    cell.push_str(&t.asset.to_string());
                }
                out.push_str(&format!(" {cell:>18} |"));
            }
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for DealSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} parties, {} assets, {} transfers",
            self.deal,
            self.n_parties(),
            self.n_assets(),
            self.n_transfers()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn broker_spec() -> DealSpec {
        // Figure 1: Alice (0) brokers between Bob (1, tickets) and Carol (2, coins).
        let alice = PartyId(0);
        let bob = PartyId(1);
        let carol = PartyId(2);
        let tickets_chain = ChainId(0);
        let coins_chain = ChainId(1);
        DealSpec::new(
            DealId(1),
            vec![alice, bob, carol],
            vec![
                EscrowSpec {
                    owner: bob,
                    chain: tickets_chain,
                    asset: Asset::non_fungible("ticket", [1, 2]),
                },
                EscrowSpec {
                    owner: carol,
                    chain: coins_chain,
                    asset: Asset::fungible("coin", 101),
                },
            ],
            vec![
                TransferSpec {
                    from: bob,
                    to: alice,
                    chain: tickets_chain,
                    asset: Asset::non_fungible("ticket", [1, 2]),
                },
                TransferSpec {
                    from: alice,
                    to: carol,
                    chain: tickets_chain,
                    asset: Asset::non_fungible("ticket", [1, 2]),
                },
                TransferSpec {
                    from: carol,
                    to: alice,
                    chain: coins_chain,
                    asset: Asset::fungible("coin", 101),
                },
                TransferSpec {
                    from: alice,
                    to: bob,
                    chain: coins_chain,
                    asset: Asset::fungible("coin", 100),
                },
            ],
        )
    }

    #[test]
    fn broker_deal_validates_and_orders() {
        let spec = broker_spec();
        spec.validate().unwrap();
        let order = spec.transfer_order().unwrap();
        assert_eq!(order.len(), 4);
        // Bob's ticket transfer must precede Alice's forward of the tickets.
        let pos = |idx: usize| order.iter().position(|i| *i == idx).unwrap();
        assert!(pos(0) < pos(1));
        assert!(pos(2) < pos(3));
    }

    #[test]
    fn incoming_outgoing_match_the_matrix() {
        let spec = broker_spec();
        let alice = PartyId(0);
        let bob = PartyId(1);
        let carol = PartyId(2);
        // Alice nets +1 coin: receives 101 coins and the tickets, gives 100
        // coins and the tickets.
        let inc = spec.incoming_of(alice);
        assert_eq!(inc.balance(&"coin".into()), 101);
        assert!(inc.contains(&Asset::non_fungible("ticket", [1, 2])));
        let out = spec.outgoing_of(alice);
        assert_eq!(out.balance(&"coin".into()), 100);
        assert!(out.contains(&Asset::non_fungible("ticket", [1, 2])));
        // Bob gives tickets, receives 100 coins.
        assert_eq!(spec.incoming_of(bob).balance(&"coin".into()), 100);
        assert!(spec
            .outgoing_of(bob)
            .contains(&Asset::non_fungible("ticket", [1, 2])));
        // Carol gives 101 coins, receives tickets.
        assert_eq!(spec.outgoing_of(carol).balance(&"coin".into()), 101);
        assert!(spec
            .incoming_of(carol)
            .contains(&Asset::non_fungible("ticket", [1, 2])));
    }

    #[test]
    fn chain_sets_per_party() {
        let spec = broker_spec();
        let alice = PartyId(0);
        let bob = PartyId(1);
        assert_eq!(spec.chains(), vec![ChainId(0), ChainId(1)]);
        assert_eq!(spec.incoming_chains_of(bob), vec![ChainId(1)]);
        assert_eq!(spec.outgoing_chains_of(bob), vec![ChainId(0)]);
        assert_eq!(spec.incoming_chains_of(alice), vec![ChainId(0), ChainId(1)]);
        assert_eq!(spec.outgoing_chains_of(alice), vec![ChainId(0), ChainId(1)]);
    }

    #[test]
    fn invalid_specs_rejected() {
        let mut spec = broker_spec();
        spec.parties = vec![];
        assert!(spec.validate().is_err());

        let mut spec = broker_spec();
        spec.parties.push(PartyId(0));
        assert!(spec.validate().is_err());

        let mut spec = broker_spec();
        spec.transfers.push(TransferSpec {
            from: PartyId(9),
            to: PartyId(0),
            chain: ChainId(0),
            asset: Asset::fungible("coin", 1),
        });
        assert!(spec.validate().is_err());

        let mut spec = broker_spec();
        spec.transfers[0].to = PartyId(1);
        assert!(spec.validate().is_err(), "self transfer rejected");
    }

    #[test]
    fn unorderable_transfers_rejected() {
        // Alice is supposed to send coins she never receives or escrows.
        let spec = DealSpec::new(
            DealId(2),
            vec![PartyId(0), PartyId(1)],
            vec![],
            vec![TransferSpec {
                from: PartyId(0),
                to: PartyId(1),
                chain: ChainId(0),
                asset: Asset::fungible("coin", 5),
            }],
        );
        assert!(matches!(
            spec.transfer_order(),
            Err(DealError::InvalidSpec(_))
        ));
        assert!(spec.validate().is_err());
    }

    #[test]
    fn matrix_rendering_mentions_all_assets() {
        let spec = broker_spec();
        let mut names = BTreeMap::new();
        names.insert(PartyId(0), "Alice".to_string());
        names.insert(PartyId(1), "Bob".to_string());
        names.insert(PartyId(2), "Carol".to_string());
        let s = spec.matrix_string(&names);
        assert!(s.contains("Alice"));
        assert!(s.contains("101 coin"));
        assert!(s.contains("100 coin"));
        assert!(s.contains("ticket{1,2}"));
    }
}
