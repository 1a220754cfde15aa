//! Ready-made deal specifications: the paper's running examples and the
//! parameterised families used by the tests, examples and benchmark harness.

use xchain_sim::asset::{Asset, AssetKind};
use xchain_sim::ids::{ChainId, DealId, PartyId};

use crate::spec::{DealSpec, EscrowSpec, TransferSpec};

/// The Figure 1 broker deal: Alice (party 0) brokers Bob's (party 1) two
/// tickets to Carol (party 2) for 101 coins, keeping a 1-coin commission.
/// Tickets live on chain 0, coins on chain 1.
pub fn broker_spec() -> DealSpec {
    broker_spec_with(DealId(1), 100, 101)
}

/// The broker deal with explicit deal id, wholesale and retail prices.
pub fn broker_spec_with(deal: DealId, wholesale: u64, retail: u64) -> DealSpec {
    let alice = PartyId(0);
    let bob = PartyId(1);
    let carol = PartyId(2);
    let tickets = ChainId(0);
    let coins = ChainId(1);
    let ticket = Asset::non_fungible("ticket", [1, 2]);
    let coin = Asset::fungible("coin", retail);
    DealSpec::new(
        deal,
        vec![alice, bob, carol],
        vec![
            EscrowSpec {
                owner: bob,
                chain: tickets,
                asset: ticket.clone(),
            },
            EscrowSpec {
                owner: carol,
                chain: coins,
                asset: coin.clone(),
            },
        ],
        vec![
            TransferSpec {
                from: bob,
                to: alice,
                chain: tickets,
                asset: ticket.clone(),
            },
            TransferSpec {
                from: alice,
                to: carol,
                chain: tickets,
                asset: ticket,
            },
            TransferSpec {
                from: carol,
                to: alice,
                chain: coins,
                asset: coin.clone(),
            },
            TransferSpec {
                from: alice,
                to: bob,
                chain: coins,
                asset: Asset::fungible(coin.kind().clone(), wholesale),
            },
        ],
    )
}

/// A ring deal among `n` parties: party i transfers 10 units of its own asset
/// kind (on its own chain) to party (i+1) mod n. Strongly connected for any
/// n ≥ 2; n parties, n assets, n transfers.
pub fn ring_spec(deal: DealId, n: u32) -> DealSpec {
    assert!(n >= 2, "a ring needs at least two parties");
    let parties: Vec<PartyId> = (0..n).map(PartyId).collect();
    let mut escrows = Vec::new();
    let mut transfers = Vec::new();
    for i in 0..n {
        let kind = format!("asset-{i}");
        let asset = Asset::fungible(kind.as_str(), 10);
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
    DealSpec::new(deal, parties, escrows, transfers)
}

/// The Section 9 auction deal: the seller (party 0) escrows one ticket; each
/// of the `bids.len()` bidders escrows its bid in coins. The ticket goes to
/// the highest bidder, the winning bid to the seller, and losing bids return
/// to their owners (expressed as transfers only for the winner — the losers'
/// escrows simply refund on commit because they are never tentatively
/// transferred... they are, however, transferred back explicitly so the deal
/// digraph stays strongly connected).
pub fn auction_spec(deal: DealId, bids: &[u64]) -> DealSpec {
    assert!(!bids.is_empty(), "an auction needs at least one bidder");
    let seller = PartyId(0);
    let bidders: Vec<PartyId> = (1..=bids.len() as u32).map(PartyId).collect();
    let ticket_chain = ChainId(0);
    let coin_chain = ChainId(1);
    let mut parties = vec![seller];
    parties.extend(bidders.iter().copied());

    let (winner_idx, &winning_bid) = bids
        .iter()
        .enumerate()
        .max_by_key(|(i, b)| (**b, std::cmp::Reverse(*i)))
        .expect("non-empty");
    let winner = bidders[winner_idx];

    let ticket = Asset::non_fungible("ticket", [1]);
    let coin = AssetKind::from("coin");
    let mut escrows = vec![EscrowSpec {
        owner: seller,
        chain: ticket_chain,
        asset: ticket.clone(),
    }];
    let mut transfers = vec![TransferSpec {
        from: seller,
        to: winner,
        chain: ticket_chain,
        asset: ticket,
    }];
    for (i, (&bidder, &bid)) in bidders.iter().zip(bids.iter()).enumerate() {
        let bid = Asset::fungible(coin.clone(), bid);
        escrows.push(EscrowSpec {
            owner: bidder,
            chain: coin_chain,
            asset: bid.clone(),
        });
        // Every bidder sends its bid to the seller; the seller returns the
        // losing bids. This keeps the digraph strongly connected and matches
        // the description "Alice's contract compares the bids, and transfers
        // back the losing bidder's coins and the ticket to the winning bidder".
        transfers.push(TransferSpec {
            from: bidder,
            to: seller,
            chain: coin_chain,
            asset: bid.clone(),
        });
        if i != winner_idx {
            transfers.push(TransferSpec {
                from: seller,
                to: bidder,
                chain: coin_chain,
                asset: bid,
            });
        }
    }
    let _ = winning_bid;
    DealSpec::new(deal, parties, escrows, transfers)
}

/// A brokered chain deal with `n` parties: party 0 is a broker with nothing to
/// escrow; parties 1..n each escrow one asset and route it through the broker
/// to the next party, paying the broker a commission of 1 unit. Produces
/// deals with n parties, n-1 assets and 2(n-1) transfers; used by the gas and
/// delay sweeps.
pub fn brokered_chain_spec(deal: DealId, n: u32, amount: u64) -> DealSpec {
    assert!(n >= 3, "a brokered chain needs at least three parties");
    let broker = PartyId(0);
    let parties: Vec<PartyId> = (0..n).map(PartyId).collect();
    let mut escrows = Vec::new();
    let mut transfers = Vec::new();
    for i in 1..n {
        let kind = format!("asset-{i}");
        let asset = Asset::fungible(kind.as_str(), amount);
        let chain = ChainId(i - 1);
        escrows.push(EscrowSpec {
            owner: PartyId(i),
            chain,
            asset: asset.clone(),
        });
        // Owner sends the full amount to the broker, who forwards most of it
        // to the next party around the cycle, keeping 1 unit as commission.
        transfers.push(TransferSpec {
            from: PartyId(i),
            to: broker,
            chain,
            asset: asset.clone(),
        });
        let next = if i + 1 < n {
            PartyId(i + 1)
        } else {
            PartyId(1)
        };
        transfers.push(TransferSpec {
            from: broker,
            to: next,
            chain,
            asset: Asset::fungible(asset.kind().clone(), amount.saturating_sub(1).max(1)),
        });
    }
    DealSpec::new(deal, parties, escrows, transfers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digraph::is_well_formed;

    #[test]
    fn broker_spec_is_valid_and_well_formed() {
        let s = broker_spec();
        s.validate().unwrap();
        assert!(is_well_formed(&s));
        assert_eq!(s.n_parties(), 3);
        assert_eq!(s.n_assets(), 2);
        assert_eq!(s.n_transfers(), 4);
    }

    #[test]
    fn ring_specs_are_valid_for_various_sizes() {
        for n in 2..10 {
            let s = ring_spec(DealId(n as u64), n);
            s.validate().unwrap();
            assert!(is_well_formed(&s));
            assert_eq!(s.n_parties(), n as usize);
            assert_eq!(s.n_transfers(), n as usize);
        }
    }

    #[test]
    fn auction_spec_routes_ticket_to_highest_bidder() {
        let s = auction_spec(DealId(5), &[30, 55, 42]);
        s.validate().unwrap();
        assert!(is_well_formed(&s));
        // Winner is bidder 2 (party 2, bid 55): it receives the ticket.
        let winner = PartyId(2);
        assert!(s
            .incoming_of(winner)
            .contains(&Asset::non_fungible("ticket", [1])));
        // The seller nets the winning bid.
        let seller_in = s.incoming_of(PartyId(0));
        assert_eq!(seller_in.balance(&"coin".into()), 30 + 55 + 42);
        let seller_out = s.outgoing_of(PartyId(0));
        assert_eq!(seller_out.balance(&"coin".into()), 30 + 42);
    }

    #[test]
    fn brokered_chain_scales() {
        for n in 3..9 {
            let s = brokered_chain_spec(DealId(n as u64), n, 50);
            s.validate().unwrap();
            assert!(is_well_formed(&s));
            assert_eq!(s.n_parties(), n as usize);
            assert_eq!(s.n_assets(), (n - 1) as usize);
            assert_eq!(s.n_transfers(), 2 * (n - 1) as usize);
        }
    }

    #[test]
    fn each_spec_shares_one_name_per_kind() {
        let mut specs = vec![broker_spec(), auction_spec(DealId(5), &[30, 55, 42])];
        for n in 3..9 {
            specs.push(ring_spec(DealId(n as u64), n));
            specs.push(brokered_chain_spec(DealId(n as u64), n, 50));
        }
        for s in &specs {
            let kinds: Vec<&AssetKind> = s
                .escrows
                .iter()
                .map(|e| e.asset.kind())
                .chain(s.transfers.iter().map(|t| t.asset.kind()))
                .collect();
            for a in &kinds {
                for b in kinds.iter().filter(|b| a == *b) {
                    assert!(std::sync::Arc::ptr_eq(&a.0, &b.0), "{} in {}", a, s.deal);
                }
            }
        }
    }
}
