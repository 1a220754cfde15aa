//! The engine × spec × adversary matrix: every builder specification runs
//! through every `DealEngine` (timelock, CBC, and the HTLC swap where
//! expressible), under both the all-compliant and single-deviator
//! configurations, and the paper's safety and conservation properties must
//! hold at every point.

use xchain_deals::builders::{auction_spec, broker_spec, brokered_chain_spec, ring_spec};
use xchain_deals::engine::DealEngine;
use xchain_deals::party::PartyConfig;
use xchain_deals::properties::{check_conservation, check_safety, check_weak_liveness};
use xchain_deals::spec::{DealSpec, EscrowSpec, TransferSpec};
use xchain_deals::strategy::strategies;
use xchain_deals::DealError;
use xchain_deals::{Deal, Protocol};
use xchain_harness::sweep::{standard_engines, Sweep};
use xchain_sim::asset::Asset;
use xchain_sim::ids::{ChainId, DealId, Owner, PartyId};
use xchain_sim::network::NetworkModel;
use xchain_swap::SwapEngine;

const DELTA: u64 = 100;

fn all_specs() -> Vec<(String, xchain_deals::spec::DealSpec)> {
    vec![
        ("broker".into(), broker_spec()),
        ("ring n=2".into(), ring_spec(DealId(12), 2)),
        ("ring n=4".into(), ring_spec(DealId(14), 4)),
        (
            "auction 3 bidders".into(),
            auction_spec(DealId(20), &[30, 55, 42]),
        ),
        (
            "brokered chain n=5".into(),
            brokered_chain_spec(DealId(30), 5, 60),
        ),
    ]
}

/// Every single-deviator scenario for the matrix: one per (party, deviation)
/// over a compact but protocol-spanning deviation set.
fn matrix_adversaries(spec: &xchain_deals::spec::DealSpec) -> Vec<(String, Vec<PartyConfig>)> {
    let deviations = [
        strategies::refuse_escrow(),
        strategies::withhold_vote(),
        strategies::vote_abort(),
        strategies::reject_validation(),
    ];
    let mut scenarios = vec![("all compliant".to_string(), Vec::new())];
    for &p in &spec.parties {
        for d in &deviations {
            scenarios.push((
                format!("{p} deviates with {}", d.name()),
                vec![PartyConfig::with_strategy(p, d.clone())],
            ));
        }
    }
    scenarios
}

#[test]
fn every_spec_through_every_engine_preserves_safety_and_conservation() {
    let outcome = Sweep::new()
        .over_specs(all_specs())
        .over_protocols(standard_engines(DELTA))
        .over_networks(vec![(
            "synchronous".into(),
            NetworkModel::synchronous(DELTA),
        )])
        .over_adversaries(matrix_adversaries)
        .seed(4242)
        .run()
        .unwrap();

    // Timelock and CBC support every spec; the swap engine only the two-party
    // ring, so exactly 4 spec × adversary blocks are skipped for it.
    assert!(outcome.points.len() > 100, "got {}", outcome.points.len());
    assert!(outcome.skipped > 0);

    for p in &outcome.points {
        let label = format!("{} / {} / {}", p.spec, p.engine, p.adversary);
        let report = check_safety(&p.deal, &p.configs, &p.run.outcome);
        assert!(report.holds(), "{label}: {:?}", report.violations);
        assert!(check_conservation(&p.deal, &p.run.outcome), "{label}");
        assert!(
            check_weak_liveness(&p.deal, &p.configs, &p.run.outcome),
            "{label}"
        );
        // All-compliant cells must commit everywhere under synchrony.
        if p.configs.is_empty() {
            assert!(p.run.outcome.committed_everywhere(), "{label}");
        }
    }

    // All three engines actually produced points.
    for engine in ["timelock", "CBC", "HTLC swap"] {
        assert!(
            !outcome.by_engine(engine).is_empty(),
            "no points for {engine}"
        );
    }
}

#[test]
fn swap_engine_agrees_with_commit_protocols_on_the_two_party_ring() {
    // On the one spec all three engines can express, their outcomes must
    // agree: all-compliant → everyone commits; a deviating escrower → every
    // engine aborts without harming the compliant party.
    let spec = ring_spec(DealId(2), 2);
    for (name, engine) in &all_engines() {
        let deal = Deal::new(spec.clone()).seed(77);
        let run = deal.run(engine).unwrap();
        assert!(run.outcome.committed_everywhere(), "{name} compliant");

        let deal = deal.parties(&[PartyConfig::with_strategy(
            xchain_sim::ids::PartyId(1),
            strategies::refuse_escrow(),
        )]);
        let run = deal.run(engine).unwrap();
        assert!(!run.outcome.committed_everywhere(), "{name} deviator");
        assert!(
            check_safety(deal.spec(), deal.configs(), &run.outcome).holds(),
            "{name} deviator safety"
        );
    }
}

/// A two-party deal on chain 0 in which every escrow and transfer moves
/// `amount` coins: `escrowers` escrow, then `hops` alternate Alice → Bob,
/// Bob → Alice, … .
fn coin_spec(amount: u64, escrowers: &[PartyId], hops: usize) -> DealSpec {
    let (alice, bob, chain) = (PartyId(0), PartyId(1), ChainId(0));
    let coins = Asset::fungible("coin", amount);
    let escrows = escrowers.iter().map(|&owner| EscrowSpec {
        owner,
        chain,
        asset: coins.clone(),
    });
    let transfers = (0..hops).map(|i| {
        let (from, to) = if i % 2 == 0 {
            (alice, bob)
        } else {
            (bob, alice)
        };
        TransferSpec {
            from,
            to,
            chain,
            asset: coins.clone(),
        }
    });
    DealSpec::new(
        DealId(90),
        vec![alice, bob],
        escrows.collect(),
        transfers.collect(),
    )
}

/// Timelock, CBC and the HTLC swap, each with its default options.
fn all_engines() -> Vec<(&'static str, Box<dyn DealEngine>)> {
    vec![
        ("timelock", Box::new(Protocol::timelock())),
        ("CBC", Box::new(Protocol::cbc())),
        ("HTLC swap", Box::new(SwapEngine::default())),
    ]
}

#[test]
fn amounts_summing_past_u64_are_an_invalid_spec_for_every_engine() {
    let both = [PartyId(0), PartyId(1)];
    // Both parties escrow and swap u64::MAX coins on one chain.
    let swap = coin_spec(u64::MAX, &both, 2);
    // Alice's escrow travels Alice → Bob → Alice → Bob: Bob's incoming
    // coins sum past u64::MAX although the escrowed supply fits.
    let cycle = coin_spec(u64::MAX / 2 + 1, &both[..1], 3);
    for spec in [swap, cycle] {
        let deal = Deal::new(spec);
        for (name, engine) in &all_engines() {
            assert!(
                matches!(deal.run(engine), Err(DealError::InvalidSpec(_))),
                "{name}"
            );
        }
    }
    // The same swap at a quarter of the range fits, and the commit
    // protocols commit it (the HTLC swap cannot express a one-chain swap).
    let deal = Deal::new(coin_spec(u64::MAX / 4, &both, 2));
    for engine in [Protocol::timelock(), Protocol::cbc()] {
        assert!(deal.run(engine).unwrap().outcome.committed_everywhere());
    }
}

#[test]
fn a_payout_that_would_overflow_the_receiver_is_refused_for_every_engine() {
    // Bob already holds almost every unit of the asset-0 the ring pays him,
    // so crediting the 10 escrowed units would overflow his balance.
    let spec = ring_spec(DealId(91), 2);
    let (alice, bob) = (Owner::Party(PartyId(0)), Owner::Party(PartyId(1)));
    let asset0 = "asset-0".into();
    for (name, engine) in &all_engines() {
        let deal = Deal::new(spec.clone()).seed(5);
        let mut world = deal.build_world().unwrap();
        let hoard = world
            .kinds()
            .intern_asset(&Asset::fungible("asset-0", u64::MAX - 5));
        world.mint(ChainId(0), bob, &hoard).unwrap();
        let run = deal.run_in(&mut world, engine).unwrap();
        // The payout is refused instead of wrapping: Bob's balance is
        // untouched and the 10 units stay with the escrow contract.
        let chain = world.chain(ChainId(0)).unwrap();
        let escrow = Owner::Contract(run.contracts[&ChainId(0)]);
        assert_eq!(chain.assets().balance(bob, &asset0), u64::MAX - 5, "{name}");
        assert_eq!(chain.assets().balance(alice, &asset0), 0, "{name}");
        assert_eq!(chain.assets().balance(escrow, &asset0), 10, "{name}");
    }
}
