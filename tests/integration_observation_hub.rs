//! ObservationHub views on an adversarial trace: cross-chain interleaving,
//! parties deciding at different cadences, a failed call, foreign log
//! entries, a commit on one chain and an abort on the other. At every check
//! point the party's full [`DealView`] out of the shared, tag-filtered hub
//! must equal a literal.
//!
//! The literals were recorded from a per-party reference observer — each
//! party reading every chain's log with its own cursors — that the hub was
//! checked against, entry for entry and in order, before that reference was
//! removed. Batching the ingest changes the cost, never the view.

use xchain_contracts::escrow::EscrowManager;
use xchain_contracts::timelock::{TimelockDealInfo, TimelockManager};
use xchain_contracts::DealEscrow;
use xchain_deals::builders::broker_spec;
use xchain_deals::phases::Phase;
use xchain_deals::plan::DealPlan;
use xchain_deals::setup::world_for_plan;
use xchain_deals::spec::DealSpec;
use xchain_deals::strategy::{DealView, ObservationHub};
use xchain_sim::asset::Asset;
use xchain_sim::crypto::PathSignature;
use xchain_sim::ids::{ChainId, Owner, PartyId};
use xchain_sim::network::NetworkModel;
use xchain_sim::time::{Duration, Time};
use xchain_sim::world::World;

const TICKETS: ChainId = ChainId(0);
const COINS: ChainId = ChainId(1);
const ALICE: PartyId = PartyId(0);
const BOB: PartyId = PartyId(1);
const CAROL: PartyId = PartyId(2);

/// A view literal, field by field.
fn view(
    escrows: &[(ChainId, PartyId)],
    transfers: &[(ChainId, PartyId)],
    commit_votes: &[PartyId],
    resolutions: &[(ChainId, bool)],
) -> DealView {
    DealView {
        escrows: escrows.to_vec(),
        transfers: transfers.to_vec(),
        commit_votes: commit_votes.to_vec(),
        resolutions: resolutions.to_vec(),
    }
}

/// Asserts that `party`'s view, read through the hub from the world as it
/// stands, equals `expected`.
fn check(
    world: &World,
    hub: &mut ObservationHub,
    spec: &DealSpec,
    party: PartyId,
    at: &str,
    expected: DealView,
) {
    let ctx = hub.ctx(world, spec, party, Phase::Commit, None);
    assert_eq!(ctx.view, &expected, "{party}'s view at {at}");
}

#[test]
fn hub_views_match_per_party_cursor_views_on_an_adversarial_trace() {
    let spec = broker_spec();
    let plan = DealPlan::new(&spec).unwrap();
    let mut world = world_for_plan(&plan, NetworkModel::synchronous(100), 42).unwrap();

    let info = TimelockDealInfo {
        deal: spec.deal,
        plist: spec.parties.clone(),
        t0: Time(1_000),
        delta: Duration(100),
    };
    let tl = world
        .chain_mut(TICKETS)
        .unwrap()
        .install(TimelockManager::new(info.clone()));
    let esc = world
        .chain_mut(COINS)
        .unwrap()
        .install(EscrowManager::new(spec.deal, spec.parties.clone()));
    let tickets = Asset::non_fungible("ticket", [1, 2]);
    let coins = Asset::fungible("coin", 101);
    let one_coin = Asset::fungible("coin", 1);

    let mut hub = ObservationHub::new(&plan);
    let escrowed = [(TICKETS, BOB), (COINS, CAROL)];

    // --- Escrow, out of order across chains; alice polls eagerly, carol
    // --- only at the very end (one big batch vs many small ones).
    world
        .call(
            TICKETS,
            Owner::Party(BOB),
            tl,
            |m: &mut TimelockManager, c| m.escrow(c, tickets.clone()),
        )
        .unwrap();
    let only_bob = view(&[(TICKETS, BOB)], &[], &[], &[]);
    check(
        &world,
        &mut hub,
        &spec,
        ALICE,
        "after bob's escrow",
        only_bob,
    );
    world
        .call(
            COINS,
            Owner::Party(CAROL),
            esc,
            |m: &mut EscrowManager, c| m.escrow(c, coins.clone()),
        )
        .unwrap();
    let both = view(&escrowed, &[], &[], &[]);
    check(
        &world,
        &mut hub,
        &spec,
        ALICE,
        "after carol's escrow",
        both.clone(),
    );
    check(
        &world,
        &mut hub,
        &spec,
        BOB,
        "bob's first catch-up",
        both.clone(),
    );

    // --- A failed call leaves no log entry and must not desynchronize
    // --- anything: a stranger tries to escrow.
    assert!(world
        .call(
            COINS,
            Owner::Party(PartyId(9)),
            esc,
            |m: &mut EscrowManager, c| m.escrow(c, one_coin),
        )
        .is_err());
    check(&world, &mut hub, &spec, ALICE, "after failed escrow", both);

    // --- Tentative transfers interleaved across chains: coins first so the
    // --- later chain-ordered fold differs from arrival order.
    world
        .call(
            COINS,
            Owner::Party(CAROL),
            esc,
            |m: &mut EscrowManager, c| m.transfer(c, &coins, ALICE),
        )
        .unwrap();
    world
        .call(
            TICKETS,
            Owner::Party(BOB),
            tl,
            |m: &mut TimelockManager, c| m.transfer(c, &tickets, ALICE),
        )
        .unwrap();
    let sent = [(TICKETS, BOB), (COINS, CAROL)];
    let after_transfers = view(&escrowed, &sent, &[], &[]);
    check(
        &world,
        &mut hub,
        &spec,
        BOB,
        "after transfers",
        after_transfers,
    );
    world
        .call(
            TICKETS,
            Owner::Party(ALICE),
            tl,
            |m: &mut TimelockManager, c| m.transfer(c, &tickets, CAROL),
        )
        .unwrap();
    // Chain order: alice's forward on the ticket chain folds before carol's
    // coin transfer, although it happened later.
    let forwarded = [(TICKETS, BOB), (TICKETS, ALICE), (COINS, CAROL)];
    let after_forwarding = view(&escrowed, &forwarded, &[], &[]);
    check(
        &world,
        &mut hub,
        &spec,
        ALICE,
        "after forwarding",
        after_forwarding,
    );

    // --- Commit votes on the ticket chain; the third vote commits the
    // --- escrow, so one call yields both a vote and a resolution event.
    world.advance_to(Time(1_005));
    let after_each_vote = [
        view(&escrowed, &forwarded, &[ALICE], &[]),
        view(&escrowed, &forwarded, &[ALICE, BOB], &[]),
        view(
            &escrowed,
            &forwarded,
            &[ALICE, BOB, CAROL],
            &[(TICKETS, true)],
        ),
    ];
    for (&p, expected) in spec.parties.iter().zip(after_each_vote) {
        let key = *world.key_pair(p).unwrap();
        let vote = PathSignature::direct(p, &key, &info.vote_message(p));
        world
            .call(
                TICKETS,
                Owner::Party(p),
                tl,
                |m: &mut TimelockManager, c| m.commit(c, &vote),
            )
            .unwrap();
        check(&world, &mut hub, &spec, ALICE, "after a vote", expected);
    }

    // --- The coin escrow aborts: a refund on the other chain.
    world
        .call(
            COINS,
            Owner::Party(CAROL),
            esc,
            |m: &mut EscrowManager, c| m.force_abort(c),
        )
        .unwrap();

    // --- Final catch-up for everyone, including carol's single big batch.
    // --- Bob folded both transfers before alice forwarded, so his view
    // --- keeps arrival order across the two reads.
    let voted = [ALICE, BOB, CAROL];
    let resolved = [(TICKETS, true), (COINS, false)];
    let bob_order = [(TICKETS, BOB), (COINS, CAROL), (TICKETS, ALICE)];
    for (p, transfers) in [(ALICE, &forwarded), (BOB, &bob_order), (CAROL, &forwarded)] {
        let expected = view(&escrowed, transfers, &voted, &resolved);
        check(&world, &mut hub, &spec, p, "final", expected);
    }
    let ctx = hub.ctx(&world, &spec, CAROL, Phase::Commit, None);
    assert!(ctx.view.counterparty_escrows_locked(&spec, ALICE));
}

/// Foreign log entries (outside the deal vocabulary) are filtered out by the
/// hub's subscription: the view is blind to them.
#[test]
fn foreign_entries_are_skipped_identically() {
    use xchain_contracts::token::TokenContract;

    let spec = broker_spec();
    let plan = DealPlan::new(&spec).unwrap();
    let mut world = world_for_plan(&plan, NetworkModel::synchronous(100), 7).unwrap();

    // A token registry on a deal chain: its mint entries are log traffic
    // the deal views never ingest.
    let registry = world
        .chain_mut(TICKETS)
        .unwrap()
        .install(TokenContract::new("gold", "GLD", ALICE));
    world
        .call(
            TICKETS,
            Owner::Party(ALICE),
            registry,
            |r: &mut TokenContract, c| r.mint(c, BOB, 50),
        )
        .unwrap();
    let esc = world
        .chain_mut(TICKETS)
        .unwrap()
        .install(EscrowManager::new(spec.deal, spec.parties.clone()));
    let tickets = Asset::non_fungible("ticket", [1, 2]);
    world
        .call(
            TICKETS,
            Owner::Party(BOB),
            esc,
            |m: &mut EscrowManager, c| m.escrow(c, tickets),
        )
        .unwrap();

    let mut hub = ObservationHub::new(&plan);
    let expected = view(&[(TICKETS, BOB)], &[], &[], &[]);
    check(
        &world,
        &mut hub,
        &spec,
        ALICE,
        "after a mint and an escrow",
        expected,
    );
}
