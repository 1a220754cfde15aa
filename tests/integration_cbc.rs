//! Integration tests: the CBC commit protocol end-to-end, driven through the
//! unified `Deal` builder API.

use xchain_deals::builders::{auction_spec, broker_spec, brokered_chain_spec, ring_spec};
use xchain_deals::cbc::CbcOptions;
use xchain_deals::party::PartyConfig;
use xchain_deals::phases::Phase;
use xchain_deals::properties::{check_safety, check_strong_liveness, check_weak_liveness};
use xchain_deals::strategy::strategies;
use xchain_deals::{ChainResolution, Deal, Protocol};
use xchain_sim::gas::GasUsage;
use xchain_sim::ids::{DealId, Owner, PartyId};
use xchain_sim::network::NetworkModel;

#[test]
fn broker_deal_commits_under_cbc() {
    let deal = Deal::new(broker_spec())
        .network(NetworkModel::synchronous(100))
        .seed(1);
    let run = deal.run(Protocol::cbc()).unwrap();
    assert!(run.ext.cbc_status().unwrap().is_committed());
    assert!(run.outcome.committed_everywhere());
    assert!(check_strong_liveness(deal.spec(), &[], &run.outcome));
}

#[test]
fn cbc_commits_or_aborts_everywhere_never_mixed() {
    // The key CBC guarantee the timelock protocol lacks: the deal either
    // commits everywhere or aborts everywhere, for any single deviator.
    let spec = ring_spec(DealId(2), 4);
    let deviations = [
        strategies::refuse_escrow(),
        strategies::skip_transfers(),
        strategies::withhold_vote(),
        strategies::vote_abort(),
        strategies::reject_validation(),
        strategies::crash_after(Phase::Transfer),
    ];
    for &p in &spec.parties {
        for d in &deviations {
            let configs = vec![PartyConfig::with_strategy(p, d.clone())];
            let run = Deal::new(spec.clone())
                .network(NetworkModel::synchronous(100))
                .parties(&configs)
                .seed(7)
                .run(Protocol::cbc())
                .unwrap();
            assert!(
                run.outcome.committed_everywhere() || run.outcome.aborted_everywhere(),
                "mixed outcome for {p} with {d:?}"
            );
            assert!(check_safety(&spec, &configs, &run.outcome).holds());
            assert!(check_weak_liveness(&spec, &configs, &run.outcome));
        }
    }
}

#[test]
fn cbc_works_during_asynchrony_before_gst() {
    let spec = auction_spec(DealId(3), &[40, 70, 55]);
    let network = NetworkModel::eventually_synchronous(10_000_000, 100, 5_000);
    let run = Deal::new(spec.clone())
        .network(network)
        .seed(4)
        .run(Protocol::Cbc(CbcOptions {
            f: 2,
            ..CbcOptions::default()
        }))
        .unwrap();
    assert!(run.outcome.committed_everywhere());
    assert!(check_safety(&spec, &[], &run.outcome).holds());
}

#[test]
fn auction_winner_gets_ticket_and_losers_are_refunded() {
    let run = Deal::new(auction_spec(DealId(4), &[80, 95]))
        .network(NetworkModel::synchronous(100))
        .seed(5)
        .run(Protocol::cbc())
        .unwrap();
    assert!(run.outcome.committed_everywhere());
    assert_eq!(
        run.world
            .holdings(Owner::Party(PartyId(0)))
            .balance(&"coin".into()),
        95
    );
    assert_eq!(
        run.world
            .holdings(Owner::Party(PartyId(1)))
            .balance(&"coin".into()),
        80
    );
    assert!(run
        .world
        .holdings(Owner::Party(PartyId(2)))
        .contains(&xchain_sim::asset::Asset::non_fungible("ticket", [1])));
}

#[test]
fn block_proof_resolution_matches_certificate_resolution() {
    let deal = Deal::new(broker_spec())
        .network(NetworkModel::synchronous(100))
        .seed(6);
    let with_cert = deal.run(Protocol::cbc()).unwrap();
    let with_proof = deal
        .run(Protocol::Cbc(CbcOptions {
            use_block_proofs: true,
            ..CbcOptions::default()
        }))
        .unwrap();
    assert_eq!(
        with_cert.outcome.committed_everywhere(),
        with_proof.outcome.committed_everywhere()
    );
    // Same resolution, higher verification cost.
    assert!(
        with_proof
            .outcome
            .metrics
            .gas(Phase::Commit)
            .sig_verifications
            > with_cert
                .outcome
                .metrics
                .gas(Phase::Commit)
                .sig_verifications
    );
}

#[test]
fn censorship_can_only_abort_never_steal() {
    let spec = broker_spec();
    for censored in [PartyId(0), PartyId(1), PartyId(2)] {
        let opts = CbcOptions {
            censored_parties: vec![censored],
            ..CbcOptions::default()
        };
        let run = Deal::new(spec.clone())
            .network(NetworkModel::synchronous(100))
            .seed(8)
            .run(Protocol::Cbc(opts))
            .unwrap();
        assert!(run.outcome.aborted_everywhere(), "censoring {censored}");
        assert!(check_safety(&spec, &[], &run.outcome).holds());
    }
}

#[test]
fn higher_f_costs_more_commit_gas() {
    let deal = Deal::new(broker_spec())
        .network(NetworkModel::synchronous(100))
        .seed(9);
    let mut sigs = Vec::new();
    for f in [1usize, 3, 5] {
        let run = deal
            .run(Protocol::Cbc(CbcOptions {
                f,
                ..CbcOptions::default()
            }))
            .unwrap();
        assert!(run.outcome.committed_everywhere());
        sigs.push(run.outcome.metrics.gas(Phase::Commit).sig_verifications);
    }
    assert!(sigs[0] < sigs[1] && sigs[1] < sigs[2], "{sigs:?}");
    // Exactly m * (2f+1): 2 assets.
    assert_eq!(sigs[0], 2 * 3);
    assert_eq!(sigs[2], 2 * 11);
}

/// One side of a commit-phase pin: the full commit-phase gas, the commit
/// duration in ticks and each chain's resolution, in chain order.
type CommitPin = (GasUsage, u64, Vec<ChainResolution>);

fn commit_pin(deal: &Deal, opts: CbcOptions) -> CommitPin {
    let run = deal.run(Protocol::Cbc(opts)).unwrap();
    let metrics = &run.outcome.metrics;
    (
        metrics.gas(Phase::Commit),
        metrics.duration(Phase::Commit).0,
        run.outcome.resolutions.values().copied().collect(),
    )
}

/// Commit-phase gas with no storage reads (no contract charges one).
fn gas(storage_writes: u64, sigs: u64, log_entries: u64, steps: u64, calls: u64) -> GasUsage {
    GasUsage {
        storage_writes,
        storage_reads: 0,
        sig_verifications: sigs,
        log_entries,
        compute_steps: steps,
        calls,
    }
}

/// The commit phase of five deals, resolved once with status certificates
/// and once with block proofs. No golden sweep or benchmark workload runs
/// the block-proof path, so this table is what pins its gas: each block of
/// the proof costs its 2f + 1 signature checks, while a certificate costs
/// 2f + 1 checks and Figure 6's `require`s per chain.
#[test]
fn commit_phase_gas_is_pinned_on_both_proof_paths() {
    use ChainResolution::{Aborted, Committed};
    let sync = NetworkModel::synchronous(100);
    let broker = Deal::new(broker_spec()).network(sync).seed(1);
    let withholding = [PartyConfig::with_strategy(
        PartyId(1),
        strategies::withhold_vote(),
    )];
    let f2 = CbcOptions {
        f: 2,
        ..CbcOptions::default()
    };
    let cases: [(&str, Deal, CbcOptions, CommitPin, CommitPin); 5] = [
        (
            "broker, f = 1",
            broker.clone(),
            CbcOptions::default(),
            (gas(8, 6, 2, 32, 2), 70, vec![Committed; 2]),
            (gas(8, 24, 2, 8, 2), 70, vec![Committed; 2]),
        ),
        (
            "brokered chain, n = 9, f = 2",
            Deal::new(brokered_chain_spec(DealId(9_001), 9, 100))
                .network(sync)
                .seed(2),
            f2.clone(),
            (gas(40, 40, 8, 176, 8), 117, vec![Committed; 8]),
            (gas(40, 400, 8, 32, 8), 117, vec![Committed; 8]),
        ),
        (
            "pre-GST ring-5, f = 2",
            Deal::new(ring_spec(DealId(21), 5))
                .network(NetworkModel::eventually_synchronous(1_000_000, 100, 3_000))
                .seed(5),
            f2,
            (gas(15, 25, 5, 110, 5), 4910, vec![Committed; 5]),
            (gas(15, 150, 5, 20, 5), 4910, vec![Committed; 5]),
        ),
        (
            "broker, withheld vote",
            broker.clone().parties(&withholding),
            CbcOptions::default(),
            (gas(6, 6, 2, 32, 2), 370, vec![Aborted; 2]),
            (gas(6, 24, 2, 8, 2), 370, vec![Aborted; 2]),
        ),
        (
            "broker, censored party",
            broker,
            CbcOptions {
                censored_parties: vec![PartyId(1)],
                ..CbcOptions::default()
            },
            (gas(6, 6, 2, 32, 2), 370, vec![Aborted; 2]),
            (gas(6, 24, 2, 8, 2), 370, vec![Aborted; 2]),
        ),
    ];
    for (name, deal, opts, cert, proof) in cases {
        assert_eq!(
            commit_pin(&deal, opts.clone()),
            cert,
            "{name}, certificates"
        );
        let proofs = CbcOptions {
            use_block_proofs: true,
            ..opts
        };
        assert_eq!(commit_pin(&deal, proofs), proof, "{name}, block proofs");
    }
}
