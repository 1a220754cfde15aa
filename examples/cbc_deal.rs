//! A deal executed over the certified blockchain (CBC) while the network is
//! still asynchronous (before the global stabilization time), including the
//! block-proof resolution path and a censorship scenario — all through the
//! unified `Deal` builder. It asserts what it prints: the pre-GST deal
//! commits, block proofs commit it too at a higher signature cost, and the
//! censored deal aborts safely.
//!
//! Run with: `cargo run -p xchain-harness --example cbc_deal`

use xchain_deals::builders::ring_spec;
use xchain_deals::cbc::CbcOptions;
use xchain_deals::phases::Phase;
use xchain_deals::properties::{check_safety, check_weak_liveness};
use xchain_deals::{Deal, Protocol};
use xchain_sim::ids::{DealId, PartyId};
use xchain_sim::network::NetworkModel;

fn main() {
    // GST far in the future: every observation before it may take up to 3000
    // ticks even though ∆ = 100. The CBC protocol still commits safely.
    let network = NetworkModel::eventually_synchronous(1_000_000, 100, 3_000);
    let deal = Deal::new(ring_spec(DealId(21), 5)).network(network).seed(5);

    let run = deal
        .run(Protocol::Cbc(CbcOptions {
            f: 2,
            ..CbcOptions::default()
        }))
        .unwrap();
    let cert_sigs = run.outcome.metrics.gas(Phase::Commit).sig_verifications;
    println!(
        "pre-GST run:   status={:?} committed={} commit-phase signature verifications={cert_sigs}",
        run.ext.cbc_status().unwrap(),
        run.outcome.committed_everywhere()
    );
    println!(
        "  CBC log has {} certified blocks (f = 2, validators = 7)",
        run.ext.cbc_log().unwrap().len()
    );
    assert!(
        run.outcome.committed_everywhere(),
        "the pre-GST deal commits"
    );

    // The same deal, resolved with full block-range proofs instead of status
    // certificates: same outcome, more signature verifications (every block
    // of the proof costs 2f + 1 of them).
    let opts = CbcOptions {
        f: 2,
        use_block_proofs: true,
        ..CbcOptions::default()
    };
    let run_proofs = deal.run(Protocol::Cbc(opts)).unwrap();
    let proof_sigs = run_proofs
        .outcome
        .metrics
        .gas(Phase::Commit)
        .sig_verifications;
    println!(
        "block proofs:  committed={} commit-phase signature verifications={proof_sigs}",
        run_proofs.outcome.committed_everywhere(),
    );
    assert!(
        run_proofs.outcome.committed_everywhere(),
        "the block-proof run commits"
    );
    assert!(
        proof_sigs > cert_sigs,
        "block proofs cost more signature verifications than certificates"
    );

    // Censorship: the validators ignore party 3's submissions. The deal can no
    // longer commit, but it aborts everywhere and nobody loses assets.
    let deal = Deal::new(ring_spec(DealId(21), 5)).network(network).seed(7);
    let opts = CbcOptions {
        f: 2,
        censored_parties: vec![PartyId(3)],
        ..CbcOptions::default()
    };
    let censored = deal.run(Protocol::Cbc(opts)).unwrap();
    println!(
        "censorship:    aborted={} safety={} weak-liveness={}",
        censored.outcome.aborted_everywhere(),
        check_safety(deal.spec(), &[], &censored.outcome).holds(),
        check_weak_liveness(deal.spec(), &[], &censored.outcome),
    );
    assert!(
        censored.outcome.aborted_everywhere(),
        "the censored deal aborts"
    );
    assert!(
        check_safety(deal.spec(), &[], &censored.outcome).holds(),
        "the censored deal aborts safely"
    );
}
