//! Microbenchmarks of the protocol building blocks: escrow/transfer contract
//! calls (Figure 3), the strategy-context layer of a Figure 7 ring deal,
//! path-signature verification (Figure 5), CBC certificate verification
//! (Figure 6), and the well-formedness check (Section 5.1).
//!
//! Run with: `cargo bench -p xchain-bench --bench protocol_micro`

use xchain_bench::measure;
use xchain_bft::log::CbcLog;
use xchain_deals::builders::{broker_spec, ring_spec};
use xchain_deals::digraph::DealDigraph;
use xchain_deals::party::PartyConfig;
use xchain_deals::phases::Phase;
use xchain_deals::strategy::strategies;
use xchain_deals::{Deal, Protocol};
use xchain_sim::crypto::{hash_words, KeyDirectory, KeyPair, PathSignature};
use xchain_sim::ids::{DealId, PartyId};
use xchain_sim::network::NetworkModel;
use xchain_sim::time::Time;

fn main() {
    println!("protocol_micro");

    // Figure 3: one full broker deal (escrow + transfer heavy).
    let deal = Deal::new(broker_spec())
        .network(NetworkModel::synchronous(100))
        .seed(3);
    measure("protocol_micro/fig3_broker_deal_timelock", 100, || {
        deal.run(Protocol::timelock()).unwrap()
    });

    // Figure 7: one ring-9 deal under forwarded timelock, all compliant
    // (decided without views, no observation hub) and with every party
    // `crash_after(Commit)`, which answers every hook compliantly but is
    // classed as deviating, so each decision folds the party's view. Same
    // outcome; the difference is the cost of the views.
    let ring9 = ring_spec(DealId(9), 9);
    let deviating: Vec<PartyConfig> = ring9
        .parties
        .iter()
        .map(|&p| PartyConfig::with_strategy(p, strategies::crash_after(Phase::Commit)))
        .collect();
    let ring_deal = |configs: &[PartyConfig]| {
        Deal::new(ring9.clone())
            .network(NetworkModel::synchronous(100))
            .parties(configs)
            .seed(7)
    };
    let (without_views, with_views) = (ring_deal(&[]), ring_deal(&deviating));
    let outcome = |deal: &Deal| format!("{:?}", deal.run(Protocol::timelock()).unwrap().outcome);
    assert_eq!(outcome(&without_views), outcome(&with_views));
    for (label, deal) in [("no_views", &without_views), ("all_views", &with_views)] {
        measure(
            &format!("protocol_micro/fig7_ring9_timelock/{label}"),
            100,
            || deal.run(Protocol::timelock()).unwrap(),
        );
    }

    // Figure 5: verifying a forwarded path signature of length k as the
    // timelock contract does: hash the vote message once, then per signature
    // look up the signer's key and run `CallCtx::verify_signature`'s signer
    // check and digest verification.
    for k in [1usize, 4, 8] {
        let mut dir = KeyDirectory::new();
        let keys: Vec<KeyPair> = (0..k as u32)
            .map(|i| {
                let kp = KeyPair::derive(PartyId(i), 7);
                dir.register(PartyId(i), &kp);
                kp
            })
            .collect();
        let msg = [0xC0717u64, 1, 0];
        let mut path = PathSignature::direct(PartyId(0), &keys[0], &msg);
        for (i, key) in keys.iter().enumerate().skip(1) {
            path = path.forwarded_by(PartyId(i as u32), key, &msg);
        }
        measure(
            &format!("protocol_micro/fig5_path_signature_verify/{k}"),
            1_000,
            || {
                assert!(path.signers_unique());
                let digest = hash_words(&msg);
                for (p, sig) in &path.path {
                    let pk = dir.public_key_of(*p).unwrap();
                    assert!(sig.signer == pk && dir.verify_digest(sig, digest));
                }
            },
        );
    }

    // Figure 6: issuing and verifying a status certificate for varying f.
    for f in [1usize, 3, 5] {
        let mut cbc = CbcLog::new(f, 9);
        let plist: Vec<PartyId> = (0..3).map(PartyId).collect();
        let (_, h) = cbc
            .start_deal(Time(0), plist[0], DealId(1), plist.clone())
            .unwrap();
        for (i, p) in plist.iter().enumerate() {
            cbc.vote_commit(Time(i as u64 + 1), DealId(1), h, *p)
                .unwrap();
        }
        let mut dir = KeyDirectory::new();
        cbc.validators().register_in(&mut dir);
        measure(
            &format!("protocol_micro/fig6_status_certificate/{f}"),
            500,
            || {
                let cert = cbc.status_certificate(Time(10), DealId(1), h).unwrap();
                assert!(cert.verify(&cbc.validators().info(), &dir));
            },
        );
    }

    // Section 5.1: strong-connectivity check on large rings.
    for n in [10u32, 100, 500] {
        let spec = ring_spec(DealId(n as u64), n);
        measure(
            &format!("protocol_micro/well_formedness_scc/{n}"),
            200,
            || DealDigraph::from_spec(&spec).is_strongly_connected(),
        );
    }
}
