//! Property-style integration tests: randomly generated well-formed deals,
//! random deviation assignments and random network seeds must never violate
//! safety, weak liveness, or asset conservation.
//!
//! The build environment has no crates.io access, so instead of `proptest`
//! these tests draw their cases from the workspace's deterministic `StdRng`:
//! same coverage style (random shapes and behaviours), fully reproducible
//! failures (the case seed is in every assertion message).

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xchain_deals::cbc::CbcOptions;
use xchain_deals::party::PartyConfig;
use xchain_deals::phases::Phase;
use xchain_deals::properties::{
    check_conservation, check_safety, check_strong_liveness, check_weak_liveness,
};
use xchain_deals::strategy::{strategies, Strategy};
use xchain_deals::{Deal, Protocol};
use xchain_harness::workload::{random_well_formed_deal, ring_spec, RandomDealParams};
use xchain_sim::ids::{DealId, PartyId};
use xchain_sim::network::NetworkModel;
use xchain_sim::time::Duration;
use xchain_swap::SwapEngine;

const CASES: u64 = 24;

fn deviation_pool() -> Vec<Arc<dyn Strategy>> {
    vec![
        strategies::compliant(),
        strategies::refuse_escrow(),
        strategies::skip_transfers(),
        strategies::withhold_vote(),
        strategies::never_forward(),
        strategies::vote_abort(),
        strategies::reject_validation(),
        strategies::crash_after(Phase::Escrow),
        strategies::crash_after(Phase::Transfer),
        strategies::crash_after(Phase::Validation),
    ]
}

/// One randomly drawn case: a well-formed deal plus deviation assignments.
struct Case {
    spec: xchain_deals::spec::DealSpec,
    configs: Vec<PartyConfig>,
    seed: u64,
}

fn draw_case(case: u64, max_parties: u32, with_deviations: bool) -> Case {
    let mut rng = StdRng::seed_from_u64(0xCA5E ^ case);
    let parties = rng.gen_range(2..max_parties);
    let extra = rng.gen_range(0..3u32);
    let seed = rng.gen_range(0..10_000u64);
    let spec = random_well_formed_deal(
        DealId(seed),
        &RandomDealParams {
            parties,
            extra_transfers: extra,
            amount: 60,
        },
        seed,
    );
    let pool = deviation_pool();
    let mut configs = Vec::new();
    if with_deviations {
        let n_configs = rng.gen_range(0..6usize);
        for i in 0..n_configs.min(parties as usize) {
            let d = pool[rng.gen_range(0..pool.len())].clone();
            configs.push(PartyConfig::with_strategy(PartyId(i as u32), d));
        }
    }
    Case {
        spec,
        configs,
        seed,
    }
}

#[test]
fn timelock_safety_holds_for_random_deals_and_deviations() {
    for case in 0..CASES {
        let c = draw_case(case, 6, true);
        let run = Deal::new(c.spec.clone())
            .network(NetworkModel::synchronous(100))
            .parties(&c.configs)
            .seed(c.seed)
            .run(Protocol::timelock())
            .unwrap();
        let report = check_safety(&c.spec, &c.configs, &run.outcome);
        assert!(
            report.holds(),
            "case {case} (seed {}): violations: {:?}",
            c.seed,
            report.violations
        );
        assert!(
            check_weak_liveness(&c.spec, &c.configs, &run.outcome),
            "case {case} (seed {})",
            c.seed
        );
        assert!(
            check_conservation(&c.spec, &run.outcome),
            "case {case} (seed {})",
            c.seed
        );
    }
}

#[test]
fn cbc_safety_and_atomicity_hold_for_random_deals_and_deviations() {
    for case in 0..CASES {
        let c = draw_case(case, 6, true);
        let mut rng = StdRng::seed_from_u64(0xF ^ case);
        let f = rng.gen_range(1..4usize);
        let run = Deal::new(c.spec.clone())
            .network(NetworkModel::synchronous(100))
            .parties(&c.configs)
            .seed(c.seed)
            .run(Protocol::Cbc(CbcOptions {
                f,
                ..CbcOptions::default()
            }))
            .unwrap();
        assert!(
            check_safety(&c.spec, &c.configs, &run.outcome).holds(),
            "case {case} (seed {})",
            c.seed
        );
        assert!(check_weak_liveness(&c.spec, &c.configs, &run.outcome));
        assert!(check_conservation(&c.spec, &run.outcome));
        // CBC atomicity: there is never a mixed outcome where one chain
        // commits and another aborts. (If every party deviates by walking
        // away, the deal may simply remain undecided — nobody is harmed.)
        let any_committed = run
            .outcome
            .resolutions
            .values()
            .any(|r| *r == xchain_deals::outcome::ChainResolution::Committed);
        let any_aborted = run
            .outcome
            .resolutions
            .values()
            .any(|r| *r == xchain_deals::outcome::ChainResolution::Aborted);
        assert!(
            !(any_committed && any_aborted),
            "case {case} (seed {}): mixed outcome",
            c.seed
        );
    }
}

#[test]
fn all_compliant_random_deals_always_commit() {
    for case in 0..CASES {
        let c = draw_case(case, 7, false);
        let run = Deal::new(c.spec.clone())
            .network(NetworkModel::synchronous(100))
            .seed(c.seed)
            .run(Protocol::timelock())
            .unwrap();
        assert!(
            run.outcome.committed_everywhere(),
            "case {case} (seed {})",
            c.seed
        );
        assert!(
            check_strong_liveness(&c.spec, &[], &run.outcome),
            "case {case} (seed {})",
            c.seed
        );
    }
}

/// Negative control: the safety checker can fail. The HTLC swap's
/// asymmetric timeouts assume every message arrives within ∆ (Section 8);
/// before the GST of an eventually synchronous network that assumption
/// breaks, and at this seed a compliant party loses its asset with nobody
/// deviating (54 of seeds 0–1,999 do; 158 is the first). The timelock and
/// CBC engines stay safe on the same deal, network and seed.
#[test]
fn safety_checker_flags_the_swap_losing_synchrony() {
    let deal = Deal::new(ring_spec(DealId(2), 2))
        .network(NetworkModel::eventually_synchronous(500, 100, 1_000))
        .seed(158);
    let swap = deal.run(SwapEngine::new(Duration(100))).unwrap();
    assert!(
        !check_safety(deal.spec(), deal.configs(), &swap.outcome).holds(),
        "the swap should violate safety at seed 158"
    );
    for protocol in [Protocol::timelock(), Protocol::cbc()] {
        let run = deal.run(protocol.clone()).unwrap();
        assert!(
            check_safety(deal.spec(), deal.configs(), &run.outcome).holds(),
            "{protocol:?} should stay safe"
        );
    }
}
