//! Property-style integration tests: randomly generated well-formed deals,
//! random deviation assignments and random network seeds must never violate
//! safety, weak liveness, or asset conservation.
//!
//! The build environment has no crates.io access, so instead of `proptest`
//! these tests draw their cases from the workspace's deterministic `StdRng`:
//! same coverage style (random shapes and behaviours), fully reproducible
//! failures (the case seed is in every assertion message).

use std::collections::BTreeMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xchain_deals::builders::{auction_spec, broker_spec, brokered_chain_spec};
use xchain_deals::cbc::CbcOptions;
use xchain_deals::outcome::{ChainResolution, DealOutcome};
use xchain_deals::party::PartyConfig;
use xchain_deals::phases::Phase;
use xchain_deals::properties::{
    check_conservation, check_safety, check_strong_liveness, check_weak_liveness,
};
use xchain_deals::spec::DealSpec;
use xchain_deals::strategy::{strategies, Strategy};
use xchain_deals::{Deal, Protocol};
use xchain_harness::adversary::strategy_scenarios;
use xchain_harness::sweep::{standard_engines, Sweep};
use xchain_harness::workload::{random_well_formed_deal, ring_spec, RandomDealParams};
use xchain_sim::asset::Asset;
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

/// The bag-arithmetic checks the property checkers were first written as,
/// kept here as the reference the scan-cost checks must agree with: the
/// same verdicts and, for safety, the same violations word for word.
mod reference {
    use xchain_deals::outcome::{ChainResolution, DealOutcome};
    use xchain_deals::party::{config_of, PartyConfig};
    use xchain_deals::properties::{SafetyReport, SafetyViolation};
    use xchain_deals::spec::DealSpec;
    use xchain_sim::asset::{AssetBag, AssetKind};
    use xchain_sim::ids::{PartyId, TokenId};

    fn full_deal(spec: &DealSpec, p: PartyId, initial: &AssetBag, outgoing: &AssetBag) -> AssetBag {
        let mut with_incoming = initial.clone();
        for t in spec.transfers.iter().filter(|t| t.to == p) {
            with_incoming.add(&t.asset);
        }
        with_incoming.minus(outgoing)
    }

    pub fn check_safety(
        spec: &DealSpec,
        configs: &[PartyConfig],
        outcome: &DealOutcome,
    ) -> SafetyReport {
        let mut report = SafetyReport::default();
        for &p in &spec.parties {
            if !config_of(configs, p).is_compliant() {
                continue;
            }
            let initial = outcome.initial_of(p);
            let fin = outcome.final_of(p);
            let lost = initial.minus(fin);
            let expected_out = spec.outgoing_of(p);
            if !lost.is_empty() {
                let floor = full_deal(spec, p, initial, &expected_out);
                if !fin.covers(&floor) {
                    report.violations.push(SafetyViolation {
                        party: p,
                        detail: format!(
                            "paid {lost} but ended with {fin}, below the full-deal floor {floor}"
                        ),
                    });
                }
            }
            if !expected_out.covers(&lost) {
                report.violations.push(SafetyViolation {
                    party: p,
                    detail: format!(
                        "relinquished {lost}, more than the agreed outgoing assets {expected_out}"
                    ),
                });
            }
        }
        report
    }

    pub fn check_weak_liveness(
        spec: &DealSpec,
        configs: &[PartyConfig],
        outcome: &DealOutcome,
    ) -> bool {
        for e in &spec.escrows {
            if !config_of(configs, e.owner).is_compliant() {
                continue;
            }
            match outcome.resolutions.get(&e.chain) {
                Some(ChainResolution::Unresolved) | None => return false,
                _ => {}
            }
        }
        true
    }

    pub fn check_strong_liveness(
        spec: &DealSpec,
        configs: &[PartyConfig],
        outcome: &DealOutcome,
    ) -> bool {
        let all_compliant = spec
            .parties
            .iter()
            .all(|p| config_of(configs, *p).is_compliant());
        if !all_compliant {
            return true;
        }
        spec.parties.iter().all(|&p| {
            let fin = outcome.final_of(p);
            let expected = full_deal(spec, p, outcome.initial_of(p), &spec.outgoing_of(p));
            fin.covers(&expected) && expected.covers(fin)
        })
    }

    pub fn check_conservation(spec: &DealSpec, outcome: &DealOutcome) -> bool {
        if !outcome.fully_resolved() {
            return true;
        }
        let escrowed = |kind: &AssetKind| spec.escrows.iter().position(|e| e.asset.kind() == kind);
        let supply = |holdings: fn(&DealOutcome, PartyId) -> &AssetBag| {
            let mut fungible = vec![0u128; spec.escrows.len()];
            let mut tokens: Vec<(usize, TokenId)> = Vec::new();
            for &p in &spec.parties {
                let bag = holdings(outcome, p);
                for (kind, amount) in bag.fungible_holdings() {
                    if let Some(i) = escrowed(kind) {
                        fungible[i] += u128::from(amount);
                    }
                }
                for (kind, held) in bag.non_fungible_holdings() {
                    if let Some(i) = escrowed(kind) {
                        tokens.extend(held.iter().map(|&t| (i, t)));
                    }
                }
            }
            tokens.sort_unstable();
            (fungible, tokens)
        };
        supply(DealOutcome::initial_of) == supply(DealOutcome::final_of)
    }
}

/// Outcomes derived from an executed one by a single edit of its
/// holdings or resolutions, each a way a broken engine could end a deal:
/// nothing moves; two parties end with each other's holdings; one asset a
/// transfer moves vanishes; a received asset lands with another party; a
/// party gains an escrowed asset from nowhere or loses one it also held; a
/// party starts without an asset it escrows; a token shows up twice or is
/// swapped for one nobody held; a chain is left unresolved.
fn mutations(spec: &DealSpec, outcome: &DealOutcome) -> Vec<DealOutcome> {
    let mut out = Vec::new();
    let mut edit = |f: &mut dyn FnMut(&mut DealOutcome) -> bool| {
        let mut o = outcome.clone();
        if f(&mut o) {
            out.push(o);
        }
    };
    let parties = &spec.parties;
    let n = parties.len();

    // Nothing moves: every final bag is the initial one.
    edit(&mut |o| {
        o.final_holdings = o.initial_holdings.clone();
        true
    });
    // Two parties swap their final holdings.
    for i in 0..n {
        let (p, q) = (parties[i], parties[(i + 1) % n]);
        if p != q {
            edit(&mut |o| {
                let a = o.final_holdings.remove(&p).unwrap_or_default();
                let b = o.final_holdings.remove(&q).unwrap_or_default();
                o.final_holdings.insert(p, b);
                o.final_holdings.insert(q, a);
                true
            });
        }
    }
    for (i, t) in spec.transfers.iter().enumerate() {
        // One moved asset vanishes from whoever holds it.
        edit(&mut |o| {
            [t.from, t.to].into_iter().any(|p| {
                o.final_holdings
                    .get_mut(&p)
                    .is_some_and(|bag| bag.remove(&t.asset))
            })
        });
        // A received asset is diverted to another party.
        let other = (1..n).map(|k| parties[(i + k) % n]).find(|&q| q != t.to);
        if let Some(other) = other {
            edit(&mut |o| {
                let taken = o
                    .final_holdings
                    .get_mut(&t.to)
                    .is_some_and(|bag| bag.remove(&t.asset));
                if taken {
                    o.final_holdings.entry(other).or_default().add(&t.asset);
                }
                taken
            });
        }
    }
    // A party gains an escrowed asset from nowhere, or loses one it held
    // at the start besides what the deal moves.
    for (i, &p) in parties.iter().enumerate() {
        if let Some(e) = spec.escrows.get(i % spec.escrows.len().max(1)) {
            edit(&mut |o| {
                o.final_holdings.entry(p).or_default().add(&e.asset);
                true
            });
            edit(&mut |o| {
                o.initial_holdings.entry(p).or_default().add(&e.asset);
                true
            });
        }
    }
    // A party starts without an asset it escrows, so the deal takes more
    // from it than it held.
    for e in &spec.escrows {
        edit(&mut |o| {
            o.initial_holdings
                .get_mut(&e.owner)
                .is_some_and(|bag| bag.remove(&e.asset))
        });
    }
    // A token one party holds also shows up in the next party's bag, or
    // turns into a token nobody held.
    for i in 0..n {
        let (p, q) = (parties[i], parties[(i + 1) % n]);
        let token = outcome
            .final_of(p)
            .non_fungible_holdings()
            .find_map(|(kind, held)| {
                held.iter()
                    .next()
                    .map(|t| Asset::non_fungible(kind.clone(), [t.0]))
            });
        if let Some(token) = token {
            if p != q {
                edit(&mut |o| {
                    o.final_holdings.entry(q).or_default().add(&token);
                    true
                });
            }
            let forged = Asset::non_fungible(token.kind().clone(), [u64::MAX]);
            edit(&mut |o| {
                let bag = o.final_holdings.entry(p).or_default();
                bag.remove(&token);
                bag.add(&forged);
                true
            });
        }
    }
    // One chain never resolves.
    for &chain in outcome.resolutions.keys() {
        edit(&mut |o| {
            o.resolutions.insert(chain, ChainResolution::Unresolved);
            true
        });
    }
    out
}

/// The four checks agree with the reference bag arithmetic on every point
/// of a strategy sweep (builder and random specs × the three engines × both
/// networks × every built-in strategy; the two specs that outgrow the
/// checks' stack tables only all compliant and with one deviator) and on
/// every mutation of each point:
/// the same verdicts, and for safety the same violations in the same words.
/// Each verdict of each check turns up at least 100 times, so both sides of
/// every check are exercised.
#[test]
fn checks_match_the_reference_bag_arithmetic_on_every_point_and_mutation() {
    let mut specs = vec![
        ("broker".to_string(), broker_spec()),
        ("ring n=2".to_string(), ring_spec(DealId(2), 2)),
        ("ring n=3".to_string(), ring_spec(DealId(3), 3)),
        ("ring n=5".to_string(), ring_spec(DealId(5), 5)),
        ("auction".to_string(), auction_spec(DealId(4), &[30, 55])),
        (
            "brokered chain n=4".to_string(),
            brokered_chain_spec(DealId(5), 4, 100),
        ),
    ];
    // Larger than the checks' stack tables: the broker has 9 kinds in
    // play, and the ring escrows 17 kinds.
    specs.push((
        "brokered chain n=10".to_string(),
        brokered_chain_spec(DealId(6), 10, 100),
    ));
    specs.push(("ring n=17".to_string(), ring_spec(DealId(17), 17)));
    for seed in 0..8u64 {
        let params = RandomDealParams {
            parties: 2 + (seed % 4) as u32,
            extra_transfers: (seed % 3) as u32,
            amount: 60,
        };
        specs.push((
            format!("random #{seed}"),
            random_well_formed_deal(DealId(100 + seed), &params, seed * 31 + 5),
        ));
    }
    let outcome = Sweep::new()
        .over_specs(specs)
        .over_protocols(standard_engines(100))
        .over_networks(vec![
            ("sync".into(), NetworkModel::synchronous(100)),
            (
                "eventually sync".into(),
                NetworkModel::eventually_synchronous(300, 100, 600),
            ),
        ])
        .over_adversaries(|spec| {
            let mut scenarios = strategy_scenarios(spec, 100);
            if spec.parties.len() > 5 {
                scenarios.truncate(2);
            }
            scenarios
        })
        .seed(2021)
        .threads(2)
        .run()
        .unwrap();

    let mut verdicts: BTreeMap<&str, usize> = BTreeMap::new();
    let mut outcomes = 0usize;
    for p in &outcome.points {
        let (spec, configs) = (&p.deal, &p.configs);
        let mut all = mutations(spec, &p.run.outcome);
        all.push(p.run.outcome.clone());
        for o in &all {
            let case = format!(
                "{} / {} / {} / {} (seed {})",
                p.spec, p.engine, p.network, p.adversary, p.seed
            );
            let safety = check_safety(spec, configs, o);
            assert_eq!(
                safety,
                reference::check_safety(spec, configs, o),
                "{case}: safety"
            );
            let weak = check_weak_liveness(spec, configs, o);
            assert_eq!(
                weak,
                reference::check_weak_liveness(spec, configs, o),
                "{case}: weak liveness"
            );
            let strong = check_strong_liveness(spec, configs, o);
            assert_eq!(
                strong,
                reference::check_strong_liveness(spec, configs, o),
                "{case}: strong liveness"
            );
            let conserved = check_conservation(spec, o);
            assert_eq!(
                conserved,
                reference::check_conservation(spec, o),
                "{case}: conservation"
            );
            let all_compliant = spec
                .parties
                .iter()
                .all(|&q| configs.iter().all(|c| c.id != q || c.is_compliant()));
            for (class, seen) in [
                ("safety holds", safety.holds()),
                ("safety violated", !safety.holds()),
                (
                    "safety: below the floor",
                    safety
                        .violations
                        .iter()
                        .any(|v| v.detail.contains("below the full-deal floor")),
                ),
                (
                    "safety: more than agreed",
                    safety
                        .violations
                        .iter()
                        .any(|v| v.detail.contains("more than the agreed")),
                ),
                ("weak liveness holds", weak),
                ("weak liveness violated", !weak),
                ("strong liveness holds", all_compliant && strong),
                ("strong liveness violated", !strong),
                ("conserved", o.fully_resolved() && conserved),
                ("not conserved", !conserved),
            ] {
                *verdicts.entry(class).or_default() += usize::from(seen);
            }
            outcomes += 1;
        }
    }
    for class in [
        "safety holds",
        "safety violated",
        "safety: below the floor",
        "safety: more than agreed",
        "weak liveness holds",
        "weak liveness violated",
        "strong liveness holds",
        "strong liveness violated",
        "conserved",
        "not conserved",
    ] {
        let seen = verdicts.get(class).copied().unwrap_or(0);
        assert!(
            seen >= 100,
            "{class}: {seen} of {outcomes} outcomes ({verdicts:?})"
        );
    }
}
