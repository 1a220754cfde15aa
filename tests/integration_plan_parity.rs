//! Plan parity: executing through pre-resolved [`DealPlan`]s (the sweep
//! path — one plan per spec, shared by every world that runs it) must
//! produce *exactly* the outcomes of resolving everything per run (the
//! `Deal::run` path, whose plan is rebuilt from the spec every call). The
//! plan layer is a representation change, not a semantic one.

use xchain_deals::builders::{
    auction_spec, broker_spec, broker_spec_with, brokered_chain_spec, ring_spec,
};
use xchain_deals::plan::DealPlan;
use xchain_deals::spec::{DealSpec, EscrowSpec, TransferSpec};
use xchain_deals::validation::expected_on_chain;
use xchain_deals::{Deal, DealError, DealRun, Protocol};
use xchain_harness::adversary::single_deviator_configs;
use xchain_harness::sweep::{standard_engines, Sweep, SweepOutcome};
use xchain_harness::workload::{random_well_formed_deal, RandomDealParams};
use xchain_sim::asset::Asset;
use xchain_sim::ids::{ChainId, DealId, Owner, PartyId};
use xchain_sim::network::NetworkModel;
use xchain_sim::time::Duration;
use xchain_sim::world::World;
use xchain_swap::SwapEngine;

fn specs() -> Vec<(String, DealSpec)> {
    vec![
        ("broker".into(), broker_spec()),
        ("ring n=2".into(), ring_spec(DealId(2), 2)),
        ("ring n=4".into(), ring_spec(DealId(4), 4)),
        ("auction".into(), auction_spec(DealId(9), &[30, 55])),
    ]
}

fn fingerprint(run: &DealRun) -> String {
    format!(
        "gas={:?}|outcome={:?}",
        run.outcome.metrics.total_gas(),
        run.outcome
    )
}

/// The sweep (shared plans) against a hand-rolled loop
/// over `Deal::run` (fresh plan per cell): identical outcomes, point for
/// point, at `threads(1)` and `threads(4)`.
#[test]
fn sweep_with_shared_plans_matches_per_run_resolution() {
    let sweep = |threads: usize| -> SweepOutcome {
        Sweep::new()
            .over_specs(specs())
            .over_protocols(standard_engines(100))
            .over_networks(vec![
                ("sync".into(), NetworkModel::synchronous(100)),
                (
                    "eventually sync".into(),
                    NetworkModel::eventually_synchronous(300, 100, 600),
                ),
            ])
            .over_adversaries(|spec| {
                let mut scenarios = vec![("all compliant".to_string(), Vec::new())];
                scenarios.extend(
                    single_deviator_configs(spec, 100)
                        .into_iter()
                        .enumerate()
                        .map(|(i, c)| (format!("deviator #{i}"), c)),
                );
                scenarios
            })
            .seed(777)
            .threads(threads)
            .run()
            .unwrap()
    };

    for threads in [1usize, 4] {
        let outcome = sweep(threads);
        assert!(outcome.points.len() > 100, "threads={threads}");
        for p in &outcome.points {
            // Re-execute the cell the pre-plan way: a fresh `Deal::run`,
            // which resolves its own plan from the string-kinded spec.
            let deal = Deal::new(p.deal.clone())
                .parties(&p.configs)
                .seed(p.seed)
                .network(match p.network.as_str() {
                    "sync" => NetworkModel::synchronous(100),
                    _ => NetworkModel::eventually_synchronous(300, 100, 600),
                });
            let rerun = match p.engine.as_str() {
                "timelock" => deal.run(Protocol::timelock()),
                "CBC" => deal.run(Protocol::cbc()),
                _ => deal.run(SwapEngine::new(xchain_sim::time::Duration(100))),
            }
            .unwrap();
            assert_eq!(
                fingerprint(&p.run),
                fingerprint(&rerun),
                "threads={threads}: {} / {} / {} / {} diverged",
                p.spec,
                p.engine,
                p.network,
                p.adversary
            );
        }
    }
}

/// A world holding the deal's chains, parties and escrowed assets, plus an
/// unrelated kind minted before the escrows.
fn foreign_world(spec: &DealSpec, network: NetworkModel, seed: u64) -> World {
    let mut world = World::with_network(seed, network);
    let max_chain = spec.chains().iter().map(|c| c.0).max().unwrap();
    for i in 0..=max_chain {
        world.add_chain(&format!("chain-{i}"), Duration(1));
    }
    let max_party = spec.parties.iter().map(|p| p.0).max().unwrap();
    world.add_parties(max_party as usize + 1);
    world
        .mint(
            ChainId(0),
            Owner::Party(PartyId(0)),
            &Asset::fungible("gold", 5),
        )
        .unwrap();
    for e in &spec.escrows {
        world
            .mint(e.chain, Owner::Party(e.owner), &e.asset)
            .unwrap();
    }
    world
}

/// One shared plan across many sessions (different seeds and engines) equals
/// per-session planning, and `run_in` (the session's plan in the caller's
/// world) equals both — also when the caller's world holds another kind.
#[test]
fn shared_plan_and_caller_world_agree_with_fresh_plans() {
    let spec = broker_spec();
    let network = NetworkModel::synchronous(100);
    let session = Deal::new(spec.clone()).network(network);
    let plan = session.plan().unwrap();
    for seed in [0u64, 7, 42, 1897] {
        for engine in [Protocol::timelock(), Protocol::cbc()] {
            let deal = session.clone().seed(seed);
            let fresh = deal.run(engine.clone()).unwrap();
            let shared = deal.run_planned(&plan, engine.clone()).unwrap();
            assert_eq!(fingerprint(&fresh), fingerprint(&shared), "seed {seed}");
            // Caller-owned world.
            let mut world = deal.build_world().unwrap();
            let in_run = deal.run_in(&mut world, engine.clone()).unwrap();
            assert_eq!(
                format!("{:?}", fresh.outcome),
                format!("{:?}", in_run.outcome),
                "seed {seed}"
            );
            // A world that already holds an unrelated kind runs the deal the
            // same. Holdings include the unrelated kind, so compare what the
            // deal itself decides.
            let mut world = foreign_world(&spec, network, seed);
            let foreign = deal.run_in(&mut world, engine.clone()).unwrap();
            assert_eq!(
                fresh.outcome.resolutions, foreign.outcome.resolutions,
                "seed {seed}"
            );
            assert_eq!(
                fresh.outcome.metrics, foreign.outcome.metrics,
                "seed {seed}"
            );
            assert!(foreign.outcome.committed_everywhere(), "seed {seed}");
        }
    }
}

/// A market clearing deal after deal on one plan: every compliant run of the
/// broker deal and of a 5-ring, at seeds 0..100 under both commit protocols,
/// commits everywhere.
#[test]
fn many_seeds_on_one_shared_plan_all_commit() {
    for spec in [broker_spec(), ring_spec(DealId(5), 5)] {
        let session = Deal::new(spec).network(NetworkModel::synchronous(100));
        let plan = session.plan().unwrap();
        for engine in [Protocol::timelock(), Protocol::cbc()] {
            for seed in 0..100 {
                let run = session
                    .clone()
                    .seed(seed)
                    .run_planned(&plan, engine.clone())
                    .unwrap();
                assert!(
                    run.outcome.committed_everywhere(),
                    "deal {:?}, seed {seed}",
                    session.spec().deal
                );
            }
        }
    }
}

/// A plan is reusable concurrently: the same `DealPlan` value driving cells
/// on several worker threads yields the serial outcome (the plan is shared
/// state, so this doubles as a thread-safety check under `cargo test`).
#[test]
fn one_plan_many_threads_is_deterministic() {
    let run_with = |threads: usize| {
        Sweep::new()
            .spec("ring n=5", ring_spec(DealId(5), 5))
            .over_protocols(standard_engines(100))
            .over_adversaries(|spec| {
                single_deviator_configs(spec, 100)
                    .into_iter()
                    .enumerate()
                    .map(|(i, c)| (format!("deviator #{i}"), c))
                    .collect()
            })
            .seed(31)
            .threads(threads)
            .run()
            .unwrap()
    };
    let serial = run_with(1);
    let parallel = run_with(4);
    assert_eq!(serial.points.len(), parallel.points.len());
    for (a, b) in serial.points.iter().zip(&parallel.points) {
        assert_eq!(a.seed, b.seed);
        assert_eq!(fingerprint(&a.run), fingerprint(&b.run));
    }
}

/// Planning catches invalid specifications up front with the same error
/// class the engines used to produce mid-run.
#[test]
fn invalid_specs_fail_at_plan_time() {
    let mut spec = broker_spec();
    spec.parties.push(spec.parties[0]);
    assert!(DealPlan::new(&spec).is_err());
    assert!(Deal::new(spec).run(Protocol::timelock()).is_err());
}

/// Asserts that the one-pass plan of `spec` equals what the name-keyed
/// references on [`DealSpec`] derive: the transfer order, the chain sets and
/// the expected net incoming bags.
fn assert_plan_matches_references(case: &str, spec: &DealSpec) {
    spec.validate()
        .unwrap_or_else(|e| panic!("{case}: validate: {e}"));
    let plan = DealPlan::new(spec).unwrap_or_else(|e| panic!("{case}: plan: {e}"));
    assert_eq!(
        plan.transfer_order(),
        &spec.transfer_order().unwrap()[..],
        "{case}: transfer order"
    );
    assert_eq!(plan.chains(), &spec.chains()[..], "{case}: chains");
    assert_eq!(plan.parties().len(), spec.parties.len(), "{case}: parties");
    for (pp, &p) in plan.parties().iter().zip(&spec.parties) {
        assert_eq!(pp.id, p, "{case}");
        assert_eq!(
            pp.incoming_chains,
            spec.incoming_chains_of(p),
            "{case}: {p} incoming chains"
        );
        assert_eq!(
            pp.outgoing_chains,
            spec.outgoing_chains_of(p),
            "{case}: {p} outgoing chains"
        );
        assert_eq!(pp.expected.len(), pp.incoming_chains.len(), "{case}: {p}");
        for (&chain, expected) in pp.incoming_chains.iter().zip(&pp.expected) {
            assert_eq!(
                expected,
                &expected_on_chain(spec, p, chain),
                "{case}: {p} expected on {chain}"
            );
        }
    }
}

/// The one-pass plan agrees with the name-keyed references on 640 random
/// well-formed deals (2–9 parties, 0–4 extra transfers) and on every builder
/// spec.
#[test]
fn one_pass_plan_matches_the_name_keyed_references() {
    let mut random = 0;
    for parties in 2..=9u32 {
        for extra_transfers in 0..=4u32 {
            for seed in 0..16u64 {
                let params = RandomDealParams {
                    parties,
                    extra_transfers,
                    amount: 100,
                };
                let spec = random_well_formed_deal(DealId(seed + 1), &params, seed * 7919 + 13);
                let case = format!("random n={parties} extra={extra_transfers} seed={seed}");
                assert_plan_matches_references(&case, &spec);
                random += 1;
            }
        }
    }
    assert!(random >= 500, "{random} random specs");

    let mut builders = vec![
        ("broker".to_string(), broker_spec()),
        (
            "broker 90/95".to_string(),
            broker_spec_with(DealId(8), 90, 95),
        ),
        (
            "auction".to_string(),
            auction_spec(DealId(9), &[30, 55, 40]),
        ),
        (
            "auction of one".to_string(),
            auction_spec(DealId(10), &[70]),
        ),
    ];
    for n in 2..=9u32 {
        builders.push((format!("ring n={n}"), ring_spec(DealId(n as u64), n)));
        if n >= 3 {
            builders.push((
                format!("brokered chain n={n}"),
                brokered_chain_spec(DealId(100 + n as u64), n, 100),
            ));
        }
    }
    for (case, spec) in &builders {
        assert_plan_matches_references(case, spec);
    }
}

/// Each kind of malformed spec fails validation and planning with the same
/// `DealError`, the one these specs produced before validation and planning
/// became one pass.
#[test]
fn malformed_specs_fail_validation_and_planning_with_the_same_error() {
    let transfer = |from: u32, to: u32, asset: Asset| TransferSpec {
        from: PartyId(from),
        to: PartyId(to),
        chain: ChainId(0),
        asset,
    };
    let mut cases: Vec<(&str, DealSpec, &str)> = Vec::new();

    let mut spec = broker_spec();
    spec.parties.clear();
    cases.push(("empty plist", spec, "deal has no parties"));

    let mut spec = broker_spec();
    spec.parties.push(PartyId(1));
    cases.push(("duplicate party", spec, "duplicate party party-1"));

    let mut spec = broker_spec();
    spec.escrows[0].owner = PartyId(7);
    cases.push((
        "non-party escrow",
        spec,
        "escrow owner party-7 not in plist",
    ));

    let mut spec = broker_spec();
    spec.transfers
        .push(transfer(9, 0, Asset::fungible("coin", 1)));
    cases.push((
        "non-party transfer",
        spec,
        "transfer party-9 -> party-0 involves a non-party",
    ));

    let mut spec = broker_spec();
    spec.transfers[0].to = spec.transfers[0].from;
    cases.push(("self-transfer", spec, "self-transfer by party-1"));

    let mut spec = broker_spec();
    spec.escrows[1].asset = Asset::fungible("coin", 0);
    cases.push(("empty escrow asset", spec, "empty escrow asset"));

    let mut spec = broker_spec();
    spec.transfers[2].asset = Asset::non_fungible("ticket", []);
    cases.push(("empty transfer asset", spec, "empty transfer asset"));

    let mut spec = ring_spec(DealId(2), 2);
    spec.escrows.push(EscrowSpec {
        owner: PartyId(1),
        chain: ChainId(0),
        asset: Asset::fungible(spec.escrows[0].asset.kind().clone(), u64::MAX),
    });
    cases.push((
        "u64 overflow",
        spec,
        "the amounts of 'asset-0' overflow u64",
    ));

    let spec = DealSpec::new(
        DealId(3),
        vec![PartyId(0), PartyId(1)],
        vec![],
        vec![transfer(0, 1, Asset::fungible("coin", 5))],
    );
    cases.push((
        "transfers that cannot be ordered",
        spec,
        "transfers cannot be ordered: some sender never owns what it sends",
    ));

    for (case, spec, msg) in cases {
        let expected = DealError::InvalidSpec(msg.to_string());
        assert_eq!(spec.validate(), Err(expected.clone()), "{case}: validate");
        assert_eq!(
            DealPlan::new(&spec).err(),
            Some(expected),
            "{case}: DealPlan::new"
        );
    }
}
