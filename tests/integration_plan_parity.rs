//! Plan-vs-string parity: executing through pre-resolved [`DealPlan`]s (the
//! sweep path — one plan per spec, worlds forked from the plan's kind table)
//! must produce *exactly* the outcomes of resolving everything per run (the
//! `Deal::run` path, whose plan is rebuilt from the string-kinded spec every
//! call). The plan layer is a representation change, not a semantic one.

use xchain_deals::builders::{auction_spec, broker_spec, ring_spec};
use xchain_deals::plan::DealPlan;
use xchain_deals::spec::DealSpec;
use xchain_deals::{Deal, DealRun, Protocol};
use xchain_harness::adversary::single_deviator_configs;
use xchain_harness::sweep::{standard_engines, Sweep, SweepOutcome};
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

/// The sweep (shared plans, forked kind tables) against a hand-rolled loop
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

/// A world holding the deal's chains, parties and escrowed assets whose kind
/// table numbers kinds differently from any plan of the spec: an unrelated
/// kind is minted before the escrows.
fn foreign_world(spec: &DealSpec, network: NetworkModel, seed: u64) -> World {
    let mut world = World::with_network(seed, network);
    let max_chain = spec.chains().iter().map(|c| c.0).max().unwrap();
    for i in 0..=max_chain {
        world.add_chain(&format!("chain-{i}"), Duration(1));
    }
    let max_party = spec.parties.iter().map(|p| p.0).max().unwrap();
    world.add_parties(max_party as usize + 1);
    let gold = Asset::fungible("gold", 5);
    world
        .mint(ChainId(0), Owner::Party(PartyId(0)), &gold)
        .unwrap();
    for e in &spec.escrows {
        world
            .mint(e.chain, Owner::Party(e.owner), &e.asset)
            .unwrap();
    }
    world
}

/// One shared plan across many sessions (different seeds and engines) equals
/// per-session planning, and `run_in` (plan resolved against the caller's
/// world table) equals both — also when the caller's world numbers kinds
/// differently from the plan.
#[test]
fn shared_plan_and_caller_world_agree_with_fresh_plans() {
    let spec = broker_spec();
    let network = NetworkModel::synchronous(100);
    let session = Deal::new(spec.clone()).network(network);
    let plan = session.plan().unwrap();
    let escrow_kind = spec.escrows[0].asset.kind().clone();
    let plan_id = plan.kinds().get(escrow_kind.name()).unwrap();
    for seed in [0u64, 7, 42, 1897] {
        for engine in [Protocol::timelock(), Protocol::cbc()] {
            let deal = session.clone().seed(seed);
            let fresh = deal.run(engine.clone()).unwrap();
            let shared = deal.run_planned(&plan, engine.clone()).unwrap();
            assert_eq!(fingerprint(&fresh), fingerprint(&shared), "seed {seed}");
            // Caller-owned world: the plan is resolved against the world's
            // own kind table instead of a fork.
            let mut world = deal.build_world().unwrap();
            let in_run = deal.run_in(&mut world, engine.clone()).unwrap();
            assert_eq!(
                format!("{:?}", fresh.outcome),
                format!("{:?}", in_run.outcome),
                "seed {seed}"
            );
            // A foreign kind table: `run_in` re-plans against it
            // (`DealPlan::for_table`), so the ids differ from the session
            // plan's but the deal runs the same. Holdings include the
            // unrelated kind, so compare what the deal itself decides.
            let mut world = foreign_world(&spec, network, seed);
            assert_ne!(world.kinds().get(escrow_kind.name()), Some(plan_id));
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
