//! End-to-end coverage of the adversaries only expressible under the open
//! [`Strategy`] API: the sore-loser, the colluding coalition, and the
//! rational defector. Each runs through the `Deal` builder and the `Sweep`
//! executor, the paper's properties hold at every point, and fixed seeds give
//! bit-identical reruns at any thread count.
//!
//! [`Strategy`]: xchain_deals::strategy::Strategy

use std::sync::{Arc, Mutex};

use xchain_bft::log::CbcRecord;
use xchain_deals::builders::broker_spec;
use xchain_deals::engine::DealEngine;
use xchain_deals::party::PartyConfig;
use xchain_deals::phases::Phase;
use xchain_deals::properties::{check_conservation, check_safety, check_weak_liveness};
use xchain_deals::spec::DealSpec;
use xchain_deals::strategy::{strategies, DealView, ObservationCtx, Strategy, Vote};
use xchain_deals::{Deal, Protocol};
use xchain_harness::adversary::novel_strategy_scenarios;
use xchain_harness::sweep::{standard_engines, Sweep};
use xchain_harness::workload::ring_spec;
use xchain_sim::ids::{DealId, PartyId};
use xchain_sim::network::NetworkModel;
use xchain_sim::time::Time;
use xchain_swap::SwapEngine;

const DELTA: u64 = 100;

#[test]
fn sore_loser_locks_the_deal_but_steals_nothing() {
    let bob = PartyId(1);
    let configs = vec![PartyConfig::with_strategy(bob, strategies::sore_loser())];
    for protocol in [Protocol::timelock(), Protocol::cbc()] {
        let deal = Deal::new(broker_spec())
            .network(NetworkModel::synchronous(DELTA))
            .parties(&configs)
            .seed(5);
        let run = deal.run(&protocol).unwrap();
        // The attack stops the deal, but the timeouts / rescind votes refund
        // every compliant escrow: nobody ends up worse off.
        assert!(!run.outcome.committed_everywhere());
        assert!(run.outcome.fully_resolved());
        assert!(check_safety(deal.spec(), &configs, &run.outcome).holds());
        assert!(check_weak_liveness(deal.spec(), &configs, &run.outcome));
        assert!(check_conservation(deal.spec(), &run.outcome));
    }
}

#[test]
fn sore_loser_abandons_an_htlc_swap_after_both_sides_fund() {
    use xchain_swap::SwapEngine;
    let spec = ring_spec(DealId(88), 2);
    let leader = spec.parties[0];
    let configs = vec![PartyConfig::with_strategy(leader, strategies::sore_loser())];
    let deal = Deal::new(spec.clone())
        .network(NetworkModel::synchronous(DELTA))
        .parties(&configs)
        .seed(6);
    let run = deal.run(SwapEngine::default()).unwrap();
    // The sore-loser funds (baiting the follower into funding) and then
    // refuses to claim; both HTLCs time out and refund.
    assert_eq!(run.ext.swapped(), Some(false));
    assert!(run.outcome.aborted_everywhere());
    assert!(check_safety(&spec, &configs, &run.outcome).holds());
}

#[test]
fn coalition_shares_state_and_aborts_as_a_bloc() {
    let spec = broker_spec();
    let alice = spec.parties[0];
    let bob = spec.parties[1];
    let carol = spec.parties[2];
    let shared = strategies::coalition([alice, bob]);
    // A third party refusing to escrow makes the members' validation fail, so
    // the coalition — which commits only when *every* member is satisfied —
    // votes abort on behalf of the whole group.
    let configs = vec![
        PartyConfig::with_strategy(alice, shared.clone()),
        PartyConfig::with_strategy(bob, shared),
        PartyConfig::with_strategy(carol, strategies::refuse_escrow()),
    ];
    let deal = Deal::new(spec.clone())
        .network(NetworkModel::synchronous(DELTA))
        .parties(&configs)
        .seed(7);
    let run = deal.run(Protocol::cbc()).unwrap();
    assert!(run.outcome.aborted_everywhere());
    assert!(run.ext.cbc_status().unwrap().is_aborted());
    // The decisive abort is a coalition member's vote, not the patience
    // timeout of some compliant bystander.
    let log = run.ext.cbc_log().unwrap();
    assert!(log.blocks().iter().any(|b| matches!(
        &b.record,
        CbcRecord::AbortVote { voter, .. } if *voter == alice || *voter == bob
    )));

    // With every escrow in place the same coalition is satisfied and commits.
    let shared = strategies::coalition([alice, bob]);
    let happy = vec![
        PartyConfig::with_strategy(alice, shared.clone()),
        PartyConfig::with_strategy(bob, shared),
    ];
    let run = Deal::new(spec)
        .network(NetworkModel::synchronous(DELTA))
        .parties(&happy)
        .seed(7)
        .run(Protocol::cbc())
        .unwrap();
    assert!(run.outcome.committed_everywhere());
}

#[test]
fn rational_defector_commits_only_when_the_deal_is_worth_it() {
    let spec = broker_spec();
    let carol = spec.parties[2]; // pays 101 coins for 2 tickets
    for protocol in [Protocol::timelock(), Protocol::cbc()] {
        // Tickets valued at 1000 each: clearly worth it — the deal commits.
        let generous = vec![PartyConfig::with_strategy(
            carol,
            strategies::rational_defector(1_000),
        )];
        let run = Deal::new(spec.clone())
            .network(NetworkModel::synchronous(DELTA))
            .parties(&generous)
            .seed(8)
            .run(&protocol)
            .unwrap();
        assert!(run.outcome.committed_everywhere(), "{protocol:?}");

        // Tickets valued at 1 each: 2 < 101, so the defector walks and the
        // deal aborts everywhere — without harming anyone.
        let stingy = vec![PartyConfig::with_strategy(
            carol,
            strategies::rational_defector(1),
        )];
        let run = Deal::new(spec.clone())
            .network(NetworkModel::synchronous(DELTA))
            .parties(&stingy)
            .seed(8)
            .run(&protocol)
            .unwrap();
        assert!(run.outcome.aborted_everywhere(), "{protocol:?}");
        assert!(check_safety(&spec, &stingy, &run.outcome).holds());
    }
}

#[test]
fn novel_strategies_run_deterministically_through_sweeps() {
    let run_once = |threads: usize| {
        Sweep::new()
            .spec("broker", broker_spec())
            .spec("ring n=2", ring_spec(DealId(55), 2))
            .over_protocols(standard_engines(DELTA))
            .over_adversaries(novel_strategy_scenarios)
            .seed(99)
            .threads(threads)
            .run()
            .unwrap()
    };
    let a = run_once(1);
    let b = run_once(1);
    let c = run_once(4);
    assert!(!a.points.is_empty());
    for points in [&b, &c] {
        assert_eq!(a.points.len(), points.points.len());
        for (x, y) in a.points.iter().zip(&points.points) {
            assert_eq!(x.adversary, y.adversary);
            assert_eq!(x.seed, y.seed);
            // Bit-identical outcomes: stateful strategies (the coalition) are
            // freshly instantiated per cell, so reruns and thread counts
            // cannot leak state into the results.
            assert_eq!(
                format!("{:?}", x.run.outcome),
                format!("{:?}", y.run.outcome),
                "{} / {} / {}",
                x.spec,
                x.engine,
                x.adversary
            );
        }
    }
    // Every point satisfies the paper's properties.
    for p in &a.points {
        let label = format!("{} / {} / {}", p.spec, p.engine, p.adversary);
        assert!(
            check_safety(&p.deal, &p.configs, &p.run.outcome).holds(),
            "{label}"
        );
        assert!(
            check_weak_liveness(&p.deal, &p.configs, &p.run.outcome),
            "{label}"
        );
        assert!(check_conservation(&p.deal, &p.run.outcome), "{label}");
    }
}

/// A deviating strategy that answers every hook as the compliant one does
/// and records the phase, the time and the view of each decision.
struct Recorder {
    seen: Mutex<Vec<(Phase, Time, DealView)>>,
}

impl Recorder {
    /// Records the decision and returns the strategy that answers it.
    fn record(&self, ctx: &ObservationCtx<'_>) -> Arc<dyn Strategy> {
        let entry = (ctx.phase, ctx.now, ctx.view.clone());
        self.seen.lock().unwrap().push(entry);
        strategies::compliant()
    }
}

impl Strategy for Recorder {
    fn name(&self) -> String {
        "recorder".into()
    }

    fn on_escrow(&self, ctx: &ObservationCtx<'_>) -> bool {
        self.record(ctx).on_escrow(ctx)
    }

    fn on_transfer(&self, ctx: &ObservationCtx<'_>) -> bool {
        self.record(ctx).on_transfer(ctx)
    }

    fn on_validate(&self, ctx: &ObservationCtx<'_>) -> bool {
        self.record(ctx).on_validate(ctx)
    }

    fn on_vote(&self, ctx: &ObservationCtx<'_>) -> Vote {
        self.record(ctx).on_vote(ctx)
    }

    fn on_forward(&self, ctx: &ObservationCtx<'_>) -> bool {
        self.record(ctx).on_forward(ctx)
    }

    fn on_claim(&self, ctx: &ObservationCtx<'_>) -> bool {
        self.record(ctx).on_claim(ctx)
    }
}

/// Compliant parties decide without a view, so the hub folds only for
/// deviating ones. Whether the recorder's peers are compliant or deviating
/// (`crash_after(Phase::Commit)` answers every hook compliantly but is
/// classed as deviating, so every decision folds a view), the recorder must
/// see the same views at the same decisions, and the deal must end the same.
/// An all-compliant deal, which builds no hub, must end like the one in
/// which everyone deviates that way.
#[test]
fn compliant_peers_change_no_deviators_view_and_no_outcome() {
    let engines: Vec<(&str, Box<dyn DealEngine>, Vec<DealSpec>)> = vec![
        (
            "timelock",
            Box::new(Protocol::timelock()),
            vec![broker_spec(), ring_spec(DealId(3), 3)],
        ),
        (
            "CBC",
            Box::new(Protocol::cbc()),
            vec![broker_spec(), ring_spec(DealId(3), 3)],
        ),
        (
            "HTLC swap",
            Box::new(SwapEngine::default()),
            vec![ring_spec(DealId(2), 2)],
        ),
    ];
    let run = |engine: &dyn DealEngine, spec: &DealSpec, configs: &[PartyConfig]| {
        let deal = Deal::new(spec.clone())
            .network(NetworkModel::synchronous(DELTA))
            .parties(configs)
            .seed(11);
        let run = deal.run(engine).unwrap();
        format!("{:?} {:?}", run.outcome, run.ext)
    };
    for (name, engine, specs) in &engines {
        for spec in specs {
            let label = format!("{name} / {:?}", spec.deal);
            let peers = |peer: &dyn Fn() -> Arc<dyn Strategy>| {
                spec.parties
                    .iter()
                    .map(|&p| PartyConfig::with_strategy(p, peer()))
                    .collect::<Vec<_>>()
            };
            let compliant = peers(&strategies::compliant);
            let crashing = peers(&|| strategies::crash_after(Phase::Commit));
            assert_eq!(
                run(&**engine, spec, &compliant),
                run(&**engine, spec, &crashing),
                "{label}"
            );
            for (i, &me) in spec.parties.iter().enumerate() {
                let recorded = |peers: &[PartyConfig]| {
                    let recorder = Arc::new(Recorder {
                        seen: Mutex::new(Vec::new()),
                    });
                    let mut configs = peers.to_vec();
                    configs[i] = PartyConfig::with_strategy(me, recorder.clone());
                    let outcome = run(&**engine, spec, &configs);
                    let seen = recorder.seen.lock().unwrap().clone();
                    (seen, outcome)
                };
                let (seen, outcome) = recorded(&compliant);
                assert!(
                    seen.iter().any(|(_, _, view)| !view.escrows.is_empty()),
                    "{label}: {me} saw no escrow"
                );
                assert_eq!((seen, outcome), recorded(&crashing), "{label}: {me}");
            }
        }
    }
}
