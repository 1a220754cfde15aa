//! The experiments that regenerate the paper's tables and figures.
//!
//! Each function returns one or more [`Table`]s whose *shape* follows the
//! paper's claims; the `experiments` binary prints them, and
//! `tests/integration_workloads.rs` checks the shapes. Parameters are small
//! enough to run in seconds. Every experiment goes through the unified
//! [`Deal`] builder / [`Sweep`] API, so adding a protocol or network model is
//! a one-line change.

use xchain_bft::pow::{analytic_success_probability, attack_success_rate, PowAttackParams};
use xchain_deals::builders::{auction_spec, broker_spec, brokered_chain_spec, ring_spec};
use xchain_deals::cbc::CbcOptions;
use xchain_deals::digraph::DealDigraph;
use xchain_deals::phases::Phase;
use xchain_deals::properties::{
    check_conservation, check_safety, check_strong_liveness, check_weak_liveness,
};
use xchain_deals::spec::DealSpec;
use xchain_deals::timelock::TimelockOptions;
use xchain_deals::{Deal, Protocol};
use xchain_sim::asset::Asset;
use xchain_sim::ids::{ChainId, DealId, PartyId};
use xchain_sim::network::NetworkModel;
use xchain_sim::time::Duration;
use xchain_swap::expressible_as_swap;

use crate::adversary::{
    all_but_one_deviate, coalition_scenario, novel_strategy_scenarios, rational_defector_scenarios,
    single_deviator_configs, sore_loser_scenario,
};
use crate::report::Table;
use crate::sweep::{protocol_engines, standard_engines, AdversaryScenario, Sweep};

/// The ∆ used throughout the experiments (ticks).
pub const DELTA: u64 = 100;

fn sync_net() -> NetworkModel {
    NetworkModel::synchronous(DELTA)
}

/// FIG1/FIG2: the running example — render the deal matrix and digraph facts.
pub fn fig1_fig2_example() -> Vec<Table> {
    let spec = broker_spec();
    let mut names = std::collections::BTreeMap::new();
    names.insert(PartyId(0), "Alice".to_string());
    names.insert(PartyId(1), "Bob".to_string());
    names.insert(PartyId(2), "Carol".to_string());
    let mut t1 = Table::new("Figure 1 — Alice, Bob and Carol's deal matrix", &["matrix"]);
    for line in spec.matrix_string(&names).lines() {
        t1.push_row(vec![line.to_string()]);
    }
    let g = DealDigraph::from_spec(&spec);
    let mut t2 = Table::new(
        "Figure 2 — deal digraph (well-formedness)",
        &["vertices", "arcs", "strongly connected", "free riders"],
    );
    t2.push_row(vec![
        g.n_vertices().to_string(),
        g.n_arcs().to_string(),
        g.is_strongly_connected().to_string(),
        format!("{:?}", g.free_riders()),
    ]);
    vec![t1, t2]
}

/// FIG3: per-operation storage-write counts of the escrow manager.
pub fn fig3_escrow_costs() -> Table {
    let spec = broker_spec();
    let run = Deal::new(spec.clone())
        .network(sync_net())
        .seed(11)
        .run(Protocol::timelock())
        .unwrap();
    let mut t = Table::new(
        "Figure 3 — escrow manager storage writes (measured)",
        &["operation", "count", "storage writes", "writes per op"],
    );
    let escrow_writes = run.outcome.metrics.gas(Phase::Escrow).storage_writes;
    let transfer_writes = run.outcome.metrics.gas(Phase::Transfer).storage_writes;
    t.push_row(vec![
        "escrow".into(),
        spec.n_assets().to_string(),
        escrow_writes.to_string(),
        format!("{:.1}", escrow_writes as f64 / spec.n_assets() as f64),
    ]);
    t.push_row(vec![
        "tentative transfer".into(),
        spec.n_transfers().to_string(),
        transfer_writes.to_string(),
        format!("{:.1}", transfer_writes as f64 / spec.n_transfers() as f64),
    ]);
    t
}

/// One row of the Figure 4 gas table for a single (protocol, n, m, t, f) point.
#[derive(Debug, Clone)]
pub struct GasRow {
    /// Protocol name.
    pub protocol: String,
    /// Parties.
    pub n: usize,
    /// Assets.
    pub m: usize,
    /// Transfers.
    pub t: usize,
    /// CBC fault parameter (0 for timelock).
    pub f: usize,
    /// Storage writes in the escrow phase.
    pub escrow_writes: u64,
    /// Storage writes in the transfer phase.
    pub transfer_writes: u64,
    /// Gas consumed by validation (always 0).
    pub validation_gas: u64,
    /// Signature verifications in the commit phase.
    pub commit_sigs: u64,
    /// Storage writes in the commit phase.
    pub commit_writes: u64,
    /// Total gas of the whole deal.
    pub total_gas: u64,
}

/// FIG4: measures the gas table for a sweep of brokered-chain deals of
/// increasing size under both protocols.
pub fn fig4_gas(ns: &[u32], f: usize) -> (Vec<GasRow>, Table) {
    let mut rows = Vec::new();
    for &n in ns {
        let deal = Deal::new(brokered_chain_spec(DealId(1000 + n as u64), n, 100))
            .network(sync_net())
            .seed(42);
        let tl = deal.run(Protocol::timelock()).unwrap();
        rows.push(gas_row("timelock", deal.spec(), 0, &tl.outcome.metrics));
        let cbc = deal
            .run(Protocol::Cbc(CbcOptions {
                f,
                ..CbcOptions::default()
            }))
            .unwrap();
        rows.push(gas_row("CBC", deal.spec(), f, &cbc.outcome.metrics));
    }
    let mut t = Table::new(
        format!("Figure 4 — gas costs (f = {f} for CBC)"),
        &[
            "protocol",
            "n",
            "m",
            "t",
            "escrow writes",
            "transfer writes",
            "validation gas",
            "commit sig.ver.",
            "commit writes",
            "total gas",
        ],
    );
    for r in &rows {
        t.push_row(vec![
            r.protocol.clone(),
            r.n.to_string(),
            r.m.to_string(),
            r.t.to_string(),
            r.escrow_writes.to_string(),
            r.transfer_writes.to_string(),
            r.validation_gas.to_string(),
            r.commit_sigs.to_string(),
            r.commit_writes.to_string(),
            r.total_gas.to_string(),
        ]);
    }
    (rows, t)
}

fn gas_row(
    protocol: &str,
    spec: &DealSpec,
    f: usize,
    metrics: &xchain_deals::phases::PhaseMetrics,
) -> GasRow {
    GasRow {
        protocol: protocol.to_string(),
        n: spec.n_parties(),
        m: spec.n_assets(),
        t: spec.n_transfers(),
        f,
        escrow_writes: metrics.gas(Phase::Escrow).storage_writes,
        transfer_writes: metrics.gas(Phase::Transfer).storage_writes,
        validation_gas: metrics.gas(Phase::Validation).total(),
        commit_sigs: metrics.gas(Phase::Commit).sig_verifications,
        commit_writes: metrics.gas(Phase::Commit).storage_writes,
        total_gas: metrics.total_gas().total(),
    }
}

/// One row of the Figure 7 delay table.
#[derive(Debug, Clone)]
pub struct DelayRow {
    /// Scenario label.
    pub scenario: String,
    /// Parties.
    pub n: usize,
    /// Transfers.
    pub t: usize,
    /// Phase durations in units of ∆.
    pub escrow: f64,
    /// Transfer phase in ∆.
    pub transfer: f64,
    /// Validation phase in ∆.
    pub validation: f64,
    /// Commit phase in ∆.
    pub commit: f64,
}

/// FIG7: measures per-phase delays (in units of ∆) for both protocols,
/// sequential vs concurrent transfers and forwarding vs broadcast votes.
pub fn fig7_delays(ns: &[u32]) -> (Vec<DelayRow>, Table) {
    let delta = Duration(DELTA);
    let mut rows = Vec::new();
    for &n in ns {
        let deal = Deal::new(ring_spec(DealId(2000 + n as u64), n))
            .network(sync_net())
            .seed(7);
        let cases: Vec<(String, Protocol)> = vec![
            (
                "timelock / sequential transfers / forwarded votes".into(),
                Protocol::Timelock(TimelockOptions {
                    delta,
                    altruistic_broadcast: false,
                    concurrent_transfers: false,
                }),
            ),
            (
                "timelock / concurrent transfers / broadcast votes".into(),
                Protocol::Timelock(TimelockOptions {
                    delta,
                    altruistic_broadcast: true,
                    concurrent_transfers: true,
                }),
            ),
            (
                "CBC / sequential transfers".into(),
                Protocol::Cbc(CbcOptions {
                    concurrent_transfers: false,
                    delta,
                    ..CbcOptions::default()
                }),
            ),
            (
                "CBC / concurrent transfers".into(),
                Protocol::Cbc(CbcOptions {
                    concurrent_transfers: true,
                    delta,
                    ..CbcOptions::default()
                }),
            ),
        ];
        for (label, protocol) in cases {
            let run = deal.run(protocol).unwrap();
            rows.push(delay_row(&label, deal.spec(), &run.outcome.metrics, delta));
        }
    }
    let mut t = Table::new(
        "Figure 7 — phase delays in units of ∆ (synchronous network)",
        &[
            "scenario",
            "n",
            "t",
            "escrow/∆",
            "transfer/∆",
            "validation/∆",
            "commit/∆",
        ],
    );
    for r in &rows {
        t.push_row(vec![
            r.scenario.clone(),
            r.n.to_string(),
            r.t.to_string(),
            format!("{:.2}", r.escrow),
            format!("{:.2}", r.transfer),
            format!("{:.2}", r.validation),
            format!("{:.2}", r.commit),
        ]);
    }
    (rows, t)
}

fn delay_row(
    scenario: &str,
    spec: &DealSpec,
    metrics: &xchain_deals::phases::PhaseMetrics,
    delta: Duration,
) -> DelayRow {
    DelayRow {
        scenario: scenario.to_string(),
        n: spec.n_parties(),
        t: spec.n_transfers(),
        escrow: metrics.duration(Phase::Escrow).in_units_of(delta),
        transfer: metrics.duration(Phase::Transfer).in_units_of(delta),
        validation: metrics.duration(Phase::Validation).in_units_of(delta),
        commit: metrics.duration(Phase::Commit).in_units_of(delta),
    }
}

/// Result of the safety / liveness sweeps.
#[derive(Debug, Clone, Default)]
pub struct SafetySweepResult {
    /// Number of adversarial scenarios executed.
    pub scenarios: usize,
    /// Safety (Property 1) violations found across all scenarios.
    pub safety_violations: usize,
    /// Weak-liveness (Property 2) violations found.
    pub weak_liveness_violations: usize,
    /// Conservation violations found.
    pub conservation_violations: usize,
}

/// THM 5.1 / 6.1: one generic sweep runs every single-deviator and
/// all-but-one-deviator scenario on the broker deal and a 4-party ring under
/// both commit protocols, checking the safety, weak-liveness and conservation
/// properties on every point.
pub fn safety_sweep() -> (SafetySweepResult, Table) {
    let outcome = Sweep::new()
        .spec("broker (Fig 1)", broker_spec())
        .spec("ring n=4", ring_spec(DealId(77), 4))
        .over_protocols(protocol_engines())
        .over_networks(vec![("synchronous".into(), sync_net())])
        .over_adversaries(|spec| {
            let mut scenarios = vec![("all compliant".to_string(), Vec::new())];
            scenarios.extend(
                single_deviator_configs(spec, DELTA)
                    .into_iter()
                    .enumerate()
                    .map(|(i, c)| (format!("single deviator #{i}"), c)),
            );
            for &honest in &spec.parties {
                scenarios.extend(
                    all_but_one_deviate(spec, honest, DELTA)
                        .into_iter()
                        .enumerate()
                        .map(|(i, c)| (format!("all but {honest} deviate #{i}"), c)),
                );
            }
            // The trait-only adversaries (sore-loser, coalition, rational
            // defector) must satisfy the same properties.
            scenarios.extend(novel_strategy_scenarios(spec));
            scenarios
        })
        .seed(100)
        .run()
        .unwrap();

    let mut result = SafetySweepResult::default();
    for p in &outcome.points {
        result.scenarios += 1;
        result.safety_violations += check_safety(&p.deal, &p.configs, &p.run.outcome)
            .violations
            .len();
        if !check_weak_liveness(&p.deal, &p.configs, &p.run.outcome) {
            result.weak_liveness_violations += 1;
        }
        if !check_conservation(&p.deal, &p.run.outcome) {
            result.conservation_violations += 1;
        }
    }
    let mut t = Table::new(
        "Theorems 5.1/5.2/6.1 — adversarial sweep (violations must be 0)",
        &[
            "scenarios",
            "safety violations",
            "weak-liveness violations",
            "conservation violations",
        ],
    );
    t.push_row(vec![
        result.scenarios.to_string(),
        result.safety_violations.to_string(),
        result.weak_liveness_violations.to_string(),
        result.conservation_violations.to_string(),
    ]);
    (result, t)
}

/// THM 5.3 / strong liveness: all-compliant runs across workloads must commit
/// everywhere and deliver exactly the agreed transfers — one sweep over every
/// workload × engine.
pub fn liveness_experiment() -> Table {
    let outcome = Sweep::new()
        .over_specs(vec![
            ("broker (Fig 1)".into(), broker_spec()),
            ("ring n=5".into(), ring_spec(DealId(3), 5)),
            (
                "auction 3 bidders".into(),
                auction_spec(DealId(4), &[30, 55, 42]),
            ),
            (
                "brokered chain n=6".into(),
                brokered_chain_spec(DealId(5), 6, 80),
            ),
        ])
        .over_protocols(protocol_engines())
        .over_networks(vec![("synchronous".into(), sync_net())])
        .seed(17)
        .run()
        .unwrap();
    let mut t = Table::new(
        "Theorem 5.3 / Property 3 — strong liveness (all parties compliant)",
        &[
            "workload",
            "protocol",
            "committed everywhere",
            "strong liveness",
        ],
    );
    for p in &outcome.points {
        t.push_row(vec![
            p.spec.clone(),
            p.engine.clone(),
            p.run.outcome.committed_everywhere().to_string(),
            check_strong_liveness(&p.deal, &p.configs, &p.run.outcome).to_string(),
        ]);
    }
    t
}

/// One row of the protocol × network × strategy matrix:
/// `(deal, engine, network, adversary, committed everywhere, safety holds)`.
pub type MatrixRow = (String, String, String, String, bool, bool);

/// The named strategies the matrix enumerates on its adversary axis: the
/// all-compliant baseline plus one representative assignment of each
/// trait-only adversary (sore-loser at the first party, a coalition of the
/// first two, a rational defector at the last party with a stingy and a
/// generous token valuation).
fn matrix_strategy_scenarios(spec: &DealSpec) -> Vec<AdversaryScenario> {
    let mut scenarios = vec![("all compliant".to_string(), Vec::new())];
    scenarios.push(sore_loser_scenario(spec.parties[0]));
    scenarios.extend(coalition_scenario(spec));
    scenarios.extend(rational_defector_scenarios(spec));
    scenarios
}

/// The protocol × network × strategy matrix: all three engines (timelock,
/// CBC, HTLC swap) over synchronous and eventually-synchronous networks, on a
/// deal each engine can express, against the all-compliant baseline and one
/// assignment of each trait-only adversary (sore loser, coalition, rational
/// defector). Reproduces the paper's synchrony story in
/// one sweep — the CBC commits under both models when everyone is compliant,
/// the timelock protocol is only guaranteed to commit under synchrony (it
/// stays *safe* regardless), the swap engine covers the two-party case — and
/// shows that no strategy, however adaptive, harms a compliant party.
pub fn protocol_matrix_experiment() -> (Vec<MatrixRow>, Table) {
    let outcome = Sweep::new()
        .spec("two-party exchange", two_party_deal())
        .spec("broker (Fig 1)", broker_spec())
        .over_protocols(standard_engines(DELTA))
        .over_networks(vec![
            ("synchronous".into(), sync_net()),
            (
                "eventually synchronous (GST 5∆)".into(),
                NetworkModel::eventually_synchronous(5 * DELTA, DELTA, 10 * DELTA),
            ),
        ])
        .over_adversaries(matrix_strategy_scenarios)
        .seed(500)
        .run()
        .unwrap();
    let mut rows = Vec::new();
    let mut t = Table::new(
        "Protocol × network × strategy matrix",
        &[
            "deal",
            "engine",
            "network",
            "adversary",
            "committed",
            "safety holds",
        ],
    );
    for p in &outcome.points {
        let committed = p.run.outcome.committed_everywhere();
        let safe = check_safety(&p.deal, &p.configs, &p.run.outcome).holds();
        rows.push((
            p.spec.clone(),
            p.engine.clone(),
            p.network.clone(),
            p.adversary.clone(),
            committed,
            safe,
        ));
        t.push_row(vec![
            p.spec.clone(),
            p.engine.clone(),
            p.network.clone(),
            p.adversary.clone(),
            committed.to_string(),
            safe.to_string(),
        ]);
    }
    (rows, t)
}

/// SEC 6.2: the proof-of-work private-abort-block attack as a function of the
/// attacker's hash power and the required confirmations.
pub fn pow_attack_experiment(trials: u64) -> Table {
    let mut t = Table::new(
        "Section 6.2 — PoW CBC private-abort attack success rate",
        &[
            "attacker hash power",
            "confirmations",
            "measured success",
            "analytic estimate",
        ],
    );
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(33);
    for &alpha in &[0.10, 0.25, 0.33, 0.45] {
        for &k in &[1u64, 3, 6, 12] {
            let rate = attack_success_rate(
                &PowAttackParams {
                    alpha,
                    confirmations: k,
                    max_blocks: 60 * (k + 2),
                },
                trials,
                &mut rng,
            );
            t.push_row(vec![
                format!("{alpha:.2}"),
                k.to_string(),
                format!("{rate:.3}"),
                format!("{:.3}", analytic_success_probability(alpha, k)),
            ]);
        }
    }
    t
}

/// DISC: commit-phase gas crossover between the two protocols as n grows at
/// fixed f — the paper's observation that "if 2f+1 … exceeds n … it will
/// usually be more expensive to commit a CBC deal than a timelock deal".
pub fn crossover_experiment(ns: &[u32], f: usize) -> Table {
    let mut t = Table::new(
        format!("Discussion — commit-phase signature verifications, timelock vs CBC (f = {f})"),
        &[
            "n",
            "m",
            "timelock commit sig.ver.",
            "CBC commit sig.ver.",
            "cheaper",
        ],
    );
    for &n in ns {
        let deal = Deal::new(brokered_chain_spec(DealId(4000 + n as u64), n, 60))
            .network(sync_net())
            .seed(3);
        let tl = deal.run(Protocol::timelock()).unwrap();
        let cbc = deal
            .run(Protocol::Cbc(CbcOptions {
                f,
                ..CbcOptions::default()
            }))
            .unwrap();
        let tl_sigs = tl.outcome.metrics.gas(Phase::Commit).sig_verifications;
        let cbc_sigs = cbc.outcome.metrics.gas(Phase::Commit).sig_verifications;
        t.push_row(vec![
            n.to_string(),
            deal.spec().n_assets().to_string(),
            tl_sigs.to_string(),
            cbc_sigs.to_string(),
            if tl_sigs <= cbc_sigs {
                "timelock"
            } else {
                "CBC"
            }
            .to_string(),
        ]);
    }
    t
}

/// SEC 8: swaps vs deals — expressiveness and a two-party cost comparison,
/// with the HTLC swap running as just another [`xchain_deals::DealEngine`].
pub fn swap_baseline_experiment() -> Vec<Table> {
    let mut t1 = Table::new(
        "Section 8 — which deals are expressible as atomic swaps",
        &["deal", "expressible as swap"],
    );
    t1.push_row(vec![
        "broker (Fig 1)".into(),
        expressible_as_swap(&broker_spec()).to_string(),
    ]);
    t1.push_row(vec![
        "auction (Sec 9)".into(),
        expressible_as_swap(&auction_spec(DealId(8), &[10, 20, 30])).to_string(),
    ]);
    t1.push_row(vec![
        "ring n=4".into(),
        expressible_as_swap(&ring_spec(DealId(9), 4)).to_string(),
    ]);

    // Two-party exchange: the same deal under all three engines.
    let deal = Deal::new(two_party_deal()).network(sync_net()).seed(5);
    let mut t2 = Table::new(
        "Section 8 — two-party exchange: HTLC swap vs commit-protocol deals",
        &[
            "mechanism",
            "storage writes",
            "sig verifications",
            "total gas",
            "duration/∆",
        ],
    );
    for (label, make_engine) in standard_engines(DELTA) {
        let run = deal.run(make_engine()).unwrap();
        assert!(run.outcome.committed_everywhere());
        let gas = run.outcome.metrics.total_gas();
        t2.push_row(vec![
            label,
            gas.storage_writes.to_string(),
            gas.sig_verifications.to_string(),
            gas.total().to_string(),
            format!(
                "{:.2}",
                run.outcome
                    .metrics
                    .total_duration()
                    .in_units_of(Duration(DELTA))
            ),
        ]);
    }
    vec![t1, t2]
}

/// A plain two-party exchange expressed as a deal (tickets for coins).
pub fn two_party_deal() -> DealSpec {
    use xchain_deals::spec::{EscrowSpec, TransferSpec};
    DealSpec::new(
        DealId(99),
        vec![PartyId(0), PartyId(1)],
        vec![
            EscrowSpec {
                owner: PartyId(0),
                chain: ChainId(0),
                asset: Asset::non_fungible("ticket", [1]),
            },
            EscrowSpec {
                owner: PartyId(1),
                chain: ChainId(1),
                asset: Asset::fungible("coin", 100),
            },
        ],
        vec![
            TransferSpec {
                from: PartyId(0),
                to: PartyId(1),
                chain: ChainId(0),
                asset: Asset::non_fungible("ticket", [1]),
            },
            TransferSpec {
                from: PartyId(1),
                to: PartyId(0),
                chain: ChainId(1),
                asset: Asset::fungible("coin", 100),
            },
        ],
    )
}

/// Runs every experiment and returns the rendered report.
pub fn full_report() -> String {
    let mut out = String::new();
    for t in fig1_fig2_example() {
        out.push_str(&t.render());
        out.push('\n');
    }
    out.push_str(&fig3_escrow_costs().render());
    out.push('\n');
    out.push_str(&fig4_gas(&[3, 5, 7, 9], 2).1.render());
    out.push('\n');
    out.push_str(&fig7_delays(&[3, 6, 9]).1.render());
    out.push('\n');
    out.push_str(&safety_sweep().1.render());
    out.push('\n');
    out.push_str(&liveness_experiment().render());
    out.push('\n');
    out.push_str(&protocol_matrix_experiment().1.render());
    out.push('\n');
    out.push_str(&pow_attack_experiment(300).render());
    out.push('\n');
    out.push_str(&crossover_experiment(&[3, 4, 6, 8, 10], 2).render());
    out.push('\n');
    for t in swap_baseline_experiment() {
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_shapes_match_the_paper() {
        let (rows, _) = fig4_gas(&[3, 6], 2);
        for r in &rows {
            // Escrow is 4 writes per asset, transfers 2 per transfer.
            assert_eq!(r.escrow_writes, 4 * r.m as u64);
            assert_eq!(r.transfer_writes, 2 * r.t as u64);
            assert_eq!(r.validation_gas, 0);
        }
        // Timelock commit signatures grow superlinearly with n; CBC's stay
        // proportional to m(2f+1).
        let tl: Vec<&GasRow> = rows.iter().filter(|r| r.protocol == "timelock").collect();
        let cbc: Vec<&GasRow> = rows.iter().filter(|r| r.protocol == "CBC").collect();
        assert!(tl[1].commit_sigs > tl[0].commit_sigs);
        assert_eq!(cbc[0].commit_sigs, (cbc[0].m * 5) as u64);
        assert_eq!(cbc[1].commit_sigs, (cbc[1].m * 5) as u64);
    }

    #[test]
    fn fig7_commit_delay_grows_only_for_forwarded_timelock() {
        let (rows, _) = fig7_delays(&[3, 8]);
        let forwarded: Vec<&DelayRow> = rows
            .iter()
            .filter(|r| r.scenario.contains("forwarded"))
            .collect();
        let cbc: Vec<&DelayRow> = rows
            .iter()
            .filter(|r| r.scenario.starts_with("CBC") && r.scenario.contains("sequential"))
            .collect();
        assert!(forwarded[1].commit > forwarded[0].commit);
        assert!(cbc[1].commit <= 3.0 + 1e-9);
        // Sequential transfers scale with t, concurrent stay ~1∆.
        let seq = rows
            .iter()
            .find(|r| r.scenario.contains("timelock / sequential"))
            .unwrap();
        assert!(seq.transfer >= 1.0);
    }

    #[test]
    fn safety_sweep_finds_no_violations() {
        let (result, _) = safety_sweep();
        assert!(result.scenarios > 100);
        assert_eq!(result.safety_violations, 0);
        assert_eq!(result.weak_liveness_violations, 0);
        assert_eq!(result.conservation_violations, 0);
    }

    #[test]
    fn protocol_matrix_covers_engines_networks_and_strategies() {
        let (rows, _) = protocol_matrix_experiment();
        // Per deal: 5 strategy scenarios (compliant, sore-loser, coalition,
        // 2 rational defectors). 2 deals × {timelock, CBC} × 2 networks × 5,
        // plus the swap engine on the one deal it can express × 2 × 5.
        assert_eq!(rows.len(), 50);
        for (deal, engine, network, adversary, committed, safe) in &rows {
            // Safety holds in every cell, whatever the strategy.
            assert!(
                safe,
                "{deal}/{engine}/{network}/{adversary} violated safety"
            );
            if adversary == "all compliant" {
                // The CBC does not rely on synchrony: it commits everywhere.
                if engine == "CBC" {
                    assert!(committed, "CBC should commit on {network}");
                }
                // Under full synchrony every engine commits.
                if network == "synchronous" {
                    assert!(committed, "{engine} should commit under synchrony");
                }
            }
            // The sore-loser, by construction, never lets the deal commit.
            if adversary.starts_with("sore-loser") {
                assert!(!committed, "{deal}/{engine}/{network}/{adversary}");
            }
        }
        assert!(rows.iter().any(|(_, e, _, _, _, _)| e == "HTLC swap"));
        // The adversary axis enumerates strategy names.
        assert!(rows
            .iter()
            .any(|(_, _, _, a, _, _)| a == "sore-loser@party-0"));
        assert!(rows
            .iter()
            .any(|(_, _, _, a, _, _)| a == "coalition(party-0+party-1)"));
        assert!(rows
            .iter()
            .any(|(_, _, _, a, _, _)| a == "rational-defector(token=1000)@party-1"));
        // A generously-valued rational defector finds the two-party exchange
        // worth committing to under synchrony.
        assert!(rows.iter().any(|(d, _, n, a, c, _)| {
            d == "two-party exchange"
                && n == "synchronous"
                && a == "rational-defector(token=1000)@party-1"
                && *c
        }));
    }

    #[test]
    fn swap_expressiveness_matches_section8() {
        let tables = swap_baseline_experiment();
        let rows = &tables[0].rows;
        assert_eq!(rows[0][1], "false"); // broker deal is not a swap
        assert_eq!(rows[1][1], "false"); // auction is not a swap
        assert_eq!(rows[2][1], "true"); // ring is

        // The commit protocols cost at least as much gas as the plain HTLC
        // swap: they buy generality the swap cannot express.
        let cost = &tables[1].rows;
        let swap_gas: u64 = cost.iter().find(|r| r[0] == "HTLC swap").unwrap()[3]
            .parse()
            .unwrap();
        for row in cost.iter().filter(|r| r[0] != "HTLC swap") {
            let deal_gas: u64 = row[3].parse().unwrap();
            assert!(deal_gas >= swap_gas, "{row:?}");
        }
    }
}
