//! Integration tests over the experiment harness: the regenerated tables must
//! exhibit the qualitative shapes the paper reports.

use xchain_deals::spec::DealSpec;
use xchain_harness::experiments::{
    crossover_experiment, fig3_escrow_costs, fig4_gas, fig7_delays, liveness_experiment,
    protocol_matrix_experiment, safety_sweep, swap_baseline_experiment,
};
use xchain_sim::ids::{ChainId, PartyId};

/// The chains a party must interact with under the timelock protocol when it
/// behaves compliantly: the chains of its incoming assets (votes) and
/// outgoing assets (monitoring) only. Used to verify the decentralization
/// claim of Section 5.1.
fn chains_touched_by(spec: &DealSpec, party: PartyId) -> Vec<ChainId> {
    let mut chains: Vec<ChainId> = spec
        .transfers
        .iter()
        .filter(|t| t.from == party || t.to == party)
        .map(|t| t.chain)
        .collect();
    chains.sort();
    chains.dedup();
    chains
}

#[test]
fn fig4_commit_costs_scale_as_the_paper_says() {
    let (rows, table) = fig4_gas(&[3, 6, 9], 2);
    assert!(!table.render().is_empty());
    let tl: Vec<_> = rows.iter().filter(|r| r.protocol == "timelock").collect();
    let cbc: Vec<_> = rows.iter().filter(|r| r.protocol == "CBC").collect();
    // Timelock: per-asset signature verifications grow with n (towards n^2).
    let tl_per_asset: Vec<f64> = tl
        .iter()
        .map(|r| r.commit_sigs as f64 / r.m as f64)
        .collect();
    assert!(
        tl_per_asset.windows(2).all(|w| w[1] > w[0]),
        "{tl_per_asset:?}"
    );
    // CBC: exactly m(2f+1) signature verifications regardless of n.
    for r in &cbc {
        assert_eq!(r.commit_sigs, (r.m * (2 * r.f + 1)) as u64);
    }
    // Escrow and transfer costs match O(m) and O(t) exactly for both.
    for r in &rows {
        assert_eq!(r.escrow_writes, 4 * r.m as u64);
        assert_eq!(r.transfer_writes, 2 * r.t as u64);
        assert_eq!(r.validation_gas, 0);
    }
}

#[test]
fn fig7_delays_match_the_paper_shape() {
    let (rows, _) = fig7_delays(&[3, 7]);
    // Sequential transfers cost more than concurrent ones.
    let seq = rows
        .iter()
        .find(|r| r.n == 7 && r.scenario.contains("timelock / sequential"))
        .unwrap();
    let conc = rows
        .iter()
        .find(|r| r.n == 7 && r.scenario.contains("timelock / concurrent"))
        .unwrap();
    assert!(seq.transfer > conc.transfer);
    // Forwarded timelock commit grows with n; CBC commit stays O(1).
    let tl3 = rows
        .iter()
        .find(|r| r.n == 3 && r.scenario.contains("forwarded"))
        .unwrap();
    let tl7 = rows
        .iter()
        .find(|r| r.n == 7 && r.scenario.contains("forwarded"))
        .unwrap();
    assert!(tl7.commit > tl3.commit);
    for r in rows.iter().filter(|r| r.scenario.starts_with("CBC")) {
        assert!(r.commit <= 3.0 + 1e-9, "{r:?}");
    }
    // Escrow and validation are each about one ∆.
    for r in &rows {
        assert!(r.escrow <= 1.0 + 1e-9);
        assert!(r.validation <= 1.0 + 1e-9);
    }
}

#[test]
fn fig3_escrow_write_counts() {
    let t = fig3_escrow_costs();
    // 4 writes per escrow, 2 per tentative transfer.
    assert_eq!(t.rows[0][3], "4.0");
    assert_eq!(t.rows[1][3], "2.0");
}

#[test]
fn crossover_favours_timelock_for_small_n_and_cbc_for_large_n() {
    let t = crossover_experiment(&[3, 12], 2);
    // With f = 2 (quorum 5): at n = 3 the timelock needs at most n^2 = 9 per
    // asset (usually fewer), close to the CBC's 5; by n = 12 the timelock is
    // clearly more expensive.
    let last = t.rows.last().unwrap();
    assert_eq!(last[4], "CBC", "CBC should be cheaper at n = 12: {last:?}");
}

#[test]
fn liveness_table_reports_all_commits() {
    let t = liveness_experiment();
    for row in &t.rows {
        assert_eq!(row[2], "true", "{row:?}");
        assert_eq!(row[3], "true", "{row:?}");
    }
}

#[test]
fn swap_baseline_tables_are_consistent() {
    let tables = swap_baseline_experiment();
    assert_eq!(tables.len(), 2);
    // The same two-party deal ran under all three engines.
    assert_eq!(tables[1].rows.len(), 3);
    // The commit protocols cost at least as much gas as the plain HTLC swap:
    // they buy generality (brokering, auctions) that the swap cannot express.
    let gas_of = |label: &str| -> u64 {
        tables[1]
            .rows
            .iter()
            .find(|r| r[0] == label)
            .unwrap_or_else(|| panic!("no row for {label}"))[3]
            .parse()
            .unwrap()
    };
    let swap_gas = gas_of("HTLC swap");
    assert!(gas_of("timelock") >= swap_gas);
    assert!(gas_of("CBC") >= swap_gas);
}

#[test]
fn protocol_matrix_is_safe_in_every_cell() {
    let (rows, table) = protocol_matrix_experiment();
    assert!(!table.render().is_empty());
    // Three engines on the two-party deal, two on the broker deal, over two
    // network models and five named strategy scenarios each.
    assert_eq!(rows.len(), 50);
    for (deal, engine, network, adversary, committed, safe) in &rows {
        assert!(safe, "{deal}/{engine}/{network}/{adversary}");
        if network == "synchronous" && adversary == "all compliant" {
            assert!(committed, "{deal}/{engine} under synchrony");
        }
    }
}

#[test]
fn safety_sweep_runs_every_scenario_without_violations() {
    // 2 deals (broker, 4-ring) x 2 commit protocols x (baseline, every
    // single deviator, every all-but-one coalition, the trait-only
    // adversaries): (1 + 33 + 33 + 6) + (1 + 44 + 44 + 7) = 169 per protocol.
    let (result, table) = safety_sweep();
    assert_eq!(result.scenarios, 338);
    assert_eq!(result.safety_violations, 0);
    assert_eq!(result.weak_liveness_violations, 0);
    assert_eq!(result.conservation_violations, 0);
    assert_eq!(table.rows, vec![vec!["338", "0", "0", "0"]]);
}

#[test]
fn fixed_per_party_timeouts_are_contradictory() {
    // Section 5's negative result: assigning each party one fixed timeout per
    // asset cannot work. With Bob's and Carol's votes already published, Alice
    // can wait until just before her coin-chain timeout Ac, forcing the
    // ticket-chain timeout to satisfy At >= Ac + ∆ (Carol needs ∆ to observe
    // and forward), or symmetrically wait on the ticket chain, forcing
    // Ac >= At + ∆. No pair (At, Ac) satisfies both, for any ∆ > 0.
    let delta: i64 = 100;
    let satisfiable = (0..=20 * delta).step_by(10).any(|at| {
        (0..=20 * delta)
            .step_by(10)
            .any(|ac| at >= ac + delta && ac >= at + delta)
    });
    assert!(!satisfiable);
    // The path-signature rule resolves the dilemma: the deadline depends on
    // the forwarding path length, not on the party, so a vote forwarded once
    // simply gets one extra ∆ — which is exactly what the contracts enforce
    // (exercised end-to-end by the timelock integration tests).
}

#[test]
fn timelock_protocol_is_decentralized_per_section_5_1() {
    // "There is no single blockchain that must be accessed by all compliant
    // parties": in the brokered-chain workload every non-broker party touches
    // only the chains of its own incoming and outgoing assets, which is a
    // strict subset of the deal's chains.
    use xchain_deals::builders::brokered_chain_spec;
    use xchain_sim::ids::DealId;
    let spec = brokered_chain_spec(DealId(31), 6, 60);
    let all_chains = spec.chains();
    for p in 1..6u32 {
        let touched = chains_touched_by(&spec, PartyId(p));
        assert!(
            touched.len() < all_chains.len(),
            "party {p} should not need every chain: {touched:?}"
        );
    }
    // No chain is touched by every party.
    for chain in &all_chains {
        let touching_everyone = spec
            .parties
            .iter()
            .all(|p| chains_touched_by(&spec, *p).contains(chain));
        assert!(!touching_everyone, "{chain:?} is touched by every party");
    }
}

#[test]
fn decentralization_chain_sets() {
    use xchain_deals::builders::ring_spec;
    use xchain_deals::setup::check_parties_exist;
    use xchain_sim::ids::DealId;
    use xchain_sim::world::World;
    let spec = ring_spec(DealId(1), 2);
    assert_eq!(
        chains_touched_by(&spec, PartyId(0)),
        vec![ChainId(0), ChainId(1)]
    );
    let missing = check_parties_exist(&World::new(0), &spec);
    assert!(missing.is_err());
}
