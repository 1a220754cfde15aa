//! The certified-blockchain (CBC) commit protocol engine (Section 6).
//!
//! Parties vote to commit or abort the *entire deal* on a shared certified
//! log; escrow contracts on the asset chains are resolved by presenting
//! validator-signed proofs. Unlike the timelock protocol this works under
//! eventual synchrony: before the global stabilization time votes simply take
//! longer to be observed, and impatient parties may rescind by voting abort —
//! but the deal still either commits everywhere or aborts everywhere.
//!
//! The engine supplies the protocol's clearing step (create the CBC, record
//! startDeal, install a [`CbcManager`] on every involved chain) and its
//! commit step (votes, patience, proof presentation); the escrow,
//! tentative-transfer and validation phases run on the shared
//! [`DealDriver`].

use std::collections::BTreeMap;

use xchain_bft::log::CbcLog;
use xchain_bft::proof::DealStatus;
use xchain_contracts::cbc_manager::{CbcDealInfo, CbcManager};
use xchain_contracts::escrow::DealEscrow;
use xchain_sim::ids::{Owner, PartyId};
use xchain_sim::time::Duration;
use xchain_sim::world::World;

use crate::driver::DealDriver;
use crate::engine::{EngineRun, ProtocolExt};
use crate::error::DealError;
use crate::outcome::ProtocolKind;
use crate::party::PartyConfig;
use crate::phases::Phase;
use crate::plan::DealPlan;
use crate::setup::advance_one_observation;
use crate::strategy::Vote;

/// Tunable options for the CBC protocol engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CbcOptions {
    /// The CBC's fault-tolerance parameter `f` (3f+1 validators, 2f+1 quorum).
    pub f: usize,
    /// How long a party that has voted commit waits before rescinding with an
    /// abort vote if the deal has not resolved (must be at least ∆ for strong
    /// liveness, Section 6).
    pub patience: Duration,
    /// If true, escrow contracts are resolved with full block-range proofs
    /// instead of validator status certificates (the expensive, unoptimized
    /// path of Section 6.2).
    pub use_block_proofs: bool,
    /// If true, independent tentative transfers are submitted concurrently.
    pub concurrent_transfers: bool,
    /// Parties whose CBC submissions the validators censor (Section 9's
    /// censorship threat). Empty for honest validators.
    pub censored_parties: Vec<PartyId>,
    /// The nominal ∆ used to normalise durations in reports.
    pub delta: Duration,
}

impl Default for CbcOptions {
    fn default() -> Self {
        CbcOptions {
            f: 1,
            patience: Duration(300),
            use_block_proofs: false,
            concurrent_transfers: false,
            censored_parties: Vec::new(),
            delta: Duration(100),
        }
    }
}

/// The CBC protocol driver behind [`crate::Protocol::Cbc`].
pub(crate) fn drive(
    world: &mut World,
    plan: &DealPlan,
    configs: &[PartyConfig],
    opts: &CbcOptions,
) -> Result<EngineRun, DealError> {
    let spec = plan.spec();
    let mut d = DealDriver::new(world, plan, configs)?;

    // Clearing: create the CBC, publish startDeal, install contracts.
    let (mut cbc, info) = d.phase(Phase::Clearing, |d| -> Result<_, DealError> {
        let mut cbc = CbcLog::new(opts.f, d.world.seed() ^ 0xCBC);
        for p in &opts.censored_parties {
            cbc.censor(*p);
        }
        // Register validator keys on every involved chain so escrow
        // contracts can verify certificates.
        for &chain in plan.chains() {
            let chain_ref = d.world.chain_mut(chain).map_err(DealError::Chain)?;
            cbc.validators().register_on_chain(chain_ref);
        }
        // One party (the first that is not censored) records the start of
        // the deal.
        let starter = spec
            .parties
            .iter()
            .copied()
            .find(|p| !opts.censored_parties.contains(p))
            .ok_or_else(|| DealError::Config("every party is censored".into()))?;
        let (_, start_hash) = cbc
            .start_deal(d.world.now(), starter, spec.deal, spec.parties.clone())
            .map_err(DealError::Cbc)?;
        let info = CbcDealInfo {
            deal: spec.deal,
            plist: spec.parties.clone(),
            start_hash,
            validators: cbc.initial_validators(),
        };
        d.install_everywhere(|| CbcManager::new(info.clone()))?;
        Ok((cbc, info))
    })?;

    let validated = d.shared_phases::<CbcManager>(&info, opts.concurrent_transfers)?;

    // Commit: votes on the CBC, then proof presentation to contracts.
    let status = d.phase(Phase::Commit, |d| {
        commit(d, &mut cbc, &info, &validated, opts)
    })?;

    Ok(d.finish(
        ProtocolKind::Cbc,
        opts.delta,
        |m: &CbcManager| m.resolution().into(),
        ProtocolExt::Cbc {
            log: cbc,
            status,
            validated,
        },
    ))
}

/// The commit step: every party votes on the CBC, compliant parties rescind
/// after their patience runs out, and the decisive proof is presented to
/// every escrow contract. Returns the final deal status on the CBC.
fn commit(
    d: &mut DealDriver<'_>,
    cbc: &mut CbcLog,
    info: &CbcDealInfo,
    validated: &BTreeMap<PartyId, bool>,
    opts: &CbcOptions,
) -> Result<DealStatus, DealError> {
    let deal = info.deal;
    let start_hash = info.start_hash;

    // All parties vote in parallel (the CBC orders them).
    for &p in &info.plist {
        if !d.available(p) {
            continue;
        }
        let verdict = validated.get(&p).copied().unwrap_or(false);
        let now = d.world.now();
        match d.decide(p, Phase::Commit, Some(verdict), |s, ctx| s.on_vote(ctx)) {
            Vote::Commit => {
                let _ = cbc.vote_commit(now, deal, start_hash, p);
            }
            Vote::Abort => {
                let _ = cbc.vote_abort(now, deal, start_hash, p);
            }
            Vote::Withhold => {}
        }
    }
    // The votes become observable after at most one network delay (longer
    // before GST under eventual synchrony).
    advance_one_observation(d.world);

    // If the deal is still undecided (some party withheld its vote), compliant
    // parties wait out their patience and then rescind by voting abort.
    let mut status = cbc.deal_status(deal, start_hash).map_err(DealError::Cbc)?;
    if matches!(status, DealStatus::Active) {
        d.world.advance_by(opts.patience);
        let now = d.world.now();
        // Keep trying compliant parties until one abort vote lands (the
        // first candidate may itself be censored by the CBC).
        for &p in &info.plist {
            if d.is_compliant(p)
                && d.available(p)
                && cbc.vote_abort(now, deal, start_hash, p).is_ok()
            {
                break;
            }
        }
        status = cbc.deal_status(deal, start_hash).map_err(DealError::Cbc)?;
    }

    // Proof presentation: for each chain, an online party presents the proof
    // of the decisive outcome; presentations happen in parallel (≤ ∆).
    if !matches!(status, DealStatus::Active) {
        let epoch_infos = cbc.epoch_infos().to_vec();
        for &chain in d.plan.chains() {
            let Some(presenter) = d.online_party() else {
                continue;
            };
            let contract = d.contracts[&chain];
            if opts.use_block_proofs {
                let proof = cbc.block_proof(deal, start_hash).map_err(DealError::Cbc)?;
                let _ = d.world.call(
                    chain,
                    Owner::Party(presenter),
                    contract,
                    |m: &mut CbcManager, ctx| m.resolve_with_block_proof(ctx, &proof, &epoch_infos),
                );
            } else {
                let cert = cbc
                    .status_certificate(d.world.now(), deal, start_hash)
                    .map_err(DealError::Cbc)?;
                let _ = d.world.call(
                    chain,
                    Owner::Party(presenter),
                    contract,
                    |m: &mut CbcManager, ctx| m.resolve_with_certificate(ctx, &cert),
                );
            }
        }
        advance_one_observation(d.world);
    }
    Ok(status)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::broker_spec;
    use crate::deal::{Deal, DealRun};
    use crate::engine::Protocol;
    use crate::party::Deviation;
    use xchain_sim::asset::Asset;
    use xchain_sim::network::NetworkModel;

    fn run_broker(
        configs: &[PartyConfig],
        opts: &CbcOptions,
        network: NetworkModel,
        seed: u64,
    ) -> DealRun {
        Deal::new(broker_spec())
            .network(network)
            .parties(configs)
            .seed(seed)
            .run(Protocol::Cbc(opts.clone()))
            .unwrap()
    }

    #[test]
    fn all_compliant_deal_commits_everywhere() {
        let run = run_broker(
            &[],
            &CbcOptions::default(),
            NetworkModel::synchronous(100),
            1,
        );
        assert!(run.outcome.committed_everywhere());
        assert!(run.ext.cbc_status().unwrap().is_committed());
        assert!(run
            .world
            .holdings(Owner::Party(PartyId(2)))
            .contains(&Asset::non_fungible("ticket", [1, 2])));
        assert_eq!(
            run.world
                .holdings(Owner::Party(PartyId(1)))
                .balance(&"coin".into()),
            100
        );
    }

    #[test]
    fn withheld_vote_leads_to_abort_everywhere() {
        let configs = vec![PartyConfig::deviating(PartyId(1), Deviation::WithholdVote)];
        let run = run_broker(
            &configs,
            &CbcOptions::default(),
            NetworkModel::synchronous(100),
            2,
        );
        assert!(run.outcome.aborted_everywhere());
        assert!(run.ext.cbc_status().unwrap().is_aborted());
        // Carol's coins are refunded.
        assert_eq!(
            run.world
                .holdings(Owner::Party(PartyId(2)))
                .balance(&"coin".into()),
            101
        );
    }

    #[test]
    fn explicit_abort_vote_aborts_everywhere() {
        let configs = vec![PartyConfig::deviating(PartyId(2), Deviation::VoteAbort)];
        let run = run_broker(
            &configs,
            &CbcOptions::default(),
            NetworkModel::synchronous(100),
            3,
        );
        assert!(run.outcome.aborted_everywhere());
    }

    #[test]
    fn commits_even_before_gst_under_eventual_synchrony() {
        // Pre-GST delays are long but the CBC protocol does not rely on
        // timeouts for safety: with all parties compliant the deal commits.
        let network = NetworkModel::eventually_synchronous(1_000_000, 100, 5_000);
        let run = run_broker(&[], &CbcOptions::default(), network, 4);
        assert!(run.outcome.committed_everywhere());
    }

    #[test]
    fn block_proof_path_costs_more_gas_than_certificates() {
        let run_cert = run_broker(
            &[],
            &CbcOptions::default(),
            NetworkModel::synchronous(100),
            5,
        );
        let opts = CbcOptions {
            use_block_proofs: true,
            ..CbcOptions::default()
        };
        let run_proof = run_broker(&[], &opts, NetworkModel::synchronous(100), 5);
        let cert_sigs = run_cert
            .outcome
            .metrics
            .gas(Phase::Commit)
            .sig_verifications;
        let proof_sigs = run_proof
            .outcome
            .metrics
            .gas(Phase::Commit)
            .sig_verifications;
        assert!(
            proof_sigs > cert_sigs,
            "{proof_sigs} should exceed {cert_sigs}"
        );
        assert!(run_proof.outcome.committed_everywhere());
    }

    #[test]
    fn censorship_delays_but_does_not_steal() {
        // The CBC censors Bob: his commit vote never lands, so the deal aborts
        // (liveness lost) but both escrows refund (safety preserved).
        let opts = CbcOptions {
            censored_parties: vec![PartyId(1)],
            ..CbcOptions::default()
        };
        let run = run_broker(&[], &opts, NetworkModel::synchronous(100), 6);
        assert!(run.outcome.aborted_everywhere());
        assert!(run
            .world
            .holdings(Owner::Party(PartyId(1)))
            .contains(&Asset::non_fungible("ticket", [1, 2])));
        assert_eq!(
            run.world
                .holdings(Owner::Party(PartyId(2)))
                .balance(&"coin".into()),
            101
        );
    }

    #[test]
    fn commit_duration_is_constant_in_party_count() {
        // Figure 7: the CBC commit phase is O(1)·∆ — votes in parallel plus a
        // constant number of observation delays — regardless of n.
        use crate::builders::ring_spec;
        use xchain_sim::ids::DealId;
        let mut durations = Vec::new();
        for n in [3u32, 6, 9] {
            let run = Deal::new(ring_spec(DealId(n as u64), n))
                .network(NetworkModel::synchronous(100))
                .seed(7)
                .run(Protocol::cbc())
                .unwrap();
            assert!(run.outcome.committed_everywhere());
            durations.push(
                run.outcome
                    .metrics
                    .duration(Phase::Commit)
                    .in_units_of(Duration(100)),
            );
        }
        for d in &durations {
            assert!(
                *d <= 3.0 + 1e-9,
                "CBC commit should be O(1) deltas, got {d}"
            );
        }
    }
}
