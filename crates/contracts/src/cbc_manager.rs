//! The CBC escrow manager (Section 6, Figure 6).
//!
//! In the CBC protocol parties vote to commit or abort the *entire deal* on
//! the certified blockchain; the escrow contract on each asset chain never
//! sees votes, only *proofs* extracted from the CBC. A party claiming an asset
//! (or a refund) presents either a validator status certificate (the common,
//! optimized case) or a full block-range proof; the contract verifies the
//! validator signatures — the expensive step — and commits or aborts
//! accordingly.

use std::any::Any;
use std::sync::Arc;

use xchain_bft::proof::{BlockProof, DealStatus, StatusCertificate};
use xchain_bft::validator::{validator_party_id, ValidatorSetInfo};
use xchain_sim::asset::Asset;
use xchain_sim::contract::{CallCtx, Contract};
use xchain_sim::crypto::Hash;
use xchain_sim::error::ChainResult;
use xchain_sim::ids::{DealId, PartyId};

use crate::escrow::{DealEscrow, EscrowCore, EscrowResolution};

/// Deal information the CBC protocol passes to each escrow contract at escrow
/// time: the deal id, plist, the hash `h` of the definitive startDeal record,
/// and the CBC's initial validator set (Section 6.2: "passing the 3f+1
/// validators of the initial block as an extra argument to each of the deal's
/// escrow contracts").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CbcDealInfo {
    /// The deal identifier `D`.
    pub deal: DealId,
    /// The participating parties.
    pub plist: Vec<PartyId>,
    /// Hash of the definitive startDeal record on the CBC.
    pub start_hash: Hash,
    /// The CBC's initial validator set.
    pub validators: ValidatorSetInfo,
}

/// The CBC escrow manager contract.
#[derive(Debug, Clone)]
pub struct CbcManager {
    core: EscrowCore,
    /// Shared with the deal's other chains: one copy per deal, not per chain.
    info: Arc<CbcDealInfo>,
}

impl CbcManager {
    /// Creates the manager for one deal on one asset chain. The engines
    /// pass one `Arc` to every chain of the deal; a plain
    /// [`CbcDealInfo`] is wrapped.
    pub fn new(info: impl Into<Arc<CbcDealInfo>>) -> Self {
        let info = info.into();
        CbcManager {
            core: EscrowCore::new(info.deal),
            info,
        }
    }

    /// Verifies a status certificate following Figure 6: unique signers, all
    /// signers are validators, at least `2f + 1` of them, each signature
    /// valid (3000 gas each). On success, resolves the escrow according to the
    /// certified status.
    pub fn resolve_with_certificate(
        &mut self,
        ctx: &mut CallCtx<'_>,
        cert: &StatusCertificate,
    ) -> ChainResult<()> {
        ctx.require(self.core.is_active(), "deal already resolved")?;
        ctx.require(
            cert.deal == self.info.deal,
            "certificate is for another deal",
        )?;
        ctx.require(
            cert.start_hash == self.info.start_hash,
            "certificate references a different startDeal",
        )?;
        ctx.require(
            cert.certificate.epoch == self.info.validators.epoch,
            "certificate epoch does not match the configured validator set",
        )?;
        // Figure 6 line 6: no duplicate signers.
        let signatures = &cert.certificate.signatures;
        for (i, (vid, _)) in signatures.iter().enumerate() {
            let duplicate = signatures[..i].iter().any(|(seen, _)| seen == vid);
            ctx.require(!duplicate, "duplicate validator signature")?;
        }
        // line 7: only validators vote.
        ctx.require(
            cert.certificate
                .signatures
                .iter()
                .all(|(vid, _)| self.info.validators.contains(*vid)),
            "signer is not a configured validator",
        )?;
        // line 8: enough validators vote.
        let quorum = self.info.validators.quorum();
        ctx.require(
            cert.certificate.signatures.len() >= quorum,
            "fewer than 2f+1 validator signatures",
        )?;
        // lines 9-11: verify 2f+1 signatures (expensive).
        let payload = cert.payload();
        for (vid, sig) in cert.certificate.signatures.iter().take(quorum) {
            let Some(pk) = self.info.validators.public_key_of(*vid) else {
                return ctx.require(false, "validator key missing").map(|_| ());
            };
            // Validator keys are registered on the chain under synthetic ids.
            let registered = ctx.keys().public_key_of(validator_party_id(*vid));
            ctx.require(
                registered == Some(pk),
                "validator key not registered on chain",
            )?;
            let ok = ctx.verify_signature(sig, pk, &payload)?;
            ctx.require(ok, "invalid validator signature")?;
        }
        // line 12: record and act on the outcome.
        match cert.status {
            DealStatus::Committed { .. } => self.core.distribute_commit(ctx),
            DealStatus::Aborted { .. } => self.core.distribute_abort(ctx),
            DealStatus::Active => ctx.require(false, "certificate does not decide the deal"),
        }
    }

    /// Verifies a full block-range proof: every block certificate is checked
    /// against the validator set in force (advancing at reconfiguration
    /// records whose successor sets the caller supplies), then the deal status
    /// is recomputed from the ordered votes. Far more signature verifications
    /// than the certificate path — the cost the Section 6.2 optimization avoids.
    pub fn resolve_with_block_proof(
        &mut self,
        ctx: &mut CallCtx<'_>,
        proof: &BlockProof,
        epoch_infos: &[ValidatorSetInfo],
    ) -> ChainResult<()> {
        ctx.require(self.core.is_active(), "deal already resolved")?;
        ctx.require(proof.deal == self.info.deal, "proof is for another deal")?;
        ctx.require(
            proof.start_hash == self.info.start_hash,
            "proof references a different startDeal",
        )?;
        // Charge one signature verification per signature the off-chain
        // checker examines; then validate the proof's conclusion.
        let check = proof.verify(&self.info.validators, epoch_infos, ctx.keys());
        for _ in 0..check.sig_verifications {
            ctx.charge_sig_verification()?;
        }
        let Some(status) = check.status else {
            return ctx.require(false, "block proof failed verification");
        };
        match status {
            DealStatus::Committed { .. } => self.core.distribute_commit(ctx),
            DealStatus::Aborted { .. } => self.core.distribute_abort(ctx),
            DealStatus::Active => ctx.require(false, "proof does not decide the deal"),
        }
    }
}

impl DealEscrow for CbcManager {
    type Info = CbcDealInfo;

    fn info(&self) -> &CbcDealInfo {
        &self.info
    }

    fn core(&self) -> &EscrowCore {
        &self.core
    }

    fn resolution(&self) -> Option<EscrowResolution> {
        self.core.resolution()
    }

    fn escrow(&mut self, ctx: &mut CallCtx<'_>, asset: Asset) -> ChainResult<()> {
        self.core.escrow(ctx, &self.info.plist, asset)
    }

    fn transfer(&mut self, ctx: &mut CallCtx<'_>, asset: &Asset, to: PartyId) -> ChainResult<()> {
        self.core.transfer(ctx, &self.info.plist, asset, to)
    }
}

impl Contract for CbcManager {
    fn type_name(&self) -> &'static str {
        "cbc-manager"
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xchain_bft::log::CbcLog;
    use xchain_sim::error::ChainError;
    use xchain_sim::ids::{ChainId, ContractId, Owner};
    use xchain_sim::ledger::Blockchain;
    use xchain_sim::time::{Duration, Time};

    struct Fixture {
        chain: Blockchain,
        contract: ContractId,
        cbc: CbcLog,
        info: CbcDealInfo,
    }

    fn fixture(f: usize) -> Fixture {
        let mut chain = Blockchain::new(ChainId(0), "coins", Duration(1));
        let plist: Vec<PartyId> = (0..3).map(PartyId).collect();
        let mut cbc = CbcLog::new(f, 21);
        cbc.validators().register_on_chain(&mut chain);
        let (_, start_hash) = cbc
            .start_deal(Time(0), plist[0], DealId(9), plist.clone())
            .unwrap();
        let coins = Asset::fungible("coin", 101);
        chain.mint(Owner::Party(plist[2]), &coins).unwrap();
        let info = CbcDealInfo {
            deal: DealId(9),
            plist: plist.clone(),
            start_hash,
            validators: cbc.initial_validators(),
        };
        let contract = chain.install(CbcManager::new(info.clone()));
        Fixture {
            chain,
            contract,
            cbc,
            info,
        }
    }

    fn escrow_and_route_coins(fx: &mut Fixture) {
        let alice = fx.info.plist[0];
        let bob = fx.info.plist[1];
        let carol = fx.info.plist[2];
        let coins = Asset::fungible("coin", 101);
        let hundred = Asset::fungible("coin", 100);
        fx.chain
            .call(
                Time(0),
                Owner::Party(carol),
                fx.contract,
                |m: &mut CbcManager, ctx| m.escrow(ctx, coins.clone()),
            )
            .unwrap();
        fx.chain
            .call(
                Time(1),
                Owner::Party(carol),
                fx.contract,
                |m: &mut CbcManager, ctx| m.transfer(ctx, &coins, alice),
            )
            .unwrap();
        fx.chain
            .call(
                Time(2),
                Owner::Party(alice),
                fx.contract,
                |m: &mut CbcManager, ctx| m.transfer(ctx, &hundred, bob),
            )
            .unwrap();
    }

    #[test]
    fn commit_certificate_releases_assets() {
        let mut fx = fixture(1);
        escrow_and_route_coins(&mut fx);
        for p in 0..3 {
            fx.cbc
                .vote_commit(
                    Time(10 + p as u64),
                    DealId(9),
                    fx.info.start_hash,
                    PartyId(p),
                )
                .unwrap();
        }
        let cert = fx
            .cbc
            .status_certificate(Time(20), DealId(9), fx.info.start_hash)
            .unwrap();
        let before = fx.chain.gas_usage();
        fx.chain
            .call(
                Time(30),
                Owner::Party(fx.info.plist[1]),
                fx.contract,
                |m: &mut CbcManager, ctx| m.resolve_with_certificate(ctx, &cert),
            )
            .unwrap();
        let delta = before.delta_to(&fx.chain.gas_usage());
        assert_eq!(delta.sig_verifications, 3); // 2f+1 with f = 1
        assert_eq!(
            fx.chain
                .assets()
                .balance(Owner::Party(fx.info.plist[1]), &"coin".into()),
            100
        );
        assert_eq!(
            fx.chain
                .assets()
                .balance(Owner::Party(fx.info.plist[0]), &"coin".into()),
            1
        );
    }

    #[test]
    fn abort_certificate_refunds_original_owner() {
        let mut fx = fixture(1);
        escrow_and_route_coins(&mut fx);
        fx.cbc
            .vote_abort(Time(5), DealId(9), fx.info.start_hash, fx.info.plist[1])
            .unwrap();
        let cert = fx
            .cbc
            .status_certificate(Time(6), DealId(9), fx.info.start_hash)
            .unwrap();
        fx.chain
            .call(
                Time(10),
                Owner::Party(fx.info.plist[2]),
                fx.contract,
                |m: &mut CbcManager, ctx| m.resolve_with_certificate(ctx, &cert),
            )
            .unwrap();
        assert_eq!(
            fx.chain
                .assets()
                .balance(Owner::Party(fx.info.plist[2]), &"coin".into()),
            101
        );
        assert_eq!(
            fx.chain
                .view(fx.contract, |m: &CbcManager| m.resolution())
                .unwrap(),
            Some(EscrowResolution::Aborted)
        );
    }

    #[test]
    fn active_or_tampered_certificates_rejected() {
        let mut fx = fixture(1);
        escrow_and_route_coins(&mut fx);
        // Active status does not decide the deal.
        let cert = fx
            .cbc
            .status_certificate(Time(5), DealId(9), fx.info.start_hash)
            .unwrap();
        let err = fx
            .chain
            .call(
                Time(10),
                Owner::Party(fx.info.plist[0]),
                fx.contract,
                |m: &mut CbcManager, ctx| m.resolve_with_certificate(ctx, &cert),
            )
            .unwrap_err();
        assert!(matches!(err, ChainError::Require(_)));

        // A certificate whose status was tampered with fails signature checks.
        for p in 0..3 {
            fx.cbc
                .vote_commit(
                    Time(10 + p as u64),
                    DealId(9),
                    fx.info.start_hash,
                    PartyId(p),
                )
                .unwrap();
        }
        let mut forged = fx
            .cbc
            .status_certificate(Time(20), DealId(9), fx.info.start_hash)
            .unwrap();
        forged.status = DealStatus::Aborted { decisive_index: 0 };
        let err = fx
            .chain
            .call(
                Time(30),
                Owner::Party(fx.info.plist[0]),
                fx.contract,
                |m: &mut CbcManager, ctx| m.resolve_with_certificate(ctx, &forged),
            )
            .unwrap_err();
        assert!(matches!(err, ChainError::Require(_)));
        // Escrow is still active: nothing was paid out.
        assert!(fx
            .chain
            .view(fx.contract, |m: &CbcManager| m.core().is_active())
            .unwrap());
    }

    #[test]
    fn certificate_for_wrong_deal_rejected() {
        let mut fx = fixture(1);
        escrow_and_route_coins(&mut fx);
        let plist = fx.info.plist.clone();
        let (_, other_hash) = fx
            .cbc
            .start_deal(Time(0), plist[0], DealId(10), plist.clone())
            .unwrap();
        for p in &plist {
            fx.cbc
                .vote_commit(Time(3), DealId(10), other_hash, *p)
                .unwrap();
        }
        let cert = fx
            .cbc
            .status_certificate(Time(5), DealId(10), other_hash)
            .unwrap();
        let err = fx
            .chain
            .call(
                Time(10),
                Owner::Party(plist[0]),
                fx.contract,
                |m: &mut CbcManager, ctx| m.resolve_with_certificate(ctx, &cert),
            )
            .unwrap_err();
        assert!(matches!(err, ChainError::Require(_)));
    }

    #[test]
    fn block_proof_path_resolves_and_costs_more() {
        let mut fx = fixture(1);
        escrow_and_route_coins(&mut fx);
        for p in 0..3 {
            fx.cbc
                .vote_commit(
                    Time(10 + p as u64),
                    DealId(9),
                    fx.info.start_hash,
                    PartyId(p),
                )
                .unwrap();
        }
        let proof = fx.cbc.block_proof(DealId(9), fx.info.start_hash).unwrap();
        let epoch_infos = fx.cbc.epoch_infos().to_vec();
        let before = fx.chain.gas_usage();
        fx.chain
            .call(
                Time(30),
                Owner::Party(fx.info.plist[1]),
                fx.contract,
                |m: &mut CbcManager, ctx| m.resolve_with_block_proof(ctx, &proof, &epoch_infos),
            )
            .unwrap();
        let delta = before.delta_to(&fx.chain.gas_usage());
        // 4 blocks (startDeal + 3 votes), each certified by 2f+1 = 3 signatures.
        assert_eq!(delta.sig_verifications, 12);
        assert!(
            delta.sig_verifications > 3,
            "block proof costs more than a status certificate"
        );
        assert_eq!(
            fx.chain
                .assets()
                .balance(Owner::Party(fx.info.plist[1]), &"coin".into()),
            100
        );
    }

    #[test]
    fn resolution_is_terminal_even_with_conflicting_proofs() {
        let mut fx = fixture(1);
        escrow_and_route_coins(&mut fx);
        // Abort first …
        fx.cbc
            .vote_abort(Time(5), DealId(9), fx.info.start_hash, fx.info.plist[0])
            .unwrap();
        let abort_cert = fx
            .cbc
            .status_certificate(Time(6), DealId(9), fx.info.start_hash)
            .unwrap();
        fx.chain
            .call(
                Time(10),
                Owner::Party(fx.info.plist[2]),
                fx.contract,
                |m: &mut CbcManager, ctx| m.resolve_with_certificate(ctx, &abort_cert),
            )
            .unwrap();
        // … then the deal "commits" later on the CBC (it cannot, since the
        // abort was decisive, but even a committed-looking certificate for the
        // same deal must not re-open the escrow).
        let err = fx
            .chain
            .call(
                Time(20),
                Owner::Party(fx.info.plist[1]),
                fx.contract,
                |m: &mut CbcManager, ctx| m.resolve_with_certificate(ctx, &abort_cert),
            )
            .unwrap_err();
        assert!(matches!(err, ChainError::Require(_)));
    }
}
