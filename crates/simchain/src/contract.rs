//! The contract runtime: how blockchain-resident programs execute.
//!
//! The paper's contracts (Section 3) are deterministic, passive programs that
//! can access data on their own blockchain, hold assets (escrow), and verify
//! signatures/proofs. They cannot reach other blockchains — the only way a
//! contract learns about a remote chain is when a party presents evidence to
//! it. The runtime mirrors those rules:
//!
//! * Contracts are plain Rust values implementing [`Contract`]; they are
//!   installed on one [`crate::ledger::Blockchain`] and invoked through the
//!   chain, never directly.
//! * During a call the contract receives a [`CallCtx`] that exposes *only*
//!   local facilities: its own chain's asset ledger, the key directory, the
//!   chain's (quantized) clock, gas charging, and the chain log.
//! * Every externally-submitted call pays the intrinsic gas cost; storage
//!   writes and signature verifications pay the Section 7.1 costs.

use std::any::Any;

use crate::asset::{Asset, AssetKind};
use crate::crypto::{KeyDirectory, PublicKey, Signature};
use crate::error::{ChainError, ChainResult};
use crate::gas::GasMeter;
use crate::ids::{ContractId, Owner, PartyId, TokenId};
use crate::ledger::{AssetLedger, EventTag, LogData, LogEntry};
use crate::time::Time;

/// A blockchain-resident program.
///
/// Concrete contracts (escrow managers, token registries, the CBC vote log,
/// …) live in the `xchain-contracts` crate; the runtime only needs to store
/// them type-erased and hand them back by concrete type at call time.
pub trait Contract: Any + Send {
    /// A short, stable name used in the chain log.
    fn type_name(&self) -> &'static str;

    /// Upcast for downcasting to the concrete contract type.
    fn as_any(&self) -> &dyn Any;

    /// Mutable upcast for downcasting to the concrete contract type.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// The execution context handed to a contract for the duration of one call.
///
/// All side effects a contract can have (moving assets it owns, pulling assets
/// from the caller, writing storage, emitting log entries) go through this
/// context so that gas is charged uniformly and the ledger stays consistent.
pub struct CallCtx<'a> {
    pub(crate) contract: ContractId,
    pub(crate) caller: Owner,
    pub(crate) now: Time,
    pub(crate) gas: &'a mut GasMeter,
    pub(crate) assets: &'a mut AssetLedger,
    pub(crate) keys: &'a KeyDirectory,
    pub(crate) log: &'a mut Vec<LogEntry>,
    pub(crate) log_seq: &'a mut u64,
}

impl<'a> CallCtx<'a> {
    /// The owner form of the executing contract (for asset ownership checks).
    pub fn self_owner(&self) -> Owner {
        Owner::Contract(self.contract)
    }

    /// Who submitted this call.
    pub fn caller(&self) -> Owner {
        self.caller
    }

    /// The caller as a party, or an error if a contract called (the deal
    /// contracts only accept calls from parties).
    pub fn caller_party(&self) -> ChainResult<PartyId> {
        self.caller
            .as_party()
            .ok_or_else(|| ChainError::require("caller must be a party"))
    }

    /// The chain's current (block-quantized) time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The public-key directory ("any party's public key is known to all").
    pub fn keys(&self) -> &KeyDirectory {
        self.keys
    }

    /// Solidity-style `require`: fails the call with a message when `cond` is
    /// false. Charges one compute step.
    pub fn require(&mut self, cond: bool, msg: &str) -> ChainResult<()> {
        self.charge_compute(1)?;
        if cond {
            Ok(())
        } else {
            Err(ChainError::require(msg))
        }
    }

    /// Charges one write to long-lived storage (5000 gas).
    pub fn charge_storage_write(&mut self) -> ChainResult<()> {
        self.gas
            .charge_storage_write()
            .map_err(|(used, limit)| ChainError::OutOfGas { used, limit })
    }

    /// Charges `n` writes to long-lived storage.
    pub fn charge_storage_writes(&mut self, n: u64) -> ChainResult<()> {
        self.gas
            .charge_storage_writes(n)
            .map_err(|(used, limit)| ChainError::OutOfGas { used, limit })
    }

    /// Charges one read from long-lived storage (200 gas).
    pub fn charge_storage_read(&mut self) -> ChainResult<()> {
        self.gas
            .charge_storage_read()
            .map_err(|(used, limit)| ChainError::OutOfGas { used, limit })
    }

    /// Charges `n` miscellaneous compute steps.
    pub fn charge_compute(&mut self, n: u64) -> ChainResult<()> {
        self.gas
            .charge_compute(n)
            .map_err(|(used, limit)| ChainError::OutOfGas { used, limit })
    }

    /// Charges the 3000-gas cost of one signature verification without
    /// performing it. Used by contracts that verify signatures against key
    /// material they store themselves (e.g. CBC validator certificates).
    pub fn charge_sig_verification(&mut self) -> ChainResult<()> {
        self.gas
            .charge_sig_verify()
            .map_err(|(used, limit)| ChainError::OutOfGas { used, limit })
    }

    /// Verifies a signature over a message of 64-bit words, charging the
    /// 3000-gas signature-verification cost regardless of the outcome
    /// (verification work is done before validity is known).
    pub fn verify_signature(
        &mut self,
        sig: &Signature,
        expected_signer: PublicKey,
        message: &[u64],
    ) -> ChainResult<bool> {
        self.gas
            .charge_sig_verify()
            .map_err(|(used, limit)| ChainError::OutOfGas { used, limit })?;
        if sig.signer != expected_signer {
            return Ok(false);
        }
        Ok(self.keys.verify_words(sig, message))
    }

    /// Moves an asset from the *caller* into the contract's custody. This is
    /// the escrow deposit path (Figure 3 line 8, `transferFrom(msg.sender,
    /// this, amount)`); it costs two storage writes like the ERC-20 call it
    /// models, in addition to whatever bookkeeping the contract itself writes.
    pub fn deposit_from_caller(&mut self, asset: &Asset) -> ChainResult<()> {
        self.charge_storage_writes(2)?;
        self.assets
            .transfer(self.caller, Owner::Contract(self.contract), asset)
    }

    /// Creates new units of an asset owned by the executing contract. Used by
    /// issuance contracts (token / ticket registries) that act as the minting
    /// authority for their asset kind. Costs one storage write.
    pub fn mint_to_self(&mut self, asset: &Asset) -> ChainResult<()> {
        self.charge_storage_write()?;
        self.assets.mint(Owner::Contract(self.contract), asset)
    }

    /// Pays an asset out of the contract's custody to `to`. Costs two storage
    /// writes (debit + credit).
    pub fn pay_out(&mut self, to: Owner, asset: &Asset) -> ChainResult<()> {
        self.charge_storage_writes(2)?;
        self.assets
            .transfer(Owner::Contract(self.contract), to, asset)
    }

    /// Pays `amount` units of a fungible kind out of custody.
    pub fn pay_out_fungible(
        &mut self,
        to: Owner,
        kind: &AssetKind,
        amount: u64,
    ) -> ChainResult<()> {
        self.charge_storage_writes(2)?;
        self.assets
            .transfer_fungible(Owner::Contract(self.contract), to, kind, amount)
    }

    /// Pays specific tokens of a non-fungible kind out of custody.
    pub fn pay_out_tokens(
        &mut self,
        to: Owner,
        kind: &AssetKind,
        tokens: &std::collections::BTreeSet<TokenId>,
    ) -> ChainResult<()> {
        self.charge_storage_writes(2)?;
        self.assets
            .transfer_tokens(Owner::Contract(self.contract), to, kind, tokens)
    }

    /// Appends an entry to the chain log (an "event"), charging the flat
    /// per-entry log gas. Parties monitor chains by reading this log, subject
    /// to the network model's observation delay. The payload is an array of
    /// at most four words, stored inline ([`LogData`]); a longer array fails
    /// to compile.
    pub fn emit<const N: usize>(&mut self, tag: EventTag, data: [u64; N]) -> ChainResult<()> {
        self.gas
            .charge_log_entry()
            .map_err(|(used, limit)| ChainError::OutOfGas { used, limit })?;
        *self.log_seq += 1;
        self.log.push(LogEntry {
            seq: *self.log_seq,
            time: self.now,
            contract: Some(self.contract),
            caller: self.caller,
            tag,
            data: LogData::new(data),
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crypto::KeyPair;
    use crate::gas::GasUsage;

    struct Dummy;
    impl Contract for Dummy {
        fn type_name(&self) -> &'static str {
            "dummy"
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn make_ctx_parts() -> (GasMeter, AssetLedger, KeyDirectory, Vec<LogEntry>, u64) {
        (
            GasMeter::unlimited(),
            AssetLedger::new(),
            KeyDirectory::new(),
            Vec::new(),
            0,
        )
    }

    #[test]
    fn require_charges_and_checks() {
        let (mut gas, mut assets, keys, mut log, mut seq) = make_ctx_parts();
        let mut ctx = CallCtx {
            contract: ContractId(1),
            caller: Owner::Party(PartyId(0)),
            now: Time(5),
            gas: &mut gas,
            assets: &mut assets,
            keys: &keys,
            log: &mut log,
            log_seq: &mut seq,
        };
        assert!(ctx.require(true, "ok").is_ok());
        let err = ctx.require(false, "nope").unwrap_err();
        assert_eq!(err, ChainError::Require("nope".to_string()));
        assert_eq!(gas.usage().compute_steps, 2);
    }

    #[test]
    fn deposit_and_payout_move_assets_and_charge_writes() {
        let (mut gas, mut assets, keys, mut log, mut seq) = make_ctx_parts();
        let alice = Owner::Party(PartyId(0));
        let coin = AssetKind::new("coin");
        let hundred = Asset::fungible(coin.clone(), 100);
        let sixty = Asset::fungible(coin.clone(), 60);
        assets.mint(alice, &hundred).unwrap();
        let mut ctx = CallCtx {
            contract: ContractId(1),
            caller: alice,
            now: Time(0),
            gas: &mut gas,
            assets: &mut assets,
            keys: &keys,
            log: &mut log,
            log_seq: &mut seq,
        };
        ctx.deposit_from_caller(&sixty).unwrap();
        assert_eq!(ctx.assets.balance(ctx.self_owner(), &coin), 60);
        ctx.pay_out(Owner::Party(PartyId(1)), &sixty).unwrap();
        assert_eq!(ctx.assets.balance(ctx.self_owner(), &coin), 0);
        assert_eq!(gas.usage().storage_writes, 4);
        assert!(assets
            .holdings(Owner::Party(PartyId(1)))
            .contains(&Asset::fungible(coin, 60)));
    }

    #[test]
    fn deposit_fails_without_balance() {
        let (mut gas, mut assets, keys, mut log, mut seq) = make_ctx_parts();
        let mut ctx = CallCtx {
            contract: ContractId(1),
            caller: Owner::Party(PartyId(0)),
            now: Time(0),
            gas: &mut gas,
            assets: &mut assets,
            keys: &keys,
            log: &mut log,
            log_seq: &mut seq,
        };
        let ten = Asset::fungible("coin", 10);
        let err = ctx.deposit_from_caller(&ten).unwrap_err();
        assert!(matches!(err, ChainError::InsufficientBalance { .. }));
    }

    #[test]
    fn signature_verification_charges_gas_even_when_invalid() {
        let (mut gas, mut assets, mut keys, mut log, mut seq) = make_ctx_parts();
        let kp = KeyPair::derive(PartyId(0), 7);
        let other = KeyPair::derive(PartyId(1), 7);
        keys.register(PartyId(0), &kp);
        keys.register(PartyId(1), &other);
        let sig = kp.sign_words(&[1, 2, 3]);
        let mut ctx = CallCtx {
            contract: ContractId(1),
            caller: Owner::Party(PartyId(0)),
            now: Time(0),
            gas: &mut gas,
            assets: &mut assets,
            keys: &keys,
            log: &mut log,
            log_seq: &mut seq,
        };
        assert!(ctx.verify_signature(&sig, kp.public(), &[1, 2, 3]).unwrap());
        assert!(!ctx
            .verify_signature(&sig, other.public(), &[1, 2, 3])
            .unwrap());
        assert!(!ctx.verify_signature(&sig, kp.public(), &[9]).unwrap());
        assert_eq!(gas.usage().sig_verifications, 3);
        assert_eq!(gas.usage(), {
            let mut u = GasUsage::ZERO;
            u.sig_verifications = 3;
            u
        });
    }

    #[test]
    fn emit_appends_to_log() {
        let (mut gas, mut assets, keys, mut log, mut seq) = make_ctx_parts();
        {
            let mut ctx = CallCtx {
                contract: ContractId(1),
                caller: Owner::Party(PartyId(2)),
                now: Time(9),
                gas: &mut gas,
                assets: &mut assets,
                keys: &keys,
                log: &mut log,
                log_seq: &mut seq,
            };
            ctx.emit(EventTag::Escrow, [42]).unwrap();
        }
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].tag, EventTag::Escrow);
        assert_eq!(*log[0].data, [42]);
        assert_eq!(log[0].time, Time(9));
        assert_eq!(gas.usage().log_entries, 1);
    }

    #[test]
    fn dummy_contract_downcasts() {
        let mut c: Box<dyn Contract> = Box::new(Dummy);
        assert_eq!(c.type_name(), "dummy");
        assert!(c.as_any().downcast_ref::<Dummy>().is_some());
        assert!(c.as_any_mut().downcast_mut::<Dummy>().is_some());
    }
}
