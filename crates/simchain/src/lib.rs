//! # xchain-sim
//!
//! Deterministic multi-blockchain simulation substrate for the reproduction of
//! *Cross-chain Deals and Adversarial Commerce* (Herlihy, Liskov, Shrira,
//! VLDB 2019).
//!
//! The crate provides everything the paper assumes of its environment, built
//! from scratch:
//!
//! * [`ledger::Blockchain`] — independent, publicly-readable ledgers tracking
//!   ownership of fungible and non-fungible assets, hosting deterministic
//!   contracts, and exposing an append-only log that parties can monitor.
//! * [`contract`] — the contract runtime with Ethereum-style gas metering
//!   (5000 gas per storage write, 3000 per signature verification, Section 7.1).
//! * [`crypto`] — simulated signatures, key directories, the streaming
//!   [`crypto::FnvHasher`], and the timelock protocol's path signatures.
//! * [`asset`] — the one asset type ([`Asset`]) and the one bag type
//!   ([`AssetBag`]), which name their kind by a shared [`AssetKind`] from
//!   the deal specification through the ledger to a deal's outcome.
//! * [`network`] — the synchronous, eventually-synchronous (GST), and
//!   asynchronous timing models, plus offline/denial-of-service windows.
//! * [`world::World`] — the multi-chain world with a global logical clock used
//!   by the deal protocol engines in `xchain-deals`.
//!
//! The simulator is single-threaded and fully deterministic given a seed, so
//! every experiment in the benchmark harness is reproducible.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod asset;
pub mod contract;
pub mod crypto;
pub mod error;
pub mod gas;
pub mod ids;
pub mod ledger;
pub mod network;
pub mod time;
pub mod world;

pub use asset::{Asset, AssetBag, AssetKind};
pub use contract::{CallCtx, Contract};
pub use crypto::{
    hash_bytes, hash_words, FnvHasher, Hash, KeyDirectory, KeyPair, PathSignature, PublicKey,
    Signature,
};
pub use error::{ChainError, ChainResult};
pub use gas::{GasMeter, GasUsage, GAS_SIG_VERIFY, GAS_STORAGE_WRITE};
pub use ids::{ChainId, ContractId, DealId, Owner, PartyId, TokenId, ValidatorId};
pub use ledger::{AssetLedger, Blockchain, EventTag, LogCursor, LogEntry, LogFilter};
pub use network::{NetworkModel, OfflineSchedule, OfflineWindow};
pub use time::{Duration, Time};
pub use world::World;
