//! # xchain-contracts
//!
//! The on-chain programs used by cross-chain deals, implemented against the
//! `xchain-sim` contract runtime:
//!
//! * [`escrow`] — the escrow state both commit protocols share: the
//!   Section 4 escrow / tentative-transfer semantics (the C and A ownership
//!   maps).
//! * [`timelock`] — the timelock escrow manager of Section 5 / Figure 5:
//!   path-signature commit votes with `|p| · ∆` timeouts.
//! * [`cbc_manager`] — the CBC escrow manager of Section 6 / Figure 6:
//!   resolution by validator status certificates or block-range proofs.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cbc_manager;
pub mod escrow;
pub mod timelock;

pub use cbc_manager::{CbcDealInfo, CbcManager};
pub use escrow::{DealEscrow, EscrowCore, EscrowResolution};
pub use timelock::{TimelockDealInfo, TimelockManager};
