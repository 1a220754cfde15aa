//! # xchain-bft
//!
//! Certified blockchain (CBC) substrates for the reproduction of *Cross-chain
//! Deals and Adversarial Commerce* (Herlihy, Liskov, Shrira, VLDB 2019).
//!
//! The CBC protocol of Section 6 replaces the classical two-phase-commit
//! coordinator with a shared, totally-ordered, certified log. This crate
//! provides two realizations:
//!
//! * [`log::CbcLog`] — a BFT-style certified log over a single epoch: one
//!   set of `3f + 1` validators vouches for every block with a
//!   `2f + 1`-signature [`certificate::Certificate`]. It models Byzantine
//!   validators and censorship, and extracts [`proof::StatusCertificate`] /
//!   [`proof::BlockProof`] evidence that escrow contracts on asset chains can
//!   check.
//! * [`pow`] — the Section 6.2 private-abort-block attack on a proof-of-work
//!   CBC, whose proofs lack finality: a race between the attacker's private
//!   fork and the `k` confirmations that mitigate it, simulated and in exact
//!   closed form.
//!
//! Each CBC rule is written once here: Figure 6's certificate check is
//! [`certificate::Certificate::verify`], the commit rule is
//! [`proof::DealStatus::replay`], and a record has one encoding, streamed
//! into a hash by [`log::CbcRecord::write_into`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod certificate;
pub mod log;
pub mod pow;
pub mod proof;
pub mod validator;

pub use certificate::{CertCheck, CertFailure, Certificate};
pub use log::{CbcError, CbcLog, CbcRecord, CertifiedBlock};
pub use pow::{analytic_success_probability, attack_success_rate, simulate_attack_trial};
pub use proof::{BlockProof, BlockProofCheck, DealStatus, StatusCertificate};
pub use validator::{validator_party_id, ValidatorSet, ValidatorSetInfo, VALIDATOR_PARTY_OFFSET};
