//! # xchain-harness
//!
//! Workload generators, adversary sweeps, the declarative [`sweep::Sweep`]
//! API over the unified `DealEngine` abstraction, and the experiments that
//! regenerate every table and figure of *Cross-chain Deals and Adversarial
//! Commerce* (run them with the `experiments` binary:
//! `cargo run --release -p xchain-harness --bin experiments -- all`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adversary;
pub mod executor;
pub mod experiments;
pub mod report;
pub mod sweep;
pub mod workload;

pub use sweep::{Sweep, SweepOutcome, SweepPoint};
