//! # xchain-deals
//!
//! A from-scratch Rust implementation of **cross-chain deals**, the
//! computational abstraction proposed in *Cross-chain Deals and Adversarial
//! Commerce* (Herlihy, Liskov, Shrira, VLDB 2019), together with the paper's
//! two commit protocols and its safety/liveness properties.
//!
//! A deal is specified as a transfer matrix ([`spec::DealSpec`], Figure 1),
//! analysed as a digraph ([`digraph`], Figure 2), and executed in five phases
//! (clearing, escrow, transfer, validation, commit) over simulated
//! blockchains.
//!
//! ## The unified `DealEngine` API
//!
//! Every commit protocol is a [`engine::DealEngine`] — a pluggable strategy
//! over the same deal graph. The fluent [`deal::Deal`] session builder is the
//! single entry point: it owns the world setup (chains, parties, minted
//! escrow assets) and executes any engine, returning a unified
//! [`deal::DealRun`] carrying the [`outcome::DealOutcome`], the per-chain
//! escrow contracts, per-phase gas/duration metrics, and a protocol-specific
//! [`engine::ProtocolExt`] (validated map for timelock, certified log for
//! CBC, completion flag for the HTLC swap engine in `xchain-swap`).
//!
//! ```
//! use xchain_deals::builders::broker_spec;
//! use xchain_deals::properties::check_safety;
//! use xchain_deals::{Deal, Protocol};
//! use xchain_sim::network::NetworkModel;
//!
//! let deal = Deal::new(broker_spec())
//!     .network(NetworkModel::synchronous(100))
//!     .seed(42);
//!
//! // The same session runs under either protocol — or any other engine.
//! let timelock = deal.run(Protocol::timelock()).unwrap();
//! let cbc = deal.run(Protocol::cbc()).unwrap();
//! assert!(timelock.outcome.committed_everywhere());
//! assert!(cbc.outcome.committed_everywhere());
//! assert!(check_safety(deal.spec(), &[], &timelock.outcome).holds());
//! assert!(cbc.ext.cbc_status().unwrap().is_committed());
//! ```
//!
//! The engines behind [`engine::Protocol`]:
//!
//! * [`Protocol::Timelock`] — the fully decentralized timelock commit
//!   protocol for synchronous networks (Section 5), with path-signature
//!   votes and `|p| · ∆` timeouts;
//! * [`Protocol::Cbc`] — the certified-blockchain commit protocol for
//!   eventually-synchronous networks (Section 6), with validator-certified
//!   proofs of commit and abort.
//!
//! Both, and the HTLC swap engine in `xchain-swap`, run on one
//! [`driver::DealDriver`]: it owns the escrow, tentative-transfer and
//! validation phases, strategy consultation, per-phase metering and outcome
//! collection, so each protocol supplies only its clearing and commit steps.
//!
//! Party behaviour is an **open adversary API**: a [`party::PartyConfig`]
//! pairs a party with a [`strategy::Strategy`] — per-phase decision hooks fed
//! an [`strategy::ObservationCtx`] (the party's own, cursor-fed view of the
//! deal) — so adversaries can be adaptive and stateful, and new attacks are
//! user code instead of core edits. The built-in behaviours
//! ([`strategy::strategies`]) cover the classic deviations (crashing,
//! refusing to escrow or transfer, withholding, aborting or never forwarding
//! votes, rejecting validation, going offline) and adaptive adversaries
//! (sore-loser, colluding coalitions, rational defectors). The
//! paper's Properties 1–3 are executable checks in [`properties`]. The
//! pre-0.2 free functions (`run_timelock`, `run_cbc`) have been removed; the
//! [`deal::Deal`] builder is the only entry point (see the migration table in
//! CHANGES.md).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod builders;
pub mod cbc;
pub mod deal;
pub mod digraph;
pub mod driver;
pub mod engine;
pub mod error;
pub mod outcome;
pub mod party;
pub mod phases;
pub mod plan;
pub mod properties;
pub mod setup;
pub mod spec;
pub mod strategy;
pub mod timelock;
pub mod validation;

pub use cbc::CbcOptions;
pub use deal::{Deal, DealRun};
pub use digraph::{is_well_formed, DealDigraph};
pub use engine::{DealEngine, EngineRun, Protocol, ProtocolExt};
pub use error::DealError;
pub use outcome::{ChainResolution, DealOutcome, ProtocolKind};
pub use party::{config_of, fresh_configs, PartyConfig};
pub use phases::{Phase, PhaseMetrics};
pub use plan::{DealPlan, PartyPlan};
pub use properties::{
    check_conservation, check_safety, check_strong_liveness, check_weak_liveness, SafetyReport,
};
pub use spec::{DealSpec, EscrowSpec, TransferSpec};
pub use strategy::{
    strategies, DealView, ObservationCtx, ObservationHub, ObservedEvent, Strategy, Vote,
};
pub use timelock::TimelockOptions;
