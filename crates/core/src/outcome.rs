//! Deal outcomes: what actually happened, measured per party, per phase and
//! per chain. Outcomes are the inputs to the safety/liveness property
//! checkers and to the Figure 4 / Figure 7 experiments.

use std::collections::BTreeMap;

use xchain_contracts::escrow::EscrowResolution;
use xchain_sim::asset::AssetBag;
use xchain_sim::ids::{ChainId, PartyId};
use xchain_sim::time::Duration;

use crate::phases::PhaseMetrics;

/// Which commit protocol executed the deal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolKind {
    /// The timelock commit protocol (Section 5).
    Timelock,
    /// The certified-blockchain commit protocol (Section 6).
    Cbc,
    /// The two-party HTLC atomic swap baseline (Section 8).
    Swap,
}

impl std::fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolKind::Timelock => f.write_str("timelock"),
            ProtocolKind::Cbc => f.write_str("CBC"),
            ProtocolKind::Swap => f.write_str("HTLC swap"),
        }
    }
}

/// How the escrow on one chain ended up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainResolution {
    /// The escrow released assets to their C-map owners.
    Committed,
    /// The escrow refunded the original owners.
    Aborted,
    /// The escrow never resolved within the simulation horizon (a weak
    /// liveness violation if any compliant party has assets there).
    Unresolved,
}

impl From<Option<EscrowResolution>> for ChainResolution {
    /// How a deal escrow contract's state reads in outcome terms.
    fn from(resolution: Option<EscrowResolution>) -> Self {
        match resolution {
            Some(EscrowResolution::Committed) => ChainResolution::Committed,
            Some(EscrowResolution::Aborted) => ChainResolution::Aborted,
            None => ChainResolution::Unresolved,
        }
    }
}

/// The complete, measured outcome of one deal execution.
#[derive(Debug, Clone)]
pub struct DealOutcome {
    /// Which protocol ran.
    pub protocol: ProtocolKind,
    /// Each party's holdings before the deal started.
    pub initial_holdings: BTreeMap<PartyId, AssetBag>,
    /// Each party's holdings after the deal (and all timeouts) finished.
    pub final_holdings: BTreeMap<PartyId, AssetBag>,
    /// How each involved chain's escrow resolved.
    pub resolutions: BTreeMap<ChainId, ChainResolution>,
    /// Per-phase gas and duration measurements.
    pub metrics: PhaseMetrics,
    /// The synchrony bound ∆ used to normalise durations in reports.
    pub delta: Duration,
}

impl DealOutcome {
    /// True if every involved chain committed.
    pub fn committed_everywhere(&self) -> bool {
        self.resolutions
            .values()
            .all(|r| *r == ChainResolution::Committed)
    }

    /// True if every involved chain aborted.
    pub fn aborted_everywhere(&self) -> bool {
        self.resolutions
            .values()
            .all(|r| *r == ChainResolution::Aborted)
    }

    /// True if no chain is left unresolved.
    pub fn fully_resolved(&self) -> bool {
        self.resolutions
            .values()
            .all(|r| *r != ChainResolution::Unresolved)
    }

    /// The initial holdings of a party (empty if unknown), borrowed.
    pub fn initial_of(&self, p: PartyId) -> &AssetBag {
        self.initial_holdings.get(&p).unwrap_or(&NOTHING)
    }

    /// The final holdings of a party (empty if unknown), borrowed.
    pub fn final_of(&self, p: PartyId) -> &AssetBag {
        self.final_holdings.get(&p).unwrap_or(&NOTHING)
    }
}

/// The holdings lent out for a party the outcome does not list.
static NOTHING: AssetBag = AssetBag::new();

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolution_predicates() {
        let mut o = DealOutcome {
            protocol: ProtocolKind::Timelock,
            initial_holdings: BTreeMap::new(),
            final_holdings: BTreeMap::new(),
            resolutions: BTreeMap::new(),
            metrics: PhaseMetrics::new(),
            delta: Duration(100),
        };
        o.resolutions.insert(ChainId(0), ChainResolution::Committed);
        o.resolutions.insert(ChainId(1), ChainResolution::Committed);
        assert!(o.committed_everywhere());
        assert!(o.fully_resolved());
        assert!(!o.aborted_everywhere());
        o.resolutions
            .insert(ChainId(1), ChainResolution::Unresolved);
        assert!(!o.fully_resolved());
        assert!(!o.committed_everywhere());
    }

    #[test]
    fn protocol_kind_display() {
        assert_eq!(ProtocolKind::Timelock.to_string(), "timelock");
        assert_eq!(ProtocolKind::Cbc.to_string(), "CBC");
        assert_eq!(ProtocolKind::Swap.to_string(), "HTLC swap");
    }
}
