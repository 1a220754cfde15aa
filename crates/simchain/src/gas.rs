//! Ethereum-style gas metering.
//!
//! Section 7.1 of the paper: "gas costs are dominated by two kinds of
//! operations: writing to long-lived storage is (usually) 5000 gas, and each
//! signature verification is 3000 gas." Each chain counts the operations its
//! contract calls perform in one [`GasUsage`]; gas is an account, never a
//! budget, so no call can run out of it. Keeping *counts* of each operation
//! class lets the Figure 4 experiments report both raw gas and the
//! asymptotic drivers (storage writes, signature verifications).

use std::ops::{Add, AddAssign};

/// Gas charged per write to long-lived contract storage.
pub const GAS_STORAGE_WRITE: u64 = 5_000;
/// Gas charged per signature verification performed by a contract.
pub const GAS_SIG_VERIFY: u64 = 3_000;
/// Gas charged per read from long-lived contract storage.
pub const GAS_STORAGE_READ: u64 = 200;
/// Gas charged per event/log entry appended to the chain.
pub const GAS_LOG_ENTRY: u64 = 375;
/// Gas charged per unit of miscellaneous computation (arithmetic, control flow).
pub const GAS_COMPUTE_STEP: u64 = 5;
/// Base gas charged for every externally-submitted call (intrinsic cost).
pub const GAS_BASE_CALL: u64 = 21_000;

/// A breakdown of gas consumption by operation class.
///
/// `GasUsage` is additive, so per-call receipts can be summed into per-phase
/// and per-deal totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GasUsage {
    /// Number of writes to long-lived storage.
    pub storage_writes: u64,
    /// Number of reads from long-lived storage. No contract charges reads,
    /// so this stays zero; it is kept because the pinned sweep digests hash
    /// this struct's `Debug` form.
    pub storage_reads: u64,
    /// Number of signature verifications.
    pub sig_verifications: u64,
    /// Number of log entries emitted.
    pub log_entries: u64,
    /// Number of miscellaneous compute steps.
    pub compute_steps: u64,
    /// Number of externally-submitted calls (each paying the intrinsic cost).
    pub calls: u64,
}

impl GasUsage {
    /// The zero usage.
    pub const ZERO: GasUsage = GasUsage {
        storage_writes: 0,
        storage_reads: 0,
        sig_verifications: 0,
        log_entries: 0,
        compute_steps: 0,
        calls: 0,
    };

    /// Total gas implied by the breakdown, using the Section 7.1 cost model.
    pub fn total(&self) -> u64 {
        self.storage_writes * GAS_STORAGE_WRITE
            + self.storage_reads * GAS_STORAGE_READ
            + self.sig_verifications * GAS_SIG_VERIFY
            + self.log_entries * GAS_LOG_ENTRY
            + self.compute_steps * GAS_COMPUTE_STEP
            + self.calls * GAS_BASE_CALL
    }

    /// Difference between two cumulative snapshots (`later - self`), used to
    /// attribute gas to a protocol phase.
    pub fn delta_to(&self, later: &GasUsage) -> GasUsage {
        GasUsage {
            storage_writes: later.storage_writes - self.storage_writes,
            storage_reads: later.storage_reads - self.storage_reads,
            sig_verifications: later.sig_verifications - self.sig_verifications,
            log_entries: later.log_entries - self.log_entries,
            compute_steps: later.compute_steps - self.compute_steps,
            calls: later.calls - self.calls,
        }
    }
}

impl Add for GasUsage {
    type Output = GasUsage;
    fn add(self, rhs: GasUsage) -> GasUsage {
        GasUsage {
            storage_writes: self.storage_writes + rhs.storage_writes,
            storage_reads: self.storage_reads + rhs.storage_reads,
            sig_verifications: self.sig_verifications + rhs.sig_verifications,
            log_entries: self.log_entries + rhs.log_entries,
            compute_steps: self.compute_steps + rhs.compute_steps,
            calls: self.calls + rhs.calls,
        }
    }
}

impl AddAssign for GasUsage {
    fn add_assign(&mut self, rhs: GasUsage) {
        *self = *self + rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_follow_paper_cost_model() {
        let u = GasUsage {
            storage_writes: 4,
            storage_reads: 0,
            sig_verifications: 2,
            log_entries: 0,
            compute_steps: 0,
            calls: 0,
        };
        assert_eq!(u.total(), 4 * 5_000 + 2 * 3_000);
    }

    #[test]
    fn usage_is_additive_and_diffable() {
        let a = GasUsage {
            storage_writes: 1,
            sig_verifications: 2,
            ..GasUsage::ZERO
        };
        let b = GasUsage {
            storage_writes: 3,
            storage_reads: 1,
            ..GasUsage::ZERO
        };
        let sum = a + b;
        assert_eq!(sum.storage_writes, 4);
        assert_eq!(sum.sig_verifications, 2);
        assert_eq!(a.delta_to(&sum), b);
    }
}
