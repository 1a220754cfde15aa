//! Logical simulation time.
//!
//! The paper's protocols reason about time only through the bound `∆` (Delta):
//! the maximum time needed to change a blockchain's state in a way observable
//! by all parties (Section 5). We therefore model time as a logical tick
//! counter. Blockchains "measure time imprecisely, usually by multiplying the
//! current block height by the average block rate"; the simulator exposes both
//! a precise tick clock and a per-chain block-derived clock so that the
//! imprecision can be exercised in tests.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant in simulated time, measured in abstract ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

/// A span of simulated time, measured in abstract ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

impl Time {
    /// The origin of simulated time.
    pub const ZERO: Time = Time(0);

    /// Returns the raw tick count.
    #[inline]
    pub fn ticks(self) -> u64 {
        self.0
    }

    /// Returns the later of two instants.
    pub fn max(self, other: Time) -> Time {
        Time(self.0.max(other.0))
    }

    /// Returns the earlier of two instants.
    pub fn min(self, other: Time) -> Time {
        Time(self.0.min(other.0))
    }
}

impl Duration {
    /// The zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// Returns the raw tick count.
    #[inline]
    pub fn ticks(self) -> u64 {
        self.0
    }

    /// Multiplies the duration by an integer factor (used for the paper's
    /// `|p| · ∆` path-length timeouts and `N · ∆` deal timeout).
    pub fn times(self, factor: u64) -> Duration {
        Duration(self.0.saturating_mul(factor))
    }

    /// Expresses this duration as a (possibly fractional) multiple of `delta`.
    /// Used by the Figure 7 delay experiments, which report delays in ∆ units.
    pub fn in_units_of(self, delta: Duration) -> f64 {
        if delta.0 == 0 {
            return 0.0;
        }
        self.0 as f64 / delta.0 as f64
    }
}

impl Add<Duration> for Time {
    type Output = Time;
    fn add(self, rhs: Duration) -> Time {
        Time(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<Duration> for Time {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<Time> for Time {
    type Output = Duration;
    fn sub(self, rhs: Time) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<Duration> for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<Duration> for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ticks", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_is_saturating() {
        let t = Time(u64::MAX);
        assert_eq!(t + Duration(10), Time(u64::MAX));
        assert_eq!(Time(3) - Time(10), Duration(0));
        assert_eq!(Time(10) - Time(3), Duration(7));
    }

    #[test]
    fn path_length_timeout_arithmetic() {
        // The timelock contract accepts a vote with path signature p only if it
        // arrives before t0 + |p| * delta.
        let t0 = Time(1_000);
        let delta = Duration(100);
        assert_eq!(t0 + delta.times(1), Time(1_100));
        assert_eq!(t0 + delta.times(3), Time(1_300));
    }

    #[test]
    fn delta_units() {
        let delta = Duration(200);
        assert!((Duration(500).in_units_of(delta) - 2.5).abs() < 1e-9);
        assert_eq!(Duration(500).in_units_of(Duration(0)), 0.0);
    }

    #[test]
    fn min_max_and_since() {
        assert_eq!(Time(5).max(Time(9)), Time(9));
        assert_eq!(Time(5).min(Time(9)), Time(5));
        assert_eq!(Time(9) - Time(4), Duration(5));
        assert_eq!(Time(4) - Time(9), Duration(0));
    }
}
