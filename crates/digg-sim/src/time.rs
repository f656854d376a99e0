//! Simulation clock.
//!
//! The paper measures story age in minutes (Fig. 1's x-axis); the
//! simulator advances in one-minute ticks, the finest granularity any
//! reproduced observable needs.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Sub};

/// Minutes in an hour.
pub const HOUR: u64 = 60;
/// Minutes in a day.
pub const DAY: u64 = 24 * HOUR;

/// A point in simulated time, in minutes since simulation start.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Minute(pub u64);

impl Minute {
    /// Zero time.
    pub const ZERO: Minute = Minute(0);

    /// Time as fractional days.
    pub fn as_days(self) -> f64 {
        self.0 as f64 / DAY as f64
    }

    /// Saturating difference `self - other` (0 when `other` is later).
    pub fn since(self, other: Minute) -> u64 {
        self.0.saturating_sub(other.0)
    }
}

impl Add<u64> for Minute {
    type Output = Minute;
    fn add(self, rhs: u64) -> Minute {
        Minute(self.0 + rhs)
    }
}

impl Sub<u64> for Minute {
    type Output = Minute;
    fn sub(self, rhs: u64) -> Minute {
        Minute(self.0.saturating_sub(rhs))
    }
}

impl fmt::Display for Minute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}m", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Minute(720).as_days(), 0.5);
    }

    #[test]
    fn arithmetic_saturates() {
        assert_eq!(Minute(5) + 3, Minute(8));
        assert_eq!(Minute(5) - 10, Minute(0));
        assert_eq!(Minute(5).since(Minute(2)), 3);
        assert_eq!(Minute(2).since(Minute(5)), 0);
    }

    #[test]
    fn display() {
        assert_eq!(Minute(7).to_string(), "t+7m");
    }
}
