//! Virtual time for the simulation substrate.
//!
//! Everything in this workspace runs on *virtual* nanoseconds: device models
//! advance a [`Ns`] timestamp, and nothing ever consults the wall clock, so
//! simulations are deterministic and can be replayed bit-for-bit.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};
use serde::{Deserialize, Serialize};

/// A point in (or span of) virtual time, in nanoseconds.
///
/// `Ns` is deliberately a newtype rather than a bare `u64` so that byte
/// counts, op counts, and timestamps cannot be mixed up in device-model
/// arithmetic.
///
/// # Examples
///
/// ```
/// use icash_storage::time::Ns;
///
/// let seek = Ns::from_ms(4) + Ns::from_us(120);
/// assert_eq!(seek.as_ns(), 4_120_000);
/// assert!(seek > Ns::from_ms(4));
/// ```
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct Ns(u64);

impl Ns {
    /// The zero instant / empty duration.
    pub const ZERO: Ns = Ns(0);
    /// The maximum representable instant.
    pub const MAX: Ns = Ns(u64::MAX);

    /// Creates a value from raw nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        Ns(ns)
    }

    /// Creates a value from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        Ns(us * 1_000)
    }

    /// Creates a value from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        Ns(ms * 1_000_000)
    }

    /// Creates a value from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Ns(s * 1_000_000_000)
    }

    /// Raw nanosecond count.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// This span expressed in microseconds (lossy).
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This span expressed in milliseconds (lossy).
    #[inline]
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// This span expressed in seconds (lossy).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Saturating subtraction: `self - rhs`, or zero if `rhs` is later.
    #[inline]
    pub fn saturating_sub(self, rhs: Ns) -> Ns {
        Ns(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition.
    #[inline]
    pub fn checked_add(self, rhs: Ns) -> Option<Ns> {
        self.0.checked_add(rhs.0).map(Ns)
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, rhs: Ns) -> Ns {
        Ns(self.0.max(rhs.0))
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, rhs: Ns) -> Ns {
        Ns(self.0.min(rhs.0))
    }

    /// Scales a duration by a dimensionless factor, rounding to the nearest
    /// nanosecond. Negative factors clamp to zero.
    #[inline]
    pub fn scale(self, factor: f64) -> Ns {
        Ns((self.0 as f64 * factor).max(0.0).round() as u64)
    }
}

impl Add for Ns {
    type Output = Ns;
    #[inline]
    fn add(self, rhs: Ns) -> Ns {
        Ns(self.0 + rhs.0)
    }
}

impl AddAssign for Ns {
    #[inline]
    fn add_assign(&mut self, rhs: Ns) {
        self.0 += rhs.0;
    }
}

impl Sub for Ns {
    type Output = Ns;
    #[inline]
    fn sub(self, rhs: Ns) -> Ns {
        Ns(self.0 - rhs.0)
    }
}

impl SubAssign for Ns {
    #[inline]
    fn sub_assign(&mut self, rhs: Ns) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Ns {
    type Output = Ns;
    #[inline]
    fn mul(self, rhs: u64) -> Ns {
        Ns(self.0 * rhs)
    }
}

impl Div<u64> for Ns {
    type Output = Ns;
    #[inline]
    fn div(self, rhs: u64) -> Ns {
        Ns(self.0 / rhs)
    }
}

impl Sum for Ns {
    fn sum<I: Iterator<Item = Ns>>(iter: I) -> Ns {
        iter.fold(Ns::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Ns {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_ms_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.as_us_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_roundtrip() {
        assert_eq!(Ns::from_us(3).as_ns(), 3_000);
        assert_eq!(Ns::from_ms(2).as_ns(), 2_000_000);
        assert_eq!(Ns::from_secs(1).as_ns(), 1_000_000_000);
    }

    #[test]
    fn arithmetic() {
        let a = Ns::from_us(10);
        let b = Ns::from_us(4);
        assert_eq!(a + b, Ns::from_us(14));
        assert_eq!(a - b, Ns::from_us(6));
        assert_eq!(a * 3, Ns::from_us(30));
        assert_eq!(a / 2, Ns::from_us(5));
        assert_eq!(b.saturating_sub(a), Ns::ZERO);
    }

    #[test]
    fn scale_rounds() {
        assert_eq!(Ns::from_ns(10).scale(0.25), Ns::from_ns(3));
        assert_eq!(Ns::from_ns(10).scale(-1.0), Ns::ZERO);
    }

    #[test]
    fn sum_of_spans() {
        let total: Ns = [Ns::from_us(1), Ns::from_us(2), Ns::from_us(3)]
            .into_iter()
            .sum();
        assert_eq!(total, Ns::from_us(6));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(Ns::from_ns(12).to_string(), "12ns");
        assert_eq!(Ns::from_us(12).to_string(), "12.000us");
        assert_eq!(Ns::from_ms(12).to_string(), "12.000ms");
        assert_eq!(Ns::from_secs(12).to_string(), "12.000s");
    }
}
