//! Simulation time as integer nanoseconds.
//!
//! Integer time keeps the event ordering exact — float accumulation across
//! millions of MAC slots would eventually reorder same-instant events.

use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time (nanoseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// From raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Self(ns)
    }

    /// From microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Self(us * 1_000)
    }

    /// From milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Self(ms * 1_000_000)
    }

    /// From (non-negative, finite) seconds, rounded to the nearest ns.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid duration {s}");
        Self((s * 1e9).round() as u64)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// As floating-point seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating difference.
    pub fn saturating_sub(self, other: Self) -> Self {
        Self(self.0.saturating_sub(other.0))
    }
}

impl Add for SimTime {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Self(self.0.checked_sub(rhs.0).expect("SimTime underflow"))
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.6}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(SimTime::from_micros(5).as_nanos(), 5_000);
        assert_eq!(SimTime::from_millis(2).as_nanos(), 2_000_000);
        assert_eq!(SimTime::from_secs_f64(1.5).as_nanos(), 1_500_000_000);
        assert!((SimTime::from_nanos(250).as_secs_f64() - 2.5e-7).abs() < 1e-18);
    }

    #[test]
    fn ordering_and_arithmetic() {
        let a = SimTime::from_micros(10);
        let b = SimTime::from_micros(25);
        assert!(a < b);
        assert_eq!((b - a).as_nanos(), 15_000);
        assert_eq!((a + b).as_nanos(), 35_000);
        assert_eq!(a.saturating_sub(b), SimTime::ZERO);
    }

    #[test]
    #[should_panic]
    fn subtraction_underflow_panics() {
        let _ = SimTime::from_nanos(1) - SimTime::from_nanos(2);
    }

    #[test]
    fn display_scales() {
        assert_eq!(SimTime::from_nanos(500).to_string(), "500ns");
        assert_eq!(SimTime::from_micros(5).to_string(), "5.000us");
        assert_eq!(SimTime::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimTime::from_secs_f64(2.0).to_string(), "2.000000s");
    }
}
