//! Battery accounting.
//!
//! §8: mobile stations suffer from "low battery power". The battery is a
//! joule budget; radio traffic, CPU work and idle time all draw it down,
//! and an exhausted battery fails the transaction in flight — a failure
//! mode the integration tests inject deliberately.

/// A joule-accounting battery.
#[derive(Debug, Clone, PartialEq)]
pub struct Battery {
    capacity_j: f64,
    used_j: f64,
}

impl Battery {
    /// A full battery of `capacity_j` joules.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_j` is not positive and finite.
    pub fn new(capacity_j: f64) -> Self {
        assert!(
            capacity_j.is_finite() && capacity_j > 0.0,
            "battery capacity must be positive, got {capacity_j}"
        );
        Battery {
            capacity_j,
            used_j: 0.0,
        }
    }

    /// Joules remaining.
    pub fn remaining_j(&self) -> f64 {
        (self.capacity_j - self.used_j).max(0.0)
    }

    /// Fraction remaining, `0.0..=1.0`.
    pub fn level(&self) -> f64 {
        self.remaining_j() / self.capacity_j
    }

    /// True once the battery has been fully drained.
    pub fn is_exhausted(&self) -> bool {
        self.remaining_j() <= 0.0
    }

    /// Draws `joules` from the battery. Returns `false` (and clamps to
    /// empty) when the draw exceeded what was left — the device died
    /// mid-operation.
    pub fn drain(&mut self, joules: f64) -> bool {
        assert!(
            joules >= 0.0 && joules.is_finite(),
            "drain must be non-negative"
        );
        self.used_j += joules;
        self.used_j <= self.capacity_j
    }

    /// Recharges to full.
    pub fn recharge(&mut self) {
        self.used_j = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_and_level_track() {
        let mut b = Battery::new(100.0);
        assert_eq!(b.level(), 1.0);
        assert!(b.drain(40.0));
        assert_eq!(b.remaining_j(), 60.0);
        assert!((b.level() - 0.6).abs() < 1e-12);
        assert!(!b.is_exhausted());
    }

    #[test]
    fn over_drain_reports_death_and_clamps() {
        let mut b = Battery::new(10.0);
        assert!(!b.drain(15.0));
        assert!(b.is_exhausted());
        assert_eq!(b.remaining_j(), 0.0);
        assert_eq!(b.level(), 0.0);
    }

    #[test]
    fn recharge_restores_capacity() {
        let mut b = Battery::new(10.0);
        b.drain(10.0);
        assert!(b.is_exhausted());
        b.recharge();
        assert_eq!(b.remaining_j(), 10.0);
        assert!(!b.is_exhausted());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        Battery::new(0.0);
    }
}
