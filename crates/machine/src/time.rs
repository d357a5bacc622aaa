//! Simulated time.
//!
//! Everything in the simulation is timestamped in integer nanoseconds since
//! machine boot. Using integers (rather than `f64` seconds) keeps arithmetic
//! associative and the simulation bit-for-bit reproducible regardless of the
//! order in which durations are accumulated.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant in simulated time, in nanoseconds since boot.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

/// A clock frequency in hertz.
///
/// Converts between cycle counts and [`SimDuration`]s; all CPU models carry
/// one (e.g. the paper's Xeon W3550 runs at 3.07 GHz, the PPC970 at 1.8 GHz).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct Freq(pub u64);

impl SimTime {
    /// The boot instant.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from whole seconds.
    pub fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Nanoseconds since boot.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since boot as a float (for display and plotting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration elapsed since `earlier`. Saturates at zero.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    pub fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    pub fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    pub fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    pub fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from float seconds; rounds to the nearest nanosecond.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s >= 0.0, "durations are non-negative");
        SimDuration((s * 1e9).round() as u64)
    }

    pub fn as_nanos(self) -> u64 {
        self.0
    }

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }
}

impl Freq {
    /// Gigahertz helper: `Freq::ghz(3.07)` is the W3550 clock.
    pub fn ghz(g: f64) -> Self {
        Freq((g * 1e9).round() as u64)
    }

    pub fn hz(self) -> u64 {
        self.0
    }

    /// Number of whole cycles elapsing in `d`.
    pub fn cycles_in(self, d: SimDuration) -> u64 {
        // (ns * hz) / 1e9 with 128-bit intermediate so multi-hour spans at
        // multi-GHz clocks cannot overflow.
        ((d.0 as u128 * self.0 as u128) / 1_000_000_000u128) as u64
    }

    /// Duration taken by `cycles` cycles, rounded to the nearest nanosecond.
    pub fn duration_of(self, cycles: u64) -> SimDuration {
        let ns = (cycles as u128 * 1_000_000_000u128 + self.0 as u128 / 2) / self.0 as u128;
        SimDuration(ns as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_secs(3) + SimDuration::from_millis(250);
        assert_eq!(t.as_nanos(), 3_250_000_000);
        assert_eq!(
            t.since(SimTime::from_secs(3)),
            SimDuration::from_millis(250)
        );
        assert_eq!(t - SimTime::from_secs(1), SimDuration(2_250_000_000));
    }

    #[test]
    fn since_saturates() {
        let early = SimTime::from_secs(1);
        let late = SimTime::from_secs(2);
        assert_eq!(early.since(late), SimDuration::ZERO);
    }

    #[test]
    fn freq_cycle_conversions() {
        let f = Freq::ghz(3.07);
        assert_eq!(f.hz(), 3_070_000_000);
        // One second holds exactly `hz` cycles.
        assert_eq!(f.cycles_in(SimDuration::from_secs(1)), 3_070_000_000);
        // Round trip within a nanosecond of rounding error.
        let d = f.duration_of(3_070_000);
        assert_eq!(d, SimDuration::from_millis(1));
    }

    #[test]
    fn freq_no_overflow_on_long_spans() {
        let f = Freq::ghz(3.4);
        // 10 simulated hours at 3.4 GHz.
        let cycles = f.cycles_in(SimDuration::from_secs(36_000));
        assert_eq!(cycles, 122_400_000_000_000);
    }

    #[test]
    fn duration_float_roundtrip() {
        let d = SimDuration::from_secs_f64(2.5);
        assert_eq!(d, SimDuration::from_millis(2500));
        assert!((d.as_secs_f64() - 2.5).abs() < 1e-12);
    }
}
