//! Virtual time for the discrete-event simulation.
//!
//! Simulated experiments in this repository (the paper's Figs. 3–9) run on
//! clusters of up to 4096 cores; wall-clock execution is replaced by a
//! virtual clock with microsecond resolution. `SimTime` is an absolute
//! instant since simulation start, `SimDuration` a non-negative span.

use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;
use std::num::NonZeroU64;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// Microseconds per second, the base resolution of the virtual clock.
const MICROS_PER_SEC: u64 = 1_000_000;

/// An absolute instant in virtual time, in microseconds since simulation
/// start, stored plus one in a `NonZeroU64` so an `Option<SimTime>` is 8 B.
/// The one instant given up is `u64::MAX − 1` µs, which saturates to
/// [`SimTime::MAX`] (`u64::MAX` µs); JSON carries [`SimTime::as_micros`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimTime(NonZeroU64);

/// A non-negative span of virtual time, in microseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime::from_micros(0);
    /// The largest representable instant; useful as an "infinity" sentinel.
    pub const MAX: SimTime = SimTime(NonZeroU64::MAX);

    /// Instant `micros` microseconds after the epoch.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(NonZeroU64::MIN.saturating_add(micros))
    }

    /// Instant `secs` seconds after the epoch; saturates at [`SimTime::MAX`].
    pub const fn from_secs(secs: u64) -> Self {
        SimTime::from_micros(secs.saturating_mul(MICROS_PER_SEC))
    }

    /// Microseconds since the epoch.
    pub const fn as_micros(self) -> u64 {
        self.0.get() - (self.0.get() != u64::MAX) as u64
    }

    /// Seconds since the epoch as a float (lossy for very large times).
    pub fn as_secs_f64(self) -> f64 {
        self.as_micros() as f64 / MICROS_PER_SEC as f64
    }

    /// Span from `earlier` to `self`; saturates to zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.as_micros().saturating_sub(earlier.as_micros()))
    }
}

const _: () = assert!(std::mem::size_of::<Option<SimTime>>() == 8);

impl Default for SimTime {
    fn default() -> Self {
        SimTime::ZERO
    }
}

impl Serialize for SimTime {
    fn to_value(&self) -> Value {
        self.as_micros().to_value()
    }
}

impl Deserialize for SimTime {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        u64::from_value(v).map(SimTime::from_micros)
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Span of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Span of `millis` milliseconds; saturates at [`SimDuration::MAX`].
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis.saturating_mul(1_000))
    }

    /// Span of `secs` whole seconds; saturates at [`SimDuration::MAX`].
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs.saturating_mul(MICROS_PER_SEC))
    }

    /// Span of `secs` fractional seconds, rounded to the nearest microsecond.
    /// Negative and non-finite inputs clamp to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        if !secs.is_finite() || secs <= 0.0 {
            return SimDuration(0);
        }
        SimDuration((secs * MICROS_PER_SEC as f64).round() as u64)
    }

    /// Microseconds in this span.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds in this span as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Saturating subtraction of two spans.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// True if this span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Panics in debug builds if `rhs > self`; use [`SimTime::saturating_since`]
    /// when ordering is not guaranteed.
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(rhs <= self, "SimTime subtraction underflow");
        self.saturating_since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.as_secs_f64() * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs.max(1))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_secs(5);
        let d = SimDuration::from_millis(1500);
        assert_eq!((t + d).as_micros(), 6_500_000);
        assert_eq!((t + d) - t, d);
    }

    #[test]
    fn duration_from_secs_f64_rounds() {
        assert_eq!(SimDuration::from_secs_f64(1.5).as_micros(), 1_500_000);
        assert_eq!(SimDuration::from_secs_f64(0.000_000_4).as_micros(), 0);
        assert_eq!(SimDuration::from_secs_f64(0.000_000_6).as_micros(), 1);
    }

    #[test]
    fn negative_and_nan_durations_clamp_to_zero() {
        assert_eq!(SimDuration::from_secs_f64(-2.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::ZERO);
    }

    #[test]
    fn whole_unit_constructors_saturate() {
        assert_eq!(SimDuration::from_secs(u64::MAX / 1_000), SimDuration::MAX);
        assert_eq!(SimDuration::from_millis(u64::MAX / 10), SimDuration::MAX);
        assert_eq!(SimTime::from_secs(u64::MAX), SimTime::MAX);
    }

    #[test]
    fn saturating_since_handles_reversed_order() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_since(a), SimDuration::from_secs(1));
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_secs(10);
        assert_eq!(d * 3, SimDuration::from_secs(30));
        assert_eq!(d / 4, SimDuration::from_secs_f64(2.5));
        assert_eq!(d * 0.5, SimDuration::from_secs(5));
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_secs).sum();
        assert_eq!(total, SimDuration::from_secs(10));
    }

    /// The instants at the edges of the representation, and one a float
    /// cannot hold.
    const EDGES: [u64; 5] = [0, 1, (1 << 53) + 1, u64::MAX - 2, u64::MAX];

    #[test]
    fn micros_round_trip_but_the_one_instant_the_niche_takes() {
        for micros in EDGES {
            assert_eq!(SimTime::from_micros(micros).as_micros(), micros);
        }
        assert_eq!(SimTime::from_micros(u64::MAX - 1), SimTime::MAX);
        assert_eq!(SimTime::MAX.as_micros(), u64::MAX);
        assert!(SimTime::from_micros(u64::MAX - 2) < SimTime::MAX);
        assert_eq!(
            SimTime::from_micros(u64::MAX - 2) + SimDuration::from_micros(1),
            SimTime::MAX,
            "a sum that lands on the instant given up saturates"
        );
        assert_eq!(SimTime::MAX + SimDuration::MAX, SimTime::MAX);
    }

    #[test]
    fn an_instant_serializes_as_its_micros() {
        for micros in EDGES {
            let time = SimTime::from_micros(micros);
            assert_eq!(time.to_value(), micros.to_value());
            assert_eq!(SimTime::from_value(&micros.to_value()).unwrap(), time);
        }
        assert!(SimTime::from_value(&(-1i64).to_value()).is_err());
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(SimTime::from_secs(2).to_string(), "2.000000s");
        assert_eq!(SimDuration::from_millis(1).to_string(), "0.001000s");
    }
}
