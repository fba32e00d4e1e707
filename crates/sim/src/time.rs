//! Simulation time: a `u64` count of picoseconds.
//!
//! Picosecond resolution lets the fabric model express sub-nanosecond
//! serialization steps (one byte on a 2 Gb/s ASI x1 lane takes 4 ns) while
//! still covering ~213 days of simulated time, far beyond any discovery run.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant in simulated time, in picoseconds since simulation
/// start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in picoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

/// One picosecond.
pub const PICOSECOND: SimDuration = SimDuration(1);
/// One nanosecond (1000 ps).
pub const NANOSECOND: SimDuration = SimDuration(1_000);
/// One microsecond.
pub const MICROSECOND: SimDuration = SimDuration(1_000_000);
/// One millisecond.
pub const MILLISECOND: SimDuration = SimDuration(1_000_000_000);
/// One second.
pub const SECOND: SimDuration = SimDuration(1_000_000_000_000);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Builds an instant from raw picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Raw picosecond count.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Builds an instant from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * 1_000)
    }

    /// Builds an instant from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000_000)
    }

    /// Builds an instant from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000_000)
    }

    /// The instant expressed in (fractional) seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// The instant expressed in (fractional) microseconds.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The instant expressed in (fractional) milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration elapsed since `earlier`.
    ///
    /// # Panics
    /// Panics in debug builds if `earlier` is later than `self`.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(
            earlier.0 <= self.0,
            "SimTime::since: earlier ({earlier:?}) is after self ({self:?})"
        );
        SimDuration(self.0 - earlier.0)
    }

    /// Duration elapsed since `earlier`, saturating to zero if `earlier` is
    /// in the future.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a duration.
    #[inline]
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Builds a span from raw picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimDuration(ps)
    }

    /// Builds a span from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimDuration(ns * 1_000)
    }

    /// Builds a span from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimDuration(us * 1_000_000)
    }

    /// Builds a span from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimDuration(ms * 1_000_000_000)
    }

    /// Builds a span from a fractional count of seconds, rounding to the
    /// nearest picosecond and saturating on overflow or negative input.
    pub fn from_secs_f64(secs: f64) -> Self {
        if !secs.is_finite() || secs <= 0.0 {
            return SimDuration::ZERO;
        }
        let ps = secs * 1e12;
        if ps >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration(ps.round() as u64)
        }
    }

    /// Raw picosecond count.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// The span expressed in (fractional) seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// The span expressed in (fractional) microseconds.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The span expressed in (fractional) milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// True if the span is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Scales the span by a dimensionless factor (e.g. a processing-speed
    /// factor), rounding to the nearest picosecond.
    ///
    /// Note the paper's convention: a processing *speed* factor `f` divides
    /// the time, so callers that apply Fig. 8/9 factors use
    /// `d.scaled(1.0 / f)`.
    pub fn scaled(self, factor: f64) -> SimDuration {
        Self::from_secs_f64(self.as_secs_f64() * factor)
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Integer division into another duration, i.e. how many `other` spans
    /// fit into `self`.
    #[inline]
    pub fn div_duration(self, other: SimDuration) -> u64 {
        assert!(!other.is_zero(), "division by zero-length SimDuration");
        self.0 / other.0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", format_ps(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ps(self.0))
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ps(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ps(self.0))
    }
}

/// Renders a picosecond count with a human-friendly unit.
fn format_ps(ps: u64) -> String {
    if ps == 0 {
        "0s".to_string()
    } else if ps.is_multiple_of(1_000_000_000_000) {
        format!("{}s", ps / 1_000_000_000_000)
    } else if ps >= 1_000_000_000 {
        format!("{:.3}ms", ps as f64 / 1e9)
    } else if ps >= 1_000_000 {
        format!("{:.3}us", ps as f64 / 1e6)
    } else if ps >= 1_000 {
        format!("{:.3}ns", ps as f64 / 1e3)
    } else {
        format!("{ps}ps")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_constructors_agree() {
        assert_eq!(SimTime::from_ns(1).as_ps(), 1_000);
        assert_eq!(SimTime::from_us(1).as_ps(), 1_000_000);
        assert_eq!(SimTime::from_ms(1).as_ps(), 1_000_000_000);
        assert_eq!(SimDuration::from_ns(3).as_ps(), 3_000);
        assert_eq!(SimDuration::from_us(2).as_ps(), 2_000_000);
        assert_eq!(SimDuration::from_ms(5).as_ps(), 5_000_000_000);
    }

    #[test]
    fn time_plus_duration() {
        let t = SimTime::from_ns(10) + SimDuration::from_ns(5);
        assert_eq!(t, SimTime::from_ns(15));
    }

    #[test]
    fn time_difference_is_duration() {
        let a = SimTime::from_us(3);
        let b = SimTime::from_us(1);
        assert_eq!(a - b, SimDuration::from_us(2));
        assert_eq!(a.since(b), SimDuration::from_us(2));
    }

    #[test]
    fn saturating_since_clamps() {
        let a = SimTime::from_us(1);
        let b = SimTime::from_us(3);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
    }

    #[test]
    fn secs_round_trip() {
        let d = SimDuration::from_secs_f64(1.5e-6);
        assert_eq!(d, SimDuration::from_ns(1_500));
        assert!((d.as_secs_f64() - 1.5e-6).abs() < 1e-18);
    }

    #[test]
    fn from_secs_f64_edge_cases() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(1e30), SimDuration::MAX);
        assert_eq!(SimDuration::from_secs_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    fn scaled_applies_factor() {
        let d = SimDuration::from_us(20);
        assert_eq!(d.scaled(0.5), SimDuration::from_us(10));
        assert_eq!(d.scaled(2.0), SimDuration::from_us(40));
    }

    #[test]
    fn div_duration_counts_spans() {
        assert_eq!(
            SimDuration::from_us(10).div_duration(SimDuration::from_ns(2_500)),
            4
        );
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_duration_zero_panics() {
        let _ = SimDuration::from_us(1).div_duration(SimDuration::ZERO);
    }

    #[test]
    fn display_picks_units() {
        assert_eq!(SimTime::from_ps(500).to_string(), "500ps");
        assert_eq!(SimTime::from_ns(500).to_string(), "500.000ns");
        assert_eq!(SimTime::from_ns(1500).to_string(), "1.500us");
        assert_eq!(SimTime::from_us(12).to_string(), "12.000us");
        assert_eq!(SimTime::from_ms(3).to_string(), "3.000ms");
        assert_eq!(SimTime::from_ps(2_000_000_000_000).to_string(), "2s");
        assert_eq!(SimTime::ZERO.to_string(), "0s");
    }

    #[test]
    fn checked_add_detects_overflow() {
        assert!(SimTime::MAX.checked_add(SimDuration::from_ps(1)).is_none());
        assert_eq!(
            SimTime::ZERO.checked_add(SimDuration::from_ps(7)),
            Some(SimTime::from_ps(7))
        );
    }

    #[test]
    fn duration_arithmetic() {
        let mut d = SimDuration::from_ns(10);
        d += SimDuration::from_ns(5);
        assert_eq!(d, SimDuration::from_ns(15));
        d -= SimDuration::from_ns(3);
        assert_eq!(d, SimDuration::from_ns(12));
        assert_eq!(d * 2, SimDuration::from_ns(24));
        assert_eq!(d / 4, SimDuration::from_ns(3));
        assert_eq!(
            SimDuration::from_ns(5).saturating_sub(SimDuration::from_ns(9)),
            SimDuration::ZERO
        );
    }
}
