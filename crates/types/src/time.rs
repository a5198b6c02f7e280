//! Simulation time: nanosecond-resolution instants and durations.
//!
//! Engines are pure state machines driven by `(event, now)` pairs; they
//! never read a wall clock. Under the discrete-event simulator `now` is
//! virtual time, under the TCP runner it is elapsed wall time since process
//! start. Using one newtype for both keeps the engines agnostic.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant, in nanoseconds since the start of the run.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

/// A span of time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

impl Time {
    /// The zero instant (start of the run).
    pub const ZERO: Time = Time(0);

    /// Nanoseconds since the start of the run.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the start of the run, as f64 (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Milliseconds since the start of the run, as f64 (for reporting).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Elapsed time since `earlier`, saturating to zero if `earlier` is
    /// in the future.
    pub fn since(self, earlier: Time) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Duration {
    /// The zero duration.
    pub const ZERO: Duration = Duration(0);

    /// Builds a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000_000)
    }

    /// Builds a duration from microseconds.
    pub fn from_micros(us: u64) -> Self {
        Duration(us * 1_000)
    }

    /// Builds a duration from seconds.
    pub const fn from_secs(s: u64) -> Self {
        Duration(s * 1_000_000_000)
    }

    /// Builds a duration from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(
            s.is_finite() && s >= 0.0,
            "duration must be finite and non-negative"
        );
        Duration((s * 1e9).round() as u64)
    }

    /// Nanoseconds in this duration.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Milliseconds, as f64 (for reporting).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Seconds, as f64 (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Scales the duration by an integer factor.
    pub fn saturating_mul(self, k: u64) -> Duration {
        Duration(self.0.saturating_mul(k))
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
        self.since(rhs)
    }
}

impl Add<Duration> for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }
}

impl Sub<Duration> for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<std::time::Duration> for Duration {
    fn from(d: std::time::Duration) -> Self {
        Duration(d.as_nanos().min(u64::MAX as u128) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = Time::ZERO + Duration::from_millis(5);
        assert_eq!(t.as_nanos(), 5_000_000);
        assert_eq!((t + Duration::from_millis(3)) - t, Duration::from_millis(3));
        assert_eq!(Time(3).since(Time(10)), Duration::ZERO, "saturates");
    }

    #[test]
    fn conversions() {
        assert_eq!(Duration::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(Duration::from_micros(3).as_nanos(), 3_000);
        assert_eq!(Duration::from_secs_f64(0.25).as_millis_f64(), 250.0);
        let std = std::time::Duration::from_millis(7);
        assert_eq!(Duration::from(std), Duration::from_millis(7));
    }

    #[test]
    fn display_in_millis() {
        assert_eq!(format!("{}", Duration::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", Time(1_500_000)), "t=1.500ms");
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_secs_panics() {
        let _ = Duration::from_secs_f64(-1.0);
    }

    #[test]
    fn saturating_mul() {
        assert_eq!(
            Duration::from_millis(2).saturating_mul(3),
            Duration::from_millis(6)
        );
        assert_eq!(Duration(u64::MAX).saturating_mul(2), Duration(u64::MAX));
    }
}
