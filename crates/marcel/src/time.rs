//! Virtual time representation.
//!
//! The whole MPICH/Madeleine reproduction runs on a *virtual* clock: every
//! cost in the system (wire latency, per-byte transmission, a semaphore
//! operation, one polling-loop iteration, ...) is expressed as a
//! [`VirtualDuration`] and accumulated on per-thread [`VirtualTime`] clocks
//! by the `marcel` kernel. Nanosecond resolution comfortably covers the
//! paper's measurement range (microseconds to seconds) without overflow:
//! a `u64` of nanoseconds spans ~584 years.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A point on the simulation's virtual clock, in nanoseconds since the
/// start of the run.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtualTime(pub u64);

/// A span of virtual time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtualDuration(pub u64);

/// The total scheduling order used by the kernel: the thread due
/// earliest on the virtual clock runs first, with the thread id
/// breaking ties. The derived lexicographic `Ord` *is* the scheduling
/// contract.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub(crate) struct SchedKey {
    /// Virtual time at which the thread is due (its clock for Ready
    /// threads, the wake-up point for sleepers and timed waiters).
    pub at: VirtualTime,
    /// Tie-breaker: lower thread ids run first at equal times.
    pub tid: usize,
}

impl VirtualTime {
    /// The beginning of the simulation.
    pub const ZERO: VirtualTime = VirtualTime(0);

    /// Nanoseconds since the start of the run.
    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds (fractional) since the start of the run.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Seconds (fractional) since the start of the run.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Elapsed duration since `earlier`. Saturates at zero rather than
    /// panicking, because receivers may legitimately observe message
    /// timestamps from "their past" (the message arrived while they were
    /// busy).
    #[inline]
    pub fn saturating_since(self, earlier: VirtualTime) -> VirtualDuration {
        VirtualDuration(self.0.saturating_sub(earlier.0))
    }
}

impl VirtualDuration {
    pub const ZERO: VirtualDuration = VirtualDuration(0);

    /// Build a duration from whole nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        VirtualDuration(ns)
    }

    /// Build a duration from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        VirtualDuration(us * 1_000)
    }

    /// Build a duration from fractional microseconds (handy for the
    /// calibration tables, which the paper quotes in µs).
    #[inline]
    pub fn from_micros_f64(us: f64) -> Self {
        VirtualDuration((us * 1_000.0).round() as u64)
    }

    /// Build a duration from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        VirtualDuration(ms * 1_000_000)
    }

    /// Build a duration from fractional seconds.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        VirtualDuration((s * 1_000_000_000.0).round() as u64)
    }

    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: VirtualDuration) -> VirtualDuration {
        VirtualDuration(self.0.saturating_sub(other.0))
    }
}

impl Add<VirtualDuration> for VirtualTime {
    type Output = VirtualTime;
    #[inline]
    fn add(self, rhs: VirtualDuration) -> VirtualTime {
        VirtualTime(self.0 + rhs.0)
    }
}

impl AddAssign<VirtualDuration> for VirtualTime {
    #[inline]
    fn add_assign(&mut self, rhs: VirtualDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<VirtualTime> for VirtualTime {
    type Output = VirtualDuration;
    /// Panics on time going backwards; use [`VirtualTime::saturating_since`]
    /// when the ordering is not guaranteed.
    #[inline]
    fn sub(self, rhs: VirtualTime) -> VirtualDuration {
        VirtualDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("virtual time subtraction underflow"),
        )
    }
}

impl Add for VirtualDuration {
    type Output = VirtualDuration;
    #[inline]
    fn add(self, rhs: VirtualDuration) -> VirtualDuration {
        VirtualDuration(self.0 + rhs.0)
    }
}

impl AddAssign for VirtualDuration {
    #[inline]
    fn add_assign(&mut self, rhs: VirtualDuration) {
        self.0 += rhs.0;
    }
}

impl Mul<u64> for VirtualDuration {
    type Output = VirtualDuration;
    #[inline]
    fn mul(self, rhs: u64) -> VirtualDuration {
        VirtualDuration(self.0 * rhs)
    }
}

impl Div<u64> for VirtualDuration {
    type Output = VirtualDuration;
    #[inline]
    fn div(self, rhs: u64) -> VirtualDuration {
        VirtualDuration(self.0 / rhs)
    }
}

impl Sum for VirtualDuration {
    fn sum<I: Iterator<Item = VirtualDuration>>(iter: I) -> Self {
        iter.fold(VirtualDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for VirtualTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.3}us", self.as_micros_f64())
    }
}

impl fmt::Display for VirtualTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

impl fmt::Debug for VirtualDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

impl fmt::Display for VirtualDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(VirtualDuration::from_micros(5).as_nanos(), 5_000);
        assert_eq!(VirtualDuration::from_millis(2).as_nanos(), 2_000_000);
        assert_eq!(VirtualDuration::from_micros_f64(4.4).as_nanos(), 4_400);
        assert_eq!(VirtualDuration::from_secs_f64(0.5).as_nanos(), 500_000_000);
    }

    #[test]
    fn arithmetic() {
        let t = VirtualTime::ZERO + VirtualDuration::from_micros(10);
        assert_eq!(t.as_nanos(), 10_000);
        let d = (t + VirtualDuration::from_micros(5)) - t;
        assert_eq!(d, VirtualDuration::from_micros(5));
        assert_eq!(
            VirtualDuration::from_micros(3) * 4,
            VirtualDuration::from_micros(12)
        );
        assert_eq!(
            VirtualDuration::from_micros(12) / 4,
            VirtualDuration::from_micros(3)
        );
    }

    #[test]
    fn saturating_since_does_not_underflow() {
        let early = VirtualTime(100);
        let late = VirtualTime(300);
        assert_eq!(late.saturating_since(early).as_nanos(), 200);
        assert_eq!(early.saturating_since(late).as_nanos(), 0);
    }

    #[test]
    fn ordering() {
        assert!(VirtualTime(1) < VirtualTime(2));
        assert!(VirtualDuration::from_micros(1) < VirtualDuration::from_micros(2));
    }

    #[test]
    fn sum_of_durations() {
        let total: VirtualDuration = (1..=4).map(VirtualDuration::from_micros).sum();
        assert_eq!(total, VirtualDuration::from_micros(10));
    }

    #[test]
    fn display_in_microseconds() {
        assert_eq!(format!("{}", VirtualDuration::from_nanos(1500)), "1.500us");
        assert_eq!(format!("{}", VirtualTime(2_000)), "2.000us");
    }
}
