//! Simulation time and clock-frequency arithmetic.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or duration of) simulated time, stored in picoseconds.
///
/// A `u64` picosecond count covers roughly 213 days of simulated time,
/// far beyond anything the JPEG 2000 experiments need (seconds).
///
/// # Example
///
/// ```
/// use osss_sim::SimTime;
/// let t = SimTime::ms(180) + SimTime::us(500);
/// assert_eq!(t.as_ns(), 180_500_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The zero duration / start of simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable time.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from picoseconds.
    pub const fn ps(ps: u64) -> Self {
        SimTime(ps)
    }
    /// Creates a time from nanoseconds.
    pub const fn ns(ns: u64) -> Self {
        SimTime(ns * 1_000)
    }
    /// Creates a time from microseconds.
    pub const fn us(us: u64) -> Self {
        SimTime(us * 1_000_000)
    }
    /// Creates a time from milliseconds.
    pub const fn ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000_000)
    }
    /// Creates a time from seconds.
    pub const fn secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000_000)
    }

    /// The raw picosecond count.
    pub const fn as_ps(self) -> u64 {
        self.0
    }
    /// This time in whole nanoseconds (truncating).
    pub const fn as_ns(self) -> u64 {
        self.0 / 1_000
    }
    /// This time in whole microseconds (truncating).
    pub const fn as_us(self) -> u64 {
        self.0 / 1_000_000
    }
    /// This time in whole milliseconds (truncating).
    pub const fn as_ms(self) -> u64 {
        self.0 / 1_000_000_000
    }
    /// This time as fractional milliseconds.
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }
    /// This time as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Whether this is the zero time.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating addition.
    pub const fn saturating_add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }

    /// Checked subtraction; `None` if `rhs > self`.
    pub const fn checked_sub(self, rhs: SimTime) -> Option<SimTime> {
        match self.0.checked_sub(rhs.0) {
            Some(v) => Some(SimTime(v)),
            None => None,
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Div<SimTime> for SimTime {
    type Output = u64;
    /// How many times `rhs` fits in `self` (truncating).
    fn div(self, rhs: SimTime) -> u64 {
        self.0 / rhs.0
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps == 0 {
            return write!(f, "0 s");
        }
        let (value, unit, div): (u64, &str, u64) = if ps.is_multiple_of(1_000_000_000_000) {
            (ps / 1_000_000_000_000, "s", 1)
        } else if ps >= 1_000_000_000 {
            (ps, "ms", 1_000_000_000)
        } else if ps >= 1_000_000 {
            (ps, "us", 1_000_000)
        } else if ps >= 1_000 {
            (ps, "ns", 1_000)
        } else {
            (ps, "ps", 1)
        };
        if div == 1 {
            write!(f, "{value} {unit}")
        } else if value % div == 0 {
            write!(f, "{} {unit}", value / div)
        } else {
            write!(f, "{:.3} {unit}", value as f64 / div as f64)
        }
    }
}

/// A clock frequency, used to convert cycle counts into [`SimTime`].
///
/// The case study platform runs both the OPB bus and the PowerPC-class
/// processor at 100 MHz, so cycle-accurate costs are expressed as cycle
/// counts and converted through a `Frequency`.
///
/// # Example
///
/// ```
/// use osss_sim::{Frequency, SimTime};
/// let clk = Frequency::mhz(100);
/// assert_eq!(clk.period(), SimTime::ns(10));
/// assert_eq!(clk.cycles(5), SimTime::ns(50));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Frequency {
    hz: u64,
}

impl Frequency {
    /// Creates a frequency from hertz.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is zero.
    pub fn hz(hz: u64) -> Self {
        assert!(hz > 0, "frequency must be non-zero");
        Frequency { hz }
    }

    /// Creates a frequency from megahertz.
    pub fn mhz(mhz: u64) -> Self {
        Self::hz(mhz * 1_000_000)
    }

    /// The duration of one clock cycle.
    pub fn period(self) -> SimTime {
        SimTime::ps(1_000_000_000_000 / self.hz)
    }

    /// The duration of `n` clock cycles.
    pub fn cycles(self, n: u64) -> SimTime {
        // Multiply before dividing to keep precision for non-integral periods.
        SimTime::ps((n as u128 * 1_000_000_000_000u128 / self.hz as u128) as u64)
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.hz.is_multiple_of(1_000_000) {
            write!(f, "{} MHz", self.hz / 1_000_000)
        } else {
            write!(f, "{} Hz", self.hz)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_constructors_agree() {
        assert_eq!(SimTime::ns(1), SimTime::ps(1_000));
        assert_eq!(SimTime::us(1), SimTime::ns(1_000));
        assert_eq!(SimTime::ms(1), SimTime::us(1_000));
        assert_eq!(SimTime::secs(1), SimTime::ms(1_000));
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::ns(30);
        let b = SimTime::ns(12);
        assert_eq!(a + b, SimTime::ns(42));
        assert_eq!(a - b, SimTime::ns(18));
        assert_eq!(b * 4, SimTime::ns(48));
        assert_eq!(a / 3, SimTime::ns(10));
        assert_eq!(a / b, 2);
        assert_eq!(SimTime::MAX.saturating_add(SimTime::ns(1)), SimTime::MAX);
        assert_eq!(b.checked_sub(a), None);
        assert_eq!(a.checked_sub(b), Some(SimTime::ns(18)));
    }

    #[test]
    fn conversions() {
        let t = SimTime::ms(180);
        assert_eq!(t.as_ms(), 180);
        assert_eq!(t.as_us(), 180_000);
        assert!((t.as_ms_f64() - 180.0).abs() < 1e-12);
        assert!((t.as_secs_f64() - 0.18).abs() < 1e-12);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimTime::ZERO.to_string(), "0 s");
        assert_eq!(SimTime::ns(10).to_string(), "10 ns");
        assert_eq!(SimTime::ms(3).to_string(), "3 ms");
        assert_eq!(SimTime::secs(2).to_string(), "2 s");
        assert_eq!(SimTime::ps(999).to_string(), "999 ps");
        assert_eq!(SimTime::us(1500).to_string(), "1.500 ms");
    }

    #[test]
    fn frequency_period_and_cycles() {
        let clk = Frequency::mhz(100);
        assert_eq!(clk.period(), SimTime::ns(10));
        assert_eq!(clk.cycles(0), SimTime::ZERO);
        assert_eq!(clk.cycles(123), SimTime::ns(1_230));
    }

    #[test]
    fn frequency_non_integral_period() {
        let clk = Frequency::mhz(333);
        // 3.003003... ns per cycle; 333 cycles must be ~1 us within a ps.
        let t = clk.cycles(333);
        assert!(t >= SimTime::ns(999) && t <= SimTime::us(1));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_frequency_panics() {
        let _ = Frequency::hz(0);
    }

    #[test]
    fn sum_of_times() {
        let total: SimTime = [SimTime::ns(1), SimTime::ns(2), SimTime::ns(3)]
            .into_iter()
            .sum();
        assert_eq!(total, SimTime::ns(6));
    }
}
