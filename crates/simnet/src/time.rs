//! Virtual time for the simulator.
//!
//! Simulated time is a monotonically increasing count of nanoseconds held in
//! a [`SimTime`]; intervals between instants are [`SimDuration`]s. Both are
//! thin `u64` newtypes — cheap to copy, totally ordered, and free of the
//! wall-clock ambiguity of `std::time`. Model code that still computes
//! in `f64` seconds crosses into nanoseconds through one rounding rule,
//! [`secs_to_ns`].

use std::fmt::{self, Write as _};
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// Seconds → whole nanoseconds, rounding half away from zero: exactly
/// `(secs * 1e9).max(0.0).round() as u64` for every `f64`, so NaN and
/// anything non-positive give 0 and anything at or above 2^64 ns
/// (+∞ included) gives `u64::MAX`.
///
/// `f64::round` is a libm call on the baseline x86-64 target, and this
/// conversion runs several times per simulated transaction, so the
/// rounding is done here with two conversions and a compare: below
/// 2^52 the truncation `t` and the fraction `x − t` are both exact,
/// and at or above it every `f64` is already a whole number.
///
/// ```
/// use simnet::time::secs_to_ns;
/// assert_eq!(secs_to_ns(1.5e-9), 2);
/// assert_eq!(secs_to_ns(-3.0), 0);
/// assert_eq!(secs_to_ns(f64::NAN), 0);
/// assert_eq!(secs_to_ns(f64::INFINITY), u64::MAX);
/// ```
#[inline]
pub fn secs_to_ns(secs: f64) -> u64 {
    /// 2^52: from here up, the spacing of `f64`s is at least 1.
    const WHOLE: f64 = 4_503_599_627_370_496.0;
    let x = secs * 1e9;
    if x >= WHOLE {
        x as u64
    } else if x > 0.0 {
        let t = x as u64;
        t + u64::from(x - t as f64 >= 0.5)
    } else {
        // Non-positive or NaN.
        0
    }
}

/// An instant on the simulation clock, measured in nanoseconds since the
/// simulation started.
///
/// ```
/// use simnet::{SimTime, SimDuration};
/// let t = SimTime::ZERO + SimDuration::from_millis(3);
/// assert_eq!(t.as_micros(), 3_000);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
///
/// ```
/// use simnet::SimDuration;
/// let d = SimDuration::from_micros(1500);
/// assert_eq!(d.as_millis(), 1); // truncating
/// assert_eq!(d.as_secs_f64(), 0.0015);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub(crate) const MAX: SimTime = SimTime(u64::MAX);

    /// Builds an instant `nanos` nanoseconds after the origin.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Builds an instant `micros` microseconds after the origin.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros * 1_000)
    }

    /// Builds an instant `millis` milliseconds after the origin.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000_000)
    }

    /// Builds an instant `secs` seconds after the origin.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000_000)
    }

    /// Nanoseconds since the origin.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds since the origin (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Milliseconds since the origin (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds since the origin as a float, for reporting.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The duration elapsed since `earlier`.
    ///
    /// Returns [`SimDuration::ZERO`] when `earlier` is in the future, which
    /// keeps protocol code (RTT estimation, timeouts) total.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating add that never wraps past `SimTime::MAX`.
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The empty interval.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a duration of `nanos` nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Builds a duration of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * 1_000)
    }

    /// Builds a duration of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000_000)
    }

    /// Builds a duration of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000_000)
    }

    /// Builds a duration from a float number of seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration seconds must be finite and non-negative, got {secs}"
        );
        SimDuration(secs_to_ns(secs))
    }

    /// Length in nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Length in milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Length in seconds as a float, for reporting.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// True when the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating difference, clamping at zero.
    pub(crate) fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// The time it takes to serialise `bytes` bytes at `bits_per_sec`.
    ///
    /// This is the workhorse behind every link model in the workspace.
    ///
    /// # Panics
    ///
    /// Panics if `bits_per_sec` is zero.
    pub fn transmission(bytes: usize, bits_per_sec: u64) -> SimDuration {
        assert!(bits_per_sec > 0, "link bandwidth must be positive");
        let bits = bytes as u128 * 8;
        SimDuration(((bits * 1_000_000_000) / bits_per_sec as u128) as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("simulated time overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_add(rhs.0)
                .expect("simulated duration overflow"),
        )
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        self.saturating_sub(rhs)
    }
}

impl Mul<u32> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u32) -> SimDuration {
        SimDuration(
            self.0
                .checked_mul(rhs as u64)
                .expect("simulated duration overflow"),
        )
    }
}

impl Div<u32> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u32) -> SimDuration {
        SimDuration(self.0 / rhs as u64)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimTime {
    /// Seconds to the microsecond, `1.500000s`; honours width, fill and
    /// alignment, and ignores precision.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        padded(f, |w| write!(w, "{:.6}s", self.as_secs_f64()))
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for SimDuration {
    /// The largest unit that keeps the value at least 1 — `2.500s`,
    /// `40.000ms`, `1.250us`, `800ns` — or `inf`; honours width, fill
    /// and alignment, and ignores precision.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        padded(f, |w| {
            if ns == u64::MAX {
                w.write_str("inf")
            } else if ns >= 1_000_000_000 {
                write!(w, "{:.3}s", self.as_secs_f64())
            } else if ns >= 1_000_000 {
                write!(w, "{:.3}ms", ns as f64 / 1e6)
            } else if ns >= 1_000 {
                write!(w, "{:.3}us", ns as f64 / 1e3)
            } else {
                write!(w, "{ns}ns")
            }
        })
    }
}

/// Writes what `render` writes, padded to the formatter's width with its
/// fill and alignment (left by default). Without a width it writes
/// straight through; with one it renders into a stack buffer first. The
/// formatter's precision is ignored: `Formatter::pad` would truncate to
/// it, so the padding is written here.
fn padded(
    f: &mut fmt::Formatter<'_>,
    render: impl Fn(&mut dyn fmt::Write) -> fmt::Result,
) -> fmt::Result {
    let Some(width) = f.width() else {
        return render(f);
    };
    let mut buf = StackText::default();
    render(&mut buf)?;
    let text = buf.as_str();
    let gap = width.saturating_sub(text.chars().count());
    let (before, after) = match f.align() {
        Some(fmt::Alignment::Right) => (gap, 0),
        Some(fmt::Alignment::Center) => (gap / 2, gap - gap / 2),
        _ => (0, gap),
    };
    let fill = f.fill();
    for _ in 0..before {
        f.write_char(fill)?;
    }
    f.write_str(text)?;
    for _ in 0..after {
        f.write_char(fill)?;
    }
    Ok(())
}

/// A rendered time on the stack: the longest, [`SimTime::MAX`], is 19
/// bytes.
#[derive(Default)]
struct StackText {
    bytes: [u8; 32],
    len: usize,
}

impl StackText {
    fn as_str(&self) -> &str {
        std::str::from_utf8(&self.bytes[..self.len]).expect("only whole strs are written")
    }
}

impl fmt::Write for StackText {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let end = self.len + s.len();
        self.bytes
            .get_mut(self.len..end)
            .ok_or(fmt::Error)?
            .copy_from_slice(s.as_bytes());
        self.len = end;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_honours_width_fill_and_alignment_but_not_precision() {
        let d = SimDuration::from_millis(40);
        let t = SimTime::from_millis(1_500);
        assert_eq!(format!("{:>12}|{:<10}|", d, t), "    40.000ms|1.500000s |");
        assert_eq!(
            format!("{d:*^10}|{d:10}|{d:.1}"),
            "*40.000ms*|40.000ms  |40.000ms"
        );
        assert_eq!(
            format!("{:>12.2}", d),
            "    40.000ms",
            "precision is ignored"
        );
        assert_eq!(
            format!("{:3}", d),
            "40.000ms",
            "a narrow width never truncates"
        );
        // Without a width the output is unchanged, `Debug` included.
        assert_eq!(
            format!("{d}|{d:?}|{t}|{t:?}"),
            "40.000ms|40.000ms|1.500000s|t+1.500s"
        );
        assert_eq!(
            format!("{:>6}", SimDuration::from_nanos(u64::MAX)),
            "   inf"
        );
        assert_eq!(format!("{:>22}", SimTime::MAX), "   18446744073.709553s");
    }

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_secs(2).as_millis(), 2_000);
        assert_eq!(SimTime::from_millis(5).as_micros(), 5_000);
        assert_eq!(SimTime::from_micros(7).as_nanos(), 7_000);
        assert_eq!(SimDuration::from_secs(1).as_nanos(), 1_000_000_000);
    }

    #[test]
    fn arithmetic_is_consistent() {
        let t0 = SimTime::from_millis(10);
        let t1 = t0 + SimDuration::from_millis(15);
        assert_eq!(t1.as_millis(), 25);
        assert_eq!((t1 - t0).as_millis(), 15);
        // underflow clamps rather than panics
        assert_eq!((t0 - t1), SimDuration::ZERO);
    }

    #[test]
    fn transmission_time_matches_bandwidth() {
        // 1250 bytes at 10 Mbps = 10_000 bits / 10_000_000 bps = 1 ms
        let d = SimDuration::transmission(1250, 10_000_000);
        assert_eq!(d.as_nanos(), 1_000_000);
        // 11 Mbps 802.11b frame of 1500 bytes
        let d = SimDuration::transmission(1500, 11_000_000);
        assert_eq!(d.as_nanos() / 1_000, 1_090);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_panics() {
        let _ = SimDuration::transmission(1, 0);
    }

    #[test]
    fn from_secs_f64_rounds() {
        assert_eq!(SimDuration::from_secs_f64(0.0015).as_nanos(), 1_500_000);
        assert_eq!(SimDuration::from_secs_f64(0.0).as_nanos(), 0);
    }

    /// The rounding rule `secs_to_ns` replaces.
    fn libm_secs_to_ns(secs: f64) -> u64 {
        (secs * 1e9).max(0.0).round() as u64
    }

    #[test]
    fn secs_to_ns_equals_libm_rounding_at_the_edges() {
        let mut edges = vec![
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            -1.0,
            -0.5e-9,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
        ];
        // Exact halves of a nanosecond, whole nanoseconds, and the
        // neighbours of 2^52, 2^53 and 2^64 ns (the last saturates).
        for ns in [0.5, 1.5, 2.5, 1e6 + 0.5, 2f64.powi(51) + 0.5] {
            edges.push(ns / 1e9);
        }
        for exp in [52, 53, 63, 64] {
            let ns = 2f64.powi(exp);
            edges.extend([ns, ns.next_down(), ns.next_up()].map(|ns| ns / 1e9));
        }
        for x in [0.5f64, 0.49999999999999994, 1.0, 3.0] {
            edges.extend([x, x.next_down(), x.next_up()].map(|ns| ns / 1e9));
        }
        for secs in edges {
            for s in [secs, -secs, secs.next_up(), secs.next_down()] {
                assert_eq!(secs_to_ns(s), libm_secs_to_ns(s), "secs = {s:e}");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(4096))]
        // Any bit pattern — every exponent, NaN payloads, subnormals,
        // both signs — rounds exactly as the libm expression does; a
        // second draw lands in the [0, 2^53) ns range where the
        // fraction test does the work.
        #[test]
        fn secs_to_ns_equals_libm_rounding_for_any_bits(
            bits in proptest::prelude::any::<u64>(),
            ns in 0.0f64..9.007_199_254_740_992e15,
            halves in 0u64..1 << 53,
        ) {
            for secs in [f64::from_bits(bits), ns / 1e9, (halves as f64 + 0.5) / 1e9] {
                proptest::prop_assert_eq!(
                    secs_to_ns(secs),
                    libm_secs_to_ns(secs),
                    "secs = {:e}",
                    secs
                );
            }
        }
    }

    #[test]
    fn display_is_humane() {
        assert_eq!(format!("{}", SimDuration::from_millis(1500)), "1.500s");
        assert_eq!(format!("{}", SimDuration::from_micros(1500)), "1.500ms");
        assert_eq!(format!("{}", SimDuration::from_nanos(1500)), "1.500us");
        assert_eq!(format!("{}", SimDuration::from_nanos(15)), "15ns");
        assert_eq!(format!("{}", SimDuration::from_nanos(u64::MAX)), "inf");
    }

    #[test]
    fn ordering_and_sentinels() {
        assert!(SimTime::ZERO < SimTime::MAX);
        assert!(SimDuration::ZERO.is_zero());
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_secs(1)),
            SimTime::MAX
        );
    }

    #[test]
    fn mul_div_scale() {
        let d = SimDuration::from_millis(10);
        assert_eq!((d * 3).as_millis(), 30);
        assert_eq!((d / 2).as_millis(), 5);
    }
}
