//! Measurement primitives used by every experiment.
//!
//! All types use interior mutability (`Cell`/`RefCell`) so they can be
//! shared via `Rc` between the component being measured and the harness
//! reading results — the same pattern the simulator itself uses.

use std::cell::{Cell, RefCell};
use std::fmt;

/// A monotonically increasing event counter.
///
/// ```
/// let c = simnet::stats::Counter::new();
/// c.incr();
/// c.add(4);
/// assert_eq!(c.get(), 5);
/// ```
#[derive(Debug, Default)]
pub struct Counter(Cell<u64>);

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Counter(Cell::new(0))
    }

    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.set(self.0.get().wrapping_add(n));
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.get()
    }
}

/// Summary statistics over a set of `f64` samples.
///
/// Percentiles use linear interpolation between closest ranks (the R-7
/// scheme), so e.g. the median of `[1, 3]` is `2.0`, not either sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Smallest sample (0 if empty).
    pub(crate) min: f64,
    /// Largest sample (0 if empty).
    pub(crate) max: f64,
    /// Arithmetic mean (0 if empty).
    pub mean: f64,
    /// Population standard deviation (0 if empty).
    pub(crate) stddev: f64,
    /// Median (0 if empty).
    pub p50: f64,
    /// 90th percentile (0 if empty).
    pub p90: f64,
    /// 99th percentile (0 if empty).
    pub p99: f64,
}

impl Summary {
    fn empty() -> Summary {
        Summary {
            count: 0,
            min: 0.0,
            max: 0.0,
            mean: 0.0,
            stddev: 0.0,
            p50: 0.0,
            p90: 0.0,
            p99: 0.0,
        }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.3} sd={:.3} min={:.3} p50={:.3} p90={:.3} p99={:.3} max={:.3}",
            self.count, self.mean, self.stddev, self.min, self.p50, self.p90, self.p99, self.max
        )
    }
}

/// A reservoir of raw samples with exact quantiles.
///
/// Experiments in this workspace are laptop-scale (≤ millions of samples),
/// so exact quantiles from a sorted copy beat sketch data structures on
/// both simplicity and fidelity.
///
/// ```
/// let s = simnet::stats::Sampler::new();
/// for v in [1.0, 2.0, 3.0, 4.0] { s.record(v); }
/// let sum = s.summary();
/// assert_eq!(sum.count, 4);
/// assert_eq!(sum.mean, 2.5);
/// ```
#[derive(Debug, Default)]
pub struct Sampler {
    samples: RefCell<Vec<f64>>,
}

impl Sampler {
    /// Creates an empty sampler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN — a NaN sample is always an upstream bug
    /// and poisons every quantile.
    pub fn record(&self, value: f64) {
        assert!(!value.is_nan(), "refusing to record NaN sample");
        self.samples.borrow_mut().push(value);
    }

    /// Computes summary statistics over all recorded samples.
    pub fn summary(&self) -> Summary {
        let samples = self.samples.borrow();
        if samples.is_empty() {
            return Summary::empty();
        }
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN by construction"));
        let count = sorted.len();
        let sum: f64 = sorted.iter().sum();
        let mean = sum / count as f64;
        let var = sorted.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / count as f64;
        // Linear interpolation between closest ranks (the R-7 / NumPy
        // default). Rounding the rank instead is subtly wrong at small
        // counts: the median of two samples would come back as the max.
        let q = |p: f64| -> f64 {
            let rank = (count as f64 - 1.0) * p;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(count - 1);
            let frac = rank - lo as f64;
            sorted[lo] + (sorted[hi] - sorted[lo]) * frac
        };
        Summary {
            count,
            min: sorted[0],
            max: sorted[count - 1],
            mean,
            stddev: var.sqrt(),
            p50: q(0.50),
            p90: q(0.90),
            p99: q(0.99),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let c = Counter::new();
        assert_eq!(c.get(), 0);
        c.incr();
        c.add(9);
        assert_eq!(c.get(), 10);
    }

    #[test]
    fn sampler_summary_exact() {
        let s = Sampler::new();
        for v in 1..=100 {
            s.record(v as f64);
        }
        let sum = s.summary();
        assert_eq!(sum.count, 100);
        assert_eq!(sum.min, 1.0);
        assert_eq!(sum.max, 100.0);
        assert!((sum.mean - 50.5).abs() < 1e-9);
        assert!((sum.p50 - 50.0).abs() <= 1.0);
        assert!((sum.p90 - 90.0).abs() <= 1.0);
        assert!((sum.p99 - 99.0).abs() <= 1.0);
    }

    #[test]
    fn median_of_two_samples_interpolates() {
        // Regression: rank rounding used to return the max here.
        let s = Sampler::new();
        s.record(1.0);
        s.record(3.0);
        let sum = s.summary();
        assert_eq!(sum.p50, 2.0);
        assert!((sum.p90 - 2.8).abs() < 1e-9);
        assert!((sum.p99 - 2.98).abs() < 1e-9);
    }

    #[test]
    fn single_sample_percentiles_are_the_sample() {
        let s = Sampler::new();
        s.record(7.5);
        let sum = s.summary();
        assert_eq!(sum.p50, 7.5);
        assert_eq!(sum.p90, 7.5);
        assert_eq!(sum.p99, 7.5);
    }

    #[test]
    fn tiny_count_percentiles_interpolate() {
        // Three samples: p50 lands exactly on the middle one, p90 sits
        // 80% of the way between the 2nd and 3rd.
        let s = Sampler::new();
        for v in [10.0, 20.0, 30.0] {
            s.record(v);
        }
        let sum = s.summary();
        assert_eq!(sum.p50, 20.0);
        assert!((sum.p90 - 28.0).abs() < 1e-9);
    }

    #[test]
    fn empty_sampler_is_zeroes() {
        let s = Sampler::new();
        let sum = s.summary();
        assert_eq!(sum.count, 0);
        assert_eq!(sum.mean, 0.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_sample_panics() {
        Sampler::new().record(f64::NAN);
    }

    #[test]
    fn summary_display_contains_fields() {
        let s = Sampler::new();
        s.record(1.0);
        let text = s.summary().to_string();
        assert!(text.contains("n=1"));
        assert!(text.contains("mean=1.000"));
    }
}
