//! Log-linear histogram with bounded relative error.
//!
//! Values (nanoseconds, nanojoules, bytes — any `u64`) are bucketed into
//! 32 linear sub-buckets per power-of-two octave, so any recorded value
//! is reproducible from its bucket's lower bound within 1/32 ≈ 3%.
//! Buckets are integral counts, which makes [`Histogram::merge`]
//! exactly associative and commutative — the property the fleet
//! engine's thread-count-invariant summaries rest on.
//!
//! The counts live in a dense window over the occupied buckets, from
//! the lowest to the highest, so recording a value is an index, not a
//! map probe, and a histogram holds no slots below its smallest value.
//! It prints and compares exactly as a `BTreeMap<u32, u64>` of bucket
//! index → count would: the fleet digests hash the `Debug` rendering.
//!
//! This module was extracted from `mcommerce-core`'s report aggregation
//! so the metrics registry and the workload counters share one bucketing
//! scheme; core re-exports it as `mcommerce_core::hist`.

use std::collections::BTreeMap;
use std::fmt;

/// Number of linear sub-buckets per power-of-two octave. 32 sub-buckets
/// bound the quantisation error of any recorded value by 1/32 ≈ 3%.
pub(crate) const SUB_BUCKETS: u64 = 32;

/// log2([`SUB_BUCKETS`]).
pub(crate) const SUB_BITS: u32 = 5;

/// Maps a value to its bucket index. Monotonic: `a <= b` implies
/// `bucket(a) <= bucket(b)`.
pub fn bucket(value: u64) -> u32 {
    if value < SUB_BUCKETS {
        return value as u32;
    }
    let exp = value.ilog2();
    let sub = (value >> (exp - SUB_BITS)) & (SUB_BUCKETS - 1);
    (exp - SUB_BITS + 1) * SUB_BUCKETS as u32 + sub as u32
}

/// The smallest value mapping to `bucket` — the round-trip lower bound.
/// For any `v`, `bucket_low(bucket(v)) <= v` and the gap is at most
/// `v / 32 + 1`.
pub fn bucket_low(bucket: u32) -> u64 {
    if bucket < SUB_BUCKETS as u32 {
        return bucket as u64;
    }
    let exp = bucket / SUB_BUCKETS as u32 + SUB_BITS - 1;
    let sub = (bucket % SUB_BUCKETS as u32) as u64;
    (1u64 << exp) | (sub << (exp - SUB_BITS))
}

/// A mergeable log-linear histogram: bucket index → count.
///
/// ```
/// use obs::Histogram;
/// let mut h = Histogram::default();
/// for v in [100, 200, 300, 400] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// let p50 = h.percentile(50.0);
/// assert!(p50 <= 200 && p50 >= 193); // lower bucket bound, within 3%
/// ```
#[derive(Clone, Default)]
pub struct Histogram {
    /// Bucket index of `counts[0]` (0 while empty).
    first: u32,
    /// Counts of buckets `first..first + counts.len()`; empty, or with
    /// a non-zero first and last count.
    counts: Vec<u64>,
    count: u64,
}

impl Histogram {
    /// Records one value.
    pub fn record(&mut self, value: u64) {
        *self.slot(bucket(value)) += 1;
        self.count += 1;
    }

    /// Records `n` occurrences of one value.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        *self.slot(bucket(value)) += n;
        self.count += n;
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Adds `other` into `self`. Associative and commutative: any
    /// grouping or ordering of merges over the same recordings yields
    /// bit-identical histograms.
    pub fn merge(&mut self, other: &Histogram) {
        let Some(last) = other.last() else {
            return;
        };
        self.cover(other.first, last);
        let offset = (other.first - self.first) as usize;
        for (mine, theirs) in self.counts[offset..].iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
    }

    /// Nearest-rank percentile, reported as the lower bound of the
    /// bucket the rank falls in — within 3% below the true percentile.
    /// Returns 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (b, c) in self.occupied() {
            seen += c;
            if seen >= rank {
                return bucket_low(b);
            }
        }
        0
    }

    /// Iterates `(bucket_lower_bound, count)` in ascending value order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.occupied().map(|(b, c)| (bucket_low(b), c))
    }

    /// The `bucket index → count` map of the occupied buckets, built on
    /// demand, for code that needs to merge by index without
    /// re-bucketing.
    pub fn raw_buckets(&self) -> BTreeMap<u32, u64> {
        self.occupied().collect()
    }

    /// `(bucket index, count)` of every occupied bucket, ascending.
    fn occupied(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        (self.first..)
            .zip(&self.counts)
            .filter(|&(_, &c)| c > 0)
            .map(|(b, &c)| (b, c))
    }

    /// The highest occupied bucket, `None` while empty.
    fn last(&self) -> Option<u32> {
        (!self.counts.is_empty()).then(|| self.first + self.counts.len() as u32 - 1)
    }

    /// The count slot of bucket `b`, widening the window to reach it.
    fn slot(&mut self, b: u32) -> &mut u64 {
        self.cover(b, b);
        &mut self.counts[(b - self.first) as usize]
    }

    /// Widens the window with zero counts until it spans `lo..=hi`.
    fn cover(&mut self, lo: u32, hi: u32) {
        let Some(last) = self.last() else {
            self.first = lo;
            self.counts.resize((hi - lo) as usize + 1, 0);
            return;
        };
        if lo < self.first {
            let grow = (self.first - lo) as usize;
            self.counts.splice(0..0, std::iter::repeat_n(0, grow));
            self.first = lo;
        }
        if hi > last {
            self.counts.resize((hi - self.first) as usize + 1, 0);
        }
    }
}

/// Compares the occupied buckets and the count, exactly as the derived
/// equality of a `BTreeMap` of bucket index → count and a count would.
impl PartialEq for Histogram {
    fn eq(&self, other: &Self) -> bool {
        self.count == other.count && self.occupied().eq(other.occupied())
    }
}

impl Eq for Histogram {}

/// Renders exactly as the derived `Debug` of a struct holding a
/// `buckets: BTreeMap<u32, u64>` of the occupied buckets and a `count`,
/// in both `{:?}` and `{:#?}`.
impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        /// The occupied buckets, printed as a map.
        struct Buckets<'a>(&'a Histogram);

        impl fmt::Debug for Buckets<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map().entries(self.0.occupied()).finish()
            }
        }

        f.debug_struct("Histogram")
            .field("buckets", &Buckets(self))
            .field("count", &self.count)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotonic_and_tight() {
        let mut last = 0;
        for v in [0u64, 1, 31, 32, 33, 100, 1_000, 1_000_000, u32::MAX as u64] {
            let b = bucket(v);
            assert!(b >= last, "bucket order broke at {v}");
            last = b;
            let low = bucket_low(b);
            assert!(low <= v, "{low} > {v}");
            assert!(v as f64 - low as f64 <= v as f64 / 32.0 + 1.0);
        }
    }

    #[test]
    fn merge_is_grouping_invariant() {
        let values: Vec<u64> = (0..200).map(|i| i * 977 + 13).collect();
        let mut whole = Histogram::default();
        for &v in &values {
            whole.record(v);
        }
        let mut left = Histogram::default();
        let mut right = Histogram::default();
        for &v in &values[..77] {
            left.record(v);
        }
        for &v in &values[77..] {
            right.record(v);
        }
        left.merge(&right);
        assert_eq!(whole, left);
        assert_eq!(whole.count(), 200);
    }

    #[test]
    fn percentile_of_uniform_ramp_is_close() {
        let mut h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v * 1_000);
        }
        let p90 = h.percentile(90.0);
        assert!(p90 <= 900_000, "{p90}");
        assert!(p90 as f64 >= 900_000.0 * (1.0 - 1.0 / 32.0), "{p90}");
    }

    #[test]
    fn empty_histogram_is_all_zeroes() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(99.0), 0);
        assert_eq!(h.iter().count(), 0);
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        a.record_n(12345, 7);
        a.record_n(99, 0);
        for _ in 0..7 {
            b.record(12345);
        }
        assert_eq!(a, b);
    }
}
