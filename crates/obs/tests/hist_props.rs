//! Property tests for the log-linear histogram's documented error bound:
//! any recorded value round-trips through its bucket's lower bound
//! within 3% (1/32) below the true value — the resolution every latency
//! percentile in the workspace inherits.

use proptest::prelude::*;

use obs::hist::{bucket, bucket_low, Histogram};

proptest! {
    #[test]
    fn bucket_round_trip_error_is_within_three_percent(value in any::<u64>()) {
        let b = bucket(value);
        let low = bucket_low(b);
        prop_assert!(low <= value, "lower bound {low} above value {value}");
        // Documented bound: error <= value/32 (+1 for the integer floor).
        let error = value - low;
        prop_assert!(
            error <= value / 32 + 1,
            "error {error} exceeds 3% bound for {value} (bucket {b}, low {low})"
        );
    }

    #[test]
    fn bucketing_is_monotonic(a in any::<u64>(), b in any::<u64>()) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(bucket(lo) <= bucket(hi));
    }

    #[test]
    fn bucket_low_is_a_fixed_point(value in any::<u64>()) {
        // The lower bound of a bucket buckets to the same bucket.
        let b = bucket(value);
        prop_assert_eq!(bucket(bucket_low(b)), b);
    }

    #[test]
    fn percentile_never_overshoots(mut values in proptest::collection::vec(1u64..u32::MAX as u64, 1..200)) {
        let mut h = Histogram::default();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        for p in [50.0f64, 90.0, 99.0] {
            let rank = ((p / 100.0) * values.len() as f64).ceil().max(1.0) as usize - 1;
            let truth = values[rank];
            let est = h.percentile(p);
            prop_assert!(est <= truth, "p{p}: estimate {est} above true {truth}");
            prop_assert!(
                est >= truth - truth / 32 - 1,
                "p{p}: estimate {est} more than 3% below true {truth}"
            );
        }
    }

    #[test]
    fn merge_equals_concatenation(
        xs in proptest::collection::vec(any::<u64>(), 0..100),
        ys in proptest::collection::vec(any::<u64>(), 0..100),
    ) {
        let mut whole = Histogram::default();
        for &v in xs.iter().chain(&ys) {
            whole.record(v);
        }
        let mut left = Histogram::default();
        for &v in &xs {
            left.record(v);
        }
        let mut right = Histogram::default();
        for &v in &ys {
            right.record(v);
        }
        left.merge(&right);
        prop_assert_eq!(whole, left);
    }
}

/// The histogram as it was kept before its dense window: bucket index →
/// count in a `BTreeMap`, with derived `Debug` and `PartialEq`. The fleet
/// digests hash `Debug` renderings, so the window must print as this.
mod reference {
    use std::collections::BTreeMap;

    use obs::hist::{bucket, bucket_low};

    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct Histogram {
        buckets: BTreeMap<u32, u64>,
        count: u64,
    }

    impl Histogram {
        pub fn record_n(&mut self, value: u64, n: u64) {
            if n == 0 {
                return;
            }
            *self.buckets.entry(bucket(value)).or_default() += n;
            self.count += n;
        }

        pub fn merge(&mut self, other: &Histogram) {
            for (k, v) in &other.buckets {
                *self.buckets.entry(*k).or_default() += v;
            }
            self.count += other.count;
        }

        pub fn percentile(&self, p: f64) -> u64 {
            if self.count == 0 {
                return 0;
            }
            let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
            let mut seen = 0u64;
            for (&b, &c) in &self.buckets {
                seen += c;
                if seen >= rank {
                    return bucket_low(b);
                }
            }
            0
        }

        pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
            self.buckets.iter().map(|(&b, &c)| (bucket_low(b), c))
        }

        pub fn raw_buckets(&self) -> &BTreeMap<u32, u64> {
            &self.buckets
        }
    }
}

/// Values spread over small counts, simulated latencies and all of
/// `u64`, each recorded 0–3 times.
fn recordings() -> impl Strategy<Value = Vec<(u64, u64, u64)>> {
    proptest::collection::vec((0u64..3, any::<u64>(), 0u64..4), 0..120).prop_map(|draws| {
        draws
            .into_iter()
            .map(|(kind, raw, n)| {
                let value = match kind {
                    0 => raw % 64,
                    1 => 1_000_000 + raw % 5_000_000_000,
                    _ => raw,
                };
                (value, n, raw)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]
    // Histograms built from the same recordings split into random groups
    // and merged in a random order print (`{:?}` and `{:#?}`), compare,
    // rank and iterate exactly as the `BTreeMap` histogram does — and
    // unequal recordings stay unequal.
    #[test]
    fn window_histogram_equals_the_btreemap_histogram(
        recorded in recordings(),
        groups in 1usize..6,
        p in 0.0f64..100.0,
    ) {
        let mut parts = vec![(Histogram::default(), reference::Histogram::default()); groups];
        for &(value, n, raw) in &recorded {
            let (h, r) = &mut parts[(raw % groups as u64) as usize];
            if n == 1 {
                h.record(value);
            } else {
                h.record_n(value, n);
            }
            r.record_n(value, n);
        }
        for (h, r) in &parts {
            prop_assert_eq!(format!("{h:?}"), format!("{r:?}"));
        }
        let mut merged = Histogram::default();
        let mut expected = reference::Histogram::default();
        for (h, r) in parts.iter().rev() {
            merged.merge(h);
            expected.merge(r);
        }
        let mut in_order = Histogram::default();
        for (h, _) in &parts {
            in_order.merge(h);
        }
        prop_assert_eq!(format!("{merged:?}"), format!("{expected:?}"));
        prop_assert_eq!(format!("{merged:#?}"), format!("{expected:#?}"));
        prop_assert!(merged == in_order);
        prop_assert_eq!(merged.count(), in_order.count());
        for q in [p, 0.0, 50.0, 90.0, 99.0, 100.0] {
            prop_assert_eq!(merged.percentile(q), expected.percentile(q));
        }
        prop_assert_eq!(merged.iter().collect::<Vec<_>>(), expected.iter().collect::<Vec<_>>());
        prop_assert_eq!(&merged.raw_buckets(), expected.raw_buckets());
        // One more recording, at either end or inside, breaks equality
        // in both kinds of histogram alike.
        let extra = recorded.first().map_or(7, |&(value, _, _)| value);
        let mut more = merged.clone();
        more.record(extra);
        let mut more_expected = expected.clone();
        more_expected.record_n(extra, 1);
        prop_assert_eq!(more == merged, more_expected == expected);
        prop_assert_eq!(format!("{more:?}"), format!("{more_expected:?}"));
        // Any two of the parts compare as their references do.
        for (a, ra) in &parts {
            for (b, rb) in &parts {
                prop_assert_eq!(a == b, ra == rb);
            }
        }
    }
}
