//! Transaction reports and workload aggregation.
//!
//! Aggregation is built on [`WorkloadCounters`], a purely integral,
//! order-insensitive accumulator: merging counters is associative and
//! commutative bit-for-bit, which is what lets the fleet runner produce
//! identical summaries regardless of how sessions are sharded across
//! threads (see `fleet`).

use std::collections::BTreeMap;
use std::sync::Arc;

use hostsite::http::Status;
use obs::Layer;
use simnet::time::secs_to_ns as to_ns;
use simnet::SimDuration;

/// Latency attributed to each of the system's components — the
/// per-component breakdown that makes Figures 1 and 2 measurable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// CPU time on the mobile station (or desktop client): request
    /// construction, parsing, rendering.
    pub station: SimDuration,
    /// Time on the wireless hop (both directions, incl. session setup).
    pub wireless: SimDuration,
    /// CPU time in the middleware layer (translation, encoding).
    pub middleware: SimDuration,
    /// Time on the wired network (both directions).
    pub wired: SimDuration,
    /// CPU time on the host computer.
    pub host: SimDuration,
}

impl PhaseBreakdown {
    /// Sum of all components.
    pub(crate) fn total(&self) -> SimDuration {
        self.station + self.wireless + self.middleware + self.wired + self.host
    }

    /// The share of `layer`, which must be one of the five components
    /// (the application has no share).
    pub(crate) fn share_mut(&mut self, layer: Layer) -> &mut SimDuration {
        match layer {
            Layer::Station => &mut self.station,
            Layer::Wireless => &mut self.wireless,
            Layer::Middleware => &mut self.middleware,
            Layer::Wired => &mut self.wired,
            Layer::Host => &mut self.host,
            Layer::Application => unreachable!("the application has no share"),
        }
    }
}

impl std::ops::AddAssign for PhaseBreakdown {
    /// Adds `other`'s shares into these, component by component.
    fn add_assign(&mut self, other: PhaseBreakdown) {
        self.station += other.station;
        self.wireless += other.wireless;
        self.middleware += other.middleware;
        self.wired += other.wired;
        self.host += other.host;
    }
}

/// What the user ended up seeing after a transaction: the rendered page
/// and the host's verdict, as structured data.
///
/// This replaced the removed `CommerceSystem::last_page_text` accessor —
/// the outcome travels on the [`TransactionReport`] itself, so concurrent
/// sessions cannot observe each other's pages. Text and title are shared
/// with the render that produced them (a memoised render hands the same
/// strings to every transaction that replays it), and `Arc` keeps the
/// report `Send`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransactionOutcome {
    /// The rendered page body, lines joined with `\n`.
    pub page_text: Arc<str>,
    /// The rendered page title (empty when the markup had none).
    pub title: Arc<str>,
    /// HTTP status the host answered with.
    pub status: Status,
}

/// The outcome of one end-to-end transaction (one request/response plus
/// rendering).
#[derive(Debug, Clone, PartialEq)]
pub struct TransactionReport {
    /// Per-component latency breakdown; its sum is the latency,
    /// [`TransactionReport::total`].
    pub breakdown: PhaseBreakdown,
    /// Bytes over the air, station → network.
    pub air_bytes_up: u64,
    /// Bytes over the air, network → station.
    pub air_bytes_down: u64,
    /// Link-layer retransmissions on the air hop.
    pub retransmissions: u32,
    /// Battery energy consumed, joules.
    pub energy_j: f64,
    /// Whether the transaction completed.
    pub success: bool,
    /// Failure description when `success` is false.
    pub failure: Option<String>,
    /// The rendered result, when the transaction completed.
    pub outcome: Option<TransactionOutcome>,
    /// End-to-end execution attempts this report covers (`1` = no
    /// retries). When a retry policy re-drives a transaction, the final
    /// report absorbs the failed attempts' costs and counts them here.
    pub attempts: u32,
    /// WAL fsync time the host charged for this transaction's requests
    /// (every attempt's): the part of the host share the shared-world
    /// engine serves on the host's log rather than its CPU. Zero under
    /// the default, free durability policy.
    pub(crate) wal: SimDuration,
}

impl TransactionReport {
    /// One attempt costing `breakdown`, with nothing over the air and no
    /// battery drawn; it succeeded iff there is no `failure`.
    pub(crate) fn new(
        breakdown: PhaseBreakdown,
        failure: Option<String>,
        outcome: Option<TransactionOutcome>,
    ) -> Self {
        TransactionReport {
            breakdown,
            air_bytes_up: 0,
            air_bytes_down: 0,
            retransmissions: 0,
            energy_j: 0.0,
            success: failure.is_none(),
            failure,
            outcome,
            attempts: 1,
            wal: SimDuration::ZERO,
        }
    }

    /// Wall-clock latency of the whole transaction: the sum of its
    /// breakdown.
    pub fn total(&self) -> SimDuration {
        self.breakdown.total()
    }

    /// Adds `other`'s paid costs into this report, field by field: each
    /// component's share, WAL time, energy, air bytes and
    /// retransmissions. Its verdict, outcome and attempts stay its own.
    pub(crate) fn absorb(&mut self, other: &TransactionReport) {
        self.breakdown += other.breakdown;
        self.wal += other.wal;
        self.energy_j += other.energy_j;
        self.air_bytes_up += other.air_bytes_up;
        self.air_bytes_down += other.air_bytes_down;
        self.retransmissions += other.retransmissions;
    }

    /// The rendered page text, when the transaction produced one.
    pub(crate) fn page_text(&self) -> Option<&str> {
        self.outcome.as_ref().map(|o| &*o.page_text)
    }
}

/// The keys of [`WorkloadCounters::component_ns`], in key order.
const COMPONENTS: [&str; 5] = ["host", "middleware", "station", "wired", "wireless"];

/// Purely integral accumulator for transaction statistics.
///
/// Every field is a counter or an integral histogram, so
/// `WorkloadCounters::merge` is exactly associative and commutative —
/// two fleets that partition the same sessions differently produce
/// bit-identical merged counters. Latencies arrive in nanoseconds and
/// energies are quantised to nanojoules on entry; the latency
/// distribution is an [`obs::Histogram`] (log-linear, 3% resolution —
/// the bucketing shared with the metrics registry) so percentiles
/// survive merging.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkloadCounters {
    /// Transactions attempted.
    pub attempted: u64,
    /// Transactions completed.
    pub succeeded: u64,
    /// Sum of successful-transaction latencies, nanoseconds.
    pub latency_ns: u128,
    /// Sum of air bytes (up + down) over successes.
    pub air_bytes: u128,
    /// Sum of energy over successes, nanojoules.
    pub energy_nj: u128,
    /// Link-layer retransmissions over successes.
    pub(crate) retransmissions: u64,
    /// Transaction-level retries: exactly `Σ(attempts − 1)` over every
    /// recorded transaction, successes and failures alike (a failed
    /// transaction's spent retries still cost battery and airtime). A
    /// transaction that settles through the degraded fallback counts
    /// once here — as a retry, never as an extra attempted or succeeded
    /// transaction — and the sum equals the `policy.retries` obs
    /// counter over a traced run (both pinned by tests).
    pub retries: u64,
    /// Per-component latency sums over successes, nanoseconds, keyed
    /// `station` / `wireless` / `middleware` / `wired` / `host`: empty
    /// until the first success, then exactly those five keys.
    pub component_ns: BTreeMap<&'static str, u128>,
    /// Log-linear latency histogram (see [`obs::hist`]).
    pub latency_hist: obs::Histogram,
    /// Failure reason → count.
    pub failures: BTreeMap<String, u64>,
}

impl WorkloadCounters {
    /// Folds one transaction into the counters.
    #[deny(clippy::float_arithmetic)]
    pub fn record(&mut self, report: &TransactionReport) {
        self.attempted += 1;
        self.retries += report.attempts.saturating_sub(1) as u64;
        if !report.success {
            let reason = report.failure.clone().unwrap_or_else(|| "unknown".into());
            *self.failures.entry(reason).or_default() += 1;
            return;
        }
        self.succeeded += 1;
        let ns = report.total().as_nanos();
        self.latency_ns += u128::from(ns);
        self.air_bytes += (report.air_bytes_up + report.air_bytes_down) as u128;
        self.energy_nj += to_ns(report.energy_j) as u128;
        self.retransmissions += report.retransmissions as u64;
        if self.component_ns.len() != COMPONENTS.len() {
            for key in COMPONENTS {
                self.component_ns.entry(key).or_default();
            }
        }
        debug_assert!(self.component_ns.keys().copied().eq(COMPONENTS));
        // In key order, as `values_mut` visits them.
        let b = &report.breakdown;
        let shares = [b.host, b.middleware, b.station, b.wired, b.wireless];
        for (sum, share) in self.component_ns.values_mut().zip(shares) {
            *sum += u128::from(share.as_nanos());
        }
        self.latency_hist.record(ns);
    }

    /// Adds `other` into `self`. Associative and commutative.
    pub(crate) fn merge(&mut self, other: &WorkloadCounters) {
        self.attempted += other.attempted;
        self.succeeded += other.succeeded;
        self.latency_ns += other.latency_ns;
        self.air_bytes += other.air_bytes;
        self.energy_nj += other.energy_nj;
        self.retransmissions += other.retransmissions;
        self.retries += other.retries;
        for (k, v) in &other.component_ns {
            *self.component_ns.entry(k).or_default() += v;
        }
        self.latency_hist.merge(&other.latency_hist);
        for (k, v) in &other.failures {
            *self.failures.entry(k.clone()).or_default() += v;
        }
    }

    /// Nearest-rank percentile of the latency distribution, seconds.
    /// Reports the lower bound of the bucket the rank falls in, so the
    /// value is within 3% below the true percentile.
    pub fn latency_percentile(&self, p: f64) -> f64 {
        self.latency_hist.percentile(p) as f64 / 1e9
    }

    /// Derives the human-facing summary. A pure function of the counter
    /// state, so summaries of identically merged counters are identical.
    pub(crate) fn summary(&self, label: impl Into<String>) -> WorkloadSummary {
        let n = self.succeeded as f64;
        let total_component_ns: u128 = self.component_ns.values().sum();
        let mut component_shares = BTreeMap::new();
        for (k, v) in &self.component_ns {
            let share = if total_component_ns == 0 {
                0.0
            } else {
                *v as f64 / total_component_ns as f64
            };
            component_shares.insert((*k).to_owned(), share);
        }
        WorkloadSummary {
            label: label.into(),
            attempted: self.attempted as usize,
            succeeded: self.succeeded as usize,
            latency_mean: if n == 0.0 {
                0.0
            } else {
                self.latency_ns as f64 / n / 1e9
            },
            latency_p90: self.latency_percentile(90.0),
            air_bytes_mean: if n == 0.0 { 0.0 } else { self.air_bytes as f64 / n },
            energy_mean_j: if n == 0.0 {
                0.0
            } else {
                self.energy_nj as f64 / n / 1e9
            },
            component_shares,
            counters: self.clone(),
        }
    }
}

/// Aggregated results of a workload run.
///
/// All statistics are derived from the embedded [`WorkloadCounters`],
/// so two summaries are equal exactly when their counters are.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSummary {
    /// Label (application name, configuration, …).
    pub label: String,
    /// Transactions attempted.
    pub attempted: usize,
    /// Transactions completed.
    pub succeeded: usize,
    /// Mean latency over successful transactions (seconds).
    pub latency_mean: f64,
    /// 90th percentile latency (seconds, 3% histogram resolution).
    pub latency_p90: f64,
    /// Mean bytes over the air per transaction (up + down).
    pub air_bytes_mean: f64,
    /// Mean energy per transaction (joules).
    pub energy_mean_j: f64,
    /// Time-weighted per-component shares of latency.
    pub component_shares: BTreeMap<String, f64>,
    /// The mergeable accumulator every statistic above derives from.
    pub counters: WorkloadCounters,
}

impl WorkloadSummary {
    /// Aggregates a batch of reports under `label`.
    pub fn aggregate(label: impl Into<String>, reports: &[TransactionReport]) -> Self {
        let mut counters = WorkloadCounters::default();
        for r in reports {
            counters.record(r);
        }
        counters.summary(label)
    }

    /// Combines two summaries into one covering both workloads.
    ///
    /// Merging happens on the integral counters and the statistics are
    /// re-derived, so the operation is exact: any grouping or ordering
    /// of merges over the same transactions yields bit-identical
    /// summaries. The label of `self` is kept.
    pub fn merge(&self, other: &WorkloadSummary) -> WorkloadSummary {
        let mut counters = self.counters.clone();
        counters.merge(&other.counters);
        counters.summary(self.label.clone())
    }

    /// Success ratio (0..1).
    pub fn success_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.succeeded as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A success whose latency is `host_ms + wireless_ms`.
    fn report(host_ms: u64, wireless_ms: u64) -> TransactionReport {
        TransactionReport {
            breakdown: PhaseBreakdown {
                host: SimDuration::from_millis(host_ms),
                wireless: SimDuration::from_millis(wireless_ms),
                ..Default::default()
            },
            air_bytes_up: 100,
            air_bytes_down: 900,
            retransmissions: 0,
            energy_j: 0.01,
            success: true,
            failure: None,
            outcome: Some(TransactionOutcome {
                page_text: "ok".into(),
                title: "Page".into(),
                status: Status::Ok,
            }),
            attempts: 1,
            wal: SimDuration::ZERO,
        }
    }

    #[test]
    fn breakdown_shares_sum_to_one() {
        let b = PhaseBreakdown {
            station: SimDuration::from_millis(100),
            wireless: SimDuration::from_millis(200),
            middleware: SimDuration::from_millis(300),
            wired: SimDuration::from_millis(250),
            host: SimDuration::from_millis(150),
        };
        assert_eq!(b.total(), SimDuration::from_secs(1));
    }

    #[test]
    fn aggregate_counts_and_averages() {
        let reports = vec![
            report(600, 400),
            report(1_800, 1_200),
            TransactionReport::new(PhaseBreakdown::default(), Some("battery died".into()), None),
        ];
        let summary = WorkloadSummary::aggregate("test", &reports);
        assert_eq!(summary.attempted, 3);
        assert_eq!(summary.succeeded, 2);
        assert!((summary.success_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert!((summary.latency_mean - 2.0).abs() < 1e-12);
        assert!((summary.air_bytes_mean - 1000.0).abs() < 1e-12);
        assert!((summary.component_shares["host"] - 0.6).abs() < 1e-12);
        assert!((summary.component_shares["wireless"] - 0.4).abs() < 1e-12);
        assert_eq!(summary.counters.failures["battery died"], 1);
    }

    #[test]
    fn all_failed_workload_is_zeroes_not_nan() {
        let summary = WorkloadSummary::aggregate("dead", &[TransactionReport::new(PhaseBreakdown::default(), Some("no signal".into()), None)]);
        assert_eq!(summary.succeeded, 0);
        assert_eq!(summary.latency_mean, 0.0);
        assert_eq!(summary.success_rate(), 0.0);
    }

    #[test]
    fn merge_is_grouping_invariant() {
        let reports: Vec<TransactionReport> =
            (0..30).map(|i| report(20 + 70 * i, 10 + i)).collect();
        let whole = WorkloadSummary::aggregate("w", &reports);
        let halves = WorkloadSummary::aggregate("w", &reports[..15])
            .merge(&WorkloadSummary::aggregate("w", &reports[15..]));
        let thirds = WorkloadSummary::aggregate("w", &reports[..10])
            .merge(&WorkloadSummary::aggregate("w", &reports[10..20]))
            .merge(&WorkloadSummary::aggregate("w", &reports[20..]));
        assert_eq!(whole, halves);
        assert_eq!(whole, thirds);
    }

    #[test]
    fn percentiles_survive_merging_within_resolution() {
        let reports: Vec<TransactionReport> = (1..=100).map(|i| report(0, 10 * i)).collect();
        let summary = WorkloadSummary::aggregate("p", &reports);
        // True p90 is 0.90s; histogram reports the bucket lower bound.
        assert!(summary.latency_p90 <= 0.90 + 1e-9, "{}", summary.latency_p90);
        assert!(summary.latency_p90 >= 0.90 * (1.0 - 1.0 / 32.0), "{}", summary.latency_p90);
    }

    #[test]
    fn latency_histogram_uses_the_shared_obs_bucketing() {
        // The extraction into obs::hist must not have changed resolution:
        // one recorded latency lands in exactly the bucket obs computes.
        let mut counters = WorkloadCounters::default();
        counters.record(&report(1_000, 500));
        let ns = 1_500_000_000;
        assert_eq!(
            counters.latency_hist.raw_buckets().keys().copied().collect::<Vec<_>>(),
            vec![obs::hist::bucket(ns)]
        );
        assert_eq!(counters.latency_hist.count(), 1);
    }

    #[test]
    fn retry_counter_algebra_is_pinned() {
        // A retried success (attempts = 2, e.g. one degraded-fallback
        // swap) folds into ONE attempted transaction, one success and
        // exactly one retry — never a double count.
        let mut swapped = report(500, 500);
        swapped.attempts = 2;
        // A transaction that exhausted three attempts and still failed:
        // one attempted, one failure, two retries.
        let mut exhausted = TransactionReport::new(PhaseBreakdown::default(), Some("wireless outage (handoff in progress)".into()), None);
        exhausted.attempts = 3;
        let mut counters = WorkloadCounters::default();
        counters.record(&swapped);
        counters.record(&exhausted);
        counters.record(&report(500, 500)); // plain first-try success
        assert_eq!(counters.attempted, 3);
        assert_eq!(counters.succeeded, 2);
        assert_eq!(counters.retries, (2 - 1) + (3 - 1));
        // Attempted always partitions into successes and failures.
        let failures: u64 = counters.failures.values().sum();
        assert_eq!(counters.attempted, counters.succeeded + failures);
    }
}
