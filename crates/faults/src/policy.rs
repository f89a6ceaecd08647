//! Per-transaction recovery: retry budgets, backoff, and failure triage.

use rand::rngs::StdRng;
use rand::RngExt;

use simnet::SimDuration;

/// What a resilience layer may do about a failed transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureClass {
    /// The fault passes on its own (outage windows, channel bursts,
    /// recovering hosts, aborted transports): retry after backoff.
    Transient,
    /// The primary middleware path is broken but an alternate exists
    /// (gateway outage, wedged transcoder): fall back to the textual
    /// middleware, then retry.
    Degraded,
    /// Retrying cannot help or must not happen: dead battery, no
    /// coverage at all, malformed content — and application-level
    /// errors, where a retried purchase may already have committed.
    Permanent,
}

/// Triage of a [`TransactionReport`](../../mcommerce_core/report/struct.TransactionReport.html)
/// failure reason into a [`FailureClass`].
///
/// Matches on the stable substrings the execution layers put in their
/// reasons, so the transport abort ("retransmission limit reached"), the
/// ARQ give-up and every injected fault route to the right recovery
/// action without a shared error enum across six crates.
pub fn classify(reason: &str) -> FailureClass {
    if reason.contains("gateway unavailable") || reason.contains("transcode degraded") {
        FailureClass::Degraded
    } else if reason.contains("outage")
        || reason.contains("ARQ exhausted")
        || reason.contains("recovering")
        || reason.contains("retransmission limit")
        || reason.contains("transport aborted")
    {
        FailureClass::Transient
    } else {
        FailureClass::Permanent
    }
}

/// Per-transaction retry budget with exponential, jittered backoff.
///
/// All time is sim time: backing off advances the simulated user's
/// clock (and drains idle battery) rather than any wall clock. Jitter is
/// drawn from a seed-derived per-user stream, so fleet results stay
/// bit-identical at any thread count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts allowed, including the first (`1` = never retry).
    pub max_attempts: u32,
    /// Sim-time budget across all retries, measured from the end of the
    /// first failed attempt.
    pub deadline: SimDuration,
    /// Backoff before the first retry.
    pub(crate) base_backoff: SimDuration,
    /// Backoff growth per retry (exponential base).
    pub(crate) multiplier: f64,
    /// Jitter fraction in `[0, 1]`: each backoff is scaled by a factor
    /// uniform in `[1 - jitter/2, 1 + jitter/2]`.
    pub(crate) jitter: f64,
}

impl RetryPolicy {
    /// The no-retry policy: every failure is final.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            deadline: SimDuration::ZERO,
            base_backoff: SimDuration::ZERO,
            multiplier: 1.0,
            jitter: 0.0,
        }
    }

    /// A sensible default for interactive m-commerce transactions: up to
    /// five attempts within a 30-second budget, backoff 250 ms doubling,
    /// ±25% jitter.
    pub fn standard() -> Self {
        RetryPolicy {
            max_attempts: 5,
            deadline: SimDuration::from_secs(30),
            base_backoff: SimDuration::from_millis(250),
            multiplier: 2.0,
            jitter: 0.5,
        }
    }

    /// True when this policy never retries.
    pub fn is_none(&self) -> bool {
        self.max_attempts <= 1
    }

    /// The backoff to sleep before retry number `retry` (1-based), with
    /// jitter drawn from `rng`.
    ///
    /// Draws from `rng` only when `jitter > 0`, so a zero-jitter policy
    /// consumes no randomness.
    pub fn backoff(&self, retry: u32, rng: &mut StdRng) -> SimDuration {
        let exp = self.multiplier.powi(retry.saturating_sub(1) as i32);
        let base = self.base_backoff.as_secs_f64() * exp;
        let scale = if self.jitter > 0.0 {
            1.0 + self.jitter * (rng.random::<f64>() - 0.5)
        } else {
            1.0
        };
        SimDuration::from_secs_f64(base * scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::rng::rng_for;

    #[test]
    fn classification_matches_the_failure_taxonomy() {
        assert_eq!(
            classify("wireless outage (handoff in progress)"),
            FailureClass::Transient
        );
        assert_eq!(classify("uplink failed (ARQ exhausted)"), FailureClass::Transient);
        assert_eq!(
            classify("host database recovering after crash"),
            FailureClass::Transient
        );
        // The transport abort from conn.rs surfaces as retryable.
        assert_eq!(
            classify("transport aborted: retransmission limit reached: peer unreachable"),
            FailureClass::Transient
        );
        assert_eq!(
            classify("middleware gateway unavailable (outage)"),
            FailureClass::Degraded
        );
        assert_eq!(
            classify("transcode degraded (corrupt binary deck)"),
            FailureClass::Degraded
        );
        assert_eq!(classify("no wireless coverage"), FailureClass::Permanent);
        assert_eq!(
            classify("battery exhausted mid-transaction"),
            FailureClass::Permanent
        );
        assert_eq!(classify("host returned 404 Not Found"), FailureClass::Permanent);
    }

    #[test]
    fn backoff_grows_exponentially_and_is_deterministic() {
        let policy = RetryPolicy::standard();
        let mut a = rng_for(7, "test.backoff");
        let mut b = rng_for(7, "test.backoff");
        let seq_a: Vec<f64> = (1..=4).map(|i| policy.backoff(i, &mut a).as_secs_f64()).collect();
        let seq_b: Vec<f64> = (1..=4).map(|i| policy.backoff(i, &mut b).as_secs_f64()).collect();
        assert_eq!(seq_a, seq_b);
        // Jitter is ±25%, growth is 2×: each step at least ~1.3× the last.
        for w in seq_a.windows(2) {
            assert!(w[1] > w[0] * 1.2, "backoff must grow: {seq_a:?}");
        }
    }

    #[test]
    fn zero_jitter_draws_no_randomness() {
        let mut policy = RetryPolicy::standard();
        policy.jitter = 0.0;
        let mut rng = rng_for(7, "test.nojitter");
        let before: u64 = {
            let mut probe = rng_for(7, "test.nojitter");
            probe.random()
        };
        let b1 = policy.backoff(1, &mut rng);
        let b2 = policy.backoff(2, &mut rng);
        assert_eq!(b1.as_secs_f64(), 0.25);
        assert_eq!(b2.as_secs_f64(), 0.5);
        // The stream is untouched: the next draw matches a fresh clone's.
        let after: u64 = rng.random();
        assert_eq!(before, after);
    }

    #[test]
    fn none_policy_never_retries() {
        assert!(RetryPolicy::none().is_none());
        assert!(!RetryPolicy::standard().is_none());
    }
}
