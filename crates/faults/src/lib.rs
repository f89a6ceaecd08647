#![warn(missing_docs)]
//! # faults — deterministic fault injection and the resilience policy
//!
//! The paper's reliability story (§5.2: plain TCP "performs poorly" on
//! wireless links; the mobile variants recover) only counts if failures
//! actually happen. This crate makes them happen *on purpose*, and makes
//! the rest of the system survive them:
//!
//! * [`FaultPlan`] — a seeded, sim-time schedule of typed fault events
//!   ([`FaultKind`]) evaluated against each simulated user's clock:
//!   AP/cell outages, bit-error bursts, WAP/i-mode gateway outages,
//!   degraded transcoding, host DB crashes (journal replay) and battery
//!   drain spikes. Interval faults are pure clock comparisons and
//!   one-shot faults are a cursor walk ([`FaultState`]), so an empty plan
//!   draws no randomness and changes no bytes of any fleet summary.
//! * [`RetryPolicy`] — per-transaction recovery: a deadline budget, a
//!   retry-attempt cap and exponential backoff with seed-derived jitter,
//!   so faulted fleet runs stay bit-identical at any thread count.
//! * [`classify`] — maps a failure reason to a [`FailureClass`]:
//!   `Transient` failures are retried after backoff, `Degraded` failures
//!   first fall back to the alternate middleware (text-only rendering),
//!   and `Permanent` failures (dead battery, application errors) are
//!   never retried — retrying a possibly-committed purchase would
//!   duplicate it.
//! * [`driver`] — the packet-granularity face of the same plans: arms a
//!   `simnet` timer wheel so loss-model windows are swapped onto live
//!   links ([Gilbert–Elliott bursts][simnet::link::LossModel::Gilbert],
//!   blackout outages) at their scheduled times.

pub mod driver;
pub(crate) mod plan;
pub(crate) mod policy;

pub use plan::{FaultKind, FaultPlan, FaultState};
pub use policy::{classify, FailureClass, RetryPolicy};
