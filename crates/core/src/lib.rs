#![warn(missing_docs)]
//! # mcommerce-core — the six-component mobile commerce system model
//!
//! This crate is the paper's primary contribution made executable: the
//! decomposition of a mobile commerce system into six components —
//! applications, mobile stations, mobile middleware, wireless networks,
//! wired networks, host computers (Figure 2) — assembled into a running
//! [`McSystem`], next to the four-component electronic commerce baseline
//! [`EcSystem`] (Figure 1) it extends.
//!
//! * [`netpath`] — wireless and wired hop models with link-layer ARQ,
//!   session setup, and byte/energy accounting,
//! * `system` — [`McSystem`] / [`EcSystem`] and the transaction engine
//!   producing per-component latency breakdowns,
//! * [`report`] — transaction reports and workload aggregation,
//! * [`apps`] — the eight application categories of Table 1, each a real
//!   host-side application program plus a client workflow,
//! * [`workload`] — session generators that drive applications through a
//!   system,
//! * [`requirements`] — executable checks of §1.1's five system
//!   requirements,
//! * [`fleet`] — the deterministic sharded scenario runner scaling the
//!   model to whole user populations ([`Scenario`] + [`Topology`] →
//!   [`FleetRunner`]),
//! * `topology` — the infrastructure shape a fleet runs on: cells ×
//!   gateways × hosts and user placement,
//! * `shared` — the shared-world contention engine behind
//!   [`Topology::shared`] topologies: FCFS airtime, gateway and host
//!   queues over island-sharded deterministic execution.
//!
//! Telemetry (per-layer counters, latency histograms, sim-time spans and
//! flight-recorder dumps) is published through the dependency-free
//! [`obs`] crate; its log-linear histogram (`obs::hist`) is the
//! bucketing every latency percentile in [`report`] uses.

pub mod apps;
pub mod fleet;
pub(crate) mod merge;
pub mod netpath;
pub mod report;
pub mod requirements;
pub(crate) mod shared;
pub(crate) mod system;
pub(crate) mod topology;
pub mod workload;

pub use apps::Category;
pub use faults::{FaultKind, FaultPlan, RetryPolicy};
pub use fleet::{
    FleetReport, FleetRun, FleetRunner, FleetSummary, FleetTrace, RecorderKind, Scenario, UserTrace,
};
pub use merge::TraceMerger;
pub use netpath::{WiredPath, WirelessConfig};
pub use report::{
    PhaseBreakdown, TransactionOutcome, TransactionReport, WorkloadCounters, WorkloadSummary,
};
pub use hostsite::db::DurabilityPolicy;
pub use shared::ContentionStats;
pub use system::{
    db_recovery_outage_ns, CachePolicy, CommerceSystem, EcSystem, McSystem, MiddlewareKind,
    SystemSpec, UserSide,
};
pub use topology::{Placement, Topology};
