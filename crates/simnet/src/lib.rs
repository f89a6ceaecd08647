#![warn(missing_docs)]
//! # simnet — deterministic discrete-event network simulation substrate
//!
//! `simnet` is the foundation of the `mcommerce` workspace: a small,
//! deterministic discrete-event simulator with byte-accurate link models,
//! seeded randomness, and measurement primitives. Every other subsystem in
//! the reproduction of *"A System Model for Mobile Commerce"* (Lee, Hu &
//! Yeh, ICDCSW'03) — the wireless channel models, the IP/Mobile-IP stack,
//! the TCP variants, and the end-to-end six-component system — runs on top
//! of this crate.
//!
//! Design goals, in order:
//!
//! 1. **Determinism.** A simulation seeded with the same value produces the
//!    same event sequence bit-for-bit. All randomness flows through
//!    [`rng::rng_for`], which derives independent streams from a root seed.
//! 2. **Byte accuracy.** Links serialise messages at a configured bandwidth
//!    and charge propagation delay, queueing delay and drop-tail losses the
//!    way a real FIFO bottleneck does.
//! 3. **Measurability.** [`stats`] provides counters, histograms and
//!    time-weighted gauges used by every experiment in `EXPERIMENTS.md`.
//!
//! ## Quickstart
//!
//! ```
//! use simnet::{Simulator, SimDuration};
//!
//! let mut sim = Simulator::new();
//! sim.schedule_in(SimDuration::from_millis(5), |sim| {
//!     assert_eq!(sim.now().as_millis(), 5);
//! });
//! sim.run();
//! assert_eq!(sim.events_processed(), 1);
//! ```

pub(crate) mod baseline;
pub mod cache;
pub mod contend;
mod event;
pub(crate) mod hash;
pub mod link;
pub(crate) mod memo;
pub mod rng;
pub(crate) mod sim;
pub mod stats;
pub mod time;
pub mod trace;
mod wheel;

pub use baseline::BaselineSimulator;
pub use cache::TtlLru;
pub use event::EventKey;
pub(crate) use obs::metrics;
pub use link::{Link, LinkParams, LossModel};
pub use hash::{FixedHasher, FixedState};
pub use memo::BodyMemo;
pub use sim::Simulator;
pub use time::{SimDuration, SimTime};
