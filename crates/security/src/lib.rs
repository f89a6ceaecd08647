#![warn(missing_docs)]
//! # security — wireless security and payment (§8)
//!
//! The paper's summary singles out "mobile security and payment" as the
//! other critical piece of a mobile commerce system: "Security issues
//! (including payment) include data reliability, integrity,
//! confidentiality, and authentication." This crate implements those four
//! properties as testable mechanisms:
//!
//! * [`hash`] / `mac` — integrity: a message-authentication code that
//!   rejects any tampering,
//! * [`cipher`] — confidentiality: stream and block ciphers,
//! * [`keyexchange`] — Diffie–Hellman key agreement,
//! * [`wtls`] — a WTLS-style session: handshake, key derivation, sealed
//!   records with sequence numbers (replay protection),
//! * `payment` — the payment protocol: authorization, capture,
//!   MAC-signed receipts, nonce-windowed replay rejection and an audit
//!   trail.
//!
//! **These primitives are simulation-grade, not cryptographically
//! secure.** They exercise the same code paths, handshakes and byte
//! overheads a real WTLS/PKI stack would (which is what the experiments
//! measure), while staying dependency-free and deterministic. The paper
//! itself notes "a unified approach has not yet emerged" — our interface
//! boundaries are where real primitives would slot in.

pub mod cipher;
pub mod hash;
pub mod keyexchange;
pub(crate) mod mac;
pub(crate) mod payment;
pub mod wtls;

pub use mac::Mac;
pub use payment::{PaymentGateway, PaymentRequest};
pub use wtls::WtlsSession;
