#![warn(missing_docs)]
//! # hostsite — the host computer (component vi)
//!
//! §7 of the paper: "A host computer produces and stores all the
//! information for mobile commerce applications … It contains three major
//! components: a Web server, a database server, and application programs
//! and support software."
//!
//! * [`db`] — the database server: an embedded storage engine with typed
//!   tables, primary and secondary indexes, ACID transactions (undo-log
//!   rollback) and a write-ahead journal with crash recovery.
//! * [`http`] — HTTP-like request/response types with content negotiation
//!   (the Accept side of serving HTML to desktops, WML/cHTML to phones).
//! * `server` — the web server: routing, CGI-style `server::AppProgram`s,
//!   DBM-style authentication realms and cookie-based sessions (from the
//!   Apache feature set §7 name-checks).
//! * `host` — the assembled host computer with a CPU cost model so the
//!   end-to-end system can charge realistic processing latency.
//! * [`cache`] — the deterministic sim-time page cache (TTL + LRU byte
//!   budget) the web server fronts its application programs with.

pub mod cache;
pub mod db;
pub(crate) mod host;
pub mod http;
pub(crate) mod server;

pub use cache::PageCache;
pub use host::HostComputer;
pub use http::{Body, ContentFormat, HttpRequest, HttpResponse, Status};
pub use server::{ServerCtx, WebServer};
