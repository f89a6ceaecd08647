#![warn(missing_docs)]
//! # markup — HTML, WML and cHTML engines
//!
//! The paper's middleware comparison (Table 3) hinges on *host languages*:
//! WAP serves **WML** (Wireless Markup Language) produced by gateway
//! translation from HTML, while i-mode serves **cHTML** (Compact HTML)
//! directly. This crate supplies the machinery both middlewares need:
//!
//! * [`dom`] — a single element/text tree shared by all three languages,
//! * [`parse`] — a strict, well-formed-subset parser with HTML void-element
//!   and entity handling,
//! * [`html`], [`wml`], [`chtml`] — per-language vocabularies, validation
//!   and convenience builders,
//! * [`transcode`] — the WAP gateway's HTML→WML translation ("responses
//!   are sent from the Web server to the WAP Gateway in HTML and are then
//!   translated in WML", §5.1) with deck pagination, plus HTML→cHTML
//!   simplification for i-mode,
//! * [`wbxml`] — a WBXML-style tokenised binary encoding of WML, the
//!   over-the-air compression that makes gateway translation pay off on
//!   narrow wireless links,
//! * [`text`] — [`Text`], what a page or a request is written from:
//!   strings, integers and tuples of them, appended straight into a
//!   buffer.

pub mod chtml;
pub mod dom;
pub mod html;
pub mod parse;
pub mod text;
pub mod transcode;
pub mod wbxml;
pub mod wml;

pub use dom::{Element, Node};
pub use parse::ParseMarkupError;
pub use text::Text;
