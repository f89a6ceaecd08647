#![warn(missing_docs)]
//! # station — mobile stations (component ii)
//!
//! §4 and §8 of the paper: mobile stations "are limited by their small
//! screens, limited memory, limited processing power, and low battery
//! power". This crate turns Table 2's five commercial devices and the
//! three operating systems of §4.1 into profiles whose constraints are
//! *load-bearing*: parsing and rendering cost CPU time inversely
//! proportional to clock speed, decks that exceed memory fail to load,
//! every radio byte drains the battery, and the on-device store enforces
//! the small-footprint discipline §7 describes for embedded databases.
//!
//! * `os` — Palm OS, Pocket PC, Symbian OS models,
//! * `device` — Table 2 device profiles (plus custom builds),
//! * `battery` — joule-accounting battery,
//! * [`browser`] — the microbrowser: parses WML/cHTML/HTML, enforces
//!   device limits, renders into screen-sized lines and links,
//! * `storage` — the embedded key-value store with an LRU byte budget,
//!   and the flat-file alternative it outperforms.

pub(crate) mod battery;
pub mod browser;
pub(crate) mod device;
pub(crate) mod os;
pub(crate) mod storage;

pub use battery::Battery;
pub use browser::{Microbrowser, RenderMemo, RenderedView};
pub use device::DeviceProfile;
pub use storage::{EmbeddedStore, FlatFileStore};
