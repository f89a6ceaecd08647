#![warn(missing_docs)]
//! # wireless — WLAN and cellular network models
//!
//! Component (iv) of the paper's six-component mobile commerce system:
//! *wireless networks*. This crate models, as executable channel behaviour,
//! the two network families the paper surveys:
//!
//! * **Wireless LANs** (§6.1, Table 4): Bluetooth, 802.11b (Wi-Fi),
//!   802.11a, HyperLAN2 and 802.11g — each with its maximum data rate,
//!   typical range, modulation scheme and frequency band, turned into a
//!   rate-versus-distance curve and a distance-dependent bit-error model.
//! * **Cellular WWANs** (§6.2, Table 5): 1G (AMPS, TACS), 2G (GSM, TDMA,
//!   CDMA), 2.5G (GPRS, EDGE) and 3G (CDMA2000, WCDMA) — each with its
//!   generation, radio type, switching technique and data rate, including
//!   the circuit-switched call-setup penalty that separates 2G from the
//!   always-on packet generations.
//!
//! On top of the standards sit the dynamic pieces every mobile commerce
//! transaction rides on: [`radio::RadioLink`] (a [`simnet::Link`] whose
//! parameters follow the station's distance), [`mobility::Waypoint`]
//! mobility, access-point association and [`handoff::HandoffController`]
//! blackouts that the TCP variants in `transport` must survive.

pub mod adhoc;
pub(crate) mod cellular;
pub mod energy;
pub(crate) mod handoff;
pub mod mobility;
pub(crate) mod radio;
pub(crate) mod wlan;

pub use cellular::CellularStandard;
pub use handoff::HandoffController;
pub use radio::RadioLink;
pub use wlan::WlanStandard;
