//! The i-mode service.
//!
//! §5.1: "i-mode is the full-color, always-on, and packet-switched
//! Internet service for cellular phones offered by NTT DoCoMo." Table 3
//! contrasts it with WAP: a complete service rather than a protocol,
//! cHTML rather than WML as host language, and "TCP/IP modifications"
//! rather than a translating gateway as its major technology.
//!
//! Architecturally that means: no per-page translation step (content is
//! served in cHTML — here the service applies the cheap HTML→cHTML
//! *filter* when a site only offers HTML), textual markup over the air
//! (heavier bytes than WBXML), and an always-on packet session (no
//! session-setup round trip, ever). Those are exactly the knobs the
//! Table 3 experiment turns.

use std::sync::Arc;

use bytes::Bytes;
use hostsite::{ContentFormat, HostComputer};
use markup::transcode::html_to_chtml;
use markup::{chtml, html};
use simnet::stats::Counter;
use simnet::SimDuration;

use crate::memo::{self, SharedTranscodeMemo, TranscodeMode, TranscodedDeck};
use crate::{AirFormat, Exchange, Middleware, MobileRequest};

/// Packet-header framing per i-mode response on the air.
pub(crate) const IMODE_RESPONSE_OVERHEAD: usize = 16;

/// The i-mode service middleware.
#[derive(Debug, Default)]
pub struct IModeService {
    /// Shard-local memo of pure filter results (fleet engine only).
    memo: Option<SharedTranscodeMemo>,
    /// Exchanges performed.
    pub(crate) requests: Counter,
    /// Pages that arrived as HTML and were filtered to cHTML.
    pub filtered_pages: Counter,
}

impl IModeService {
    /// Creates the service.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cHTML filter is much cheaper than WAP's full translation: no
    /// re-authoring, no binary encoding.
    fn filter_cost(html_bytes: usize) -> SimDuration {
        SimDuration::from_micros(50)
            + SimDuration::from_micros(30) * (html_bytes as u32).div_ceil(1024)
    }

    /// The pure HTML → cHTML filter: everything derived from the body
    /// alone. Returns the air payload, flagged when the page needed
    /// filtering (already-compact pages pass through unchanged), and the
    /// parsed payload when it is the body's own tree, so the station
    /// browser can skip its parse.
    fn filter(html: &str) -> TranscodedDeck {
        let (content, flagged, deck) = match html::parse_html(html) {
            Ok(doc) => {
                if chtml::validate(&doc).is_ok() {
                    // A parsed tree re-serialises to markup that parses
                    // back equal, so the tree can ride along.
                    let markup = doc.to_markup();
                    (Bytes::from(markup), false, Some(Arc::new(doc)))
                } else {
                    (Bytes::from(html_to_chtml(&doc).to_markup()), true, None)
                }
            }
            Err(_) => (
                Bytes::from(
                    html::page("Error", vec![html::p("content unavailable").into()]).to_markup(),
                ),
                false,
                None,
            ),
        };
        TranscodedDeck {
            content,
            flagged,
            deck,
        }
    }
}

impl Middleware for IModeService {
    fn name(&self) -> &str {
        "i-mode"
    }

    fn attach_transcode_memo(&mut self, memo: SharedTranscodeMemo) {
        self.memo = Some(memo);
    }

    fn exchange(&mut self, host: &mut HostComputer, req: &MobileRequest) -> Exchange {
        self.requests.incr();

        // The phone talks (nearly) plain HTTP over the packet network.
        let http_req = req.to_http(ContentFormat::Chtml);
        let uplink_bytes = http_req.wire_size();
        let wired_up = uplink_bytes; // same representation end to end
        let (resp, host_cpu) = host.process(http_req);
        let wired_down = resp.wire_size();

        // Serve cHTML: pass through if already compact, filter if not.
        // The filter is pure in the body, so a shard memo can replay it.
        let (content, middleware_cpu, deck) = if resp.format == ContentFormat::Chtml {
            // Pass-through shares the response's refcounted buffer.
            (resp.body.as_bytes_buf(), SimDuration::from_micros(20), None)
        } else {
            let TranscodedDeck {
                content,
                flagged,
                deck,
            } = memo::transcode(
                self.memo.as_ref(),
                TranscodeMode::Chtml,
                &resp.body,
                Self::filter,
            );
            if flagged {
                self.filtered_pages.incr();
            }
            (content, Self::filter_cost(resp.body.len()), deck)
        };
        let downlink_bytes = IMODE_RESPONSE_OVERHEAD + content.len();
        obs::metrics::incr("middleware.exchanges");
        obs::metrics::add("middleware.transcode_in_bytes", resp.body.len() as u64);
        obs::metrics::add("middleware.transcode_out_bytes", content.len() as u64);

        Exchange {
            status: resp.status,
            content,
            format: AirFormat::Chtml,
            uplink_bytes,
            downlink_bytes,
            wired_bytes: (wired_up, wired_down),
            middleware_cpu,
            host_cpu,
            // Always-on packet service: no session setup, ever (§5.1).
            extra_round_trips: 0,
            no_store: resp.no_store,
            set_cookies: resp.set_cookies.into_iter().collect(),
            deck,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wap::WapGateway;
    use hostsite::db::Database;
    use hostsite::Status;

    fn host_with_pages() -> HostComputer {
        let mut host = HostComputer::new(Database::new(), 5);
        let fancy = html::page(
            "Menu",
            vec![
                html::h1("Today's menu").into(),
                html::table([("espresso", "¥300"), ("latte", "¥450")]).into(),
                html::a("/order?item=espresso", "Order espresso").into(),
            ],
        );
        host.web.static_page("/menu", fancy.to_markup());
        let compact = html::page("Plain", vec![html::p("already compact").into()]);
        host.web.static_page("/plain", compact.to_markup());
        host
    }

    #[test]
    fn serves_valid_chtml_with_no_session_setup() {
        let mut host = host_with_pages();
        let mut imode = IModeService::new();
        let ex = imode.exchange(&mut host, &MobileRequest::get("/menu"));
        assert_eq!(ex.status, Status::Ok);
        assert_eq!(ex.format, AirFormat::Chtml);
        assert_eq!(ex.extra_round_trips, 0);
        let doc = markup::parse::parse(std::str::from_utf8(&ex.content).unwrap()).unwrap();
        chtml::validate(&doc).unwrap();
        assert!(doc.text_content().contains("espresso"));
        assert!(doc.find("table").is_none()); // tables filtered away
        assert_eq!(imode.filtered_pages.get(), 1);
    }

    #[test]
    fn already_compact_pages_pass_through_unfiltered() {
        let mut host = host_with_pages();
        let mut imode = IModeService::new();
        let ex = imode.exchange(&mut host, &MobileRequest::get("/plain"));
        assert_eq!(imode.filtered_pages.get(), 0);
        let doc = markup::parse::parse(std::str::from_utf8(&ex.content).unwrap()).unwrap();
        assert!(doc.text_content().contains("already compact"));
    }

    #[test]
    fn table3_tradeoff_wap_cpu_vs_imode_bytes() {
        // The structural comparison behind Table 3: WAP pays translation
        // CPU and wins on air bytes; i-mode pays nothing in CPU and ships
        // heavier text.
        let mut host = host_with_pages();
        let mut wap = WapGateway::default();
        let mut imode = IModeService::new();
        let via_wap = wap.exchange(&mut host, &MobileRequest::get("/menu"));
        let via_imode = imode.exchange(&mut host, &MobileRequest::get("/menu"));
        assert!(via_wap.middleware_cpu > via_imode.middleware_cpu * 2);
        assert!(via_wap.downlink_bytes < via_imode.downlink_bytes);
        // Both preserve the content.
        let wml = markup::wbxml::decode(&via_wap.content).unwrap();
        let chtml_doc =
            markup::parse::parse(std::str::from_utf8(&via_imode.content).unwrap()).unwrap();
        assert!(wml.text_content().contains("espresso"));
        assert!(chtml_doc.text_content().contains("espresso"));
    }

    #[test]
    fn errors_from_the_host_propagate() {
        let mut host = host_with_pages();
        let mut imode = IModeService::new();
        let ex = imode.exchange(&mut host, &MobileRequest::get("/missing"));
        assert_eq!(ex.status, Status::NotFound);
    }
}
