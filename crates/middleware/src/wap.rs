//! The WAP gateway.
//!
//! §5.1: "The most important technology applied by WAP is probably the
//! WAP Gateway … requests from mobile stations are sent as a URL through
//! the network to the WAP Gateway; responses are sent from the Web server
//! to the WAP Gateway in HTML and are then translated in WML and sent to
//! the mobile stations."
//!
//! The gateway therefore does four jobs per exchange, each visible in the
//! returned [`Exchange`]: decode the station's compact (WSP-style) binary
//! request; issue a plain HTTP request to the host on the wired side;
//! translate the HTML response into a WML deck sized to the device; and
//! WBXML-encode that deck for the air link. Translation costs gateway CPU
//! and a session-setup round trip on first contact — WAP's side of the
//! Table 3 trade-off.

use std::sync::Arc;

use bytes::Bytes;
use hostsite::{ContentFormat, HostComputer};
use markup::transcode::{html_to_wml, WmlOptions};
use markup::{html, wbxml};
use simnet::stats::Counter;
use simnet::SimDuration;

use crate::memo::{self, SharedTranscodeMemo, TranscodeMode, TranscodedDeck};
use crate::{AirFormat, Exchange, Middleware, MobileRequest};

/// WSP compact request framing overhead in bytes (transaction id, PDU
/// type, capability flags).
pub(crate) const WSP_REQUEST_OVERHEAD: usize = 12;

/// WSP response framing overhead in bytes.
pub(crate) const WSP_RESPONSE_OVERHEAD: usize = 8;

/// The WAP gateway middleware.
#[derive(Debug)]
pub struct WapGateway {
    wml_options: WmlOptions,
    binary_encoding: bool,
    session_open: bool,
    /// Shard-local memo of pure translation results (fleet engine only).
    memo: Option<SharedTranscodeMemo>,
    /// Exchanges performed.
    pub(crate) requests: Counter,
    /// HTML documents that failed to parse (served as an error card).
    pub(crate) translation_failures: Counter,
}

impl Default for WapGateway {
    fn default() -> Self {
        Self::new(WmlOptions::default())
    }
}

impl WapGateway {
    /// Creates a gateway that paginates decks per `wml_options`.
    pub fn new(wml_options: WmlOptions) -> Self {
        WapGateway {
            wml_options,
            binary_encoding: true,
            session_open: false,
            memo: None,
            requests: Counter::new(),
            translation_failures: Counter::new(),
        }
    }

    /// A gateway that ships *textual* WML instead of WBXML — an ablation
    /// configuration isolating what the binary encoding buys on the air.
    pub fn without_binary_encoding() -> Self {
        WapGateway {
            binary_encoding: false,
            ..Self::default()
        }
    }

    /// Gateway translation CPU: HTML parse + transcode + WBXML encode,
    /// priced per input kilobyte on gateway-class hardware.
    fn translation_cost(html_bytes: usize) -> SimDuration {
        SimDuration::from_micros(300)
            + SimDuration::from_micros(150) * (html_bytes as u32).div_ceil(1024)
    }

    /// The pure HTML → WML → (WBXML | text) translation: everything the
    /// gateway derives from the response body alone. Returns the air
    /// payload, flagged when the source failed to parse (error card),
    /// and — on the binary path, where WBXML decoding is the exact
    /// inverse of encoding — the deck tree itself, so the station browser
    /// can skip the decode.
    fn translate(&self, html: &str) -> TranscodedDeck {
        let (deck, flagged) = match html::parse_html(html) {
            Ok(doc) => (html_to_wml(&doc, &self.wml_options), false),
            Err(_) => {
                let fallback = html::page("Error", vec![html::p("content unavailable").into()]);
                (html_to_wml(&fallback, &self.wml_options), true)
            }
        };
        let (content, deck) = if self.binary_encoding {
            (Bytes::from(wbxml::encode(&deck)), Some(Arc::new(deck)))
        } else {
            (Bytes::from(deck.to_markup()), None)
        };
        TranscodedDeck {
            content,
            flagged,
            deck,
        }
    }
}

impl Middleware for WapGateway {
    fn name(&self) -> &str {
        "WAP"
    }

    fn attach_transcode_memo(&mut self, memo: SharedTranscodeMemo) {
        self.memo = Some(memo);
    }

    fn exchange(&mut self, host: &mut HostComputer, req: &MobileRequest) -> Exchange {
        self.requests.incr();

        // WSP session establishment on first contact costs one extra
        // round trip over the air.
        let extra_round_trips = if self.session_open {
            0
        } else {
            self.session_open = true;
            1
        };

        // Station → gateway: compact binary-encoded URL request.
        let form_bytes: usize = req
            .form
            .iter()
            .flatten()
            .map(|(k, v)| k.len() + v.len() + 2)
            .sum();
        let cookie_bytes: usize = req.cookies.iter().map(|(k, v)| k.len() + v.len() + 2).sum();
        let auth_bytes = if req.auth.is_some() { 32 } else { 0 };
        let uplink_bytes =
            WSP_REQUEST_OVERHEAD + req.url.len() + form_bytes + cookie_bytes + auth_bytes;

        // Gateway → host: ordinary HTTP on the wired side.
        let http_req = req.to_http(ContentFormat::Html);
        let wired_up = http_req.wire_size();
        let (resp, host_cpu) = host.process(http_req);
        let wired_down = resp.wire_size();

        // Translate HTML → WML → WBXML. The translation is pure in the
        // body, so a shard memo can replay it; hits share the deck
        // allocation and replay the failure flag into the counter.
        let html_len = resp.body.len();
        let mode = if self.binary_encoding {
            TranscodeMode::WmlBinary
        } else {
            TranscodeMode::WmlText
        };
        let TranscodedDeck {
            content,
            flagged,
            deck,
        } = memo::transcode(self.memo.as_ref(), mode, &resp.body, |html| {
            self.translate(html)
        });
        if flagged {
            self.translation_failures.incr();
        }
        let format = if self.binary_encoding {
            AirFormat::WmlBinary
        } else {
            AirFormat::WmlText
        };
        let downlink_bytes = WSP_RESPONSE_OVERHEAD + content.len();
        obs::metrics::incr("middleware.exchanges");
        obs::metrics::add("middleware.transcode_in_bytes", html_len as u64);
        obs::metrics::add("middleware.transcode_out_bytes", content.len() as u64);

        Exchange {
            status: resp.status,
            content,
            format,
            uplink_bytes,
            downlink_bytes,
            wired_bytes: (wired_up, wired_down),
            middleware_cpu: Self::translation_cost(html_len),
            host_cpu,
            extra_round_trips,
            no_store: resp.no_store,
            set_cookies: resp.set_cookies.into_iter().collect(),
            deck,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hostsite::db::Database;
    use hostsite::{HttpRequest, HttpResponse, ServerCtx, Status};
    use markup::wml;

    fn host_with_catalog() -> HostComputer {
        let mut host = HostComputer::new(Database::new(), 3);
        let page = html::page(
            "Catalog",
            vec![
                html::h1("Products").into(),
                html::p("Two fine products are available today").into(),
                html::a("/buy?sku=1", "Buy the widget").into(),
            ],
        );
        host.web.static_page("/catalog", page.to_markup());
        host.web
            .route_post("/buy", |req: &HttpRequest, _ctx: &mut ServerCtx<'_>| {
                let sku = req.param("sku").unwrap_or("?").to_owned();
                HttpResponse::ok(
                    html::page("Done", vec![html::p(&format!("bought {sku}")).into()]).to_markup(),
                )
                .with_cookie("last", &sku)
            });
        host
    }

    #[test]
    fn gateway_translates_html_to_valid_binary_wml() {
        let mut host = host_with_catalog();
        let mut gw = WapGateway::default();
        let ex = gw.exchange(&mut host, &MobileRequest::get("/catalog"));
        assert_eq!(ex.status, Status::Ok);
        assert_eq!(ex.format, AirFormat::WmlBinary);
        let deck = wbxml::decode(&ex.content).expect("valid WBXML over the air");
        wml::validate(&deck).expect("valid WML deck");
        assert!(deck.text_content().contains("Products"));
        assert_eq!(deck.find("a").unwrap().attr("href"), Some("/buy?sku=1"));
    }

    #[test]
    fn air_bytes_are_far_smaller_than_wired_html() {
        let mut host = host_with_catalog();
        let mut gw = WapGateway::default();
        let ex = gw.exchange(&mut host, &MobileRequest::get("/catalog"));
        assert!(
            ex.downlink_bytes < ex.wired_bytes.1,
            "air {} vs wired {}",
            ex.downlink_bytes,
            ex.wired_bytes.1
        );
        // The compact request is smaller than its HTTP form too.
        assert!(ex.uplink_bytes < ex.wired_bytes.0);
    }

    #[test]
    fn first_contact_pays_session_setup_then_stops() {
        let mut host = host_with_catalog();
        let mut gw = WapGateway::default();
        let first = gw.exchange(&mut host, &MobileRequest::get("/catalog"));
        let second = gw.exchange(&mut host, &MobileRequest::get("/catalog"));
        assert_eq!(first.extra_round_trips, 1);
        assert_eq!(second.extra_round_trips, 0);
        assert_eq!(gw.requests.get(), 2);
    }

    #[test]
    fn posts_flow_through_and_cookies_come_back() {
        let mut host = host_with_catalog();
        let mut gw = WapGateway::default();
        let ex = gw.exchange(
            &mut host,
            &MobileRequest::post("/buy", vec![("sku".into(), "1".into())]),
        );
        assert_eq!(ex.status, Status::Ok);
        assert!(ex.set_cookies.iter().any(|(k, v)| k == "last" && v == "1"));
        let deck = wbxml::decode(&ex.content).unwrap();
        assert!(deck.text_content().contains("bought 1"));
    }

    #[test]
    fn unparseable_html_degrades_to_an_error_card() {
        let mut host = HostComputer::new(Database::new(), 3);
        host.web.static_page("/broken", "<html><body><p>unclosed");
        let mut gw = WapGateway::default();
        let ex = gw.exchange(&mut host, &MobileRequest::get("/broken"));
        assert_eq!(gw.translation_failures.get(), 1);
        let deck = wbxml::decode(&ex.content).unwrap();
        wml::validate(&deck).unwrap();
        assert!(deck.text_content().contains("content unavailable"));
    }

    #[test]
    fn translation_cpu_scales_with_page_size() {
        let mut host = HostComputer::new(Database::new(), 3);
        let small = html::page("s", vec![html::p("tiny").into()]);
        let paragraphs: Vec<markup::Node> = (0..200)
            .map(|i| html::p(&format!("long paragraph {i}")).into())
            .collect();
        let large = html::page("l", paragraphs);
        host.web.static_page("/small", small.to_markup());
        host.web.static_page("/large", large.to_markup());
        let mut gw = WapGateway::default();
        let ex_small = gw.exchange(&mut host, &MobileRequest::get("/small"));
        let ex_large = gw.exchange(&mut host, &MobileRequest::get("/large"));
        assert!(ex_large.middleware_cpu > ex_small.middleware_cpu);
    }
}
