#![warn(missing_docs)]
//! # middleware — mobile middleware (component iii)
//!
//! §5 of the paper: "The term middleware refers to the software layer
//! between the operating system and the distributed applications that
//! interact via the networks. It translates requests from mobile stations
//! to a host computer and adapts content from the host to the mobile
//! station." Table 3 compares the two dominant kinds, both implemented
//! here behind one [`Middleware`] trait:
//!
//! | | WAP | i-mode |
//! |---|---|---|
//! | Developer | WAP Forum | NTT DoCoMo |
//! | Function | a protocol | a complete mobile Internet service |
//! | Host language | WML | cHTML (Compact HTML) |
//! | Major technology | WAP Gateway | TCP/IP modifications |
//! | Key features | widely adopted, flexible | most users, easy to use |
//!
//! [`wap::WapGateway`] receives compact binary-encoded requests, fetches
//! HTML from the host on the wired side, translates it to WML and ships
//! WBXML over the air. [`imode::IModeService`] runs an always-on
//! packet session and serves cHTML with no translation step. The
//! measurable trade-off between them — translation CPU against
//! over-the-air bytes — is Table 3's experiment.

pub(crate) mod cache;
pub(crate) mod imode;
pub mod memo;
pub(crate) mod wap;

use bytes::Bytes;
use simnet::SimDuration;

pub use cache::ContentCache;
pub use imode::IModeService;
pub use memo::SharedTranscodeMemo;
pub use wap::WapGateway;

use hostsite::{ContentFormat, HostComputer, HttpRequest, Status};

/// A request issued by a mobile station through middleware.
#[derive(Debug, Clone)]
pub struct MobileRequest {
    /// Target URL path (with optional query).
    pub url: String,
    /// Form parameters for POSTs; `None` makes the request a GET.
    pub form: Option<Vec<(String, String)>>,
    /// Cookies the station holds.
    pub cookies: Vec<(String, String)>,
    /// Basic credentials, if the realm needs them.
    pub auth: Option<(String, String)>,
}

impl MobileRequest {
    /// A GET for `url`.
    pub fn get(url: &str) -> Self {
        MobileRequest {
            url: url.to_owned(),
            form: None,
            cookies: Vec::new(),
            auth: None,
        }
    }

    /// A POST with form fields.
    pub fn post(url: &str, form: Vec<(String, String)>) -> Self {
        MobileRequest {
            url: url.to_owned(),
            form: Some(form),
            cookies: Vec::new(),
            auth: None,
        }
    }

    /// Attaches credentials (builder style).
    pub fn with_auth(mut self, user: &str, password: &str) -> Self {
        self.auth = Some((user.to_owned(), password.to_owned()));
        self
    }

    /// The host request issued for this one, asking for `accept`: a
    /// view over this request's URL, form, cookies and credentials, so
    /// issuing it copies nothing.
    pub fn to_http(&self, accept: ContentFormat) -> HttpRequest<'_> {
        HttpRequest::borrowed(
            &self.url,
            self.form.as_deref(),
            &self.cookies,
            self.auth.as_ref(),
        )
        .with_accept(accept)
    }
}

/// The over-the-air payload format a middleware delivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AirFormat {
    /// WBXML-encoded binary WML (WAP).
    WmlBinary,
    /// Textual WML (WAP with binary encoding disabled — ablation only).
    WmlText,
    /// Textual cHTML (i-mode).
    Chtml,
    /// Raw HTML (EC baseline / desktop clients).
    Html,
}

/// Everything a middleware exchange produces and costs.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// Response status from the host.
    pub status: Status,
    /// The payload shipped over the air to the station.
    ///
    /// A refcounted [`Bytes`] chunk: the gateway encodes the page once and
    /// every later stage (air-link framing, browser render, caches) shares
    /// the same allocation instead of deep-cloning the body.
    pub content: Bytes,
    /// Payload format.
    pub format: AirFormat,
    /// Bytes sent over the air station → middleware (request).
    pub uplink_bytes: usize,
    /// Bytes sent over the air middleware → station (response+framing).
    pub downlink_bytes: usize,
    /// Bytes on the wired side (request, response).
    pub wired_bytes: (usize, usize),
    /// CPU time spent by the middleware itself (translation, encoding).
    pub middleware_cpu: SimDuration,
    /// CPU time spent by the host computer.
    pub host_cpu: SimDuration,
    /// Extra protocol round trips the middleware needs beyond the basic
    /// request/response (e.g. WSP session setup on first contact).
    pub extra_round_trips: u32,
    /// Cookies the host set (to be stored in the station's jar).
    pub set_cookies: Vec<(String, String)>,
    /// The host marked the response cache-bypassing (`no-store`): the
    /// gateway content cache must not admit it.
    pub no_store: bool,
    /// The parsed form of `content`, when the middleware has it in hand
    /// (the WAP gateway builds the deck it then WBXML-encodes; i-mode's
    /// pass-through keeps the host's page tree). Invariant: when set,
    /// decoding/parsing `content` yields exactly this tree, so the
    /// station browser may render from it without re-parsing.
    pub deck: Option<std::sync::Arc<markup::Element>>,
}

/// The software layer between mobile stations and host computers.
pub trait Middleware {
    /// Middleware name for reports ("WAP", "i-mode").
    fn name(&self) -> &str;

    /// Performs one request against `host` on behalf of a station,
    /// translating the request in and adapting the content out.
    fn exchange(&mut self, host: &mut HostComputer, req: &MobileRequest) -> Exchange;

    /// Attaches a shard-local `memo::TranscodeMemo` so repeated bodies
    /// skip re-translation. Translation is a pure function of the body,
    /// so attaching (or not attaching) a memo never changes an exchange.
    /// The default implementation ignores the memo — only middlewares
    /// with a translation step benefit.
    fn attach_transcode_memo(&mut self, _memo: SharedTranscodeMemo) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mobile_request_builders() {
        let get = MobileRequest::get("/shop?item=1");
        assert!(get.form.is_none());
        let mut post = MobileRequest::post("/buy", vec![("sku".into(), "2".into())]).with_auth("u", "p");
        post.cookies.push(("sid".into(), "x".into()));
        assert!(post.form.is_some());
        let http = post.to_http(ContentFormat::Wml);
        assert_eq!(http.param("sku"), Some("2"));
        assert_eq!(http.cookie("sid"), Some("x"));
        assert_eq!(http.auth(), Some(("u", "p")));
        assert_eq!(http.accept, ContentFormat::Wml);
    }
}
