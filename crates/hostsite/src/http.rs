//! HTTP-like request/response types.
//!
//! These are the messages exchanged on the wired side of the system: the
//! WAP gateway issues them on behalf of mobile stations ("requests from
//! mobile stations are sent as a URL through the network to the WAP
//! Gateway", §5.1), i-mode phones issue them (nearly) directly, and
//! desktop clients in the EC baseline issue them natively.
//!
//! A request is a view. [`HttpRequest<'a>`] borrows the URL, form fields,
//! cookies and credentials of the station request it stands for, for as
//! long as the host handles it, so issuing a request allocates nothing:
//! it notes where the URL's path ends, and the parameters and the cookies
//! are read out of the borrowed parts on demand, in the order and with
//! the last-one-wins semantics of the `BTreeMap`s a request once held.
//! Tests and examples build owned requests with [`HttpRequest::get`],
//! [`HttpRequest::post`] and the builders; those hold copies and are
//! `HttpRequest<'static>`. A response owns its parts; its body is a
//! refcounted [`Body`].

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Deref;

use bytes::Bytes;

/// Request method (the subset commerce flows need).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Fetch a resource.
    Get,
    /// Submit data.
    Post,
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Method::Get => "GET",
            Method::Post => "POST",
        })
    }
}

/// The markup family a client can render — drives content negotiation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ContentFormat {
    /// Full HTML (desktop browsers; also the gateway's upstream format).
    #[default]
    Html,
    /// WML decks (WAP microbrowsers).
    Wml,
    /// Compact HTML (i-mode handsets).
    Chtml,
}

impl ContentFormat {
    /// The MIME type string for this format.
    pub fn mime(self) -> &'static str {
        match self {
            ContentFormat::Html => "text/html",
            ContentFormat::Wml => "text/vnd.wap.wml",
            ContentFormat::Chtml => "text/html; profile=chtml",
        }
    }
}

/// Response status (the subset the server emits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Status {
    /// 200.
    Ok,
    /// 302 — with a `Location` header.
    Found,
    /// 400.
    BadRequest,
    /// 401 — authentication required.
    Unauthorized,
    /// 404.
    NotFound,
    /// 500.
    ServerError,
}

impl Status {
    /// Numeric status code.
    pub fn code(self) -> u16 {
        match self {
            Status::Ok => 200,
            Status::Found => 302,
            Status::BadRequest => 400,
            Status::Unauthorized => 401,
            Status::NotFound => 404,
            Status::ServerError => 500,
        }
    }

    /// True for 2xx/3xx.
    pub fn is_success(self) -> bool {
        matches!(self, Status::Ok | Status::Found)
    }
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.code())
    }
}

/// An HTTP-like request: a view over the URL, form, cookies and
/// credentials it was built from.
///
/// A gateway issuing a station's request lends it the station's own
/// parts ([`HttpRequest::borrowed`]), so building one copies nothing and
/// the request lives no longer than they do. The owned constructors
/// ([`HttpRequest::get`], [`HttpRequest::post`]) and the builders copy
/// what they are given.
///
/// Parameters are the URL's query pairs followed by the form fields, and
/// cookies are name/value pairs. Both read as a `BTreeMap` collected from
/// them in that order would: one value per name, the last one given, in
/// name order ([`HttpRequest::params`], [`HttpRequest::cookies`]).
#[derive(Debug, Clone)]
pub struct HttpRequest<'a> {
    /// Request method.
    pub method: Method,
    /// Format the client wants (the Accept header, collapsed).
    pub accept: ContentFormat,
    /// Path with an optional `?query`, e.g. `/catalog?page=2`.
    url: Cow<'a, str>,
    /// Where the path ends in `url`: its first `?`, or its length.
    path_len: usize,
    /// Form fields, in the order given.
    form: Cow<'a, [(String, String)]>,
    /// Cookies, in the order given.
    cookies: Cow<'a, [(String, String)]>,
    /// `Authorization` credentials, as `(user, password)`.
    auth: Option<Cow<'a, (String, String)>>,
}

impl HttpRequest<'static> {
    /// Builds a GET request for `url` (query params may be embedded as
    /// `?k=v&k2=v2`).
    pub fn get(url: &str) -> Self {
        HttpRequest {
            method: Method::Get,
            accept: ContentFormat::Html,
            url: Cow::Owned(url.to_owned()),
            path_len: path_len(url),
            form: Cow::Borrowed(&[]),
            cookies: Cow::Borrowed(&[]),
            auth: None,
        }
    }

    /// Builds a POST request with form parameters.
    pub fn post(url: &str, form: impl IntoIterator<Item = (String, String)>) -> Self {
        HttpRequest {
            method: Method::Post,
            form: Cow::Owned(form.into_iter().collect()),
            ..Self::get(url)
        }
    }
}

impl<'a> HttpRequest<'a> {
    /// A view over borrowed parts: a POST of `form` when there is one,
    /// else a GET.
    pub fn borrowed(
        url: &'a str,
        form: Option<&'a [(String, String)]>,
        cookies: &'a [(String, String)],
        auth: Option<&'a (String, String)>,
    ) -> Self {
        HttpRequest {
            method: if form.is_some() {
                Method::Post
            } else {
                Method::Get
            },
            accept: ContentFormat::Html,
            url: Cow::Borrowed(url),
            path_len: path_len(url),
            form: Cow::Borrowed(form.unwrap_or_default()),
            cookies: Cow::Borrowed(cookies),
            auth: auth.map(Cow::Borrowed),
        }
    }

    /// Sets the accepted content format (builder style).
    pub fn with_accept(mut self, accept: ContentFormat) -> Self {
        self.accept = accept;
        self
    }

    /// Attaches a cookie (builder style).
    pub fn with_cookie(mut self, name: &str, value: &str) -> Self {
        self.cookies
            .to_mut()
            .push((name.to_owned(), value.to_owned()));
        self
    }

    /// Attaches basic credentials (builder style).
    pub fn with_auth(mut self, user: &str, password: &str) -> Self {
        self.auth = Some(Cow::Owned((user.to_owned(), password.to_owned())));
        self
    }

    /// Path component, e.g. `/catalog`.
    pub fn path(&self) -> &str {
        &self.url[..self.path_len]
    }

    /// The query's `name=value` pairs in order; a bare `name` has an
    /// empty value and empty pairs are skipped.
    fn query_pairs(&self) -> impl DoubleEndedIterator<Item = (&str, &str)> + Clone {
        let query = self.url.get(self.path_len + 1..).unwrap_or("");
        query
            .split('&')
            .filter(|pair| !pair.is_empty())
            .map(|pair| pair.split_once('=').unwrap_or((pair, "")))
    }

    /// A parameter's value, if present: the last form field of that
    /// name, else the query's last pair of that name.
    pub fn param(&self, name: &str) -> Option<&str> {
        match self.form.iter().rev().find(|(k, _)| k == name) {
            Some((_, value)) => Some(value),
            None => self
                .query_pairs()
                .rev()
                .find(|&(k, _)| k == name)
                .map(|(_, value)| value),
        }
    }

    /// The parameters in name order, one per name with its last value.
    pub fn params(&self) -> impl Iterator<Item = (&str, &str)> {
        last_by_name(self.query_pairs().chain(str_pairs(&self.form)))
    }

    /// A cookie's value, if present (the last one of that name).
    pub fn cookie(&self, name: &str) -> Option<&str> {
        self.cookies
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, value)| value.as_str())
    }

    /// The cookies in name order, one per name with its last value.
    pub fn cookies(&self) -> impl Iterator<Item = (&str, &str)> {
        last_by_name(str_pairs(&self.cookies))
    }

    /// `Authorization` credentials, as `(user, password)`.
    pub fn auth(&self) -> Option<(&str, &str)> {
        self.auth
            .as_deref()
            .map(|(user, password)| (user.as_str(), password.as_str()))
    }

    /// Approximate bytes of this request on the wire: one entry per
    /// parameter and cookie name, as [`HttpRequest::params`] and
    /// [`HttpRequest::cookies`] list them. One loop over the query, form
    /// and cookie pairs counts a pair when no later pair of its kind
    /// repeats its name, so each name counts once, with its last value.
    pub fn wire_size(&self) -> usize {
        const PARAM: usize = 2;
        const COOKIE: usize = 10;
        let params = self.query_pairs().chain(str_pairs(&self.form));
        let mut rest = params
            .map(|(k, v)| (PARAM, k, v))
            .chain(str_pairs(&self.cookies).map(|(k, v)| (COOKIE, k, v)));
        let mut n = 16 + self.path().len() + 64; // request line + fixed headers
        while let Some((kind, name, value)) = rest.next() {
            if !rest.clone().any(|(later, k, _)| later == kind && k == name) {
                n += name.len() + value.len() + kind;
            }
        }
        if self.auth.is_some() {
            n += 32;
        }
        n
    }
}

/// Owned name/value pairs, read as string slices.
fn str_pairs(pairs: &[(String, String)]) -> impl Iterator<Item = (&str, &str)> + Clone {
    pairs.iter().map(|(k, v)| (k.as_str(), v.as_str()))
}

/// Where `url`'s path ends: at its first `?`, else at its end.
fn path_len(url: &str) -> usize {
    url.find('?').unwrap_or(url.len())
}

/// The entries a `BTreeMap` collected from `pairs` would iterate: in name
/// order, one per name, holding the last value given. Builds nothing;
/// each step rescans `pairs` for the least name after the last one it
/// gave, once per name, which is quadratic in their number, and a
/// request carries a handful.
fn last_by_name<'s>(
    pairs: impl Iterator<Item = (&'s str, &'s str)> + Clone,
) -> impl Iterator<Item = (&'s str, &'s str)> {
    let mut after: Option<&str> = None;
    let mut more = true;
    std::iter::from_fn(move || {
        if !more {
            return None;
        }
        let mut next: Option<(&str, &str)> = None;
        more = false; // whether a name after `next` remains
        for (name, value) in pairs.clone() {
            if after.is_some_and(|after| name <= after) {
                continue;
            }
            match next {
                Some((least, _)) if name > least => more = true,
                Some((least, _)) => {
                    more |= name < least;
                    next = Some((name, value));
                }
                None => next = Some((name, value)),
            }
        }
        after = next.map(|(name, _)| name);
        next
    })
}

/// A response body: UTF-8 markup behind a refcounted [`Bytes`] buffer.
///
/// Cloning a `Body` bumps a refcount instead of copying the markup, so a
/// page-cache hit or an error-page substitution shares one allocation
/// across every response that serves it. The buffer is guaranteed valid
/// UTF-8 by construction (`From<String>` / `From<&str>` are the only
/// constructors), and the type derefs to `str` so call sites read it
/// exactly like the `String` it replaces.
#[derive(Clone, Default)]
pub struct Body(Bytes);

impl Body {
    /// The body text.
    pub fn as_str(&self) -> &str {
        // SAFETY: every constructor takes `str`/`String` input, so the
        // buffer is valid UTF-8 by construction.
        unsafe { std::str::from_utf8_unchecked(&self.0) }
    }

    /// The underlying refcounted buffer (a cheap clone, no copy).
    pub fn as_bytes_buf(&self) -> Bytes {
        self.0.clone()
    }

    /// Unwraps into the underlying refcounted buffer.
    pub fn into_bytes(self) -> Bytes {
        self.0
    }
}

impl Deref for Body {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for Body {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl From<String> for Body {
    fn from(s: String) -> Self {
        Body(Bytes::from(s))
    }
}

impl From<&str> for Body {
    fn from(s: &str) -> Self {
        Body(Bytes::copy_from_slice(s.as_bytes()))
    }
}

impl fmt::Debug for Body {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Body {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl PartialEq for Body {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Body {}

impl PartialEq<str> for Body {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Body {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for Body {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

/// An HTTP-like response.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code.
    pub status: Status,
    /// Body format.
    pub format: ContentFormat,
    /// Markup body (refcounted; cloning shares the buffer).
    pub body: Body,
    /// Cookies to set on the client.
    pub set_cookies: BTreeMap<String, String>,
    /// Redirect target for 302 responses.
    pub location: Option<String>,
    /// Cache-admission bypass (the `Cache-Control: no-store` analogue):
    /// neither the host page cache nor the gateway content cache stores
    /// this response. Producers set it on one-shot pages — search
    /// results keyed by a high-cardinality query string — so they cannot
    /// churn the hot browse pages out of the LRU tiers.
    pub no_store: bool,
}

impl HttpResponse {
    /// A 200 response with an HTML body.
    pub fn ok(body: impl Into<Body>) -> Self {
        HttpResponse {
            status: Status::Ok,
            format: ContentFormat::Html,
            body: body.into(),
            set_cookies: BTreeMap::new(),
            location: None,
            no_store: false,
        }
    }

    /// An error response with the given status and body.
    pub fn error(status: Status, body: impl Into<Body>) -> Self {
        HttpResponse {
            status,
            ..Self::ok(body)
        }
    }

    /// A 302 redirect.
    pub fn redirect(location: impl Into<String>) -> Self {
        HttpResponse {
            status: Status::Found,
            location: Some(location.into()),
            ..Self::ok("")
        }
    }

    /// Sets a cookie (builder style).
    pub fn with_cookie(mut self, name: &str, value: &str) -> Self {
        self.set_cookies.insert(name.to_owned(), value.to_owned());
        self
    }

    /// Marks the response cache-bypassing (builder style) — see
    /// [`HttpResponse::no_store`].
    pub fn with_no_store(mut self) -> Self {
        self.no_store = true;
        self
    }

    /// Sets the body format (builder style).
    pub fn with_format(mut self, format: ContentFormat) -> Self {
        self.format = format;
        self
    }

    /// Approximate bytes of this response on the wire.
    pub fn wire_size(&self) -> usize {
        let mut n = 64 + self.body.len();
        for (k, v) in &self.set_cookies {
            n += k.len() + v.len() + 14;
        }
        if let Some(loc) = &self.location {
            n += loc.len() + 12;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_splits_query_params() {
        let req = HttpRequest::get("/catalog?category=toys&page=2");
        assert_eq!(req.path(), "/catalog");
        assert_eq!(req.param("category"), Some("toys"));
        assert_eq!(req.param("page"), Some("2"));
        assert_eq!(req.param("missing"), None);
        assert_eq!(req.method, Method::Get);
    }

    #[test]
    fn post_merges_form_and_query() {
        let req = HttpRequest::post(
            "/order?src=banner",
            vec![("sku".to_owned(), "42".to_owned())],
        );
        assert_eq!(req.param("src"), Some("banner"));
        assert_eq!(req.param("sku"), Some("42"));
        assert_eq!(req.method, Method::Post);
    }

    #[test]
    fn builders_set_fields() {
        let req = HttpRequest::get("/")
            .with_accept(ContentFormat::Wml)
            .with_cookie("sid", "abc")
            .with_auth("u", "p");
        assert_eq!(req.accept, ContentFormat::Wml);
        assert_eq!(req.cookie("sid"), Some("abc"));
        assert_eq!(req.auth(), Some(("u", "p")));
    }

    #[test]
    fn wire_sizes_grow_with_content() {
        let small = HttpRequest::get("/a");
        let big = HttpRequest::get("/a?x=1&y=2").with_cookie("s", "t");
        assert!(big.wire_size() > small.wire_size());
        let r1 = HttpResponse::ok("x");
        let r2 = HttpResponse::ok("x".repeat(1000));
        assert_eq!(r2.wire_size() - r1.wire_size(), 999);
    }

    #[test]
    fn response_constructors() {
        assert_eq!(HttpResponse::ok("hi").status, Status::Ok);
        let r = HttpResponse::redirect("/next");
        assert_eq!(r.status, Status::Found);
        assert_eq!(r.location.as_deref(), Some("/next"));
        assert!(!HttpResponse::error(Status::NotFound, "gone")
            .status
            .is_success());
    }

    #[test]
    fn status_codes_and_mime_types() {
        assert_eq!(Status::Ok.code(), 200);
        assert_eq!(Status::Unauthorized.code(), 401);
        assert_eq!(ContentFormat::Wml.mime(), "text/vnd.wap.wml");
        assert_eq!(Method::Post.to_string(), "POST");
    }

    #[test]
    fn empty_and_valueless_query_pairs() {
        let req = HttpRequest::get("/p?flag&x=&&y=2");
        assert_eq!(req.param("flag"), Some(""));
        assert_eq!(req.param("x"), Some(""));
        assert_eq!(req.param("y"), Some("2"));
    }
}
