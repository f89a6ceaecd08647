//! The host web-server page cache.
//!
//! The paper's host computers "usually store and manage most of the
//! content" — and a production web server in that role fronts its
//! application programs with a page cache. This one is a
//! [`simnet::TtlLru`] keyed by the canonical request (method, path,
//! query, accept format, cookies): entries expire after a TTL measured
//! in simulated nanoseconds and are bounded by a byte budget over key
//! plus body bytes, with least-recently-used eviction.
//!
//! A lookup builds no key: it streams the canonical rendering of the
//! borrowed request through a hasher, and checks candidates by matching
//! the same rendering against each stored key. The rendered key string
//! is built only when a response is stored, and is freed with its
//! entry. A hit clones a response whose body is a refcounted [`Body`] —
//! a pointer bump, not a page copy.
//!
//! Only successful `GET` responses that set no cookies are stored;
//! `POST`s (which mutate the database and session state) always reach
//! the application program. Requests carrying basic-auth credentials
//! bypass the cache entirely — lookup *and* store — so every authed
//! request is re-validated against its auth realm ([`WebServer`] never
//! consults the cache for them).
//!
//! [`Body`]: crate::http::Body
//! [`WebServer`]: crate::server::WebServer

use std::fmt;
use std::hash::Hasher;

use simnet::{FixedHasher, TtlLru};

use crate::http::{HttpRequest, HttpResponse};

/// A TTL + LRU page cache over canonical-request keys.
#[derive(Debug)]
pub struct PageCache {
    entries: TtlLru<String, HttpResponse>,
}

impl PageCache {
    /// Creates a cache holding entries for `ttl_ns` simulated nanoseconds
    /// within a `byte_budget` of key plus body bytes.
    pub fn new(ttl_ns: u64, byte_budget: usize) -> Self {
        PageCache {
            entries: TtlLru::new(ttl_ns, byte_budget),
        }
    }

    /// Renders the canonical key for `req` into any writer. Query
    /// parameters and cookies render in name order, one per name with
    /// its last value, so the rendering is order-stable, and the path,
    /// names and values are escaped, so no two requests render alike.
    /// The same routine builds keys, hashes requests, and
    /// equality-checks lookups, so the three can never drift apart.
    fn render_key(req: &HttpRequest<'_>, out: &mut impl fmt::Write) -> fmt::Result {
        write!(out, "{:?} ", req.method)?;
        write_escaped(out, req.path())?;
        for (name, value) in req.params() {
            out.write_char('&')?;
            write_escaped(out, name)?;
            out.write_char('=')?;
            write_escaped(out, value)?;
        }
        write!(out, "|{:?}", req.accept)?;
        for (name, value) in req.cookies() {
            out.write_char(';')?;
            write_escaped(out, name)?;
            out.write_char('=')?;
            write_escaped(out, value)?;
        }
        Ok(())
    }

    /// The canonical cache key for a request, as an owned string.
    pub fn key(req: &HttpRequest<'_>) -> String {
        let mut key = String::new();
        Self::render_key(req, &mut key).expect("writing to a String cannot fail");
        key
    }

    /// The hash of `req`'s canonical key, streamed without building it.
    /// Store and lookup both hash this way. [`FixedHasher`] hashes
    /// chunked writes like one write, so this also equals the hash of
    /// [`PageCache::key`], which a test pins and no code relies on.
    fn hash(req: &HttpRequest<'_>) -> u64 {
        let mut h = FixedHasher::default();
        Self::render_key(req, &mut HashWriter(&mut h)).expect("hashing cannot fail");
        h.finish()
    }

    /// Returns the cached response when a fresh entry exists for `req`
    /// at `now_ns`; an expired entry is dropped. Allocation-free.
    pub fn lookup(&mut self, req: &HttpRequest<'_>, now_ns: u64) -> Option<HttpResponse> {
        let renders_req = |key: &String| {
            let mut m = PrefixMatcher { rest: key };
            Self::render_key(req, &mut m).is_ok() && m.rest.is_empty()
        };
        self.entries
            .get(Self::hash(req), renders_req, now_ns)
            .cloned()
    }

    /// Stores a response for `req`, evicting least-recently-used entries
    /// until the byte budget holds. Returns how many entries were
    /// evicted. Responses larger than the whole budget are not stored.
    pub fn store(&mut self, req: &HttpRequest<'_>, resp: &HttpResponse, now_ns: u64) -> usize {
        let key = Self::key(req);
        let bytes = key.len() + resp.body.len();
        self.entries
            .put(Self::hash(req), key, resp.clone(), bytes, now_ns)
    }

    /// Number of live entries, each holding its key.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Body + key bytes currently held.
    pub fn bytes(&self) -> usize {
        self.entries.weight()
    }
}

/// Writes `s`, percent-escaping the key's separators (`%`, `&`, `|`,
/// `;`, `=`). A string holding none of them is written in one piece,
/// unchanged, so such keys keep their rendering and their weight.
fn write_escaped(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    let mut rest = s;
    while let Some(i) = rest.find(['%', '&', '|', ';', '=']) {
        out.write_str(&rest[..i])?;
        write!(out, "%{:02X}", rest.as_bytes()[i])?;
        rest = &rest[i + 1..];
    }
    out.write_str(rest)
}

/// A [`fmt::Write`] sink that feeds written text into a [`Hasher`], so
/// a request's rendering is hashed without materialising it.
struct HashWriter<'a, H: Hasher>(&'a mut H);

impl<H: Hasher> fmt::Write for HashWriter<'_, H> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.write(s.as_bytes());
        Ok(())
    }
}

/// A [`fmt::Write`] sink that *matches* written text against a stored
/// key instead of building one: each written chunk must be the next
/// prefix of `rest`, and a full match leaves `rest` empty.
struct PrefixMatcher<'a> {
    rest: &'a str,
}

impl fmt::Write for PrefixMatcher<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        match self.rest.strip_prefix(s) {
            Some(rest) => {
                self.rest = rest;
                Ok(())
            }
            // Divergence: surface as a fmt error so the render function
            // aborts early instead of walking the whole request.
            None => Err(fmt::Error),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{ContentFormat, Method};
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::fmt::Write as _;

    fn resp(body: &str) -> HttpResponse {
        HttpResponse::ok(body.to_owned())
    }

    fn get(path: &str) -> HttpRequest<'static> {
        HttpRequest::get(path)
    }

    #[test]
    fn entries_expire_after_the_ttl() {
        let mut cache = PageCache::new(1_000, 10_000);
        cache.store(&get("/k"), &resp("<html><body>x</body></html>"), 0);
        assert!(cache.lookup(&get("/k"), 999).is_some());
        assert!(cache.lookup(&get("/k"), 1_000).is_none());
        assert!(cache.is_empty(), "expired entry is dropped");
    }

    #[test]
    fn lru_eviction_respects_the_byte_budget() {
        // Each entry weighs 26 bytes: an 11-byte key and a 15-byte body.
        let mut cache = PageCache::new(u64::MAX, 60);
        cache.store(&get("/a"), &resp("<html>aa</html>"), 0);
        cache.store(&get("/b"), &resp("<html>bb</html>"), 0);
        // Touch "a" so "b" is the LRU victim.
        assert!(cache.lookup(&get("/a"), 1).is_some());
        let evicted = cache.store(&get("/c"), &resp("<html>cc</html>"), 2);
        assert_eq!(evicted, 1);
        assert!(cache.lookup(&get("/a"), 3).is_some());
        assert!(cache.lookup(&get("/b"), 3).is_none());
        assert!(cache.lookup(&get("/c"), 3).is_some());
        assert!(cache.bytes() <= 60);
    }

    #[test]
    fn oversized_responses_are_not_stored() {
        let mut cache = PageCache::new(u64::MAX, 10);
        let evicted = cache.store(&get("/k"), &resp(&"x".repeat(100)), 0);
        assert_eq!(evicted, 0);
        assert!(cache.is_empty());
    }

    #[test]
    fn keys_are_canonical_over_request_fields() {
        let a = PageCache::key(&get("/shop?x=1&y=2"));
        let b = PageCache::key(&get("/shop?y=2&x=1"));
        assert_eq!(a, b, "query order does not change the key");
        let c = PageCache::key(&get("/shop?x=1&y=3"));
        assert_ne!(a, c);
        let d = PageCache::key(&get("/shop?x=1&y=2").with_cookie("sid", "s1"));
        assert_ne!(a, d, "cookies partition the key space");
    }

    #[test]
    fn separators_inside_fields_cannot_alias_keys() {
        // `/shop&a=1` is a path with no query; `/shop?a=1` has one
        // parameter. Unescaped, both rendered `Get /shop&a=1|Html`.
        let path = PageCache::key(&get("/shop&a=1"));
        let query = PageCache::key(&get("/shop?a=1"));
        assert_ne!(path, query);
        assert_eq!(
            query, "Get /shop&a=1|Html",
            "separator-free keys render as before"
        );
        assert_eq!(path, "Get /shop%26a%3D1|Html");
        // Cookie names and values escape too.
        let split = PageCache::key(&get("/s").with_cookie("a", "1;b=2"));
        let two = PageCache::key(&get("/s").with_cookie("a", "1").with_cookie("b", "2"));
        assert_ne!(split, two);
    }

    #[test]
    fn lookups_match_only_the_exact_rendering() {
        let mut cache = PageCache::new(u64::MAX, 10_000);
        let req = get("/shop?x=1&y=2").with_cookie("sid", "s1");
        cache.store(&req, &resp("<html>page</html>"), 0);
        assert!(cache
            .lookup(&get("/shop?y=2&x=1").with_cookie("sid", "s1"), 1)
            .is_some());
        assert!(cache.lookup(&get("/shop?x=1&y=2"), 1).is_none());
        assert!(cache
            .lookup(&get("/shop?x=1&y=2&z=3").with_cookie("sid", "s1"), 1)
            .is_none());
        assert_eq!(cache.len(), 1, "lookups hold no keys");
    }

    #[test]
    fn hits_share_the_body_allocation() {
        let mut cache = PageCache::new(u64::MAX, 10_000);
        cache.store(&get("/k"), &resp("<html><body>big page</body></html>"), 0);
        let a = cache.lookup(&get("/k"), 1).expect("hit");
        let b = cache.lookup(&get("/k"), 2).expect("hit");
        // Refcounted bodies: both hits read the same buffer.
        assert_eq!(
            a.body.as_bytes_buf().as_ref().as_ptr(),
            b.body.as_bytes_buf().as_ref().as_ptr()
        );
    }

    #[test]
    fn prefix_matcher_requires_exact_rendering() {
        let mut m = PrefixMatcher { rest: "GET /shop" };
        assert!(write!(m, "GET").is_ok());
        assert!(write!(m, " /shop").is_ok());
        assert!(m.rest.is_empty());

        let mut m = PrefixMatcher { rest: "GET /shop" };
        assert!(
            write!(m, "GET /shopping").is_err(),
            "overlong write diverges"
        );

        let mut m = PrefixMatcher { rest: "GET /shop" };
        assert!(write!(m, "GET ").is_ok());
        assert!(!m.rest.is_empty(), "unconsumed remainder is not a match");
    }

    /// A request as it was before it became a view: an owned path and
    /// two `BTreeMap`s, built the way `HttpRequest::get`/`post` and the
    /// builders built them.
    struct OwnedModel {
        method: Method,
        path: String,
        params: BTreeMap<String, String>,
        cookies: BTreeMap<String, String>,
        auth: bool,
    }

    impl OwnedModel {
        fn new(
            url: &str,
            form: Option<&[(String, String)]>,
            cookies: &[(String, String)],
            auth: bool,
        ) -> Self {
            let (path, mut params) = match url.split_once('?') {
                None => (url.to_owned(), BTreeMap::new()),
                Some((path, query)) => {
                    let mut params = BTreeMap::new();
                    for pair in query.split('&').filter(|pair| !pair.is_empty()) {
                        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
                        params.insert(k.to_owned(), v.to_owned());
                    }
                    (path.to_owned(), params)
                }
            };
            params.extend(form.unwrap_or_default().iter().cloned());
            OwnedModel {
                method: if form.is_some() {
                    Method::Post
                } else {
                    Method::Get
                },
                path,
                params,
                cookies: cookies.iter().cloned().collect(),
                auth,
            }
        }

        fn wire_size(&self) -> usize {
            let mut n = 16 + self.path.len() + 64;
            for (k, v) in &self.params {
                n += k.len() + v.len() + 2;
            }
            for (k, v) in &self.cookies {
                n += k.len() + v.len() + 10;
            }
            if self.auth {
                n += 32;
            }
            n
        }

        fn key(&self) -> String {
            let mut out = format!("{:?} ", self.method);
            write_escaped(&mut out, &self.path).unwrap();
            for (name, value) in &self.params {
                out.push('&');
                write_escaped(&mut out, name).unwrap();
                out.push('=');
                write_escaped(&mut out, value).unwrap();
            }
            write!(out, "|{:?}", ContentFormat::Wml).unwrap();
            for (name, value) in &self.cookies {
                out.push(';');
                write_escaped(&mut out, name).unwrap();
                out.push('=');
                write_escaped(&mut out, value).unwrap();
            }
            out
        }
    }

    /// Asserts that `req` reads exactly like `model`.
    fn check(req: &HttpRequest<'_>, model: &OwnedModel) -> Result<(), TestCaseError> {
        prop_assert_eq!(req.method, model.method);
        prop_assert_eq!(req.path(), model.path.as_str());
        let params: Vec<(&str, &str)> = model
            .params
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        prop_assert_eq!(req.params().collect::<Vec<_>>(), params);
        for name in model
            .params
            .keys()
            .map(String::as_str)
            .chain(["", "a", "zz"])
        {
            prop_assert_eq!(req.param(name), model.params.get(name).map(String::as_str));
        }
        let cookies: Vec<(&str, &str)> = model
            .cookies
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        prop_assert_eq!(req.cookies().collect::<Vec<_>>(), cookies);
        for name in model
            .cookies
            .keys()
            .map(String::as_str)
            .chain(["", "a", "zz"])
        {
            prop_assert_eq!(
                req.cookie(name),
                model.cookies.get(name).map(String::as_str)
            );
        }
        prop_assert_eq!(req.wire_size(), model.wire_size());
        prop_assert_eq!(PageCache::key(req), model.key());
        Ok(())
    }

    /// Name/value pairs over a tiny alphabet, so names repeat and values
    /// come out empty or holding the key's separators.
    fn pairs(max: usize) -> impl Strategy<Value = Vec<(String, String)>> {
        proptest::collection::vec(("[ab]{0,2}", "[xy=&;%]{0,2}"), 0..max)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The borrowed view and the owned builders both read like the
        /// owned-`BTreeMap` request they replace: `param` (query first,
        /// then form, the last value of a name wins), the parameters and
        /// cookies in name order, `wire_size` and the page-cache key,
        /// over duplicate names, empty values, bare names, empty pairs and
        /// names in both the query and the form.
        #[test]
        fn borrowed_requests_read_like_the_owned_btreemap_model(
            path in "[/ab%]{0,4}",
            query in "(\\?[ab=&x?]{0,10})?",
            form in (any::<bool>(), pairs(5)),
            cookies in pairs(4),
            auth in any::<bool>(),
        ) {
            let url = format!("{path}{query}");
            let form = form.0.then_some(form.1);
            let credentials = ("user".to_owned(), "secret".to_owned());
            let model = OwnedModel::new(&url, form.as_deref(), &cookies, auth);

            let borrowed =
                HttpRequest::borrowed(&url, form.as_deref(), &cookies, auth.then_some(&credentials))
                    .with_accept(ContentFormat::Wml);
            check(&borrowed, &model)?;

            let mut owned = match &form {
                None => HttpRequest::get(&url),
                Some(form) => HttpRequest::post(&url, form.iter().cloned()),
            }
            .with_accept(ContentFormat::Wml);
            for (name, value) in &cookies {
                owned = owned.with_cookie(name, value);
            }
            if auth {
                owned = owned.with_auth("user", "secret");
            }
            check(&owned, &model)?;
        }
    }

    #[test]
    fn hashing_a_rendering_equals_hashing_the_key() {
        let req = get("/shop&odd?x=1").with_cookie("sid", "a=b");
        let mut whole = FixedHasher::default();
        whole.write(PageCache::key(&req).as_bytes());
        assert_eq!(
            PageCache::hash(&req),
            whole.finish(),
            "chunked writes hash like one"
        );
    }
}
