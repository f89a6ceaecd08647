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
//! Every lookup and store renders the request's canonical key into one
//! buffer the cache keeps and reuses, hashes the rendering with one
//! [`FixedHasher`] write, and checks candidates by comparing stored keys
//! with it (`==`). So a lookup allocates nothing once the buffer has
//! grown to the longest key, and the key string is owned only by the
//! entries actually stored, freed with them. A hit clones a response
//! whose body is a refcounted [`Body`] — a pointer bump, not a page copy.
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

use std::hash::Hasher;

use markup::text::find_any;
use simnet::{FixedHasher, TtlLru};

use crate::http::{ContentFormat, HttpRequest, HttpResponse, Method};

/// A TTL + LRU page cache over canonical-request keys.
#[derive(Debug)]
pub struct PageCache {
    entries: TtlLru<String, HttpResponse>,
    /// The last request's canonical key, rendered in place.
    key: String,
}

impl PageCache {
    /// Creates a cache holding entries for `ttl_ns` simulated nanoseconds
    /// within a `byte_budget` of key plus body bytes.
    pub fn new(ttl_ns: u64, byte_budget: usize) -> Self {
        PageCache {
            entries: TtlLru::new(ttl_ns, byte_budget),
            key: String::new(),
        }
    }

    /// Renders `req`'s key into the kept buffer and returns its hash.
    fn render(&mut self, req: &HttpRequest<'_>) -> u64 {
        self.key.clear();
        render_key(req, &mut self.key);
        let mut h = FixedHasher::default();
        h.write(self.key.as_bytes());
        h.finish()
    }

    /// Returns the cached response when a fresh entry exists for `req`
    /// at `now_ns`; an expired entry is dropped. Allocation-free once
    /// the key buffer has grown.
    pub fn lookup(&mut self, req: &HttpRequest<'_>, now_ns: u64) -> Option<HttpResponse> {
        let hash = self.render(req);
        let key = &self.key;
        self.entries.get(hash, |k| k == key, now_ns).cloned()
    }

    /// Stores a response for `req`, evicting least-recently-used entries
    /// until the byte budget holds. Returns how many entries were
    /// evicted. Responses larger than the whole budget are not stored.
    pub fn store(&mut self, req: &HttpRequest<'_>, resp: &HttpResponse, now_ns: u64) -> usize {
        let hash = self.render(req);
        let bytes = self.key.len() + resp.body.len();
        self.entries
            .put(hash, self.key.clone(), resp.clone(), bytes, now_ns)
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

/// Appends `req`'s canonical key to `out` (see [`PageCache::key`]).
fn render_key(req: &HttpRequest<'_>, out: &mut String) {
    out.push_str(match req.method {
        Method::Get => "Get ",
        Method::Post => "Post ",
    });
    push_escaped(out, req.path());
    for (name, value) in req.params() {
        out.push('&');
        push_escaped(out, name);
        out.push('=');
        push_escaped(out, value);
    }
    out.push_str(match req.accept {
        ContentFormat::Html => "|Html",
        ContentFormat::Wml => "|Wml",
        ContentFormat::Chtml => "|Chtml",
    });
    for (name, value) in req.cookies() {
        out.push(';');
        push_escaped(out, name);
        out.push('=');
        push_escaped(out, value);
    }
}

/// Appends `s`, writing each of the key's separators (`%`, `&`, `|`,
/// `;`, `=`) as `%` and two uppercase hex digits. A string holding none
/// of them is appended unchanged, so such keys keep their rendering and
/// their weight.
fn push_escaped(out: &mut String, mut s: &str) {
    const HEX: &[u8; 16] = b"0123456789ABCDEF";
    while let Some(i) = find_any(s.as_bytes(), [b'%', b'&', b'|', b';', b'=']) {
        let b = s.as_bytes()[i];
        out.push_str(&s[..i]);
        out.push('%');
        out.push(char::from(HEX[usize::from(b >> 4)]));
        out.push(char::from(HEX[usize::from(b & 0xf)]));
        s = &s[i + 1..];
    }
    out.push_str(s);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{ContentFormat, Method};
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::fmt::Write as _;

    /// The key `render_key` writes for `req`, as an owned string.
    fn rendered_key(req: &HttpRequest<'_>) -> String {
        let mut key = String::new();
        render_key(req, &mut key);
        key
    }

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
        let a = rendered_key(&get("/shop?x=1&y=2"));
        let b = rendered_key(&get("/shop?y=2&x=1"));
        assert_eq!(a, b, "query order does not change the key");
        let c = rendered_key(&get("/shop?x=1&y=3"));
        assert_ne!(a, c);
        let d = rendered_key(&get("/shop?x=1&y=2").with_cookie("sid", "s1"));
        assert_ne!(a, d, "cookies partition the key space");
    }

    #[test]
    fn separators_inside_fields_cannot_alias_keys() {
        // `/shop&a=1` is a path with no query; `/shop?a=1` has one
        // parameter. Unescaped, both rendered `Get /shop&a=1|Html`.
        let path = rendered_key(&get("/shop&a=1"));
        let query = rendered_key(&get("/shop?a=1"));
        assert_ne!(path, query);
        assert_eq!(
            query, "Get /shop&a=1|Html",
            "separator-free keys render as before"
        );
        assert_eq!(path, "Get /shop%26a%3D1|Html");
        // Cookie names and values escape too.
        let split = rendered_key(&get("/s").with_cookie("a", "1;b=2"));
        let two = rendered_key(&get("/s").with_cookie("a", "1").with_cookie("b", "2"));
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

    /// A request as it was before it became a view: an owned path and
    /// two `BTreeMap`s, built the way `HttpRequest::get`/`post` and the
    /// builders built them.
    struct OwnedModel {
        method: Method,
        path: String,
        params: BTreeMap<String, String>,
        cookies: BTreeMap<String, String>,
        auth: bool,
        accept: ContentFormat,
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
                accept: ContentFormat::Wml,
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

        /// The key as it was rendered through `fmt`: the method and the
        /// accept format by their `Debug` names.
        fn key(&self) -> String {
            let mut out = format!("{:?} ", self.method);
            push_escaped(&mut out, &self.path);
            for (name, value) in &self.params {
                out.push('&');
                push_escaped(&mut out, name);
                out.push('=');
                push_escaped(&mut out, value);
            }
            write!(out, "|{:?}", self.accept).unwrap();
            for (name, value) in &self.cookies {
                out.push(';');
                push_escaped(&mut out, name);
                out.push('=');
                push_escaped(&mut out, value);
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
        prop_assert_eq!(rendered_key(req), model.key());
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

    /// A request's parts: its URL, its form when it is a POST, its
    /// cookies and its accept format, drawn as the model test draws them.
    type Parts = (
        String,
        Option<Vec<(String, String)>>,
        Vec<(String, String)>,
        ContentFormat,
    );

    fn parts() -> impl Strategy<Value = Parts> {
        let formats = [
            ContentFormat::Html,
            ContentFormat::Wml,
            ContentFormat::Chtml,
        ];
        (
            "[/ab%]{0,4}",
            "(\\?[ab=&x?]{0,10})?",
            (any::<bool>(), pairs(5)),
            pairs(4),
            0..formats.len(),
        )
            .prop_map(move |(path, query, (post, form), cookies, accept)| {
                (
                    format!("{path}{query}"),
                    post.then_some(form),
                    cookies,
                    formats[accept],
                )
            })
    }

    fn request((url, form, cookies, accept): &Parts) -> HttpRequest<'_> {
        HttpRequest::borrowed(url, form.as_deref(), cookies, None).with_accept(*accept)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// A lookup of `b` after a store of `a` hits exactly when the two
        /// requests' keys are equal, and the entry is stored under the
        /// `FixedHasher` hash of its key. `b` is drawn afresh or is `a`
        /// with its form and cookies given in reverse, which keeps the
        /// key unless a name repeats. Keys render as the `fmt` renderer
        /// rendered them, method and accept format by `Debug` name.
        #[test]
        fn lookups_hit_exactly_when_keys_are_equal(
            a in parts(),
            b in parts(),
            reverse in any::<bool>(),
        ) {
            let b = if reverse {
                let (url, form, cookies, accept) = a.clone();
                let form = form.map(|f| f.into_iter().rev().collect());
                (url, form, cookies.into_iter().rev().collect(), accept)
            } else {
                b
            };
            let (ra, rb) = (request(&a), request(&b));
            let mut model = OwnedModel::new(&b.0, b.1.as_deref(), &b.2, false);
            model.accept = b.3;
            prop_assert_eq!(rendered_key(&rb), model.key());

            let mut cache = PageCache::new(u64::MAX, 1 << 20);
            cache.store(&ra, &resp("<html>a</html>"), 0);
            let key = rendered_key(&ra);
            let mut h = FixedHasher::default();
            h.write(key.as_bytes());
            prop_assert!(cache.entries.get(h.finish(), |k| *k == key, 1).is_some());
            prop_assert_eq!(
                cache.lookup(&rb, 2).is_some(),
                key == rendered_key(&rb)
            );
        }
    }
}
