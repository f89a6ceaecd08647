//! The host web-server page cache.
//!
//! The paper's host computers "usually store and manage most of the
//! content" — and a production web server in that role fronts its
//! application programs with a page cache. This one is deterministic and
//! sim-time native: entries are keyed by the canonical request (method,
//! path, query, accept format, cookies), expire after a TTL
//! measured in simulated nanoseconds, and are bounded by a byte budget
//! with least-recently-used eviction driven by a logical tick counter —
//! no wall clock anywhere, so fleet runs stay bit-identical at any
//! thread count.
//!
//! Keys are interned: [`PageCache::intern`] hashes the borrowed request
//! fields (no allocation) and hands out a dense `u64` id; the canonical
//! rendered string is built once per distinct request shape and the
//! entry map is keyed by the id. A lookup therefore hashes eight bytes,
//! probes once (the expired path removes through the same probe instead
//! of a `get` + `remove` double hash), and a hit clones a response whose
//! body is a refcounted [`Body`] — a pointer bump, not a page copy.
//!
//! Only successful `GET` responses that set no cookies are stored;
//! `POST`s (which mutate the database and session state) always reach
//! the application program. Requests carrying basic-auth credentials
//! bypass the cache entirely — lookup *and* store — so every authed
//! request is re-validated against its auth realm ([`WebServer`] never
//! builds a key for them).
//!
//! [`Body`]: crate::http::Body
//! [`WebServer`]: crate::server::WebServer

use std::collections::hash_map::Entry as MapEntry;
use std::collections::HashMap;
use std::fmt;
use std::hash::Hasher as _;

use simnet::FixedState;

use crate::http::{HttpRequest, HttpResponse};
use crate::intern::{probe_hasher, HashWriter, KeyInterner, PrefixMatcher};

#[derive(Debug, Clone)]
struct Entry {
    resp: HttpResponse,
    stored_ns: u64,
    last_used: u64,
    bytes: usize,
}

/// A TTL + LRU page cache over interned canonical-request keys.
#[derive(Debug)]
pub struct PageCache {
    ttl_ns: u64,
    byte_budget: usize,
    interner: KeyInterner<String>,
    entries: HashMap<u64, Entry, FixedState>,
    bytes: usize,
    /// Logical LRU clock: bumped on every touch, so the eviction victim
    /// (minimum tick) is unique and deterministic.
    tick: u64,
    hits: u64,
    misses: u64,
}

impl PageCache {
    /// Creates a cache holding entries for `ttl_ns` simulated nanoseconds
    /// within a `byte_budget` of body bytes.
    pub fn new(ttl_ns: u64, byte_budget: usize) -> Self {
        PageCache {
            ttl_ns,
            byte_budget,
            interner: KeyInterner::new(),
            entries: HashMap::default(),
            bytes: 0,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Renders the canonical key for `req` into any writer. Query
    /// parameters and cookies live in `BTreeMap`s, so the rendering is
    /// order-stable. The same routine builds keys, hashes requests, and
    /// equality-checks probes, so the three can never drift apart.
    fn render_key(req: &HttpRequest, out: &mut impl fmt::Write) -> fmt::Result {
        write!(out, "{:?} {}", req.method, req.path)?;
        for (name, value) in &req.params {
            write!(out, "&{name}={value}")?;
        }
        write!(out, "|{:?}", req.accept)?;
        for (name, value) in &req.cookies {
            write!(out, ";{name}={value}")?;
        }
        Ok(())
    }

    /// The canonical cache key for a request, as an owned string.
    pub fn key(req: &HttpRequest) -> String {
        let mut key = String::new();
        Self::render_key(req, &mut key).expect("writing to a String cannot fail");
        key
    }

    /// Interns the canonical key for `req`, returning its dense id.
    ///
    /// Alloc-free for request shapes seen before: the request fields are
    /// hashed borrowed and compared against the stored canonical string
    /// without rendering.
    pub fn intern(&mut self, req: &HttpRequest) -> u64 {
        let mut h = probe_hasher();
        Self::render_key(req, &mut HashWriter(&mut h)).expect("hashing cannot fail");
        self.interner.intern_with(
            h.finish(),
            |k| {
                let mut m = PrefixMatcher::new(k);
                Self::render_key(req, &mut m).is_ok() && m.matched()
            },
            || Self::key(req),
        )
    }

    /// Looks up the interned id for `req` without interning: `None` when
    /// this request shape has never been *stored*. The lookup path uses
    /// this so one-shot shapes (distinct search query strings, pages the
    /// store policy rejects) never grow the interner — the cache holds
    /// flat memory under a high-cardinality key stream.
    pub fn probe(&self, req: &HttpRequest) -> Option<u64> {
        let mut h = probe_hasher();
        Self::render_key(req, &mut HashWriter(&mut h)).expect("hashing cannot fail");
        self.interner.probe_with(h.finish(), |k| {
            let mut m = PrefixMatcher::new(k);
            Self::render_key(req, &mut m).is_ok() && m.matched()
        })
    }

    /// Records a miss for a request whose key was never interned (the
    /// probe-based lookup path found no id, so [`PageCache::lookup`]
    /// never ran) — keeps the hit/miss accounting identical to a
    /// lookup-through-intern flow.
    pub fn record_miss(&mut self) {
        self.misses += 1;
    }

    /// Interns a pre-rendered key string (equivalent to [`PageCache::intern`]
    /// on the request it renders).
    pub fn intern_str(&mut self, key: &str) -> u64 {
        let mut h = probe_hasher();
        h.write(key.as_bytes());
        self.interner
            .intern_with(h.finish(), |k| k == key, || key.to_owned())
    }

    /// Returns the cached response when a fresh entry exists for the
    /// interned key `id` at `now_ns`. One probe serves hit, miss, and
    /// expiry alike; an expired entry is dropped through the same probe.
    pub fn lookup(&mut self, id: u64, now_ns: u64) -> Option<HttpResponse> {
        match self.entries.entry(id) {
            MapEntry::Occupied(mut occ) => {
                if now_ns.saturating_sub(occ.get().stored_ns) < self.ttl_ns {
                    self.hits += 1;
                    self.tick += 1;
                    occ.get_mut().last_used = self.tick;
                    Some(occ.get().resp.clone())
                } else {
                    let old = occ.remove();
                    self.bytes -= old.bytes;
                    self.misses += 1;
                    None
                }
            }
            MapEntry::Vacant(_) => {
                self.misses += 1;
                None
            }
        }
    }

    /// Stores a response under the interned key `id`, evicting
    /// least-recently-used entries until the byte budget holds. Returns
    /// how many entries were evicted. Responses larger than the whole
    /// budget are not stored.
    pub fn store(&mut self, id: u64, resp: &HttpResponse, now_ns: u64) -> usize {
        let bytes = self.interner.resolve(id).len() + resp.body.len();
        if bytes > self.byte_budget {
            return 0;
        }
        if let Some(old) = self.entries.remove(&id) {
            self.bytes -= old.bytes;
        }
        self.tick += 1;
        self.entries.insert(
            id,
            Entry {
                resp: resp.clone(),
                stored_ns: now_ns,
                last_used: self.tick,
                bytes,
            },
        );
        self.bytes += bytes;
        let mut evicted = 0;
        while self.bytes > self.byte_budget {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(id, _)| *id)
                .expect("over budget implies non-empty");
            let old = self.entries.remove(&victim).expect("victim exists");
            self.bytes -= old.bytes;
            evicted += 1;
        }
        evicted
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Body + key bytes currently held.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Distinct canonical keys ever interned (live or evicted).
    pub fn interned_keys(&self) -> usize {
        self.interner.len()
    }

    /// Fresh lookups answered from the cache since construction.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that found nothing fresh since construction.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resp(body: &str) -> HttpResponse {
        HttpResponse::ok(body.to_owned())
    }

    #[test]
    fn entries_expire_after_the_ttl() {
        let mut cache = PageCache::new(1_000, 10_000);
        let k = cache.intern_str("k");
        cache.store(k, &resp("<html><body>x</body></html>"), 0);
        assert!(cache.lookup(k, 999).is_some());
        assert!(cache.lookup(k, 1_000).is_none());
        assert!(cache.is_empty(), "expired entry is dropped");
    }

    #[test]
    fn lru_eviction_respects_the_byte_budget() {
        let mut cache = PageCache::new(u64::MAX, 60);
        let (a, b) = (cache.intern_str("a"), cache.intern_str("b"));
        cache.store(a, &resp("<html>aaaaaaaaaa</html>"), 0);
        cache.store(b, &resp("<html>bbbbbbbbbb</html>"), 0);
        // Touch "a" so "b" is the LRU victim.
        assert!(cache.lookup(a, 1).is_some());
        let c = cache.intern_str("c");
        let evicted = cache.store(c, &resp("<html>cccccccccc</html>"), 2);
        assert_eq!(evicted, 1);
        assert!(cache.lookup(a, 3).is_some());
        assert!(cache.lookup(b, 3).is_none());
        assert!(cache.lookup(c, 3).is_some());
        assert!(cache.bytes() <= 60);
    }

    #[test]
    fn oversized_responses_are_not_stored() {
        let mut cache = PageCache::new(u64::MAX, 10);
        let k = cache.intern_str("k");
        let evicted = cache.store(k, &resp(&"x".repeat(100)), 0);
        assert_eq!(evicted, 0);
        assert!(cache.is_empty());
    }

    #[test]
    fn keys_are_canonical_over_request_fields() {
        let a = PageCache::key(&HttpRequest::get("/shop?x=1&y=2"));
        let b = PageCache::key(&HttpRequest::get("/shop?y=2&x=1"));
        assert_eq!(a, b, "query order does not change the key");
        let c = PageCache::key(&HttpRequest::get("/shop?x=1&y=3"));
        assert_ne!(a, c);
        let d = PageCache::key(&HttpRequest::get("/shop?x=1&y=2").with_cookie("sid", "s1"));
        assert_ne!(a, d, "cookies partition the key space");
    }

    #[test]
    fn interned_request_ids_match_rendered_key_ids() {
        let mut cache = PageCache::new(u64::MAX, 10_000);
        let req = HttpRequest::get("/shop?x=1&y=2").with_cookie("sid", "s1");
        let by_req = cache.intern(&req);
        let by_str = cache.intern_str(&PageCache::key(&req));
        assert_eq!(by_req, by_str, "both intern paths agree on the id");
        assert_eq!(cache.interned_keys(), 1, "no duplicate key was created");
        let other = cache.intern(&HttpRequest::get("/shop?x=1&y=3"));
        assert_ne!(by_req, other);
    }

    #[test]
    fn hits_share_the_body_allocation() {
        let mut cache = PageCache::new(u64::MAX, 10_000);
        let k = cache.intern_str("k");
        cache.store(k, &resp("<html><body>big page</body></html>"), 0);
        let a = cache.lookup(k, 1).expect("hit");
        let b = cache.lookup(k, 2).expect("hit");
        // Refcounted bodies: both hits read the same buffer.
        assert_eq!(a.body.as_bytes_buf().as_ref().as_ptr(), b.body.as_bytes_buf().as_ref().as_ptr());
    }
}
