//! The gateway content cache.
//!
//! WAP gateway deployments cached adapted decks so repeat visits from
//! the same device class were served without re-contacting the origin
//! host or re-running the WML translation. This cache memoizes whole
//! [`Exchange`]s per (url, device class, middleware kind, cookies): a
//! fresh hit re-serves the adapted payload with zero wired bytes, zero
//! host CPU and a fixed small lookup cost, while the over-the-air legs
//! still run (the station is no closer to the gateway than before).
//!
//! Like the host page cache it is deterministic and sim-time native:
//! TTL in simulated nanoseconds, LRU eviction under a byte budget driven
//! by a logical tick counter. And like the host page cache its keys are
//! interned: [`ContentCache::intern`] hashes the borrowed request
//! fields, hands out a dense `u64` id, and only builds an owned
//! [`ContentKey`] (four cloned strings) the first time a shape is seen.
//! Lookups hash eight bytes and probe the entry map once — the expired
//! path removes through the same probe. A hit clones the stored
//! [`Exchange`], whose payload is a refcounted `Bytes`, so re-serving a
//! deck never copies it.
//!
//! Admission policy: only form-free GETs carrying **no credentials** are
//! candidates, and only successful exchanges that set no cookies are
//! stored. Requests with basic-auth credentials are never cached — the
//! gateway must not answer for the host's auth realms, so every authed
//! request travels to the origin where the password is actually checked.
//! Cookied GETs *are* cached, partitioned per cookie set (cookies are
//! part of [`ContentKey`]): sessions never alias, but a session's own
//! revisits hit.

use std::collections::hash_map::Entry as MapEntry;
use std::collections::HashMap;
use std::hash::{Hash as _, Hasher as _};

use hostsite::intern::{probe_hasher, KeyInterner};
use simnet::{FixedState, SimDuration};

use crate::{Exchange, MobileRequest};

/// What a cached exchange is keyed by.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ContentKey {
    /// Request URL (path + query).
    pub url: String,
    /// Device class the adaptation targeted (e.g. the device name) —
    /// different screens get different decks.
    pub device_class: String,
    /// Middleware kind that produced the adaptation ("WAP", "i-mode").
    pub middleware_kind: String,
    /// Cookies attached to the request; pages rendered for different
    /// cookie sets never alias.
    pub cookies: Vec<(String, String)>,
}

impl ContentKey {
    /// Builds the key for `req` as adapted by `middleware_kind` for
    /// `device_class`.
    pub fn for_request(req: &MobileRequest, device_class: &str, middleware_kind: &str) -> Self {
        ContentKey {
            url: req.url.clone(),
            device_class: device_class.to_owned(),
            middleware_kind: middleware_kind.to_owned(),
            cookies: req.cookies.clone(),
        }
    }
}

/// Hashes the key fields borrowed — the probe-side twin of
/// [`ContentKey`]'s derived `Hash`, fed identically on every call so
/// interner probes for equal shapes always land in one bucket.
fn hash_fields(url: &str, device_class: &str, middleware_kind: &str, cookies: &[(String, String)]) -> u64 {
    let mut h = probe_hasher();
    url.hash(&mut h);
    device_class.hash(&mut h);
    middleware_kind.hash(&mut h);
    cookies.hash(&mut h);
    h.finish()
}

#[derive(Debug, Clone)]
struct Entry {
    exchange: Exchange,
    stored_ns: u64,
    last_used: u64,
    bytes: usize,
}

/// Simulated CPU cost of a cache lookup at the gateway — far below any
/// translation cost, but not free.
pub const LOOKUP_COST: SimDuration = SimDuration::from_micros(40);

/// A TTL + LRU cache of adapted exchanges at the middleware gateway,
/// keyed by interned [`ContentKey`] ids.
#[derive(Debug)]
pub struct ContentCache {
    ttl_ns: u64,
    byte_budget: usize,
    interner: KeyInterner<ContentKey>,
    entries: HashMap<u64, Entry, FixedState>,
    bytes: usize,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl ContentCache {
    /// Creates a cache with the given TTL (simulated nanoseconds) and
    /// byte budget over cached payload bytes.
    pub fn new(ttl_ns: u64, byte_budget: usize) -> Self {
        ContentCache {
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

    /// True when `req` is even a candidate for caching: form-free GETs
    /// without credentials. Authed requests must always reach the host's
    /// auth realm — serving (or capturing) protected pages at the
    /// gateway would let a later request with missing or wrong
    /// credentials read them.
    pub fn cacheable_request(req: &MobileRequest) -> bool {
        req.form.is_none() && req.auth.is_none()
    }

    /// True when `ex` may be stored: a successful exchange that set no
    /// cookies (cookie-minting responses are per-client) and was not
    /// marked `no-store` by the host (one-shot search results would
    /// churn the hot pages out of the LRU without ever revisiting).
    pub fn cacheable_exchange(ex: &Exchange) -> bool {
        ex.status.is_success() && ex.set_cookies.is_empty() && !ex.no_store
    }

    /// Interns the key for `req` as adapted by `middleware_kind` for
    /// `device_class`, returning its dense id. Alloc-free for shapes
    /// seen before: fields are hashed and compared borrowed, and the
    /// owned [`ContentKey`] is only built on first sight.
    pub fn intern(&mut self, req: &MobileRequest, device_class: &str, middleware_kind: &str) -> u64 {
        let hash = hash_fields(&req.url, device_class, middleware_kind, &req.cookies);
        self.interner.intern_with(
            hash,
            |k| {
                k.url == req.url
                    && k.device_class == device_class
                    && k.middleware_kind == middleware_kind
                    && k.cookies == req.cookies
            },
            || ContentKey::for_request(req, device_class, middleware_kind),
        )
    }

    /// Looks up the interned id for `req` without interning: `None` when
    /// this shape has never been *stored*. The gateway probes on lookup
    /// and interns only at store time, so a high-cardinality key stream
    /// (distinct search query URLs) holds the interner flat.
    pub fn probe(&self, req: &MobileRequest, device_class: &str, middleware_kind: &str) -> Option<u64> {
        let hash = hash_fields(&req.url, device_class, middleware_kind, &req.cookies);
        self.interner.probe_with(hash, |k| {
            k.url == req.url
                && k.device_class == device_class
                && k.middleware_kind == middleware_kind
                && k.cookies == req.cookies
        })
    }

    /// Records a miss for a request whose key was never interned (the
    /// probe found no id, so [`ContentCache::lookup`] never ran) — keeps
    /// hit/miss accounting identical to a lookup-through-intern flow.
    pub fn record_miss(&mut self) {
        self.misses += 1;
    }

    /// Interns an already-built [`ContentKey`] (equivalent to
    /// [`ContentCache::intern`] on the request it was built from).
    pub fn intern_key(&mut self, key: &ContentKey) -> u64 {
        let hash = hash_fields(&key.url, &key.device_class, &key.middleware_kind, &key.cookies);
        self.interner
            .intern_with(hash, |k| k == key, || key.clone())
    }

    /// Returns the re-served exchange when a fresh entry exists for the
    /// interned key `id` at `now_ns`: same payload and air-side byte
    /// counts, but zero wired bytes, zero host CPU, no extra round
    /// trips, and only [`LOOKUP_COST`] of middleware CPU. One probe
    /// serves hit, miss, and expiry alike.
    pub fn lookup(&mut self, id: u64, now_ns: u64) -> Option<Exchange> {
        match self.entries.entry(id) {
            MapEntry::Occupied(mut occ) => {
                if now_ns.saturating_sub(occ.get().stored_ns) < self.ttl_ns {
                    self.hits += 1;
                    self.tick += 1;
                    occ.get_mut().last_used = self.tick;
                    let mut ex = occ.get().exchange.clone();
                    ex.wired_bytes = (0, 0);
                    ex.host_cpu = SimDuration::ZERO;
                    ex.middleware_cpu = LOOKUP_COST;
                    ex.extra_round_trips = 0;
                    Some(ex)
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

    /// Stores an exchange under the interned key `id` (call
    /// [`ContentCache::cacheable_request`] and
    /// [`ContentCache::cacheable_exchange`] first), evicting LRU entries
    /// until the byte budget holds. Returns the number of evictions.
    pub fn store(&mut self, id: u64, ex: &Exchange, now_ns: u64) -> usize {
        let bytes = self.interner.resolve(id).url.len() + ex.content.len();
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
                exchange: ex.clone(),
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

    /// Drops every entry (e.g. when the gateway is reconfigured). Key
    /// ids survive — re-admissions after a flush reuse them.
    pub fn flush(&mut self) {
        self.entries.clear();
        self.bytes = 0;
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Payload + key bytes currently held.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Distinct keys ever interned (live or evicted).
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

    /// Hit rate over all lookups so far (0 when never consulted).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AirFormat;
    use bytes::Bytes;
    use hostsite::Status;

    fn exchange(body: &str) -> Exchange {
        Exchange {
            status: Status::Ok,
            content: Bytes::copy_from_slice(body.as_bytes()),
            format: AirFormat::WmlBinary,
            uplink_bytes: 40,
            downlink_bytes: body.len() + 8,
            wired_bytes: (120, body.len() * 3),
            middleware_cpu: SimDuration::from_micros(450),
            host_cpu: SimDuration::from_micros(2_500),
            extra_round_trips: 1,
            no_store: false,
            set_cookies: Vec::new(),
            deck: None,
        }
    }

    fn key(url: &str) -> ContentKey {
        ContentKey::for_request(&MobileRequest::get(url), "iPAQ", "WAP")
    }

    #[test]
    fn hits_zero_the_wired_side_and_keep_the_air_side() {
        let mut cache = ContentCache::new(1_000, 10_000);
        let ex = exchange("deck");
        let id = cache.intern_key(&key("/shop"));
        cache.store(id, &ex, 0);
        let hit = cache.lookup(id, 500).expect("fresh hit");
        assert_eq!(hit.content, ex.content);
        assert_eq!(hit.downlink_bytes, ex.downlink_bytes);
        assert_eq!(hit.uplink_bytes, ex.uplink_bytes);
        assert_eq!(hit.wired_bytes, (0, 0));
        assert_eq!(hit.host_cpu, SimDuration::ZERO);
        assert_eq!(hit.middleware_cpu, LOOKUP_COST);
        assert_eq!(hit.extra_round_trips, 0);
        // Expired afterwards.
        assert!(cache.lookup(id, 1_500).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn entries_expire_at_exactly_the_ttl_boundary() {
        // Same boundary rule as the host page cache and the DB query
        // cache: fresh strictly before `stored + ttl`, expired at it.
        let mut cache = ContentCache::new(1_000, 10_000);
        let id = cache.intern_key(&key("/shop"));
        cache.store(id, &exchange("deck"), 0);
        assert!(cache.lookup(id, 999).is_some(), "one tick early: fresh");
        assert!(
            cache.lookup(id, 1_000).is_none(),
            "probed at exactly stored + ttl: expired"
        );
        assert!(cache.is_empty(), "expired entry is dropped");
    }

    #[test]
    fn device_class_and_kind_partition_the_key_space() {
        let mut cache = ContentCache::new(u64::MAX / 2, 10_000);
        let id = cache.intern_key(&key("/shop"));
        cache.store(id, &exchange("wap deck"), 0);
        let imode = cache.intern(&MobileRequest::get("/shop"), "iPAQ", "i-mode");
        assert!(cache.lookup(imode, 1).is_none());
        let other_device = cache.intern(&MobileRequest::get("/shop"), "P503i", "WAP");
        assert!(cache.lookup(other_device, 1).is_none());
        let cookied = cache.intern(
            &MobileRequest::get("/shop").with_cookie("sid", "s"),
            "iPAQ",
            "WAP",
        );
        assert!(cache.lookup(cookied, 1).is_none());
        assert_eq!(cache.interned_keys(), 4, "four distinct shapes");
    }

    #[test]
    fn interned_request_ids_match_built_key_ids() {
        let mut cache = ContentCache::new(u64::MAX / 2, 10_000);
        let req = MobileRequest::get("/shop?x=1").with_cookie("sid", "s");
        let by_req = cache.intern(&req, "iPAQ", "WAP");
        let by_key = cache.intern_key(&ContentKey::for_request(&req, "iPAQ", "WAP"));
        assert_eq!(by_req, by_key);
        assert_eq!(cache.interned_keys(), 1);
    }

    #[test]
    fn only_clean_get_exchanges_are_cacheable() {
        assert!(ContentCache::cacheable_request(&MobileRequest::get("/a")));
        assert!(!ContentCache::cacheable_request(&MobileRequest::post(
            "/a",
            vec![]
        )));
        // Credential-carrying requests never enter the cache: the host's
        // auth realm must see every one of them.
        assert!(!ContentCache::cacheable_request(
            &MobileRequest::get("/ward/patient").with_auth("nurse", "secret")
        ));
        let mut ex = exchange("x");
        assert!(ContentCache::cacheable_exchange(&ex));
        ex.set_cookies.push(("sid".into(), "s".into()));
        assert!(!ContentCache::cacheable_exchange(&ex));
        let mut failed = exchange("x");
        failed.status = Status::NotFound;
        assert!(!ContentCache::cacheable_exchange(&failed));
        // `no_store` responses (search results) bypass admission even
        // when everything else about the exchange is clean.
        let mut search = exchange("x");
        search.no_store = true;
        assert!(!ContentCache::cacheable_exchange(&search));
    }

    #[test]
    fn probing_unseen_keys_never_grows_the_interner() {
        // Regression test for the unbounded-interner bug: lookups probe
        // for an id and only stores intern, so a high-cardinality query
        // stream leaves the interner exactly as large as the set of
        // exchanges actually admitted.
        let mut cache = ContentCache::new(u64::MAX / 2, 10_000);
        for i in 0..100_000u64 {
            let req = MobileRequest::get(&format!("/search?q=term{i}"));
            assert!(cache.probe(&req, "iPAQ", "WAP").is_none());
            cache.record_miss();
        }
        assert_eq!(cache.interned_keys(), 0, "probes intern nothing");
        assert_eq!(cache.misses(), 100_000);
        // A stored exchange interns once and probes back to the same id.
        let req = MobileRequest::get("/shop");
        let id = cache.intern(&req, "iPAQ", "WAP");
        cache.store(id, &exchange("deck"), 0);
        assert_eq!(cache.probe(&req, "iPAQ", "WAP"), Some(id));
        assert_eq!(cache.interned_keys(), 1);
    }

    #[test]
    fn lru_eviction_bounds_the_budget() {
        let mut cache = ContentCache::new(u64::MAX / 2, 24);
        let (a, b) = (cache.intern_key(&key("/a")), cache.intern_key(&key("/b")));
        cache.store(a, &exchange("0123456789"), 0);
        cache.store(b, &exchange("0123456789"), 1);
        assert!(cache.lookup(a, 2).is_some());
        let c = cache.intern_key(&key("/c"));
        let evicted = cache.store(c, &exchange("0123456789"), 3);
        assert_eq!(evicted, 1);
        assert!(cache.lookup(b, 4).is_none());
        assert!(cache.lookup(a, 4).is_some());
        assert!(cache.bytes() <= 24);
    }
}
