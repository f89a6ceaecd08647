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
//! Like the host page cache it is a [`simnet::TtlLru`]: TTL in
//! simulated nanoseconds, LRU eviction under a byte budget over url plus
//! payload bytes. A lookup hashes the borrowed request fields and
//! compares them against stored keys, so it builds nothing. The device
//! class and middleware kind are the same on nearly every probe — every
//! station behind a gateway runs one device profile and middleware — so
//! the cache keeps their share of the hash from the last probe and
//! hashes only the url and cookies while they stay the same. The owned
//! key (four cloned strings) is built only when an exchange is stored,
//! and is freed with its entry. A hit clones the stored [`Exchange`],
//! whose payload is a refcounted `Bytes`, so re-serving a deck never
//! copies it.
//!
//! Admission policy: only form-free GETs carrying **no credentials** are
//! candidates, and only successful exchanges that set no cookies are
//! stored. Requests with basic-auth credentials are never cached — the
//! gateway must not answer for the host's auth realms, so every authed
//! request travels to the origin where the password is actually checked.
//! Cookied GETs *are* cached, partitioned per cookie set (cookies are
//! part of the key): sessions never alias, but a session's own revisits
//! hit.

use std::hash::{Hash as _, Hasher as _};

use simnet::{FixedHasher, SimDuration, TtlLru};

use crate::{Exchange, MobileRequest};

/// What a cached exchange is keyed by.
#[derive(Debug, Clone, PartialEq)]
struct ContentKey {
    /// Request URL (path + query).
    url: String,
    /// Device class the adaptation targeted (e.g. the device name) —
    /// different screens get different decks.
    device_class: String,
    /// Middleware kind that produced the adaptation ("WAP", "i-mode").
    middleware_kind: String,
    /// Cookies attached to the request; pages rendered for different
    /// cookie sets never alias.
    cookies: Vec<(String, String)>,
}

/// A device class and middleware kind, hashed: the hasher's state after
/// both, and where the two strings it was taken for live.
#[derive(Debug, Clone, Copy)]
struct ClassHash {
    /// Address and length of the device class and of the middleware
    /// kind. Two live strings at one address with one length are one
    /// string, so matching both means the state still holds.
    strings: [(usize, usize); 2],
    state: FixedHasher,
}

impl ClassHash {
    fn new(device_class: &str, middleware_kind: &str) -> Self {
        let mut state = FixedHasher::default();
        device_class.hash(&mut state);
        middleware_kind.hash(&mut state);
        ClassHash {
            strings: [place(device_class), place(middleware_kind)],
            state,
        }
    }
}

/// A string's address and length.
fn place(s: &str) -> (usize, usize) {
    (s.as_ptr() as usize, s.len())
}

/// Simulated CPU cost of a cache lookup at the gateway — far below any
/// translation cost, but not free.
pub(crate) const LOOKUP_COST: SimDuration = SimDuration::from_micros(40);

/// A TTL + LRU cache of adapted exchanges at the middleware gateway,
/// keyed by (url, device class, middleware kind, cookies).
#[derive(Debug)]
pub struct ContentCache {
    entries: TtlLru<ContentKey, Exchange>,
    /// The class of the last probe.
    class: Option<ClassHash>,
}

impl ContentCache {
    /// Creates a cache with the given TTL (simulated nanoseconds) and
    /// byte budget over url plus payload bytes.
    pub fn new(ttl_ns: u64, byte_budget: usize) -> Self {
        ContentCache {
            entries: TtlLru::new(ttl_ns, byte_budget),
            class: None,
        }
    }

    /// Hashes the key fields borrowed, the same way on every call, so a
    /// lookup never builds a [`ContentKey`]: the device class and
    /// middleware kind (hashed again only when they are not the last
    /// probe's), then the url and the cookies.
    fn hash_fields(
        &mut self,
        req: &MobileRequest,
        device_class: &str,
        middleware_kind: &str,
    ) -> u64 {
        let strings = [place(device_class), place(middleware_kind)];
        let class = match self.class {
            Some(class) if class.strings == strings => class,
            _ => *self
                .class
                .insert(ClassHash::new(device_class, middleware_kind)),
        };
        let mut h = class.state;
        req.url.hash(&mut h);
        req.cookies.hash(&mut h);
        h.finish()
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

    /// Returns the re-served exchange when a fresh entry exists for
    /// `req` as adapted by `middleware_kind` for `device_class` at
    /// `now_ns`: same payload and air-side byte counts, but zero wired
    /// bytes, zero host CPU, no extra round trips, and only
    /// `LOOKUP_COST` of middleware CPU. Allocation-free but for the
    /// clone a hit hands out.
    pub fn lookup(
        &mut self,
        req: &MobileRequest,
        device_class: &str,
        middleware_kind: &str,
        now_ns: u64,
    ) -> Option<Exchange> {
        let same_key = |k: &ContentKey| {
            k.url == req.url
                && k.device_class == device_class
                && k.middleware_kind == middleware_kind
                && k.cookies == req.cookies
        };
        let hash = self.hash_fields(req, device_class, middleware_kind);
        self.entries.get(hash, same_key, now_ns).map(|ex| Exchange {
            wired_bytes: (0, 0),
            host_cpu: SimDuration::ZERO,
            middleware_cpu: LOOKUP_COST,
            extra_round_trips: 0,
            ..ex.clone()
        })
    }

    /// Stores `ex` for `req` as adapted by `middleware_kind` for
    /// `device_class` (call [`ContentCache::cacheable_request`] and
    /// [`ContentCache::cacheable_exchange`] first), evicting LRU entries
    /// until the byte budget holds. Returns the number of evictions.
    pub fn store(
        &mut self,
        req: &MobileRequest,
        device_class: &str,
        middleware_kind: &str,
        ex: &Exchange,
        now_ns: u64,
    ) -> usize {
        let key = ContentKey {
            url: req.url.clone(),
            device_class: device_class.to_owned(),
            middleware_kind: middleware_kind.to_owned(),
            cookies: req.cookies.clone(),
        };
        let bytes = req.url.len() + ex.content.len();
        let hash = self.hash_fields(req, device_class, middleware_kind);
        self.entries.put(hash, key, ex.clone(), bytes, now_ns)
    }

    /// Number of live entries, each holding its key.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Url + payload bytes currently held.
    pub fn bytes(&self) -> usize {
        self.entries.weight()
    }

    /// Fresh lookups answered from the cache since construction.
    pub fn hits(&self) -> u64 {
        self.entries.hits()
    }

    /// Lookups that found nothing fresh since construction.
    pub fn misses(&self) -> u64 {
        self.entries.misses()
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

    fn get(url: &str) -> MobileRequest {
        MobileRequest::get(url)
    }

    #[test]
    fn hits_zero_the_wired_side_and_keep_the_air_side() {
        let mut cache = ContentCache::new(1_000, 10_000);
        let ex = exchange("deck");
        cache.store(&get("/shop"), "iPAQ", "WAP", &ex, 0);
        let hit = cache
            .lookup(&get("/shop"), "iPAQ", "WAP", 500)
            .expect("fresh hit");
        assert_eq!(hit.content, ex.content);
        assert_eq!(hit.downlink_bytes, ex.downlink_bytes);
        assert_eq!(hit.uplink_bytes, ex.uplink_bytes);
        assert_eq!(hit.wired_bytes, (0, 0));
        assert_eq!(hit.host_cpu, SimDuration::ZERO);
        assert_eq!(hit.middleware_cpu, LOOKUP_COST);
        assert_eq!(hit.extra_round_trips, 0);
        // Expired afterwards.
        assert!(cache.lookup(&get("/shop"), "iPAQ", "WAP", 1_500).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn entries_expire_at_exactly_the_ttl_boundary() {
        // Same boundary rule as the host page cache: fresh strictly
        // before `stored + ttl`, expired at it.
        let mut cache = ContentCache::new(1_000, 10_000);
        cache.store(&get("/shop"), "iPAQ", "WAP", &exchange("deck"), 0);
        assert!(
            cache.lookup(&get("/shop"), "iPAQ", "WAP", 999).is_some(),
            "one tick early: fresh"
        );
        assert!(
            cache.lookup(&get("/shop"), "iPAQ", "WAP", 1_000).is_none(),
            "probed at exactly stored + ttl: expired"
        );
        assert!(cache.is_empty(), "expired entry is dropped");
    }

    #[test]
    fn device_class_and_kind_partition_the_key_space() {
        let mut cache = ContentCache::new(u64::MAX / 2, 10_000);
        cache.store(&get("/shop"), "iPAQ", "WAP", &exchange("wap deck"), 0);
        assert!(cache.lookup(&get("/shop"), "iPAQ", "i-mode", 1).is_none());
        assert!(cache.lookup(&get("/shop"), "P503i", "WAP", 1).is_none());
        let mut cookied = get("/shop");
        cookied.cookies.push(("sid".into(), "s".into()));
        assert!(cache.lookup(&cookied, "iPAQ", "WAP", 1).is_none());
        assert!(cache.lookup(&get("/shop"), "iPAQ", "WAP", 1).is_some());
        assert_eq!(cache.len(), 1, "lookups hold no keys");
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
    fn lookups_of_unseen_keys_hold_nothing() {
        // Regression test for the unbounded-interner bug: a
        // high-cardinality query stream that is never stored leaves the
        // cache holding no key at all.
        let mut cache = ContentCache::new(u64::MAX / 2, 10_000);
        for i in 0..100_000u64 {
            let req = get(&format!("/search?q=term{i}"));
            assert!(cache.lookup(&req, "iPAQ", "WAP", 0).is_none());
        }
        assert!(cache.is_empty(), "lookups hold no keys");
        assert_eq!(cache.misses(), 100_000);
        cache.store(&get("/shop"), "iPAQ", "WAP", &exchange("deck"), 0);
        assert!(cache.lookup(&get("/shop"), "iPAQ", "WAP", 1).is_some());
        assert_eq!((cache.len(), cache.hits()), (1, 1));
    }

    #[test]
    fn lru_eviction_bounds_the_budget() {
        let mut cache = ContentCache::new(u64::MAX / 2, 24);
        cache.store(&get("/a"), "iPAQ", "WAP", &exchange("0123456789"), 0);
        cache.store(&get("/b"), "iPAQ", "WAP", &exchange("0123456789"), 1);
        assert!(cache.lookup(&get("/a"), "iPAQ", "WAP", 2).is_some());
        let evicted = cache.store(&get("/c"), "iPAQ", "WAP", &exchange("0123456789"), 3);
        assert_eq!(evicted, 1);
        assert!(cache.lookup(&get("/b"), "iPAQ", "WAP", 4).is_none());
        assert!(cache.lookup(&get("/a"), "iPAQ", "WAP", 4).is_some());
        assert!(cache.bytes() <= 24);
    }
}
