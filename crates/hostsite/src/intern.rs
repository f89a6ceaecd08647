//! Canonical-key interning for the caching tiers.
//!
//! Every cache in the system — the host page cache, the gateway content
//! cache, the database query cache — used to build an owned key (a
//! `format!`ed `String` or a struct of cloned fields) on **every**
//! lookup, then hash that key again inside `HashMap`. At fleet scale
//! that is one allocation plus a full re-hash per transaction per tier,
//! for keys drawn from a tiny set of distinct request shapes.
//!
//! [`KeyInterner`] gives each distinct canonical key a dense `u64` id,
//! computed once: callers hash the *borrowed* request fields (no
//! allocation), probe with a caller-supplied equality closure against
//! the stored canonical key, and only materialise an owned key the first
//! time a shape is seen. Cache maps are then keyed by the `u64` id, so
//! steady-state lookups are alloc-free and hash eight bytes instead of a
//! rendered string.
//!
//! Determinism: ids are assigned in first-seen order, which is itself a
//! deterministic function of the (deterministic) simulation. Nothing
//! observable depends on the numeric id values — they never leave the
//! cache that minted them — so interning cannot perturb fleet
//! byte-identity across thread counts.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::Hasher;

use simnet::FixedState;

/// Interns canonical cache keys of type `K`, handing out dense `u64` ids.
///
/// The interner never forgets a key: ids are stable for the lifetime of
/// the cache that owns it, so an entry evicted and re-admitted reuses
/// its id (and the re-admission pays no key construction either).
/// Because of that, callers must only intern keys they intend to store —
/// lookups use [`KeyInterner::probe_with`], which never grows the table,
/// so a stream of never-revisiting keys (distinct search queries) holds
/// flat memory.
#[derive(Debug)]
pub struct KeyInterner<K> {
    /// hash of the canonical key → ids of keys with that hash.
    buckets: HashMap<u64, Vec<u64>, FixedState>,
    /// id → canonical key, densely indexed.
    keys: Vec<K>,
}

impl<K> Default for KeyInterner<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K> KeyInterner<K> {
    /// An empty interner.
    pub fn new() -> Self {
        KeyInterner {
            buckets: HashMap::default(),
            keys: Vec::new(),
        }
    }

    /// Returns the id for the key described by (`hash`, `eq`), interning
    /// it via `make` on first sight.
    ///
    /// `hash` must be computed consistently for probes that `eq` would
    /// call equal (same hashing scheme on every call — the interner
    /// never re-hashes stored keys itself). `eq` is called with stored
    /// candidate keys sharing `hash`; `make` runs at most once.
    pub fn intern_with(
        &mut self,
        hash: u64,
        mut eq: impl FnMut(&K) -> bool,
        make: impl FnOnce() -> K,
    ) -> u64 {
        let KeyInterner { buckets, keys } = self;
        let ids = buckets.entry(hash).or_default();
        for &id in ids.iter() {
            if eq(&keys[id as usize]) {
                return id;
            }
        }
        let id = keys.len() as u64;
        keys.push(make());
        ids.push(id);
        id
    }

    /// Looks up the id for the key described by (`hash`, `eq`) without
    /// interning it: `None` when the key has never been seen.
    ///
    /// This is the lookup half of [`KeyInterner::intern_with`], for
    /// callers that must not let unseen keys grow the interner — a
    /// high-cardinality key space (distinct search query strings) would
    /// otherwise intern a key per probe and never free it. Caches probe
    /// on lookup and intern only when they actually store.
    pub fn probe_with(&self, hash: u64, mut eq: impl FnMut(&K) -> bool) -> Option<u64> {
        self.buckets
            .get(&hash)?
            .iter()
            .copied()
            .find(|&id| eq(&self.keys[id as usize]))
    }

    /// The canonical key for `id`.
    ///
    /// # Panics
    ///
    /// Panics when `id` was not handed out by this interner.
    pub fn resolve(&self, id: u64) -> &K {
        &self.keys[id as usize]
    }

    /// Number of distinct keys interned.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

/// A fresh hasher with fixed (process-stable) keys for interner probes.
///
/// `DefaultHasher::new()` is specified to produce the same stream for
/// the same input bytes within a process, which is all the interner
/// needs — hashes never cross process or thread boundaries.
pub fn probe_hasher() -> DefaultHasher {
    DefaultHasher::new()
}

/// A [`fmt::Write`] sink that feeds written text into a [`Hasher`].
///
/// Lets a cache hash its canonical *rendering* of a request without
/// materialising the rendered string: the same render function that
/// would build the key streams through this instead.
pub struct HashWriter<'a, H: Hasher>(pub &'a mut H);

impl<H: Hasher> fmt::Write for HashWriter<'_, H> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.write(s.as_bytes());
        Ok(())
    }
}

/// A [`fmt::Write`] sink that *matches* written text against a stored
/// string instead of building one.
///
/// Rendering a request into a `PrefixMatcher` over a candidate key
/// checks "would this request render to exactly that key" with zero
/// allocation: each written chunk must be the next prefix of the
/// remainder, and [`PrefixMatcher::matched`] requires the remainder to
/// be fully consumed.
pub struct PrefixMatcher<'a> {
    rest: &'a str,
}

impl<'a> PrefixMatcher<'a> {
    /// Starts matching against `candidate`.
    pub fn new(candidate: &'a str) -> Self {
        PrefixMatcher { rest: candidate }
    }

    /// True when everything written so far equals the full candidate.
    pub fn matched(&self) -> bool {
        self.rest.is_empty()
    }
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
    use std::fmt::Write as _;

    fn hash_str(s: &str) -> u64 {
        let mut h = probe_hasher();
        h.write(s.as_bytes());
        h.finish()
    }

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut interner: KeyInterner<String> = KeyInterner::new();
        let a = interner.intern_with(hash_str("alpha"), |k| k == "alpha", || "alpha".to_owned());
        let b = interner.intern_with(hash_str("beta"), |k| k == "beta", || "beta".to_owned());
        let a2 = interner.intern_with(hash_str("alpha"), |k| k == "alpha", || {
            panic!("make must not run for a known key")
        });
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!((a, b), (0, 1), "ids are dense in first-seen order");
        assert_eq!(interner.resolve(a), "alpha");
        assert_eq!(interner.len(), 2);
    }

    #[test]
    fn colliding_hashes_still_separate_by_equality() {
        let mut interner: KeyInterner<String> = KeyInterner::new();
        // Force both keys into one bucket.
        let a = interner.intern_with(7, |k| k == "x", || "x".to_owned());
        let b = interner.intern_with(7, |k| k == "y", || "y".to_owned());
        assert_ne!(a, b);
        assert_eq!(interner.resolve(b), "y");
    }

    #[test]
    fn prefix_matcher_requires_exact_rendering() {
        let mut m = PrefixMatcher::new("GET /shop");
        assert!(write!(m, "GET").is_ok());
        assert!(write!(m, " /shop").is_ok());
        assert!(m.matched());

        let mut m = PrefixMatcher::new("GET /shop");
        assert!(write!(m, "GET /shopping").is_err(), "overlong write diverges");

        let mut m = PrefixMatcher::new("GET /shop");
        assert!(write!(m, "GET ").is_ok());
        assert!(!m.matched(), "unconsumed remainder is not a match");
    }

    #[test]
    fn hash_writer_matches_whole_buffer_hashing() {
        let mut h1 = probe_hasher();
        let mut w = HashWriter(&mut h1);
        let path = "/shop?x=1"; // runtime arg => the write arrives in chunks
        let _ = write!(w, "GET {path}");
        let mut h2 = probe_hasher();
        h2.write(b"GET /shop?x=1");
        assert_eq!(h1.finish(), h2.finish(), "chunked writes hash like one");
    }
}
