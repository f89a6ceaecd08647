//! Body-keyed memos of pure functions, with an identity check in front
//! of the content hash.
//!
//! Several pipeline stages are pure functions of a payload's exact
//! bytes and a small mode key: the gateway's translation of a host body,
//! the browser's render of a deck. A fleet shard sees the same handful
//! of payloads millions of times, so [`BodyMemo`] caches the result
//! keyed by `(mode, body bytes)` and replays it on every later probe.
//!
//! # The identity check
//!
//! Hashing the key costs a pass over the whole body (10 KB for a
//! storefront page), yet a repeated body usually arrives as the *same*
//! refcounted [`Bytes`] slice: a cache hit hands out clones of one
//! allocation. So before hashing the content, a probe looks its slice up
//! by `(mode, address, length)` among the slices the memo holds as
//! entry keys. A held slice is pinned by its entry, which is never
//! removed, so its memory cannot be freed and reused: a probe with the
//! same address and length is the same immutable bytes, and the lookup
//! is a hit with that entry's value. A slice is indexed by address the
//! first time it is probed again after its insert; an equal body in
//! another allocation still hits by content, but is neither indexed nor
//! pinned, so one-off copies (one per user in private worlds) cost
//! nothing. Aliases are insert-only and never outnumber the entries, so
//! hits, misses and returned values stay exactly those of the
//! content-keyed lookup.
//!
//! # Bounded residency
//!
//! Distinct bodies stop being inserted once [`BodyMemo::capacity`]
//! entries are held (workloads with per-user receipts would otherwise
//! grow O(users)); the hot handful of shared pages is inserted first and
//! stays for the memo's lifetime.

use std::collections::HashMap;
use std::hash::Hash;

use bytes::Bytes;

use crate::FixedState;

/// Default bound on distinct bodies a [`BodyMemo`] holds.
pub(crate) const DEFAULT_MEMO_CAPACITY: usize = 512;

/// A bounded memo of pure results keyed by `(mode, body bytes)`.
#[derive(Debug)]
pub struct BodyMemo<K, V> {
    entries: HashMap<(K, Bytes), V, FixedState>,
    /// `(mode, address, length)` of held slices that have been probed
    /// again; the slices themselves stay pinned as `entries` keys.
    aliases: HashMap<(K, usize, usize), V, FixedState>,
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl<K: Copy + Eq + Hash, V: Clone> Default for BodyMemo<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Copy + Eq + Hash, V: Clone> BodyMemo<K, V> {
    /// A memo bounded at `DEFAULT_MEMO_CAPACITY` distinct bodies.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_MEMO_CAPACITY)
    }

    /// A memo bounded at `capacity` distinct bodies.
    pub fn with_capacity(capacity: usize) -> Self {
        BodyMemo {
            entries: HashMap::default(),
            aliases: HashMap::default(),
            capacity,
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up the result for `body` under `mode`: first by slice
    /// identity, then by content. A content hit on the very slice an
    /// entry holds (same address and length) indexes that slice by
    /// address, so its later probes skip the hash.
    pub fn get(&mut self, mode: K, body: &Bytes) -> Option<V> {
        let alias = (mode, body.as_ptr() as usize, body.len());
        if let Some(value) = self.aliases.get(&alias) {
            self.hits += 1;
            return Some(value.clone());
        }
        // The tuple key needs an owned `Bytes`, which is only a refcount
        // bump — the body bytes themselves are never copied.
        let Some(((_, held), value)) = self.entries.get_key_value(&(mode, body.clone())) else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        let value = value.clone();
        if held.as_ptr() == body.as_ptr() {
            // Equal content at the same address is the held slice itself,
            // pinned by `entries`: at most one alias per entry.
            self.aliases.insert(alias, value.clone());
        }
        Some(value)
    }

    /// Stores a result. A no-op once the capacity bound is reached, so
    /// per-user unique bodies cannot grow the memo O(users).
    pub fn insert(&mut self, mode: K, body: Bytes, value: V) {
        if self.entries.len() < self.capacity {
            self.entries.insert((mode, body), value);
        }
    }

    /// The bound on distinct bodies held (aliases never outnumber them).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Distinct bodies currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the memo holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Slices currently answered by identity.
    pub fn aliases(&self) -> usize {
        self.aliases.len()
    }

    /// Lookups answered from the memo.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_repeated_slice_hits_by_identity() {
        let mut memo = BodyMemo::<u8, &str>::with_capacity(4);
        let body = Bytes::from_static(b"<wml/>");
        assert_eq!(memo.get(0, &body), None);
        memo.insert(0, body.clone(), "deck");
        assert_eq!(memo.get(0, &body), Some("deck"));
        assert_eq!(memo.aliases(), 1);
        assert_eq!(memo.get(0, &body.clone()), Some("deck"));
        assert_eq!(memo.aliases(), 1, "the same slice aliases once");
        // Equal content in another allocation: a content hit, no alias.
        let copy = Bytes::copy_from_slice(b"<wml/>");
        assert_eq!(memo.get(0, &copy), Some("deck"));
        assert_eq!(memo.get(0, &copy), Some("deck"));
        assert_eq!(memo.aliases(), 1);
        // Same address, other mode: not an alias.
        assert_eq!(memo.get(1, &body), None);
        assert_eq!((memo.hits(), memo.misses()), (4, 2));
    }
}
