//! One TTL + LRU cache for every caching tier.
//!
//! The gateway's content cache, the host's page cache and the host
//! database's query cache and search memo all follow one policy, so they
//! share one implementation: [`TtlLru`]. What stays with each tier is
//! only what is its own — how it renders and hashes a key, what an
//! entry weighs, what a hit hands back.
//!
//! # Lookups allocate nothing
//!
//! A lookup never builds an owned key. The caller hashes the *borrowed*
//! request fields and passes an equality closure that compares them
//! against a stored key; [`TtlLru::get`] probes one map from hash to
//! slot, then indexes the slot directly. An owned key is built only by
//! [`TtlLru::put`], and each entry owns its key, so a key is freed
//! whenever its entry goes: expired, evicted, retained away or cleared.
//! The cache's memory, keys included, is bounded by what it holds.
//!
//! # One expiry rule, one victim rule
//!
//! An entry stored at `t` is fresh while `now − t < ttl` (so expired at
//! exactly `t + ttl`), judged in simulated nanoseconds; an expired entry
//! is dropped by the lookup that finds it. Entries weigh what their
//! owner says; when a put takes the held weight over the budget, the
//! least-recently-used entries go, found by a linear scan for the
//! smallest logical tick. Every hit and every put takes a fresh tick,
//! so the victim is unique and never depends on iteration order — no
//! wall clock anywhere, so fleet runs stay bit-identical at any thread
//! count.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The hasher of [`TtlLru`]'s hash-to-slot map. Its keys are already
/// hashes the caller computed, so it hands them through instead of
/// hashing them again. Like [`crate::FixedState`] it is the same in
/// every process, and like it, it relies on the caller's keys being
/// ones the simulator generates, never crafted outside input.
#[derive(Debug, Clone, Copy, Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    /// Only `u64` keys are hashed, through [`Hasher::write_u64`]; other
    /// input is folded in byte by byte.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }
}

/// One cached value and its bookkeeping.
#[derive(Debug, Clone)]
struct Slot<K, V> {
    key: K,
    value: V,
    hash: u64,
    /// The next slot whose key has the same hash.
    next: Option<usize>,
    stored_ns: u64,
    last_used: u64,
    weight: usize,
}

/// A TTL + LRU cache whose entries own their keys.
///
/// ```
/// use simnet::cache::TtlLru;
///
/// let mut cache: TtlLru<String, u32> = TtlLru::new(1_000, 10);
/// let hash = 42; // any hash computed the same way for equal keys
/// assert_eq!(cache.get(hash, |k| k == "a", 0), None);
/// assert_eq!(cache.put(hash, "a".to_owned(), 7, 1, 0), 0);
/// assert_eq!(cache.get(hash, |k| k == "a", 999), Some(&7));
/// assert_eq!(cache.get(hash, |k| k == "a", 1_000), None, "expired at stored + ttl");
/// assert!(cache.is_empty(), "the expired entry went with its key");
/// ```
#[derive(Debug, Clone)]
pub struct TtlLru<K, V> {
    ttl_ns: u64,
    budget: usize,
    /// Key hash → first slot of that hash's chain.
    heads: HashMap<u64, usize, BuildHasherDefault<PassThrough>>,
    /// Live entries, densely packed.
    slots: Vec<Slot<K, V>>,
    weight: usize,
    /// Logical LRU clock, bumped on every hit and put.
    tick: u64,
    hits: u64,
    misses: u64,
}

impl<K, V> TtlLru<K, V> {
    /// An empty cache keeping entries for `ttl_ns` simulated nanoseconds
    /// within `budget` units of weight. Allocates nothing until the first
    /// put.
    pub fn new(ttl_ns: u64, budget: usize) -> Self {
        TtlLru {
            ttl_ns,
            budget,
            heads: HashMap::default(),
            slots: Vec::new(),
            weight: 0,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The slot holding the key that `hash` and `eq` describe.
    fn find(&self, hash: u64, mut eq: impl FnMut(&K) -> bool) -> Option<usize> {
        let mut i = *self.heads.get(&hash)?;
        loop {
            let slot = &self.slots[i];
            if eq(&slot.key) {
                return Some(i);
            }
            i = slot.next?;
        }
    }

    /// Returns the value held for the key that `hash` and `eq` describe
    /// when it is fresh at `now_ns`, counting a hit or a miss. `hash`
    /// must be computed the same way for keys `eq` calls equal; `eq`
    /// sees only stored keys with that hash. An expired entry is dropped.
    pub fn get(&mut self, hash: u64, eq: impl FnMut(&K) -> bool, now_ns: u64) -> Option<&V> {
        let Some(i) = self.find(hash, eq) else {
            self.misses += 1;
            return None;
        };
        if now_ns.saturating_sub(self.slots[i].stored_ns) >= self.ttl_ns {
            self.remove(i);
            self.misses += 1;
            return None;
        }
        self.hits += 1;
        self.tick += 1;
        let slot = &mut self.slots[i];
        slot.last_used = self.tick;
        Some(&slot.value)
    }

    /// Stores `value` under `key` (hashed to `hash`, as for
    /// [`TtlLru::get`]) at `now_ns`, replacing any entry with an equal
    /// key, then evicts least-recently-used entries until the held
    /// weight is within the budget. Returns how many were evicted. A
    /// value weighing more than the whole budget is not stored.
    pub fn put(&mut self, hash: u64, key: K, value: V, weight: usize, now_ns: u64) -> usize
    where
        K: PartialEq,
    {
        if weight > self.budget {
            return 0;
        }
        if let Some(i) = self.find(hash, |k| *k == key) {
            self.remove(i);
        }
        self.tick += 1;
        let next = self.heads.insert(hash, self.slots.len());
        self.slots.push(Slot {
            key,
            value,
            hash,
            next,
            stored_ns: now_ns,
            last_used: self.tick,
            weight,
        });
        self.weight += weight;
        let mut evicted = 0;
        while self.weight > self.budget {
            let victim = (0..self.slots.len())
                .min_by_key(|&i| self.slots[i].last_used)
                .expect("over budget implies non-empty");
            self.remove(victim);
            evicted += 1;
        }
        evicted
    }

    /// Drops every entry for which `keep` is false (table-scoped
    /// invalidation, for instance); returns how many were dropped.
    /// Expired entries not yet looked up count like any other.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &V) -> bool) -> usize {
        let mut dropped = 0;
        let mut i = 0;
        while i < self.slots.len() {
            if keep(&self.slots[i].key, &self.slots[i].value) {
                i += 1;
            } else {
                // The last slot moves into `i`; visit it next.
                self.remove(i);
                dropped += 1;
            }
        }
        dropped
    }

    /// Drops every entry; the counters keep counting.
    pub fn clear(&mut self) {
        self.heads.clear();
        self.slots.clear();
        self.weight = 0;
    }

    /// Removes slot `i`, moving the last slot into its place.
    fn remove(&mut self, i: usize) {
        let (hash, next) = (self.slots[i].hash, self.slots[i].next);
        self.repoint(hash, i, next);
        let gone = self.slots.swap_remove(i);
        self.weight -= gone.weight;
        let moved_from = self.slots.len();
        if i < moved_from {
            self.repoint(self.slots[i].hash, moved_from, Some(i));
        }
    }

    /// Makes whatever links to slot `from` in `hash`'s chain — the head
    /// or a predecessor — link to `to` instead.
    fn repoint(&mut self, hash: u64, from: usize, to: Option<usize>) {
        let head = self.heads[&hash];
        if head == from {
            match to {
                Some(to) => self.heads.insert(hash, to),
                None => self.heads.remove(&hash),
            };
            return;
        }
        let mut p = head;
        while self.slots[p].next != Some(from) {
            p = self.slots[p].next.expect("`from` is in the chain");
        }
        self.slots[p].next = to;
    }

    /// Live entries (each owning its key).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when nothing is held.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Total weight of the live entries.
    pub fn weight(&self) -> usize {
        self.weight
    }

    /// Fresh lookups answered since construction.
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
    use proptest::prelude::*;

    impl<K, V> TtlLru<K, V> {
        /// Walks every hash chain: each live slot is reachable exactly
        /// once, from the head of its own hash, and the held weight is
        /// the sum of the live entries'. So the keys held are exactly
        /// the live entries' keys.
        fn assert_consistent(&self) {
            let mut seen = vec![false; self.slots.len()];
            for (&hash, &head) in &self.heads {
                let mut at = Some(head);
                while let Some(i) = at {
                    assert_eq!(
                        self.slots[i].hash, hash,
                        "slot {i} chained under a foreign hash"
                    );
                    assert!(!seen[i], "slot {i} reachable twice");
                    seen[i] = true;
                    at = self.slots[i].next;
                }
            }
            assert!(seen.iter().all(|&s| s), "a live slot is unreachable");
            let weight: usize = self.slots.iter().map(|s| s.weight).sum();
            assert_eq!(weight, self.weight);
        }
    }

    #[test]
    fn colliding_hashes_still_separate_by_equality() {
        let mut cache: TtlLru<String, u32> = TtlLru::new(u64::MAX, usize::MAX);
        // Every key in one chain.
        for (i, key) in ["x", "y", "z"].into_iter().enumerate() {
            cache.put(7, key.to_owned(), i as u32, 1, 0);
        }
        assert_eq!(cache.get(7, |k| k == "x", 1), Some(&0));
        assert_eq!(cache.get(7, |k| k == "y", 1), Some(&1));
        assert_eq!(cache.get(7, |k| k == "w", 1), None);
        // Unlinking the middle of the chain moves the last slot into the
        // freed one; both chains stay intact.
        cache.retain(|k, _| k != "y");
        assert_eq!(cache.get(7, |k| k == "z", 1), Some(&2));
        assert_eq!(cache.get(7, |k| k == "x", 1), Some(&0));
        cache.assert_consistent();
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn a_put_replaces_an_equal_key_and_bumps_its_recency() {
        let mut cache: TtlLru<u8, &str> = TtlLru::new(u64::MAX, 2);
        cache.put(1, 1, "a", 1, 0);
        cache.put(2, 2, "b", 1, 0);
        assert_eq!(
            cache.put(1, 1, "a2", 1, 5),
            0,
            "a replacement evicts nothing"
        );
        assert_eq!(cache.put(3, 3, "c", 1, 6), 1);
        assert_eq!(
            cache.get(2, |&k| k == 2, 7),
            None,
            "b was least recently used"
        );
        assert_eq!(cache.get(1, |&k| k == 1, 7), Some(&"a2"));
    }

    /// One step of a random workload.
    #[derive(Debug, Clone)]
    enum Op {
        Get(u8),
        Put(u8, usize),
        Retain(u8),
        Clear,
        Advance(u64),
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u8..12, 0u8..12, 0usize..6, 0u64..8).prop_map(|(pick, k, w, dt)| match pick {
            0..=3 => Op::Get(k),
            4..=7 => Op::Put(k, w),
            8 => Op::Retain(k % 4),
            9 => Op::Clear,
            _ => Op::Advance(dt),
        })
    }

    /// The reference: a `Vec` of `(key, value, stored, last_used,
    /// weight)` that does everything the obvious way.
    #[derive(Default)]
    struct Model {
        entries: Vec<(u8, u64, u64, u64, usize)>,
        tick: u64,
    }

    impl Model {
        fn get(&mut self, key: u8, now: u64, ttl: u64) -> Option<u64> {
            let i = self.entries.iter().position(|e| e.0 == key)?;
            if now - self.entries[i].2 >= ttl {
                self.entries.remove(i);
                return None;
            }
            self.tick += 1;
            self.entries[i].3 = self.tick;
            Some(self.entries[i].1)
        }

        /// Returns the evicted keys, in eviction order.
        fn put(&mut self, key: u8, value: u64, weight: usize, now: u64, budget: usize) -> Vec<u8> {
            if weight > budget {
                return Vec::new();
            }
            self.entries.retain(|e| e.0 != key);
            self.tick += 1;
            self.entries.push((key, value, now, self.tick, weight));
            let mut victims = Vec::new();
            while self.entries.iter().map(|e| e.4).sum::<usize>() > budget {
                let i = (0..self.entries.len())
                    .min_by_key(|&i| self.entries[i].3)
                    .unwrap();
                victims.push(self.entries.remove(i).0);
            }
            victims
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        // Random get / put / retain / clear / advance-time sequences
        // against the reference, with tiny budgets and TTLs so eviction
        // and expiry fire constantly. Keys hash into four buckets, so
        // chains collide. After every step: the same results, the same
        // victims, held weight within budget, keys held == live entries.
        #[test]
        fn matches_a_naive_reference(
            ttl in 1u64..12,
            budget in 0usize..10,
            ops in proptest::collection::vec(op(), 1..200),
        ) {
            let hash = |k: u8| u64::from(k % 4);
            let mut cache: TtlLru<u8, u64> = TtlLru::new(ttl, budget);
            let mut model = Model::default();
            let (mut now, mut value) = (0u64, 0u64);
            let (mut hits, mut misses) = (0u64, 0u64);
            for op in ops {
                match op {
                    Op::Get(k) => {
                        let want = model.get(k, now, ttl);
                        prop_assert_eq!(cache.get(hash(k), |&s| s == k, now).copied(), want);
                        if want.is_some() { hits += 1 } else { misses += 1 }
                    }
                    Op::Put(k, w) => {
                        value += 1;
                        let mut victims = model.put(k, value, w, now, budget);
                        let before: Vec<u8> = cache.slots.iter().map(|s| s.key).collect();
                        prop_assert_eq!(cache.put(hash(k), k, value, w, now), victims.len());
                        let mut went: Vec<u8> = before
                            .into_iter()
                            .filter(|&b| cache.slots.iter().all(|s| s.key != b))
                            .collect();
                        went.sort_unstable();
                        victims.sort_unstable();
                        prop_assert_eq!(went, victims, "the same victims");
                    }
                    Op::Retain(m) => {
                        let before = model.entries.len();
                        model.entries.retain(|e| e.0 % 4 != m);
                        let dropped = before - model.entries.len();
                        prop_assert_eq!(cache.retain(|&k, _| k % 4 != m), dropped);
                    }
                    Op::Clear => {
                        model.entries.clear();
                        cache.clear();
                    }
                    Op::Advance(dt) => now += dt,
                }
                cache.assert_consistent();
                let mut held: Vec<(u8, u64)> = cache.slots.iter().map(|s| (s.key, s.value)).collect();
                let mut want: Vec<(u8, u64)> = model.entries.iter().map(|e| (e.0, e.1)).collect();
                held.sort_unstable();
                want.sort_unstable();
                prop_assert_eq!(held, want);
                prop_assert!(cache.weight() <= budget);
                prop_assert_eq!((cache.hits(), cache.misses()), (hits, misses));
            }
        }
    }
}
