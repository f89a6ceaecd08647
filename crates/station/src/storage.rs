//! On-device storage: the embedded store versus the flat file.
//!
//! §7: "a growing trend is to provide a mobile database or an embedded
//! database to a handheld device … the flat file system that comes with
//! these devices may not be able to adequately handle and manipulate
//! data. Embedded databases have very small footprints."
//!
//! [`EmbeddedStore`] is the small-footprint key-value store: ordered keys,
//! O(log n) lookups, a strict byte budget with LRU eviction. The
//! [`FlatFileStore`] alternative appends records to a single "file" and
//! scans linearly — correct, but its access cost grows with the file,
//! which the ablation bench demonstrates.

use std::collections::BTreeMap;

/// Access-cost accounting shared by both stores: a count of record
/// touches, which the station maps to CPU time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccessCost {
    /// Records examined to satisfy the operation.
    pub records_touched: usize,
}

/// The small-footprint embedded key-value store.
#[derive(Debug)]
pub struct EmbeddedStore {
    data: BTreeMap<String, (String, u64)>,
    budget_bytes: usize,
    used_bytes: usize,
    clock: u64,
    /// Entries evicted to stay inside the budget.
    pub(crate) evictions: u64,
}

impl EmbeddedStore {
    /// Creates a store capped at `budget_bytes` of key+value data.
    ///
    /// # Panics
    ///
    /// Panics if the budget is zero.
    pub fn new(budget_bytes: usize) -> Self {
        assert!(budget_bytes > 0, "storage budget must be positive");
        EmbeddedStore {
            data: BTreeMap::new(),
            budget_bytes,
            used_bytes: 0,
            clock: 0,
            evictions: 0,
        }
    }

    /// Inserts or replaces `key`, evicting least-recently-used entries if
    /// needed. Returns `false` when the record alone exceeds the budget
    /// (it is not stored).
    pub fn put(&mut self, key: &str, value: &str) -> bool {
        let size = key.len() + value.len();
        if size > self.budget_bytes {
            return false;
        }
        if let Some((old, _)) = self.data.remove(key) {
            self.used_bytes -= key.len() + old.len();
        }
        while self.used_bytes + size > self.budget_bytes {
            // Evict the least recently used entry.
            let victim = self
                .data
                .iter()
                .min_by_key(|(_, (_, at))| *at)
                .map(|(k, _)| k.clone())
                .expect("over budget implies nonempty");
            let (v, _) = self.data.remove(&victim).expect("victim exists");
            self.used_bytes -= victim.len() + v.len();
            self.evictions += 1;
        }
        self.clock += 1;
        self.data
            .insert(key.to_owned(), (value.to_owned(), self.clock));
        self.used_bytes += size;
        true
    }

    /// Looks up `key`, refreshing its recency. O(log n): cost is the tree
    /// path, counted as one record touch.
    pub fn get(&mut self, key: &str) -> (Option<String>, AccessCost) {
        self.clock += 1;
        let clock = self.clock;
        match self.data.get_mut(key) {
            Some((v, at)) => {
                *at = clock;
                (Some(v.clone()), AccessCost { records_touched: 1 })
            }
            None => (None, AccessCost { records_touched: 1 }),
        }
    }
}

/// The flat-file alternative: append-only records, linear-scan lookups.
#[derive(Debug, Default)]
pub struct FlatFileStore {
    records: Vec<(String, String)>,
}

impl FlatFileStore {
    /// Creates an empty file.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record. Old records for the same key are not rewritten —
    /// that is what makes the format a flat file.
    pub fn put(&mut self, key: &str, value: &str) {
        self.records.push((key.to_owned(), value.to_owned()));
    }

    /// Scans backwards for the latest record with `key`, counting every
    /// record touched on the way.
    pub fn get(&self, key: &str) -> (Option<String>, AccessCost) {
        let mut touched = 0;
        for (k, v) in self.records.iter().rev() {
            touched += 1;
            if k == key {
                return (
                    Some(v.clone()),
                    AccessCost {
                        records_touched: touched,
                    },
                );
            }
        }
        (
            None,
            AccessCost {
                records_touched: touched,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedded_store_round_trips() {
        let mut s = EmbeddedStore::new(1024);
        assert!(s.put("cart", "sku=1,qty=2"));
        let (v, cost) = s.get("cart");
        assert_eq!(v.as_deref(), Some("sku=1,qty=2"));
        assert_eq!(cost.records_touched, 1);
    }

    #[test]
    fn replacement_does_not_leak_bytes() {
        let mut s = EmbeddedStore::new(100);
        s.put("k", "aaaaaaaaaa");
        let used = s.used_bytes;
        s.put("k", "bbbbbbbbbb");
        assert_eq!(s.used_bytes, used);
        assert_eq!(s.data.len(), 1);
    }

    #[test]
    fn lru_eviction_respects_recency() {
        let mut s = EmbeddedStore::new(30);
        s.put("a", "0123456789"); // 11 bytes
        s.put("b", "0123456789"); // 22 bytes
        let _ = s.get("a"); // refresh a; b is now LRU
        s.put("c", "0123456789"); // would be 33: evict b
        assert_eq!(s.evictions, 1);
        assert!(s.get("a").0.is_some());
        assert!(s.get("b").0.is_none());
        assert!(s.get("c").0.is_some());
    }

    #[test]
    fn oversized_record_is_refused() {
        let mut s = EmbeddedStore::new(10);
        assert!(!s.put("key", "a value far larger than ten bytes"));
        assert!(s.data.is_empty());
    }

    #[test]
    fn flat_file_returns_latest_write() {
        let mut f = FlatFileStore::new();
        f.put("cart", "v1");
        f.put("other", "x");
        f.put("cart", "v2");
        let (v, _) = f.get("cart");
        assert_eq!(v.as_deref(), Some("v2"));
        assert_eq!(f.records.len(), 3); // superseded record still in the file
    }

    #[test]
    fn flat_file_scan_cost_grows_with_file_but_embedded_does_not() {
        let mut f = FlatFileStore::new();
        let mut e = EmbeddedStore::new(1 << 20);
        for i in 0..1000 {
            f.put(&format!("k{i}"), "v");
            e.put(&format!("k{i}"), "v");
        }
        // Oldest key: the flat file touches everything, the tree does not.
        let (_, flat_cost) = f.get("k0");
        let (_, tree_cost) = e.get("k0");
        assert_eq!(flat_cost.records_touched, 1000);
        assert_eq!(tree_cost.records_touched, 1);
        // Missing key: full scan vs single probe.
        let (none, cost) = f.get("missing");
        assert!(none.is_none());
        assert_eq!(cost.records_touched, 1000);
    }

    #[test]
    #[should_panic(expected = "budget must be positive")]
    fn zero_budget_panics() {
        EmbeddedStore::new(0);
    }
}
