//! Per-layer metrics registry.
//!
//! Layers publish named counters and histograms through free functions
//! ([`add`], [`observe`]) that write into a **thread-local** registry.
//! Thread-locality is what keeps the fleet engine's determinism
//! guarantee: each shard thread accumulates its own registry, the
//! runner drains it ([`take`]) at a shard boundary, and registries
//! merge in canonical shard order. [`Metrics::merge`] is associative
//! and commutative, so the merged totals are independent of how users
//! were sharded across threads — and independent of whether the runner
//! drains per user or per shard (the fleet engine drains per shard to
//! keep the per-user cost at zero allocations).
//!
//! Publication is **disabled by default**. A disabled [`add`] is one
//! thread-local flag load and a predictable branch — cheap enough to
//! leave in packet-level hot paths (the F5 experiment in `bench`
//! measures exactly this overhead and CI gates it at 3%).
//!
//! An enabled publication accumulates into a slot found by the name's
//! *address and length*: integer compares, never the name's bytes. Every
//! call site passes a string literal, so a name has one address per
//! binary (or a few, when literals with equal text are not merged); the
//! registry keeps one slot per address and [`take`] folds slots whose
//! names have equal text into one by-name entry of [`Metrics`].

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use crate::hist::Histogram;

/// An ordered, mergeable snapshot of published metrics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Named monotonic counters, e.g. `"transport.rto_fired"`.
    pub counters: BTreeMap<&'static str, u64>,
    /// Named value distributions, e.g. `"host.cpu_ns"`.
    pub histograms: BTreeMap<&'static str, Histogram>,
}

impl Metrics {
    /// The value of a counter (zero when never published).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Adds `other` into `self`. Associative and commutative.
    pub fn merge(&mut self, other: &Metrics) {
        for (k, v) in &other.counters {
            *self.counters.entry(k).or_default() += v;
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k).or_default().merge(h);
        }
    }

    /// True when nothing was published.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in &self.counters {
            writeln!(f, "{k:<40} {v}")?;
        }
        for (k, h) in &self.histograms {
            writeln!(
                f,
                "{k:<40} n={} p50={} p90={} p99={}",
                h.count(),
                h.percentile(50.0),
                h.percentile(90.0),
                h.percentile(99.0)
            )?;
        }
        Ok(())
    }
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static SLOTS: RefCell<Slots> = const {
        RefCell::new(Slots {
            counters: HashMap::with_hasher(BuildHasherDefault::new()),
            histograms: HashMap::with_hasher(BuildHasherDefault::new()),
        })
    };
}

/// A name's identity in the registry: its address and length.
type NameKey = (usize, usize);

fn key(name: &'static str) -> NameKey {
    (name.as_ptr() as usize, name.len())
}

/// A slot table keyed by name address.
type SlotMap<V> = HashMap<NameKey, (&'static str, V), BuildHasherDefault<AddrHasher>>;

/// The thread's publications since the last [`take`], one slot per name
/// address.
struct Slots {
    counters: SlotMap<u64>,
    histograms: SlotMap<Histogram>,
}

/// Hashes a [`NameKey`] with one rotate, xor and multiply per word. The
/// keys are the addresses of a few dozen literals, not outside input.
#[derive(Default)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_usize(usize::from(b));
        }
    }

    fn write_usize(&mut self, n: usize) {
        self.0 = (self.0.rotate_left(5) ^ n as u64).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Scoped enablement of the thread's registry; publication stops (and
/// the previous state is restored) when the guard drops.
#[derive(Debug)]
pub struct MetricsGuard {
    was_enabled: bool,
}

impl Drop for MetricsGuard {
    fn drop(&mut self) {
        ENABLED.with(|e| e.set(self.was_enabled));
    }
}

/// Enables metric publication on this thread until the guard drops.
#[must_use = "publication stops when the guard drops"]
pub fn enable() -> MetricsGuard {
    let was_enabled = ENABLED.with(|e| e.replace(true));
    MetricsGuard { was_enabled }
}

/// True when this thread is currently publishing metrics.
#[inline]
pub fn enabled() -> bool {
    ENABLED.with(|e| e.get())
}

/// Adds `delta` to the named counter. A no-op (one flag check) unless
/// the thread's registry is [`enable`]d.
#[inline]
pub fn add(name: &'static str, delta: u64) {
    if !ENABLED.with(|e| e.get()) {
        return;
    }
    SLOTS.with(|s| {
        s.borrow_mut()
            .counters
            .entry(key(name))
            .or_insert((name, 0))
            .1 += delta;
    });
}

/// Adds one to the named counter.
#[inline]
pub fn incr(name: &'static str) {
    add(name, 1);
}

/// Records `value` into the named histogram. A no-op unless enabled.
#[inline]
pub fn observe(name: &'static str, value: u64) {
    if !ENABLED.with(|e| e.get()) {
        return;
    }
    SLOTS.with(|s| {
        s.borrow_mut()
            .histograms
            .entry(key(name))
            .or_insert_with(|| (name, Histogram::default()))
            .1
            .record(value);
    });
}

/// Drains the thread's registry, returning everything published since
/// the last `take` and leaving it empty.
pub fn take() -> Metrics {
    SLOTS.with(|s| {
        let mut slots = s.borrow_mut();
        // Fold in name order, not in the order addresses hash to, so the
        // maps are built alike in every process.
        let mut counters: Vec<_> = slots.counters.drain().map(|(_, slot)| slot).collect();
        counters.sort_unstable_by_key(|&(name, _)| name);
        let mut histograms: Vec<_> = slots.histograms.drain().map(|(_, slot)| slot).collect();
        histograms.sort_unstable_by_key(|&(name, _)| name);
        let mut metrics = Metrics::default();
        for (name, value) in counters {
            *metrics.counters.entry(name).or_default() += value;
        }
        for (name, hist) in histograms {
            metrics.histograms.entry(name).or_default().merge(&hist);
        }
        metrics
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection;
    use proptest::prelude::*;

    #[test]
    fn disabled_publication_is_dropped() {
        let _ = take();
        add("x.dropped", 5);
        observe("x.hist", 1);
        assert!(take().is_empty());
    }

    #[test]
    fn enabled_publication_accumulates_and_drains() {
        let _ = take();
        {
            let _guard = enable();
            assert!(enabled());
            add("a.count", 2);
            add("a.count", 3);
            incr("b.count");
            observe("c.hist", 1_000);
            observe("c.hist", 2_000);
        }
        assert!(!enabled());
        let m = take();
        assert_eq!(m.counter("a.count"), 5);
        assert_eq!(m.counter("b.count"), 1);
        assert_eq!(m.histograms["c.hist"].count(), 2);
        assert!(take().is_empty(), "take drains");
    }

    #[test]
    fn nested_guards_restore_state() {
        let _ = take();
        let outer = enable();
        {
            let _inner = enable();
        }
        assert!(enabled(), "inner guard must not disable the outer scope");
        drop(outer);
        assert!(!enabled());
    }

    #[test]
    fn merge_is_grouping_invariant() {
        let mut a = Metrics::default();
        a.counters.insert("k", 1);
        a.histograms.entry("h").or_default().record(10);
        let mut b = Metrics::default();
        b.counters.insert("k", 2);
        b.counters.insert("only_b", 7);
        b.histograms.entry("h").or_default().record(20);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counter("k"), 3);
        assert_eq!(ab.counter("only_b"), 7);
        assert_eq!(ab.histograms["h"].count(), 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn slots_fold_to_the_by_name_accumulation(
            ops in collection::vec((0u8..2, 0usize..4, 0u64..1_000_000), 0..64),
        ) {
            // Two allocations of "p.shared" publish into separate slots,
            // which `take` must fold into one entry.
            let copy: &'static str = Box::leak(String::from("p.shared").into_boxed_str());
            let names = ["p.shared", copy, "p.other", "p.third"];
            prop_assert!(names[0].as_ptr() != names[1].as_ptr());
            let _ = take();
            let mut reference = Metrics::default();
            {
                let _guard = enable();
                for &(kind, i, value) in &ops {
                    let name = names[i];
                    if kind == 0 {
                        add(name, value);
                        *reference.counters.entry(name).or_default() += value;
                    } else {
                        observe(name, value);
                        reference.histograms.entry(name).or_default().record(value);
                    }
                }
            }
            prop_assert_eq!(take(), reference);
            prop_assert!(take().is_empty());
        }
    }
}
