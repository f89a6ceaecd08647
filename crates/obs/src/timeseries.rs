//! Deterministic sim-time telemetry: fixed-interval resource series.
//!
//! The shared-world engine (PR 6) made infrastructure contention real —
//! cells, gateway CPUs, a shared content cache and host CPUs all serve
//! many users — but its `ContentionStats` are scalars: they say *how
//! much* waiting happened, never *when* or *where first*. This module is
//! the time dimension: named per-resource series sampled into **fixed
//! sim-time bins**, so a saturation knee has an onset time and a
//! responsible resource, not just a p99.
//!
//! ## Determinism argument
//!
//! Thread-count invariance falls out of three choices:
//!
//! 1. **Fixed bins.** A sample at sim-time `t` lands in bin
//!    `t / bin_ns` — a pure function of simulated time, never of wall
//!    clock, scheduling, or shard boundaries.
//! 2. **Commutative accumulators.** Each bin holds integer
//!    `(sum, weight, max)` accumulators; merging bins is `+`/`max`,
//!    which is associative and commutative, so the order shards are
//!    folded in cannot change the result.
//! 3. **Canonical export order.** Series are exported sorted by name
//!    (resource names embed zero-padded global indices), and bins
//!    sorted by start time — a `BTreeMap` walk, independent of
//!    insertion order.
//!
//! Everything is integer nanoseconds and integer counts; exported values
//! are formatted from integers only (thousandths split with `/ 1000`
//! and `% 1000`), so fixed-seed exports are **byte-identical at any
//! thread count**.
//!
//! ## Cost when disabled
//!
//! The engine threads an `Option<&mut Telemetry>` through its hot path;
//! disabled telemetry is `None`, so the per-transaction cost is a branch
//! per instrumentation point. F10 (`bench::telemetry_experiment`) prices
//! that branch and CI gates it at ≤ 3%, the same budget as the disabled
//! recorder.

use std::collections::BTreeMap;

use crate::json::quoted;

/// Default series bin width: 100 ms of simulated time.
pub(crate) const DEFAULT_BIN_NS: u64 = 100_000_000;

/// How a series turns raw samples into a per-bin value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// Busy-time fraction: `record_busy` spreads busy nanoseconds across
    /// the bins an interval overlaps; the bin value is `busy / bin_ns`.
    Utilization,
    /// Sampled gauge (queue depth, in-flight concurrency): the bin value
    /// is the mean of the samples landing in it; the peak is kept too.
    Gauge,
    /// Ratio of two event counters (cache hits / lookups): the bin value
    /// is `num / den` over the bin.
    Rate,
}

impl SeriesKind {
    /// Stable lower-case name used by the JSONL export.
    pub fn name(self) -> &'static str {
        match self {
            SeriesKind::Utilization => "util",
            SeriesKind::Gauge => "gauge",
            SeriesKind::Rate => "rate",
        }
    }
}

/// Integer accumulators for one fixed sim-time bin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Bin {
    sum: u64,
    weight: u64,
    max: u64,
}

impl Bin {
    fn absorb(&mut self, other: Bin) {
        self.sum += other.sum;
        self.weight += other.weight;
        self.max = self.max.max(other.max);
    }
}

/// One named resource's binned history.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Series {
    kind: SeriesKind,
    bins: BTreeMap<u64, Bin>,
}

/// Handle returned by [`Telemetry::register`]; records by index so the
/// hot path never hashes or compares a series name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesId(usize);

/// One exported point: a bin's raw accumulators plus its derived value
/// in integer thousandths of the series' natural unit (a utilization of
/// 0.134 exports as `milli == 134`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SeriesPoint {
    /// Bin start, simulated nanoseconds.
    pub(crate) t_ns: u64,
    /// Kind-dependent numerator (busy ns, gauge sample sum, rate hits).
    pub(crate) sum: u64,
    /// Kind-dependent denominator (unused, sample count, rate lookups).
    pub(crate) weight: u64,
    /// Peak gauge sample in the bin (zero for other kinds).
    pub(crate) max: u64,
    /// The bin value × 1000, computed in integer arithmetic.
    pub(crate) milli: u64,
}

/// A deterministic set of named, fixed-bin resource series.
///
/// Resources register once (getting a cheap [`SeriesId`]), record by id
/// on the hot path, and shards merge commutatively; exports walk series
/// in name order and bins in time order, so fixed-seed output is
/// byte-identical at any thread count (see the module docs for the full
/// argument).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Telemetry {
    bin_ns: u64,
    names: Vec<String>,
    series: Vec<Series>,
    index: BTreeMap<String, usize>,
}

impl Telemetry {
    /// An empty telemetry set with the given bin width.
    ///
    /// # Panics
    ///
    /// Panics if `bin_ns` is zero.
    pub(crate) fn new(bin_ns: u64) -> Self {
        assert!(bin_ns > 0, "telemetry bin width must be positive");
        Telemetry {
            bin_ns,
            names: Vec::new(),
            series: Vec::new(),
            index: BTreeMap::new(),
        }
    }

    /// The fixed bin width in simulated nanoseconds.
    pub fn bin_ns(&self) -> u64 {
        self.bin_ns
    }

    /// True when no series are registered.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Registers (or looks up) the series `name`, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered with a different kind.
    pub fn register(&mut self, name: &str, kind: SeriesKind) -> SeriesId {
        if let Some(&slot) = self.index.get(name) {
            assert_eq!(
                self.series[slot].kind, kind,
                "series {name:?} re-registered with a different kind"
            );
            return SeriesId(slot);
        }
        let slot = self.series.len();
        self.names.push(name.to_owned());
        self.series.push(Series { kind, bins: BTreeMap::new() });
        self.index.insert(name.to_owned(), slot);
        SeriesId(slot)
    }

    fn bin_of(&self, t_ns: u64) -> u64 {
        t_ns / self.bin_ns
    }

    /// Credits the busy interval `[start_ns, start_ns + dur_ns)` to a
    /// [`SeriesKind::Utilization`] series, split across the bins it
    /// overlaps. A zero-length interval records nothing.
    pub fn record_busy(&mut self, id: SeriesId, start_ns: u64, dur_ns: u64) {
        if dur_ns == 0 {
            return;
        }
        let bin_ns = self.bin_ns;
        let end_ns = start_ns + dur_ns;
        let series = &mut self.series[id.0];
        debug_assert_eq!(series.kind, SeriesKind::Utilization);
        let mut cursor = start_ns;
        while cursor < end_ns {
            let bin = cursor / bin_ns;
            let bin_end = (bin + 1) * bin_ns;
            let slice = end_ns.min(bin_end) - cursor;
            series.bins.entry(bin).or_default().sum += slice;
            cursor = bin_end;
        }
    }

    /// Records one gauge sample (`value` at sim-time `at_ns`) into a
    /// [`SeriesKind::Gauge`] series.
    pub fn sample(&mut self, id: SeriesId, at_ns: u64, value: u64) {
        let bin = self.bin_of(at_ns);
        let series = &mut self.series[id.0];
        debug_assert_eq!(series.kind, SeriesKind::Gauge);
        let acc = series.bins.entry(bin).or_default();
        acc.sum += value;
        acc.weight += 1;
        acc.max = acc.max.max(value);
    }

    /// Adds `num` successes out of `den` events at sim-time `at_ns` to a
    /// [`SeriesKind::Rate`] series. A zero `den` records nothing.
    pub fn record_rate(&mut self, id: SeriesId, at_ns: u64, num: u64, den: u64) {
        if den == 0 {
            return;
        }
        let bin = self.bin_of(at_ns);
        let series = &mut self.series[id.0];
        debug_assert_eq!(series.kind, SeriesKind::Rate);
        let acc = series.bins.entry(bin).or_default();
        acc.sum += num;
        acc.weight += den;
    }

    /// Folds `other` into `self`. Series sharing a name merge bin-wise
    /// (integer `+`/`max`, so merge order cannot matter); new names are
    /// adopted. Shard telemetry from disjoint resources therefore merges
    /// into the same set regardless of how work was sharded.
    ///
    /// # Panics
    ///
    /// Panics on mismatched bin widths or on a name registered with
    /// different kinds on the two sides.
    pub fn merge(&mut self, other: Telemetry) {
        assert_eq!(self.bin_ns, other.bin_ns, "telemetry bin widths differ");
        for (slot, series) in other.series.into_iter().enumerate() {
            let name = &other.names[slot];
            let id = self.register(name, series.kind);
            let mine = &mut self.series[id.0];
            for (bin, acc) in series.bins {
                mine.bins.entry(bin).or_default().absorb(acc);
            }
        }
    }

    /// Registered series names in canonical (lexicographic) order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.index.keys().map(String::as_str)
    }

    /// The kind of series `name`, if registered.
    pub fn kind(&self, name: &str) -> Option<SeriesKind> {
        self.index.get(name).map(|&slot| self.series[slot].kind)
    }

    fn milli(&self, kind: SeriesKind, bin: &Bin) -> u64 {
        match kind {
            SeriesKind::Utilization => bin.sum * 1000 / self.bin_ns,
            SeriesKind::Gauge | SeriesKind::Rate => {
                (bin.sum * 1000).checked_div(bin.weight).unwrap_or(0)
            }
        }
    }

    /// The bins of series `name` in time order, with derived values.
    pub(crate) fn points(&self, name: &str) -> Option<Vec<SeriesPoint>> {
        let &slot = self.index.get(name)?;
        let series = &self.series[slot];
        Some(
            series
                .bins
                .iter()
                .map(|(&bin, acc)| SeriesPoint {
                    t_ns: bin * self.bin_ns,
                    sum: acc.sum,
                    weight: acc.weight,
                    max: acc.max,
                    milli: self.milli(series.kind, acc),
                })
                .collect(),
        )
    }

    /// The peak bin value of series `name`, in thousandths.
    pub fn peak_milli(&self, name: &str) -> Option<u64> {
        let points = self.points(name)?;
        points.iter().map(|p| p.milli).max()
    }

    /// The start of the first bin whose value reaches
    /// `threshold_milli`, or `None` if the series never does — the
    /// saturation-onset sim-time of a utilization series.
    pub fn onset_ns(&self, name: &str, threshold_milli: u64) -> Option<u64> {
        self.points(name)?
            .iter()
            .find(|p| p.milli >= threshold_milli)
            .map(|p| p.t_ns)
    }

    /// Total `(sum, weight)` over all bins of series `name`.
    pub fn totals(&self, name: &str) -> Option<(u64, u64)> {
        let &slot = self.index.get(name)?;
        let series = &self.series[slot];
        let sum = series.bins.values().map(|b| b.sum).sum();
        let weight = series.bins.values().map(|b| b.weight).sum();
        Some((sum, weight))
    }

    /// Renders every series as JSONL — one object per (series, bin) in
    /// canonical order. A pure function of the recorded bins: integer
    /// fields only, byte-identical for a fixed seed at any thread count.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, &slot) in &self.index {
            let series = &self.series[slot];
            for (&bin, acc) in &series.bins {
                out.push_str(&format!(
                    "{{\"series\":{},\"kind\":\"{}\",\"t_ns\":{},\"bin_ns\":{},\"sum\":{},\"weight\":{},\"max\":{},\"milli\":{}}}\n",
                    quoted(name),
                    series.kind.name(),
                    bin * self.bin_ns,
                    self.bin_ns,
                    acc.sum,
                    acc.weight,
                    acc.max,
                    self.milli(series.kind, acc),
                ));
            }
        }
        out
    }

    /// Renders every bin as a Chrome `trace_event` counter (`"ph":"C"`)
    /// object, one JSON object string per point, in canonical order.
    /// Embedded in a trace document these draw one Perfetto counter
    /// track per resource alongside the span swim-lanes.
    pub fn chrome_counter_events(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (name, &slot) in &self.index {
            let series = &self.series[slot];
            for (&bin, acc) in &series.bins {
                let t_ns = bin * self.bin_ns;
                let milli = self.milli(series.kind, acc);
                out.push(format!(
                    "{{\"name\":{},\"ph\":\"C\",\"ts\":{}.{:03},\"pid\":0,\"tid\":0,\"args\":{{\"value\":{}.{:03}}}}}",
                    quoted(name),
                    t_ns / 1_000,
                    t_ns % 1_000,
                    milli / 1000,
                    milli % 1000,
                ));
            }
        }
        out
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new(DEFAULT_BIN_NS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Telemetry {
        Telemetry::new(1_000)
    }

    #[test]
    fn busy_intervals_split_across_bins() {
        let mut tel = t();
        let id = tel.register("gw.util", SeriesKind::Utilization);
        // 500 ns in bin 0, full bin 1, 250 ns in bin 2.
        tel.record_busy(id, 500, 1_750);
        let points = tel.points("gw.util").unwrap();
        assert_eq!(points.len(), 3);
        assert_eq!(points[0], SeriesPoint { t_ns: 0, sum: 500, weight: 0, max: 0, milli: 500 });
        assert_eq!(points[1].milli, 1000);
        assert_eq!(points[2].sum, 250);
        assert_eq!(tel.peak_milli("gw.util"), Some(1000));
        assert_eq!(tel.onset_ns("gw.util", 900), Some(1_000));
        assert_eq!(tel.onset_ns("gw.util", 1001), None);
    }

    #[test]
    fn gauges_keep_mean_and_peak() {
        let mut tel = t();
        let id = tel.register("host.queue", SeriesKind::Gauge);
        tel.sample(id, 10, 2);
        tel.sample(id, 20, 6);
        tel.sample(id, 1_500, 1);
        let points = tel.points("host.queue").unwrap();
        assert_eq!(points[0].milli, 4_000, "mean of 2 and 6");
        assert_eq!(points[0].max, 6);
        assert_eq!(points[1].max, 1);
    }

    #[test]
    fn rates_divide_hits_by_lookups() {
        let mut tel = t();
        let id = tel.register("gw.cache", SeriesKind::Rate);
        tel.record_rate(id, 0, 1, 2);
        tel.record_rate(id, 10, 1, 1);
        tel.record_rate(id, 20, 0, 0); // no lookups: recorded nothing
        let points = tel.points("gw.cache").unwrap();
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].milli, 666, "2 hits / 3 lookups");
    }

    #[test]
    fn merge_is_commutative_and_exports_in_name_order() {
        let mut a = t();
        let ida = a.register("b.util", SeriesKind::Utilization);
        a.record_busy(ida, 0, 400);
        let mut b = t();
        let idb = b.register("a.util", SeriesKind::Utilization);
        b.record_busy(idb, 100, 200);
        let idshared = b.register("b.util", SeriesKind::Utilization);
        b.record_busy(idshared, 0, 100);

        let mut ab = a.clone();
        ab.merge(b.clone());
        let mut ba = b.clone();
        ba.merge(a.clone());
        assert_eq!(ab.to_jsonl(), ba.to_jsonl());
        assert_eq!(ab.chrome_counter_events(), ba.chrome_counter_events());
        let names: Vec<&str> = ab.names().collect();
        assert_eq!(names, ["a.util", "b.util"], "canonical name order");
        assert_eq!(ab.totals("b.util"), Some((500, 0)), "bins summed");
    }

    #[test]
    fn exports_are_stable_and_integer_formatted() {
        let mut tel = t();
        let id = tel.register("cell0000.airtime_util", SeriesKind::Utilization);
        tel.record_busy(id, 250, 500);
        assert_eq!(tel.to_jsonl(), tel.to_jsonl());
        let line = tel.to_jsonl();
        assert_eq!(
            line,
            "{\"series\":\"cell0000.airtime_util\",\"kind\":\"util\",\"t_ns\":0,\"bin_ns\":1000,\"sum\":500,\"weight\":0,\"max\":0,\"milli\":500}\n"
        );
        let counters = tel.chrome_counter_events();
        assert_eq!(counters.len(), 1);
        let counter = crate::json::parse(&counters[0]).unwrap();
        assert_eq!(counter["ph"].as_str(), Some("C"), "{}", counters[0]);
        assert_eq!(counter["args"]["value"], crate::json::Value::Float(0.5), "{}", counters[0]);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let mut tel = t();
        tel.register("x", SeriesKind::Gauge);
        tel.register("x", SeriesKind::Rate);
    }
}
