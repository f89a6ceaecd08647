//! Metric names, units and how each is computed from one run.
//!
//! Units say which clock a time is on: `s` and `ns` are host time (what
//! the simulator costs on this machine), `sim_ms` and `sim_mJ` are the
//! modelled m-commerce system's own time and energy. The model has no
//! reference measurement, so it is unvalidated and no accuracy figure is
//! reported.

use mcommerce_core::{ContentionStats, WorkloadCounters};
use obs::Metrics;

use crate::replay::Replay;

/// `(name, unit)` of every end-to-end metric, in print order; the
/// direction and bound of each are in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("txn_per_s", "txn/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("sim_latency_p50_ms", "sim_ms"),
    ("sim_latency_p99_ms", "sim_ms"),
    ("sim_latency_mean_ms", "sim_ms"),
    ("sim_success_rate", "ratio"),
    ("sim_energy_mj_per_txn", "sim_mJ"),
];

/// `(name, unit)` of every per-layer metric, in print order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("fleet.build_ns_per_user", "ns"),
    ("fleet.build_allocs_per_user", "count"),
    ("fleet.teardown_ns_per_user", "ns"),
    ("system.execute_ns_per_txn", "ns"),
    ("system.execute_allocs_per_txn", "count"),
    ("middleware.exchange_ns_per_txn", "ns"),
    ("middleware.exchange_allocs_per_txn", "count"),
    ("middleware.transcode_memo_hit_ratio", "ratio"),
    ("station.render_memo_hit_ratio", "ratio"),
    ("station.rest_ns_per_txn", "ns"),
    ("station.rest_allocs_per_txn", "count"),
    ("run.allocs_per_txn", "count"),
    ("run.alloc_bytes_per_txn", "bytes"),
    ("run.trace_overhead", "ratio"),
    ("station.service_ms_per_txn", "sim_ms"),
    ("wireless.service_ms_per_txn", "sim_ms"),
    ("middleware.service_ms_per_txn", "sim_ms"),
    ("wired.service_ms_per_txn", "sim_ms"),
    ("host.service_ms_per_txn", "sim_ms"),
    ("wireless.air_bytes_per_txn", "bytes"),
    ("wireless.retransmissions_per_ktxn", "count"),
    ("wireless.cell_wait_ms_per_txn", "sim_ms"),
    ("middleware.gateway_wait_ms_per_txn", "sim_ms"),
    ("host.wait_ms_per_txn", "sim_ms"),
    ("shared.contended_share", "ratio"),
    ("middleware.cache_hit_ratio", "ratio"),
    ("middleware.cache_evictions_per_ktxn", "count"),
    ("host.requests_per_txn", "count"),
    ("host.page_cache_hit_ratio", "ratio"),
    ("host.page_cache_evictions_per_ktxn", "count"),
    ("host.db_cache_hit_ratio", "ratio"),
    ("host.db_search_hit_ratio", "ratio"),
    ("host.db_invalidations_per_ktxn", "count"),
    ("host.db_search_ms_per_txn", "sim_ms"),
    ("host.db_commit_ms_per_txn", "sim_ms"),
];

/// How far a deterministic per-layer metric may move between two traced
/// runs, relative to its value. The whole-run allocation totals carry a
/// few allocations (and their bytes, up to about 1e-4 of the total) of
/// jitter on workloads whose caches evict: the standard `HashMap`'s
/// per-process random hasher decides whether a full table rehashes in
/// place or grows. Everything else repeats exactly.
pub fn repeat_tolerance(name: &str) -> f64 {
    if name.starts_with("run.alloc") {
        1e-3
    } else {
        0.0
    }
}

/// Whether a per-layer metric is host wall time, which varies run to
/// run; every other per-layer metric must repeat (see
/// [`repeat_tolerance`]).
pub fn is_wall_clock(name: &str) -> bool {
    name.ends_with("_ns_per_txn") || name.ends_with("_ns_per_user") || name == "run.trace_overhead"
}

/// One measured value with the base it was computed over.
pub struct Value {
    pub name: &'static str,
    pub value: f64,
    pub base: String,
}

/// `num / den`, 0 for an empty base.
fn ratio(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

/// The simulated end-to-end metrics of one fleet run (all deterministic).
pub fn sim_end_to_end(c: &WorkloadCounters) -> Vec<Value> {
    let n = c.succeeded;
    let samples = format!("{n} successful txns");
    let quantile = |p: f64| c.latency_hist.percentile(p) as f64 / 1e6;
    vec![
        Value {
            name: "sim_latency_p50_ms",
            value: quantile(50.0),
            base: format!("{samples}; lower edge of a 3%-wide bucket"),
        },
        Value {
            name: "sim_latency_p99_ms",
            value: quantile(99.0),
            base: format!("{samples}, {} beyond it; 3%-wide bucket", n - n * 99 / 100),
        },
        Value {
            name: "sim_latency_mean_ms",
            value: ratio(c.latency_ns as f64, n) / 1e6,
            base: format!("{samples}; exact, latency_ns / succeeded"),
        },
        Value {
            name: "sim_success_rate",
            value: ratio(n as f64, c.attempted),
            base: format!("{} attempted", c.attempted),
        },
        Value {
            name: "sim_energy_mj_per_txn",
            value: ratio(c.energy_nj as f64, n) / 1e6,
            base: samples,
        },
    ]
}

/// What one traced pass measured, the inputs of [`per_layer`].
pub struct Traced<'a> {
    /// Merged counters of the traced fleet run.
    pub counters: &'a WorkloadCounters,
    /// The traced run's metrics registry.
    pub registry: &'a Metrics,
    /// Contention stats (shared topologies only).
    pub contention: Option<&'a ContentionStats>,
    /// Allocations and bytes over the whole traced run.
    pub allocs: crate::alloc::Snapshot,
    /// Traced wall seconds over untraced wall seconds, both 1 thread.
    pub trace_overhead: f64,
    pub replay: &'a Replay,
    /// Whether the replay covered every user (else a private-world sample).
    pub replay_is_fleet: bool,
}

/// Every per-layer metric, in [`PER_LAYER`] order.
pub fn per_layer(t: &Traced<'_>) -> Vec<Value> {
    let r = t.replay;
    let txns = t.counters.attempted;
    let reg = |name: &str| t.registry.counter(name);
    let stats = t.contention.cloned().unwrap_or_default();
    let replay_of = if t.replay_is_fleet {
        "public-call replay of every user"
    } else {
        "public-call replay of a user sample in private worlds"
    };
    let per_user = |v: u64| ratio(v as f64, r.users);
    let per_call = |v: u64| ratio(v as f64, r.execute.calls);
    let per_txn = |v: u64| ratio(v as f64, txns);
    let per_ktxn = |v: u64| ratio(v as f64 * 1e3, txns);
    let ms_per_txn = |ns: u64| ratio(ns as f64, txns) / 1e6;
    // A hit ratio of two registry counters, with its lookup count as base.
    let hits = |hit: &str, miss: &str| {
        let (h, m) = (reg(hit), reg(miss));
        (ratio(h as f64, h + m), format!("{} lookups", h + m))
    };
    let user_base = format!("{} users, {replay_of}", r.users);
    let txn_base = format!("{} txns, {replay_of}", r.execute.calls);
    let exchange_base = format!(
        "{} txns, {} of them reached the exchange, {replay_of}",
        r.execute.calls, r.exchange.calls
    );
    let run_base = format!("{txns} txns of the traced fleet run");
    let wait_base = if t.contention.is_some() {
        run_base.clone()
    } else {
        format!("{run_base}; isolated worlds never queue")
    };
    let (gateway_hits, gateway_lookups) = hits("middleware.cache.hits", "middleware.cache.misses");
    let (page_hits, page_lookups) = hits("host.page_cache.hits", "host.page_cache.misses");
    let (db_hits, db_lookups) = hits("host.db_cache.hits", "host.db_cache.misses");
    let (search_hits, search_lookups) =
        hits("host.db_cache.search_hits", "host.db_cache.search_misses");
    let values: [(&'static str, f64, &str); 35] = [
        ("fleet.build_ns_per_user", per_user(r.build.ns), &user_base),
        (
            "fleet.build_allocs_per_user",
            per_user(r.build.allocs),
            &user_base,
        ),
        (
            "fleet.teardown_ns_per_user",
            per_user(r.teardown.ns),
            &user_base,
        ),
        (
            "system.execute_ns_per_txn",
            per_call(r.execute.ns),
            &txn_base,
        ),
        (
            "system.execute_allocs_per_txn",
            per_call(r.execute.allocs),
            &txn_base,
        ),
        (
            "middleware.exchange_ns_per_txn",
            per_call(r.exchange.ns),
            &exchange_base,
        ),
        (
            "middleware.exchange_allocs_per_txn",
            per_call(r.exchange.allocs),
            &exchange_base,
        ),
        (
            "middleware.transcode_memo_hit_ratio",
            ratio(r.transcode_hits as f64, r.transcode_lookups),
            &format!("{} translation lookups, {replay_of}", r.transcode_lookups),
        ),
        (
            "station.render_memo_hit_ratio",
            ratio(r.render_hits as f64, r.render_lookups),
            &format!("{} render lookups, {replay_of}", r.render_lookups),
        ),
        (
            "station.rest_ns_per_txn",
            per_call(r.execute.ns.saturating_sub(r.exchange.ns)),
            &txn_base,
        ),
        (
            "station.rest_allocs_per_txn",
            per_call(r.execute.allocs.saturating_sub(r.exchange.allocs)),
            &txn_base,
        ),
        ("run.allocs_per_txn", per_txn(t.allocs.allocs), &run_base),
        (
            "run.alloc_bytes_per_txn",
            per_txn(t.allocs.bytes),
            &run_base,
        ),
        (
            "run.trace_overhead",
            t.trace_overhead,
            "traced ÷ untraced wall, both 1 thread",
        ),
        (
            "station.service_ms_per_txn",
            ms_per_txn(reg("station.service_ns")),
            &run_base,
        ),
        (
            "wireless.service_ms_per_txn",
            ms_per_txn(reg("wireless.service_ns")),
            &run_base,
        ),
        (
            "middleware.service_ms_per_txn",
            ms_per_txn(reg("middleware.service_ns")),
            &run_base,
        ),
        (
            "wired.service_ms_per_txn",
            ms_per_txn(reg("wired.service_ns")),
            &run_base,
        ),
        (
            "host.service_ms_per_txn",
            ms_per_txn(reg("host.service_ns")),
            &run_base,
        ),
        (
            "wireless.air_bytes_per_txn",
            per_txn(reg("wireless.air_bytes")),
            &run_base,
        ),
        (
            "wireless.retransmissions_per_ktxn",
            per_ktxn(reg("wireless.retransmissions")),
            &run_base,
        ),
        (
            "wireless.cell_wait_ms_per_txn",
            ms_per_txn(stats.cell_wait_ns),
            &wait_base,
        ),
        (
            "middleware.gateway_wait_ms_per_txn",
            ms_per_txn(stats.gateway_wait_ns),
            &wait_base,
        ),
        (
            "host.wait_ms_per_txn",
            ms_per_txn(stats.host_wait_ns),
            &wait_base,
        ),
        (
            "shared.contended_share",
            ratio(stats.contended_transactions as f64, stats.transactions),
            &wait_base,
        ),
        ("middleware.cache_hit_ratio", gateway_hits, &gateway_lookups),
        (
            "middleware.cache_evictions_per_ktxn",
            per_ktxn(reg("middleware.cache.evictions")),
            &run_base,
        ),
        (
            "host.requests_per_txn",
            per_txn(reg("host.requests")),
            &run_base,
        ),
        ("host.page_cache_hit_ratio", page_hits, &page_lookups),
        (
            "host.page_cache_evictions_per_ktxn",
            per_ktxn(reg("host.page_cache.evictions")),
            &run_base,
        ),
        ("host.db_cache_hit_ratio", db_hits, &db_lookups),
        ("host.db_search_hit_ratio", search_hits, &search_lookups),
        (
            "host.db_invalidations_per_ktxn",
            per_ktxn(reg("host.db_cache.invalidations")),
            &run_base,
        ),
        (
            "host.db_search_ms_per_txn",
            ms_per_txn(reg("host.db.search_ns")),
            &run_base,
        ),
        (
            "host.db_commit_ms_per_txn",
            ms_per_txn(reg("host.db.commit_ns")),
            &run_base,
        ),
    ];
    values
        .into_iter()
        .map(|(name, value, base)| Value {
            name,
            value,
            base: base.to_owned(),
        })
        .collect()
}
