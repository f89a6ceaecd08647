//! Criterion group `shared_world`: the shared-topology contention
//! engine across a population sweep.
//!
//! Every user in a `Topology::shared()` world contends for one cell,
//! one gateway and one host, so this measures the island event loop
//! itself — the `DetQueue` scheduling, the island's host and gateway
//! cache lent to each transaction, and the post-hoc FCFS contention
//! charging — not the one-user islands of the isolated topology F9
//! sweeps. The isolated topology at the same smallest population runs
//! alongside as the baseline, making the contention machinery's cost
//! visible directly.
//!
//! Criterion group `det_queue`: one re-key of the island event queue's
//! earliest event (`DetQueue::rekey_earliest`) at 1, 25 and 5,000 live
//! events — the island sizes of the isolated storefront, search-checkout
//! and metro fleet workloads — with metro-like gaps: a third at the 2 s
//! think time, the rest a 40 ms–1.04 s transaction. The one- and
//! 25-event rows keep a queue built for thousands honest on sparse
//! islands.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use mcommerce_core::{Category, FleetRunner, Scenario, Topology};
use simnet::contend::DetQueue;

fn scenario(users: u64) -> Scenario {
    Scenario::new("shared-bench")
        .app(Category::Commerce)
        .users(users)
        .sessions_per_user(1)
        .seed(97)
}

fn bench_shared_world(c: &mut Criterion) {
    let mut group = c.benchmark_group("shared_world");
    group.sample_size(10);
    for users in [64u64, 256, 1_024] {
        group.bench_function(format!("shared_{users}users"), |b| {
            b.iter(|| {
                let run = FleetRunner::new(scenario(users))
                    .topology(Topology::shared())
                    .threads(1)
                    .run();
                black_box(run.report.summary.transactions())
            })
        });
    }
    // The isolated topology at the smallest population: the
    // no-contention baseline the shared numbers are read against.
    group.bench_function("isolated_64users", |b| {
        b.iter(|| {
            let run = FleetRunner::new(scenario(64)).threads(1).run();
            black_box(run.report.summary.transactions())
        })
    });
    group.finish();
}

/// Entries in the gap table, a power of two.
const GAPS: usize = 4_096;

/// Metro-like gaps between a user's events, nanoseconds: every third
/// the 2 s think time, the others 40 ms plus up to 1 s, spread by
/// SplitMix64 so the table is the same on every run.
fn metro_gaps() -> Vec<u64> {
    (0..GAPS as u64)
        .map(|i| {
            if i % 3 == 0 {
                return 2_000_000_000;
            }
            let mut x = i.wrapping_add(0x9e37_79b9_7f4a_7c15);
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            40_000_000 + (x ^ (x >> 31)) % 1_000_000_000
        })
        .collect()
}

fn bench_det_queue(c: &mut Criterion) {
    let gaps = metro_gaps();
    let mut group = c.benchmark_group("det_queue");
    for live in [1u64, 25, 5_000] {
        group.bench_function(format!("rekey_{live}_live"), |b| {
            let mut queue = DetQueue::new();
            for id in 0..live {
                queue.push(gaps[id as usize % GAPS], id);
            }
            let mut next = 0;
            b.iter(|| {
                let (at, _) = queue.peek().expect("live events");
                queue.rekey_earliest(at + gaps[next]);
                next = (next + 1) % GAPS;
                black_box(&queue);
            });
        });
    }
    group.finish();
}

criterion_group!(shared_world, bench_shared_world);
criterion_group!(det_queue, bench_det_queue);
criterion_main!(shared_world, det_queue);
