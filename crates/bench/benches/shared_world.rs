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

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use mcommerce_core::{Category, FleetRunner, Scenario, Topology};

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

criterion_group!(shared_world, bench_shared_world);
criterion_main!(shared_world);
