//! Property tests for the fleet engine's determinism contract (DESIGN.md
//! §2.10): for any scenario, the merged [`FleetSummary`] is bit-for-bit
//! identical whether the users run on 1, 2, or 8 shards — and on the
//! isolated topology it equals the per-user reference,
//! `Scenario::run_user`, summed over the users.
//!
//! This is the load-bearing invariant behind running experiments in
//! parallel at all — if it held only for hand-picked configurations, no
//! published number could be trusted across machines.

use proptest::prelude::*;

use mcommerce::core::{
    CachePolicy, Category, FleetReport, FleetRunner, MiddlewareKind, Scenario, WorkloadCounters,
};
use mcommerce::faults::{FaultPlan, RetryPolicy};
use mcommerce::simnet::SimDuration;

// The property bodies predate the FleetRunner API; this shim keeps them
// readable while exercising the replacement entry point.
fn run_on(scenario: &Scenario, threads: usize) -> FleetReport {
    FleetRunner::new(scenario.clone()).threads(threads).run().report
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn fleet_summary_is_shard_count_invariant(
        users in 1..10u64,
        sessions in 1..3u64,
        category in (0..8usize).prop_map(|i| Category::ALL[i]),
        middleware in (0..3usize).prop_map(|i| MiddlewareKind::ALL[i]),
        secure in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let scenario = Scenario::new("prop")
            .app(category)
            .middleware(middleware)
            .users(users)
            .sessions_per_user(sessions)
            .secure(secure)
            .seed(seed);
        let one = run_on(&scenario, 1).summary;
        let two = run_on(&scenario, 2).summary;
        let eight = run_on(&scenario, 8).summary;
        prop_assert_eq!(&one, &two);
        prop_assert_eq!(&one, &eight);
        // Sanity: the fleet actually did work.
        prop_assert!(one.transactions() >= users);
    }
}

/// A storm for `seed`, its windows spread over the users' first 40 s.
fn storm(seed: u64) -> FaultPlan {
    FaultPlan::storm(seed ^ 0x5eed, SimDuration::from_secs(40), 1.5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn single_user_fleet_matches_a_hand_built_system(
        users in 1..7u64,
        think in 0..3u8,
        secure in any::<bool>(),
        seed in any::<u64>(),
    ) {
        // The isolated topology is one island per user, so the fleet
        // must count exactly what each user's private world counts:
        // `Scenario::run_user`, summed over the users, at any thread
        // count — for every application and every engine feature.
        for category in Category::ALL {
            for variant in 0..6 {
                let base = Scenario::new("solo")
                    .app(category)
                    .users(users)
                    .sessions_per_user(2)
                    .think_time(f64::from(think) * 2.0)
                    .secure(secure)
                    .seed(seed);
                let scenario = match variant {
                    0 => base,
                    1 => base.cache(CachePolicy::standard()),
                    2 => base.faults(storm(seed)),
                    3 => base
                        .faults(storm(seed))
                        .retry(RetryPolicy::standard())
                        .fallback_middleware(MiddlewareKind::WapTextual),
                    4 => base.search_heavy(true),
                    _ => base.search_heavy(true).cache(CachePolicy::standard()),
                };
                let mut by_hand = WorkloadCounters::default();
                for user in 0..users {
                    scenario.run_user(user, &mut by_hand);
                }
                for threads in [1, 2, 4, 8] {
                    let fleet = run_on(&scenario, threads).summary.workload.counters;
                    prop_assert_eq!(
                        &fleet,
                        &by_hand,
                        "{} variant {}, {} threads",
                        category,
                        variant,
                        threads
                    );
                }
            }
        }
    }
}
