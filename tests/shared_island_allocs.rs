//! Allocation bound of the shared engine's world build (DESIGN.md
//! §2.15). A binary of its own: its counting global allocator sees every
//! allocation in the process, so it holds exactly one test.
//!
//! A shared-world user needs a station, a battery and RNG streams, never
//! a host of its own — the island's host serves every transaction. So
//! building a whole island must cost a handful of allocations per user,
//! not a provisioned host per user.
//!
//! Running it must stay cheap too: a user holds only a cursor into its
//! sessions, each step is written into one scratch step whose strings
//! are reused, and a transaction's outcome shares the render memo's
//! text, so a cached browsing island makes well under one allocation per
//! transaction.
//!
//! And small: an island user is only the user half of a system — no
//! host, no gateway cache, no steps — so a browsing island's live heap
//! peaks at under 1,400 bytes per user.
//!
//! The isolated topology is one island per user, so there each user
//! does pay for a provisioned host — but only that: the island host is
//! built directly, never through a throwaway system, and the worker's
//! per-island buffers are reused, not allocated per island. Nor is the
//! catalogue rebuilt per host: each host's database is a clone of the
//! worker's seeded template, which copies the row map and shares the
//! schema, indexes, postings and journal payloads.
//!
//! Nor does a host request build a page tree: an application program
//! writes its page straight into the body buffer, and a session id is
//! formatted only for a session that is kept. Nor does it copy the
//! station's request: the host reads a view that borrows it. A checkout
//! allocates only what it keeps: its MACs stream the payment messages
//! through precomputed key states, and its stock update replaces the
//! row's live version in place.
//!
//! A search-heavy cached island looks up every cache tier on most
//! transactions, and most of those lookups miss. A page-cache lookup
//! renders its key into a buffer the cache keeps, so only the entries
//! actually stored pay for a key of their own, and a search tokenizes
//! its query into terms that borrow it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use mcommerce::core::{CachePolicy, Category, FleetRunner, Scenario, Topology};
use mcommerce::hostsite::db::DurabilityPolicy;
use mcommerce::simnet::SimDuration;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Heap bytes currently allocated.
static LIVE: AtomicU64 = AtomicU64::new(0);
/// The highest `LIVE` since the last reset.
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Relaxed);
}

/// The system allocator, counting `alloc`, `alloc_zeroed` and `realloc`
/// calls and tracking live heap bytes and their peak.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; counting touches only atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        moved
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_shared_island_builds_each_user_in_a_few_allocations() {
    const USERS: u64 = 5_000;
    for app in [Category::Entertainment, Category::Commerce] {
        let runner = FleetRunner::new(
            Scenario::new("island build")
                .app(app)
                .users(USERS)
                .sessions_per_user(0),
        )
        .topology(Topology::shared())
        .threads(1);
        let before = ALLOCS.load(Relaxed);
        let run = runner.run();
        let allocs = ALLOCS.load(Relaxed) - before;
        assert_eq!(run.report.summary.transactions(), 0);
        assert!(
            allocs <= 4 * USERS,
            "{app}: {allocs} allocations for {USERS} users ({:.1} per user)",
            allocs as f64 / USERS as f64
        );
    }

    // The metro browsing island: four cached Entertainment sessions per
    // user behind 5 gateways and 100 cells. Users that each embedded a
    // whole system around an unused host peaked at 3,302 live heap
    // bytes per user; user halves alone, at 1,624; user halves with a
    // cursor instead of their session's steps, at 1,223. Generating
    // each session as a vector of owned steps cost 3.66 allocations per
    // transaction; writing each step into one scratch step, 0.16.
    let runner = FleetRunner::new(
        Scenario::new("metro island")
            .app(Category::Entertainment)
            .users(USERS)
            .sessions_per_user(4)
            .think_time(2.0)
            .cache(CachePolicy::standard().ttl(SimDuration::from_secs(3_600))),
    )
    .topology(Topology::shared().gateways(5).cells(100))
    .threads(1);
    let before = ALLOCS.load(Relaxed);
    let live_before = LIVE.load(Relaxed);
    PEAK.store(live_before, Relaxed);
    let run = runner.run();
    let allocs = ALLOCS.load(Relaxed) - before;
    let peak_per_user = (PEAK.load(Relaxed) - live_before) / USERS;
    let txns = run.report.summary.transactions();
    assert_eq!(txns, 8 * USERS);
    assert!(
        2 * allocs <= txns,
        "{allocs} allocations for {txns} transactions ({:.2} per transaction)",
        allocs as f64 / txns as f64
    );
    assert!(
        peak_per_user <= 1_400,
        "the metro island's live heap peaked at {peak_per_user} bytes per user"
    );

    // The isolated storefront: one Commerce island per user, built
    // alone and then run for one two-step session. Reinstalling the
    // application on every host cost 99.0 and 189.8 allocations per
    // user; cloning a seeded database, 17.1 and 90.3; writing pages
    // straight into their bytes, with no session id formatted for a
    // session nobody keeps, 17.1 and 60.4; writing each step into the
    // worker's scratch step instead of collecting the session, 17.1
    // and 50.4; keeping each row's live version inline, streaming the
    // payment MACs and lending the station's request to the host, 13.0
    // and 27.4.
    const ISOLATED: u64 = 2_000;
    for (sessions, per_user) in [(0, 14), (1, 30)] {
        let runner = FleetRunner::new(
            Scenario::new("isolated storefront")
                .app(Category::Commerce)
                .users(ISOLATED)
                .sessions_per_user(sessions),
        )
        .topology(Topology::isolated())
        .threads(1);
        let before = ALLOCS.load(Relaxed);
        let run = runner.run();
        let allocs = ALLOCS.load(Relaxed) - before;
        assert_eq!(run.report.summary.transactions(), 2 * sessions * ISOLATED);
        assert!(
            allocs <= per_user * ISOLATED,
            "{sessions} session(s): {allocs} allocations for {ISOLATED} isolated users \
             ({:.2} per user, budget {per_user})",
            allocs as f64 / ISOLATED as f64
        );
    }

    // The search-and-checkout island: 25 search-heavy Commerce users
    // behind every cache tier, buying through a priced WAL. Keys built
    // on every search-memo lookup cost 63.4 allocations per
    // transaction; lookups that build none, 61.2. Journal entries that
    // share the installed row image and the table's name, and no
    // session kept per cookie-less request, bring it to 57.7; pages
    // written with no tree and no per-request session id, to 37.3;
    // steps written in place instead of collected sessions, to 32.4; a
    // borrowed host request, streamed payment MACs and row versions
    // replaced in place, to 27.2; page-cache keys rendered into one kept
    // buffer, pages and steps written through `Text` and query terms
    // borrowed from the query, to 25.8.
    let runner = FleetRunner::new(
        Scenario::new("search island")
            .app(Category::Commerce)
            .users(25)
            .search_heavy(true)
            .sessions_per_user(2)
            .think_time(5.0)
            .cache(CachePolicy::standard())
            .durability(DurabilityPolicy::new(4, 250_000)),
    )
    .topology(Topology::shared().gateways(2).cells(8))
    .threads(1);
    let before = ALLOCS.load(Relaxed);
    let run = runner.run();
    let allocs = ALLOCS.load(Relaxed) - before;
    let txns = run.report.summary.transactions();
    assert_eq!(txns, 350);
    assert!(
        allocs <= 26 * txns,
        "{allocs} allocations for {txns} search-island transactions ({:.2} per transaction)",
        allocs as f64 / txns as f64
    );
}
