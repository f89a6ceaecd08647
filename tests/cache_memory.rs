//! Memory bound of the caching tiers (DESIGN.md §2.14). A binary of its
//! own: its counting global allocator sees every allocation in the
//! process, so it holds exactly one test.
//!
//! A cache's memory, keys included, must be bounded by what it holds.
//! Each entry owns its key, so a key is freed with its entry: a stream
//! of distinct keys that are all *stored* — and so evicted again under a
//! small budget — leaves the live heap where it was. A cache that kept
//! every key it ever stored (an interner handing out ids that outlive
//! their entries) would hold all 100k of them here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering::Relaxed};

use mcommerce::hostsite::cache::PageCache;
use mcommerce::hostsite::{HttpRequest, HttpResponse, Status};
use mcommerce::middleware::{AirFormat, ContentCache, Exchange, MobileRequest};
use mcommerce::simnet::SimDuration;

static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

/// The system allocator, tracking the bytes currently allocated.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; counting touches only an atomic and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as i64, Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as i64, Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn distinct_stored_keys_hold_flat_memory_in_page_and_gateway_caches() {
    const KEYS: u64 = 100_000;
    const WARM: u64 = 1_000;
    const BUDGET: usize = 2 * 1024;
    let page = HttpResponse::ok("<html><body>page</body></html>");
    let deck = Exchange {
        status: Status::Ok,
        content: "<wml><card>deck</card></wml>".into(),
        format: AirFormat::WmlBinary,
        uplink_bytes: 40,
        downlink_bytes: 64,
        wired_bytes: (120, 300),
        middleware_cpu: SimDuration::from_micros(450),
        host_cpu: SimDuration::from_micros(2_500),
        extra_round_trips: 0,
        set_cookies: Vec::new(),
        no_store: false,
        deck: None,
    };
    let mut pages = PageCache::new(u64::MAX, BUDGET);
    let mut decks = ContentCache::new(u64::MAX, BUDGET);
    let mut evicted = 0;
    let mut live_after_warm_up = 0;
    for i in 0..KEYS {
        if i == WARM {
            // Both caches are full and cycling: their tables have grown
            // to the size the budget allows.
            live_after_warm_up = LIVE_BYTES.load(Relaxed);
        }
        let url = format!("/catalog?item={i}");
        evicted += pages.store(&HttpRequest::get(&url), &page, i);
        evicted += decks.store(&MobileRequest::get(&url), "iPAQ", "WAP", &deck, i);
    }
    let growth = LIVE_BYTES.load(Relaxed) - live_after_warm_up;
    assert!(pages.bytes() <= BUDGET && decks.bytes() <= BUDGET);
    assert!(
        pages.len() < 64 && decks.len() < 64,
        "{} / {}",
        pages.len(),
        decks.len()
    );
    assert_eq!(
        evicted + pages.len() + decks.len(),
        2 * KEYS as usize,
        "every key stored"
    );
    assert!(
        growth < 16 * 1024,
        "{growth} live heap bytes gained over {} distinct stored keys",
        KEYS - WARM
    );
}
