//! Criterion group `host_text`: the text a search-checkout transaction
//! writes and hashes on the host path, one kernel at a time.
//!
//! fleetbench times the whole exchange; these three kernels time its
//! text work alone, in host time:
//!
//! * a page-cache lookup of a search URL — the key rendered into the
//!   cache's buffer, hashed and probed; search pages are never stored,
//!   so the lookup misses, as every search lookup in the fleet does;
//! * the Commerce search-results page written over a two-term search's
//!   rows (a match count and a buy link per row, each escaped);
//! * a search step written into a reused `Step`: the two-term query URL
//!   with its hex noise token, and the expectation.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use hostsite::db::Database;
use hostsite::{ContentFormat, HttpRequest, HttpResponse, PageCache};
use mcommerce_core::apps::commerce::search_page;
use mcommerce_core::apps::{Application, PaymentsApp, Step};

fn bench_host_text(c: &mut Criterion) {
    let mut group = c.benchmark_group("host_text");

    let mut cache = PageCache::new(u64::MAX, 64 * 1024);
    let shop = HttpRequest::get("/shop").with_accept(ContentFormat::Wml);
    cache.store(&shop, &HttpResponse::ok("<html>shop</html>"), 0);
    let url = "/shop/search?q=spare+stylus+x0a1b2c3d";
    group.bench_function("page_cache_lookup_search_url", |b| {
        b.iter(|| {
            let req = HttpRequest::borrowed(black_box(url), None, &[], None)
                .with_accept(ContentFormat::Wml);
            black_box(cache.lookup(&req, 1).is_some())
        })
    });

    let app = PaymentsApp::new();
    let mut db = Database::new();
    app.seed(&mut db);
    let rows = db
        .search("products", "spare+stylus+x0a1b2c3d")
        .expect("products are searchable");
    group.bench_function("commerce_search_page", |b| {
        b.iter(|| black_box(search_page(black_box(&rows)).len()))
    });

    let mut step = Step::default();
    let mut index = 0u64;
    group.bench_function("search_step_write", |b| {
        b.iter(|| {
            index += 1;
            black_box(app.write_search_step(7, index, 3, &mut step))
        })
    });
    group.finish();
}

criterion_group!(host_text, bench_host_text);
criterion_main!(host_text);
