//! Entertainment: music/video/game downloads (Table 1, row 4).
//!
//! The bandwidth-heavy category — §5.1 notes W-CDMA's higher speeds let
//! users "download video images and other bandwidth-intensive content".
//! Downloads return bodies sized to the item (tens of kilobytes), which
//! makes this the workload where the wireless standard's data rate, not
//! its latency, dominates.

use hostsite::db::{Database, Value};
use hostsite::{HostComputer, HttpRequest, HttpResponse, ServerCtx, Status};
use markup::html::PageWriter;
use rand::RngExt;
use simnet::rng::rng_for_indexed;

use super::{Application, Category, Draws, Step};

/// The downloads application.
#[derive(Debug, Default)]
pub(crate) struct EntertainmentApp;

/// Seeded items: `(id, title, kind, kilobytes)`.
const ITEMS: [(i64, &str, &str, i64); 5] = [
    (1, "ringtone: nocturne", "music", 8),
    (2, "wallpaper: skyline", "image", 16),
    (3, "game: block drop", "game", 24),
    (4, "trailer: night train", "video", 30),
    (5, "single: morning light", "music", 20),
];

impl Application for EntertainmentApp {
    fn category(&self) -> Category {
        Category::Entertainment
    }

    fn seed(&self, db: &mut Database) {
        db.create_table(
            "media",
            &["id", "title", "kind", "kb", "downloads"],
            &["kind"],
        )
        .expect("fresh database");
        for (id, title, kind, kb) in ITEMS {
            db.insert(
                "media",
                vec![id.into(), title.into(), kind.into(), kb.into(), 0i64.into()],
            )
            .expect("seed media");
        }
    }

    fn mount(&self, host: &mut HostComputer) {
        host.web
            .route_get("/media", |_req: &HttpRequest, ctx: &mut ServerCtx<'_>| {
                let rows = ctx.db.select("media", |_| true).unwrap_or_default();
                let mut page = PageWriter::new("Media store");
                page.h1("Downloads");
                for r in &rows {
                    page.a(
                        ("/media/download?id=", &r[0]),
                        (&r[1], " [", &r[2], "] ", &r[3], " KB"),
                    );
                }
                HttpResponse::ok(page.finish())
            });

        host.web.route_get(
            "/media/download",
            |req: &HttpRequest, ctx: &mut ServerCtx<'_>| {
                let Some(id) = req.param("id").and_then(|s| s.parse::<i64>().ok()) else {
                    return HttpResponse::error(Status::BadRequest, "bad media id");
                };
                let Ok(Some(row)) = ctx.db.get("media", &id.into()) else {
                    return HttpResponse::error(Status::NotFound, "no such item");
                };
                let mut row = (*row).clone();
                let Value::Int(kb) = row[3] else {
                    return HttpResponse::error(Status::ServerError, "bad row");
                };
                // Count the download.
                if let Value::Int(n) = row[4] {
                    row[4] = (n + 1).into();
                    let _ = ctx.db.update("media", row.clone());
                }
                // The "payload": content bytes inline in the page (base64-ish
                // filler sized to the item), so the network actually carries it.
                let blob = "QUJDRA==".repeat((kb as usize * 1024) / 8);
                let mut page = PageWriter::new("Download");
                page.h1(("Delivering ", &row[1]))
                    .p(("content follows (", kb, " KB)"))
                    .pre(&blob);
                HttpResponse::ok(page.finish())
            },
        );

        host.web.route_get(
            "/media/top",
            |_req: &HttpRequest, ctx: &mut ServerCtx<'_>| {
                let mut rows = ctx.db.select("media", |_| true).unwrap_or_default();
                rows.sort_by_key(|r| match r[4] {
                    Value::Int(n) => -n,
                    _ => 0,
                });
                let mut page = PageWriter::new("Charts");
                match rows.first() {
                    Some(r) => page.p(format_args!(
                        "most downloaded: {} ({} downloads)",
                        r[1], r[4]
                    )),
                    None => page.p("no downloads yet"),
                };
                HttpResponse::ok(page.finish())
            },
        );
    }

    /// `[item row, _, _]`.
    fn draws(&self, seed: u64, index: u64) -> Draws {
        let mut rng = rng_for_indexed(seed, "entertainment.session", index);
        Draws([rng.random_range(0..ITEMS.len()) as u64, 0, 0])
    }

    fn write_step(&self, draws: &Draws, step: usize, out: &mut Step) -> bool {
        match step {
            0 => out.get("/media").expects("Downloads"),
            1 => {
                let (id, title, _, _) = ITEMS[draws.0[0] as usize];
                out.get(("/media/download?id=", id))
                    .expects(("Delivering ", title))
            }
            _ => return false,
        };
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> HostComputer {
        let mut host = HostComputer::new(Database::new(), 6);
        EntertainmentApp.install(&mut host);
        host
    }

    #[test]
    fn downloads_carry_payload_sized_to_the_item() {
        let mut host = host();
        let (small, _) = host.process(HttpRequest::get("/media/download?id=1"));
        let (large, _) = host.process(HttpRequest::get("/media/download?id=4"));
        assert_eq!(small.status, Status::Ok);
        assert!(small.body.len() > 8 * 1024);
        assert!(large.body.len() > 28 * 1024);
        assert!(large.body.len() > small.body.len() * 3);
    }

    #[test]
    fn download_counter_feeds_the_charts() {
        let mut host = host();
        for _ in 0..3 {
            host.process(HttpRequest::get("/media/download?id=3"));
        }
        host.process(HttpRequest::get("/media/download?id=1"));
        let (charts, _) = host.process(HttpRequest::get("/media/top"));
        assert!(charts.body.contains("block drop"), "{}", charts.body);
        assert!(charts.body.contains("3 downloads"));
    }

    #[test]
    fn catalogue_lists_every_item() {
        let mut host = host();
        let (resp, _) = host.process(HttpRequest::get("/media"));
        for (_, title, _, _) in ITEMS {
            assert!(resp.body.contains(title));
        }
    }

    #[test]
    fn unknown_item_is_404() {
        let mut host = host();
        let (resp, _) = host.process(HttpRequest::get("/media/download?id=77"));
        assert_eq!(resp.status, Status::NotFound);
    }
}
