//! Inventory tracking and dispatching (Table 1, row 6).
//!
//! The paper's introduction singles this category out: "some tasks that
//! are not feasible for electronic commerce, such as mobile inventory
//! tracking and dispatching, are possible for mobile commerce." Drivers
//! scan packages from the road (POST from a handheld), dispatchers assign
//! them, and customers query live status — every write originates on a
//! mobile station.

use hostsite::db::{Database, DbError};
#[cfg(test)]
use hostsite::db::Value;
use hostsite::{HostComputer, HttpRequest, HttpResponse, ServerCtx, Status};
use markup::html::PageWriter;
use rand::RngExt;
use simnet::rng::rng_for_indexed;

use super::{Application, Category, Draws, Step};

/// The inventory tracking and dispatching application.
#[derive(Debug, Default)]
pub struct InventoryApp;

/// Depots packages move through.
pub(crate) const DEPOTS: [&str; 5] = [
    "airport hub",
    "north depot",
    "south depot",
    "city dock",
    "van 7",
];

impl Application for InventoryApp {
    fn category(&self) -> Category {
        Category::Inventory
    }

    fn seed(&self, db: &mut Database) {
        db.create_table(
            "packages",
            &["id", "contents", "location", "status", "driver"],
            &["status"],
        )
        .expect("fresh database");
        for id in 0..200i64 {
            db.insert(
                "packages",
                vec![
                    id.into(),
                    format!("parcel #{id}").into(),
                    DEPOTS[id as usize % DEPOTS.len()].into(),
                    "in transit".into(),
                    "unassigned".into(),
                ],
            )
            .expect("seed packages");
        }
    }

    fn mount(&self, host: &mut HostComputer) {
        // Driver scan: update a package's location (and maybe deliver it).
        host.web.route_post(
            "/track/scan",
            |req: &HttpRequest, ctx: &mut ServerCtx<'_>| {
                let Some(id) = req.param("id").and_then(|s| s.parse::<i64>().ok()) else {
                    return HttpResponse::error(Status::BadRequest, "bad package id");
                };
                let location = req.param("location").unwrap_or("unknown").to_owned();
                let delivered = req.param("delivered") == Some("1");
                let result: Result<(), DbError> = ctx.db.transaction(|tx| {
                    let mut row =
                        (*tx.get("packages", &id.into())?.ok_or(DbError::NotFound)?).clone();
                    row[2] = location.clone().into();
                    if delivered {
                        row[3] = "delivered".into();
                    }
                    tx.update("packages", row)
                });
                match result {
                    Ok(()) => {
                        let mut page = PageWriter::new("Scanned");
                        page.p(format_args!("package {id} scanned at {location}"));
                        HttpResponse::ok(page.finish())
                    }
                    Err(_) => HttpResponse::error(Status::NotFound, "no such package"),
                }
            },
        );

        // Dispatcher assigns a driver.
        host.web.route_post(
            "/track/dispatch",
            |req: &HttpRequest, ctx: &mut ServerCtx<'_>| {
                let Some(id) = req.param("id").and_then(|s| s.parse::<i64>().ok()) else {
                    return HttpResponse::error(Status::BadRequest, "bad package id");
                };
                let driver = req.param("driver").unwrap_or("unknown").to_owned();
                let result: Result<(), DbError> = ctx.db.transaction(|tx| {
                    let mut row =
                        (*tx.get("packages", &id.into())?.ok_or(DbError::NotFound)?).clone();
                    row[4] = driver.clone().into();
                    tx.update("packages", row)
                });
                match result {
                    Ok(()) => {
                        let mut page = PageWriter::new("Dispatched");
                        page.p(format_args!("package {id} assigned to {driver}"));
                        HttpResponse::ok(page.finish())
                    }
                    Err(_) => HttpResponse::error(Status::NotFound, "no such package"),
                }
            },
        );

        // Status query.
        host.web.route_get(
            "/track/status",
            |req: &HttpRequest, ctx: &mut ServerCtx<'_>| {
                let Some(id) = req.param("id").and_then(|s| s.parse::<i64>().ok()) else {
                    return HttpResponse::error(Status::BadRequest, "bad package id");
                };
                match ctx.db.get("packages", &id.into()) {
                    Ok(Some(row)) => {
                        let mut page = PageWriter::new("Tracking");
                        page.h1(format_args!("Package {id}")).table([
                            ("contents", &row[1]),
                            ("location", &row[2]),
                            ("status", &row[3]),
                            ("driver", &row[4]),
                        ]);
                        HttpResponse::ok(page.finish())
                    }
                    Ok(None) => HttpResponse::error(Status::NotFound, "no such package"),
                    Err(_) => HttpResponse::error(Status::ServerError, "db error"),
                }
            },
        );

        // Backlog view for dispatchers.
        host.web.route_get(
            "/track/backlog",
            |_req: &HttpRequest, ctx: &mut ServerCtx<'_>| {
                let in_transit = ctx
                    .db
                    .select_eq("packages", "status", &"in transit".into())
                    .map(|rows| rows.len())
                    .unwrap_or(0);
                let mut page = PageWriter::new("Backlog");
                page.p(format_args!("{in_transit} packages in transit"));
                HttpResponse::ok(page.finish())
            },
        );
    }

    /// `[parcel id, depot row, driver]`.
    fn draws(&self, seed: u64, index: u64) -> Draws {
        let mut rng = rng_for_indexed(seed, "inventory.session", index);
        let id = rng.random_range(0..200i64);
        let depot = rng.random_range(0..DEPOTS.len()) as u64;
        let driver = rng.random_range(1..9u32);
        Draws([id as u64, depot, u64::from(driver)])
    }

    fn write_step(&self, draws: &Draws, step: usize, out: &mut Step) -> bool {
        if step >= 4 {
            return false;
        }
        let [id, depot, driver] = draws.0;
        let (id, depot) = (id as i64, DEPOTS[depot as usize]);
        match step {
            0 => out
                .post(
                    "/track/dispatch",
                    &[("id", &id), ("driver", &format_args!("driver-{driver}"))],
                )
                .expects(format_args!("assigned to driver-{driver}")),
            1 => out
                .post("/track/scan", &[("id", &id), ("location", &depot)])
                .expects(format_args!("scanned at {depot}")),
            2 => out
                .get(format_args!("/track/status?id={id}"))
                .expects(depot),
            _ => out.get("/track/backlog").expects("in transit"),
        };
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> HostComputer {
        let mut host = HostComputer::new(Database::new(), 2);
        InventoryApp.install(&mut host);
        host
    }

    #[test]
    fn scan_updates_location_and_status_page_reflects_it() {
        let mut host = host();
        let (resp, _) = host.process(HttpRequest::post(
            "/track/scan",
            vec![
                ("id".to_owned(), "5".to_owned()),
                ("location".to_owned(), "van 7".to_owned()),
                ("delivered".to_owned(), "1".to_owned()),
            ],
        ));
        assert_eq!(resp.status, Status::Ok);
        let (status, _) = host.process(HttpRequest::get("/track/status?id=5"));
        assert!(status.body.contains("van 7"));
        assert!(status.body.contains("delivered"));
    }

    #[test]
    fn dispatch_assigns_driver() {
        let mut host = host();
        host.process(HttpRequest::post(
            "/track/dispatch",
            vec![
                ("id".to_owned(), "9".to_owned()),
                ("driver".to_owned(), "driver-3".to_owned()),
            ],
        ));
        let row = host.web.db().get("packages", &9.into()).unwrap().unwrap();
        assert_eq!(row[4], Value::Text("driver-3".into()));
    }

    #[test]
    fn backlog_counts_shrink_as_packages_deliver() {
        let mut host = host();
        let before = {
            let (resp, _) = host.process(HttpRequest::get("/track/backlog"));
            resp.body.clone()
        };
        assert!(before.contains("200 packages"));
        for id in 0..10 {
            host.process(HttpRequest::post(
                "/track/scan",
                vec![
                    ("id".to_owned(), id.to_string()),
                    ("location".to_owned(), "door".to_owned()),
                    ("delivered".to_owned(), "1".to_owned()),
                ],
            ));
        }
        let (after, _) = host.process(HttpRequest::get("/track/backlog"));
        assert!(after.body.contains("190 packages"), "{}", after.body);
    }

    #[test]
    fn unknown_package_is_404() {
        let mut host = host();
        let (resp, _) = host.process(HttpRequest::get("/track/status?id=999"));
        assert_eq!(resp.status, Status::NotFound);
    }
}
