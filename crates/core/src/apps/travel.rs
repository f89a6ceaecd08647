//! Travel and ticketing (Table 1, row 8).
//!
//! Flight search, seat-safe booking and ticket retrieval — the "travel
//! management" workload for "travel industry and ticket sales". Bookings
//! decrement seats inside a database transaction, so overselling is
//! impossible even under concurrent sessions.

use hostsite::db::{Database, DbError, Value};
use hostsite::{ContentFormat, HostComputer, HttpRequest, HttpResponse, ServerCtx, Status};
use markup::html::{self, PageWriter};
use rand::RngExt;
use simnet::rng::rng_for_indexed;

use super::{Application, Category, Draws, Step};

/// The travel and ticketing application.
#[derive(Debug, Default)]
pub struct TravelApp;

/// Seeded flights: `(id, from, to, departs, seats)`.
const FLIGHTS: [(i64, &str, &str, &str, i64); 6] = [
    (100, "ATL", "ORD", "08:10", 120),
    (101, "ATL", "ORD", "17:45", 80),
    (102, "ORD", "DEN", "09:30", 140),
    (103, "DEN", "SFO", "11:05", 90),
    (104, "ATL", "DEN", "13:20", 60),
    (105, "ORD", "SFO", "15:55", 110),
];

impl Application for TravelApp {
    fn category(&self) -> Category {
        Category::Travel
    }

    fn seed(&self, db: &mut Database) {
        db.create_table(
            "flights",
            &["id", "orig", "dest", "departs", "seats"],
            &["orig"],
        )
        .expect("fresh database");
        db.create_table("tickets", &["id", "flight", "passenger"], &["flight"])
            .expect("fresh database");
        for (id, from, to, dep, seats) in FLIGHTS {
            db.insert(
                "flights",
                vec![id.into(), from.into(), to.into(), dep.into(), seats.into()],
            )
            .expect("seed flights");
        }
    }

    fn mount(&self, host: &mut HostComputer) {
        // Search by origin. This route practises §7's content negotiation:
        // clients that accept cHTML (i-mode handsets) get a natively
        // compact page, so the middleware can pass it through unfiltered.
        host.web.route_get(
            "/travel/search",
            |req: &HttpRequest, ctx: &mut ServerCtx<'_>| {
                let Some(orig) = req.param("from") else {
                    return HttpResponse::error(Status::BadRequest, "need from");
                };
                let flights = match ctx.db.select_eq("flights", "orig", &orig.into()) {
                    Ok(rows) => rows,
                    Err(_) => return HttpResponse::error(Status::ServerError, "db error"),
                };
                let mut page = PageWriter::new("Search");
                page.h1(format_args!("Flights from {orig}"));
                if flights.is_empty() {
                    page.p("no flights found");
                }
                for f in &flights {
                    page.a(
                        format_args!("/travel/book?flight={}", f[0]),
                        format_args!("{} to {} departing {} ({} seats)", f[1], f[2], f[3], f[4]),
                    );
                }
                let page = page.finish();
                if req.accept == ContentFormat::Chtml {
                    // Author-side compaction: already valid cHTML, marked as
                    // such so i-mode ships it without filtering. The filter
                    // works on a tree, so this one branch parses the page.
                    let Ok(doc) = html::parse_html(&page) else {
                        return HttpResponse::error(Status::ServerError, "unparseable page");
                    };
                    let compact = markup::transcode::html_to_chtml(&doc);
                    HttpResponse::ok(compact.to_markup()).with_format(ContentFormat::Chtml)
                } else {
                    HttpResponse::ok(page)
                }
            },
        );

        // Book a seat.
        host.web.route_post(
            "/travel/book",
            |req: &HttpRequest, ctx: &mut ServerCtx<'_>| {
                let Some(flight) = req.param("flight").and_then(|s| s.parse::<i64>().ok()) else {
                    return HttpResponse::error(Status::BadRequest, "bad flight");
                };
                let passenger = req.param("passenger").unwrap_or("guest").to_owned();
                let ticket_id: Result<i64, DbError> = ctx.db.transaction(|tx| {
                    let mut row = (*tx
                        .get("flights", &flight.into())?
                        .ok_or(DbError::NotFound)?)
                    .clone();
                    let Value::Int(seats) = row[4] else {
                        return Err(DbError::NotFound);
                    };
                    if seats == 0 {
                        return Err(DbError::NotFound); // sold out
                    }
                    row[4] = (seats - 1).into();
                    tx.update("flights", row)?;
                    // Allocate past the highest id ever issued (rows are in
                    // primary-key order); counting rows would reuse ids after
                    // a cancellation.
                    let ticket_id = tx
                        .select("tickets", |_| true)?
                        .last()
                        .and_then(|r| match r[0] {
                            Value::Int(id) => Some(id),
                            _ => None,
                        })
                        .unwrap_or(0)
                        + 1;
                    tx.insert(
                        "tickets",
                        vec![ticket_id.into(), flight.into(), passenger.clone().into()],
                    )?;
                    Ok(ticket_id)
                });
                match ticket_id {
                    Ok(id) => {
                        let mut page = PageWriter::new("Booked");
                        page.h1("Ticket issued")
                            .p(format_args!(
                                "ticket {id} on flight {flight} for {passenger}"
                            ))
                            .a(format_args!("/travel/ticket?id={id}"), "View ticket");
                        HttpResponse::ok(page.finish())
                    }
                    Err(_) => HttpResponse::error(Status::BadRequest, "sold out or unknown flight"),
                }
            },
        );

        // Cancel a ticket: delete it and return the seat, atomically.
        host.web.route_post(
            "/travel/cancel",
            |req: &HttpRequest, ctx: &mut ServerCtx<'_>| {
                let Some(id) = req.param("id").and_then(|s| s.parse::<i64>().ok()) else {
                    return HttpResponse::error(Status::BadRequest, "bad ticket id");
                };
                let result: Result<i64, DbError> = ctx.db.transaction(|tx| {
                    let ticket = tx.get("tickets", &id.into())?.ok_or(DbError::NotFound)?;
                    let Value::Int(flight) = ticket[1] else {
                        return Err(DbError::NotFound);
                    };
                    tx.delete("tickets", &id.into())?;
                    let mut row = (*tx
                        .get("flights", &flight.into())?
                        .ok_or(DbError::NotFound)?)
                    .clone();
                    let Value::Int(seats) = row[4] else {
                        return Err(DbError::NotFound);
                    };
                    row[4] = (seats + 1).into();
                    tx.update("flights", row)?;
                    Ok(flight)
                });
                match result {
                    Ok(flight) => {
                        let mut page = PageWriter::new("Cancelled");
                        page.p(format_args!(
                            "ticket {id} cancelled, seat returned to flight {flight}"
                        ));
                        HttpResponse::ok(page.finish())
                    }
                    Err(_) => HttpResponse::error(Status::NotFound, "no such ticket"),
                }
            },
        );

        // Retrieve a ticket.
        host.web.route_get(
            "/travel/ticket",
            |req: &HttpRequest, ctx: &mut ServerCtx<'_>| {
                let Some(id) = req.param("id").and_then(|s| s.parse::<i64>().ok()) else {
                    return HttpResponse::error(Status::BadRequest, "bad ticket id");
                };
                match ctx.db.get("tickets", &id.into()) {
                    Ok(Some(row)) => {
                        let mut page = PageWriter::new("Ticket");
                        page.p(format_args!(
                            "ticket {id}: flight {} passenger {}",
                            row[1], row[2]
                        ));
                        HttpResponse::ok(page.finish())
                    }
                    Ok(None) => HttpResponse::error(Status::NotFound, "no such ticket"),
                    Err(_) => HttpResponse::error(Status::ServerError, "db error"),
                }
            },
        );
    }

    /// `[flight row, rider, _]`.
    fn draws(&self, seed: u64, index: u64) -> Draws {
        let mut rng = rng_for_indexed(seed, "travel.session", index);
        Draws([rng.random_range(0..FLIGHTS.len()) as u64, index, 0])
    }

    fn write_step(&self, draws: &Draws, step: usize, out: &mut Step) -> bool {
        if step >= 2 {
            return false;
        }
        let [row, index, _] = draws.0;
        let (_, orig, _, _, _) = FLIGHTS[row as usize];
        let flight = FLIGHTS
            .iter()
            .find(|f| f.1 == orig)
            .expect("origin exists")
            .0;
        match step {
            0 => out
                .get(format_args!("/travel/search?from={orig}"))
                .expects(format_args!("Flights from {orig}")),
            _ => out
                .post(
                    "/travel/book",
                    &[
                        ("flight", &flight),
                        ("passenger", &format_args!("rider-{index}")),
                    ],
                )
                .expects("Ticket issued"),
        };
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> HostComputer {
        let mut host = HostComputer::new(Database::new(), 4);
        TravelApp.install(&mut host);
        host
    }

    #[test]
    fn search_lists_flights_by_origin() {
        let mut host = host();
        let (resp, _) = host.process(HttpRequest::get("/travel/search?from=ATL"));
        assert!(resp.body.contains("ATL to ORD"));
        assert!(resp.body.contains("ATL to DEN"));
        assert!(!resp.body.contains("ORD to SFO"));
    }

    #[test]
    fn booking_decrements_seats_and_issues_retrievable_ticket() {
        let mut host = host();
        let (resp, _) = host.process(HttpRequest::post(
            "/travel/book",
            vec![
                ("flight".to_owned(), "104".to_owned()),
                ("passenger".to_owned(), "alice".to_owned()),
            ],
        ));
        assert!(resp.body.contains("Ticket issued"), "{}", resp.body);
        let row = host.web.db().get("flights", &104.into()).unwrap().unwrap();
        assert_eq!(row[4], Value::Int(59));
        let (ticket, _) = host.process(HttpRequest::get("/travel/ticket?id=1"));
        assert!(ticket.body.contains("passenger alice"));
    }

    #[test]
    fn sold_out_flights_refuse_booking() {
        let mut host = host();
        // Drain flight 104's 60 seats.
        for _ in 0..60 {
            let (resp, _) = host.process(HttpRequest::post(
                "/travel/book",
                vec![("flight".to_owned(), "104".to_owned())],
            ));
            assert_eq!(resp.status, Status::Ok);
        }
        let (resp, _) = host.process(HttpRequest::post(
            "/travel/book",
            vec![("flight".to_owned(), "104".to_owned())],
        ));
        assert_eq!(resp.status, Status::BadRequest);
        let row = host.web.db().get("flights", &104.into()).unwrap().unwrap();
        assert_eq!(row[4], Value::Int(0), "never oversold");
    }

    #[test]
    fn booking_still_works_after_a_cancellation() {
        // Regression: ticket ids must not be reused after cancellation,
        // or the id collides and every later booking is refused.
        let mut host = host();
        for _ in 0..2 {
            let (resp, _) = host.process(HttpRequest::post(
                "/travel/book",
                vec![("flight".to_owned(), "100".to_owned())],
            ));
            assert_eq!(resp.status, Status::Ok);
        }
        host.process(HttpRequest::post(
            "/travel/cancel",
            vec![("id".to_owned(), "1".to_owned())],
        ));
        let (resp, _) = host.process(HttpRequest::post(
            "/travel/book",
            vec![("flight".to_owned(), "100".to_owned())],
        ));
        assert_eq!(resp.status, Status::Ok, "{}", resp.body);
        assert!(
            resp.body.contains("ticket 3"),
            "fresh id, not a reused one: {}",
            resp.body
        );
    }

    #[test]
    fn cancellation_returns_the_seat_and_voids_the_ticket() {
        let mut host = host();
        host.process(HttpRequest::post(
            "/travel/book",
            vec![
                ("flight".to_owned(), "100".to_owned()),
                ("passenger".to_owned(), "zoe".to_owned()),
            ],
        ));
        assert_eq!(
            host.web.db().get("flights", &100.into()).unwrap().unwrap()[4],
            Value::Int(119)
        );
        let (resp, _) = host.process(HttpRequest::post(
            "/travel/cancel",
            vec![("id".to_owned(), "1".to_owned())],
        ));
        assert!(resp.body.contains("seat returned"), "{}", resp.body);
        assert_eq!(
            host.web.db().get("flights", &100.into()).unwrap().unwrap()[4],
            Value::Int(120),
            "seat restored"
        );
        assert!(host.web.db().get("tickets", &1.into()).unwrap().is_none());
        // Double cancel fails cleanly and changes nothing.
        let (resp, _) = host.process(HttpRequest::post(
            "/travel/cancel",
            vec![("id".to_owned(), "1".to_owned())],
        ));
        assert_eq!(resp.status, Status::NotFound);
        assert_eq!(
            host.web.db().get("flights", &100.into()).unwrap().unwrap()[4],
            Value::Int(120)
        );
    }

    #[test]
    fn search_negotiates_chtml_for_imode_clients() {
        let mut host = host();
        let (html_resp, _) = host.process(HttpRequest::get("/travel/search?from=ATL"));
        assert_eq!(html_resp.format, ContentFormat::Html);
        let (chtml_resp, _) = host
            .process(HttpRequest::get("/travel/search?from=ATL").with_accept(ContentFormat::Chtml));
        assert_eq!(chtml_resp.format, ContentFormat::Chtml);
        let doc = markup::parse::parse(&chtml_resp.body).unwrap();
        markup::chtml::validate(&doc).unwrap();
        assert!(doc.text_content().contains("ATL to ORD"));
    }

    #[test]
    fn missing_ticket_is_404() {
        let mut host = host();
        let (resp, _) = host.process(HttpRequest::get("/travel/ticket?id=99"));
        assert_eq!(resp.status, Status::NotFound);
    }
}
