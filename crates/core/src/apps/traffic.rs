//! Traffic: positioning, directions and traffic advisories (Table 1, row 7).
//!
//! A road graph lives on the host; mobile probes (vehicles) report
//! congestion from the field, and drivers request routes whose directions
//! reflect the latest advisories — the paper's "global positioning,
//! directions, and traffic advisories" for the "transportation and auto
//! industries".

use hostsite::db::{Database, DbError, Value};
use hostsite::{HostComputer, HttpRequest, HttpResponse, ServerCtx, Status};
use markup::html::PageWriter;
use rand::RngExt;
use simnet::rng::rng_for_indexed;

use super::{Application, Category, Draws, Step};

/// The traffic application.
#[derive(Debug, Default)]
pub(crate) struct TrafficApp;

/// Intersections of the simulated city grid.
pub(crate) const NODES: [&str; 6] = ["airport", "harbor", "station", "mall", "campus", "stadium"];

/// Directed road segments `(from, to, minutes)`.
const ROADS: [(&str, &str, i64); 10] = [
    ("airport", "station", 18),
    ("station", "mall", 7),
    ("mall", "campus", 9),
    ("campus", "stadium", 12),
    ("harbor", "station", 11),
    ("station", "harbor", 11),
    ("mall", "harbor", 14),
    ("stadium", "airport", 25),
    ("station", "campus", 15),
    ("harbor", "stadium", 21),
];

impl Application for TrafficApp {
    fn category(&self) -> Category {
        Category::Traffic
    }

    fn seed(&self, db: &mut Database) {
        db.create_table(
            "roads",
            &["id", "from_node", "to_node", "minutes", "congestion"],
            &["from_node"],
        )
        .expect("fresh database");
        for (i, (from, to, minutes)) in ROADS.iter().enumerate() {
            db.insert(
                "roads",
                vec![
                    (i as i64).into(),
                    (*from).into(),
                    (*to).into(),
                    (*minutes).into(),
                    0i64.into(),
                ],
            )
            .expect("seed roads");
        }
    }

    fn mount(&self, host: &mut HostComputer) {
        // A probe vehicle reports congestion on a segment (0–9 scale).
        host.web.route_post(
            "/traffic/report",
            |req: &HttpRequest, ctx: &mut ServerCtx<'_>| {
                let Some(id) = req.param("road").and_then(|s| s.parse::<i64>().ok()) else {
                    return HttpResponse::error(Status::BadRequest, "bad road id");
                };
                let level = req
                    .param("level")
                    .and_then(|s| s.parse::<i64>().ok())
                    .unwrap_or(0)
                    .clamp(0, 9);
                let result: Result<(), DbError> = ctx.db.transaction(|tx| {
                    let mut row =
                        (*tx.get("roads", &id.into())?.ok_or(DbError::NotFound)?).clone();
                    row[4] = level.into();
                    tx.update("roads", row)
                });
                match result {
                    Ok(()) => {
                        let mut page = PageWriter::new("Reported");
                        page.p(format_args!("congestion {level} recorded on road {id}"));
                        HttpResponse::ok(page.finish())
                    }
                    Err(_) => HttpResponse::error(Status::NotFound, "no such road"),
                }
            },
        );

        // Directions: shortest path by congestion-adjusted minutes.
        host.web.route_get(
            "/traffic/route",
            |req: &HttpRequest, ctx: &mut ServerCtx<'_>| {
                let (Some(from), Some(to)) = (req.param("from"), req.param("to")) else {
                    return HttpResponse::error(Status::BadRequest, "need from and to");
                };
                let roads = match ctx.db.select("roads", |_| true) {
                    Ok(r) => r,
                    Err(_) => return HttpResponse::error(Status::ServerError, "db error"),
                };
                let edges: Vec<(String, String, i64, i64)> = roads
                    .iter()
                    .map(|r| {
                        let minutes = match r[3] {
                            Value::Int(m) => m,
                            _ => 0,
                        };
                        let congestion = match r[4] {
                            Value::Int(c) => c,
                            _ => 0,
                        };
                        (r[1].to_string(), r[2].to_string(), minutes, congestion)
                    })
                    .collect();
                match shortest_path(&edges, from, to) {
                    Some((total, hops)) => {
                        let mut page = PageWriter::new("Directions");
                        page.h1(format_args!("Route {from} to {to}"))
                            .p(format_args!("estimated {total} minutes"));
                        for (a, b, cost) in &hops {
                            page.p(format_args!("take {a} to {b} ({cost} min)"));
                        }
                        let worst = hops.iter().map(|(_, _, c)| *c).max().unwrap_or(0);
                        if worst >= 15 {
                            page.p("advisory: expect delays on this route");
                        }
                        HttpResponse::ok(page.finish())
                    }
                    None => HttpResponse::error(Status::NotFound, "no route"),
                }
            },
        );
    }

    /// `[road, congestion level, origin node]`.
    fn draws(&self, seed: u64, index: u64) -> Draws {
        let mut rng = rng_for_indexed(seed, "traffic.session", index);
        let road = rng.random_range(0..ROADS.len() as i64);
        let level = rng.random_range(0..10i64);
        // Pick a pair known to be connected: everything reaches "stadium".
        let from = rng.random_range(0..4usize) as u64;
        Draws([road as u64, level as u64, from])
    }

    fn write_step(&self, draws: &Draws, step: usize, out: &mut Step) -> bool {
        if step >= 2 {
            return false;
        }
        let [road, level, from] = draws.0;
        let (road, level, from) = (road as i64, level as i64, NODES[from as usize]);
        match step {
            0 => out
                .post("/traffic/report", &[("road", &road), ("level", &level)])
                .expects(format_args!("congestion {level} recorded")),
            _ => out
                .get(format_args!("/traffic/route?from={from}&to=stadium"))
                .expects("estimated"),
        };
        true
    }
}

/// Dijkstra over congestion-adjusted minutes: each congestion level adds
/// 30% of the segment's base time. Returns `(total, [(from, to, cost)])`.
type RoutePlan = (i64, Vec<(String, String, i64)>);

fn shortest_path(edges: &[(String, String, i64, i64)], from: &str, to: &str) -> Option<RoutePlan> {
    use std::collections::{BinaryHeap, HashMap};
    let cost_of = |minutes: i64, congestion: i64| minutes + (minutes * 3 * congestion) / 10;

    let mut best: HashMap<&str, i64> = HashMap::new();
    let mut prev: HashMap<&str, (&str, i64)> = HashMap::new();
    let mut heap = BinaryHeap::new();
    heap.push((std::cmp::Reverse(0i64), from));
    best.insert(from, 0);
    while let Some((std::cmp::Reverse(dist), node)) = heap.pop() {
        if node == to {
            break;
        }
        if dist > best.get(node).copied().unwrap_or(i64::MAX) {
            continue;
        }
        for (a, b, minutes, congestion) in edges {
            if a != node {
                continue;
            }
            let next = dist + cost_of(*minutes, *congestion);
            if next < best.get(b.as_str()).copied().unwrap_or(i64::MAX) {
                best.insert(b, next);
                prev.insert(b, (a, cost_of(*minutes, *congestion)));
                heap.push((std::cmp::Reverse(next), b));
            }
        }
    }
    let total = *best.get(to)?;
    let mut hops = Vec::new();
    let mut cursor = to;
    while cursor != from {
        let (parent, cost) = prev.get(cursor)?;
        hops.push(((*parent).to_owned(), cursor.to_owned(), *cost));
        cursor = parent;
    }
    hops.reverse();
    Some((total, hops))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> HostComputer {
        let mut host = HostComputer::new(Database::new(), 3);
        TrafficApp.install(&mut host);
        host
    }

    #[test]
    fn clear_roads_give_the_direct_route() {
        let mut host = host();
        let (resp, _) = host.process(HttpRequest::get("/traffic/route?from=airport&to=mall"));
        assert_eq!(resp.status, Status::Ok);
        assert!(resp.body.contains("estimated 25 minutes"), "{}", resp.body);
        assert!(resp.body.contains("airport to station"));
        assert!(resp.body.contains("station to mall"));
    }

    #[test]
    fn congestion_reports_reroute_traffic() {
        let mut host = host();
        // Jam the station→mall segment (road 1) to maximum.
        host.process(HttpRequest::post(
            "/traffic/report",
            vec![
                ("road".to_owned(), "1".to_owned()),
                ("level".to_owned(), "9".to_owned()),
            ],
        ));
        let (resp, _) = host.process(HttpRequest::get("/traffic/route?from=harbor&to=mall"));
        // Direct harbor→station→mall is now worse than any alternative
        // that avoids road 1 — at minimum the estimate reflects the jam.
        assert!(resp.status == Status::Ok);
        assert!(!resp.body.contains("estimated 18 minutes"), "{}", resp.body);
    }

    #[test]
    fn heavy_congestion_produces_an_advisory() {
        let mut host = host();
        host.process(HttpRequest::post(
            "/traffic/report",
            vec![
                ("road".to_owned(), "0".to_owned()),
                ("level".to_owned(), "9".to_owned()),
            ],
        ));
        let (resp, _) = host.process(HttpRequest::get("/traffic/route?from=airport&to=station"));
        assert!(resp.body.contains("advisory"), "{}", resp.body);
    }

    #[test]
    fn unknown_endpoints_and_roads_error() {
        let mut host = host();
        let (resp, _) = host.process(HttpRequest::get("/traffic/route?from=nowhere&to=mall"));
        assert_eq!(resp.status, Status::NotFound);
        let (resp, _) = host.process(HttpRequest::post(
            "/traffic/report",
            vec![
                ("road".to_owned(), "99".to_owned()),
                ("level".to_owned(), "5".to_owned()),
            ],
        ));
        assert_eq!(resp.status, Status::NotFound);
    }

    #[test]
    fn dijkstra_handles_unreachable_nodes() {
        let edges = vec![("a".to_owned(), "b".to_owned(), 5i64, 0i64)];
        assert!(shortest_path(&edges, "a", "b").is_some());
        assert!(shortest_path(&edges, "b", "a").is_none());
    }
}
