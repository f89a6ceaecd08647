//! Commerce: mobile transactions and payments (Table 1, row 1).
//!
//! A storefront whose checkout drives the full `security` payment
//! protocol: the application program signs an authorization request with
//! the station's shared MAC key, the gateway places a hold, capture
//! settles funds, and the rendered page carries the receipt's
//! authorization code. Tampering and replay failures surface as refused
//! checkouts — §8's integrity/authentication requirements, observable
//! from the handset.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, OnceLock};

use hostsite::db::{Database, DbError, Row, Value};
use hostsite::{HostComputer, HttpRequest, HttpResponse, ServerCtx, Status};
use markup::html::PageWriter;
use markup::text::Hex8;
use rand::RngExt;
use security::{Mac, PaymentGateway, PaymentRequest};
use simnet::rng::rng_for_indexed;

use super::{Application, Category, Draws, Step};

/// The payments application.
pub struct PaymentsApp {
    client_mac: Mac,
}

impl Default for PaymentsApp {
    fn default() -> Self {
        Self::new()
    }
}

impl PaymentsApp {
    /// Creates the application with its well-known (simulated) shared key.
    pub fn new() -> Self {
        PaymentsApp {
            client_mac: Mac::new(b"mc-payments-shared-key"),
        }
    }
}

/// Catalogue seeded at install time: `(sku, name, price_cents, stock)`.
const CATALOG: [(i64, &str, i64, i64); 4] = [
    (1, "wireless earpiece", 2_999, 40),
    (2, "leather PDA case", 1_950, 60),
    (3, "spare stylus pack", 650, 200),
    (4, "travel charger", 1_450, 80),
];

/// The `/shop/search` results page over `rows`, the ranked rows of
/// [`Database::search`]: a match count and a buy link per row.
pub fn search_page(rows: &[Arc<Row>]) -> String {
    let mut page = PageWriter::new("Search");
    page.h1("Search results").p((rows.len(), " match(es)"));
    for r in rows {
        product_link(&mut page, r);
    }
    page.finish()
}

/// One catalogue row as a buy link: `name — price cents (stock left)`.
fn product_link(page: &mut PageWriter, row: &[Value]) {
    page.a(
        ("/shop/buy?sku=", &row[0]),
        (&row[1], " — ", &row[2], " cents (", &row[3], " left)"),
    );
}

impl Application for PaymentsApp {
    fn category(&self) -> Category {
        Category::Commerce
    }

    fn seed(&self, db: &mut Database) {
        db.create_table(
            "products",
            &["sku", "name", "price_cents", "stock"],
            &["name"],
        )
        .expect("fresh database");
        for (sku, name, price, stock) in CATALOG {
            db.insert(
                "products",
                vec![sku.into(), name.into(), price.into(), stock.into()],
            )
            .expect("seed products");
        }
        // Full-text search over product names. Registration is engine
        // configuration (not journaled), so the pristine-page journal
        // pinning in `mount` is unaffected; a DbCrash drops the postings
        // and recovery re-registers and rebuilds them from the base rows.
        db.create_fts("products", "name").expect("fresh database");
    }

    fn mount(&self, host: &mut HostComputer) {
        let gateway = {
            let mut gw = PaymentGateway::new(self.client_mac, Mac::new(b"mc-payments-gateway-key"));
            // Every simulated shopper shares one demo account per run.
            gw.open_account("shopper", 500_000);
            Rc::new(RefCell::new(gw))
        };
        let client_mac = self.client_mac;

        // The storefront page is a pure function of the products table.
        // Every world's database is seeded from the same constant
        // CATALOG, so the pristine-state page is process-constant: it is
        // rendered once and shared across all worlds (and threads). The
        // journal length pins "pristine" exactly — any database write in
        // this world (a purchase, in shared topologies) falls back to a
        // fresh render of the current rows.
        static PRISTINE_SHOP_PAGE: OnceLock<HttpResponse> = OnceLock::new();
        let seeded_journal = host.web.db().journal().len();
        host.web
            .route_get("/shop", move |_req: &HttpRequest, ctx: &mut ServerCtx<'_>| {
                if ctx.db.journal().len() == seeded_journal {
                    if let Some(resp) = PRISTINE_SHOP_PAGE.get() {
                        return resp.clone();
                    }
                }
                let rows = match ctx.db.select("products", |_| true) {
                    Ok(rows) => rows,
                    Err(_) => return HttpResponse::error(Status::ServerError, "db error"),
                };
                let mut page = PageWriter::new("Shop");
                page.h1("Mobile Shop");
                for r in &rows {
                    product_link(&mut page, r);
                }
                let resp = HttpResponse::ok(page.finish());
                if ctx.db.journal().len() == seeded_journal {
                    let _ = PRISTINE_SHOP_PAGE.set(resp.clone());
                }
                resp
            });

        // Catalog search: ranked full-text lookup over the inverted
        // index. Results are keyed by an unbounded query-string space,
        // so the page is marked `no_store` — neither the host page cache
        // nor the gateway content cache admits it; repeat queries are
        // served by the DB's capped search memo instead.
        host.web.route_get(
            "/shop/search",
            |req: &HttpRequest, ctx: &mut ServerCtx<'_>| {
                let Some(q) = req.param("q") else {
                    return HttpResponse::error(Status::BadRequest, "missing query");
                };
                let rows = match ctx.db.search("products", q) {
                    Ok(rows) => rows,
                    Err(_) => return HttpResponse::error(Status::ServerError, "db error"),
                };
                HttpResponse::ok(search_page(&rows)).with_no_store()
            },
        );

        host.web.route_post(
            "/shop/buy",
            move |req: &HttpRequest, ctx: &mut ServerCtx<'_>| {
                let Some(sku) = req.param("sku").and_then(|s| s.parse::<i64>().ok()) else {
                    return HttpResponse::error(Status::BadRequest, "bad sku");
                };
                let Some(nonce) = req.param("nonce").and_then(|s| s.parse::<u64>().ok()) else {
                    return HttpResponse::error(Status::BadRequest, "missing payment nonce");
                };

                // Two-phase order: authorize the payment (places a hold,
                // no money moves), then reserve stock; if the reservation
                // fails, void the hold; only then capture. Neither a
                // refused payment nor an out-of-stock item leaves the
                // other side half-committed.
                let order_id = nonce; // unique per purchase in this workload
                let Ok(Some(product)) = ctx.db.get("products", &sku.into()) else {
                    return HttpResponse::error(Status::BadRequest, "no such product");
                };
                let Value::Int(price) = product[2] else {
                    return HttpResponse::error(Status::ServerError, "bad product row");
                };

                let mut gw = gateway.borrow_mut();
                let pay_req =
                    PaymentRequest::signed(&client_mac, order_id, price as u64, "shopper", nonce);
                if let Err(e) = gw.authorize(&pay_req) {
                    let mut page = PageWriter::new("Refused");
                    page.p(format_args!("payment refused: {e}"));
                    return HttpResponse::error(Status::BadRequest, page.finish());
                }

                // Reserve the item under the hold.
                let reserved: Result<(), DbError> = ctx.db.transaction(|tx| {
                    let mut row =
                        (*tx.get("products", &sku.into())?.ok_or(DbError::NotFound)?).clone();
                    let Value::Int(stock) = row[3] else {
                        return Err(DbError::NotFound);
                    };
                    if stock == 0 {
                        return Err(DbError::NotFound);
                    }
                    row[3] = (stock - 1).into();
                    tx.update("products", row)
                });
                if reserved.is_err() {
                    let _ = gw.void(order_id);
                    return HttpResponse::error(Status::BadRequest, "out of stock");
                }
                let receipt = match gw.capture(order_id) {
                    Ok(r) => r,
                    Err(e) => {
                        let mut page = PageWriter::new("Error");
                        page.p(format_args!("capture failed: {e}"));
                        return HttpResponse::error(Status::ServerError, page.finish());
                    }
                };
                let mut page = PageWriter::new("Receipt");
                page.h1("Payment complete")
                    .p(("You bought: ", &product[1]))
                    .p(("Receipt auth code ", receipt.auth_code));
                HttpResponse::ok(page.finish())
            },
        );
    }

    /// `[catalogue row, order nonce, _]`.
    fn draws(&self, seed: u64, index: u64) -> Draws {
        let mut rng = rng_for_indexed(seed, "payments.session", index);
        let row = rng.random_range(0..CATALOG.len()) as u64;
        let nonce: u64 = (index << 20) | rng.random_range(0..1u64 << 20);
        Draws([row, nonce, 0])
    }

    fn write_step(&self, draws: &Draws, step: usize, out: &mut Step) -> bool {
        let [row, nonce, _] = draws.0;
        match step {
            0 => out.get("/shop").expects("Mobile Shop"),
            1 => buy(out, CATALOG[row as usize].0, nonce),
            _ => return false,
        };
        true
    }

    /// The search-heavy shape: browse → search → repeat the search
    /// (served warm by the DB memo when caching is on) → refine with a
    /// second term → purchase the found product. Every session carries a
    /// unique noise token in its queries, so the fleet's query strings
    /// form the high-cardinality key space the cache tiers must survive;
    /// the token matches no product (df = 0) and never changes results.
    ///
    /// Its draws are `[catalogue row, order nonce, noise token]`.
    fn search_draws(&self, seed: u64, index: u64) -> Draws {
        let mut rng = rng_for_indexed(seed, "payments.search_session", index);
        let row = rng.random_range(0..CATALOG.len()) as u64;
        let nonce: u64 = (index << 20) | rng.random_range(0..1u64 << 20);
        let noise: u32 = rng.random();
        Draws([row, nonce, u64::from(noise)])
    }

    fn write_search_step(&self, draws: &Draws, step: usize, out: &mut Step) -> bool {
        if step >= 7 {
            return false;
        }
        let [row, nonce, noise] = draws.0;
        let (sku, name, _, _) = CATALOG[row as usize];
        let (first, _) = name.split_once(' ').expect("product names have two words");
        let (_, last) = name.rsplit_once(' ').expect("product names have two words");
        let noise = noise as u32;
        // Browse, search, re-check the results, refine to a narrower
        // query and re-check twice more while deciding, then buy. The
        // re-checks are what a covering-TTL search memo serves; the
        // noise token keeps the query strings high-cardinality across
        // sessions and users.
        match step {
            0 => out.get("/shop").expects("Mobile Shop"),
            1 | 2 => out
                .get(("/shop/search?q=", last, "+x", Hex8(noise)))
                .expects(name),
            3..=5 => out
                .get(("/shop/search?q=", first, '+', last, "+x", Hex8(noise)))
                .expects(name),
            _ => buy(out, sku, nonce),
        };
        true
    }
}

/// The checkout step: a POST buying `sku` under the one-time `nonce`.
fn buy(out: &mut Step, sku: i64, nonce: u64) -> &mut Step {
    out.post("/shop/buy", &[("sku", &sku), ("nonce", &nonce)])
        .expects("Payment complete")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> HostComputer {
        let mut host = HostComputer::new(Database::new(), 1);
        PaymentsApp::new().install(&mut host);
        host
    }

    #[test]
    fn catalog_is_browsable() {
        let mut host = host();
        let (resp, _) = host.process(HttpRequest::get("/shop"));
        assert_eq!(resp.status, Status::Ok);
        assert!(resp.body.contains("wireless earpiece"));
        assert!(resp.body.contains("2999 cents"));
    }

    #[test]
    fn purchase_decrements_stock_and_issues_receipt() {
        let mut host = host();
        let (resp, _) = host.process(HttpRequest::post(
            "/shop/buy",
            vec![
                ("sku".to_owned(), "3".to_owned()),
                ("nonce".to_owned(), "77".to_owned()),
            ],
        ));
        assert_eq!(resp.status, Status::Ok, "{}", resp.body);
        assert!(resp.body.contains("Receipt auth code"));
        assert!(resp.body.contains("spare stylus pack"));
        let row = host.web.db().get("products", &3.into()).unwrap().unwrap();
        assert_eq!(row[3], Value::Int(199));
    }

    #[test]
    fn replayed_nonce_is_refused_and_stock_restored_semantics_hold() {
        let mut host = host();
        let buy = |host: &mut HostComputer, nonce: &str| {
            host.process(HttpRequest::post(
                "/shop/buy",
                vec![
                    ("sku".to_owned(), "1".to_owned()),
                    ("nonce".to_owned(), nonce.to_owned()),
                ],
            ))
            .0
        };
        assert_eq!(buy(&mut host, "42").status, Status::Ok);
        let replay = buy(&mut host, "42");
        assert_eq!(replay.status, Status::BadRequest);
        assert!(replay.body.contains("replayed request"), "{}", replay.body);
        // The refused replay must not leak stock: exactly one unit sold.
        let row = host.web.db().get("products", &1.into()).unwrap().unwrap();
        assert_eq!(
            row[3],
            Value::Int(39),
            "refused payments must not consume stock"
        );
    }

    #[test]
    fn out_of_stock_refusal_releases_the_payment_hold() {
        let mut host = host();
        // Drain sku 1 (40 units).
        for nonce in 0..40 {
            let (resp, _) = host.process(HttpRequest::post(
                "/shop/buy",
                vec![
                    ("sku".to_owned(), "1".to_owned()),
                    ("nonce".to_owned(), nonce.to_string()),
                ],
            ));
            assert_eq!(resp.status, Status::Ok, "{}", resp.body);
        }
        // 41st attempt: payment authorizes, stock fails, hold must be
        // voided so the shopper's funds are not stranded.
        let (resp, _) = host.process(HttpRequest::post(
            "/shop/buy",
            vec![
                ("sku".to_owned(), "1".to_owned()),
                ("nonce".to_owned(), "4141".to_owned()),
            ],
        ));
        assert_eq!(resp.status, Status::BadRequest);
        // A follow-up purchase of another item with the full remaining
        // balance succeeds — proof the hold was released. 40 earpieces at
        // 2999 = 119,960 of the 500,000 balance; the voided 2999 hold
        // would otherwise still count against available funds.
        let (resp, _) = host.process(HttpRequest::post(
            "/shop/buy",
            vec![
                ("sku".to_owned(), "2".to_owned()),
                ("nonce".to_owned(), "4242".to_owned()),
            ],
        ));
        assert_eq!(resp.status, Status::Ok, "{}", resp.body);
    }

    #[test]
    fn missing_parameters_are_rejected() {
        let mut host = host();
        let (resp, _) = host.process(HttpRequest::post(
            "/shop/buy",
            vec![("sku".to_owned(), "1".to_owned())],
        ));
        assert_eq!(resp.status, Status::BadRequest);
        let (resp, _) = host.process(HttpRequest::post(
            "/shop/buy",
            vec![
                ("sku".to_owned(), "no".to_owned()),
                ("nonce".to_owned(), "1".to_owned()),
            ],
        ));
        assert_eq!(resp.status, Status::BadRequest);
    }

    #[test]
    fn sessions_use_distinct_nonces() {
        let app = PaymentsApp::new();
        let a = app.session(1, 0);
        let b = app.session(1, 1);
        let nonce = |steps: &[Step]| {
            steps[1]
                .req
                .form
                .as_ref()
                .unwrap()
                .iter()
                .find(|(k, _)| k == "nonce")
                .unwrap()
                .1
                .clone()
        };
        assert_ne!(nonce(&a), nonce(&b));
    }
}
