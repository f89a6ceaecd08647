//! The web server: routing, application programs, auth, sessions, logs.
//!
//! §7 models the web server on Apache and name-checks its features —
//! "highly configurable error messages, DBM-based authentication
//! databases, and content negotiation" — and puts "application programs
//! and support software" beside it, talking CGI. This server implements
//! those pieces: a route table dispatching to [`AppProgram`]s (the CGI
//! role), path-prefix auth realms backed by a user table and cookie
//! sessions.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};

use rand::rngs::StdRng;
use rand::RngExt;

use crate::cache::PageCache;
use crate::db::Database;
use crate::http::{Body, HttpRequest, HttpResponse, Method, Status};

/// Simulated cost of re-deriving one `(row, index)` entry when a crash
/// forces the secondary indexes to be rebuilt from base rows.
const INDEX_REBUILD_PER_ENTRY_NS: u64 = 2_000;

/// A server-side application program (the CGI contract): it sees the
/// request and the server context (database, session) and produces a
/// response.
pub trait AppProgram {
    /// Handles one request.
    fn handle(&self, req: &HttpRequest<'_>, ctx: &mut ServerCtx<'_>) -> HttpResponse;

    /// A short name for logs and diagnostics.
    fn name(&self) -> &str {
        "app"
    }
}

impl<F> AppProgram for F
where
    F: Fn(&HttpRequest<'_>, &mut ServerCtx<'_>) -> HttpResponse,
{
    fn handle(&self, req: &HttpRequest<'_>, ctx: &mut ServerCtx<'_>) -> HttpResponse {
        self(req, ctx)
    }
}

/// What the server hands an application program per request.
pub struct ServerCtx<'a> {
    /// The database server.
    pub db: &'a mut Database,
    /// The request's session key-value store (created on demand).
    pub session: &'a mut BTreeMap<String, String>,
}

struct Route {
    method: Method,
    path: String,
    app: Box<dyn AppProgram>,
}

/// The web server.
///
/// ```
/// use hostsite::{WebServer, HttpRequest, HttpResponse, ServerCtx};
/// use hostsite::db::Database;
///
/// let mut server = WebServer::new(Database::new(), 7);
/// server.route_get("/hello", |_req: &HttpRequest, _ctx: &mut ServerCtx<'_>| {
///     HttpResponse::ok("<html><body>hi</body></html>")
/// });
/// let resp = server.handle(HttpRequest::get("/hello"));
/// assert!(resp.status.is_success());
/// ```
pub struct WebServer {
    db: Database,
    routes: Vec<Route>,
    static_pages: HashMap<String, Body>,
    /// `(path prefix, realm name)` → user/password pairs.
    auth_realms: Vec<(String, HashMap<String, String>)>,
    sessions: RefCell<HashMap<String, BTreeMap<String, String>>>,
    rng: RefCell<StdRng>,
    /// Page cache (disabled unless configured); freshness is judged
    /// against `now_ns`, the simulation clock pushed down by the system.
    page_cache: Option<PageCache>,
    now_ns: u64,
}

impl std::fmt::Debug for WebServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WebServer")
            .field("routes", &self.routes.len())
            .field("static_pages", &self.static_pages.len())
            .field("sessions", &self.sessions.borrow().len())
            .finish()
    }
}

impl WebServer {
    /// Creates a server owning `db`; `seed` drives session-id generation.
    pub fn new(db: Database, seed: u64) -> Self {
        WebServer {
            db,
            routes: Vec::new(),
            static_pages: HashMap::new(),
            auth_realms: Vec::new(),
            sessions: RefCell::new(HashMap::new()),
            rng: RefCell::new(simnet::rng::rng_for(seed, "webserver.sessions")),
            page_cache: None,
            now_ns: 0,
        }
    }

    /// Enables the page cache with the given TTL (simulated nanoseconds)
    /// and byte budget. A zero TTL disables it — the cached path is
    /// bypassed entirely, leaving request handling byte-identical to an
    /// uncached server.
    pub fn configure_page_cache(&mut self, ttl_ns: u64, byte_budget: usize) {
        self.page_cache = if ttl_ns > 0 {
            Some(PageCache::new(ttl_ns, byte_budget))
        } else {
            None
        };
    }

    /// Drops the page cache and every entry in it.
    pub fn disable_page_cache(&mut self) {
        self.page_cache = None;
    }

    /// Number of entries currently held by the page cache (zero when
    /// no cache is configured).
    pub fn page_cache_len(&self) -> usize {
        self.page_cache.as_ref().map_or(0, PageCache::len)
    }

    /// Advances the server's view of simulated time; page-cache
    /// freshness is judged against this clock.
    pub fn set_sim_now_ns(&mut self, now_ns: u64) {
        self.now_ns = now_ns;
    }

    /// The database server (mutable — application setup uses this).
    pub fn db_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// The database server.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Simulates a database-server crash and restart: the in-memory state
    /// is discarded and rebuilt by replaying the write-ahead journal.
    /// HTTP-level state (routes, static pages, sessions) lives in the web
    /// server and survives. Returns the number of journal entries
    /// replayed.
    ///
    /// # Errors
    ///
    /// Propagates a corrupt-journal error from [`Database::recover`]; the
    /// old database is left in place in that case.
    pub fn crash_and_recover_db(&mut self) -> Result<usize, crate::db::DbError> {
        // Only the durable prefix of the WAL survives: an un-fsynced tail
        // (group commit) is lost with the in-memory state.
        let journal = self.db.journal().to_vec();
        let replayed = journal.len();
        let cache_enabled = self.db.query_cache_enabled();
        let fts_regs = self.db.fts_registrations();
        let policy = self.db.durability();
        self.db = Database::recover_with_policy(&journal, policy)?;
        // Secondary indexes are derived projections: rebuilt from the
        // recovered base rows, at a per-entry price. Full-text
        // registrations are engine configuration (never journaled), so
        // the crash drops index and registration together; re-registering
        // rebuilds the postings from base rows at the same per-entry
        // price.
        let mut rebuilt = self.db.index_entries_rebuilt();
        for (table, column) in fts_regs {
            rebuilt += self
                .db
                .create_fts(&table, &column)
                .expect("pre-crash registration names valid columns");
        }
        if rebuilt > 0 {
            obs::metrics::add(
                "host.db.index_rebuild_ns",
                rebuilt * INDEX_REBUILD_PER_ENTRY_NS,
            );
        }
        // The crash flushes the query cache with the rest of the in-memory
        // state; the recovered instance starts cold but keeps the switch.
        if cache_enabled {
            self.db.set_query_cache(true);
            obs::metrics::incr("host.db_cache.flushes");
        }
        Ok(replayed)
    }

    /// Registers an application program for `GET path`.
    pub fn route_get(&mut self, path: &str, app: impl AppProgram + 'static) {
        self.routes.push(Route {
            method: Method::Get,
            path: path.to_owned(),
            app: Box::new(app),
        });
    }

    /// Registers an application program for `POST path`.
    pub fn route_post(&mut self, path: &str, app: impl AppProgram + 'static) {
        self.routes.push(Route {
            method: Method::Post,
            path: path.to_owned(),
            app: Box::new(app),
        });
    }

    /// Serves `body` for `GET path` without involving an app program.
    pub fn static_page(&mut self, path: &str, body: impl Into<Body>) {
        self.static_pages.insert(path.to_owned(), body.into());
    }

    /// Protects every path starting with `prefix` behind basic auth
    /// against the given user table — §7's "DBM-based authentication
    /// databases".
    pub fn protect(&mut self, prefix: &str, users: impl IntoIterator<Item = (String, String)>) {
        self.auth_realms
            .push((prefix.to_owned(), users.into_iter().collect()));
    }

    /// Handles one request end to end: auth, routing, app dispatch and
    /// session cookie management.
    pub fn handle(&mut self, req: HttpRequest<'_>) -> HttpResponse {
        self.handle_cached(req).0
    }

    /// Like [`WebServer::handle`], additionally reporting whether the
    /// response came from the page cache (so the host can charge lookup
    /// cost instead of page-generation cost).
    pub fn handle_cached(&mut self, req: HttpRequest<'_>) -> (HttpResponse, bool) {
        // Only credential-free GETs are cache candidates. POSTs mutate
        // database and session state, and authed requests must reach
        // dispatch's auth-realm password check every time — a cached
        // protected page keyed by username alone would be served to a
        // later request presenting the wrong password.
        let cache_candidate =
            self.page_cache.is_some() && req.method == Method::Get && req.auth().is_none();
        if cache_candidate {
            let cache = self.page_cache.as_mut().expect("candidate implies cache");
            if let Some(resp) = cache.lookup(&req, self.now_ns) {
                obs::metrics::incr("host.page_cache.hits");
                obs::metrics::add("host.page_cache.bytes_saved", resp.body.len() as u64);
                return (resp, true);
            }
        }
        let resp = self.dispatch(&req);
        if cache_candidate {
            obs::metrics::incr("host.page_cache.misses");
            // Responses that mint cookies are per-client, and `no_store`
            // responses (search results over a high-cardinality query
            // space) would churn the LRU without ever revisiting — both
            // bypass admission entirely.
            if resp.status.is_success() && resp.set_cookies.is_empty() && !resp.no_store {
                let cache = self.page_cache.as_mut().expect("candidate implies cache");
                let evicted = cache.store(&req, &resp, self.now_ns);
                obs::metrics::add("host.page_cache.evictions", evicted as u64);
            }
        }
        (resp, false)
    }

    fn dispatch(&mut self, req: &HttpRequest<'_>) -> HttpResponse {
        let path = req.path();
        // Authentication. Prefixes match on path-segment boundaries:
        // "/ward" protects "/ward" and "/ward/…", not "/wardrobe".
        for (prefix, users) in &self.auth_realms {
            let in_realm = path == prefix
                || path
                    .strip_prefix(prefix.as_str())
                    .is_some_and(|rest| rest.starts_with('/'));
            if in_realm {
                let ok = req
                    .auth()
                    .is_some_and(|(u, p)| users.get(u).map(String::as_str) == Some(p));
                if !ok {
                    return HttpResponse::error(
                        Status::Unauthorized,
                        "<html><body>401 authorization required</body></html>",
                    );
                }
            }
        }

        // Static resources.
        if req.method == Method::Get {
            if let Some(body) = self.static_pages.get(path) {
                return HttpResponse::ok(body.clone());
            }
        }

        // Session: reuse the client's live session, or start an empty one
        // under a freshly drawn id. The id is drawn for every request
        // without a live session, so the id stream does not depend on
        // handlers, but it is only formatted if the session is kept.
        let live = req
            .cookie("sid")
            .and_then(|sid| Some((sid, self.sessions.borrow_mut().remove(sid)?)));
        let (live_id, mut session, fresh_id) = match live {
            Some((sid, session)) => (Some(sid), session, 0),
            None => (None, BTreeMap::new(), self.rng.borrow_mut().random::<u64>()),
        };

        // Routing: the first program registered for the method and path
        // serves it. The route table and the database are disjoint
        // fields, borrowed side by side.
        let route = self
            .routes
            .iter()
            .find(|r| r.method == req.method && r.path == path);
        let mut resp = match route {
            Some(route) => {
                let mut ctx = ServerCtx {
                    db: &mut self.db,
                    session: &mut session,
                };
                route.app.handle(req, &mut ctx)
            }
            None => {
                HttpResponse::error(Status::NotFound, "<html><body>404 not found</body></html>")
            }
        };

        // Persist the session only where a client can reach it again: it
        // presented the id, or the handler wrote to the session and the
        // cookie goes out on this first contact.
        match live_id {
            Some(sid) => {
                self.sessions.borrow_mut().insert(sid.to_owned(), session);
            }
            None if !session.is_empty() => {
                let sid = format!("s{fresh_id:016x}");
                resp = resp.with_cookie("sid", &sid);
                self.sessions.borrow_mut().insert(sid, session);
            }
            None => {}
        }
        resp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Value;
    use crate::host::HostComputer;

    fn server() -> WebServer {
        let mut db = Database::new();
        db.create_table("products", &["sku", "name", "stock"], &["name"])
            .unwrap();
        db.insert("products", vec![1.into(), "widget".into(), 10.into()])
            .unwrap();
        let mut server = WebServer::new(db, 99);
        server.route_get("/stock", |req: &HttpRequest, ctx: &mut ServerCtx<'_>| {
            let Some(sku) = req.param("sku").and_then(|s| s.parse::<i64>().ok()) else {
                return HttpResponse::error(Status::BadRequest, "bad sku");
            };
            match ctx.db.get("products", &sku.into()) {
                Ok(Some(row)) => HttpResponse::ok(format!(
                    "<html><body>{} in stock: {}</body></html>",
                    row[1], row[2]
                )),
                Ok(None) => HttpResponse::error(Status::NotFound, "no such product"),
                Err(_) => HttpResponse::error(Status::ServerError, "db error"),
            }
        });
        server.route_post("/buy", |req: &HttpRequest, ctx: &mut ServerCtx<'_>| {
            let sku: i64 = req.param("sku").and_then(|s| s.parse().ok()).unwrap_or(0);
            let result: Result<i64, crate::db::DbError> = ctx.db.transaction(|tx| {
                let mut row = (*tx
                    .get("products", &sku.into())?
                    .ok_or(crate::db::DbError::NotFound)?)
                .clone();
                let Value::Int(stock) = row[2] else {
                    return Err(crate::db::DbError::NotFound);
                };
                if stock == 0 {
                    return Err(crate::db::DbError::NotFound);
                }
                row[2] = (stock - 1).into();
                tx.update("products", row)?;
                Ok(stock - 1)
            });
            match result {
                Ok(left) => {
                    let n: i64 = ctx
                        .session
                        .get("bought")
                        .and_then(|s| s.parse().ok())
                        .unwrap_or(0);
                    ctx.session.insert("bought".into(), (n + 1).to_string());
                    HttpResponse::ok(format!("<html><body>ok, {left} left</body></html>"))
                }
                Err(_) => HttpResponse::error(Status::BadRequest, "out of stock"),
            }
        });
        server
    }

    #[test]
    fn app_program_reads_the_database() {
        let mut s = server();
        let resp = s.handle(HttpRequest::get("/stock?sku=1"));
        assert_eq!(resp.status, Status::Ok);
        assert!(resp.body.contains("widget in stock: 10"));
    }

    #[test]
    fn unknown_route_is_404() {
        let mut s = server();
        let resp = s.handle(HttpRequest::get("/nope"));
        assert_eq!(resp.status, Status::NotFound);
    }

    #[test]
    fn post_mutates_through_a_transaction() {
        let mut s = server();
        for left in (0..10).rev() {
            let resp = s.handle(HttpRequest::post("/buy", vec![("sku".into(), "1".into())]));
            assert_eq!(resp.status, Status::Ok);
            assert!(resp.body.contains(&format!("{left} left")));
        }
        // Stock exhausted: the transaction rolls back, stock stays 0.
        let resp = s.handle(HttpRequest::post("/buy", vec![("sku".into(), "1".into())]));
        assert_eq!(resp.status, Status::BadRequest);
        assert_eq!(
            s.db().get("products", &1.into()).unwrap().unwrap()[2],
            Value::Int(0)
        );
    }

    #[test]
    fn db_crash_recovery_preserves_committed_state_mid_workload() {
        let mut s = server();
        for _ in 0..3 {
            let resp = s.handle(HttpRequest::post("/buy", vec![("sku".into(), "1".into())]));
            assert_eq!(resp.status, Status::Ok);
        }
        let replayed = s.crash_and_recover_db().expect("journal replays clean");
        assert!(replayed > 0, "a non-trivial journal was replayed");
        // Committed purchases survived the crash...
        assert_eq!(
            s.db().get("products", &1.into()).unwrap().unwrap()[2],
            Value::Int(7)
        );
        // ...and the server keeps serving afterwards.
        let resp = s.handle(HttpRequest::post("/buy", vec![("sku".into(), "1".into())]));
        assert_eq!(resp.status, Status::Ok);
        assert!(resp.body.contains("6 left"));
    }

    #[test]
    fn sessions_persist_across_requests_via_cookie() {
        let mut s = server();
        let first = s.handle(HttpRequest::post("/buy", vec![("sku".into(), "1".into())]));
        let sid = first
            .set_cookies
            .get("sid")
            .expect("session cookie set")
            .clone();
        let _ = s.handle(
            HttpRequest::post("/buy", vec![("sku".into(), "1".into())]).with_cookie("sid", &sid),
        );
        let sessions = s.sessions.borrow();
        let session = sessions.get(&sid).unwrap();
        assert_eq!(session.get("bought").map(String::as_str), Some("2"));
        assert_eq!(s.sessions.borrow().len(), 1);
    }

    #[test]
    fn cookie_less_requests_leave_no_session_behind() {
        let mut s = server();
        for _ in 0..10_000 {
            let resp = s.handle(HttpRequest::get("/stock?sku=1"));
            assert_eq!(resp.status, Status::Ok);
            assert!(resp.set_cookies.is_empty());
        }
        assert_eq!(s.sessions.borrow().len(), 0);
    }

    #[test]
    fn a_first_kept_session_is_named_by_its_requests_draw() {
        // Every request without a live session draws an id, kept or not,
        // so the session written on request N + 1 carries draw N + 1.
        const N: usize = 7;
        let mut s = server();
        for _ in 0..N {
            let resp = s.handle(HttpRequest::get("/stock?sku=1"));
            assert!(resp.set_cookies.is_empty());
        }
        let resp = s.handle(HttpRequest::post("/buy", vec![("sku".into(), "1".into())]));
        let mut rng = simnet::rng::rng_for(99, "webserver.sessions");
        let draws: Vec<u64> = (0..=N).map(|_| rng.random()).collect();
        assert_eq!(
            resp.set_cookies.get("sid"),
            Some(&format!("s{:016x}", draws[N]))
        );
        assert_eq!(s.sessions.borrow().len(), 1);
    }

    #[test]
    fn auth_realm_gates_protected_paths() {
        let mut s = server();
        s.protect("/stock", vec![("admin".to_owned(), "secret".to_owned())]);
        let resp = s.handle(HttpRequest::get("/stock?sku=1"));
        assert_eq!(resp.status, Status::Unauthorized);
        let resp = s.handle(HttpRequest::get("/stock?sku=1").with_auth("admin", "wrong"));
        assert_eq!(resp.status, Status::Unauthorized);
        let resp = s.handle(HttpRequest::get("/stock?sku=1").with_auth("admin", "secret"));
        assert_eq!(resp.status, Status::Ok);
        // Unprotected paths unaffected.
        let resp = s.handle(HttpRequest::post("/buy", vec![("sku".into(), "1".into())]));
        assert_eq!(resp.status, Status::Ok);
    }

    #[test]
    fn static_pages_win_over_404() {
        let mut s = server();
        s.static_page("/about", "<html><body>about us</body></html>");
        let resp = s.handle(HttpRequest::get("/about"));
        assert_eq!(resp.status, Status::Ok);
        assert!(resp.body.contains("about us"));
    }

    /// `server()` behind a host computer, which counts requests.
    fn host() -> HostComputer {
        let mut host = HostComputer::new(Database::new(), 99);
        host.web = server();
        host
    }

    #[test]
    fn every_request_is_counted() {
        let mut host = host();
        let _guard = obs::metrics::enable();
        let _ = obs::metrics::take();
        let (ok, _) = host.process(HttpRequest::get("/stock?sku=1"));
        let (missing, _) = host.process(HttpRequest::get("/missing"));
        assert_eq!(ok.status, Status::Ok);
        assert!(!ok.body.is_empty());
        assert_eq!(missing.status, Status::NotFound);
        assert_eq!(obs::metrics::take().counter("host.requests"), 2);
    }

    #[test]
    fn the_first_registered_program_serves_every_request() {
        // Serving a request used to move its route to the back of the
        // table, so of two programs on one path the second request went
        // to the other one.
        let mut s = WebServer::new(Database::new(), 1);
        s.route_get("/x", |_: &HttpRequest<'_>, _: &mut ServerCtx<'_>| {
            HttpResponse::ok("first")
        });
        s.route_get("/x", |_: &HttpRequest<'_>, _: &mut ServerCtx<'_>| {
            HttpResponse::ok("second")
        });
        for i in 0..3 {
            assert_eq!(
                s.handle(HttpRequest::get("/x")).body,
                "first",
                "request {i}"
            );
        }
    }

    #[test]
    fn method_mismatch_is_not_found() {
        let mut s = server();
        let resp = s.handle(HttpRequest::get("/buy?sku=1"));
        assert_eq!(resp.status, Status::NotFound);
    }

    #[test]
    fn page_cache_serves_stale_pages_until_the_ttl_expires() {
        let mut s = server();
        s.configure_page_cache(1_000, 64 * 1024);
        s.set_sim_now_ns(0);
        let (first, hit) = s.handle_cached(HttpRequest::get("/stock?sku=1"));
        assert!(!hit);
        assert!(first.body.contains("in stock: 10"));
        // Mutate the underlying row; the cached page stays stale while
        // fresh, then regenerates after expiry.
        s.handle(HttpRequest::post("/buy", vec![("sku".into(), "1".into())]));
        s.set_sim_now_ns(500);
        let (stale, hit) = s.handle_cached(HttpRequest::get("/stock?sku=1"));
        assert!(hit);
        assert!(stale.body.contains("in stock: 10"));
        s.set_sim_now_ns(2_000);
        let (fresh, hit) = s.handle_cached(HttpRequest::get("/stock?sku=1"));
        assert!(!hit);
        assert!(fresh.body.contains("in stock: 9"));
    }

    #[test]
    fn page_cache_never_captures_posts_or_cookie_minting_responses() {
        let mut s = server();
        s.configure_page_cache(u64::MAX / 2, 64 * 1024);
        // POSTs run the application program every time.
        let a = s.handle(HttpRequest::post("/buy", vec![("sku".into(), "1".into())]));
        let b = s.handle(HttpRequest::post("/buy", vec![("sku".into(), "1".into())]));
        assert!(a.body.contains("9 left"));
        assert!(b.body.contains("8 left"));
        // The first POST minted a session cookie; nothing of it is cached.
        assert!(!a.set_cookies.is_empty());
    }

    #[test]
    fn zero_ttl_configuration_disables_the_cache() {
        let mut s = server();
        s.configure_page_cache(0, 64 * 1024);
        assert!(s.page_cache.is_none());
        let (_, hit) = s.handle_cached(HttpRequest::get("/stock?sku=1"));
        assert!(!hit);
        let (_, hit) = s.handle_cached(HttpRequest::get("/stock?sku=1"));
        assert!(!hit);
    }

    #[test]
    fn page_cache_never_answers_for_an_auth_realm() {
        let mut s = server();
        s.static_page("/admin/panel", "<html><body>top secret</body></html>");
        s.protect(
            "/admin",
            vec![("admin".to_owned(), "secret".to_owned())],
        );
        s.configure_page_cache(u64::MAX / 2, 64 * 1024);
        // A correctly-authed GET succeeds but must not populate the
        // cache (and must not be served from it on repeat).
        let (ok, hit) = s.handle_cached(HttpRequest::get("/admin/panel").with_auth("admin", "secret"));
        assert_eq!(ok.status, Status::Ok);
        assert!(!hit);
        let (again, hit) =
            s.handle_cached(HttpRequest::get("/admin/panel").with_auth("admin", "secret"));
        assert_eq!(again.status, Status::Ok);
        assert!(!hit, "authed requests bypass the cache entirely");
        // Wrong password and missing credentials are both rejected —
        // not served the cached protected page.
        let (wrong, hit) =
            s.handle_cached(HttpRequest::get("/admin/panel").with_auth("admin", "wrongpass"));
        assert_eq!(wrong.status, Status::Unauthorized);
        assert!(!hit);
        assert!(!wrong.body.contains("top secret"));
        let (anon, hit) = s.handle_cached(HttpRequest::get("/admin/panel"));
        assert_eq!(anon.status, Status::Unauthorized);
        assert!(!hit);
        assert_eq!(s.page_cache_len(), 0, "no authed page was ever stored");
    }

    #[test]
    fn cache_hits_are_still_counted_as_requests() {
        let mut host = host();
        host.web.configure_page_cache(u64::MAX / 2, 64 * 1024);
        let _guard = obs::metrics::enable();
        let _ = obs::metrics::take();
        host.process(HttpRequest::get("/stock?sku=1"));
        host.process(HttpRequest::get("/stock?sku=1"));
        let metrics = obs::metrics::take();
        assert_eq!(metrics.counter("host.requests"), 2);
        assert_eq!(metrics.counter("host.page_cache.hits"), 1);
    }

    #[test]
    fn a_path_aliasing_a_cached_query_is_not_served_from_the_cache() {
        // Unescaped, `/stock&sku=1` (a path with no route) and
        // `/stock?sku=1` rendered the same page-cache key, so the first
        // was answered 200 with the second's cached page.
        let mut s = server();
        s.configure_page_cache(u64::MAX / 2, 64 * 1024);
        let (page, hit) = s.handle_cached(HttpRequest::get("/stock?sku=1"));
        assert_eq!((page.status, hit), (Status::Ok, false));
        let (aliased, hit) = s.handle_cached(HttpRequest::get("/stock&sku=1"));
        assert!(!hit, "a different request must not hit the cached page");
        assert_eq!(aliased.status, Status::NotFound);
        assert_eq!(s.page_cache_len(), 1);
    }

    /// Adds a search-shaped route: a credential-free GET whose response
    /// carries `no_store`, keyed by a query parameter of unbounded
    /// cardinality — the request shape the PR-10 bugfix sweep targets.
    fn add_search_route(s: &mut WebServer) {
        s.route_get("/search", |req: &HttpRequest, _ctx: &mut ServerCtx<'_>| {
            let q = req.param("q").unwrap_or_default();
            HttpResponse::ok(format!("<html><body>results for {q}</body></html>"))
                .with_no_store()
        });
    }

    #[test]
    fn hundred_k_distinct_queries_hold_no_keys() {
        // Regression test for the unbounded-interner bug: every distinct
        // cache-candidate request used to keep its key forever, so a
        // fleet issuing 100k distinct search queries held 100k keys it
        // would never revisit. Lookups build no key, and a key lives
        // only as long as its stored entry.
        let mut s = server();
        add_search_route(&mut s);
        s.configure_page_cache(u64::MAX / 2, 64 * 1024);
        for i in 0..100_000u64 {
            let (resp, hit) = s.handle_cached(HttpRequest::get(&format!("/search?q=term{i}")));
            assert!(!hit);
            assert!(resp.no_store);
        }
        assert_eq!(s.page_cache_len(), 0, "no_store responses are never admitted");
    }

    #[test]
    fn browse_hit_rate_is_unharmed_by_interleaved_searches() {
        // Regression test for LRU churn: search responses bypass
        // admission, so a browse page interleaved with one-off searches
        // keeps hitting exactly as it would in a search-free run.
        let mut s = server();
        add_search_route(&mut s);
        s.configure_page_cache(u64::MAX / 2, 64 * 1024);
        let rounds = 50u64;
        let mut browse_hits = 0u64;
        for i in 0..rounds {
            let (_, hit) = s.handle_cached(HttpRequest::get("/stock?sku=1"));
            if hit {
                browse_hits += 1;
            }
            let (_, hit) = s.handle_cached(HttpRequest::get(&format!("/search?q=one off {i}")));
            assert!(!hit, "distinct searches can never hit");
        }
        assert_eq!(browse_hits, rounds - 1, "every revisit after the first hits");
        assert_eq!(s.page_cache_len(), 1, "only the browse page is resident");
    }
}

#[cfg(test)]
mod realm_boundary_tests {
    use super::*;
    use crate::http::HttpRequest;

    #[test]
    fn auth_prefix_matches_segment_boundaries_only() {
        let mut s = WebServer::new(Database::new(), 1);
        s.static_page("/ward", "<html><body>w</body></html>");
        s.static_page("/ward/room", "<html><body>r</body></html>");
        s.static_page("/wardrobe", "<html><body>free</body></html>");
        s.protect("/ward", vec![("u".to_owned(), "p".to_owned())]);
        assert_eq!(
            s.handle(HttpRequest::get("/ward")).status,
            Status::Unauthorized
        );
        assert_eq!(
            s.handle(HttpRequest::get("/ward/room")).status,
            Status::Unauthorized
        );
        // Not in the realm: shares the prefix string but not the segment.
        assert_eq!(s.handle(HttpRequest::get("/wardrobe")).status, Status::Ok);
        assert_eq!(
            s.handle(HttpRequest::get("/ward/room").with_auth("u", "p"))
                .status,
            Status::Ok
        );
    }
}
