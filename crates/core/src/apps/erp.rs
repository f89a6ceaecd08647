//! Enterprise resource planning (Table 1, row 3).
//!
//! "Resource management — all companies": field workers pull their task
//! queues onto handhelds, claim work, consume parts from stock, and close
//! tasks. Stock consumption and task state change in one transaction, so
//! the resource ledger never drifts.

use hostsite::db::{Database, DbError, Value};
use hostsite::{HostComputer, HttpRequest, HttpResponse, ServerCtx, Status};
use markup::html::PageWriter;
use rand::RngExt;
use simnet::rng::rng_for_indexed;

use super::{Application, Category, Draws, Step};

/// The resource-management application.
#[derive(Debug, Default)]
pub(crate) struct ErpApp;

/// Parts stocked at install: `(part, quantity)`.
const STOCK: [(&str, i64); 3] = [("compressor", 40), ("valve kit", 120), ("filter", 300)];

/// Seeded tasks: `(id, site, part_needed)`.
const TASKS: [(i64, &str, &str); 60] = {
    // 60 tasks cycling over 3 sites and the 3 parts.
    let mut tasks = [(0i64, "", ""); 60];
    let sites = ["plant A", "plant B", "depot C"];
    let parts = ["compressor", "valve kit", "filter"];
    let mut i = 0;
    while i < 60 {
        tasks[i] = (i as i64, sites[i % 3], parts[(i / 3) % 3]);
        i += 1;
    }
    tasks
};

impl Application for ErpApp {
    fn category(&self) -> Category {
        Category::Erp
    }

    fn seed(&self, db: &mut Database) {
        db.create_table("stock", &["part", "qty"], &[])
            .expect("fresh database");
        db.create_table(
            "tasks",
            &["id", "site", "part", "state", "worker"],
            &["state"],
        )
        .expect("fresh database");
        for (part, qty) in STOCK {
            db.insert("stock", vec![part.into(), qty.into()])
                .expect("seed stock");
        }
        for (id, site, part) in TASKS {
            db.insert(
                "tasks",
                vec![
                    id.into(),
                    site.into(),
                    part.into(),
                    "open".into(),
                    "".into(),
                ],
            )
            .expect("seed tasks");
        }
    }

    fn mount(&self, host: &mut HostComputer) {
        // Task queue for a worker: open tasks, first five.
        host.web.route_get(
            "/erp/tasks",
            |_req: &HttpRequest, ctx: &mut ServerCtx<'_>| {
                let open = ctx
                    .db
                    .select_eq("tasks", "state", &"open".into())
                    .unwrap_or_default();
                let mut page = PageWriter::new("Task queue");
                page.h1(format_args!("Open tasks: {}", open.len()));
                for t in open.iter().take(5) {
                    page.a(
                        format_args!("/erp/complete?task={}", t[0]),
                        format_args!("task {} at {} needs {}", t[0], t[1], t[2]),
                    );
                }
                HttpResponse::ok(page.finish())
            },
        );

        // Complete a task: consume its part from stock atomically.
        host.web.route_post(
            "/erp/complete",
            |req: &HttpRequest, ctx: &mut ServerCtx<'_>| {
                let Some(task) = req.param("task").and_then(|s| s.parse::<i64>().ok()) else {
                    return HttpResponse::error(Status::BadRequest, "bad task id");
                };
                let worker = req.param("worker").unwrap_or("crew").to_owned();
                let result: Result<String, DbError> = ctx.db.transaction(|tx| {
                    let mut row =
                        (*tx.get("tasks", &task.into())?.ok_or(DbError::NotFound)?).clone();
                    if row[3] != Value::Text("open".into()) {
                        return Err(DbError::NotFound); // already done
                    }
                    let part = row[2].to_string();
                    let mut stock = (*tx
                        .get("stock", &part.clone().into())?
                        .ok_or(DbError::NotFound)?)
                    .clone();
                    let Value::Int(qty) = stock[1] else {
                        return Err(DbError::NotFound);
                    };
                    if qty == 0 {
                        return Err(DbError::NotFound); // no parts left
                    }
                    stock[1] = (qty - 1).into();
                    tx.update("stock", stock)?;
                    row[3] = "done".into();
                    row[4] = worker.clone().into();
                    tx.update("tasks", row)?;
                    Ok(part)
                });
                let page = match result {
                    Ok(part) => {
                        let mut page = PageWriter::new("Task complete");
                        page.p(format_args!("task {task} closed, one {part} consumed"));
                        page
                    }
                    // A colleague got there first (or parts ran out): a normal
                    // outcome for field crews, reported as a page, not an error.
                    Err(_) => {
                        let mut page = PageWriter::new("Task unavailable");
                        page.p(format_args!(
                            "task {task} is already closed or out of parts"
                        ));
                        page
                    }
                };
                HttpResponse::ok(page.finish())
            },
        );

        // Stock levels dashboard.
        host.web.route_get(
            "/erp/stock",
            |_req: &HttpRequest, ctx: &mut ServerCtx<'_>| {
                let rows = ctx.db.select("stock", |_| true).unwrap_or_default();
                let mut page = PageWriter::new("Stock");
                page.h1("Stock levels")
                    .table(rows.iter().map(|r| (&r[0], &r[1])));
                HttpResponse::ok(page.finish())
            },
        );
    }

    /// `[task, worker, _]`.
    fn draws(&self, seed: u64, index: u64) -> Draws {
        let mut rng = rng_for_indexed(seed, "erp.session", index);
        let task = rng.random_range(0..TASKS.len() as i64);
        let worker = rng.random_range(1..6u32);
        Draws([task as u64, u64::from(worker), 0])
    }

    fn write_step(&self, draws: &Draws, step: usize, out: &mut Step) -> bool {
        if step >= 3 {
            return false;
        }
        let [task, worker, _] = draws.0;
        let task = task as i64;
        match step {
            0 => out.get("/erp/tasks").expects("Open tasks"),
            // A random task may already be closed by an earlier session —
            // judge this step by transport only and check the ledger via
            // the stock dashboard instead.
            1 => out.post(
                "/erp/complete",
                &[("task", &task), ("worker", &format_args!("crew-{worker}"))],
            ),
            _ => out.get("/erp/stock").expects("Stock levels"),
        };
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> HostComputer {
        let mut host = HostComputer::new(Database::new(), 8);
        ErpApp.install(&mut host);
        host
    }

    #[test]
    fn completing_a_task_consumes_stock() {
        let mut host = host();
        let (resp, _) = host.process(HttpRequest::post(
            "/erp/complete",
            vec![
                ("task".to_owned(), "0".to_owned()),
                ("worker".to_owned(), "crew-1".to_owned()),
            ],
        ));
        assert!(resp.body.contains("task 0 closed"), "{}", resp.body);
        let stock = host
            .web
            .db()
            .get("stock", &"compressor".into())
            .unwrap()
            .unwrap();
        assert_eq!(stock[1], Value::Int(39));
        let task = host.web.db().get("tasks", &0.into()).unwrap().unwrap();
        assert_eq!(task[3], Value::Text("done".into()));
        assert_eq!(task[4], Value::Text("crew-1".into()));
    }

    #[test]
    fn double_completion_is_refused_and_consumes_nothing_extra() {
        let mut host = host();
        host.process(HttpRequest::post(
            "/erp/complete",
            vec![("task".to_owned(), "1".to_owned())],
        ));
        let (resp, _) = host.process(HttpRequest::post(
            "/erp/complete",
            vec![("task".to_owned(), "1".to_owned())],
        ));
        assert_eq!(resp.status, Status::Ok);
        assert!(resp.body.contains("already closed"), "{}", resp.body);
        let stock = host
            .web
            .db()
            .get("stock", &"compressor".into())
            .unwrap()
            .unwrap();
        assert_eq!(stock[1], Value::Int(39));
    }

    #[test]
    fn task_queue_shrinks_as_work_completes() {
        let mut host = host();
        let (before, _) = host.process(HttpRequest::get("/erp/tasks"));
        assert!(before.body.contains("Open tasks: 60"));
        for id in 0..5 {
            host.process(HttpRequest::post(
                "/erp/complete",
                vec![("task".to_owned(), id.to_string())],
            ));
        }
        let (after, _) = host.process(HttpRequest::get("/erp/tasks"));
        assert!(after.body.contains("Open tasks: 55"), "{}", after.body);
    }

    #[test]
    fn stock_dashboard_reflects_the_ledger() {
        let mut host = host();
        let (resp, _) = host.process(HttpRequest::get("/erp/stock"));
        assert!(resp.body.contains("compressor"));
        assert!(resp.body.contains("40"));
    }
}
