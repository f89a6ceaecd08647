//! Health care: patient record accessing (Table 1, row 5).
//!
//! Clinicians pull patient records and append vitals from the bedside.
//! Records are behind an authentication realm (§7's "DBM-based
//! authentication databases") — unauthenticated access is refused, which
//! the session workflow exercises both ways.

use hostsite::db::{Database, DbError, Value};
use hostsite::{HostComputer, HttpRequest, HttpResponse, ServerCtx, Status};
use markup::html::PageWriter;
use rand::RngExt;
use simnet::rng::rng_for_indexed;

use super::{Application, Category, Draws, Step};

/// The patient-records application.
#[derive(Debug, Default)]
pub(crate) struct HealthCareApp;

/// Clinician credentials provisioned at install.
pub const CLINICIAN: (&str, &str) = ("dr-grey", "rounds2003");

const PATIENTS: [(i64, &str, &str); 4] = [
    (1, "J. Doe", "post-op day 2, stable"),
    (2, "M. Smith", "admitted for observation"),
    (3, "A. Chen", "scheduled for imaging"),
    (4, "R. Patel", "discharge pending"),
];

impl Application for HealthCareApp {
    fn category(&self) -> Category {
        Category::HealthCare
    }

    fn seed(&self, db: &mut Database) {
        db.create_table("patients", &["id", "name", "notes"], &[])
            .expect("fresh database");
        db.create_table(
            "vitals",
            &["id", "patient", "pulse", "temp_x10"],
            &["patient"],
        )
        .expect("fresh database");
        for (id, name, notes) in PATIENTS {
            db.insert("patients", vec![id.into(), name.into(), notes.into()])
                .expect("seed patients");
        }
    }

    fn mount(&self, host: &mut HostComputer) {
        // Everything under /ward requires clinician credentials.
        host.web.protect(
            "/ward",
            vec![(CLINICIAN.0.to_owned(), CLINICIAN.1.to_owned())],
        );

        host.web.route_get(
            "/ward/patient",
            |req: &HttpRequest, ctx: &mut ServerCtx<'_>| {
                let Some(id) = req.param("id").and_then(|s| s.parse::<i64>().ok()) else {
                    return HttpResponse::error(Status::BadRequest, "bad patient id");
                };
                let Ok(Some(patient)) = ctx.db.get("patients", &id.into()) else {
                    return HttpResponse::error(Status::NotFound, "no such patient");
                };
                let vitals = ctx
                    .db
                    .select_eq("vitals", "patient", &id.into())
                    .unwrap_or_default();
                let mut page = PageWriter::new("Patient record");
                page.h1(format_args!("Record: {}", patient[1]))
                    .p(&patient[2]);
                for v in vitals.iter().rev().take(3) {
                    let temp = match v[3] {
                        Value::Int(t) => t as f64 / 10.0,
                        _ => 0.0,
                    };
                    page.p(format_args!("vitals: pulse {} temp {:.1}", v[2], temp));
                }
                HttpResponse::ok(page.finish())
            },
        );

        host.web.route_post(
            "/ward/vitals",
            |req: &HttpRequest, ctx: &mut ServerCtx<'_>| {
                let Some(patient) = req.param("patient").and_then(|s| s.parse::<i64>().ok()) else {
                    return HttpResponse::error(Status::BadRequest, "bad patient id");
                };
                let pulse: i64 = req.param("pulse").and_then(|s| s.parse().ok()).unwrap_or(0);
                let temp_x10: i64 = req
                    .param("temp_x10")
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(370);
                let result: Result<(), DbError> = ctx.db.transaction(|tx| {
                    tx.get("patients", &patient.into())?
                        .ok_or(DbError::NotFound)?;
                    let id = (tx.len("vitals")? as i64) + 1;
                    tx.insert(
                        "vitals",
                        vec![id.into(), patient.into(), pulse.into(), temp_x10.into()],
                    )
                });
                match result {
                    Ok(()) => {
                        let mut page = PageWriter::new("Vitals recorded");
                        page.p(format_args!("vitals recorded for patient {patient}"));
                        HttpResponse::ok(page.finish())
                    }
                    Err(_) => HttpResponse::error(Status::NotFound, "no such patient"),
                }
            },
        );
    }

    /// `[patient row, pulse, _]`.
    fn draws(&self, seed: u64, index: u64) -> Draws {
        let mut rng = rng_for_indexed(seed, "healthcare.session", index);
        let row = rng.random_range(0..PATIENTS.len()) as u64;
        let pulse = rng.random_range(55..110i64);
        Draws([row, pulse as u64, 0])
    }

    fn write_step(&self, draws: &Draws, step: usize, out: &mut Step) -> bool {
        if step >= 2 {
            return false;
        }
        let [row, pulse, _] = draws.0;
        let patient = PATIENTS[row as usize].0;
        let pulse = pulse as i64;
        match step {
            0 => out
                .post(
                    "/ward/vitals",
                    &[
                        ("patient", &patient),
                        ("pulse", &pulse),
                        ("temp_x10", &"368"),
                    ],
                )
                .auth(CLINICIAN.0, CLINICIAN.1)
                .expects("vitals recorded"),
            _ => out
                .get(format_args!("/ward/patient?id={patient}"))
                .auth(CLINICIAN.0, CLINICIAN.1)
                .expects("Record:"),
        };
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> HostComputer {
        let mut host = HostComputer::new(Database::new(), 5);
        HealthCareApp.install(&mut host);
        host
    }

    #[test]
    fn unauthenticated_access_is_refused() {
        let mut host = host();
        let (resp, _) = host.process(HttpRequest::get("/ward/patient?id=1"));
        assert_eq!(resp.status, Status::Unauthorized);
        let (resp, _) =
            host.process(HttpRequest::get("/ward/patient?id=1").with_auth("dr-grey", "wrongpass"));
        assert_eq!(resp.status, Status::Unauthorized);
    }

    #[test]
    fn clinician_reads_records_and_appends_vitals() {
        let mut host = host();
        host.process(
            HttpRequest::post(
                "/ward/vitals",
                vec![
                    ("patient".to_owned(), "2".to_owned()),
                    ("pulse".to_owned(), "72".to_owned()),
                    ("temp_x10".to_owned(), "371".to_owned()),
                ],
            )
            .with_auth(CLINICIAN.0, CLINICIAN.1),
        );
        let (resp, _) = host
            .process(HttpRequest::get("/ward/patient?id=2").with_auth(CLINICIAN.0, CLINICIAN.1));
        assert!(resp.body.contains("Record: M. Smith"));
        assert!(resp.body.contains("pulse 72"));
        assert!(resp.body.contains("temp 37.1"));
    }

    #[test]
    fn vitals_for_unknown_patient_roll_back() {
        let mut host = host();
        let (resp, _) = host.process(
            HttpRequest::post(
                "/ward/vitals",
                vec![("patient".to_owned(), "99".to_owned())],
            )
            .with_auth(CLINICIAN.0, CLINICIAN.1),
        );
        assert_eq!(resp.status, Status::NotFound);
        assert_eq!(host.web.db().len("vitals").unwrap(), 0);
    }

    #[test]
    fn record_shows_only_recent_vitals() {
        let mut host = host();
        for pulse in 60..70 {
            host.process(
                HttpRequest::post(
                    "/ward/vitals",
                    vec![
                        ("patient".to_owned(), "1".to_owned()),
                        ("pulse".to_owned(), pulse.to_string()),
                    ],
                )
                .with_auth(CLINICIAN.0, CLINICIAN.1),
            );
        }
        let (resp, _) = host
            .process(HttpRequest::get("/ward/patient?id=1").with_auth(CLINICIAN.0, CLINICIAN.1));
        assert!(resp.body.contains("pulse 69"));
        assert!(
            !resp.body.contains("pulse 60"),
            "only the latest three show"
        );
    }
}
