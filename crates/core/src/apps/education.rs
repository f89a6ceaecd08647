//! Education: mobile classrooms and labs (Table 1, row 2).
//!
//! Students pull lesson cards from the field and submit quiz answers;
//! scores accumulate per student. Lessons are deliberately text-heavy
//! (multi-card decks after WAP translation) so this workload exercises
//! deck pagination on small devices.

use hostsite::db::{Database, DbError, Value};
use hostsite::{HostComputer, HttpRequest, HttpResponse, ServerCtx, Status};
use markup::html::PageWriter;
use rand::RngExt;
use simnet::rng::rng_for_indexed;

use super::{Application, Category, Draws, Step};

/// The mobile-classroom application.
#[derive(Debug, Default)]
pub(crate) struct EducationApp;

/// Course id, title, and the correct answer to its quiz.
const COURSES: [(i64, &str, &str); 3] = [
    (1, "Wireless networks 101", "gateway"),
    (2, "Mobile commerce basics", "middleware"),
    (3, "Handheld programming", "battery"),
];

impl Application for EducationApp {
    fn category(&self) -> Category {
        Category::Education
    }

    fn seed(&self, db: &mut Database) {
        db.create_table("courses", &["id", "title", "answer"], &[])
            .expect("fresh database");
        db.create_table("scores", &["student", "points"], &[])
            .expect("fresh database");
        for (id, title, answer) in COURSES {
            db.insert("courses", vec![id.into(), title.into(), answer.into()])
                .expect("seed courses");
        }
    }

    fn mount(&self, host: &mut HostComputer) {
        host.web.route_get(
            "/learn/lesson",
            |req: &HttpRequest, ctx: &mut ServerCtx<'_>| {
                let Some(id) = req.param("course").and_then(|s| s.parse::<i64>().ok()) else {
                    return HttpResponse::error(Status::BadRequest, "bad course id");
                };
                let Ok(Some(course)) = ctx.db.get("courses", &id.into()) else {
                    return HttpResponse::error(Status::NotFound, "no such course");
                };
                let mut page = PageWriter::new("Lesson");
                page.h1(&course[1]);
                for section in 1..=6 {
                    page.p(format_args!(
                        "Section {section}: the key concept here is explained at length, \
                         with worked examples a student can follow on a handheld screen \
                         between classes or on the bus."
                    ));
                }
                page.form(format_args!("/learn/quiz?course={id}"), "answer", "Submit");
                HttpResponse::ok(page.finish())
            },
        );

        host.web.route_post(
            "/learn/quiz",
            |req: &HttpRequest, ctx: &mut ServerCtx<'_>| {
                let Some(id) = req.param("course").and_then(|s| s.parse::<i64>().ok()) else {
                    return HttpResponse::error(Status::BadRequest, "bad course id");
                };
                let student = req.param("student").unwrap_or("anon").to_owned();
                let answer = req.param("answer").unwrap_or("").to_owned();
                let Ok(Some(course)) = ctx.db.get("courses", &id.into()) else {
                    return HttpResponse::error(Status::NotFound, "no such course");
                };
                let correct = course[2] == Value::Text(answer.clone());
                if correct {
                    let result: Result<i64, DbError> = ctx.db.transaction(|tx| {
                        let points = match tx.get("scores", &student.clone().into())? {
                            Some(row) => match row[1] {
                                Value::Int(p) => p,
                                _ => 0,
                            },
                            None => {
                                tx.insert("scores", vec![student.clone().into(), 0i64.into()])?;
                                0
                            }
                        };
                        tx.update("scores", vec![student.clone().into(), (points + 10).into()])?;
                        Ok(points + 10)
                    });
                    match result {
                        Ok(points) => {
                            let mut page = PageWriter::new("Quiz result");
                            page.p(format_args!("correct! {student} now has {points} points"));
                            HttpResponse::ok(page.finish())
                        }
                        Err(_) => HttpResponse::error(Status::ServerError, "db error"),
                    }
                } else {
                    let mut page = PageWriter::new("Quiz result");
                    page.p("not quite - review the lesson and retry");
                    HttpResponse::ok(page.finish())
                }
            },
        );
    }

    /// `[course row, student, _]`.
    fn draws(&self, seed: u64, index: u64) -> Draws {
        let mut rng = rng_for_indexed(seed, "education.session", index);
        let row = rng.random_range(0..COURSES.len()) as u64;
        Draws([row, index % 20, 0])
    }

    fn write_step(&self, draws: &Draws, step: usize, out: &mut Step) -> bool {
        if step >= 2 {
            return false;
        }
        let [row, student, _] = draws.0;
        let (course, _, answer) = COURSES[row as usize];
        match step {
            0 => out
                .get(format_args!("/learn/lesson?course={course}"))
                .expects("Section 1"),
            _ => out
                .post(
                    format_args!("/learn/quiz?course={course}"),
                    &[
                        ("student", &format_args!("student-{student}")),
                        ("answer", &answer),
                    ],
                )
                .expects("correct!"),
        };
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> HostComputer {
        let mut host = HostComputer::new(Database::new(), 7);
        EducationApp.install(&mut host);
        host
    }

    #[test]
    fn lessons_are_long_form_content() {
        let mut host = host();
        let (resp, _) = host.process(HttpRequest::get("/learn/lesson?course=1"));
        assert!(resp.body.contains("Section 6"));
        assert!(
            resp.body.len() > 800,
            "lesson should be deck-paginating size"
        );
    }

    #[test]
    fn correct_answers_accumulate_points() {
        let mut host = host();
        for _ in 0..3 {
            host.process(HttpRequest::post(
                "/learn/quiz?course=2",
                vec![
                    ("student".to_owned(), "sam".to_owned()),
                    ("answer".to_owned(), "middleware".to_owned()),
                ],
            ));
        }
        let row = host.web.db().get("scores", &"sam".into()).unwrap().unwrap();
        assert_eq!(row[1], Value::Int(30));
    }

    #[test]
    fn wrong_answers_score_nothing() {
        let mut host = host();
        let (resp, _) = host.process(HttpRequest::post(
            "/learn/quiz?course=1",
            vec![
                ("student".to_owned(), "kim".to_owned()),
                ("answer".to_owned(), "router".to_owned()),
            ],
        ));
        assert!(resp.body.contains("not quite"));
        assert!(host
            .web
            .db()
            .get("scores", &"kim".into())
            .unwrap()
            .is_none());
    }

    #[test]
    fn unknown_course_is_404() {
        let mut host = host();
        let (resp, _) = host.process(HttpRequest::get("/learn/lesson?course=9"));
        assert_eq!(resp.status, Status::NotFound);
    }
}
