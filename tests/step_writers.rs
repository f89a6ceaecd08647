//! Every application's step writers, pinned.
//!
//! An application writes one step of one session at a time into a
//! caller's `Step` (`Application::write_step`, and `write_search_step`
//! for the search-heavy sessions), and the fleet engine writes every
//! step of every user into one scratch `Step` in turn. So a write must
//! leave nothing of what the buffer held before: writing a step over a
//! dirty buffer equals writing it into a fresh one, and equals that step
//! of the collected session.
//!
//! The digest pins what the sessions say — URLs, forms, credentials and
//! expectations, so the draw order and the formatting of each
//! generator — for all eight applications. The fleet benchmark's
//! digests see only Commerce and Entertainment.

use mcommerce::core::apps::{for_category, Application, Draws, Step};
use mcommerce::core::Category;
use proptest::prelude::*;

/// A step as the station sees it: URL, form, cookies, credentials and
/// expectation.
type Parts = (
    String,
    Option<Vec<(String, String)>>,
    Vec<(String, String)>,
    Option<(String, String)>,
    Option<String>,
);

fn parts(step: &Step) -> Parts {
    (
        step.req.url.clone(),
        step.req.form.clone(),
        step.req.cookies.clone(),
        step.req.auth.clone(),
        step.expect.clone(),
    )
}

/// A buffer that last held some other application's POST: a longer URL
/// than any session writes, three form pairs, credentials and an
/// expectation.
fn dirty_post() -> Step {
    let mut step = Step::default();
    step.post(
        "/some/other/application/with/a/much/longer/path?and=a&long=query",
        &[
            ("first", &"a value longer than any session's values"),
            ("second", &2),
            ("third", &"three"),
        ],
    )
    .auth("someone-else", "their-password")
    .expects("a page no session expects");
    step
}

/// The draws of the chosen session kind.
fn draws(app: &dyn Application, search: bool, seed: u64, index: u64) -> Draws {
    if search {
        app.search_draws(seed, index)
    } else {
        app.draws(seed, index)
    }
}

/// Writes step `k` of the chosen session kind, from its draws, into
/// `out`.
fn write(app: &dyn Application, search: bool, draws: &Draws, k: usize, out: &mut Step) -> bool {
    if search {
        app.write_search_step(draws, k, out)
    } else {
        app.write_step(draws, k, out)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn writing_a_step_over_any_other_equals_writing_it_fresh(
        category in 0..Category::ALL.len(),
        search in any::<bool>(),
        seed in any::<u64>(),
        index in any::<u64>(),
    ) {
        let app = for_category(Category::ALL[category]);
        let app = app.as_ref();
        let session = if search {
            app.search_session(seed, index)
        } else {
            app.session(seed, index)
        };
        prop_assert!(!session.is_empty());
        // The session's draws, taken once and kept, as the fleet engine
        // keeps them.
        let draws = draws(app, search, seed, index);
        // One buffer written step after step, as the fleet engine does.
        let mut running = dirty_post();
        for (k, collected) in session.iter().enumerate() {
            let mut fresh = Step::default();
            prop_assert!(write(app, search, &draws, k, &mut fresh));
            let mut dirty = dirty_post();
            prop_assert!(write(app, search, &draws, k, &mut dirty));
            prop_assert!(write(app, search, &draws, k, &mut running));
            prop_assert_eq!(parts(&fresh), parts(collected));
            prop_assert_eq!(parts(&dirty), parts(collected));
            prop_assert_eq!(parts(&running), parts(collected));
        }
        // Past the last step a write returns false and writes nothing.
        let end = session.len();
        let before = parts(&running);
        prop_assert!(!write(app, search, &draws, end, &mut running));
        prop_assert_eq!(parts(&running), before);
        let mut dirty = dirty_post();
        prop_assert!(!write(app, search, &draws, end, &mut dirty));
        prop_assert_eq!(parts(&dirty), parts(&dirty_post()));
    }
}

/// FNV-1a 64 over byte fields, each closed by `0xff` (never a UTF-8
/// byte), so field boundaries are part of the digest.
struct Fnv(u64);

impl Fnv {
    fn field(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(&[0xff]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn step(&mut self, step: &Step) {
        self.field(step.req.url.as_bytes());
        match &step.req.form {
            None => self.field(b"GET"),
            Some(form) => {
                self.field(b"POST");
                for (name, value) in form {
                    self.field(name.as_bytes());
                    self.field(value.as_bytes());
                }
            }
        }
        for (name, value) in &step.req.cookies {
            self.field(b"cookie");
            self.field(name.as_bytes());
            self.field(value.as_bytes());
        }
        match &step.req.auth {
            None => self.field(b"no auth"),
            Some((user, password)) => {
                self.field(b"auth");
                self.field(user.as_bytes());
                self.field(password.as_bytes());
            }
        }
        match &step.expect {
            None => self.field(b"no expectation"),
            Some(text) => {
                self.field(b"expect");
                self.field(text.as_bytes());
            }
        }
    }
}

/// Digests of sessions `0..16` under seeds `0..4`, recorded before the
/// applications became step writers: `(application, regular sessions,
/// search-heavy sessions)`. Only Commerce has a search workload; the
/// others' search sessions are their regular ones.
const RECORDED: [(&str, u64, u64); 8] = [
    ("Commerce", 0x5a93b4bb2b84b009, 0x90927872de9a6c42),
    ("Education", 0xb6896815cd276b19, 0xb6896815cd276b19),
    (
        "Enterprise resource planning",
        0x298feb995e80a660,
        0x298feb995e80a660,
    ),
    ("Entertainment", 0xdd70c96fe19d68d3, 0xdd70c96fe19d68d3),
    ("Health care", 0x57b5e4f1d6d82155, 0x57b5e4f1d6d82155),
    (
        "Inventory tracking and dispatching",
        0x9f9a1c1e52267ab3,
        0x9f9a1c1e52267ab3,
    ),
    ("Traffic", 0x00034d468531ef33, 0x00034d468531ef33),
    (
        "Travel and ticketing",
        0x0586d6a3f13d4fb9,
        0x0586d6a3f13d4fb9,
    ),
];

fn digest(sessions: impl Fn(u64, u64) -> Vec<Step>) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for seed in 0..4 {
        for index in 0..16 {
            for step in sessions(seed, index) {
                h.step(&step);
            }
            h.field(b"end of session");
        }
    }
    h.0
}

#[test]
fn session_content_keeps_its_recorded_digest() {
    let measured: Vec<(String, u64, u64)> = Category::ALL
        .iter()
        .map(|&category| {
            let app = for_category(category);
            (
                category.name().to_owned(),
                digest(|seed, index| app.session(seed, index)),
                digest(|seed, index| app.search_session(seed, index)),
            )
        })
        .collect();
    let recorded: Vec<(String, u64, u64)> = RECORDED
        .iter()
        .map(|&(name, regular, search)| (name.to_owned(), regular, search))
        .collect();
    if measured != recorded {
        for (name, regular, search) in &measured {
            println!("    (\"{name}\", {regular:#018x}, {search:#018x}),");
        }
        panic!("session content moved; the measured rows are printed above");
    }
}
