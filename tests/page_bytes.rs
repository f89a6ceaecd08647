//! Every application's page bytes, pinned.
//!
//! Drives each Table 1 application's sessions against a freshly
//! installed host through `HostComputer::process`, and folds every
//! answer's status code and body into an FNV-1a digest. The fleet
//! benchmark's digests see only Commerce and Entertainment, and only
//! through the gateway; these see the host's own bytes for all eight
//! applications, so a change to how handlers render a page must keep
//! every byte or fail here.
//!
//! Requests are built the way the middleware builds them: a GET carries
//! its query in the URL, a POST its form, and the station's cookies and
//! credentials ride along. Each application runs once with the WAP
//! gateway's `Accept` (HTML) and once with i-mode's (cHTML), which sends
//! Travel's search through its cHTML compaction. Its pages are compact
//! already and come out unchanged, so the two columns agree.

use std::collections::BTreeMap;

use mcommerce::core::apps::{for_category, Application, Step};
use mcommerce::core::Category;
use mcommerce::hostsite::db::Database;
use mcommerce::hostsite::{ContentFormat, HostComputer, HttpRequest};

/// Sessions driven per application and accept format.
const SESSIONS: u64 = 8;

/// Session-generator seed.
const SEED: u64 = 2_003;

/// Host seed (session-id stream).
const HOST_SEED: u64 = 7;

/// Digests recorded before page writing moved from trees to the writer:
/// `(application, WAP accept, i-mode accept)`.
const RECORDED: [(&str, u64, u64); 8] = [
    ("Commerce", 0x75345857ec4746cb, 0x75345857ec4746cb),
    ("Education", 0x62915304a8011889, 0x62915304a8011889),
    (
        "Enterprise resource planning",
        0x80a85fea0dec87e4,
        0x80a85fea0dec87e4,
    ),
    ("Entertainment", 0x791b27debbd314d9, 0x791b27debbd314d9),
    ("Health care", 0x2a5592e6bff63fa2, 0x2a5592e6bff63fa2),
    (
        "Inventory tracking and dispatching",
        0xb8d049dadd8b0811,
        0xb8d049dadd8b0811,
    ),
    ("Traffic", 0x829e62bd80fb37b9, 0x829e62bd80fb37b9),
    (
        "Travel and ticketing",
        0x55d6a913bc9b9d5a,
        0x55d6a913bc9b9d5a,
    ),
];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// The host request a middleware issues for `step`, with the station's
/// cookie jar attached.
fn request(
    step: &Step,
    accept: ContentFormat,
    jar: &BTreeMap<String, String>,
) -> HttpRequest<'static> {
    let req = &step.req;
    let mut http = match &req.form {
        None => HttpRequest::get(&req.url),
        Some(form) => HttpRequest::post(&req.url, form.iter().cloned()),
    }
    .with_accept(accept);
    for (k, v) in jar.iter().chain(req.cookies.iter().map(|(k, v)| (k, v))) {
        http = http.with_cookie(k, v);
    }
    if let Some((user, password)) = &req.auth {
        http = http.with_auth(user, password);
    }
    http
}

/// Drives `SESSIONS` sessions of `app` (and, for Commerce, as many
/// search sessions) against a fresh host and digests every answer.
fn digest(app: &dyn Application, accept: ContentFormat) -> u64 {
    let mut host = HostComputer::new(Database::new(), HOST_SEED);
    app.install(&mut host);
    let mut sessions: Vec<Vec<Step>> = (0..SESSIONS).map(|i| app.session(SEED, i)).collect();
    if app.category() == Category::Commerce {
        sessions.extend((0..SESSIONS).map(|i| app.search_session(SEED, i)));
    }
    let mut jar = BTreeMap::new();
    let mut hash = FNV_OFFSET;
    for step in sessions.iter().flatten() {
        let (resp, _) = host.process(request(step, accept, &jar));
        fnv1a(&mut hash, &resp.status.code().to_le_bytes());
        fnv1a(&mut hash, resp.body.as_bytes());
        jar.extend(resp.set_cookies);
    }
    hash
}

#[test]
fn every_application_serves_the_recorded_page_bytes() {
    let measured: Vec<(&str, u64, u64)> = Category::ALL
        .iter()
        .map(|&category| {
            let app = for_category(category);
            (
                category.name(),
                digest(app.as_ref(), ContentFormat::Html),
                digest(app.as_ref(), ContentFormat::Chtml),
            )
        })
        .collect();
    let table: String = measured
        .iter()
        .map(|(name, wap, imode)| format!("    ({name:?}, {wap:#018x}, {imode:#018x}),\n"))
        .collect();
    assert_eq!(measured, RECORDED, "measured digests:\n{table}");
}
