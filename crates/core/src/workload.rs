//! Workload runner: drives application sessions through a commerce system.

use std::collections::HashMap;
use std::sync::Arc;

use faults::RetryPolicy;
use rand::rngs::StdRng;
use simnet::FixedState;

use crate::apps::{Application, Step};
use crate::report::{TransactionReport, WorkloadSummary};
use crate::system::{CommerceSystem, McSystem};

/// Characters of the normalised page a failed expectation quotes.
const FAILURE_PAGE_CHARS: usize = 60;

/// Pages an [`ExpectMemo`] enters. Per worker of a 2-thread fleetbench
/// run, metro checks its expectations on 6 shared pages and storefront
/// on 5, and the memo answers all but those first checks; search-checkout
/// checks on about 270, and its first 64 answer two thirds of its
/// checks. Each page entered costs an allocation: entering all of
/// search-checkout's would add about 0.002 allocations per transaction.
const MEMO_PAGES: usize = 64;

/// Marks `report` failed when the step's expectation is missing from the
/// rendered page. Narrow screens wrap words onto new lines, so the
/// comparison is whitespace-normalised.
pub(crate) fn check_expectation(report: &mut TransactionReport, step: &Step) {
    if !report.success {
        return;
    }
    if let Some(expect) = &step.expect {
        if !contains_normalised(report.page_text().unwrap_or_default(), expect) {
            mark_unmet(report, expect);
        }
    }
}

/// Marks `report` failed for an expectation its page does not meet.
fn mark_unmet(report: &mut TransactionReport, expect: &str) {
    // `Debug` for `str` ignores precision, so cut the quote first.
    let page = normalise(report.page_text().unwrap_or_default());
    let head = match page.char_indices().nth(FAILURE_PAGE_CHARS) {
        Some((end, _)) => &page[..end],
        None => &page,
    };
    report.success = false;
    report.failure = Some(format!("expected {expect:?} on page, got {head:?}…"));
}

/// Memoised expectation verdicts for shared pages.
///
/// A verdict is a pure function of the rendered page text and the
/// expectation, and a fleet worker's render memo hands the same shared
/// page text to every transaction that renders the same deck. So a
/// worker keeps, per shared page, the first expectation checked on it
/// and that verdict, and a repeated check costs a probe by the page's
/// address and a compare of the expectation — nothing that grows with
/// the page. Every fleetbench workload checks one expectation per page;
/// any other is computed each time. A memo entry holds its page, so the
/// page's memory cannot be freed and reused while the entry keys it: an
/// equal address is the same page.
///
/// A page is entered only while something else also holds it (the
/// render memo does, for the worker's lifetime), so entering it costs
/// no page memory, and a page rendered for one transaction is never
/// entered. The first `MEMO_PAGES` such pages are entered.
#[derive(Debug, Default)]
pub(crate) struct ExpectMemo {
    /// Page address → the page, its first expectation and the verdict.
    pages: HashMap<usize, (Arc<str>, Box<str>, bool), FixedState>,
}

impl ExpectMemo {
    /// [`check_expectation`], with verdicts memoised.
    pub(crate) fn check(&mut self, report: &mut TransactionReport, step: &Step) {
        if !report.success {
            return;
        }
        let Some(expect) = &step.expect else {
            return;
        };
        let met = match &report.outcome {
            Some(outcome) => self.contains(&outcome.page_text, expect),
            None => contains_normalised("", expect),
        };
        if !met {
            mark_unmet(report, expect);
        }
    }

    /// [`contains_normalised`]`(page, expect)`, memoised for shared pages.
    fn contains(&mut self, page: &Arc<str>, expect: &str) -> bool {
        let address = Arc::as_ptr(page).cast::<u8>() as usize;
        if let Some((held, kept, verdict)) = self.pages.get(&address) {
            debug_assert!(Arc::ptr_eq(held, page), "a held page keeps its address");
            if **kept == *expect {
                return *verdict;
            }
            return contains_normalised(page, expect);
        }
        let verdict = contains_normalised(page, expect);
        if Arc::strong_count(page) > 1 && self.pages.len() < MEMO_PAGES {
            let entry = (Arc::clone(page), expect.into(), verdict);
            self.pages.insert(address, entry);
        }
        verdict
    }
}

/// `normalise(haystack).contains(&normalise(needle))`, without building
/// either string. Normalised words hold no whitespace, so a needle of
/// one word matches inside a single haystack word — which is where any
/// match of it in the raw haystack lies — and a longer needle matches
/// where its first word ends a haystack word, each inner word equals
/// the next haystack word, and its last word starts the one after.
pub(crate) fn contains_normalised(haystack: &str, needle: &str) -> bool {
    let mut rest = needle.split_whitespace();
    let Some(first) = rest.next() else {
        return true;
    };
    if rest.clone().next().is_none() {
        return haystack.contains(first);
    }
    let mut words = haystack.split_whitespace();
    while let Some(word) = words.next() {
        if word.ends_with(first) && continues(words.clone(), rest.clone()) {
            return true;
        }
    }
    false
}

/// Whether the non-empty needle words `rest` run on from the start of
/// `words`: inner words equal, the last one a prefix.
fn continues<'a>(
    mut words: impl Iterator<Item = &'a str>,
    mut rest: impl Iterator<Item = &'a str>,
) -> bool {
    let mut want = rest.next();
    while let Some(needle) = want {
        let Some(word) = words.next() else {
            return false;
        };
        want = rest.next();
        let matched = match want {
            Some(_) => word == needle,
            None => word.starts_with(needle),
        };
        if !matched {
            return false;
        }
    }
    true
}

/// Runs one session (a sequence of steps) through `system`, returning a
/// report per step. A step whose expectation is not met on the rendered
/// page is marked failed even if the transport succeeded.
pub fn run_session(system: &mut dyn CommerceSystem, steps: &[Step]) -> Vec<TransactionReport> {
    let mut reports = Vec::with_capacity(steps.len());
    for step in steps {
        let mut report = system.execute(&step.req);
        check_expectation(&mut report, step);
        reports.push(report);
    }
    reports
}

/// Runs one session through an [`McSystem`] under a [`RetryPolicy`]:
/// each step executes via [`McSystem::execute_with_retry`], so transient
/// injected faults are retried with backoff and degraded-path faults
/// fall back to the alternate middleware. Expectations are checked on
/// the settled (post-retry) report.
pub(crate) fn run_session_with_policy(
    system: &mut McSystem,
    steps: &[Step],
    policy: &RetryPolicy,
    rng: &mut StdRng,
) -> Vec<TransactionReport> {
    let mut reports = Vec::with_capacity(steps.len());
    for step in steps {
        let mut report = system.execute_with_retry(&step.req, policy, rng);
        check_expectation(&mut report, step);
        reports.push(report);
    }
    reports
}

/// Collapses all whitespace runs (including line breaks from screen
/// wrapping) into single spaces. [`contains_normalised`] matches against
/// this form without building it.
fn normalise(text: &str) -> String {
    text.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Runs `app` sessions on an [`McSystem`] with user *think time* between
/// steps, draining the battery at idle power, until the battery dies or
/// `max_sessions` complete. Returns `(sessions completed, hours of use)`
/// — the §4.1 battery-life experiment.
pub fn run_until_battery_dies(
    system: &mut McSystem,
    app: &dyn Application,
    think_secs: f64,
    max_sessions: u64,
    seed: u64,
) -> (u64, f64) {
    let mut elapsed_secs = 0.0;
    for index in 0..max_sessions {
        let steps = app.session(seed, index);
        for step in &steps {
            if !system.idle(think_secs) {
                return (index, elapsed_secs / 3600.0);
            }
            elapsed_secs += think_secs;
            let report = system.execute(&step.req);
            elapsed_secs += report.total().as_secs_f64();
            if !report.success
                && report
                    .failure
                    .as_deref()
                    .is_some_and(|f| f.contains("battery"))
            {
                return (index, elapsed_secs / 3600.0);
            }
        }
    }
    (max_sessions, elapsed_secs / 3600.0)
}

/// Runs `sessions` sessions of `app` through `system` and aggregates.
///
/// The application must already be [installed](Application::install) on
/// the system's host.
pub fn run_workload(
    system: &mut dyn CommerceSystem,
    app: &dyn Application,
    sessions: u64,
    seed: u64,
) -> WorkloadSummary {
    let mut reports = Vec::new();
    for index in 0..sessions {
        let steps = app.session(seed, index);
        reports.extend(run_session(system, &steps));
    }
    WorkloadSummary::aggregate(
        format!("{} on {}", app.category(), system.label()),
        &reports,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::{all_apps, PaymentsApp};
    use crate::netpath::{WiredPath, WirelessConfig};
    use crate::system::{EcSystem, McSystem};
    use hostsite::db::Database;
    use hostsite::HostComputer;
    
    use station::DeviceProfile;
    use wireless::WlanStandard;

    fn mc_system(host: HostComputer) -> McSystem {
        crate::system::SystemSpec::new()
            .wireless(WirelessConfig::Wlan {
                standard: WlanStandard::Dot11b,
                distance_m: 25.0,
            })
            .seed(11)
            .build(host)
    }

    #[test]
    fn payments_workload_completes_on_wap() {
        let mut host = HostComputer::new(Database::new(), 1);
        let app = PaymentsApp::new();
        app.install(&mut host);
        let mut system = mc_system(host);
        let summary = run_workload(&mut system, &app, 10, 42);
        assert_eq!(summary.attempted, 20); // two steps per session
        assert_eq!(summary.succeeded, 20, "all payment steps should pass");
        assert!(summary.latency_mean > 0.0);
    }

    #[test]
    fn all_eight_categories_run_on_the_mc_system() {
        // Table 1's whole catalogue on one host, one system.
        let mut host = HostComputer::new(Database::new(), 2);
        let apps = all_apps();
        for app in &apps {
            app.install(&mut host);
        }
        let mut system = mc_system(host);
        for app in &apps {
            let summary = run_workload(&mut system, app.as_ref(), 5, 7);
            assert!(
                summary.success_rate() > 0.95,
                "{}: success {:.2} ({} of {})",
                app.category(),
                summary.success_rate(),
                summary.succeeded,
                summary.attempted
            );
        }
    }

    #[test]
    fn failed_expectations_are_reported_as_failures() {
        let mut host = HostComputer::new(Database::new(), 3);
        let app = PaymentsApp::new();
        app.install(&mut host);
        let mut system = mc_system(host);
        let mut step = crate::apps::Step::fire(middleware::MobileRequest::get("/shop"));
        step.expect = Some("text that is definitely not on the page".into());
        let steps = vec![step];
        let reports = run_session(&mut system, &steps);
        assert!(!reports[0].success);
        assert!(reports[0].failure.as_deref().unwrap().contains("expected"));
    }

    #[test]
    fn a_failed_expectation_quotes_only_the_first_sixty_page_chars() {
        // 43 six-char words, newline-separated: a 300-char page whose
        // multi-byte letters put char 60 well before byte 60's end.
        let page: Vec<String> = (0..43).map(|i| format!("wörd{i:02}")).collect();
        let page = page.join("\n");
        assert_eq!(page.chars().count(), 300);
        let mut report = TransactionReport {
            success: true,
            failure: None,
            outcome: Some(crate::report::TransactionOutcome {
                page_text: page.as_str().into(),
                title: "".into(),
                status: hostsite::http::Status::Ok,
            }),
            ..TransactionReport::new(crate::report::PhaseBreakdown::default(), Some(String::new()), None)
        };
        let mut step = crate::apps::Step::fire(middleware::MobileRequest::get("/"));
        step.expect = Some("absent".into());
        check_expectation(&mut report, &step);
        let head: String = normalise(&page).chars().take(60).collect();
        assert!(!report.success);
        assert_eq!(
            report.failure.as_deref(),
            Some(format!("expected \"absent\" on page, got {head:?}…").as_str())
        );
    }

    #[test]
    fn memoised_verdicts_equal_the_word_walk_and_enter_only_shared_pages() {
        let page: Arc<str> = "Delivering  Summer\nHits now".into();
        // What the render memo's view holds.
        let render_memo = Arc::clone(&page);
        let mut memo = ExpectMemo::default();
        let expectations = [
            "Delivering Summer",
            "Summer Hits",
            "Hits now",
            "absent",
            "Deliver",
            "",
        ];
        for _ in 0..3 {
            for expect in expectations {
                assert_eq!(
                    memo.contains(&page, expect),
                    contains_normalised(&page, expect)
                );
            }
        }
        let one_off: Arc<str> = "Payment complete".into();
        assert!(memo.contains(&one_off, "Payment complete"));
        assert_eq!(
            memo.pages.len(),
            1,
            "a page only its report holds is not entered"
        );
        let (_, kept, verdict) = &memo.pages[&(Arc::as_ptr(&page).cast::<u8>() as usize)];
        assert_eq!((&**kept, *verdict), (expectations[0], true));
        drop(render_memo);
    }

    /// Draws from a few ASCII letters, one multi-byte letter and ASCII
    /// and Unicode whitespace, so words collide and split often.
    const ALPHABET: [char; 9] = ['a', 'b', 'c', 'é', ' ', '\n', '\t', '\u{a0}', '\u{2003}'];

    fn text(max_chars: usize) -> impl proptest::strategy::Strategy<Value = String> {
        proptest::strategy::Strategy::prop_map(
            proptest::collection::vec(0..ALPHABET.len(), 0..max_chars),
            |picks| picks.into_iter().map(|i| ALPHABET[i]).collect(),
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2048))]
        // The word walk is exactly the allocating oracle, for random
        // needles, windows of the haystack with their whitespace swapped
        // (mostly matches, often multi-word), those windows less one
        // char (near misses), an empty needle, a whitespace-only needle
        // and a needle longer than the haystack.
        #[test]
        fn contains_normalised_equals_the_normalise_oracle(
            haystack in text(24),
            needle in text(8),
            (start, len, space, cut) in
                (0usize..24, 0usize..12, 4usize..ALPHABET.len(), 0usize..12),
        ) {
            let chars: Vec<char> = haystack.chars().collect();
            let start = start.min(chars.len());
            let window: String = chars[start..(start + len).min(chars.len())]
                .iter()
                .map(|&c| if c.is_whitespace() { ALPHABET[space] } else { c })
                .collect();
            let gapped: String = window
                .chars()
                .enumerate()
                .filter(|&(i, _)| i != cut)
                .map(|(_, c)| c)
                .collect();
            let blank: String = needle.chars().filter(|c| c.is_whitespace()).collect();
            let longer = format!("{haystack} {needle}a");
            for needle in [needle, window, gapped, String::new(), blank, longer] {
                proptest::prop_assert_eq!(
                    contains_normalised(&haystack, &needle),
                    normalise(&haystack).contains(&normalise(&needle)),
                    "haystack {haystack:?}, needle {needle:?}"
                );
            }
        }
    }

    #[test]
    fn same_workload_runs_on_the_ec_baseline() {
        let mut host = HostComputer::new(Database::new(), 4);
        let app = PaymentsApp::new();
        app.install(&mut host);
        let mut system = EcSystem::new(host, WiredPath::wan());
        let summary = run_workload(&mut system, &app, 5, 9);
        assert_eq!(summary.succeeded, summary.attempted);
    }

    #[test]
    fn workloads_run_on_imode_too() {
        let mut host = HostComputer::new(Database::new(), 5);
        let app = PaymentsApp::new();
        app.install(&mut host);
        let mut system = crate::system::SystemSpec::new()
            .middleware(crate::system::MiddlewareKind::IMode)
            .device(DeviceProfile::nokia_9290())
            .wireless(WirelessConfig::Cellular {
                standard: wireless::CellularStandard::Gprs,
            })
            .seed(12)
            .build(host);
        let summary = run_workload(&mut system, &app, 5, 13);
        assert_eq!(summary.succeeded, summary.attempted);
    }
}
