//! The mobile commerce applications of Table 1 (component i).
//!
//! | Category | Major applications | Clients |
//! |---|---|---|
//! | Commerce | mobile transactions and payments | businesses |
//! | Education | mobile classrooms and labs | schools and training centers |
//! | Enterprise resource planning | resource management | all companies |
//! | Entertainment | music/video/game downloads | entertainment industry |
//! | Health care | patient record accessing | hospitals and nursing homes |
//! | Inventory tracking and dispatching | product tracking and dispatching | delivery services and transportation |
//! | Traffic | global positioning, directions, and traffic advisories | transportation and auto industries |
//! | Travel and ticketing | travel management | travel industry and ticket sales |
//!
//! Each category is a real [`Application`]: an installer that provisions
//! the host computer (database schema and seed data, then
//! application-program routes) plus a deterministic generator of user
//! *sessions* — sequences of requests with expected outcomes — that the
//! workload runner drives through any [`crate::CommerceSystem`].
//!
//! The unit an application generates is the step, not the session: a
//! session's random draws are taken once ([`Application::draws`]), and
//! [`Application::write_step`] writes one step from them into a
//! caller's [`Step`]. A user's behaviour is a pure function of
//! `(seed, session, step)`, so the fleet engine keeps only a cursor and
//! the current session's draws per user, and writes each step into one
//! scratch `Step` whose strings it reuses. [`Application::session`]
//! collects the same writer for callers that want the whole session at
//! once.

pub mod commerce;
pub(crate) mod education;
pub(crate) mod entertainment;
pub(crate) mod erp;
pub mod healthcare;
pub(crate) mod inventory;
pub(crate) mod traffic;
pub(crate) mod travel;

use hostsite::db::Database;
use hostsite::HostComputer;
use markup::Text;
use middleware::MobileRequest;

pub use commerce::PaymentsApp;
pub(crate) use education::EducationApp;
pub(crate) use entertainment::EntertainmentApp;
pub(crate) use erp::ErpApp;
pub(crate) use healthcare::HealthCareApp;
pub use inventory::InventoryApp;
pub(crate) use traffic::TrafficApp;
pub use travel::TravelApp;

/// The application categories of Table 1, in row order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Mobile transactions and payments.
    Commerce,
    /// Mobile classrooms and labs.
    Education,
    /// Enterprise resource planning.
    Erp,
    /// Music/video/game downloads.
    Entertainment,
    /// Patient record accessing.
    HealthCare,
    /// Product tracking and dispatching.
    Inventory,
    /// Global positioning, directions, traffic advisories.
    Traffic,
    /// Travel management and ticketing.
    Travel,
}

impl Category {
    /// All eight Table 1 categories.
    pub const ALL: [Category; 8] = [
        Category::Commerce,
        Category::Education,
        Category::Erp,
        Category::Entertainment,
        Category::HealthCare,
        Category::Inventory,
        Category::Traffic,
        Category::Travel,
    ];

    /// The category name (Table 1 column 1).
    pub fn name(self) -> &'static str {
        match self {
            Category::Commerce => "Commerce",
            Category::Education => "Education",
            Category::Erp => "Enterprise resource planning",
            Category::Entertainment => "Entertainment",
            Category::HealthCare => "Health care",
            Category::Inventory => "Inventory tracking and dispatching",
            Category::Traffic => "Traffic",
            Category::Travel => "Travel and ticketing",
        }
    }

    /// The client industries (Table 1 column 3).
    pub fn clients(self) -> &'static str {
        match self {
            Category::Commerce => "Businesses",
            Category::Education => "Schools and training centers",
            Category::Erp => "All companies",
            Category::Entertainment => "Entertainment industry",
            Category::HealthCare => "Hospitals and nursing homes",
            Category::Inventory => "Delivery services and transportation",
            Category::Traffic => "Transportation and auto industries",
            Category::Travel => "Travel industry and ticket sales",
        }
    }
}

impl std::fmt::Display for Category {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One step of a user session: the request to issue and, optionally, a
/// substring that must appear on the rendered page if the step worked.
///
/// `Step::get` and [`Step::post`] rewrite a step in place, keeping
/// the buffers of whatever they overwrite: a writer that fills one
/// `Step` step after step allocates only when a string outgrows every
/// earlier one. URLs, form values and expectations are any [`Text`],
/// written straight into those buffers: a tuple such as
/// `("/media/download?id=", id)` on the steps the fleet benchmark runs,
/// `format_args!` on the others.
#[derive(Debug, Clone)]
pub struct Step {
    /// The request.
    pub req: MobileRequest,
    /// Expected substring of the rendered page text.
    pub expect: Option<String>,
    /// Buffers of the optional parts the current step leaves out.
    spare: Spare,
}

/// Where a [`Step`] parks the buffers of the optional parts the current
/// step leaves out, until a later step fills those parts again.
#[derive(Debug, Clone, Default)]
struct Spare {
    form: Vec<(String, String)>,
    auth: (String, String),
    expect: String,
}

impl Default for Step {
    /// A GET of the empty path, expecting nothing; allocates nothing.
    fn default() -> Self {
        Step::fire(MobileRequest::get(""))
    }
}

impl Step {
    /// A step whose success is judged only by transport/status.
    pub(crate) fn fire(req: MobileRequest) -> Self {
        Step {
            req,
            expect: None,
            spare: Spare::default(),
        }
    }

    /// Rewrites this step as a GET of `url` with no cookies, no
    /// credentials and no expectation.
    pub(crate) fn get(&mut self, url: impl Text) -> &mut Self {
        self.request(url);
        park(&mut self.req.form, &mut self.spare.form);
        self
    }

    /// Rewrites this step as a POST of the form `fields` to `url`, with
    /// no cookies, no credentials and no expectation.
    pub fn post(&mut self, url: impl Text, fields: &[(&str, &dyn Text)]) -> &mut Self {
        self.request(url);
        let form = fill(&mut self.req.form, &mut self.spare.form);
        form.truncate(fields.len());
        for (i, (name, value)) in fields.iter().enumerate() {
            if form.len() == i {
                form.push(Default::default());
            }
            let (k, v) = &mut form[i];
            rewrite(k, name);
            rewrite(v, value);
        }
        self
    }

    /// Adds basic credentials to the request.
    pub fn auth(&mut self, user: &str, password: &str) -> &mut Self {
        let (u, p) = fill(&mut self.req.auth, &mut self.spare.auth);
        rewrite(u, user);
        rewrite(p, password);
        self
    }

    /// Sets the substring the rendered page must contain.
    pub fn expects(&mut self, text: impl Text) -> &mut Self {
        rewrite(fill(&mut self.expect, &mut self.spare.expect), text);
        self
    }

    /// The part [`Step::get`] and [`Step::post`] share: the URL, and
    /// no cookies, credentials or expectation.
    fn request(&mut self, url: impl Text) {
        rewrite(&mut self.req.url, url);
        self.req.cookies.clear();
        park(&mut self.req.auth, &mut self.spare.auth);
        park(&mut self.expect, &mut self.spare.expect);
    }
}

/// Replaces `buf`'s contents with `text`, keeping its buffer.
fn rewrite(buf: &mut String, text: impl Text) {
    buf.clear();
    text.write_to(buf);
}

/// Empties `slot`, parking what it held in `spare`.
fn park<T>(slot: &mut Option<T>, spare: &mut T) {
    if let Some(held) = slot.take() {
        *spare = held;
    }
}

/// `slot`'s value, taken back from `spare` when the slot is empty.
fn fill<'a, T: Default>(slot: &'a mut Option<T>, spare: &mut T) -> &'a mut T {
    slot.get_or_insert_with(|| std::mem::take(spare))
}

/// A session's random draws: every value its steps take from the
/// session's random stream, taken once when the session starts
/// ([`Application::draws`]) and read by each step it writes. Each
/// application packs its own values (indices into its tables, ids,
/// nonces) into the three words.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Draws(pub [u64; 3]);

/// Collects the steps `write` writes for step indices 0, 1, … — each
/// into a fresh [`Step`] — until it returns `false`.
pub(crate) fn collect_steps(mut write: impl FnMut(usize, &mut Step) -> bool) -> Vec<Step> {
    let mut steps = Vec::new();
    loop {
        let mut step = Step::default();
        if !write(steps.len(), &mut step) {
            return steps;
        }
        steps.push(step);
    }
}

/// A Table 1 application: host-side provisioning plus a generator of
/// session steps.
pub trait Application {
    /// Which Table 1 category this application realises.
    fn category(&self) -> Category;

    /// Seeds the database server: schema, seed rows and full-text
    /// registrations. The result depends on nothing but the application,
    /// so a fleet seeds it once and hands every host a clone.
    fn seed(&self, db: &mut Database);

    /// Mounts the application programs on a host whose database is
    /// already seeded: routes, auth realms, and per-host state such as a
    /// payment gateway.
    fn mount(&self, host: &mut HostComputer);

    /// Provisions the host computer: [`Application::seed`] its database,
    /// then [`Application::mount`] the programs.
    fn install(&self, host: &mut HostComputer) {
        self.seed(host.web.db_mut());
        self.mount(host);
    }

    /// The random draws of the `index`-th user session under `seed`,
    /// taken in the order the session's generator always takes them.
    fn draws(&self, seed: u64, index: u64) -> Draws;

    /// Writes step `step` of the session whose draws are `draws` into
    /// `out`, reusing its buffers, and returns `true`; returns `false`,
    /// leaving `out` as it was, when the session has no such step. A
    /// step depends only on the draws, so writing every step from one
    /// session's draws equals [`Application::session`]. The fleet engine
    /// finds a spent session by asking for one step past its end.
    fn write_step(&self, draws: &Draws, step: usize, out: &mut Step) -> bool;

    /// The draws of the search-heavy variant of the `index`-th session
    /// (browse → search → refine → purchase), used when a scenario sets
    /// `search_heavy`. Applications without a search workload fall back
    /// to their regular sessions.
    fn search_draws(&self, seed: u64, index: u64) -> Draws {
        self.draws(seed, index)
    }

    /// The search-heavy variant of [`Application::write_step`], for
    /// draws from [`Application::search_draws`].
    fn write_search_step(&self, draws: &Draws, step: usize, out: &mut Step) -> bool {
        self.write_step(draws, step, out)
    }

    /// The `index`-th user session under `seed`: every step
    /// [`Application::write_step`] writes from its draws, in order.
    fn session(&self, seed: u64, index: u64) -> Vec<Step> {
        let draws = self.draws(seed, index);
        collect_steps(|step, out| self.write_step(&draws, step, out))
    }

    /// The `index`-th search-heavy session under `seed`: every step
    /// [`Application::write_search_step`] writes from its draws, in
    /// order.
    fn search_session(&self, seed: u64, index: u64) -> Vec<Step> {
        let draws = self.search_draws(seed, index);
        collect_steps(|step, out| self.write_search_step(&draws, step, out))
    }
}

/// All eight applications, ready to install.
pub fn all_apps() -> Vec<Box<dyn Application>> {
    Category::ALL.iter().map(|c| for_category(*c)).collect()
}

/// Instantiates the application realising `category` — the factory the
/// fleet runner uses so every thread can build its own application from
/// a plain [`Category`] value.
pub fn for_category(category: Category) -> Box<dyn Application> {
    match category {
        Category::Commerce => Box::new(PaymentsApp::new()),
        Category::Education => Box::new(EducationApp),
        Category::Erp => Box::new(ErpApp),
        Category::Entertainment => Box::new(EntertainmentApp),
        Category::HealthCare => Box::new(HealthCareApp),
        Category::Inventory => Box::new(InventoryApp),
        Category::Traffic => Box::new(TrafficApp),
        Category::Travel => Box::new(TravelApp),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_eight_rows_with_distinct_categories() {
        let apps = all_apps();
        assert_eq!(apps.len(), 8);
        let mut cats: Vec<&str> = apps.iter().map(|a| a.category().name()).collect();
        cats.sort_unstable();
        cats.dedup();
        assert_eq!(cats.len(), 8);
    }

    #[test]
    fn table1_columns_match_the_paper() {
        assert_eq!(
            Category::HealthCare.clients(),
            "Hospitals and nursing homes"
        );
        assert_eq!(
            Category::Inventory.name(),
            "Inventory tracking and dispatching"
        );
        assert_eq!(
            Category::Travel.clients(),
            "Travel industry and ticket sales"
        );
        assert_eq!(Category::Erp.clients(), "All companies");
    }

    #[test]
    fn every_app_generates_nonempty_deterministic_sessions() {
        for app in all_apps() {
            let a = app.session(7, 0);
            let b = app.session(7, 0);
            assert!(!a.is_empty(), "{} session empty", app.category());
            assert_eq!(a.len(), b.len(), "{} nondeterministic", app.category());
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.req.url, y.req.url, "{} nondeterministic", app.category());
            }
        }
    }
}
