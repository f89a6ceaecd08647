//! Fleet engine: a deterministic sharded scenario runner.
//!
//! The paper argues an MC system must serve *many* concurrent users
//! (§1: "a potentially huge market"), yet every experiment in this
//! workspace so far drove a single [`McSystem`] by hand. This module
//! scales the model to fleets: a [`Scenario`] describes one population
//! declaratively — device profile × middleware kind × wireless standard
//! × application workload × user count × security — and a
//! [`FleetRunner`] executes it on a [`Topology`] across OS threads.
//!
//! There is one engine ([`crate::shared`]): users are grouped into
//! islands around a host, and islands are sharded across threads. The
//! default [`Topology::isolated`] gives every user an island of its own,
//! a private world; a shared topology puts many users behind one cell,
//! gateway and host.
//!
//! # Determinism under parallelism
//!
//! The merged result is **bit-for-bit identical regardless of thread
//! count**, because of three rules:
//!
//! 1. *Index-derived worlds.* Each simulated user gets its own station,
//!    battery and RNG streams, and each island its own host, all seeded
//!    from the scenario seed and the **user or island index** via
//!    [`simnet::rng::sub_seed`] — never from the thread that happens to
//!    execute it.
//! 2. *Integral accumulation.* Workers accumulate
//!    [`WorkloadCounters`] — integer sums and histograms whose merge is
//!    exactly associative and commutative.
//! 3. *Canonical merge order.* Worker results are merged on the
//!    coordinating thread in worker-index order and traces in global
//!    user-index order, so even the derived floating-point statistics
//!    are computed by one fixed expression.
//!
//! Threads here are plain `std::thread::scope` workers over disjoint
//! data; there is no I/O to multiplex and no shared mutable state, so
//! this stays within the workspace's no-async-runtime decision
//! (DESIGN.md §1) — parallelism for throughput, not concurrency for
//! coordination.

use std::cell::RefCell;
use std::rc::Rc;
use std::thread;
use std::time::Instant;

use hostsite::db::{Database, DurabilityPolicy};
use hostsite::HostComputer;
use middleware::SharedTranscodeMemo;
use obs::Recorder;
use station::{DeviceProfile, RenderMemo};
use wireless::WlanStandard;

use crate::apps::{collect_steps, for_category, Application, Category, Step};
use crate::netpath::{WiredPath, WirelessConfig};
use crate::report::{WorkloadCounters, WorkloadSummary};
use crate::shared::{self, ContentionStats};
use crate::system::{provision_host, CachePolicy, McSystem, MiddlewareKind, SystemSpec, UserSide};
use crate::topology::Topology;
use crate::workload::run_session;

/// A declarative description of one fleet experiment: who the users
/// are, what they run, and over which technology stack.
///
/// A `Scenario` is plain data (`Clone + Send + Sync`), so it can be
/// shared immutably across worker threads; every piece of machinery (the
/// host, the middleware, the RNGs) is constructed *inside* the worker
/// from this description.
///
/// ```
/// use mcommerce_core::{Category, FleetRunner, MiddlewareKind, Scenario};
///
/// let scenario = Scenario::new("quickstart")
///     .middleware(MiddlewareKind::Wap)
///     .app(Category::Commerce)
///     .users(8)
///     .sessions_per_user(2)
///     .seed(42);
/// let run = FleetRunner::new(scenario).run();
/// assert_eq!(run.report.summary.users, 8);
/// assert!(run.report.summary.workload.success_rate() > 0.99);
/// ```
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name, used in labels and reports.
    pub name: String,
    /// The handset every user carries.
    pub device: DeviceProfile,
    /// The middleware component (component iii).
    pub middleware: MiddlewareKind,
    /// The wireless network (component iv).
    pub wireless: WirelessConfig,
    /// The wired path to the host (component v).
    pub wired: WiredPath,
    /// The application workload (component i, Table 1).
    pub app: Category,
    /// Number of independent simulated users.
    pub users: u64,
    /// Sessions each user runs.
    pub sessions_per_user: u64,
    /// Whether WTLS-style transport security is on (§8).
    pub secure: bool,
    /// User think time between sessions, seconds of sim time: the
    /// station idles (draining idle battery) and the user's clock moves
    /// through any scheduled fault windows. Zero (the default) keeps
    /// the pre-existing back-to-back behaviour.
    pub think_secs: f64,
    /// Root seed every per-user stream derives from.
    pub seed: u64,
    /// Fault schedule installed on every user's system (each user's
    /// windows are evaluated against their own sim clock). Empty by
    /// default — and an empty plan draws no randomness, so a fleet
    /// carrying `FaultPlan::none()` is bit-identical to a plan-free one.
    pub faults: faults::FaultPlan,
    /// Per-transaction retry policy. [`faults::RetryPolicy::none`] (the
    /// default) keeps the exact pre-policy execution path.
    pub retry: faults::RetryPolicy,
    /// Fallback middleware for graceful degradation under gateway or
    /// transcoder faults.
    pub fallback: Option<MiddlewareKind>,
    /// Cache policy applied to every host and gateway. Disabled by
    /// default — and a disabled policy executes the exact pre-cache
    /// path, so a cache-free fleet is bit-identical to one carrying
    /// `CachePolicy::disabled()`. Caches never cross an island, which
    /// preserves thread-count invariance.
    pub cache: CachePolicy,
    /// Durability policy for every user's host database. The default
    /// (batch 1, free fsync) executes the exact pre-WAL-pricing path.
    pub durability: DurabilityPolicy,
    /// Drive each user through the search-heavy sessions
    /// ([`Application::write_search_step`]) instead of the regular
    /// ones: the browse → search → refine → purchase
    /// workload whose query strings give every cache tier a
    /// high-cardinality key space. Off by default.
    pub search_heavy: bool,
}

impl Scenario {
    /// A scenario with workshop defaults: one user running one Commerce
    /// session on an iPAQ over 802.11b at 20 m through the WAP gateway,
    /// security off, seed 1.
    pub fn new(name: impl Into<String>) -> Self {
        Scenario {
            name: name.into(),
            device: DeviceProfile::ipaq_h3870(),
            middleware: MiddlewareKind::Wap,
            wireless: WirelessConfig::Wlan {
                standard: WlanStandard::Dot11b,
                distance_m: 20.0,
            },
            wired: WiredPath::wan(),
            app: Category::Commerce,
            users: 1,
            sessions_per_user: 1,
            secure: false,
            think_secs: 0.0,
            seed: 1,
            faults: faults::FaultPlan::none(),
            retry: faults::RetryPolicy::none(),
            fallback: None,
            cache: CachePolicy::disabled(),
            durability: DurabilityPolicy::default(),
            search_heavy: false,
        }
    }

    /// Sets the device profile.
    #[must_use]
    pub fn device(mut self, device: DeviceProfile) -> Self {
        self.device = device;
        self
    }

    /// Sets the middleware kind.
    #[must_use]
    pub fn middleware(mut self, kind: MiddlewareKind) -> Self {
        self.middleware = kind;
        self
    }

    /// Sets the wireless configuration.
    #[must_use]
    pub fn wireless(mut self, wireless: WirelessConfig) -> Self {
        self.wireless = wireless;
        self
    }

    /// Sets the wired path.
    #[must_use]
    pub fn wired(mut self, wired: WiredPath) -> Self {
        self.wired = wired;
        self
    }

    /// Sets the application workload.
    #[must_use]
    pub fn app(mut self, app: Category) -> Self {
        self.app = app;
        self
    }

    /// Sets the user count.
    #[must_use]
    pub fn users(mut self, users: u64) -> Self {
        self.users = users;
        self
    }

    /// Sets sessions per user.
    #[must_use]
    pub fn sessions_per_user(mut self, sessions: u64) -> Self {
        self.sessions_per_user = sessions;
        self
    }

    /// Turns WTLS-style security on or off.
    #[must_use]
    pub fn secure(mut self, secure: bool) -> Self {
        self.secure = secure;
        self
    }

    /// Switches users onto the search-heavy session variant.
    #[must_use]
    pub fn search_heavy(mut self, search_heavy: bool) -> Self {
        self.search_heavy = search_heavy;
        self
    }

    /// Writes step `step` of this scenario's `session`-th session into
    /// `out` — the search-heavy variant when [`Scenario::search_heavy`]
    /// is set, the app's regular sessions otherwise — and returns
    /// `false` past the session's last step. Every runner (the
    /// reference path through [`Scenario::session_steps`] and the fleet
    /// engine) routes through here, so the switch cannot drift.
    pub(crate) fn write_step(
        &self,
        app: &dyn Application,
        session_seed: u64,
        session: u64,
        step: usize,
        out: &mut Step,
    ) -> bool {
        if self.search_heavy {
            app.write_search_step(session_seed, session, step, out)
        } else {
            app.write_step(session_seed, session, step, out)
        }
    }

    /// The `session`-th session for this scenario: every step
    /// [`Scenario::write_step`] writes, in order.
    pub(crate) fn session_steps(
        &self,
        app: &dyn Application,
        session_seed: u64,
        session: u64,
    ) -> Vec<Step> {
        collect_steps(|step, out| self.write_step(app, session_seed, session, step, out))
    }

    /// Sets the root seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the think time between sessions, seconds of sim time.
    #[must_use]
    pub fn think_time(mut self, secs: f64) -> Self {
        self.think_secs = secs;
        self
    }

    /// Installs a fault schedule on every user's system.
    #[must_use]
    pub fn faults(mut self, plan: faults::FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Sets the per-transaction retry policy.
    #[must_use]
    pub fn retry(mut self, policy: faults::RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Selects the fallback middleware swapped in when the primary path
    /// degrades (requires a retrying policy to take effect).
    #[must_use]
    pub fn fallback_middleware(mut self, kind: MiddlewareKind) -> Self {
        self.fallback = Some(kind);
        self
    }

    /// Sets the cache policy applied to every user's system.
    #[must_use]
    pub fn cache(mut self, policy: CachePolicy) -> Self {
        self.cache = policy;
        self
    }

    /// Sets the durability policy for every user's host database.
    #[must_use]
    pub fn durability(mut self, policy: DurabilityPolicy) -> Self {
        self.durability = policy;
        self
    }

    /// Label summarising the configuration for reports.
    pub fn label(&self) -> String {
        format!(
            "{}: {} × {} × {} × {}{} × {} user(s)",
            self.name,
            self.app,
            self.middleware,
            self.wireless.name(),
            self.device.name,
            if self.secure { " × WTLS" } else { "" },
            self.users,
        )
    }

    /// The typed [`SystemSpec`] for one user of this scenario — the
    /// scenario's stack with the user's derived air-link seed.
    pub fn spec_for_user(&self, user: u64) -> SystemSpec {
        SystemSpec::new()
            .middleware(self.middleware)
            .device(self.device.clone())
            .wireless(self.wireless)
            .wired(self.wired)
            .seed(simnet::rng::sub_seed(self.seed, "fleet.air", user))
            .secure(self.secure)
            .cache(self.cache)
            .durability(self.durability)
    }

    /// Builds the fully provisioned system for one user: a freshly
    /// seeded database in a host with the application mounted,
    /// middleware, device, networks — seeded purely from the scenario
    /// seed and the user index, all through [`Scenario::spec_for_user`].
    /// The fleet engine never calls this; it is the per-user reference
    /// the engine is tested against.
    pub fn system_for_user(&self, user: u64) -> McSystem {
        let app = for_category(self.app);
        let db = seeded(app.as_ref());
        self.system_on(user, self.host_for(app.as_ref(), user, db))
    }

    /// The provisioned host of world `index` around `db`, a database
    /// `app` has seeded: the application mounted, the cache and
    /// durability policies applied, the web server seeded from the
    /// scenario seed and `index`. It is user `index`'s private host in
    /// [`Scenario::system_for_user`] and island `index`'s shared host in
    /// the fleet engine, so on [`Topology::isolated`] the two coincide.
    /// The engine passes a clone of its worker's seeded database, the
    /// reference a fresh one.
    pub(crate) fn host_for(&self, app: &dyn Application, index: u64, db: Database) -> HostComputer {
        let mut host = HostComputer::new(db, simnet::rng::sub_seed(self.seed, "fleet.host", index));
        app.mount(&mut host);
        provision_host(&mut host, self.cache, self.durability);
        host
    }

    /// User `user`'s whole system around `host`, which it leaves
    /// untouched: the user half from [`Scenario::user_side`] and a
    /// gateway cache of its own. [`Scenario::system_for_user`] passes a
    /// provisioned host. The fleet engine builds no system: an island
    /// user is only its user half, which runs every transaction against
    /// the island's host and its gateway's shared cache.
    pub(crate) fn system_on(&self, user: u64, host: HostComputer) -> McSystem {
        McSystem::assemble(host, self.user_side(user))
    }

    /// The one build path behind every user: the scenario's stack for
    /// `user` with its fault plan and fallback middleware installed.
    /// [`Scenario::system_on`] and the fleet engine both build through
    /// here, so they cannot differ.
    pub(crate) fn user_side(&self, user: u64) -> UserSide {
        let mut side = self.spec_for_user(user).user_side();
        if !self.faults.is_empty() {
            side.set_fault_plan(self.faults.clone());
        }
        side.set_fallback_middleware(self.fallback);
        side
    }

    /// Runs one user's complete workload in a private world, folding
    /// every transaction into `counters`. Depends only on
    /// `(scenario, user)`, and matches what a fleet on
    /// [`Topology::isolated`] counts for that user.
    pub fn run_user(&self, user: u64, counters: &mut WorkloadCounters) {
        let mut system = self.system_for_user(user);
        self.run_user_on(&mut system, user, counters);
    }

    /// The shared inner loop of [`Scenario::run_user`] and
    /// [`Scenario::run_user_traced`]: drives `system` through this
    /// user's sessions. Depends only on `(scenario, user)` and the
    /// state of `system`.
    fn run_user_on(&self, system: &mut McSystem, user: u64, counters: &mut WorkloadCounters) {
        let app = for_category(self.app);
        let session_seed = simnet::rng::sub_seed(self.seed, "fleet.session", user);
        if self.retry.is_none() {
            for session in 0..self.sessions_per_user {
                if session > 0 && self.think_secs > 0.0 {
                    system.idle(self.think_secs);
                }
                let steps = self.session_steps(app.as_ref(), session_seed, session);
                for report in run_session(system, &steps) {
                    counters.record(&report);
                }
            }
        } else {
            // Jitter stream keyed by (seed, user), never by thread or
            // island — the determinism rule the module docs state.
            let mut retry_rng = simnet::rng::rng_for_indexed(self.seed, "fleet.retry", user);
            for session in 0..self.sessions_per_user {
                if session > 0 && self.think_secs > 0.0 {
                    system.idle(self.think_secs);
                }
                let steps = self.session_steps(app.as_ref(), session_seed, session);
                for report in
                    crate::workload::run_session_with_policy(system, &steps, &self.retry, &mut retry_rng)
                {
                    counters.record(&report);
                }
            }
        }
    }

    /// Like [`Scenario::run_user`], but with the flight recorder and the
    /// metrics registry enabled: returns the user's trace events, any
    /// failure dumps, and the metrics the layers published.
    ///
    /// The workload itself is **identical** to the untraced run — the
    /// recorder only observes, so `counters` comes out the same either
    /// way (pinned by a unit test below).
    pub fn run_user_traced(&self, user: u64, counters: &mut WorkloadCounters) -> UserTrace {
        let guard = obs::metrics::enable();
        let mut system = self.system_for_user(user);
        system.set_recorder(Recorder::ring_for_user(user));
        self.run_user_on(&mut system, user, counters);
        let (events, dumps) = system.take_recorder().into_parts();
        drop(guard);
        UserTrace {
            events,
            dumps,
            metrics: obs::metrics::take(),
        }
    }
}

/// A fresh database seeded by `app`: the template each fleet worker
/// clones for its island hosts, and the reference path's own database.
pub(crate) fn seeded(app: &dyn Application) -> Database {
    let mut db = Database::new();
    app.seed(&mut db);
    db
}

/// Worker-lifetime scratch state: memo tables for the pure, body-keyed
/// stages of the transaction pipeline — the gateway's translation
/// (HTML→WML→WBXML, HTML→cHTML) and the browser's render. One scratch
/// lives per fleet worker thread; the `Rc` handles are cloned into
/// every system the worker builds and never cross threads.
///
/// This is the arena discipline of the F9 work: allocations that are
/// logically transaction-lifetime (parsed documents, encoded decks,
/// rendered lines) get built once per *distinct input* per worker and
/// replayed by refcount for the rest of the worker's users and islands.
/// Because the memoised stages are pure functions of their keys, a hit
/// is byte-identical to a fresh computation — summaries, traces, and
/// the cross-thread F9 digest are unchanged by scratch attachment,
/// island layout, or population (pinned by `tests/fleet_props.rs`
/// against the scratch-free [`Scenario::run_user`]).
#[derive(Debug, Default)]
pub struct ShardScratch {
    transcode: SharedTranscodeMemo,
    render: Rc<RefCell<RenderMemo>>,
}

impl ShardScratch {
    /// A fresh, empty scratch for one worker thread.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches this scratch's memos to a freshly built user.
    pub(crate) fn attach(&self, user: &mut UserSide) {
        user.attach_shard_memos(self.transcode.clone(), self.render.clone());
    }

    /// Translation lookups answered from the memo, across every system
    /// this scratch served.
    pub fn transcode_hits(&self) -> u64 {
        self.transcode.borrow().hits()
    }

    /// Render lookups answered from the memo.
    pub fn render_hits(&self) -> u64 {
        self.render.borrow().hits()
    }
}

/// One user's telemetry from a traced run: sim-time trace events (in
/// emission order), flight-recorder dumps for failed transactions, and
/// the metrics counters/histograms the layers published.
#[derive(Debug, Default)]
pub struct UserTrace {
    /// Trace events in sim-time order for this user.
    pub events: Vec<obs::TraceEvent>,
    /// Flight-recorder dumps, one per failed transaction.
    pub dumps: Vec<obs::FlightDump>,
    /// Counters and histograms published while this user ran.
    pub metrics: obs::Metrics,
}

/// The merged telemetry of a traced fleet run.
///
/// Per-user traces are concatenated in **user-index order** and metrics
/// merged the same way, so — like [`FleetSummary`] — a `FleetTrace` is
/// byte-for-byte identical however many threads executed the fleet
/// (pinned by `tests/trace_props.rs`).
#[derive(Debug, Default)]
pub struct FleetTrace {
    /// Every user's trace events, concatenated in user-index order.
    pub events: Vec<obs::TraceEvent>,
    /// Every flight-recorder dump, in user-index order.
    pub dumps: Vec<obs::FlightDump>,
    /// Fleet-wide merged metrics.
    pub metrics: obs::Metrics,
}

impl FleetTrace {
    /// Renders the fleet's events as JSONL (one event per line).
    pub fn to_jsonl(&self) -> String {
        obs::export::to_jsonl(&self.events)
    }

    /// Renders the fleet's events as a Chrome `trace_event` JSON
    /// document for `chrome://tracing` / Perfetto.
    pub fn to_chrome_json(&self) -> String {
        obs::export::to_chrome_trace(&self.events)
    }
}

/// The deterministic, thread-count-independent result of a fleet run.
///
/// Two runs of the same [`Scenario`] compare equal however many threads
/// executed them — the property `tests/fleet_props.rs` pins down.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSummary {
    /// The scenario label this fleet executed.
    pub scenario: String,
    /// Number of simulated users.
    pub users: u64,
    /// The merged workload statistics across every user.
    pub workload: WorkloadSummary,
}

impl FleetSummary {
    /// Transactions attempted across the fleet.
    pub fn transactions(&self) -> u64 {
        self.workload.attempted as u64
    }
}

/// A fleet execution: the deterministic summary plus the (inherently
/// machine-dependent) wall-clock measurements.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// OS threads the fleet ran on: the requested count, clamped to ≥ 1
    /// and to the `min(hosts, users)` islands the engine runs.
    pub threads: usize,
    /// Wall-clock seconds the run took.
    pub wall_secs: f64,
    /// The thread-count-independent merged result.
    pub summary: FleetSummary,
}

impl FleetReport {
    /// Transactions executed per wall-clock second.
    pub fn throughput_tps(&self) -> f64 {
        if self.wall_secs <= 0.0 {
            return 0.0;
        }
        self.summary.transactions() as f64 / self.wall_secs
    }
}

/// Number of worker threads [`FleetRunner`] uses by default: the
/// machine's available parallelism.
pub fn default_threads() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// Which observability sink each user gets in a traced run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecorderKind {
    /// A per-user flight-recorder ring: sim-time spans, instants and
    /// failure dumps (the default).
    #[default]
    Ring,
    /// No recorder: the metrics registry still runs, but no trace
    /// events or dumps are captured — cheaper tracing for metric-only
    /// experiments.
    Disabled,
}

/// Execution mechanics for one fleet run: how many OS threads, whether
/// telemetry is captured, and through which recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RunConfig {
    /// Worker threads the fleet is sharded across (clamped to ≥ 1 and
    /// to the islands `0..min(hosts, users)` the engine runs: one per
    /// user in an isolated world).
    pub(crate) threads: usize,
    /// Whether to run with the metrics registry and per-user recorders
    /// enabled and merge a [`FleetTrace`].
    pub(crate) traced: bool,
    /// The recorder installed per user when `traced` is set.
    pub(crate) recorder: RecorderKind,
    /// Whether to sample shared-resource time-series, in bins of
    /// [`obs::timeseries::DEFAULT_BIN_NS`]. Only shared topologies have
    /// shared resources to sample; [`Topology::isolated`] ignores it.
    pub(crate) telemetry: bool,
}

/// Everything one fleet execution produced.
#[derive(Debug)]
pub struct FleetRun {
    /// The deterministic summary plus wall-clock measurements.
    pub report: FleetReport,
    /// Merged telemetry, present iff the run was traced.
    pub trace: Option<FleetTrace>,
    /// Shared-resource contention telemetry, present iff the topology
    /// was shared.
    pub contention: Option<ContentionStats>,
    /// Fixed-bin resource time-series (cell airtime, gateway CPU and
    /// cache hit-rate, host CPU and queue depth), present iff telemetry
    /// was requested on a shared topology. Merged across islands into
    /// canonical name order, so exports are byte-identical at any
    /// thread count.
    pub timeseries: Option<obs::Telemetry>,
}

/// The single entry point for executing fleets: a [`Scenario`] (who the
/// users are and what they run), a [`Topology`] (what infrastructure
/// they share), and how the simulation executes (threads, tracing,
/// telemetry).
///
/// Replaces the `fleet::run` / `run_on` / `run_traced_on` trio:
///
/// ```
/// use mcommerce_core::{FleetRunner, Scenario, Topology};
///
/// let scenario = Scenario::new("storefront").users(6).seed(9);
/// // A private world per user (the default topology):
/// let isolated = FleetRunner::new(scenario.clone()).threads(2).run();
/// // The same population contending for one cell, gateway and host:
/// let shared = FleetRunner::new(scenario)
///     .topology(Topology::shared())
///     .threads(2)
///     .run();
/// assert_eq!(isolated.report.summary.users, 6);
/// assert!(shared.contention.unwrap().transactions > 0);
/// ```
///
/// Every knob is plain data, so a runner can be built once and run
/// repeatedly; results are bit-identical for a fixed scenario, topology
/// and seed regardless of `threads`.
#[derive(Debug, Clone)]
pub struct FleetRunner {
    scenario: Scenario,
    topology: Topology,
    config: RunConfig,
}

impl FleetRunner {
    /// A runner over `scenario` with the default isolated topology, one
    /// worker per available core, no tracing and no telemetry.
    pub fn new(scenario: Scenario) -> Self {
        FleetRunner {
            scenario,
            topology: Topology::isolated(),
            config: RunConfig {
                threads: default_threads(),
                traced: false,
                recorder: RecorderKind::Ring,
                telemetry: false,
            },
        }
    }

    /// Sets the infrastructure topology.
    #[must_use]
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Sets the worker thread count.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Enables or disables telemetry capture.
    #[must_use]
    pub fn traced(mut self, traced: bool) -> Self {
        self.config.traced = traced;
        self
    }

    /// Selects the per-user recorder used when tracing.
    #[must_use]
    pub fn recorder(mut self, recorder: RecorderKind) -> Self {
        self.config.recorder = recorder;
        self
    }

    /// Enables or disables shared-resource time-series (bins of
    /// [`obs::timeseries::DEFAULT_BIN_NS`]).
    #[must_use]
    pub fn telemetry(mut self, enabled: bool) -> Self {
        self.config.telemetry = enabled;
        self
    }

    /// Executes the fleet and returns everything it produced.
    ///
    /// Every topology runs the one island engine in [`crate::shared`]:
    /// [`Topology::isolated`] is simply one island per user. The summary
    /// — and the trace and time-series, when captured — is
    /// byte-identical at any thread count.
    pub fn run(&self) -> FleetRun {
        let scenario = &self.scenario;
        let started = Instant::now();
        // An isolated world has no shared resources to report on.
        let shared = self.topology.is_shared();
        let islands = self.topology.host_count().min(scenario.users);
        let config = RunConfig {
            threads: self.config.threads.clamp(1, islands.max(1) as usize),
            telemetry: self.config.telemetry && shared,
            ..self.config
        };
        let totals = shared::run_islands(scenario, &self.topology, islands, config);
        FleetRun {
            report: FleetReport {
                threads: config.threads,
                wall_secs: started.elapsed().as_secs_f64(),
                summary: FleetSummary {
                    scenario: scenario.label(),
                    users: scenario.users,
                    workload: totals.counters.summary(scenario.label()),
                },
            },
            trace: totals.trace,
            contention: shared.then_some(totals.stats),
            timeseries: totals.telemetry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Scenario {
        Scenario::new("unit")
            .app(Category::Commerce)
            .users(6)
            .sessions_per_user(2)
            .seed(7)
    }

    // Thin helpers over the FleetRunner entry point keep the
    // assertions below readable.
    fn run_on(scenario: &Scenario, threads: usize) -> FleetReport {
        FleetRunner::new(scenario.clone())
            .threads(threads)
            .run()
            .report
    }

    fn run_traced_on(scenario: &Scenario, threads: usize) -> (FleetReport, FleetTrace) {
        let run = FleetRunner::new(scenario.clone())
            .threads(threads)
            .traced(true)
            .run();
        (run.report, run.trace.expect("traced run carries a trace"))
    }

    #[test]
    fn untraced_runs_carry_no_trace_or_contention() {
        let run = FleetRunner::new(small()).threads(2).run();
        assert!(run.trace.is_none());
        assert!(run.contention.is_none());
        assert!(run.timeseries.is_none());
    }

    #[test]
    fn disabled_recorder_keeps_metrics_but_drops_events() {
        let run = FleetRunner::new(small())
            .threads(2)
            .traced(true)
            .recorder(RecorderKind::Disabled)
            .run();
        let trace = run.trace.expect("traced");
        assert!(trace.events.is_empty());
        assert!(trace.dumps.is_empty());
        assert!(trace.metrics.counter("station.transactions") > 0);
    }

    #[test]
    fn shared_topology_produces_contention_stats() {
        let run = FleetRunner::new(small())
            .topology(Topology::shared())
            .threads(2)
            .run();
        let stats = run.contention.expect("shared runs report contention");
        assert_eq!(stats.transactions, 24);
        assert_eq!(run.report.summary.users, 6);
        assert!(run.report.summary.workload.success_rate() > 0.99);
    }

    #[test]
    fn fleet_runs_and_users_succeed() {
        let report = run_on(&small(), 2);
        let s = &report.summary;
        assert_eq!(s.users, 6);
        // PaymentsApp sessions are two steps each: 6 users × 2 sessions × 2.
        assert_eq!(s.transactions(), 24);
        assert_eq!(s.workload.succeeded, 24, "{:?}", s.workload.counters.failures);
        assert!(report.wall_secs >= 0.0);
    }

    #[test]
    fn shard_count_does_not_change_the_summary() {
        let scenario = small();
        let one = run_on(&scenario, 1).summary;
        let three = run_on(&scenario, 3).summary;
        let many = run_on(&scenario, 64).summary; // clamped to one per user
        assert_eq!(one, three);
        assert_eq!(one, many);
    }

    #[test]
    fn users_are_independent_worlds() {
        // Same scenario, disjoint user prefixes: the first users' results
        // are unchanged by how many other users exist.
        let a = {
            let mut c = WorkloadCounters::default();
            small().users(2).run_user(1, &mut c);
            c
        };
        let b = {
            let mut c = WorkloadCounters::default();
            small().users(100).run_user(1, &mut c);
            c
        };
        assert_eq!(a, b);
    }

    #[test]
    fn seeds_differentiate_fleets() {
        let x = run_on(&small().seed(1), 2).summary;
        let y = run_on(&small().seed(2), 2).summary;
        // Same shape of workload…
        assert_eq!(x.transactions(), y.transactions());
        // …but different stochastic outcomes (latency streams differ).
        assert_ne!(x.workload.counters.latency_ns, y.workload.counters.latency_ns);
    }

    #[test]
    fn every_category_fleet_completes() {
        for category in Category::ALL {
            let report = run_on(
                &Scenario::new("breadth").app(category).users(2).seed(11),
                2,
            );
            assert!(
                report.summary.workload.success_rate() > 0.95,
                "{category}: {:?}",
                report.summary.workload.counters.failures
            );
        }
    }

    #[test]
    fn secure_fleets_cost_more_energy() {
        let base = Scenario::new("wtls").users(4).sessions_per_user(2).seed(3);
        let plain = run_on(&base.clone(), 2).summary;
        let secure = run_on(&base.secure(true), 2).summary;
        assert!(
            secure.workload.energy_mean_j > plain.workload.energy_mean_j,
            "{} !> {}",
            secure.workload.energy_mean_j,
            plain.workload.energy_mean_j
        );
    }

    #[test]
    fn tracing_does_not_change_the_workload() {
        let scenario = small();
        let mut plain = WorkloadCounters::default();
        scenario.run_user(3, &mut plain);
        let mut traced = WorkloadCounters::default();
        let trace = scenario.run_user_traced(3, &mut traced);
        assert_eq!(plain, traced, "recorder must only observe");
        assert!(!trace.events.is_empty());
        assert!(trace.metrics.counter("station.transactions") > 0);
    }

    #[test]
    fn traced_fleet_matches_untraced_summary() {
        let scenario = small();
        let untraced = run_on(&scenario, 2).summary;
        let (report, trace) = run_traced_on(&scenario, 2);
        assert_eq!(report.summary, untraced);
        assert_eq!(
            trace.metrics.counter("station.transactions"),
            untraced.transactions()
        );
        // Every event carries the layer taxonomy; spot-check the first
        // transaction traverses wireless and host layers.
        use obs::Layer;
        assert!(trace.events.iter().any(|e| e.layer == Layer::Wireless));
        assert!(trace.events.iter().any(|e| e.layer == Layer::Host));
        assert!(trace.events.iter().any(|e| e.layer == Layer::Application));
    }

    #[test]
    fn zero_fault_plan_and_none_policy_are_byte_identical_to_defaults() {
        let plain = run_on(&small(), 2).summary;
        let armed = run_on(
            &small()
                .faults(faults::FaultPlan::none())
                .retry(faults::RetryPolicy::none()),
            2,
        )
        .summary;
        assert_eq!(plain, armed);
    }

    #[test]
    fn retry_policy_improves_availability_under_a_fault_storm() {
        use crate::system::MiddlewareKind;
        let storm = faults::FaultPlan::storm(77, simnet::SimDuration::from_secs(60), 1.5);
        let base = small()
            .users(8)
            .sessions_per_user(8)
            .think_time(3.0)
            .faults(storm);
        let bare = run_on(&base.clone(), 2).summary;
        let hardened = run_on(
            &base
                .retry(faults::RetryPolicy::standard())
                .fallback_middleware(MiddlewareKind::WapTextual),
            2,
        )
        .summary;
        assert!(
            hardened.workload.success_rate() > bare.workload.success_rate(),
            "retry {} must beat bare {} ({:?})",
            hardened.workload.success_rate(),
            bare.workload.success_rate(),
            bare.workload.counters.failures,
        );
        assert!(hardened.workload.counters.retries > 0);
        assert_eq!(bare.workload.counters.retries, 0);
    }

    #[test]
    fn workload_retry_counters_match_the_policy_metric() {
        let storm = faults::FaultPlan::storm(77, simnet::SimDuration::from_secs(60), 1.5);
        let scenario = small()
            .users(6)
            .sessions_per_user(6)
            .think_time(3.0)
            .faults(storm)
            .retry(faults::RetryPolicy::standard())
            .fallback_middleware(MiddlewareKind::WapTextual);
        let (report, trace) = run_traced_on(&scenario, 2);
        let counters = &report.summary.workload.counters;
        assert!(counters.retries > 0);
        // Every re-drive increments `policy.retries` exactly once, and
        // the counter fold adds exactly attempts−1 per settled
        // transaction: a degraded-fallback success is one retry, never
        // a double count. The two tallies must agree.
        assert_eq!(trace.metrics.counter("policy.retries"), counters.retries);
    }

    #[test]
    fn cached_fleets_hit_every_cache_layer() {
        use crate::system::CachePolicy;
        // Standard policy: the gateway cache intercepts repeat GETs
        // before they reach the host.
        let scenario = small()
            .users(3)
            .sessions_per_user(3)
            .cache(CachePolicy::standard());
        let (report, trace) = run_traced_on(&scenario, 2);
        assert!(report.summary.workload.success_rate() > 0.99);
        assert!(trace.metrics.counter("middleware.cache.hits") > 0);
        // The gateway-cache span shows up on the sim-time timeline.
        assert!(trace.events.iter().any(|e| e.name == "gateway_cache"));

        // Gateway TTL zero: repeat GETs reach the host and the page
        // cache answers them instead.
        let host_only = CachePolicy {
            gateway_ttl: simnet::SimDuration::ZERO,
            ..CachePolicy::standard()
        };
        let (report, trace) = run_traced_on(&small().sessions_per_user(3).cache(host_only), 1);
        assert!(report.summary.workload.success_rate() > 0.99);
        assert_eq!(trace.metrics.counter("middleware.cache.hits"), 0);
        assert!(trace.metrics.counter("host.page_cache.hits") > 0);
    }

    #[test]
    fn faulted_fleets_are_thread_count_invariant() {
        let scenario = small()
            .users(6)
            .sessions_per_user(6)
            .think_time(4.0)
            .faults(faults::FaultPlan::storm(13, simnet::SimDuration::from_secs(90), 1.5))
            .retry(faults::RetryPolicy::standard())
            .fallback_middleware(crate::system::MiddlewareKind::WapTextual);
        let one = run_on(&scenario, 1).summary;
        let many = run_on(&scenario, 64).summary;
        assert_eq!(one, many);
    }

    #[test]
    fn scenario_system_is_a_usable_single_system() {
        use crate::system::CommerceSystem;
        let mut system = Scenario::new("solo").system_for_user(0);
        let report = system.execute(&middleware::MobileRequest::get("/shop"));
        assert!(report.success, "{:?}", report.failure);
        assert!(report.outcome.is_some());
    }
}
