//! The fleet engine: islands of users on shared infrastructure.
//!
//! This module runs a [`Scenario`] on a [`Topology`]: stations in one
//! cell contend for its airtime, one WAP gateway transcodes for everyone
//! behind it, and one host computer (web server + database + caches)
//! serves the whole population. It is the only fleet engine. A private
//! world per user is the degenerate case, [`Topology::isolated`]: a
//! cell, a gateway and a host per user, so every island holds one user
//! who never queues.
//!
//! # Islands
//!
//! The topology's modulo wiring partitions the world into **islands** —
//! one host, the gateways that reach it, their cells, and the users in
//! those cells. Nothing crosses an island boundary, so islands are the
//! unit of parallelism: each island is simulated sequentially and
//! deterministically on one thread, and islands `0..min(hosts, users)`
//! (every later one is empty) are distributed over threads in
//! contiguous index ranges. That is the whole cross-shard story — the
//! deterministic "event exchange" degenerates to *no* exchange, by
//! construction (DESIGN.md §2.15 and the ADR discuss the alternatives).
//!
//! # Workers
//!
//! Each worker thread owns what lives as long as it does: one
//! [`ShardScratch`] of memos, the last recycled flight-recorder ring's
//! event count (each island's first ring is sized by it), one metrics
//! scope, and running totals of counters, contention stats and
//! telemetry. It also owns the per-island buffers — membership, the
//! shared servers, gateway caches, user states, the event queue —
//! which it clears and refills for each island, so a one-user island
//! costs no more than the user's private world. Islands' traces go to
//! the coordinator in batches of at least `TRACE_BATCH_USERS` users
//! (or one island, if larger); worker totals are merged in worker-index
//! order when the workers are done.
//!
//! # Inside an island
//!
//! Each user is only the per-user half of a system, a [`UserSide`]:
//! their station, middleware, battery and RNG streams, seeded by user
//! index. The island owns the site every transaction runs against —
//! its one [`HostComputer`] and, per gateway, one shared
//! [`ContentCache`] — and lends the host and the user's gateway's cache
//! to each transaction by reference, exactly as an
//! [`McSystem`](crate::McSystem) lends its own site to its user half.
//! A deterministic event queue keyed by `(ready time, island-local
//! user index)` decides who transacts next; local indices follow global
//! index order, so ties resolve as under global keys, and an event
//! finds its user by direct indexing. A user holds no steps, only a
//! cursor — its session, that session's random draws (taken once, when
//! the user enters it), the next step and whether think time is due —
//! and the worker writes each step from the draws into one scratch
//! [`Step`] just before it runs ([`Application::write_step`]), so a
//! steady-state step allocates nothing and draws nothing.
//!
//! An island's gateways, cells and users come in closed form from the
//! topology's modulo wiring ([`Topology::island`]), so building every
//! island costs time linear in the population, not in users × islands.
//!
//! The analytic transaction then executes atomically at its start time,
//! and contention is charged *post hoc*: one walk over the
//! transaction's hops in path order — uplink, gateway CPU, wired, host
//! CPU, WAL, downlink — admits each hop's service time, priced from the
//! transaction's report, to the island's FCFS server for it: the user's
//! cell, its gateway, the host's CPU and the host's log (the wired hop
//! has no server). The waits those admissions return are folded into
//! the transaction's latency and the user's clock. A zero-service hop
//! never touches its server, so with one user — or no overlap — every
//! wait is exactly zero and an island reproduces the user's private
//! world, [`Scenario::run_user`], bit for bit (pinned by
//! `tests/fleet_props.rs` and `tests/merge_props.rs`).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::mpsc;
use std::thread;

use hostsite::db::Database;
use hostsite::HostComputer;
use middleware::ContentCache;
use obs::recorder::DEFAULT_RING_CAPACITY;
use obs::timeseries::{SeriesId, SeriesKind, Telemetry};
use obs::{Layer, Recorder, RingScratch};
use simnet::contend::{DetQueue, FcfsServer};
use simnet::rng::{rng_for_indexed, sub_seed};
use simnet::SimDuration;

use crate::apps::{for_category, Application, Draws, Step};
use crate::fleet::{
    seeded, FleetTrace, RecorderKind, RunConfig, Scenario, ShardScratch, UserTrace,
};
use crate::merge::TraceMerger;
use crate::report::{PhaseBreakdown, TransactionReport, WorkloadCounters};
use crate::system::{Site, UserSide};
use crate::topology::{Island, Topology};
use crate::workload::ExpectMemo;

/// Contention telemetry a fleet run accumulates. Every field is an
/// integer sum or maximum, so the merge across islands and workers is
/// exact in any order (deterministic at any thread count).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ContentionStats {
    /// Transactions executed across the shared world.
    pub transactions: u64,
    /// Transactions that waited on at least one shared resource.
    pub contended_transactions: u64,
    /// Total medium-access wait behind shared cells, nanoseconds.
    pub cell_wait_ns: u64,
    /// Total queueing wait behind shared gateways, nanoseconds.
    pub gateway_wait_ns: u64,
    /// Total queueing wait behind shared hosts, nanoseconds.
    pub host_wait_ns: u64,
    /// Total airtime the cells actually carried, nanoseconds.
    pub cell_busy_ns: u64,
    /// Fresh lookups answered by the shared gateway caches.
    pub gateway_cache_hits: u64,
    /// Shared gateway-cache lookups that missed.
    pub gateway_cache_misses: u64,
    /// Islands the engine ran: `0..min(hosts, users)`, empty ones
    /// included.
    pub islands: u64,
    /// The latest user sim-clock at the end of the run, nanoseconds.
    pub horizon_ns: u64,
}

impl ContentionStats {
    /// Total wait on every shared resource, nanoseconds.
    pub fn total_wait_ns(&self) -> u64 {
        self.cell_wait_ns + self.gateway_wait_ns + self.host_wait_ns
    }

    /// Hit rate of the shared gateway caches (0 when never consulted).
    pub fn gateway_hit_rate(&self) -> f64 {
        let total = self.gateway_cache_hits + self.gateway_cache_misses;
        if total == 0 {
            return 0.0;
        }
        self.gateway_cache_hits as f64 / total as f64
    }

    /// Folds another island's or worker's stats into this one.
    pub(crate) fn merge(&mut self, other: &ContentionStats) {
        self.transactions += other.transactions;
        self.contended_transactions += other.contended_transactions;
        self.cell_wait_ns += other.cell_wait_ns;
        self.gateway_wait_ns += other.gateway_wait_ns;
        self.host_wait_ns += other.host_wait_ns;
        self.cell_busy_ns += other.cell_busy_ns;
        self.gateway_cache_hits += other.gateway_cache_hits;
        self.gateway_cache_misses += other.gateway_cache_misses;
        self.islands += other.islands;
        self.horizon_ns = self.horizon_ns.max(other.horizon_ns);
    }
}

/// One of an island's shared FCFS servers — a cell's airtime, a
/// gateway's CPU, the host's CPU or the host's WAL — with, when
/// telemetry is on, the series its busy time is recorded on and, for
/// the host CPU, its queue-depth gauge. The telemetry only reads what
/// the admissions computed and never feeds anything back, so enabling
/// it cannot perturb the simulation.
#[derive(Default)]
struct Server {
    fcfs: FcfsServer,
    busy: Option<SeriesId>,
    depth: Option<QueueDepth>,
}

/// A server's queue depth (jobs in service or waiting), sampled at each
/// arrival.
struct QueueDepth {
    series: SeriesId,
    /// Completion times of the jobs still in flight.
    inflight: BinaryHeap<Reverse<u64>>,
}

impl Server {
    /// Records a job admitted at `arrival_ns` that waited `wait_ns` and
    /// then held the server for `service_ns`: its busy interval, and a
    /// depth sample counting it plus every job still ahead of or beside
    /// it. A zero-service job records nothing.
    fn observe(&mut self, t: &mut Telemetry, arrival_ns: u64, wait_ns: u64, service_ns: u64) {
        if service_ns == 0 {
            return;
        }
        let start_ns = arrival_ns + wait_ns;
        if let Some(id) = self.busy {
            t.record_busy(id, start_ns, service_ns);
        }
        if let Some(depth) = &mut self.depth {
            while let Some(&Reverse(done)) = depth.inflight.peek() {
                if done > arrival_ns {
                    break;
                }
                depth.inflight.pop();
            }
            depth.inflight.push(Reverse(start_ns + service_ns));
            t.sample(depth.series, arrival_ns, depth.inflight.len() as u64);
        }
    }
}

/// An island's telemetry: the series set, which its servers record
/// into, and the gateways' shared-cache hit rates.
struct IslandTelemetry {
    t: Telemetry,
    /// Per local gateway index: shared content-cache hit rate.
    gw_cache: Vec<SeriesId>,
}

impl IslandTelemetry {
    /// Registers the island's series and hands each server its own:
    /// every cell's airtime, every gateway's CPU and cache hit rate, the
    /// host's CPU, its WAL — only when the scenario prices durability,
    /// so default-policy artefacts carry exactly the pre-WAL track set —
    /// and the host's queue depth. `servers` is laid out as
    /// `Worker::run_island` lays it out.
    fn new(island: u64, members: &Island, priced_wal: bool, servers: &mut [Server]) -> Self {
        let mut t = Telemetry::default();
        let util = SeriesKind::Utilization;
        let (cells, rest) = servers.split_at_mut(members.cells.len());
        let (gateways, host) = rest.split_at_mut(members.gateways.len());
        for (server, &c) in cells.iter_mut().zip(&members.cells) {
            server.busy = Some(t.register(&format!("cell{c:04}.airtime_util"), util));
        }
        for (server, &g) in gateways.iter_mut().zip(&members.gateways) {
            server.busy = Some(t.register(&format!("gateway{g:04}.cpu_util"), util));
        }
        let gw_cache = members
            .gateways
            .iter()
            .map(|&g| t.register(&format!("gateway{g:04}.cache_hit_rate"), SeriesKind::Rate))
            .collect();
        let [cpu, wal] = host else {
            unreachable!("an island has one host CPU and one WAL");
        };
        cpu.busy = Some(t.register(&format!("host{island:04}.cpu_util"), util));
        wal.busy = priced_wal.then(|| t.register(&format!("host{island:04}.wal_util"), util));
        cpu.depth = Some(QueueDepth {
            series: t.register(&format!("host{island:04}.queue_depth"), SeriesKind::Gauge),
            inflight: BinaryHeap::new(),
        });
        IslandTelemetry { t, gw_cache }
    }
}

/// One user in the island event loop: the user half of its system and
/// a cursor into its workload. It holds no steps — a step is a pure
/// function of the session's draws and `next_step`, written into the
/// worker's scratch [`Step`] when it is about to run.
struct UserState {
    cell: usize,
    gateway: usize,
    side: UserSide,
    /// The seed every one of this user's sessions is generated from.
    session_seed: u64,
    /// The session the user is in.
    session: u64,
    /// The random draws of `session`, taken when the user entered it.
    draws: Draws,
    /// The step of `session` the user runs next.
    next_step: usize,
    /// Think time is due before `session`'s first step.
    think: bool,
    retry_rng: Option<rand::rngs::StdRng>,
}

/// What a fleet run merges into: counters, contention stats, and — when
/// captured — the trace and the time-series.
pub(crate) struct FleetTotals {
    pub(crate) counters: WorkloadCounters,
    pub(crate) stats: ContentionStats,
    pub(crate) trace: Option<FleetTrace>,
    pub(crate) telemetry: Option<Telemetry>,
}

/// User traces a worker collects before sending them to the merger. A
/// send can wake the coordinating thread, and an isolated fleet has one
/// user per island, so per-island sends would wake it once per user. A
/// worker holds at most one island's traces or this many users'.
const TRACE_BATCH_USERS: usize = 64;

/// Runs islands `0..islands` across `config.threads` OS threads, each
/// taking a contiguous range. Island traces stream to a [`TraceMerger`]
/// in batches as the islands finish; worker totals fold in
/// worker-index order.
pub(crate) fn run_islands(
    scenario: &Scenario,
    topology: &Topology,
    islands: u64,
    config: RunConfig,
) -> FleetTotals {
    let workers = config.threads as u64;
    let chunk = islands.div_ceil(workers).max(1);
    let mut traces = config
        .traced
        .then(|| TraceMerger::for_users(scenario.users));
    let finished: Vec<WorkerTotals> = thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<Vec<(u64, UserTrace)>>();
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                let tx = tx.clone();
                scope.spawn(move || {
                    let mut worker_state = Worker::new(scenario, topology, config);
                    let lo = worker * chunk;
                    let mut batch = Vec::new();
                    for island in lo..(lo + chunk).min(islands) {
                        if let Some(island_traces) = worker_state.run_island(island) {
                            batch.extend(island_traces);
                            // The receiver outlives the scope, so a send
                            // only fails after a coordinator panic.
                            if batch.len() >= TRACE_BATCH_USERS {
                                let _ = tx.send(std::mem::take(&mut batch));
                            }
                        }
                    }
                    if !batch.is_empty() {
                        let _ = tx.send(batch);
                    }
                    worker_state.finish()
                })
            })
            .collect();
        drop(tx);
        // Users arrive island by island; the merger's reorder buffer
        // restores global user-index order. The channel closes when the
        // last worker drops its sender.
        for island_traces in rx {
            let merger = traces.as_mut().expect("only traced runs send traces");
            for (user, trace) in island_traces {
                merger.push(user, trace);
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("island worker panicked"))
            .collect()
    });

    let mut counters = WorkloadCounters::default();
    let mut stats = ContentionStats::default();
    let mut metrics = obs::Metrics::default();
    let mut telemetry = config.telemetry.then(Telemetry::default);
    for totals in finished {
        counters.merge(&totals.counters);
        stats.merge(&totals.stats);
        if let Some(m) = &totals.metrics {
            metrics.merge(m);
        }
        // Island series are disjoint (names embed global resource
        // indices) and bins merge commutatively, so fold order is
        // irrelevant — the export walks names canonically anyway.
        if let (Some(merged), Some(t)) = (telemetry.as_mut(), totals.telemetry) {
            merged.merge(t);
        }
    }
    FleetTotals {
        counters,
        stats,
        trace: traces.map(|merger| {
            let mut trace = merger.finish();
            trace.metrics.merge(&metrics);
            trace
        }),
        telemetry,
    }
}

/// A worker's running totals, handed back when its islands are done.
struct WorkerTotals {
    counters: WorkloadCounters,
    stats: ContentionStats,
    /// The worker's metrics scope, drained once (iff traced).
    metrics: Option<obs::Metrics>,
    telemetry: Option<Telemetry>,
}

/// One worker thread's state across its range of islands: what lives
/// as long as the worker, plus per-island buffers cleared and refilled
/// for each island so that an island allocates only what is its own —
/// its host and its users.
struct Worker<'a> {
    scenario: &'a Scenario,
    topology: &'a Topology,
    config: RunConfig,
    app: Box<dyn Application>,
    /// The application's seeded database. Every island host starts from
    /// a clone of it, which shares the template's row images, indexes
    /// and postings until a write copies them. Each worker seeds its
    /// own, so no clone or drop touches a refcount another thread uses.
    template: Database,
    scratch: ShardScratch,
    /// Expectation verdicts for the pages `scratch`'s render memo hands
    /// out.
    expect: ExpectMemo,
    /// The last recycled ring's event count, which sizes each island's
    /// first recorder — every user's, on the isolated topology. Users of
    /// a shared island record side by side, so the others get rings of
    /// their own.
    ring: RingScratch,
    /// Held for the worker's lifetime when traced: one metrics scope.
    metrics_guard: Option<obs::metrics::MetricsGuard>,
    totals: WorkerTotals,
    // Per-island buffers.
    members: Island,
    /// The island's shared servers: its cells, then its gateways, then
    /// the host's CPU and its WAL.
    servers: Vec<Server>,
    gateway_caches: Vec<Option<ContentCache>>,
    states: Vec<UserState>,
    queue: DetQueue,
    /// The step about to run, rewritten in place for every transaction.
    step: Step,
}

impl<'a> Worker<'a> {
    fn new(scenario: &'a Scenario, topology: &'a Topology, config: RunConfig) -> Self {
        let app = for_category(scenario.app);
        Worker {
            scenario,
            topology,
            config,
            template: seeded(app.as_ref()),
            app,
            scratch: ShardScratch::new(),
            expect: ExpectMemo::default(),
            ring: RingScratch::default(),
            metrics_guard: config.traced.then(obs::metrics::enable),
            totals: WorkerTotals {
                counters: WorkloadCounters::default(),
                stats: ContentionStats::default(),
                metrics: None,
                telemetry: config.telemetry.then(Telemetry::default),
            },
            members: Island::default(),
            servers: Vec::new(),
            gateway_caches: Vec::new(),
            states: Vec::new(),
            queue: DetQueue::new(),
            step: Step::default(),
        }
    }

    /// Closes the metrics scope and hands back the running totals.
    fn finish(mut self) -> WorkerTotals {
        if let Some(guard) = self.metrics_guard.take() {
            drop(guard);
            self.totals.metrics = Some(obs::metrics::take());
        }
        self.totals
    }

    /// Simulates one island sequentially and deterministically, folding
    /// it into the worker's totals. Returns the island's
    /// `(global user index, trace)` pairs in ascending user order when
    /// tracing a non-empty island.
    fn run_island(&mut self, island: u64) -> Option<Vec<(u64, UserTrace)>> {
        let scenario = self.scenario;
        let app = self.app.as_ref();
        self.totals.stats.islands += 1;
        self.topology
            .fill_island(island, scenario.users, &mut self.members);
        let members = &self.members;
        if members.users.is_empty() {
            return None;
        }

        // The island's shared host: exactly user `island`'s private host
        // (same seed, application, cache and durability policy), so a
        // one-user island is bit-identical to that user's private world.
        // Its database is a clone of the worker's seeded template, a
        // value equal to a freshly seeded one.
        let mut shared_host = scenario.host_for(app, island, self.template.clone());

        // The island's shared infrastructure, indexed locally. Local
        // order follows global index order, so resource identity is
        // canonical.
        let server_count = members.cells.len() + members.gateways.len() + 2;
        self.servers.clear();
        self.servers.resize_with(server_count, Server::default);
        self.gateway_caches.clear();
        self.gateway_caches
            .resize_with(members.gateways.len(), || scenario.cache.gateway_cache());
        let mut telemetry = self.config.telemetry.then(|| {
            IslandTelemetry::new(
                island,
                members,
                !scenario.durability.is_zero_cost(),
                &mut self.servers,
            )
        });

        // Per-user state: the user half of the user's system (station,
        // battery, RNG streams) plus the session cursor. Memo hits replay
        // byte-identically, so the worker's scratch serves every island.
        // Every cursor starts on session 0, which the scenario runs only
        // when it runs sessions at all.
        let runs_sessions = scenario.sessions_per_user > 0;
        for (local, &(user, cell)) in members.users.iter().enumerate() {
            let mut side = scenario.user_side(user);
            self.scratch.attach(&mut side);
            if self.config.traced {
                side.set_recorder(match self.config.recorder {
                    RecorderKind::Ring if local == 0 => {
                        Recorder::ring_recycled(DEFAULT_RING_CAPACITY, user, &mut self.ring)
                    }
                    RecorderKind::Ring => Recorder::ring_for_user(user),
                    RecorderKind::Disabled => Recorder::Disabled,
                });
            }
            let session_seed = sub_seed(scenario.seed, "fleet.session", user);
            self.states.push(UserState {
                cell,
                gateway: members.cell_gateway[cell],
                side,
                session_seed,
                session: 0,
                draws: if runs_sessions {
                    scenario.draws(app, session_seed, 0)
                } else {
                    Draws::default()
                },
                next_step: 0,
                think: false,
                retry_rng: (!scenario.retry.is_none())
                    .then(|| rng_for_indexed(scenario.seed, "fleet.retry", user)),
            });
        }

        // The deterministic event loop: earliest ready time first, user
        // index breaking ties. Events are keyed by the island-local
        // index, which indexes `states` directly. `Island::users`
        // ascends in global index (pinned against an ascending scan by
        // the topology test `closed_form_membership_equals_the_filter_scan`),
        // so local order is global order and ties pop exactly as under
        // global keys. Each user has at most one outstanding event, so
        // keys are unique, and a user's clock only moves forward: the
        // earliest event is re-keyed in place after each action, which
        // leaves the queue as a pop and a push would.
        //
        // A spent session is found lazily: an event whose step does not
        // exist moves its user to the next session (owing think time
        // first) or, with none left, pops it. It executes nothing and
        // leaves the clock, so the event keeps its key and stays the
        // earliest: every think and step runs at the same sim time and
        // in the same queue order as with an eager end-of-session check.
        // The loop drains the queue, which is then ready for the next
        // island.
        let queue = &mut self.queue;
        if runs_sessions {
            for (local, state) in self.states.iter().enumerate() {
                queue.push(state.side.sim_clock_ns(), local as u64);
            }
        }
        let stats = &mut self.totals.stats;
        let step = &mut self.step;
        while let Some((_, local)) = queue.peek() {
            let state = &mut self.states[local as usize];
            if state.think {
                state.think = false;
                state.side.idle(scenario.think_secs);
            } else if scenario.write_step(app, &state.draws, state.next_step, step) {
                state.next_step += 1;
                let t0_ns = state.side.sim_clock_ns();
                let cache_before = telemetry
                    .as_ref()
                    .map(|_| cache_counters(&self.gateway_caches[state.gateway]));
                let mut report = execute_shared(
                    state,
                    step,
                    scenario,
                    &mut shared_host,
                    &mut self.gateway_caches,
                );
                if let (Some(tele), Some((hits0, lookups0))) = (&mut telemetry, cache_before) {
                    let (hits, lookups) = cache_counters(&self.gateway_caches[state.gateway]);
                    let id = tele.gw_cache[state.gateway];
                    tele.t
                        .record_rate(id, t0_ns, hits - hits0, lookups - lookups0);
                }
                self.expect.check(&mut report, step);
                charge_contention(
                    state,
                    &mut report,
                    &mut self.servers,
                    members.cells.len(),
                    stats,
                    telemetry.as_mut().map(|tele| &mut tele.t),
                );
                self.totals.counters.record(&report);
            } else {
                state.session += 1;
                state.next_step = 0;
                if state.session == scenario.sessions_per_user {
                    queue.pop();
                } else {
                    state.draws = scenario.draws(app, state.session_seed, state.session);
                    state.think = scenario.think_secs > 0.0;
                }
                continue;
            }
            queue.rekey_earliest(state.side.sim_clock_ns());
        }

        for cache in self.gateway_caches.iter().flatten() {
            stats.gateway_cache_hits += cache.hits();
            stats.gateway_cache_misses += cache.misses();
        }
        for cell in &self.servers[..members.cells.len()] {
            stats.cell_busy_ns += cell.fcfs.busy_ns();
        }
        for state in &self.states {
            stats.horizon_ns = stats.horizon_ns.max(state.side.sim_clock_ns());
        }
        if let (Some(merged), Some(tele)) = (self.totals.telemetry.as_mut(), telemetry) {
            merged.merge(tele.t);
        }

        let traces = self.config.traced.then(|| {
            let ring = &mut self.ring;
            self.states
                .iter_mut()
                .zip(&members.users)
                .enumerate()
                .map(|(local, (state, &(user, _)))| {
                    let recorder = state.side.take_recorder();
                    let dropped = recorder.dropped();
                    let (events, dumps) = if local == 0 {
                        recorder.into_parts_recycling(ring)
                    } else {
                        recorder.into_parts()
                    };
                    (
                        user,
                        UserTrace {
                            events,
                            dumps,
                            metrics: obs::Metrics::default(),
                            dropped,
                        },
                    )
                })
                .collect()
        });
        // Between islands the buffer is empty but keeps its capacity.
        self.states.clear();
        traces
    }
}

/// `(hits, lookups)` of a shared gateway cache slot (zeros when the
/// gateway runs uncached).
fn cache_counters(cache: &Option<ContentCache>) -> (u64, u64) {
    cache
        .as_ref()
        .map_or((0, 0), |c| (c.hits(), c.hits() + c.misses()))
}

/// Executes one step against the island's site: its shared host and
/// the shared cache of the user's gateway, lent to the transaction.
fn execute_shared(
    state: &mut UserState,
    step: &Step,
    scenario: &Scenario,
    shared_host: &mut HostComputer,
    gateway_caches: &mut [Option<ContentCache>],
) -> TransactionReport {
    let mut site = Site {
        host: shared_host,
        gateway_cache: gateway_caches[state.gateway].as_mut(),
    };
    match &mut state.retry_rng {
        None => state.side.execute(&mut site, &step.req),
        Some(rng) => state
            .side
            .execute_with_retry(&mut site, &step.req, &scenario.retry, rng),
    }
}

/// Admits the transaction's hops, in path order, to the island's FCFS
/// servers and adds the resulting waits to the report's per-phase
/// breakdown and the user's clock. `servers` is laid out as
/// `Worker::run_island` lays it out, its first `cells` the cells'.
/// Zero-service hops are skipped, so an uncontended transaction is
/// untouched.
#[deny(clippy::float_arithmetic)]
fn charge_contention(
    state: &mut UserState,
    report: &mut TransactionReport,
    servers: &mut [Server],
    cells: usize,
    stats: &mut ContentionStats,
    mut telemetry: Option<&mut Telemetry>,
) {
    stats.transactions += 1;
    let b = &report.breakdown;
    let (air_ns, host_ns) = (b.wireless.as_nanos(), b.host.as_nanos());
    let up_ns = air_ns / 2;
    // The WAL share of the host phase serializes on the group-commit
    // log, not the CPU — a transaction that paid for an fsync holds the
    // log while others queue behind it. Zero under the default policy.
    let wal_ns = report.wal.min(b.host).as_nanos();
    let (cell, gateway) = (state.cell, cells + state.gateway);
    let (host, wal) = (servers.len() - 2, servers.len() - 1);
    // Each hop: the layer its wait is charged to, its server (the wired
    // network has none) and its service time.
    let hops = [
        (Layer::Wireless, Some(cell), up_ns),
        (Layer::Middleware, Some(gateway), b.middleware.as_nanos()),
        (Layer::Wired, None, b.wired.as_nanos()),
        (Layer::Host, Some(host), host_ns - wal_ns),
        (Layer::Host, Some(wal), wal_ns),
        (Layer::Wireless, Some(cell), air_ns - up_ns),
    ];

    // Walk the path from the transaction's start, carrying waits
    // forward so a delayed uplink delays the gateway arrival, and so on.
    // Telemetry records each granted busy interval as it is computed —
    // reads only, in the same deterministic event order as the charges.
    let mut cursor = state
        .side
        .sim_clock_ns()
        .saturating_sub(report.total().as_nanos());
    let mut waits = PhaseBreakdown::default();
    for (layer, server, service_ns) in hops {
        if let Some(server) = server {
            let server = &mut servers[server];
            let wait_ns = server.fcfs.admit(cursor, service_ns);
            if let Some(t) = telemetry.as_deref_mut() {
                server.observe(t, cursor, wait_ns, service_ns);
            }
            *waits.share_mut(layer) += SimDuration::from_nanos(wait_ns);
            cursor += wait_ns;
        }
        cursor += service_ns;
    }

    stats.cell_wait_ns += waits.wireless.as_nanos();
    stats.gateway_wait_ns += waits.middleware.as_nanos();
    stats.host_wait_ns += waits.host.as_nanos();
    let total_wait = waits.total();
    if total_wait > SimDuration::ZERO {
        stats.contended_transactions += 1;
        report.breakdown += waits;
        // The user's clock moves past the waits (idle battery draw,
        // like any other waiting) — an uncontended transaction skips
        // this entirely, preserving bit-identity with a private world.
        state.side.idle_for(total_wait);
    }
}
