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
//! telemetry. It also owns the per-island buffers — membership, cell
//! and gateway servers, gateway caches, user states, the event queue —
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
//! and contention is charged *post hoc*: the transaction's per-phase
//! service times are admitted, in path order (uplink → gateway → wired →
//! host → downlink), to FCFS single-server models of the cell, the
//! gateway and the host. The waits those admissions return are folded
//! into the transaction's latency and the user's clock. A zero-service
//! stage never touches its server, so with one user — or no overlap —
//! every wait is exactly zero and an island reproduces the user's
//! private world, [`Scenario::run_user`], bit for bit (pinned by
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
use obs::{Recorder, RingScratch};
use simnet::contend::{DetQueue, FcfsServer};
use simnet::rng::{rng_for_indexed, sub_seed};
use simnet::SimDuration;
use wireless::CellAirtime;

use crate::apps::{for_category, Application, Draws, Step};
use crate::fleet::{
    seeded, FleetTrace, RecorderKind, RunConfig, Scenario, ShardScratch, UserTrace,
};
use crate::merge::TraceMerger;
use crate::report::{TransactionReport, WorkloadCounters};
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
    pub fn merge(&mut self, other: &ContentionStats) {
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

/// The island's registered series handles plus the host queue-depth
/// tracker. Purely observational: it reads grant/wait results the
/// contention engine already computed and never feeds anything back,
/// so enabling telemetry cannot perturb the simulation.
struct IslandTelemetry {
    t: Telemetry,
    /// Per local cell index: airtime busy fraction.
    cell_util: Vec<SeriesId>,
    /// Per local gateway index: transcode CPU busy fraction.
    gw_util: Vec<SeriesId>,
    /// Per local gateway index: shared content-cache hit rate.
    gw_cache: Vec<SeriesId>,
    /// Host CPU busy fraction.
    host_util: SeriesId,
    /// WAL (group-commit log) busy fraction; registered only when the
    /// scenario prices durability, so default-policy artefacts carry
    /// exactly the pre-WAL track set.
    host_wal_util: Option<SeriesId>,
    /// Host queue depth (jobs in service or waiting), sampled at each
    /// arrival.
    host_queue: SeriesId,
    /// Completion times of host jobs still in flight, for the
    /// queue-depth gauge.
    host_inflight: BinaryHeap<Reverse<u64>>,
}

impl IslandTelemetry {
    fn new(island: u64, cells: &[u64], gateways: &[u64], priced_wal: bool) -> Self {
        let mut t = Telemetry::default();
        let cell_util = cells
            .iter()
            .map(|&c| t.register(&format!("cell{c:04}.airtime_util"), SeriesKind::Utilization))
            .collect();
        let gw_util = gateways
            .iter()
            .map(|&g| t.register(&format!("gateway{g:04}.cpu_util"), SeriesKind::Utilization))
            .collect();
        let gw_cache = gateways
            .iter()
            .map(|&g| t.register(&format!("gateway{g:04}.cache_hit_rate"), SeriesKind::Rate))
            .collect();
        let host_util = t.register(&format!("host{island:04}.cpu_util"), SeriesKind::Utilization);
        let host_wal_util = priced_wal
            .then(|| t.register(&format!("host{island:04}.wal_util"), SeriesKind::Utilization));
        let host_queue = t.register(&format!("host{island:04}.queue_depth"), SeriesKind::Gauge);
        IslandTelemetry {
            t,
            cell_util,
            gw_util,
            gw_cache,
            host_util,
            host_wal_util,
            host_queue,
            host_inflight: BinaryHeap::new(),
        }
    }

    /// Samples the host queue depth at `arrival_ns` given the job just
    /// admitted completes at `completion_ns`. Jobs whose completion
    /// time has passed leave the queue first, so the sample counts the
    /// admitted job plus everything still ahead of or beside it.
    fn sample_host_queue(&mut self, arrival_ns: u64, completion_ns: u64) {
        while let Some(&Reverse(done)) = self.host_inflight.peek() {
            if done > arrival_ns {
                break;
            }
            self.host_inflight.pop();
        }
        self.host_inflight.push(Reverse(completion_ns));
        let depth = self.host_inflight.len() as u64;
        self.t.sample(self.host_queue, arrival_ns, depth);
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
    pub counters: WorkloadCounters,
    pub stats: ContentionStats,
    pub trace: Option<FleetTrace>,
    pub telemetry: Option<Telemetry>,
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
    cell_air: Vec<CellAirtime>,
    gateway_cpu: Vec<FcfsServer>,
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
            cell_air: Vec::new(),
            gateway_cpu: Vec::new(),
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
        self.cell_air.clear();
        self.cell_air
            .resize_with(members.cells.len(), CellAirtime::new);
        self.gateway_cpu.clear();
        self.gateway_cpu
            .resize_with(members.gateways.len(), FcfsServer::new);
        self.gateway_caches.clear();
        self.gateway_caches
            .resize_with(members.gateways.len(), || scenario.cache.gateway_cache());
        let mut host = HostLanes {
            cpu: FcfsServer::new(),
            wal: FcfsServer::new(),
        };
        let mut telemetry = self.config.telemetry.then(|| {
            IslandTelemetry::new(
                island,
                &members.cells,
                &members.gateways,
                !scenario.durability.is_zero_cost(),
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
                    &mut self.cell_air,
                    &mut self.gateway_cpu,
                    &mut host,
                    stats,
                    telemetry.as_mut(),
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
        for cell in &self.cell_air {
            stats.cell_busy_ns += cell.busy_ns();
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

/// The shared host's two serial lanes. The WAL is its own resource:
/// concurrent writers contend on the log tail, not on the host CPU —
/// and zero-service admissions are free, so the default durability
/// policy never touches the WAL lane.
struct HostLanes {
    cpu: FcfsServer,
    wal: FcfsServer,
}

/// Admits the transaction's per-phase service times to the shared FCFS
/// resources in path order and adds the resulting waits to the report's
/// per-phase breakdown and the user's clock. Zero-service stages are
/// skipped, so an uncontended transaction is untouched.
#[deny(clippy::float_arithmetic)]
fn charge_contention(
    state: &mut UserState,
    report: &mut TransactionReport,
    cell_air: &mut [CellAirtime],
    gateway_cpu: &mut [FcfsServer],
    host: &mut HostLanes,
    stats: &mut ContentionStats,
    mut telemetry: Option<&mut IslandTelemetry>,
) {
    stats.transactions += 1;
    let end_ns = state.side.sim_clock_ns();
    let b = &report.breakdown;
    let air_ns = b.wireless.as_nanos();
    let up_ns = air_ns / 2;
    let down_ns = air_ns - up_ns;
    let gw_ns = b.middleware.as_nanos();
    let wired_ns = b.wired.as_nanos();
    let host_ns = b.host.as_nanos();
    // The WAL share of the host phase serializes on the group-commit
    // log, not the CPU — a transaction that paid for an fsync holds the
    // log while others queue behind it. Zero under the default policy.
    let wal_ns = state.side.last_commit_ns().min(host_ns);
    let cpu_ns = host_ns - wal_ns;

    // Walk the path from the transaction's start, carrying waits
    // forward so a delayed uplink delays the gateway arrival, and so on.
    // Telemetry records each granted busy interval as it is computed —
    // reads only, in the same deterministic event order as the charges.
    let start_ns = end_ns.saturating_sub(report.total().as_nanos());
    let mut cursor = start_ns;
    let up = cell_air[state.cell].request(cursor, up_ns);
    if let Some(tele) = telemetry.as_deref_mut() {
        tele.t.record_busy(tele.cell_util[state.cell], up.start_ns, up_ns);
    }
    cursor = up.start_ns + up_ns;
    let gw_wait = gateway_cpu[state.gateway].admit(cursor, gw_ns);
    if let Some(tele) = telemetry.as_deref_mut() {
        tele.t
            .record_busy(tele.gw_util[state.gateway], cursor + gw_wait, gw_ns);
    }
    cursor += gw_wait + gw_ns + wired_ns;
    let cpu_wait = host.cpu.admit(cursor, cpu_ns);
    if let Some(tele) = telemetry.as_deref_mut() {
        tele.t.record_busy(tele.host_util, cursor + cpu_wait, cpu_ns);
        if cpu_ns > 0 {
            tele.sample_host_queue(cursor, cursor + cpu_wait + cpu_ns);
        }
    }
    cursor += cpu_wait + cpu_ns;
    let wal_wait = host.wal.admit(cursor, wal_ns);
    if let Some(tele) = telemetry.as_deref_mut() {
        if let (Some(id), true) = (tele.host_wal_util, wal_ns > 0) {
            tele.t.record_busy(id, cursor + wal_wait, wal_ns);
        }
    }
    cursor += wal_wait + wal_ns;
    // Both host lanes fold into the report's host share.
    let host_wait = cpu_wait + wal_wait;
    let down = cell_air[state.cell].request(cursor, down_ns);
    if let Some(tele) = telemetry {
        tele.t
            .record_busy(tele.cell_util[state.cell], down.start_ns, down_ns);
    }

    let cell_wait = up.wait_ns + down.wait_ns;
    let total_wait = cell_wait + gw_wait + host_wait;
    stats.cell_wait_ns += cell_wait;
    stats.gateway_wait_ns += gw_wait;
    stats.host_wait_ns += host_wait;
    if total_wait > 0 {
        stats.contended_transactions += 1;
        let b = &mut report.breakdown;
        b.wireless += SimDuration::from_nanos(cell_wait);
        b.middleware += SimDuration::from_nanos(gw_wait);
        b.host += SimDuration::from_nanos(host_wait);
        // The user's clock moves past the waits (idle battery draw,
        // like any other waiting) — an uncontended transaction skips
        // this entirely, preserving bit-identity with a private world.
        state.side.idle_for(SimDuration::from_nanos(total_wait));
    }
}
