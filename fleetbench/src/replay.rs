//! The public-call replay: every layer boundary the fleet crosses,
//! timed from outside the library.
//!
//! Each user's world is built with [`Scenario::system_for_user`] plus
//! [`McSystem::attach_shard_memos`] (what `Scenario::system_for_user_in`
//! does, but with memos whose misses the replay can read), its
//! middleware is wrapped in [`TimedMiddleware`] through
//! [`McSystem::set_middleware`], and its sessions run through
//! [`workload::run_session`] with a [`TimedSystem`] in front of the
//! system. So one pass splits host time and allocations into world
//! build, `McSystem::execute`, `Middleware::exchange` (middleware,
//! markup and the hostsite behind it) and the rest of `execute`
//! (station and netpath), and teardown.
//!
//! On `storefront_isolated` the replay covers every user and must
//! reproduce the fleet's counters digest exactly. The shared engine
//! swaps island-shared hosts and gateway caches into each world, which
//! no public call can do, so on the shared workloads the replay runs a
//! sample of the same users in private worlds: its host-time split is
//! that of the same requests, but its counters are its own.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use hostsite::HostComputer;
use mcommerce_core::apps::for_category;
use mcommerce_core::workload::run_session;
use mcommerce_core::{CommerceSystem, McSystem, Scenario, TransactionReport, WorkloadCounters};
use middleware::memo::SharedTranscodeMemo;
use middleware::{Exchange, Middleware, MobileRequest};
use station::RenderMemo;

use crate::alloc;

/// Host nanoseconds and allocations spent inside one kind of call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cost {
    pub calls: u64,
    pub ns: u64,
    pub allocs: u64,
}

impl Cost {
    fn add(&mut self, started: Instant, before: alloc::Snapshot) {
        self.calls += 1;
        self.ns += started.elapsed().as_nanos() as u64;
        self.allocs += (alloc::snapshot() - before).allocs;
    }
}

/// Everything one replay measured.
#[derive(Debug, Default)]
pub struct Replay {
    pub users: u64,
    pub counters: WorkloadCounters,
    pub build: Cost,
    pub teardown: Cost,
    pub execute: Cost,
    pub exchange: Cost,
    pub transcode_hits: u64,
    pub transcode_lookups: u64,
    pub render_hits: u64,
    pub render_lookups: u64,
}

/// Times every `exchange` of the middleware it wraps.
struct TimedMiddleware {
    inner: Box<dyn Middleware>,
    cost: Rc<RefCell<Cost>>,
}

impl Middleware for TimedMiddleware {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn exchange(&mut self, host: &mut HostComputer, req: &MobileRequest) -> Exchange {
        let before = alloc::snapshot();
        let started = Instant::now();
        let ex = self.inner.exchange(host, req);
        self.cost.borrow_mut().add(started, before);
        ex
    }

    fn attach_transcode_memo(&mut self, memo: SharedTranscodeMemo) {
        self.inner.attach_transcode_memo(memo);
    }
}

/// Stands in for the middleware while it is moved into its wrapper.
struct Detached;

impl Middleware for Detached {
    fn name(&self) -> &str {
        "detached"
    }

    fn exchange(&mut self, _: &mut HostComputer, _: &MobileRequest) -> Exchange {
        unreachable!("the detached placeholder is replaced before any exchange")
    }
}

/// Times every `execute` of the system it fronts.
struct TimedSystem<'a> {
    inner: &'a mut McSystem,
    cost: Cost,
}

impl CommerceSystem for TimedSystem<'_> {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn execute(&mut self, req: &MobileRequest) -> TransactionReport {
        let before = alloc::snapshot();
        let started = Instant::now();
        let report = self.inner.execute(req);
        self.cost.add(started, before);
        report
    }

    fn host_mut(&mut self) -> &mut HostComputer {
        self.inner.host_mut()
    }
}

/// Replays `users` of `scenario` (users `0..users`) one private world
/// at a time on this thread, the way the isolated fleet engine runs a
/// shard. Allocation counts are on for the whole replay.
pub fn run(scenario: &Scenario, users: u64) -> Replay {
    assert!(
        scenario.retry.is_none() && scenario.faults.is_empty() && scenario.fallback.is_none(),
        "the replay drives plain sessions only"
    );
    let app = for_category(scenario.app);
    let transcode = SharedTranscodeMemo::default();
    let render = Rc::new(RefCell::new(RenderMemo::default()));
    let exchange = Rc::new(RefCell::new(Cost::default()));
    let mut out = Replay {
        users,
        ..Replay::default()
    };
    let _counting = alloc::enable();
    for user in 0..users {
        let before = alloc::snapshot();
        let started = Instant::now();
        let mut system = scenario.system_for_user(user);
        system.attach_shard_memos(transcode.clone(), render.clone());
        out.build.add(started, before);

        let inner = std::mem::replace(&mut system.middleware, Box::new(Detached));
        system.set_middleware(Box::new(TimedMiddleware {
            inner,
            cost: exchange.clone(),
        }));
        let session_seed = simnet::rng::sub_seed(scenario.seed, "fleet.session", user);
        let mut timed = TimedSystem {
            inner: &mut system,
            cost: out.execute,
        };
        for session in 0..scenario.sessions_per_user {
            if session > 0 && scenario.think_secs > 0.0 {
                timed.inner.idle(scenario.think_secs);
            }
            let steps = if scenario.search_heavy {
                app.search_session(session_seed, session)
            } else {
                app.session(session_seed, session)
            };
            for report in run_session(&mut timed, &steps) {
                out.counters.record(&report);
            }
        }
        out.execute = timed.cost;

        let before = alloc::snapshot();
        let started = Instant::now();
        drop(system);
        out.teardown.add(started, before);
    }
    out.exchange = *exchange.borrow();
    let transcode = transcode.borrow();
    out.transcode_hits = transcode.hits();
    out.transcode_lookups = transcode.hits() + transcode.misses();
    let render = render.borrow();
    out.render_hits = render.hits();
    out.render_lookups = render.hits() + render.misses();
    out
}
