#![warn(clippy::too_many_lines)]
//! The assembled systems: Figure 2's six-component MC system and
//! Figure 1's four-component EC baseline.
//!
//! A transaction flows exactly along the figures' arrows: user →
//! station/client → (middleware → wireless, MC only) → wired network →
//! host computer and back, with every hop charging latency, bytes and —
//! on the mobile side — battery energy. The per-component breakdown in
//! each [`TransactionReport`] is the executable counterpart of the
//! figures' block diagrams.

use middleware::{AirFormat, ContentCache, Exchange, Middleware, MobileRequest};

use faults::{classify, FailureClass, FaultKind, FaultPlan, FaultState, RetryPolicy};
use hostsite::db::DurabilityPolicy;
use hostsite::http::Status;
use hostsite::HostComputer;
use obs::{Layer, Recorder};
use rand::rngs::StdRng;
use simnet::rng::rng_for;
use simnet::time::secs_to_ns;
use simnet::SimDuration;
use station::browser::ContentKind;
use station::{Battery, DeviceProfile, Microbrowser, RenderMemo, RenderedView};
use std::borrow::Cow;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use crate::netpath::{AirLink, WiredPath, WirelessConfig};
use crate::report::{PhaseBreakdown, TransactionOutcome, TransactionReport};

/// Active CPU power draw of a handheld, watts (scaled by OS factor).
const STATION_ACTIVE_W: f64 = 0.35;

/// CPU time a handheld spends sealing/opening one WTLS record per
/// kilobyte of payload, on a 100 MHz reference clock.
const WTLS_CPU_PER_KB: SimDuration = SimDuration::from_micros(400);

/// Sim time a station burns probing a dark access point before giving
/// up on the transaction (the failed-attempt cost of a wireless outage).
const OUTAGE_PROBE: SimDuration = SimDuration::from_millis(500);

/// Sim time a request burns discovering the host is still replaying its
/// journal (connection accepted, service refused).
const HOST_PROBE: SimDuration = SimDuration::from_millis(200);

/// Fixed cost of a host database crash: process restart before journal
/// replay begins.
const DB_RECOVERY_BASE: SimDuration = SimDuration::from_secs(2);

/// Journal replay cost per committed entry during crash recovery.
const DB_RECOVERY_PER_ENTRY: SimDuration = SimDuration::from_millis(5);

/// Host outage after a database crash: restart, replay of the durable
/// journal, and — under a priced [`DurabilityPolicy`] — the
/// fsync-equivalents of re-grouping `replayed` entries into commit
/// batches. The zero-cost default adds nothing over base + per-entry.
pub fn db_recovery_outage_ns(replayed: u64, policy: DurabilityPolicy) -> u64 {
    DB_RECOVERY_BASE
        .as_nanos()
        .saturating_add(DB_RECOVERY_PER_ENTRY.as_nanos().saturating_mul(replayed))
        .saturating_add(
            policy
                .fsync_ns
                .saturating_mul(policy.fsync_equivalents(replayed)),
        )
}

/// Anything that can execute a commerce transaction end to end.
pub trait CommerceSystem {
    /// A label describing the configuration, for reports.
    fn label(&self) -> String;

    /// Executes one request/response transaction.
    fn execute(&mut self, req: &MobileRequest) -> TransactionReport;

    /// The host computer, for application installation.
    fn host_mut(&mut self) -> &mut HostComputer;

}

/// Declarative selection of the middleware component — the WAP gateway
/// or the i-mode service — so a configuration can be described as plain
/// data (and sent across threads) instead of a `Box<dyn Middleware>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MiddlewareKind {
    /// WAP gateway with binary WML encoding (the standard deployment).
    #[default]
    Wap,
    /// WAP gateway shipping textual WML (binary encoder disabled).
    WapTextual,
    /// NTT DoCoMo i-mode service (cHTML pass-through).
    IMode,
}

impl MiddlewareKind {
    /// Every middleware kind, for exhaustive sweeps.
    pub const ALL: [MiddlewareKind; 3] =
        [MiddlewareKind::Wap, MiddlewareKind::WapTextual, MiddlewareKind::IMode];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            MiddlewareKind::Wap => "WAP",
            MiddlewareKind::WapTextual => "WAP (textual WML)",
            MiddlewareKind::IMode => "i-mode",
        }
    }

    /// Instantiates the middleware component this kind describes.
    pub(crate) fn build(self) -> Box<dyn Middleware> {
        match self {
            MiddlewareKind::Wap => Box::new(middleware::WapGateway::default()),
            MiddlewareKind::WapTextual => {
                Box::new(middleware::WapGateway::without_binary_encoding())
            }
            MiddlewareKind::IMode => Box::new(middleware::IModeService::new()),
        }
    }
}

impl std::fmt::Display for MiddlewareKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Declarative configuration of the deterministic caching hierarchy
/// (DESIGN.md §2.14): the middleware gateway's content cache, the host
/// web server's page cache, and the host database's query cache.
///
/// The default policy is fully disabled, and a system carrying it
/// executes the exact pre-cache path bit for bit. Every knob is in
/// simulated time or plain bytes — never wall clock — so cached fleets
/// stay bit-identical at any thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CachePolicy {
    /// Master switch. Off ⇒ no cache exists at any layer and no cache
    /// metrics are emitted.
    pub enabled: bool,
    /// TTL of the host web server's page cache, sim time. Zero keeps
    /// the page cache off even when `enabled` is set.
    pub host_ttl: SimDuration,
    /// TTL of the middleware gateway's content cache, sim time. Zero
    /// keeps the gateway cache off even when `enabled` is set.
    pub gateway_ttl: SimDuration,
    /// Byte budget each cache layer may hold before LRU eviction.
    pub byte_budget: usize,
}

impl Default for CachePolicy {
    fn default() -> Self {
        CachePolicy::disabled()
    }
}

impl CachePolicy {
    /// No caching anywhere — the exact pre-cache execution path.
    #[must_use]
    pub fn disabled() -> Self {
        CachePolicy {
            enabled: false,
            host_ttl: SimDuration::ZERO,
            gateway_ttl: SimDuration::ZERO,
            byte_budget: 0,
        }
    }

    /// Workshop defaults: 30 s sim-time TTL at both layers, 256 KiB
    /// per layer, everything on.
    #[must_use]
    pub fn standard() -> Self {
        CachePolicy {
            enabled: true,
            host_ttl: SimDuration::from_secs(30),
            gateway_ttl: SimDuration::from_secs(30),
            byte_budget: 256 * 1024,
        }
    }

    /// Sets both TTLs at once (builder style).
    #[must_use]
    pub fn ttl(mut self, ttl: SimDuration) -> Self {
        self.host_ttl = ttl;
        self.gateway_ttl = ttl;
        self
    }

    /// The host half of the policy: configures `host`'s page cache and
    /// switches its database's query cache.
    fn configure_host(&self, host: &mut HostComputer) {
        if self.enabled && self.host_ttl > SimDuration::ZERO {
            host.web
                .configure_page_cache(self.host_ttl.as_nanos(), self.byte_budget);
        } else {
            host.web.disable_page_cache();
        }
        host.web.db_mut().set_query_cache(self.enabled);
    }

    /// The gateway half of the policy: a fresh, empty content cache, or
    /// `None` when the policy keeps the gateway cache off.
    pub(crate) fn gateway_cache(&self) -> Option<ContentCache> {
        (self.enabled && self.gateway_ttl > SimDuration::ZERO)
            .then(|| ContentCache::new(self.gateway_ttl.as_nanos(), self.byte_budget))
    }
}

/// A typed, declarative description of every knob an [`McSystem`] is
/// assembled from.
///
/// A `SystemSpec` is plain data (`Clone + Send + Sync`); calling
/// [`SystemSpec::build`] with a provisioned [`HostComputer`] produces
/// the live system with security and caching already applied. The fleet
/// engine builds every per-user system through this type, so a
/// hand-assembled system and a fleet user with the same spec are the
/// same machine.
///
/// ```
/// use mcommerce_core::{MiddlewareKind, SystemSpec};
/// use hostsite::{db::Database, HostComputer};
///
/// let spec = SystemSpec::new()
///     .middleware(MiddlewareKind::IMode)
///     .seed(7)
///     .secure(true);
/// let system = spec.build(HostComputer::new(Database::new(), 7));
/// assert!(system.is_secure());
/// ```
#[derive(Debug, Clone)]
pub struct SystemSpec {
    /// The middleware component (component iii).
    pub(crate) middleware: MiddlewareKind,
    /// The handset (component ii).
    pub(crate) device: DeviceProfile,
    /// The wireless network (component iv).
    pub(crate) wireless: WirelessConfig,
    /// The wired path to the host (component v).
    pub(crate) wired: WiredPath,
    /// Seed for the system's air-link randomness.
    pub(crate) seed: u64,
    /// Whether WTLS-style transport security is on (§8).
    pub(crate) secure: bool,
    /// The caching-hierarchy policy (DESIGN.md §2.14).
    pub(crate) cache: CachePolicy,
    /// The host database's durability policy (DESIGN.md §2.18). The
    /// default (batch 1, free fsync) is byte-identical to an unpriced
    /// journal.
    pub(crate) durability: DurabilityPolicy,
}

impl Default for SystemSpec {
    fn default() -> Self {
        SystemSpec::new()
    }
}

impl SystemSpec {
    /// Workshop defaults: WAP gateway, iPAQ H3870, 802.11b at 20 m, WAN
    /// wired path, seed 1, security off, caches off.
    #[must_use]
    pub fn new() -> Self {
        SystemSpec {
            middleware: MiddlewareKind::Wap,
            device: DeviceProfile::ipaq_h3870(),
            wireless: WirelessConfig::Wlan {
                standard: wireless::WlanStandard::Dot11b,
                distance_m: 20.0,
            },
            wired: WiredPath::wan(),
            seed: 1,
            secure: false,
            cache: CachePolicy::disabled(),
            durability: DurabilityPolicy::default(),
        }
    }

    /// Sets the middleware kind.
    #[must_use]
    pub fn middleware(mut self, kind: MiddlewareKind) -> Self {
        self.middleware = kind;
        self
    }

    /// Sets the device profile.
    #[must_use]
    pub fn device(mut self, device: DeviceProfile) -> Self {
        self.device = device;
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

    /// Sets the air-link seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Turns WTLS-style security on or off.
    #[must_use]
    pub fn secure(mut self, secure: bool) -> Self {
        self.secure = secure;
        self
    }

    /// Sets the cache policy applied at build time.
    #[must_use]
    pub fn cache(mut self, policy: CachePolicy) -> Self {
        self.cache = policy;
        self
    }

    /// Sets the host database's durability policy.
    #[must_use]
    pub(crate) fn durability(mut self, policy: DurabilityPolicy) -> Self {
        self.durability = policy;
        self
    }

    /// Assembles the live system around `host` (which should already
    /// have its application programs installed), applying the spec's
    /// cache and durability policies to the host first.
    pub fn build(&self, mut host: HostComputer) -> McSystem {
        provision_host(&mut host, self.cache, self.durability);
        McSystem::assemble(host, self.user_side())
    }

    /// The per-user half of [`SystemSpec::build`]: the station,
    /// middleware and networks with security and the cache policy
    /// applied — everything but the site.
    pub(crate) fn user_side(&self) -> UserSide {
        UserSide {
            middleware: self.middleware.build(),
            station: StationState::new(self.device.clone()),
            wireless: self.wireless,
            air: self.wireless.air_link(),
            wired: self.wired,
            session_up: false,
            secure: self.secure,
            wtls_established: false,
            rng: rng_for(self.seed, "mcsystem.air"),
            recorder: Recorder::Disabled,
            clock_ns: 0,
            txn_seq: 0,
            faults: FaultPlan::none(),
            fault_state: FaultState::default(),
            middleware_degraded: false,
            fallback_kind: None,
            degraded_primary: None,
            host_recovering_until_ns: 0,
            cache: if self.cache.enabled {
                self.cache
            } else {
                CachePolicy::disabled()
            },
            render_memo: None,
        }
    }
}

/// The host half of [`SystemSpec::build`]: configures `host`'s page and
/// query caches (only when `cache` is enabled) and its durability.
pub(crate) fn provision_host(
    host: &mut HostComputer,
    cache: CachePolicy,
    durability: DurabilityPolicy,
) {
    if cache.enabled {
        cache.configure_host(host);
    }
    // Seed rows written before provisioning committed under the default
    // policy and are already durable; only new commits batch.
    host.web.db_mut().set_durability(durability);
}

/// The mobile station's aggregate state inside an [`McSystem`].
#[derive(Debug)]
pub struct StationState {
    /// The microbrowser (owns the device profile and cookie jar).
    pub(crate) browser: Microbrowser,
    /// The battery.
    pub battery: Battery,
}

impl StationState {
    /// Builds station state for a device.
    pub(crate) fn new(device: DeviceProfile) -> Self {
        let battery = Battery::new(device.battery_j);
        StationState {
            browser: Microbrowser::new(device),
            battery,
        }
    }
}

/// The per-user half of the six-component system (Figure 2): the
/// station, the middleware, the air link, and what a user carries from
/// one transaction to the next — session and WTLS state, clock, RNG,
/// fault cursor, recorder and memos. It owns the transaction code and
/// runs each transaction against a site it borrows for that
/// transaction: the host computer and the gateway content cache in
/// front of it. An [`McSystem`] lends its own site; a fleet island
/// lends its shared host and the user's gateway's shared cache.
pub struct UserSide {
    /// Component (iii): the mobile middleware.
    pub middleware: Box<dyn Middleware>,
    /// Component (ii): the mobile station.
    pub station: StationState,
    wireless: WirelessConfig,
    air: Option<AirLink>,
    wired: WiredPath,
    session_up: bool,
    secure: bool,
    wtls_established: bool,
    rng: StdRng,
    /// Observability sink. `Recorder::Disabled` (the default) skips all
    /// recording; a ring recorder captures per-layer spans in simulated
    /// time and dumps failing transactions.
    recorder: Recorder,
    /// This station's simulated clock, nanoseconds: transactions and
    /// idle time advance it, so spans line up on one per-user timeline.
    clock_ns: u64,
    /// Transactions executed so far (the next transaction's id).
    txn_seq: u64,
    /// The injected-fault schedule, evaluated against `clock_ns`. The
    /// default empty plan is checked with pure clock comparisons and
    /// draws no randomness, so a plan-free system is bit-identical to
    /// one carrying `FaultPlan::none()`.
    faults: FaultPlan,
    /// Cursor over the plan's one-shot faults.
    fault_state: FaultState,
    /// Whether the middleware has been swapped to its degraded fallback.
    middleware_degraded: bool,
    /// The fallback middleware to swap in on gateway/transcoder faults.
    fallback_kind: Option<MiddlewareKind>,
    /// The primary middleware, parked while the fallback serves.
    degraded_primary: Option<Box<dyn Middleware>>,
    /// Until this instant the host refuses service (journal replay).
    host_recovering_until_ns: u64,
    /// The caching hierarchy's configuration (disabled by default). The
    /// caches themselves live with the site.
    cache: CachePolicy,
    /// Shard-local render memo (fleet engine only): replays pure
    /// browser renders of repeated payloads across this shard's users.
    render_memo: Option<Rc<RefCell<RenderMemo>>>,
}

/// The site one transaction runs against: the host computer and, when
/// the cache policy enables one, the gateway content cache in front of
/// it.
pub(crate) struct Site<'a> {
    pub(crate) host: &'a mut HostComputer,
    pub(crate) gateway_cache: Option<&'a mut ContentCache>,
}

/// The six-component mobile commerce system (Figure 2): a [`UserSide`]
/// running against a site of its own, a host computer and a gateway
/// content cache. The system dereferences to its user half, so the
/// station, the middleware and every per-user setting are reached
/// directly on it.
pub struct McSystem {
    /// Component (vi): the host computer.
    pub host: HostComputer,
    /// The gateway content cache, present iff the policy enables it.
    gateway_cache: Option<ContentCache>,
    user: UserSide,
}

impl std::ops::Deref for McSystem {
    type Target = UserSide;

    fn deref(&self) -> &UserSide {
        &self.user
    }
}

impl std::ops::DerefMut for McSystem {
    fn deref_mut(&mut self) -> &mut UserSide {
        &mut self.user
    }
}

impl std::fmt::Debug for McSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("McSystem")
            .field("middleware", &self.middleware.name())
            .field("wireless", &self.wireless.name())
            .field("device", &self.station.browser.device().name)
            .finish()
    }
}

impl McSystem {
    /// The one constructor, reached through [`SystemSpec::build`]: `user`
    /// around `host`, with a gateway cache iff its policy enables one.
    pub(crate) fn assemble(host: HostComputer, user: UserSide) -> Self {
        McSystem {
            host,
            gateway_cache: user.cache.gateway_cache(),
            user,
        }
    }

    /// The user half and the system's own site, lent to it.
    fn split(&mut self) -> (&mut UserSide, Site<'_>) {
        let site = Site {
            host: &mut self.host,
            gateway_cache: self.gateway_cache.as_mut(),
        };
        (&mut self.user, site)
    }

    /// Applies a cache policy across the hierarchy: (re)builds the
    /// gateway content cache and configures the host's page and query
    /// caches. Replacing the policy drops anything previously cached.
    pub fn set_cache_policy(&mut self, policy: CachePolicy) {
        self.user.cache = policy;
        self.gateway_cache = policy.gateway_cache();
        policy.configure_host(&mut self.host);
    }

    /// Executes one transaction under a [`RetryPolicy`]: failed attempts
    /// are triaged ([`classify`]) and — for transient faults — retried
    /// after exponential, jittered backoff on the station's sim clock
    /// (draining idle battery), or — for degraded-path faults — retried
    /// immediately through the fallback middleware installed with
    /// `set_fallback_middleware`.
    ///
    /// The final report absorbs every failed attempt's paid costs
    /// (latency, breakdown, energy, air bytes, retransmissions) and
    /// counts all attempts in [`TransactionReport::attempts`]. Backoff
    /// time advances the clock and drains the battery but is user wait,
    /// not transaction latency. The primary middleware is restored once
    /// the transaction settles, so a later gateway window degrades (and
    /// is counted) again.
    ///
    /// Jitter draws come only from `rng` — pass a stream derived from
    /// the scenario seed and user index to keep fleets bit-identical at
    /// any thread count.
    pub fn execute_with_retry(
        &mut self,
        req: &MobileRequest,
        policy: &RetryPolicy,
        rng: &mut StdRng,
    ) -> TransactionReport {
        let (user, mut site) = self.split();
        user.execute_with_retry(&mut site, req, policy, rng)
    }
}

impl UserSide {
    /// Attaches the shard-local memos of a fleet shard: the middleware's
    /// transcode memo and the station's render memo. Both cache *pure*
    /// functions of the payload bytes, so an attached system executes
    /// bit-for-bit the same transactions as a bare one — the fleet
    /// engine attaches fresh memos per shard (never across threads) and
    /// resets nothing between users because there is nothing stateful to
    /// reset.
    pub fn attach_shard_memos(
        &mut self,
        transcode: middleware::SharedTranscodeMemo,
        render: Rc<RefCell<RenderMemo>>,
    ) {
        self.middleware.attach_transcode_memo(transcode);
        self.render_memo = Some(render);
    }

    /// Installs an observability sink. The default is
    /// [`Recorder::Disabled`], which records nothing and costs nothing.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// Removes and returns the observability sink (leaving `Disabled`),
    /// so a runner can export or inspect the recorded trace.
    pub fn take_recorder(&mut self) -> Recorder {
        std::mem::take(&mut self.recorder)
    }

    /// The station's simulated clock: total simulated time this system
    /// has spent executing transactions and idling, nanoseconds.
    pub(crate) fn sim_clock_ns(&self) -> u64 {
        self.clock_ns
    }

    /// Whether WTLS-style security is enabled.
    pub fn is_secure(&self) -> bool {
        self.secure
    }

    /// Lets `secs` of user think-time pass: the station idles, drawing
    /// battery at the device/OS idle power (§4.1's battery-life lever).
    /// Returns `false` once the battery is exhausted.
    pub fn idle(&mut self, secs: f64) -> bool {
        self.clock_ns = self.clock_ns.saturating_add(secs_to_ns(secs));
        let watts = self.station.browser.device().idle_power_w();
        self.station.battery.drain(watts * secs)
    }

    /// [`UserSide::idle`] for a wait already priced in nanoseconds.
    pub(crate) fn idle_for(&mut self, wait: SimDuration) -> bool {
        self.clock_ns = self.clock_ns.saturating_add(wait.as_nanos());
        let watts = self.station.browser.device().idle_power_w();
        self.station.battery.drain(watts * wait.as_secs_f64())
    }

    /// Swaps the wireless network under the running system (used by the
    /// program/data-independence experiment: requirement 5 of §1.1).
    pub fn set_wireless(&mut self, wireless: WirelessConfig) {
        self.wireless = wireless;
        self.air = wireless.air_link();
        self.session_up = false;
        self.wtls_established = false;
    }

    /// Swaps the middleware under the running system (requirement 5).
    pub fn set_middleware(&mut self, middleware: Box<dyn Middleware>) {
        self.middleware = middleware;
        self.session_up = false;
    }

    /// Installs a fault schedule, evaluated against this station's sim
    /// clock. Replacing the plan resets the one-shot cursor.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_state = plan.state();
        self.faults = plan;
    }

    /// Selects the middleware kind [`execute_with_retry`] swaps in when
    /// the primary path degrades (gateway outage, wedged transcoder).
    ///
    /// [`execute_with_retry`]: McSystem::execute_with_retry
    pub(crate) fn set_fallback_middleware(&mut self, kind: Option<MiddlewareKind>) {
        self.fallback_kind = kind;
    }

    /// Fires every one-shot fault due when transaction `l` begins:
    /// battery drains hit the battery, database crashes restart `host` —
    /// the site's — and open a recovery window proportional to the
    /// replayed journal.
    fn apply_due_oneshots(&mut self, host: &mut HostComputer, l: &Ledger) {
        if self.faults.is_empty() {
            return;
        }
        let now_ns = l.t0;
        let due: Vec<FaultKind> = self
            .faults
            .oneshots_due(&mut self.fault_state, now_ns)
            .iter()
            .map(|e| e.kind)
            .collect();
        for kind in due {
            match kind {
                FaultKind::BatteryDrain { joules } => {
                    let _ = self.station.battery.drain(joules);
                    self.recorder
                        .instant(now_ns, Layer::Station, "fault: battery drain", l.txn);
                }
                FaultKind::DbCrash => {
                    let policy = host.web.db().durability();
                    let replayed = host.web.crash_and_recover_db().map_or(0, |n| n as u64);
                    let recovery = db_recovery_outage_ns(replayed, policy);
                    self.host_recovering_until_ns = self
                        .host_recovering_until_ns
                        .max(now_ns.saturating_add(recovery));
                    self.recorder
                        .instant(now_ns, Layer::Host, "fault: db crash, replaying journal", l.txn);
                }
                _ => {}
            }
        }
    }

    fn content_kind(format: AirFormat) -> ContentKind {
        match format {
            AirFormat::WmlBinary => ContentKind::WmlBinary,
            AirFormat::WmlText => ContentKind::Wml,
            AirFormat::Chtml => ContentKind::Chtml,
            AirFormat::Html => ContentKind::Html,
        }
    }
}

impl CommerceSystem for McSystem {
    fn label(&self) -> String {
        format!(
            "MC[{} / {} / {}]",
            self.middleware.name(),
            self.wireless.name(),
            self.station.browser.device().name
        )
    }

    fn execute(&mut self, req: &MobileRequest) -> TransactionReport {
        let (user, mut site) = self.split();
        user.execute(&mut site, req)
    }

    fn host_mut(&mut self) -> &mut HostComputer {
        &mut self.host
    }
}

/// Why a stage stopped its transaction early, and the layer it failed in.
type Stop = (Cow<'static, str>, Layer);

/// One transaction's books, open from admission to settlement. Each
/// stage of `UserSide::execute` books its costs here and nowhere else:
/// a cost becomes its layer's share of the [`PhaseBreakdown`], a span on
/// the station's timeline and a move of the cursor, all the same
/// nanoseconds. The ledger also closes the transaction — failure
/// records, root span, station clock — and builds its report.
#[derive(Default)]
struct Ledger {
    /// Where the transaction began on the station clock, nanoseconds.
    t0: u64,
    /// The transaction's id.
    txn: u64,
    /// Where the next span begins, nanoseconds.
    cursor: u64,
    breakdown: PhaseBreakdown,
    /// Radio energy drawn so far, joules. The station CPU's energy is
    /// reckoned from its share when the battery pays.
    energy: f64,
    /// Bytes the air uplink put on the medium.
    air_up: u64,
    /// Bytes the air downlink put on the medium.
    air_down: u64,
    /// ARQ retransmissions of the uplink and the downlink.
    retransmissions: u32,
    /// WAL fsync time the host charged for the request.
    wal: SimDuration,
}

impl Ledger {
    /// Books `cost` to `layer` under a span named `name`.
    #[deny(clippy::float_arithmetic)]
    fn charge(&mut self, side: &mut UserSide, layer: Layer, name: &'static str, cost: SimDuration) {
        side.recorder
            .span(self.cursor, cost.as_nanos(), layer, name, self.txn);
        self.book(layer, cost);
    }

    /// Books `cost` to `layer` without a span (the time a stage burned
    /// before it gave up): adds it to the layer's share of the breakdown
    /// and moves the cursor past it.
    #[deny(clippy::float_arithmetic)]
    fn book(&mut self, layer: Layer, cost: SimDuration) {
        *self.breakdown.share_mut(layer) += cost;
        self.cursor += cost.as_nanos();
    }

    /// The energy drawn so far: the radio's plus the station CPU's,
    /// joules.
    fn drawn(&self, side: &UserSide) -> f64 {
        let os_factor = side.station.browser.device().os.cpu_overhead_factor();
        self.energy + self.breakdown.station.as_secs_f64() * STATION_ACTIVE_W * os_factor
    }

    /// Ends the transaction in the stage that stopped it: the battery
    /// pays for what was drawn so far, the failure is recorded, and the
    /// report carries the costs paid so far — of the energy, only the
    /// radio's.
    fn stop(&self, side: &mut UserSide, (reason, layer): Stop) -> TransactionReport {
        let _ = side.station.battery.drain(self.drawn(side));
        self.fail(side, &reason, layer);
        self.report(self.energy, Some(reason.into_owned()), None)
    }

    /// Closes the books on a failure in `layer`: it is counted, recorded
    /// as an instant and dumped from the flight recorder, and the
    /// station clock moves to the cursor.
    fn fail(&self, side: &mut UserSide, reason: &str, layer: Layer) {
        obs::metrics::incr("station.txn_failures");
        side.recorder
            .instant_dyn(self.cursor, layer, reason, self.txn);
        side.recorder.dump_failure(self.txn, reason, layer);
        side.clock_ns = self.cursor;
    }

    /// Closes the books on a success: the root span, named for `url`,
    /// covers the whole transaction, and the station clock moves to the
    /// cursor.
    fn succeed(&self, side: &mut UserSide, url: &str) {
        let dur = self.cursor - self.t0;
        side.recorder
            .span_dyn(self.t0, dur, Layer::Application, url, self.txn);
        side.clock_ns = self.cursor;
    }

    /// The report of the costs on the books.
    fn report(
        &self,
        energy_j: f64,
        failure: Option<String>,
        outcome: Option<TransactionOutcome>,
    ) -> TransactionReport {
        TransactionReport {
            air_bytes_up: self.air_up,
            air_bytes_down: self.air_down,
            retransmissions: self.retransmissions,
            energy_j,
            wal: self.wal,
            ..TransactionReport::new(self.breakdown, failure, outcome)
        }
    }
}

impl UserSide {
    /// Executes one request/response transaction against `site`: the
    /// stages of Figure 2's request path in order, each booking its costs
    /// in the transaction's ledger. A stage that fails stops the rest.
    pub(crate) fn execute(
        &mut self,
        site: &mut Site<'_>,
        req: &MobileRequest,
    ) -> TransactionReport {
        let mut l = Ledger {
            t0: self.clock_ns,
            txn: self.txn_seq,
            cursor: self.clock_ns,
            ..Ledger::default()
        };
        self.txn_seq += 1;
        match self.run_stages(site, req, &mut l) {
            Ok(report) => report,
            Err(stop) => l.stop(self, stop),
        }
    }

    /// The stages in request-path order; the first that fails returns
    /// why, and the rest do not run.
    fn run_stages(
        &mut self,
        site: &mut Site<'_>,
        req: &MobileRequest,
        l: &mut Ledger,
    ) -> Result<TransactionReport, Stop> {
        let air = self.admit(site.host, l)?;
        let req = self.with_cookies(req);
        self.connect(&air, l);
        let (mut ex, gateway_hit) = self.gateway(site, &req, l)?;
        self.build_request(&mut ex, l);
        self.uplink(&air, &ex, l)?;
        self.wired_and_host(&ex, gateway_hit, l);
        self.downlink(&air, &ex, l)?;
        let render = self.render(&ex, l);
        Ok(self.settle(ex.status, render, &req.url, l))
    }

    /// Admission: due one-shot faults strike, then the station needs
    /// coverage, battery, a lit access point and a serving host. Returns
    /// this transaction's air link, its BER raised by any loss burst.
    fn admit(&mut self, host: &mut HostComputer, l: &mut Ledger) -> Result<AirLink, Stop> {
        self.apply_due_oneshots(host, l);
        let Some(mut air) = self.air else {
            let reason = format!("no coverage on {}", self.wireless.name());
            return Err((reason.into(), Layer::Wireless));
        };
        if self.station.battery.is_exhausted() {
            return Err(("battery exhausted".into(), Layer::Station));
        }
        // Injected wireless outage: the AP is dark. The station probes at
        // idle power, loses its session (forced handoff), and gives up —
        // a retry policy can come back once the window passes.
        if self.faults.outage_active(l.t0) {
            self.session_up = false;
            self.wtls_established = false;
            l.energy += self.station.browser.device().idle_power_w() * OUTAGE_PROBE.as_secs_f64();
            l.book(Layer::Wireless, OUTAGE_PROBE);
            return Err((
                "wireless outage (handoff in progress)".into(),
                Layer::Wireless,
            ));
        }
        // Host still replaying its journal after an injected crash: the
        // connection is accepted (wired time) but service refused (the
        // host's failure).
        if l.t0 < self.host_recovering_until_ns {
            l.book(Layer::Wired, HOST_PROBE);
            return Err(("host database recovering after crash".into(), Layer::Host));
        }
        // A loss burst raises the BER for this transaction only: `air`
        // is a copy, the baseline link is untouched.
        if let Some(burst) = self.faults.burst_ber(l.t0) {
            air.raise_ber(burst);
        }
        obs::metrics::incr("station.transactions");
        Ok(air)
    }

    /// The station attaches its cookie jar to the outgoing request. An
    /// empty jar (the common fleet steady state) borrows the caller's
    /// request instead of cloning it.
    fn with_cookies<'r>(&self, req: &'r MobileRequest) -> Cow<'r, MobileRequest> {
        let jar = self.station.browser.cookies();
        if jar.is_empty() {
            return Cow::Borrowed(req);
        }
        let mut owned = req.clone();
        for (k, v) in jar {
            owned.cookies.push((k.clone(), v.clone()));
        }
        Cow::Owned(owned)
    }

    /// Connection: one-time wireless session setup (circuit dial-up or
    /// packet context activation), then on first secure contact the WTLS
    /// handshake — two hello flights over the air, booked as one share
    /// and one span, plus key-agreement CPU on the handset.
    fn connect(&mut self, air: &AirLink, l: &mut Ledger) {
        if !self.session_up {
            l.charge(self, Layer::Wireless, "session_setup", air.session_setup);
            self.session_up = true;
        }
        if self.secure && !self.wtls_established {
            let hello_up = air.transfer(security::wtls::HANDSHAKE_BYTES / 2, &mut self.rng);
            let hello_down = air.transfer(security::wtls::HANDSHAKE_BYTES / 2, &mut self.rng);
            l.energy += air.tx_energy(&hello_up) + air.rx_energy(&hello_down);
            let flights = hello_up.elapsed + hello_down.elapsed;
            l.charge(self, Layer::Wireless, "wtls_handshake", flights);
            // Modular exponentiation on a handheld: scale by clock speed.
            let mhz = self.station.browser.device().cpu_mhz as f64;
            let kx_cost = SimDuration::from_secs_f64(20.0 / mhz);
            l.charge(self, Layer::Station, "wtls_key_exchange", kx_cost);
            self.wtls_established = true;
        }
    }

    /// Gateway: the middleware exchanges the request with the host —
    /// unless the gateway content cache holds a fresh adapted deck for
    /// this exact (url, device, middleware, cookies) key, in which case
    /// neither the wired network nor the host is touched. Returns the
    /// exchange and whether the cache served it.
    fn gateway(
        &mut self,
        site: &mut Site<'_>,
        req: &MobileRequest,
        l: &mut Ledger,
    ) -> Result<(Exchange, bool), Stop> {
        let t0 = l.t0;
        // Injected gateway outage: the primary middleware is
        // unreachable. A system serving through its fallback middleware
        // bypasses the failed gateway and is unaffected.
        if !self.middleware_degraded && self.faults.gateway_down(t0) {
            return Err((
                "middleware gateway unavailable (outage)".into(),
                Layer::Middleware,
            ));
        }
        if self.cache.enabled {
            site.host.web.set_sim_now_ns(t0);
        }
        // An active transcoder fault bypasses lookup *and* store: a
        // wedged encoder must not serve — or capture — decks.
        let device = self.station.browser.device().name;
        let mut cache = site.gateway_cache.as_deref_mut().filter(|_| {
            ContentCache::cacheable_request(req) && !self.faults.transcode_degraded(t0)
        });
        let cached = match cache.as_deref_mut() {
            Some(cache) => cache.lookup(req, device, self.middleware.name(), t0),
            None => None,
        };
        let gateway_hit = cached.is_some();
        let ex = match cached {
            Some(hit) => {
                obs::metrics::incr("middleware.cache.hits");
                obs::metrics::add("middleware.cache.bytes_saved", hit.content.len() as u64);
                hit
            }
            None => {
                let ex = self.middleware.exchange(site.host, req);
                l.wal = SimDuration::from_nanos(site.host.take_commit_ns());
                if let Some(cache) = cache {
                    obs::metrics::incr("middleware.cache.misses");
                    if ContentCache::cacheable_exchange(&ex) {
                        let evicted = cache.store(req, device, self.middleware.name(), &ex, t0);
                        obs::metrics::add("middleware.cache.evictions", evicted as u64);
                    }
                }
                ex
            }
        };
        // Injected transcoder degradation: the gateway's binary WML
        // encoder is wedged and emits corrupt decks. Only binary-WML
        // paths are affected — the textual fallback sails through.
        if ex.format == AirFormat::WmlBinary
            && !self.middleware_degraded
            && self.faults.transcode_degraded(t0)
        {
            l.book(Layer::Middleware, ex.middleware_cpu);
            return Err((
                "transcode degraded (corrupt binary deck)".into(),
                Layer::Middleware,
            ));
        }
        Ok((ex, gateway_hit))
    }

    /// Request build: under security every over-the-air payload is
    /// sealed into a WTLS record (header + sequence + MAC) at a handset
    /// CPU cost; then the station builds and serialises the request.
    fn build_request(&mut self, ex: &mut Exchange, l: &mut Ledger) {
        if self.secure {
            ex.uplink_bytes = security::WtlsSession::sealed_size(ex.uplink_bytes);
            ex.downlink_bytes = security::WtlsSession::sealed_size(ex.downlink_bytes);
            let sealed_kb = ((ex.uplink_bytes + ex.downlink_bytes) as u32).div_ceil(1024);
            let scale = 100.0 / self.station.browser.device().cpu_mhz as f64;
            let seal_cost =
                SimDuration::from_secs_f64((WTLS_CPU_PER_KB * sealed_kb).as_secs_f64() * scale);
            l.charge(self, Layer::Station, "wtls_seal", seal_cost);
        }
        let build_cost = self.station.browser.device().parse_cost(ex.uplink_bytes);
        l.charge(self, Layer::Station, "build_request", build_cost);
    }

    /// Uplink: the protocol's extra round trips (e.g. WSP session setup),
    /// one small frame each way, under one span; then the request over
    /// the air.
    fn uplink(&mut self, air: &AirLink, ex: &Exchange, l: &mut Ledger) -> Result<(), Stop> {
        let mut rts = SimDuration::ZERO;
        for _ in 0..ex.extra_round_trips {
            let up = air.transfer(32, &mut self.rng);
            let down = air.transfer(32, &mut self.rng);
            l.energy += air.tx_energy(&up) + air.rx_energy(&down);
            rts += up.elapsed + down.elapsed;
        }
        if ex.extra_round_trips > 0 {
            l.charge(self, Layer::Wireless, "wsp_round_trips", rts);
        }
        let up = air.transfer(ex.uplink_bytes, &mut self.rng);
        l.energy += air.tx_energy(&up);
        l.charge(self, Layer::Wireless, "uplink", up.elapsed);
        l.air_up = up.bytes_on_medium;
        l.retransmissions += up.retransmissions;
        if up.failed {
            return Err(("uplink failed (ARQ exhausted)".into(), Layer::Wireless));
        }
        Ok(())
    }

    /// Wired network and host: the middleware's CPU, then Figure 2's
    /// traversal order — wired up, host, wired down. A gateway cache hit
    /// never leaves the middleware.
    fn wired_and_host(&mut self, ex: &Exchange, gateway_hit: bool, l: &mut Ledger) {
        if gateway_hit {
            l.charge(self, Layer::Middleware, "gateway_cache", ex.middleware_cpu);
            return;
        }
        l.charge(self, Layer::Middleware, "gateway", ex.middleware_cpu);
        let wired_up = self.wired.transfer(ex.wired_bytes.0);
        l.charge(self, Layer::Wired, "wired_up", wired_up);
        l.charge(self, Layer::Host, "host", ex.host_cpu);
        let wired_down = self.wired.transfer(ex.wired_bytes.1);
        l.charge(self, Layer::Wired, "wired_down", wired_down);
    }

    /// Downlink: the response over the air.
    fn downlink(&mut self, air: &AirLink, ex: &Exchange, l: &mut Ledger) -> Result<(), Stop> {
        let down = air.transfer(ex.downlink_bytes, &mut self.rng);
        l.energy += air.rx_energy(&down);
        l.charge(self, Layer::Wireless, "downlink", down.elapsed);
        l.air_down = down.bytes_on_medium;
        l.retransmissions += down.retransmissions;
        if down.failed {
            return Err(("downlink failed (ARQ exhausted)".into(), Layer::Wireless));
        }
        Ok(())
    }

    /// Render: the station parses and renders the content, then stores
    /// the cookies the host set. Returns what the user sees, or why the
    /// render failed.
    fn render(&mut self, ex: &Exchange, l: &mut Ledger) -> Result<TransactionOutcome, String> {
        let kind = Self::content_kind(ex.format);
        let deck = ex.deck.as_deref();
        let view = match &self.render_memo {
            Some(memo) => {
                let mut memo = memo.borrow_mut();
                self.station
                    .browser
                    .render_memoized(&ex.content, kind, deck, &mut memo)
            }
            None => self
                .station
                .browser
                .render_prepared(&ex.content, kind, deck)
                .map(|page| Rc::new(RenderedView::of(page))),
        };
        let outcome = match view {
            Ok(view) => {
                l.charge(self, Layer::Station, "render", view.page.cost);
                Ok(TransactionOutcome {
                    page_text: Arc::clone(&view.text),
                    title: Arc::clone(&view.title),
                    status: ex.status,
                })
            }
            Err(e) => Err(format!("render failed: {e}")),
        };
        self.station
            .browser
            .accept_cookies(ex.set_cookies.iter().map(|(k, v)| (k.as_str(), v.as_str())));
        outcome
    }

    /// Settle: the battery pays for the radio and the station's CPU; a
    /// failure is attributed to the layer that produced it, a success
    /// gets its root span; then the layers' metrics are published.
    fn settle(
        &mut self,
        status: Status,
        render: Result<TransactionOutcome, String>,
        url: &str,
        l: &mut Ledger,
    ) -> TransactionReport {
        l.energy = l.drawn(self);
        let alive = self.station.battery.drain(l.energy);
        let (outcome, render_failure) = match render {
            Ok(outcome) => (Some(outcome), None),
            Err(reason) => (None, Some(reason)),
        };
        let failure = if !alive {
            Some((
                "battery exhausted mid-transaction".to_owned(),
                Layer::Station,
            ))
        } else if let Some(reason) = render_failure {
            Some((reason, Layer::Station))
        } else if !status.is_success() {
            Some((format!("host returned {status}"), Layer::Host))
        } else {
            None
        };
        match &failure {
            Some((reason, layer)) => l.fail(self, reason, *layer),
            None => l.succeed(self, url),
        }
        if obs::metrics::enabled() {
            let b = &l.breakdown;
            obs::metrics::add("station.service_ns", b.station.as_nanos());
            obs::metrics::add("wireless.service_ns", b.wireless.as_nanos());
            obs::metrics::add("middleware.service_ns", b.middleware.as_nanos());
            obs::metrics::add("wired.service_ns", b.wired.as_nanos());
            obs::metrics::add("host.service_ns", b.host.as_nanos());
            obs::metrics::add("wireless.retransmissions", u64::from(l.retransmissions));
            obs::metrics::add("wireless.air_bytes", l.air_up + l.air_down);
            obs::metrics::observe("txn.latency_ns", b.total().as_nanos());
        }
        l.report(l.energy, failure.map(|(reason, _)| reason), outcome)
    }

    /// [`McSystem::execute_with_retry`] against `site`: every attempt
    /// runs against the same site.
    pub(crate) fn execute_with_retry(
        &mut self,
        site: &mut Site<'_>,
        req: &MobileRequest,
        policy: &RetryPolicy,
        rng: &mut StdRng,
    ) -> TransactionReport {
        let mut report = self.execute(site, req);
        if policy.is_none() {
            return report;
        }
        // The retry budget runs from the end of the first attempt.
        let deadline_end = self.clock_ns.saturating_add(policy.deadline.as_nanos());
        let mut attempts: u32 = 1;
        // The failed attempts' paid costs, folded into the settled report.
        let mut prior = TransactionReport::new(PhaseBreakdown::default(), None, None);
        while !report.success && attempts < policy.max_attempts {
            let reason = report.failure.clone().unwrap_or_default();
            match classify(&reason) {
                FailureClass::Permanent => break,
                FailureClass::Degraded => {
                    let Some(kind) = self.fallback_kind else { break };
                    if self.middleware_degraded {
                        // Already on the fallback and still degraded:
                        // another swap cannot help.
                        break;
                    }
                    let primary = std::mem::replace(&mut self.middleware, kind.build());
                    self.degraded_primary = Some(primary);
                    self.middleware_degraded = true;
                    self.session_up = false;
                    obs::metrics::incr("policy.degraded");
                }
                FailureClass::Transient => {
                    let backoff = policy.backoff(attempts, rng);
                    if self.clock_ns.saturating_add(backoff.as_nanos()) > deadline_end {
                        break;
                    }
                    self.recorder.span(
                        self.clock_ns,
                        backoff.as_nanos(),
                        Layer::Application,
                        "retry_backoff",
                        self.txn_seq,
                    );
                    if !self.idle_for(backoff) {
                        break; // battery died while waiting
                    }
                }
            }
            prior.absorb(&report);
            attempts += 1;
            obs::metrics::incr("policy.retries");
            report = self.execute(site, req);
        }
        // Settle: the primary middleware comes back for the next
        // transaction (fresh session, since the gateway path changed).
        if let Some(primary) = self.degraded_primary.take() {
            self.middleware = primary;
            self.middleware_degraded = false;
            self.session_up = false;
        }
        report.attempts = attempts;
        report.absorb(&prior);
        report
    }
}

/// The four-component electronic commerce baseline (Figure 1): desktop
/// clients on the wired network — no mobile station, no middleware, no
/// wireless hop.
pub struct EcSystem {
    /// The host computer.
    pub(crate) host: HostComputer,
    wired: WiredPath,
}

impl std::fmt::Debug for EcSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EcSystem").finish()
    }
}

impl EcSystem {
    /// Assembles the EC baseline.
    pub fn new(host: HostComputer, wired: WiredPath) -> Self {
        EcSystem { host, wired }
    }

    /// Desktop client CPU model: parse+render HTML at workstation speed.
    fn client_cost(bytes: usize) -> SimDuration {
        // ~20 MB/s parse+layout on a desktop of the era.
        SimDuration::from_secs_f64(bytes as f64 / 20_000_000.0)
    }
}

impl CommerceSystem for EcSystem {
    fn label(&self) -> String {
        "EC[desktop / wired]".to_owned()
    }

    fn execute(&mut self, req: &MobileRequest) -> TransactionReport {
        let http_req = req.to_http(hostsite::ContentFormat::Html);
        let wired_up = self.wired.transfer(http_req.wire_size());
        let (resp, host) = self.host.process(http_req);
        let breakdown = PhaseBreakdown {
            station: Self::client_cost(resp.body.len()),
            wired: wired_up + self.wired.transfer(resp.wire_size()),
            host,
            ..PhaseBreakdown::default()
        };

        let outcome = markup::parse::parse(&resp.body)
            .ok()
            .map(|doc| TransactionOutcome {
                page_text: doc.text_content().into(),
                title: doc
                    .find("title")
                    .map(|t| t.text_content())
                    .unwrap_or_default()
                    .into(),
                status: resp.status,
            });
        // Mains-powered and wired: no air bytes, no battery.
        let failure = if outcome.is_none() {
            Some("client failed to parse page".into())
        } else if !resp.status.is_success() {
            Some(format!("host returned {}", resp.status))
        } else {
            None
        };
        TransactionReport::new(breakdown, failure, outcome)
    }

    fn host_mut(&mut self) -> &mut HostComputer {
        &mut self.host
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hostsite::db::Database;
    use markup::html;
    use middleware::IModeService;
    use wireless::WlanStandard;

    fn storefront_host() -> HostComputer {
        let mut host = HostComputer::new(Database::new(), 17);
        let page = html::page(
            "Store",
            vec![
                html::h1("Mobile Store").into(),
                html::p("Everything ships today").into(),
                html::a("/item?sku=1", "A fine widget").into(),
            ],
        );
        host.web.static_page("/", page.to_markup());
        host
    }

    fn wifi() -> WirelessConfig {
        WirelessConfig::Wlan {
            standard: WlanStandard::Dot11b,
            distance_m: 20.0,
        }
    }

    #[test]
    fn mc_transaction_succeeds_with_full_breakdown() {
        let mut sys = SystemSpec::new()
            .device(DeviceProfile::palm_i705())
            .wireless(wifi())
            .seed(1)
            .build(storefront_host());
        let report = sys.execute(&MobileRequest::get("/"));
        assert!(report.success, "{:?}", report.failure);
        // Every component contributed.
        let b = report.breakdown;
        for (c, share) in [
            ("station", b.station),
            ("wireless", b.wireless),
            ("middleware", b.middleware),
            ("wired", b.wired),
            ("host", b.host),
        ] {
            assert!(!share.is_zero(), "component {c} has zero share");
        }
        assert!(report.air_bytes_down > 0);
        assert!(report.energy_j > 0.0);
    }

    #[test]
    fn ec_transaction_has_no_wireless_or_middleware_share() {
        let mut sys = EcSystem::new(storefront_host(), WiredPath::wan());
        let report = sys.execute(&MobileRequest::get("/"));
        assert!(report.success);
        assert!(report.breakdown.wireless.is_zero());
        assert!(report.breakdown.middleware.is_zero());
        assert!(!report.breakdown.host.is_zero());
        assert_eq!(report.energy_j, 0.0);
    }

    #[test]
    fn mc_is_slower_than_ec_but_both_complete() {
        // Figure 1 vs Figure 2: the two added components cost latency.
        let mut ec = EcSystem::new(storefront_host(), WiredPath::wan());
        let mut mc = SystemSpec::new()
            .device(DeviceProfile::palm_i705())
            .wireless(wifi())
            .seed(1)
            .build(storefront_host());
        let ec_report = ec.execute(&MobileRequest::get("/"));
        let mc_report = mc.execute(&MobileRequest::get("/"));
        assert!(ec_report.success && mc_report.success);
        assert!(mc_report.total() > ec_report.total());
    }

    #[test]
    fn out_of_coverage_fails_cleanly() {
        let mut sys = SystemSpec::new()
            .wireless(WirelessConfig::Wlan {
                standard: WlanStandard::Bluetooth,
                distance_m: 100.0,
            })
            .seed(1)
            .build(storefront_host());
        let report = sys.execute(&MobileRequest::get("/"));
        assert!(!report.success);
        assert!(report.failure.as_deref().unwrap().contains("no coverage"));
    }

    #[test]
    fn battery_drains_across_transactions_until_death() {
        let mut device = DeviceProfile::palm_i705();
        device.battery_j = 0.02; // nearly dead battery
        let mut sys = SystemSpec::new()
            .device(device)
            .wireless(wifi())
            .seed(1)
            .build(storefront_host());
        let mut died = false;
        for _ in 0..200 {
            let report = sys.execute(&MobileRequest::get("/"));
            if !report.success {
                assert!(report.failure.as_deref().unwrap().contains("battery"));
                died = true;
                break;
            }
        }
        assert!(died, "battery should run out");
    }

    #[test]
    fn cookies_persist_across_transactions() {
        let mut host = storefront_host();
        host.web.route_get(
            "/greet",
            |req: &hostsite::HttpRequest, _ctx: &mut hostsite::ServerCtx<'_>| {
                let known = req.cookie("visited").is_some();
                let mut page = html::PageWriter::new("Greet");
                page.p(if known { "welcome back" } else { "hello stranger" });
                hostsite::HttpResponse::ok(page.finish()).with_cookie("visited", "1")
            },
        );
        let mut sys = SystemSpec::new()
            .middleware(MiddlewareKind::IMode)
            .device(DeviceProfile::nokia_9290())
            .wireless(wifi())
            .seed(2)
            .build(host);
        sys.execute(&MobileRequest::get("/greet"));
        let _ = sys.execute(&MobileRequest::get("/greet"));
        // The second exchange carried the cookie: host answered differently.
        // Verify via a third fetch of the rendered content.
        let r = sys.execute(&MobileRequest::get("/greet"));
        assert!(r.success);
        let page = sys
            .station
            .browser
            .render(
                html::page("Greet", vec![html::p("welcome back").into()])
                    .to_markup()
                    .as_bytes(),
                station::browser::ContentKind::Html,
            )
            .unwrap();
        assert!(page.lines.iter().any(|l| l.contains("welcome back")));
    }

    #[test]
    fn cellular_first_transaction_pays_session_setup() {
        use wireless::CellularStandard;
        let mut sys = SystemSpec::new()
            .middleware(MiddlewareKind::IMode)
            .device(DeviceProfile::nokia_9290())
            .wireless(WirelessConfig::Cellular {
                standard: CellularStandard::Gsm,
            })
            .seed(3)
            .build(storefront_host());
        let first = sys.execute(&MobileRequest::get("/"));
        let second = sys.execute(&MobileRequest::get("/"));
        assert!(first.success && second.success);
        // GSM circuit setup is 4.5 s — dominates the first transaction.
        assert!(first.breakdown.wireless > second.breakdown.wireless + SimDuration::from_secs(4));
    }

    #[test]
    fn swapping_components_preserves_host_data() {
        // Requirement 5 (§1.1): program/data independence.
        let mut sys = SystemSpec::new()
            .device(DeviceProfile::palm_i705())
            .wireless(wifi())
            .seed(4)
            .build(storefront_host());
        sys.host
            .web
            .db_mut()
            .create_table("orders", &["id", "what"], &[])
            .unwrap();
        sys.host
            .web
            .db_mut()
            .insert("orders", vec![1.into(), "widget".into()])
            .unwrap();
        assert!(sys.execute(&MobileRequest::get("/")).success);

        sys.set_middleware(Box::new(IModeService::new()));
        sys.set_wireless(WirelessConfig::Cellular {
            standard: wireless::CellularStandard::Gprs,
        });
        assert!(sys.execute(&MobileRequest::get("/")).success);
        // Data survived the component swap untouched.
        assert_eq!(
            sys.host.web.db().get("orders", &1.into()).unwrap().unwrap()[1],
            hostsite::db::Value::Text("widget".into())
        );
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use hostsite::db::Database;
    use markup::html;
    use middleware::WapGateway;
    use simnet::rng::rng_for;
    

    fn host() -> HostComputer {
        let mut host = HostComputer::new(Database::new(), 17);
        host.web.static_page(
            "/",
            html::page("Store", vec![html::p("open for business").into()]).to_markup(),
        );
        host
    }

    fn system() -> McSystem {
        SystemSpec::new().seed(5).build(host())
    }

    #[test]
    fn outage_window_fails_transactions_then_clears() {
        let mut sys = system();
        sys.set_fault_plan(FaultPlan::none().window(
            SimDuration::ZERO,
            SimDuration::from_secs(1),
            FaultKind::WirelessOutage,
        ));
        let r = sys.execute(&MobileRequest::get("/"));
        assert!(!r.success);
        assert!(r.failure.as_deref().unwrap().contains("wireless outage"));
        // The probe took finite time and energy even though it failed.
        assert!(!r.total().is_zero());
        assert!(r.energy_j > 0.0);
        sys.idle(2.0);
        assert!(sys.execute(&MobileRequest::get("/")).success);
    }

    #[test]
    fn db_crash_opens_a_recovery_window_and_replays_the_journal() {
        let mut sys = system();
        sys.set_fault_plan(
            FaultPlan::none().oneshot(SimDuration::from_millis(1), FaultKind::DbCrash),
        );
        assert!(sys.execute(&MobileRequest::get("/")).success, "before the crash");
        sys.idle(0.01); // cross the crash instant
        let r = sys.execute(&MobileRequest::get("/"));
        assert!(!r.success);
        assert!(r.failure.as_deref().unwrap().contains("recovering"), "{:?}", r.failure);
        sys.idle(10.0); // wait out journal replay
        assert!(sys.execute(&MobileRequest::get("/")).success, "after recovery");
    }

    #[test]
    fn battery_drain_oneshot_kills_the_station() {
        let mut sys = system();
        sys.set_fault_plan(
            FaultPlan::none().oneshot(SimDuration::ZERO, FaultKind::BatteryDrain { joules: 1e9 }),
        );
        let r = sys.execute(&MobileRequest::get("/"));
        assert!(!r.success);
        assert!(r.failure.as_deref().unwrap().contains("battery"));
        assert_eq!(classify(r.failure.as_deref().unwrap()), FailureClass::Permanent);
    }

    #[test]
    fn loss_burst_raises_retransmissions() {
        let run = |burst: Option<f64>| {
            let mut sys = system();
            if let Some(ber) = burst {
                sys.set_fault_plan(FaultPlan::none().window(
                    SimDuration::ZERO,
                    SimDuration::from_secs(3600),
                    FaultKind::LossBurst { ber },
                ));
            }
            let mut retx = 0u32;
            for _ in 0..40 {
                retx += sys.execute(&MobileRequest::get("/")).retransmissions;
            }
            retx
        };
        assert!(run(Some(2e-4)) > run(None), "burst BER must cost retransmissions");
    }

    #[test]
    fn retry_rides_out_a_transient_outage() {
        let mut sys = system();
        sys.set_fault_plan(FaultPlan::none().window(
            SimDuration::ZERO,
            SimDuration::from_millis(600),
            FaultKind::WirelessOutage,
        ));
        let policy = RetryPolicy::standard();
        let mut rng = rng_for(9, "test.retry");
        let r = sys.execute_with_retry(&MobileRequest::get("/"), &policy, &mut rng);
        assert!(r.success, "{:?}", r.failure);
        assert!(r.attempts >= 2, "should have retried, attempts={}", r.attempts);
        // The failed probes' costs are folded into the settled report.
        assert!(r.breakdown.wireless > OUTAGE_PROBE);
    }

    #[test]
    fn gateway_outage_degrades_to_the_fallback_middleware() {
        let mut sys = system();
        sys.set_fault_plan(FaultPlan::none().window(
            SimDuration::ZERO,
            SimDuration::from_secs(3600),
            FaultKind::GatewayOutage,
        ));
        sys.set_fallback_middleware(Some(MiddlewareKind::WapTextual));
        let policy = RetryPolicy::standard();
        let mut rng = rng_for(10, "test.degrade");
        let r = sys.execute_with_retry(&MobileRequest::get("/"), &policy, &mut rng);
        assert!(r.success, "{:?}", r.failure);
        assert_eq!(r.attempts, 2);
        // The primary middleware is restored after the transaction.
        assert!(!sys.middleware_degraded);
        assert_eq!(sys.middleware.name(), WapGateway::default().name());
    }

    #[test]
    fn gateway_outage_without_fallback_or_retry_just_fails() {
        let mut sys = system();
        sys.set_fault_plan(FaultPlan::none().window(
            SimDuration::ZERO,
            SimDuration::from_secs(3600),
            FaultKind::GatewayOutage,
        ));
        let r = sys.execute(&MobileRequest::get("/"));
        assert!(!r.success);
        assert_eq!(
            classify(r.failure.as_deref().unwrap()),
            FailureClass::Degraded
        );
        let policy = RetryPolicy::standard();
        let mut rng = rng_for(11, "test.nofallback");
        // A retrying policy without a fallback cannot fix a degraded path.
        let r = sys.execute_with_retry(&MobileRequest::get("/"), &policy, &mut rng);
        assert!(!r.success);
        assert_eq!(r.attempts, 1);
    }

    #[test]
    fn transcoder_fault_corrupts_binary_wml_only() {
        let mut sys = system();
        sys.set_fault_plan(FaultPlan::none().window(
            SimDuration::ZERO,
            SimDuration::from_secs(3600),
            FaultKind::TranscodeDegraded,
        ));
        let r = sys.execute(&MobileRequest::get("/"));
        assert!(!r.success);
        assert!(r.failure.as_deref().unwrap().contains("transcode degraded"));
        // The textual fallback ships no binary deck, so it sails through.
        sys.set_fallback_middleware(Some(MiddlewareKind::WapTextual));
        let policy = RetryPolicy::standard();
        let mut rng = rng_for(12, "test.transcode");
        let r = sys.execute_with_retry(&MobileRequest::get("/"), &policy, &mut rng);
        assert!(r.success, "{:?}", r.failure);
        assert_eq!(r.attempts, 2);
    }

    #[test]
    fn empty_plan_changes_nothing() {
        let run = |plan: Option<FaultPlan>| {
            let mut sys = system();
            if let Some(plan) = plan {
                sys.set_fault_plan(plan);
            }
            let mut out = Vec::new();
            for _ in 0..10 {
                let r = sys.execute(&MobileRequest::get("/"));
                out.push((r.total(), r.energy_j.to_bits(), r.retransmissions));
            }
            out
        };
        assert_eq!(run(None), run(Some(FaultPlan::none())));
    }
}

#[cfg(test)]
mod cache_tests {
    use super::*;
    use hostsite::db::Database;
    use markup::html;
    
    

    fn system() -> McSystem {
        let mut host = HostComputer::new(Database::new(), 71);
        host.web.static_page(
            "/",
            html::page("Store", vec![html::p("open for business").into()]).to_markup(),
        );
        SystemSpec::new().seed(72).build(host)
    }

    #[test]
    fn warm_hits_skip_the_wired_network_and_the_host() {
        let mut sys = system();
        sys.set_cache_policy(CachePolicy::standard());
        let guard = obs::metrics::enable();
        let cold = sys.execute(&MobileRequest::get("/"));
        let warm = sys.execute(&MobileRequest::get("/"));
        drop(guard);
        let metrics = obs::metrics::take();
        assert!(cold.success && warm.success, "{:?}", warm.failure);
        assert_eq!(metrics.counter("middleware.cache.misses"), 1);
        assert_eq!(metrics.counter("middleware.cache.hits"), 1);
        assert!(metrics.counter("middleware.cache.bytes_saved") > 0);
        // The hit never left the middleware.
        assert!(warm.breakdown.wired.is_zero());
        assert!(warm.breakdown.host.is_zero());
        assert!(warm.total() < cold.total());
        // Same payload either way.
        assert_eq!(
            warm.outcome.as_ref().unwrap().page_text,
            cold.outcome.as_ref().unwrap().page_text
        );
    }

    #[test]
    fn a_disabled_policy_is_byte_identical_to_no_policy() {
        let run = |policy: Option<CachePolicy>| {
            let mut sys = system();
            if let Some(p) = policy {
                sys.set_cache_policy(p);
            }
            (0..6)
                .map(|_| {
                    let r = sys.execute(&MobileRequest::get("/"));
                    (r.total(), r.energy_j.to_bits(), r.air_bytes_down)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(None), run(Some(CachePolicy::disabled())));
        // Zero TTLs with the master switch on: the query cache runs (it
        // is sim-time transparent) but the numbers must not move.
        assert_eq!(
            run(None),
            run(Some(CachePolicy {
                enabled: true,
                ..CachePolicy::disabled()
            }))
        );
    }

    #[test]
    fn a_transcoder_fault_bypasses_the_gateway_cache() {
        let mut sys = system();
        sys.set_cache_policy(CachePolicy::standard());
        // Prime the cache, then wedge the transcoder.
        assert!(sys.execute(&MobileRequest::get("/")).success);
        sys.set_fault_plan(FaultPlan::none().window(
            SimDuration::ZERO,
            SimDuration::from_secs(3600),
            FaultKind::TranscodeDegraded,
        ));
        let guard = obs::metrics::enable();
        let r = sys.execute(&MobileRequest::get("/"));
        drop(guard);
        let metrics = obs::metrics::take();
        // The cached deck must not mask the fault.
        assert!(!r.success);
        assert!(r.failure.as_deref().unwrap().contains("transcode degraded"));
        assert_eq!(metrics.counter("middleware.cache.hits"), 0);
    }

    #[test]
    fn ttl_expiry_sends_the_next_request_back_to_the_host() {
        let mut sys = system();
        sys.set_cache_policy(CachePolicy::standard().ttl(SimDuration::from_secs(2)));
        let guard = obs::metrics::enable();
        assert!(sys.execute(&MobileRequest::get("/")).success);
        sys.idle(5.0); // outlive the 2 s TTL
        assert!(sys.execute(&MobileRequest::get("/")).success);
        drop(guard);
        let metrics = obs::metrics::take();
        assert_eq!(metrics.counter("middleware.cache.hits"), 0);
        assert_eq!(metrics.counter("middleware.cache.misses"), 2);
    }
}

#[cfg(test)]
mod secure_tests {
    use super::*;
    use hostsite::db::Database;
    use markup::html;
    use middleware::MobileRequest;
    

    fn system(secure: bool) -> McSystem {
        let mut host = HostComputer::new(Database::new(), 61);
        host.web.static_page(
            "/",
            html::page("S", vec![html::p("hello secure world").into()]).to_markup(),
        );
        SystemSpec::new().seed(62).secure(secure).build(host)
    }

    #[test]
    fn secure_mode_costs_bytes_cpu_and_a_handshake() {
        let mut plain = system(false);
        let mut secure = system(true);
        let p1 = plain.execute(&MobileRequest::get("/"));
        let s1 = secure.execute(&MobileRequest::get("/"));
        assert!(p1.success && s1.success);
        // Sealed records ship more bytes and burn more energy.
        assert!(s1.air_bytes_up > p1.air_bytes_up);
        assert!(s1.air_bytes_down > p1.air_bytes_down);
        assert!(s1.energy_j > p1.energy_j);
        // The handshake shows up only on the first secure transaction.
        let s2 = secure.execute(&MobileRequest::get("/"));
        assert!(s1.breakdown.station > s2.breakdown.station + SimDuration::from_millis(50));
        // Per-record overhead is a constant number of bytes.
        let p2 = plain.execute(&MobileRequest::get("/"));
        assert_eq!(
            s2.air_bytes_down as i64 - p2.air_bytes_down as i64,
            security::wtls::RECORD_OVERHEAD as i64
        );
    }
}
