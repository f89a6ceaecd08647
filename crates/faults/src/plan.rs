//! Seeded sim-time schedules of typed fault events.
//!
//! A [`FaultPlan`] is plain data: interval faults ([`FaultWindow`]) are
//! answered by pure clock comparisons, one-shot faults ([`FaultEvent`])
//! by walking a cursor ([`FaultState`]) forward as the clock crosses
//! them. Neither draws randomness at query time, which is what makes an
//! idle plan free and a fixed-seed faulted run reproducible at any
//! thread count.

use rand::rngs::StdRng;
use rand::RngExt;

use simnet::rng::rng_for;
use simnet::SimDuration;

/// The typed faults the six paper components can suffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The access point / cell goes dark: no air link until the window
    /// ends and the forced handoff completes (wireless component).
    WirelessOutage,
    /// A burst of channel errors: the air link's bit-error rate is
    /// raised to at least `ber` for the window — the frame-granularity
    /// face of a Gilbert–Elliott bad state (wireless component).
    LossBurst {
        /// Bit-error-rate floor while the burst is active.
        ber: f64,
    },
    /// The WAP / i-mode gateway is unreachable (middleware component).
    GatewayOutage,
    /// The gateway's transcoder is wedged: binary-encoded decks come out
    /// corrupt; textual fallback still works (middleware component).
    TranscodeDegraded,
    /// One-shot: the host database crashes and restarts, replaying its
    /// write-ahead journal (host computer component).
    DbCrash,
    /// One-shot: a battery drain spike — backlight burst, rogue app —
    /// of the given energy (mobile station component).
    BatteryDrain {
        /// Energy drained instantaneously, in joules.
        joules: f64,
    },
}

impl FaultKind {
    /// Stable display name, used in span/metric labels.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            FaultKind::WirelessOutage => "wireless_outage",
            FaultKind::LossBurst { .. } => "loss_burst",
            FaultKind::GatewayOutage => "gateway_outage",
            FaultKind::TranscodeDegraded => "transcode_degraded",
            FaultKind::DbCrash => "db_crash",
            FaultKind::BatteryDrain { .. } => "battery_drain",
        }
    }

    /// True for instantaneous faults scheduled with [`FaultPlan::oneshot`]
    /// rather than [`FaultPlan::window`].
    pub(crate) fn is_oneshot(&self) -> bool {
        matches!(self, FaultKind::DbCrash | FaultKind::BatteryDrain { .. })
    }

    fn validate(&self) {
        let ok = match *self {
            FaultKind::LossBurst { ber } => (0.0..1.0).contains(&ber),
            FaultKind::BatteryDrain { joules } => joules >= 0.0 && joules.is_finite(),
            _ => true,
        };
        assert!(ok, "fault parameters out of range: {self:?}");
    }
}

/// An interval fault: `kind` is active on `[start_ns, start_ns + duration_ns)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FaultWindow {
    /// Window start on the per-user sim clock, nanoseconds.
    pub(crate) start_ns: u64,
    /// Window length, nanoseconds.
    pub(crate) duration_ns: u64,
    /// The active fault.
    pub(crate) kind: FaultKind,
}

impl FaultWindow {
    /// One past the last covered nanosecond.
    pub(crate) fn end_ns(&self) -> u64 {
        self.start_ns.saturating_add(self.duration_ns)
    }

    /// True when `now_ns` falls inside the window.
    pub(crate) fn covers(&self, now_ns: u64) -> bool {
        self.start_ns <= now_ns && now_ns < self.end_ns()
    }
}

/// A one-shot fault firing the first time the clock reaches `at_ns`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Firing time on the per-user sim clock, nanoseconds.
    pub(crate) at_ns: u64,
    /// The fault that fires.
    pub kind: FaultKind,
}

/// A deterministic schedule of faults against one simulated user's clock.
///
/// Build explicitly with [`FaultPlan::window`] / [`FaultPlan::oneshot`],
/// or generate a whole storm from a seed with [`FaultPlan::storm`]. An
/// empty plan answers every query `false` without drawing randomness.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    windows: Vec<FaultWindow>,
    oneshots: Vec<FaultEvent>,
}

/// Per-user progress through a plan's one-shot faults.
///
/// Plans are shared read-only across users and threads; each user owns
/// its own cursor so the same `DbCrash` fires exactly once per user.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultState {
    cursor: usize,
}

impl FaultPlan {
    /// The empty plan: injects nothing, costs nothing.
    pub fn none() -> Self {
        Self::default()
    }

    /// Adds an interval fault active on `[start, start + duration)`.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is a one-shot fault or its parameters are out of
    /// range.
    pub fn window(mut self, start: SimDuration, duration: SimDuration, kind: FaultKind) -> Self {
        kind.validate();
        assert!(
            !kind.is_oneshot(),
            "{} is a one-shot fault: use FaultPlan::oneshot",
            kind.name()
        );
        self.windows.push(FaultWindow {
            start_ns: start.as_nanos(),
            duration_ns: duration.as_nanos(),
            kind,
        });
        self.windows.sort_by_key(|w| w.start_ns);
        self
    }

    /// Adds a one-shot fault firing when the clock first reaches `at`.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is an interval fault or its parameters are out of
    /// range.
    pub fn oneshot(mut self, at: SimDuration, kind: FaultKind) -> Self {
        kind.validate();
        assert!(
            kind.is_oneshot(),
            "{} is an interval fault: use FaultPlan::window",
            kind.name()
        );
        self.oneshots.push(FaultEvent {
            at_ns: at.as_nanos(),
            kind,
        });
        self.oneshots.sort_by_key(|e| e.at_ns);
        self
    }

    /// True when the plan schedules nothing at all.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty() && self.oneshots.is_empty()
    }

    /// The interval faults, sorted by start time.
    pub(crate) fn windows(&self) -> &[FaultWindow] {
        &self.windows
    }

    /// A fresh one-shot cursor for a user starting at clock zero.
    pub fn state(&self) -> FaultState {
        FaultState::default()
    }

    /// Advances `state` past every one-shot whose time the clock has
    /// reached and returns the newly fired events, oldest first.
    pub fn oneshots_due<'a>(&'a self, state: &mut FaultState, now_ns: u64) -> &'a [FaultEvent] {
        let start = state.cursor;
        while state.cursor < self.oneshots.len() && self.oneshots[state.cursor].at_ns <= now_ns {
            state.cursor += 1;
        }
        &self.oneshots[start..state.cursor]
    }

    /// True while a [`FaultKind::WirelessOutage`] window covers `now_ns`.
    pub fn outage_active(&self, now_ns: u64) -> bool {
        self.windows
            .iter()
            .any(|w| matches!(w.kind, FaultKind::WirelessOutage) && w.covers(now_ns))
    }

    /// The highest [`FaultKind::LossBurst`] BER floor covering `now_ns`,
    /// if any burst is active.
    pub fn burst_ber(&self, now_ns: u64) -> Option<f64> {
        self.windows
            .iter()
            .filter_map(|w| match w.kind {
                FaultKind::LossBurst { ber } if w.covers(now_ns) => Some(ber),
                _ => None,
            })
            .fold(None, |acc, ber| Some(acc.map_or(ber, |a: f64| a.max(ber))))
    }

    /// True while a [`FaultKind::GatewayOutage`] window covers `now_ns`.
    pub fn gateway_down(&self, now_ns: u64) -> bool {
        self.windows
            .iter()
            .any(|w| matches!(w.kind, FaultKind::GatewayOutage) && w.covers(now_ns))
    }

    /// True while a [`FaultKind::TranscodeDegraded`] window covers `now_ns`.
    pub fn transcode_degraded(&self, now_ns: u64) -> bool {
        self.windows
            .iter()
            .any(|w| matches!(w.kind, FaultKind::TranscodeDegraded) && w.covers(now_ns))
    }

    /// Generates a whole deterministic fault storm over `[0, horizon)`.
    ///
    /// `intensity` scales how many faults land: at `1.0` a user sees a
    /// few of every kind over a ten-second horizon; `0.0` yields the
    /// empty plan. Identical `(seed, horizon, intensity)` always yields
    /// the identical storm.
    pub fn storm(seed: u64, horizon: SimDuration, intensity: f64) -> Self {
        assert!(
            intensity >= 0.0 && intensity.is_finite(),
            "storm intensity must be finite and non-negative"
        );
        if intensity == 0.0 {
            return Self::none();
        }
        let mut rng = rng_for(seed, "faults.storm");
        let horizon_s = horizon.as_secs_f64();
        let mut plan = Self::none();

        // Expected event counts per kind, scaled by intensity; the
        // fractional part is resolved by one deterministic coin flip.
        let count = |rng: &mut StdRng, per_10s: f64| -> usize {
            let expected = intensity * per_10s * horizon_s / 10.0;
            expected as usize + usize::from(rng.random_bool(expected.fract()))
        };
        let uniform = |rng: &mut StdRng, lo: f64, hi: f64| lo + rng.random::<f64>() * (hi - lo);

        for _ in 0..count(&mut rng, 1.5) {
            let start = uniform(&mut rng, 0.0, horizon_s);
            let dur = uniform(&mut rng, 0.4, 1.2);
            plan = plan.window(
                SimDuration::from_secs_f64(start),
                SimDuration::from_secs_f64(dur),
                FaultKind::WirelessOutage,
            );
        }
        for _ in 0..count(&mut rng, 2.0) {
            let start = uniform(&mut rng, 0.0, horizon_s);
            let dur = uniform(&mut rng, 0.8, 2.5);
            let ber = uniform(&mut rng, 8e-5, 4e-4);
            plan = plan.window(
                SimDuration::from_secs_f64(start),
                SimDuration::from_secs_f64(dur),
                FaultKind::LossBurst { ber },
            );
        }
        for _ in 0..count(&mut rng, 1.0) {
            let start = uniform(&mut rng, 0.0, horizon_s);
            let dur = uniform(&mut rng, 0.5, 1.5);
            plan = plan.window(
                SimDuration::from_secs_f64(start),
                SimDuration::from_secs_f64(dur),
                FaultKind::GatewayOutage,
            );
        }
        for _ in 0..count(&mut rng, 0.8) {
            let start = uniform(&mut rng, 0.0, horizon_s);
            let dur = uniform(&mut rng, 0.8, 2.0);
            plan = plan.window(
                SimDuration::from_secs_f64(start),
                SimDuration::from_secs_f64(dur),
                FaultKind::TranscodeDegraded,
            );
        }
        if rng.random_bool((intensity * 0.6).min(1.0)) {
            let at = uniform(&mut rng, 0.1 * horizon_s, 0.9 * horizon_s);
            plan = plan.oneshot(SimDuration::from_secs_f64(at), FaultKind::DbCrash);
        }
        for _ in 0..count(&mut rng, 0.8) {
            let at = uniform(&mut rng, 0.0, horizon_s);
            let joules = uniform(&mut rng, 10.0, 40.0);
            plan = plan.oneshot(
                SimDuration::from_secs_f64(at),
                FaultKind::BatteryDrain { joules },
            );
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: f64) -> SimDuration {
        SimDuration::from_secs_f64(s)
    }

    #[test]
    fn empty_plan_answers_everything_false() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        assert!(!plan.outage_active(0));
        assert!(plan.burst_ber(u64::MAX).is_none());
        assert!(!plan.gateway_down(5_000_000_000));
        assert!(!plan.transcode_degraded(5_000_000_000));
        let mut state = plan.state();
        assert!(plan.oneshots_due(&mut state, u64::MAX).is_empty());
    }

    #[test]
    fn window_queries_respect_boundaries() {
        let plan = FaultPlan::none().window(secs(1.0), secs(2.0), FaultKind::WirelessOutage);
        let ns = |s: f64| secs(s).as_nanos();
        assert!(!plan.outage_active(ns(0.999)));
        assert!(plan.outage_active(ns(1.0)));
        assert!(plan.outage_active(ns(2.999)));
        assert!(!plan.outage_active(ns(3.0)));
    }

    #[test]
    fn burst_ber_takes_the_max_of_overlapping_windows() {
        let plan = FaultPlan::none()
            .window(secs(0.0), secs(10.0), FaultKind::LossBurst { ber: 1e-4 })
            .window(secs(2.0), secs(2.0), FaultKind::LossBurst { ber: 5e-4 });
        let ns = |s: f64| secs(s).as_nanos();
        assert_eq!(plan.burst_ber(ns(1.0)), Some(1e-4));
        assert_eq!(plan.burst_ber(ns(3.0)), Some(5e-4));
        assert_eq!(plan.burst_ber(ns(11.0)), None);
    }

    #[test]
    fn oneshots_fire_once_in_order() {
        let plan = FaultPlan::none()
            .oneshot(secs(5.0), FaultKind::DbCrash)
            .oneshot(secs(1.0), FaultKind::BatteryDrain { joules: 5.0 });
        let mut state = plan.state();
        let ns = |s: f64| secs(s).as_nanos();
        assert!(plan.oneshots_due(&mut state, ns(0.5)).is_empty());
        let first = plan.oneshots_due(&mut state, ns(2.0));
        assert_eq!(first.len(), 1);
        assert!(matches!(first[0].kind, FaultKind::BatteryDrain { .. }));
        // Already-fired events never fire again.
        assert!(plan.oneshots_due(&mut state, ns(2.0)).is_empty());
        let second = plan.oneshots_due(&mut state, ns(60.0));
        assert_eq!(second.len(), 1);
        assert!(matches!(second[0].kind, FaultKind::DbCrash));
    }

    #[test]
    #[should_panic(expected = "one-shot fault")]
    fn oneshot_kind_rejected_as_window() {
        let _ = FaultPlan::none().window(secs(0.0), secs(1.0), FaultKind::DbCrash);
    }

    #[test]
    #[should_panic(expected = "interval fault")]
    fn interval_kind_rejected_as_oneshot() {
        let _ = FaultPlan::none().oneshot(secs(0.0), FaultKind::GatewayOutage);
    }

    #[test]
    fn storm_is_deterministic_and_scales_with_intensity() {
        let a = FaultPlan::storm(42, secs(30.0), 1.0);
        let b = FaultPlan::storm(42, secs(30.0), 1.0);
        assert_eq!(a, b);
        assert!(!a.is_empty(), "intensity 1 over 30 s must schedule faults");
        let calm = FaultPlan::storm(42, secs(30.0), 0.0);
        assert!(calm.is_empty());
        let heavy = FaultPlan::storm(42, secs(30.0), 4.0);
        assert!(
            heavy.windows().len() > a.windows().len(),
            "higher intensity must schedule more windows ({} vs {})",
            heavy.windows().len(),
            a.windows().len()
        );
    }
}
