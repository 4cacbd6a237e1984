//! Client robustness layer: degraded-mode policy, retry/backoff
//! parameters, and the per-run fault context the engine consults.
//!
//! The paper's client cache exists to keep serving when the shared filer
//! is slow or saturated; this module is the client side of that story
//! under *injected* faults (see `fcache_types::fault`). It owns three
//! things:
//!
//! - the client's retry constants — per-op timeout, bounded retries with
//!   exponential backoff and seeded jitter — and the [`DegradedPolicy`]
//!   (`SimConfig::degraded`) governing read misses during a filer outage.
//!   All durations are simulated time (scaled by the run's `time_scale`);
//!   nothing here touches the wall clock.
//! - `FaultCtx` (crate-internal) — the per-host handle: the host's
//!   jitter RNG, the scaled retry parameters, and the run's shared
//!   `RobustnessState` (the whole-backend schedules and the counters).
//! - [`RobustnessStats`] — the frozen snapshot that lands in
//!   `SimReport::robustness`.
//!
//! Every run builds this layer; an empty fault plan resolves to schedules
//! with no windows. Determinism: jitter draws come from a per-host
//! `SmallRng` seeded from the run seed, and error draws live inside the
//! injection seams. An empty schedule takes no draw and adds no task,
//! sleep or poll, so a fault-free run is the same engine with nothing to
//! inject (PERF.md invariant 10).

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use fcache_des::SimTime;
use fcache_types::{FaultSchedule, ResolvedFaultSet};
use rand::rngs::SmallRng;
use rand::Rng;

/// What a read miss does when the filer is down.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DegradedPolicy {
    /// Park the op until the outage clears, then fetch (availability
    /// first; the default). Cache hits keep serving throughout.
    #[default]
    Queue,
    /// Fail the miss immediately: the op completes without data and is
    /// counted in `failed_ops` (latency first).
    FailFast,
    /// Like [`DegradedPolicy::FailFast`], but any fault-failed op also
    /// fails the whole run with `SimError::Faulted` naming the clause
    /// (consistency first — refuse to serve degraded results).
    Strict,
}

impl DegradedPolicy {
    /// CLI/JSON label.
    pub fn label(&self) -> &'static str {
        match self {
            DegradedPolicy::Queue => "queue",
            DegradedPolicy::FailFast => "failfast",
            DegradedPolicy::Strict => "strict",
        }
    }

    /// Parses a CLI/JSON label.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "queue" => Ok(DegradedPolicy::Queue),
            "failfast" => Ok(DegradedPolicy::FailFast),
            "strict" => Ok(DegradedPolicy::Strict),
            other => Err(format!(
                "unknown degraded policy \"{other}\" (queue|failfast|strict)"
            )),
        }
    }
}

/// Retries after the first failed attempt before an op gives up.
pub(crate) const MAX_RETRIES: u32 = 3;

/// Time the client waits before declaring a failed attempt (charged per
/// failed attempt — the op's timeout clock). Paper-scale: the engine
/// divides it by the run's `time_scale`, like syncer periods.
pub(crate) const OP_TIMEOUT: SimTime = SimTime::from_millis(50);

/// Base backoff delay, doubling per retry. Paper-scale, like
/// [`OP_TIMEOUT`].
pub(crate) const RETRY_BASE: SimTime = SimTime::from_millis(10);

/// Jitter fraction: each backoff is multiplied by `1 + RETRY_JITTER × u`
/// with `u` drawn from the host's seeded RNG.
const RETRY_JITTER: f64 = 0.5;

/// Availability accounting for one resolved fault window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultWindowStat {
    /// Window open time.
    pub start: SimTime,
    /// Window close time.
    pub end: SimTime,
    /// Filer fetches first attempted while the window was open.
    pub ops: u64,
    /// Of those, how many ultimately succeeded.
    pub ok: u64,
}

impl FaultWindowStat {
    /// Fraction of in-window fetches that succeeded (1.0 when idle).
    pub fn availability(&self) -> f64 {
        if self.ops == 0 {
            1.0
        } else {
            self.ok as f64 / self.ops as f64
        }
    }
}

/// Frozen robustness counters for a run (all zero / empty when no fault
/// plan was configured).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RobustnessStats {
    /// Retry attempts after failed exchanges.
    pub retries: u64,
    /// Failed attempts that charged the per-op timeout.
    pub timeouts: u64,
    /// Operations that exhausted their retries (or failed fast) and
    /// completed without data.
    pub failed_ops: u64,
    /// Operations parked until an outage cleared (degraded-mode queueing).
    pub queued_ops: u64,
    /// Write-through writes degraded to writeback-style buffering because
    /// the filer was down when they landed.
    pub buffered_writes: u64,
    /// Simulated time the filer was in outage within the run.
    pub degraded_time: SimTime,
    /// Outage recoveries that found buffered flushes waiting to drain.
    pub drain_events: u64,
    /// Deepest flush backlog observed at any outage recovery.
    pub drain_depth_max: u64,
    /// Total time from outage recovery to a drained flush queue.
    pub drain_time: SimTime,
    /// Per-fault-window availability (filer schedule windows, in order).
    pub windows: Vec<FaultWindowStat>,
}

impl RobustnessStats {
    /// Whether the run exercised the robustness layer at all.
    pub fn engaged(&self) -> bool {
        self.retries > 0
            || self.timeouts > 0
            || self.failed_ops > 0
            || self.queued_ops > 0
            || self.buffered_writes > 0
            || self.degraded_time > SimTime::ZERO
            || self.drain_events > 0
            || !self.windows.is_empty()
    }

    /// Fraction of the run spent with the filer in outage.
    pub fn degraded_fraction(&self, end_time: SimTime) -> f64 {
        if end_time == SimTime::ZERO {
            0.0
        } else {
            self.degraded_time.as_nanos() as f64 / end_time.as_nanos() as f64
        }
    }
}

/// The run's shared fault state: the whole-backend schedules the engine
/// consults and the live robustness counters every host bumps (the sim is
/// single-threaded; `Cell`s follow the `DeviceStats` idiom). One per run.
pub(crate) struct RobustnessState {
    /// Whole-backend filer schedule: write-through degradation, degraded
    /// time, and the recovery-drain probes key on its outages.
    pub filer: FaultSchedule,
    /// Backend accounting schedule (filer plus distinct shard windows);
    /// per-window availability tallies index into *this*.
    pub acct: FaultSchedule,
    pub retries: Cell<u64>,
    pub timeouts: Cell<u64>,
    pub failed_ops: Cell<u64>,
    pub queued_ops: Cell<u64>,
    pub buffered_writes: Cell<u64>,
    pub drain_events: Cell<u64>,
    pub drain_depth_max: Cell<u64>,
    pub drain_time: Cell<u64>, // ns
    /// `(ops, ok)` per accounting window.
    windows: RefCell<Vec<(u64, u64)>>,
    /// First clause whose failure stuck (for `SimError::Faulted`).
    first_fail: RefCell<Option<String>>,
}

impl RobustnessState {
    /// The shared state of a run resolved to `set`.
    pub fn new(set: &ResolvedFaultSet) -> Self {
        let acct = set.backend_accounting();
        Self {
            filer: set.filer.clone(),
            windows: RefCell::new(vec![(0, 0); acct.windows().len()]),
            acct,
            retries: Cell::new(0),
            timeouts: Cell::new(0),
            failed_ops: Cell::new(0),
            queued_ops: Cell::new(0),
            buffered_writes: Cell::new(0),
            drain_events: Cell::new(0),
            drain_depth_max: Cell::new(0),
            drain_time: Cell::new(0),
            first_fail: RefCell::new(None),
        }
    }

    pub fn bump(cell: &Cell<u64>) {
        cell.set(cell.get() + 1);
    }

    /// Records a fetch first attempted inside accounting window `idx`.
    pub fn window_op(&self, idx: Option<usize>) {
        if let Some(i) = idx {
            self.windows.borrow_mut()[i].0 += 1;
        }
    }

    /// Records that an in-window fetch ultimately succeeded.
    pub fn window_ok(&self, idx: Option<usize>) {
        if let Some(i) = idx {
            self.windows.borrow_mut()[i].1 += 1;
        }
    }

    /// Records an op that gave up, remembering the first culprit clause.
    pub fn op_failed(&self, clause: &str) {
        Self::bump(&self.failed_ops);
        let mut first = self.first_fail.borrow_mut();
        if first.is_none() {
            *first = Some(clause.to_string());
        }
    }

    /// The clause behind the first failed op, if any op failed.
    pub fn first_fail(&self) -> Option<String> {
        self.first_fail.borrow().clone()
    }

    /// Records the flush backlog found at one outage recovery.
    pub fn note_drain(&self, depth: u64, took: SimTime) {
        Self::bump(&self.drain_events);
        self.drain_depth_max
            .set(self.drain_depth_max.get().max(depth));
        self.drain_time.set(self.drain_time.get() + took.as_nanos());
    }

    /// Freezes the counters at `end`, pairing window tallies with the
    /// accounting schedule's window bounds.
    pub fn snapshot(&self, end: SimTime) -> RobustnessStats {
        RobustnessStats {
            retries: self.retries.get(),
            timeouts: self.timeouts.get(),
            failed_ops: self.failed_ops.get(),
            queued_ops: self.queued_ops.get(),
            buffered_writes: self.buffered_writes.get(),
            degraded_time: SimTime::from_nanos(self.filer.outage_overlap(end.as_nanos())),
            drain_events: self.drain_events.get(),
            drain_depth_max: self.drain_depth_max.get(),
            drain_time: SimTime::from_nanos(self.drain_time.get()),
            windows: self
                .windows
                .borrow()
                .iter()
                .zip(self.acct.windows())
                .map(|(&(ops, ok), w)| FaultWindowStat {
                    start: SimTime::from_nanos(w.start_ns),
                    end: SimTime::from_nanos(w.end_ns),
                    ops,
                    ok,
                })
                .collect(),
        }
    }
}

/// Per-host fault handle: this host's jitter RNG, the retry constants
/// (pre-scaled to run time), and the run's shared state.
pub(crate) struct FaultCtx {
    /// Per-op timeout, already divided by `time_scale`.
    pub op_timeout: SimTime,
    /// Backoff base, already divided by `time_scale`.
    pub retry_base: SimTime,
    pub rng: RefCell<SmallRng>,
    pub state: Rc<RobustnessState>,
}

impl FaultCtx {
    /// Backoff before retry number `attempt` (1-based): exponential in
    /// the attempt with seeded multiplicative jitter. The exponent is
    /// capped so pathological plans (an error rate of 1.0 over a long
    /// window) cannot overflow the clock.
    pub fn backoff(&self, attempt: u32) -> SimTime {
        let exp = attempt.saturating_sub(1).min(16);
        let base = self.retry_base.times(1u64 << exp);
        let jitter = 1.0 + RETRY_JITTER * self.rng.borrow_mut().gen_range(0.0f64..1.0);
        base.scale(jitter).max(SimTime::from_nanos(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcache_types::FaultPlan;
    use rand::SeedableRng;

    #[test]
    fn degraded_policy_labels_round_trip() {
        for p in [
            DegradedPolicy::Queue,
            DegradedPolicy::FailFast,
            DegradedPolicy::Strict,
        ] {
            assert_eq!(DegradedPolicy::parse(p.label()).unwrap(), p);
        }
        assert!(DegradedPolicy::parse("shrug").is_err());
    }

    #[test]
    fn window_stats_pair_with_schedule() {
        let set = FaultPlan::parse("filer:outage@1s-2s;filer:err0.5@3s-4s")
            .unwrap()
            .resolve_sharded(0, 1, 1)
            .unwrap();
        let st = RobustnessState::new(&set);
        st.window_op(Some(0));
        st.window_op(Some(1));
        st.window_ok(Some(1));
        st.window_op(None);
        let snap = st.snapshot(SimTime::from_secs(10));
        assert_eq!(snap.degraded_time, SimTime::from_secs(1));
        assert_eq!(snap.windows.len(), 2);
        assert_eq!(snap.windows[0].ops, 1);
        assert_eq!(snap.windows[0].ok, 0);
        assert_eq!(snap.windows[0].availability(), 0.0);
        assert_eq!(snap.windows[1].availability(), 1.0);
        assert_eq!(snap.windows[0].start, SimTime::from_secs(1));
    }

    #[test]
    fn backoff_grows_and_jitters_deterministically() {
        let set = FaultPlan::default().resolve_sharded(0, 1, 1).unwrap();
        let make = || FaultCtx {
            op_timeout: OP_TIMEOUT,
            retry_base: RETRY_BASE,
            rng: RefCell::new(SmallRng::seed_from_u64(9)),
            state: Rc::new(RobustnessState::new(&set)),
        };
        let a = make();
        let b = make();
        let mut prev = SimTime::ZERO;
        for attempt in 1..=5 {
            let d = a.backoff(attempt);
            assert_eq!(d, b.backoff(attempt), "same seed, same jitter");
            assert!(d > prev, "backoff must grow: {d:?} after {prev:?}");
            // Bounded by base × 2^(attempt-1) × (1 + jitter).
            let cap = SimTime::from_millis(10)
                .times(1 << (attempt - 1))
                .scale(1.5);
            assert!(d <= cap + SimTime::from_nanos(1));
            prev = d;
        }
    }

    #[test]
    fn engaged_only_when_something_happened() {
        assert!(!RobustnessStats::default().engaged());
        let st = RobustnessStats {
            queued_ops: 1,
            ..RobustnessStats::default()
        };
        assert!(st.engaged());
        let f = RobustnessStats {
            degraded_time: SimTime::from_secs(2),
            ..RobustnessStats::default()
        };
        assert!((f.degraded_fraction(SimTime::from_secs(10)) - 0.2).abs() < 1e-12);
        assert_eq!(f.degraded_fraction(SimTime::ZERO), 0.0);
    }
}
