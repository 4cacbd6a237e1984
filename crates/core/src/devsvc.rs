//! Device timing service: queue-aware SSD latency in the simulation hot
//! path.
//!
//! The paper's §6.2 validation shows real client SSDs have fill-, wear-,
//! and locality-dependent latency, but the engine historically charged a
//! flat [`fcache_device::FlashModel`] latency per flash op, leaving the
//! behavioral [`SsdModel`] to an offline replay bench. [`DeviceService`]
//! closes that gap: every flash read and write in the engine routes through
//! one per-host service that either
//!
//! - charges the **flat** Table 1 latency exactly as before (the default —
//!   bit-identical reports, zero added cost), or
//! - services the op against a **queue-aware SSD**: a bounded NCQ-style
//!   service queue ([`fcache_des::Resource`] with `queue_depth` slots,
//!   strict FIFO) in front of the behavioral [`SsdModel`] (FTL map-cache
//!   locality, fill penalty, wear penalty, short-term noise). Ops submit,
//!   wait for a free slot when the device is saturated, then complete
//!   after their drawn service time.
//!
//! The selector is [`crate::SimConfig::flash_timing`]. In SSD mode the
//! service also keeps device-level statistics (read/write latency
//! histograms, queue-depth occupancy) and, when
//! [`crate::SimConfig::device_window`] is nonzero, per-window latency
//! averages — the data behind Figure 1, now produced by an in-engine run
//! instead of an offline log replay.
//!
//! Determinism: each host owns one device whose RNG seed derives from
//! `(ssd seed, run seed, host id)` ([`fcache_device::SsdConfig::for_host`]), service
//! times are drawn in FIFO grant order inside a deterministic DES, and the
//! queue is strict FIFO — the same configuration and trace always produce
//! the same device timings (asserted by `tests/sweep_determinism.rs`).
//!
//! Hand-over: a single command that waits for a slot draws its service
//! time in the NCQ's grant hook, at its task's place in the ready queue
//! (where its own poll would have drawn it), and its task is armed for
//! the end of the service instead of being polled to start a sleep
//! (PERF.md invariant 17).

use std::cell::{Cell, RefCell};
use std::convert::Infallible;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use fcache_des::executor::Sleep;
use fcache_des::resource::Acquire;
use fcache_des::{CompletionSet, GrantHook, GrantPlace, Resource, ResourceGuard, Sim, SimTime};
use fcache_device::{IoDirection, IoLog, SsdModel, WindowAcc, WindowStat};
use fcache_types::{BlockAddr, FaultEffect, FaultSchedule, HostId, Phase};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::config::{FlashTiming, SimConfig};
use crate::histogram::{HistogramSnapshot, LatencyHistogram};
use crate::robust::RETRY_BASE;
use crate::telemetry::{OpSpan, TelemetryCtx};

/// Per-host flash device timing service. Owned by each
/// [`crate::host`]`::HostCtx`; the engine performs no flash sleep outside
/// of it.
pub struct DeviceService {
    sim: Sim,
    /// Shared flash I/O log (same handle as the host's; appends are no-ops
    /// when logging is disabled).
    iolog: IoLog,
    /// Flat read latency (effective, from the `FlashModel`).
    flat_read: SimTime,
    /// Flat write latency (effective: includes the §7.8 persistence
    /// doubling).
    flat_write: SimTime,
    /// Whether the cache keeps recoverable on-flash metadata (§7.8). In
    /// SSD mode a persistent write services two device writes per block —
    /// "one of the data and one for the meta-data".
    persistent: bool,
    /// LBA space of the backing flash tier (for the address hash).
    lba_space: u64,
    /// Queue-aware SSD state; `None` in flat mode.
    ssd: Option<SsdQueue>,
    /// Fault-injection state; its schedule is empty unless the run's plan
    /// targets the device.
    faults: DevFaults,
    /// The host's telemetry collector, when telemetry is on.
    telemetry: Option<Rc<TelemetryCtx>>,
}

/// Device-target fault state (see `fcache_types::fault`).
struct DevFaults {
    /// Resolved schedule for [`fcache_types::FaultTarget::Device`].
    sched: FaultSchedule,
    /// Error-rate draw stream (per host, seeded from the run seed).
    rng: RefCell<SmallRng>,
    /// Pause before re-probing after a transient device error: the
    /// client's retry base, scaled to run time.
    retry: SimTime,
    /// Dispatches parked by an outage; folded into the run's
    /// `queued_ops` at collection.
    queued: Cell<u64>,
    /// Re-probes after a transient error; folded into `retries`.
    retries: Cell<u64>,
}

/// The NCQ-style service queue plus the behavioral model behind it.
struct SsdQueue {
    /// Bounded service slots: up to `depth` commands in service at once,
    /// FIFO admission beyond that.
    slots: Resource<Ncq>,
    depth: usize,
    dev: Rc<SsdDevice>,
}

/// The behavioral model and what its draws feed.
struct SsdDevice {
    model: RefCell<SsdModel>,
    stats: DeviceStats,
    /// Figure-1-style per-window averages; `None` when
    /// [`crate::SimConfig::device_window`] is 0.
    windows: Option<RefCell<WindowAcc>>,
}

impl SsdDevice {
    /// Draws one command's service time, scaled by the fault multiplier,
    /// and records it.
    fn serve(&self, dir: IoDirection, lba: u64, scale: f64) -> SimTime {
        let t = {
            let mut m = self.model.borrow_mut();
            match dir {
                IoDirection::Read => m.read(lba),
                IoDirection::Write => m.write(lba),
            }
        };
        let t = DeviceService::inflate(t, scale);
        self.stats.note_complete(dir, t);
        if let Some(acc) = &self.windows {
            acc.borrow_mut().record(dir, t);
        }
        t
    }
}

/// One single command's service, as its grant draws it.
struct Draw {
    dir: IoDirection,
    lba: u64,
    scale: f64,
}

/// The NCQ's grant hook. A single command draws its service at its grant,
/// moves its op's span to `DeviceService` there, and holds its slot until
/// the service ends, armed when granted by a release. A command of a
/// batch draws in its task's poll instead ([`SsdQueue::step`]): the
/// batch's other commands share that poll.
struct Ncq {
    dev: Rc<SsdDevice>,
    telemetry: Option<Rc<TelemetryCtx>>,
}

impl GrantHook for Ncq {
    /// A single command's draw; `None` for a command of a batch.
    type Request = Option<Draw>;
    /// The single command's sleep to the end of its service.
    type Outcome = Option<Sleep>;

    fn grant(&mut self, req: Option<Draw>, place: &mut GrantPlace<'_>) -> Option<Sleep> {
        let Draw { dir, lba, scale } = req?;
        let t = self.dev.serve(dir, lba, scale);
        let sim = place.sim();
        enter(&self.telemetry, sim, Phase::DeviceService);
        // A zero service time ends at once: the grantee is polled.
        Some(place.sleep_until(sim.now() + t))
    }
}

/// Moves the polled op thread's span to `phase` (see `HostCtx::enter`).
fn enter(telemetry: &Option<Rc<TelemetryCtx>>, sim: &Sim, phase: Phase) {
    if let Some(t) = telemetry {
        t.update_span(sim, |sp| sp.enter(sim.now(), phase));
    }
}

/// Device-level counters (SSD mode only; flat mode records nothing so the
/// default path stays zero-cost).
#[derive(Default)]
struct DeviceStats {
    reads: Cell<u64>,
    writes: Cell<u64>,
    read_time: Cell<u64>,  // ns
    write_time: Cell<u64>, // ns
    queue_waits: Cell<u64>,
    depth_sum: Cell<u64>,
    depth_samples: Cell<u64>,
    depth_max: Cell<u64>,
    read_hist: LatencyHistogram,
    write_hist: LatencyHistogram,
}

impl DeviceStats {
    /// Records queue occupancy observed by one submission (before it
    /// enters), and whether it had to wait for a slot.
    fn note_submit(&self, inflight: u64, waited: bool) {
        self.depth_sum.set(self.depth_sum.get() + inflight);
        self.depth_samples.set(self.depth_samples.get() + 1);
        self.depth_max.set(self.depth_max.get().max(inflight));
        if waited {
            self.queue_waits.set(self.queue_waits.get() + 1);
        }
    }

    fn note_complete(&self, dir: IoDirection, t: SimTime) {
        match dir {
            IoDirection::Read => {
                self.reads.set(self.reads.get() + 1);
                self.read_time.set(self.read_time.get() + t.as_nanos());
                self.read_hist.record(t);
            }
            IoDirection::Write => {
                self.writes.set(self.writes.get() + 1);
                self.write_time.set(self.write_time.get() + t.as_nanos());
                self.write_hist.record(t);
            }
        }
    }

    fn reset(&self) {
        self.reads.set(0);
        self.writes.set(0);
        self.read_time.set(0);
        self.write_time.set(0);
        self.queue_waits.set(0);
        self.depth_sum.set(0);
        self.depth_samples.set(0);
        self.depth_max.set(0);
        self.read_hist.reset();
        self.write_hist.reset();
    }

    fn snapshot(&self) -> DeviceStatsSnapshot {
        DeviceStatsSnapshot {
            reads: self.reads.get(),
            writes: self.writes.get(),
            read_time: SimTime::from_nanos(self.read_time.get()),
            write_time: SimTime::from_nanos(self.write_time.get()),
            queue_waits: self.queue_waits.get(),
            depth_sum: self.depth_sum.get(),
            depth_samples: self.depth_samples.get(),
            depth_max: self.depth_max.get(),
            read_hist: self.read_hist.snapshot(),
            write_hist: self.write_hist.snapshot(),
        }
    }
}

/// Frozen device-service counters (all zero in flat mode).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeviceStatsSnapshot {
    /// Device reads serviced.
    pub reads: u64,
    /// Device writes serviced.
    pub writes: u64,
    /// Sum of read service times.
    pub read_time: SimTime,
    /// Sum of write service times.
    pub write_time: SimTime,
    /// Submissions that found every service slot busy and had to queue.
    pub queue_waits: u64,
    /// Sum of the queue occupancy (in-service + waiting) each submission
    /// observed.
    pub depth_sum: u64,
    /// Submissions sampled for occupancy.
    pub depth_samples: u64,
    /// Peak queue occupancy observed by any submission.
    pub depth_max: u64,
    /// Per-read device service-time distribution.
    pub read_hist: HistogramSnapshot,
    /// Per-write device service-time distribution.
    pub write_hist: HistogramSnapshot,
}

impl DeviceStatsSnapshot {
    /// Total device ops serviced.
    pub fn ops(&self) -> u64 {
        self.reads + self.writes
    }

    /// Mean device read service time in microseconds (0 when no reads).
    pub fn read_avg_us(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.read_time.as_nanos() as f64 / self.reads as f64 / 1000.0
        }
    }

    /// Mean device write service time in microseconds (0 when no writes).
    pub fn write_avg_us(&self) -> f64 {
        if self.writes == 0 {
            0.0
        } else {
            self.write_time.as_nanos() as f64 / self.writes as f64 / 1000.0
        }
    }

    /// Mean queue occupancy observed at submission (0 when unsampled).
    pub fn mean_queue_depth(&self) -> f64 {
        if self.depth_samples == 0 {
            0.0
        } else {
            self.depth_sum as f64 / self.depth_samples as f64
        }
    }
}

impl std::ops::AddAssign for DeviceStatsSnapshot {
    fn add_assign(&mut self, rhs: Self) {
        self.reads += rhs.reads;
        self.writes += rhs.writes;
        self.read_time += rhs.read_time;
        self.write_time += rhs.write_time;
        self.queue_waits += rhs.queue_waits;
        self.depth_sum += rhs.depth_sum;
        self.depth_samples += rhs.depth_samples;
        self.depth_max = self.depth_max.max(rhs.depth_max);
        // Histograms merge bucket-wise through their snapshots.
        self.read_hist = self.read_hist.merged(&rhs.read_hist);
        self.write_hist = self.write_hist.merged(&rhs.write_hist);
    }
}

impl DeviceService {
    /// Builds the service for one host from the run configuration. The SSD
    /// variant resolves the auto-capacity sentinel against the host's flash
    /// tier and derives the per-host device seed; flat mode stores the two
    /// effective `FlashModel` latencies and nothing else.
    pub fn new(sim: Sim, cfg: &SimConfig, host: HostId, iolog: IoLog) -> Self {
        Self::with_telemetry(sim, cfg, host, iolog, None)
    }

    /// [`Self::new`], attributing device time to the spans of
    /// `telemetry`.
    pub(crate) fn with_telemetry(
        sim: Sim,
        cfg: &SimConfig,
        host: HostId,
        iolog: IoLog,
        telemetry: Option<Rc<TelemetryCtx>>,
    ) -> Self {
        let ssd = match &cfg.flash_timing {
            FlashTiming::Flat => None,
            FlashTiming::Ssd(sc) => {
                let mut sc = sc.clone();
                if sc.capacity_blocks == 0 {
                    sc = sc.fit_capacity(cfg.flash_blocks() as u64);
                }
                let sc = sc.for_host(cfg.seed, host.0);
                let depth = sc.queue_depth.max(1);
                let dev = Rc::new(SsdDevice {
                    model: RefCell::new(SsdModel::new(sc)),
                    stats: DeviceStats::default(),
                    windows: (cfg.device_window > 0)
                        .then(|| RefCell::new(WindowAcc::new(cfg.device_window))),
                });
                let ncq = Ncq {
                    dev: Rc::clone(&dev),
                    telemetry: telemetry.clone(),
                };
                Some(SsdQueue {
                    slots: Resource::with_hook(&sim, depth, ncq),
                    depth,
                    dev,
                })
            }
        };
        Self {
            sim,
            iolog,
            flat_read: cfg.flash_model.read_latency(),
            flat_write: cfg.flash_model.write_latency(),
            persistent: cfg.flash_model.persistent,
            lba_space: cfg.flash_blocks().max(1) as u64,
            ssd,
            faults: DevFaults {
                sched: FaultSchedule::default(),
                rng: RefCell::new(SmallRng::seed_from_u64(0)),
                retry: cfg.scaled_time(RETRY_BASE),
                queued: Cell::new(0),
                retries: Cell::new(0),
            },
            telemetry,
        }
    }

    /// Moves the polled op thread's span to `phase` (see `HostCtx::enter`).
    fn enter(&self, phase: Phase) {
        enter(&self.telemetry, &self.sim, phase);
    }

    /// Sets the device fault schedule (builder style) and seeds its error
    /// draws.
    pub(crate) fn with_faults(mut self, sched: FaultSchedule, seed: u64) -> Self {
        self.faults = DevFaults {
            sched,
            rng: RefCell::new(SmallRng::seed_from_u64(seed)),
            ..self.faults
        };
        self
    }

    /// Dispatches this device parked for an outage and re-probed after a
    /// transient error, as `(queued, retries)`.
    pub(crate) fn fault_counts(&self) -> (u64, u64) {
        (self.faults.queued.get(), self.faults.retries.get())
    }

    /// Admits one dispatch through the device fault schedule, returning the
    /// service-time multiplier in force (1.0 under an empty schedule,
    /// which takes no draw and never sleeps). Outages park the dispatch
    /// until the window closes; transient errors pause and re-probe (a
    /// cache device retries internally — the op never fails up the stack,
    /// it just takes longer).
    async fn fault_admit(&self) -> f64 {
        let f = &self.faults;
        loop {
            let eff = {
                let mut rng = f.rng.borrow_mut();
                f.sched.effect_at(self.sim.now().as_nanos(), &mut || {
                    rng.gen_range(0.0f64..1.0)
                })
            };
            match eff {
                FaultEffect::None => return 1.0,
                FaultEffect::SlowBy(x) => return x,
                FaultEffect::Fail {
                    until_ns: Some(end),
                    ..
                } => {
                    f.queued.set(f.queued.get() + 1);
                    let wait = SimTime::from_nanos(end).saturating_sub(self.sim.now());
                    self.enter(Phase::DegradedPark);
                    self.sim.sleep(wait.max(SimTime::from_nanos(1))).await;
                }
                FaultEffect::Fail { until_ns: None, .. } => {
                    f.retries.set(f.retries.get() + 1);
                    if let Some(t) = &self.telemetry {
                        t.update_span(&self.sim, OpSpan::note_retry);
                    }
                    self.enter(Phase::RetryBackoff);
                    self.sim.sleep(f.retry).await;
                }
            }
        }
    }

    /// Applies a fault multiplier without perturbing the fault-free path
    /// (scaling by exactly 1.0 must not round through `f64`).
    fn inflate(t: SimTime, m: f64) -> SimTime {
        if m == 1.0 {
            t
        } else {
            t.scale(m)
        }
    }

    /// True when the queue-aware SSD services ops (i.e. `flash_timing` is
    /// [`FlashTiming::Ssd`]).
    pub fn is_queued(&self) -> bool {
        self.ssd.is_some()
    }

    /// Maps a file block address onto the device's LBA space (the
    /// simulator does not model flash layout; a stable hash preserves the
    /// locality structure the SSD model cares about).
    pub fn lba(&self, addr: BlockAddr) -> u64 {
        (addr.to_u64().wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 16) % self.lba_space
    }

    /// Flat-mode fast path for read hits whose latency the caller
    /// accumulates into one combined sleep (the unified lookup loop):
    /// returns `Some(latency)` after logging the access, or `None` in SSD
    /// mode or when the device schedule has windows, where the caller must
    /// collect the block and [`Self::read`] it after the loop.
    pub fn try_flat_read(&self, addr: BlockAddr) -> Option<SimTime> {
        if self.ssd.is_some() || !self.faults.sched.is_empty() {
            // Fault handling may need to park the dispatch, which cannot
            // happen under the caller's cache borrow — route through
            // [`Self::read`] like an SSD-mode hit.
            return None;
        }
        self.iolog.log_read(self.lba(addr));
        Some(self.flat_read)
    }

    /// Services one block read (flash-tier hit in the unified cache, or a
    /// writeback's read off the device).
    pub async fn read(&self, addr: BlockAddr) {
        let lba = self.lba(addr);
        self.iolog.log_read(lba);
        let m = self.fault_admit().await;
        match &self.ssd {
            None => {
                self.enter(Phase::DeviceService);
                self.sim.sleep(Self::inflate(self.flat_read, m)).await;
            }
            Some(q) => {
                q.service(self, IoDirection::Read, lba, m).await;
            }
        }
    }

    /// Services a batch of block reads issued by one operation (the
    /// layered read path's flash hits). Flat mode charges one combined
    /// sleep of `n × read latency` — exactly the pre-service engine
    /// behavior. SSD mode submits one command per *distinct* LBA into the
    /// bounded NCQ at once and completes when the last command finishes:
    /// the batch overlaps across the queue's service slots instead of
    /// paying `n × serial service`.
    pub async fn read_blocks(&self, addrs: &[BlockAddr]) {
        if addrs.is_empty() {
            return;
        }
        // One batch is one request stream: admit it through the fault
        // schedule once, like one command at the device interface.
        let m = self.fault_admit().await;
        match &self.ssd {
            None => {
                for &a in addrs {
                    self.iolog.log_read(self.lba(a));
                }
                self.enter(Phase::DeviceService);
                self.sim
                    .sleep(Self::inflate(self.flat_read.times(addrs.len() as u64), m))
                    .await;
            }
            Some(q) => {
                // One device command per distinct LBA, first-occurrence
                // order (repeats inside one op would hit the device's
                // internal cache, and the iolog records each LBA once).
                let mut batch = take_batch();
                for &a in addrs {
                    let lba = self.lba(a);
                    let repeat = batch
                        .pending()
                        .iter()
                        .any(|c| matches!(*c, Cmd::New(l) if l == lba));
                    if !repeat {
                        batch.submit(Cmd::New(lba));
                    }
                }
                for cmd in batch.pending() {
                    if let Cmd::New(lba) = *cmd {
                        self.iolog.log_read(lba);
                    }
                }
                q.service_batch(self, IoDirection::Read, batch, m).await;
            }
        }
    }

    /// Services one block write (any flash landing). Flat mode preserves
    /// the pre-service order (sleep, then log); SSD mode submits to the
    /// queue. When the cache keeps persistent metadata (§7.8), the block
    /// is a two-command batch — "one of the data and one for the
    /// meta-data" — overlapped across the NCQ like any other batch.
    pub async fn write_block(&self, addr: BlockAddr) {
        let lba = self.lba(addr);
        let m = self.fault_admit().await;
        match &self.ssd {
            None => {
                self.enter(Phase::DeviceService);
                self.sim.sleep(Self::inflate(self.flat_write, m)).await;
                self.iolog.log_write(lba);
            }
            Some(q) => {
                self.iolog.log_write(lba);
                if self.persistent {
                    let mut batch = take_batch();
                    batch.submit(Cmd::New(lba));
                    batch.submit(Cmd::New(lba));
                    q.service_batch(self, IoDirection::Write, batch, m).await;
                } else {
                    q.service(self, IoDirection::Write, lba, m).await;
                }
            }
        }
    }

    /// [`Self::read_blocks`] with perfbench's always-`None` second argument.
    pub async fn read_batch(&self, addrs: &[BlockAddr], _: Option<Infallible>) {
        self.read_blocks(addrs).await;
    }

    /// [`Self::write_block`] with perfbench's always-`None` second argument.
    pub async fn write(&self, addr: BlockAddr, _: Option<Infallible>) {
        self.write_block(addr).await;
    }

    /// Current device queue occupancy (in service + waiting); 0 in flat
    /// mode, where there is no queue. The telemetry window's queue-depth
    /// sample.
    pub fn queue_depth(&self) -> u64 {
        self.ssd.as_ref().map_or(0, SsdQueue::inflight)
    }

    /// Frozen counters (all zero in flat mode).
    pub fn stats(&self) -> DeviceStatsSnapshot {
        self.ssd
            .as_ref()
            .map(|q| q.dev.stats.snapshot())
            .unwrap_or_default()
    }

    /// Commands so far whose task the NCQ's grant armed (each a poll it
    /// did not take); 0 in flat mode. Not reset at warmup's end.
    #[cfg(test)]
    pub(crate) fn armed_grants(&self) -> u64 {
        self.ssd.as_ref().map_or(0, |q| q.slots.armed_grants())
    }

    /// Zeroes the service counters (warmup reset). Device *physical* state
    /// — fill, wear, map cache — carries across the reset, as does the
    /// window series: device conditioning is the point of measuring it.
    pub fn reset_stats(&self) {
        if let Some(q) = &self.ssd {
            q.dev.stats.reset();
        }
    }

    /// Drains the per-window latency averages accumulated so far
    /// (including a partial final window). `None` unless SSD mode with a
    /// nonzero [`crate::SimConfig::device_window`].
    pub fn take_windows(&self) -> Option<Vec<WindowStat>> {
        Some(self.ssd.as_ref()?.dev.windows.as_ref()?.borrow_mut().take())
    }
}

impl SsdQueue {
    /// Current queue occupancy: commands in service plus commands waiting.
    fn inflight(&self) -> u64 {
        (self.depth - self.slots.available()) as u64 + self.slots.queue_len() as u64
    }

    /// Services one command: records occupancy, waits FIFO for a service
    /// slot, and holds it for the service time the grant draws from the
    /// behavioral model (in grant order, so draws are deterministic).
    /// Awaited directly, not through `wait_all`, whose run-ahead barrier
    /// would keep the sleep from resuming inline (PERF.md invariant 16).
    async fn service(&self, dev: &DeviceService, dir: IoDirection, lba: u64, scale: f64) {
        dev.enter(Phase::FlashQueue);
        self.note_submit();
        let (_slot, service) = self
            .slots
            .acquire_with(Some(Draw { dir, lba, scale }))
            .await;
        service.expect("a single command draws at its grant").await;
    }

    /// Records the queue occupancy a submission finds, before it enters.
    fn note_submit(&self) {
        let waited = self.slots.available() == 0 || self.slots.queue_len() > 0;
        self.dev.stats.note_submit(self.inflight(), waited);
    }

    /// Submits every command of one op's batch into the NCQ at once and
    /// completes when the *last* command finishes — intra-op NCQ
    /// parallelism instead of `n × serial service`.
    ///
    /// A batch of one is serviced through [`Self::service`], so it stays
    /// bit-identical to a single [`DeviceService::read`]. Larger batches
    /// are stepped through their [`CompletionSet`] with
    /// [`Self::step`]: commands are visited in submission order, the NCQ
    /// [`Resource`] grants FIFO, so model draws still happen in submission
    /// order and stay deterministic. Per-command stats are exact — each
    /// command records its own occupancy-at-submit, wait flag, service
    /// draw, histogram entry, and window sample, exactly as many as serial
    /// submission would. The set goes back to the thread's pool, so a
    /// batch allocates nothing once the pool is warm.
    ///
    /// Span attribution: the op is in `FlashQueue` from batch submission
    /// until its last command is admitted and drawn, then `DeviceService`
    /// until the last completion.
    ///
    /// A batch's commands draw in the task's poll, not at their grants:
    /// one poll steps every command, so the task is never armed.
    async fn service_batch(
        &self,
        dev: &DeviceService,
        dir: IoDirection,
        mut batch: CompletionSet<Cmd>,
        scale: f64,
    ) {
        match *batch.pending() {
            [] => put_batch(batch),
            [Cmd::New(lba)] => {
                put_batch(batch);
                self.service(dev, dir, lba, scale).await;
            }
            _ => {
                let mut ctx = BatchCtx {
                    dev,
                    dir,
                    scale,
                    left: batch.len(),
                };
                dev.enter(Phase::FlashQueue);
                batch.wait_all(|cmd, cx| self.step(cmd, cx, &mut ctx)).await;
                put_batch(batch);
            }
        }
    }

    /// Advances one command of a batch as far as it can go: record
    /// occupancy and queue for a slot, then draw the service time once
    /// granted, then hold the slot for that long. The batch's last draw
    /// moves the op's span to `DeviceService`.
    fn step(&self, cmd: &mut Cmd, cx: &mut Context<'_>, ctx: &mut BatchCtx<'_>) -> Poll<()> {
        let (dev, dir, scale) = (ctx.dev, ctx.dir, ctx.scale);
        if let Cmd::New(lba) = *cmd {
            self.note_submit();
            *cmd = Cmd::Queued(lba, self.slots.acquire_with(None));
        }
        if let Cmd::Queued(lba, acquire) = cmd {
            let Poll::Ready((slot, _)) = Pin::new(acquire).poll(cx) else {
                return Poll::Pending;
            };
            let t = self.dev.serve(dir, *lba, scale);
            ctx.left -= 1;
            if ctx.left == 0 {
                // The whole batch is in service; the op's remaining wait
                // is pure device time.
                dev.enter(Phase::DeviceService);
            }
            *cmd = Cmd::InService {
                _slot: slot,
                sleep: dev.sim.sleep(t),
            };
        }
        if let Cmd::InService { sleep, .. } = cmd {
            if Pin::new(sleep).poll(cx).is_pending() {
                return Poll::Pending;
            }
        }
        // Releasing the slot hands it to the next waiter before the batch
        // visits its next command.
        *cmd = Cmd::Done;
        Poll::Ready(())
    }
}

/// What every command of one SSD batch shares.
struct BatchCtx<'a> {
    dev: &'a DeviceService,
    dir: IoDirection,
    scale: f64,
    /// Commands not yet granted a slot and drawn.
    left: usize,
}

/// One command of an SSD batch, as [`SsdQueue::step`] advances it.
enum Cmd {
    /// Submitted for this LBA, not yet at the queue.
    New(u64),
    /// Waiting FIFO for a service slot.
    Queued(u64, Acquire<Ncq>),
    /// Holding a slot for its drawn service time.
    InService {
        _slot: ResourceGuard<Ncq>,
        sleep: Sleep,
    },
    /// Completed; its slot is released.
    Done,
}

thread_local! {
    /// Empty batches with their slot arrays kept.
    static BATCHES: RefCell<Vec<CompletionSet<Cmd>>> = const { RefCell::new(Vec::new()) };
}

/// Takes an empty batch from the thread's pool.
fn take_batch() -> CompletionSet<Cmd> {
    BATCHES
        .try_with(|p| p.borrow_mut().pop())
        .ok()
        .flatten()
        .unwrap_or_default()
}

/// Returns a batch to the thread's pool.
fn put_batch(mut batch: CompletionSet<Cmd>) {
    batch.clear();
    let _ = BATCHES.try_with(|p| p.borrow_mut().push(batch));
}

impl std::fmt::Debug for DeviceService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("DeviceService");
        d.field("mode", if self.is_queued() { &"ssd" } else { &"flat" });
        if let Some(q) = &self.ssd {
            d.field("depth", &q.depth)
                .field("model", &*q.dev.model.borrow());
        }
        d.finish()
    }
}
