//! Per-host simulation state.

use std::cell::{Cell, OnceCell, RefCell};
use std::rc::{Rc, Weak};

use fcache_cache::{BlockCache, InsertOutcome, Medium, UnifiedCache, UnifiedInsert};
use fcache_des::{Sim, TAG_CLASSES};
use fcache_device::IoLog;
use fcache_net::Segment;
use fcache_remote::ShardedStore;
use fcache_types::{BlockAddr, FxHashSet, HostId, Phase};

use crate::config::SimConfig;
use crate::devsvc::DeviceService;
use crate::flush::{FlushQueue, Tier};
use crate::metrics::Metrics;
use crate::robust::FaultCtx;
use crate::sharers::SharerFilter;
use crate::telemetry::{OpSpan, TelemetryCtx};

/// The run's hosts, shared by all of them: the warmup reset walks the
/// list, and instant invalidation (§3.8) probes the hosts the sharer
/// filter names. One list per run, not one peer list per host.
pub(crate) struct RunHosts {
    /// Every host in id order; set once, after the hosts are built.
    hosts: OnceCell<Vec<Weak<HostCtx>>>,
    /// Which hosts may cache a block. `None` in a one-host run, which has
    /// no peers to invalidate and pays nothing.
    sharers: Option<SharerFilter>,
}

impl RunHosts {
    /// The shared state of an `n_hosts`-host run whose hosts cache up to
    /// `blocks_per_host` blocks each.
    pub(crate) fn new(n_hosts: usize, blocks_per_host: usize) -> Self {
        Self {
            hosts: OnceCell::new(),
            sharers: (n_hosts > 1).then(|| SharerFilter::new(n_hosts, blocks_per_host)),
        }
    }

    /// Records the built hosts, in id order.
    pub(crate) fn set_hosts(&self, hosts: &[Rc<HostCtx>]) {
        let list = hosts.iter().map(Rc::downgrade).collect();
        assert!(self.hosts.set(list).is_ok(), "run hosts are set once");
    }

    fn hosts(&self) -> &[Weak<HostCtx>] {
        self.hosts.get().map_or(&[], Vec::as_slice)
    }

    /// The sharer filter, if the run has one.
    #[cfg(test)]
    pub(crate) fn sharers(&self) -> Option<&SharerFilter> {
        self.sharers.as_ref()
    }
}

/// The kind of an engine task, as the executor tag class it sets on its
/// first poll ([`Sim::tag_current`]): the run loop counts polls per class
/// ([`Sim::polls_by_tag`]). An op thread's tag also carries its thread
/// index, which finds the thread's telemetry span. A task never inherits
/// a tag, so a child that does not tag itself counts as class 0.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum TaskClass {
    /// The replay task of one `(host, thread)` slot (`sim::replay`).
    OpThread = 1,
    /// A write-through flush worker (`flush::submit`).
    FlushWorker,
    /// The flush-queue keeper (`flush::submit`).
    FlushKeeper,
    /// A periodic syncer daemon (`sim::spawn_daemons`).
    Syncer,
    /// A syncer pass's per-block flush (`engine::flush_batch`).
    SyncerFlush,
    /// A write to a slower replica (`engine::flush_to_filer`).
    ReplicaLeg,
    /// A hedged read's primary arm (`engine::hedged_exchange`).
    HedgePrimary,
    /// A hedged read's second arm (`engine::hedged_exchange`).
    HedgeSecond,
    /// A filer outage's flush-backlog probe (`sim::spawn_daemons`).
    BacklogProbe,
    /// A returning shard's recovery pass (`sim::spawn_daemons`).
    ShardRecovery,
    /// A recovery pass's extra re-replication streams
    /// (`sim::spawn_daemons`).
    ReReplication,
}

const _: () = assert!((TaskClass::ReReplication as usize) < TAG_CLASSES);

impl TaskClass {
    /// Tags the polled task with this class.
    pub(crate) fn tag(self, sim: &Sim) {
        sim.tag_current(self as u32);
    }

    /// Tags the polled task as op thread `thread` of its host.
    pub(crate) fn tag_op_thread(sim: &Sim, thread: u16) {
        sim.tag_current(TaskClass::OpThread as u32 + u32::from(thread) * TAG_CLASSES as u32);
    }

    /// The op-thread index `tag` carries, if it is an op thread's tag.
    pub(crate) fn op_thread(tag: u32) -> Option<usize> {
        (tag as usize % TAG_CLASSES == TaskClass::OpThread as usize)
            .then_some(tag as usize / TAG_CLASSES)
    }
}

/// This host's view of the backend: the shared store plus one private
/// segment per shard (the host's network link to that shard). Every run
/// has one; the paper's single filer is the 1×1 store, whose shard 0 and
/// `segments[0]` run on the base seeds, so an un-sharded run is the
/// pre-remote engine bit for bit (PERF.md invariant 11).
pub(crate) struct RemoteCtx {
    /// The shared backend (filers, schedules, replication bookkeeping);
    /// one instance per run.
    pub store: Rc<ShardedStore>,
    /// Per-shard segments, indexed by shard (shared across a fan-in
    /// group).
    pub segments: Vec<Segment>,
    /// Scaled hedge delay in simulated ns (`None` disables hedging).
    pub hedge_ns: Option<u64>,
}

/// Everything one compute server ("host") owns in the simulation.
///
/// Caches live in `RefCell`s; engine code never holds a borrow across an
/// await point.
pub(crate) struct HostCtx {
    /// Host identity.
    pub id: HostId,
    /// Simulation handle.
    pub sim: Sim,
    /// Shared configuration.
    pub cfg: Rc<SimConfig>,
    /// RAM tier (naive/lookaside; capacity may be zero).
    pub ram: RefCell<BlockCache>,
    /// Flash tier (naive/lookaside; capacity may be zero).
    pub flash: RefCell<BlockCache>,
    /// Unified cache (only for [`crate::Architecture::Unified`]).
    pub unified: Option<RefCell<UnifiedCache>>,
    /// This host's metrics sink, folded with the other hosts' at
    /// collection.
    pub metrics: Metrics,
    /// Flash I/O log (for Figure 1 replay; usually disabled). The device
    /// service holds a clone and appends every flash access it times.
    pub iolog: IoLog,
    /// Flash device timing service: every flash read/write the engine
    /// performs is charged through it (flat Table 1 latencies by default,
    /// or the queue-aware SSD model — see `crate::devsvc`).
    pub dev: DeviceService,
    /// Blocks with an asynchronous flush queued or in flight from a RAM
    /// tier (dedupe; see [`HostCtx::flush_pending`]).
    pub ram_flush_pending: RefCell<FxHashSet<u64>>,
    /// The same for a flash tier.
    pub flash_flush_pending: RefCell<FxHashSet<u64>>,
    /// The run's host list and sharer filter.
    pub run: Rc<RunHosts>,
    /// Set once the first measured (non-warmup) operation issues; flipping
    /// it resets all statistics.
    pub warmup_over: Rc<Cell<bool>>,
    /// Asynchronous write-through flush queue, drained by a converging pool
    /// of long-lived worker daemons (see `crate::flush`): policy `a` runs
    /// allocation-free once the pool has grown to the peak concurrency.
    pub flushq: FlushQueue,
    /// Fault-injection context (jitter RNG, retry parameters, the run's
    /// shared schedules and counters; see `crate::robust`). A fault-free
    /// run's schedules are empty.
    pub fault: FaultCtx,
    /// The backend (router, replicas, per-shard segments).
    pub remote: RemoteCtx,
    /// Sim-time telemetry collector (op spans, unified windows, span
    /// stream), shared with [`Self::dev`]. `None` — the default — makes
    /// every instrumentation hook one branch that does nothing (PERF.md
    /// invariant 12).
    pub telemetry: Option<Rc<TelemetryCtx>>,
}

impl HostCtx {
    /// True if this host has a RAM cache tier.
    pub fn has_ram(&self) -> bool {
        self.cfg.ram_blocks() > 0
    }

    /// True if this host has a flash cache tier.
    pub fn has_flash(&self) -> bool {
        self.cfg.flash_blocks() > 0
    }

    /// The unified cache.
    ///
    /// # Panics
    ///
    /// Panics outside the unified architecture.
    pub fn unified(&self) -> &RefCell<UnifiedCache> {
        self.unified.as_ref().expect("unified cache")
    }

    /// True if `addr` is cached dirty in `tier`. A unified tier checks the
    /// whole cache: a block never changes medium.
    pub fn is_dirty(&self, tier: Tier, addr: BlockAddr) -> bool {
        match tier {
            Tier::Ram => self.ram.borrow().is_dirty(addr),
            Tier::Flash => self.flash.borrow().is_dirty(addr),
            Tier::Unified(_) => self.unified().borrow().is_dirty(addr),
        }
    }

    /// Appends the blocks dirty in `tier` to `out`.
    pub fn dirty_blocks_into(&self, tier: Tier, out: &mut Vec<BlockAddr>) {
        match tier {
            Tier::Ram => self.ram.borrow().dirty_blocks_into(out),
            Tier::Flash => self.flash.borrow().dirty_blocks_into(out),
            Tier::Unified(m) => self.unified().borrow().dirty_blocks_of_into(m, out),
        }
    }

    /// True when `tier` holds no dirty block. A unified tier answers for
    /// the whole cache, so it may say dirty when only the other medium
    /// is; its syncer then flushes an empty batch, as it did before.
    pub fn tier_clean(&self, tier: Tier) -> bool {
        match tier {
            Tier::Ram => self.ram.borrow().dirty_len() == 0,
            Tier::Flash => self.flash.borrow().dirty_len() == 0,
            Tier::Unified(_) => self.unified().borrow().dirty_len() == 0,
        }
    }

    /// The blocks with an asynchronous flush queued or in flight from
    /// `tier`'s medium.
    pub fn flush_pending(&self, tier: Tier) -> &RefCell<FxHashSet<u64>> {
        match tier.medium() {
            Medium::Ram => &self.ram_flush_pending,
            Medium::Flash => &self.flash_flush_pending,
        }
    }

    /// Current cache occupancy as `(dirty blocks, cached blocks)` across
    /// whichever tiers this host's architecture uses — the telemetry
    /// window dirty-ratio sample.
    pub fn cache_occupancy(&self) -> (u64, u64) {
        if let Some(u) = &self.unified {
            let u = u.borrow();
            (u.dirty_len() as u64, u.len() as u64)
        } else {
            let ram = self.ram.borrow();
            let flash = self.flash.borrow();
            (
                (ram.dirty_len() + flash.dirty_len()) as u64,
                (ram.len() + flash.len()) as u64,
            )
        }
    }

    /// Attributes the polled op thread's time from now on to `phase`;
    /// does nothing in any other task or with telemetry off.
    pub fn enter(&self, phase: Phase) {
        if let Some(t) = &self.telemetry {
            t.update_span(&self.sim, |sp| sp.enter(self.sim.now(), phase));
        }
    }

    /// Counts one retry attempt on the polled op thread's span.
    pub fn note_retry(&self) {
        if let Some(t) = &self.telemetry {
            t.update_span(&self.sim, OpSpan::note_retry);
        }
    }

    /// Records the polled op thread's block fates: `hit` blocks served
    /// from RAM or flash, `filer` blocks fetched from the backend.
    pub fn note_blocks(&self, hit: u64, filer: u64) {
        if let Some(t) = &self.telemetry {
            t.update_span(&self.sim, |sp| sp.note_blocks(hit, filer));
        }
    }

    /// Counts the outcome of inserting `addr` into the RAM or flash tier
    /// in the sharer filter: a new block joins, an evicted victim leaves.
    pub fn note_insert(&self, addr: BlockAddr, outcome: InsertOutcome) {
        let Some(f) = &self.run.sharers else { return };
        match outcome {
            InsertOutcome::Inserted => f.add(self.id, addr),
            InsertOutcome::InsertedEvicting(ev) => {
                f.add(self.id, addr);
                f.sub(self.id, ev.addr);
            }
            InsertOutcome::AlreadyPresent | InsertOutcome::ZeroCapacity => {}
        }
    }

    /// [`Self::note_insert`] for the unified cache.
    pub fn note_unified_insert(&self, addr: BlockAddr, ins: &UnifiedInsert) {
        let Some(f) = &self.run.sharers else { return };
        if !ins.already_present {
            f.add(self.id, addr);
        }
        if let Some(ev) = &ins.evicted {
            f.sub(self.id, ev.addr);
        }
    }

    /// Invalidates copies of `addr` held by *other* hosts (instant, global
    /// knowledge, §3.8); returns how many hosts held a copy. Only the hosts
    /// the sharer filter names are probed, in host order; the rest hold no
    /// copy, so the removals, the count and every cache statistic equal a
    /// scan of every peer (PERF.md invariant 15).
    pub fn invalidate_peers(&self, addr: BlockAddr) -> u64 {
        let Some(f) = &self.run.sharers else { return 0 };
        #[cfg(test)]
        let scan = tests::Scan::before(self, addr);
        let hosts = self.run.hosts();
        let mut count = 0u64;
        f.for_each_candidate(self.id, addr, |j| {
            let Some(peer) = hosts[j].upgrade() else {
                return 0;
            };
            let mut removed = 0u8;
            if peer.ram.borrow_mut().remove(addr).is_some() {
                removed += 1;
            }
            if peer.flash.borrow_mut().remove(addr).is_some() {
                removed += 1;
            }
            if let Some(u) = &peer.unified {
                if u.borrow_mut().remove(addr).is_some() {
                    removed += 1;
                }
            }
            if removed > 0 {
                count += 1;
            }
            removed
        });
        #[cfg(test)]
        scan.check(self, addr, count);
        count
    }

    /// Flips the warmup flag on the first measured op, resetting every
    /// statistics counter so that "statistics are not collected" for the
    /// warmup half of the trace (§4).
    pub fn maybe_end_warmup(&self) {
        if self.warmup_over.get() {
            return;
        }
        self.warmup_over.set(true);
        self.reset_stats();
        for host in self.run.hosts().iter().filter_map(Weak::upgrade) {
            if host.id != self.id {
                host.reset_stats();
            }
        }
        self.remote.store.reset_service_stats();
    }

    fn reset_stats(&self) {
        self.ram.borrow_mut().reset_stats();
        self.flash.borrow_mut().reset_stats();
        if let Some(u) = &self.unified {
            u.borrow_mut().reset_stats();
        }
        self.metrics.reset();
        for seg in &self.remote.segments {
            seg.reset_stats();
        }
        self.dev.reset_stats();
        // Robustness counters are NOT reset: like `device_windows` and
        // `degraded_time`, they cover the whole run including warmup —
        // fault handling, not steady-state latency, is what they measure.
        // (Resetting them would also tear counts for ops parked across
        // the warmup boundary: entry counted before the reset, completion
        // after, leaving ok > ops in the window tallies.)
    }
}

impl std::fmt::Debug for HostCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HostCtx")
            .field("id", &self.id)
            .field("ram", &self.ram.borrow())
            .field("flash", &self.flash.borrow())
            .finish()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    use std::cell::Cell;

    use fcache_types::{ByteSize, FileId, OpKind, ThreadId, Trace, TraceMeta, TraceOp};
    use proptest::prelude::*;

    use crate::{run_trace, Architecture, SimConfig};

    thread_local! {
        /// Invalidations checked against the scan, and copies they removed.
        static CHECKED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    }

    /// The reference: every other host's copies of one block and its
    /// invalidation counters, found by scanning every peer.
    pub(super) struct Scan {
        /// `(copies, invalidations)` per host, in host order.
        peers: Vec<(u64, u64)>,
    }

    fn copies_and_invalidations(h: &HostCtx, addr: BlockAddr) -> (u64, u64) {
        let (ram, flash) = (h.ram.borrow(), h.flash.borrow());
        let mut copies = u64::from(ram.contains(addr)) + u64::from(flash.contains(addr));
        let mut inv = ram.stats().invalidations + flash.stats().invalidations;
        if let Some(u) = &h.unified {
            let u = u.borrow();
            copies += u64::from(u.contains(addr));
            inv += u.stats().invalidations;
        }
        (copies, inv)
    }

    impl Scan {
        pub(super) fn before(me: &HostCtx, addr: BlockAddr) -> Self {
            let peers = me
                .run
                .hosts()
                .iter()
                .filter_map(Weak::upgrade)
                .map(|p| {
                    if p.id == me.id {
                        (0, 0)
                    } else {
                        copies_and_invalidations(&p, addr)
                    }
                })
                .collect();
            Self { peers }
        }

        /// The filtered invalidation must have removed exactly the copies
        /// the scan found: every one of them, each counted once.
        pub(super) fn check(self, me: &HostCtx, addr: BlockAddr, count: u64) {
            let holders = self.peers.iter().filter(|(c, _)| *c > 0).count() as u64;
            assert_eq!(count, holders, "hosts invalidated for {addr:?}");
            let mut removed = 0;
            for (p, (copies, inv)) in me.run.hosts().iter().zip(&self.peers) {
                let p = p.upgrade().expect("hosts outlive the run");
                if p.id == me.id {
                    continue;
                }
                let (left, inv_after) = copies_and_invalidations(&p, addr);
                assert_eq!(left, 0, "{:?} still holds {addr:?}", p.id);
                assert_eq!(inv_after - inv, *copies, "{:?} invalidations", p.id);
                removed += copies;
            }
            CHECKED.with(|c| {
                let (n, r) = c.get();
                c.set((n + 1, r + removed));
            });
        }
    }

    /// A small random multi-host trace over 24 shared blocks.
    fn trace(hosts: u16, ops: &[(u16, bool, u32, u32)]) -> Trace {
        let mut t = Trace::new(TraceMeta {
            hosts,
            threads_per_host: 2,
            ..TraceMeta::default()
        });
        for (i, &(host, write, block, n)) in ops.iter().enumerate() {
            let kind = if write { OpKind::Write } else { OpKind::Read };
            t.ops.push(TraceOp::new(
                HostId(host % hosts),
                ThreadId((i % 2) as u16),
                kind,
                FileId(block / 8),
                block % 8,
                n,
                i < ops.len() / 4,
            ));
        }
        t
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn filtered_invalidation_removes_exactly_what_a_full_scan_finds(
            hosts in 2u16..7,
            arch in 0usize..3,
            ops in proptest::collection::vec((0u16..6, any::<bool>(), 0u32..24, 1u32..4), 20..160),
        ) {
            let cfg = SimConfig {
                arch: [Architecture::Naive, Architecture::Lookaside, Architecture::Unified][arch],
                ram_size: ByteSize::kib(16),
                flash_size: ByteSize::kib(48),
                ..SimConfig::baseline()
            };
            let (n0, _) = CHECKED.with(Cell::get);
            run_trace(&cfg, &trace(hosts, &ops)).expect("run");
            let (n1, _) = CHECKED.with(Cell::get);
            let writes: u64 = ops.iter().filter(|o| o.1).map(|o| u64::from(o.3)).sum();
            prop_assert_eq!(n1 - n0, writes, "every written block was checked");
        }
    }

    #[test]
    fn the_scan_check_is_not_vacuous() {
        let ops: Vec<_> = (0..200u32)
            .map(|i| ((i % 3) as u16, i % 2 == 1, i % 5, 1))
            .collect();
        let cfg = SimConfig {
            ram_size: ByteSize::kib(16),
            flash_size: ByteSize::kib(48),
            ..SimConfig::baseline()
        };
        let (_, r0) = CHECKED.with(Cell::get);
        run_trace(&cfg, &trace(3, &ops)).expect("run");
        let (_, r1) = CHECKED.with(Cell::get);
        assert!(r1 > r0, "writes to shared blocks removed peer copies");
    }
}
