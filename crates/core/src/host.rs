//! Per-host simulation state.

use std::cell::{Cell, RefCell};
use std::rc::{Rc, Weak};

use fcache_cache::{BlockCache, UnifiedCache};
use fcache_des::Sim;
use fcache_device::IoLog;
use fcache_net::Segment;
use fcache_remote::ShardedStore;
use fcache_types::{BlockAddr, FxHashSet, HostId};

use crate::config::SimConfig;
use crate::devsvc::DeviceService;
use crate::flush::FlushQueue;
use crate::metrics::Metrics;
use crate::robust::FaultCtx;
use crate::telemetry::TelemetryCtx;

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
    /// Shared metrics sink.
    pub metrics: Metrics,
    /// Flash I/O log (for Figure 1 replay; usually disabled). The device
    /// service holds a clone and appends every flash access it times.
    pub iolog: IoLog,
    /// Flash device timing service: every flash read/write the engine
    /// performs is charged through it (flat Table 1 latencies by default,
    /// or the queue-aware SSD model — see `crate::devsvc`).
    pub dev: DeviceService,
    /// Blocks with an asynchronous RAM-tier flush in flight (dedupe).
    pub ram_flush_pending: RefCell<FxHashSet<u64>>,
    /// Blocks with an asynchronous flash-tier flush in flight (dedupe).
    pub flash_flush_pending: RefCell<FxHashSet<u64>>,
    /// Other hosts, for instant cache-consistency invalidation.
    pub peers: RefCell<Vec<Weak<HostCtx>>>,
    /// Set once the first measured (non-warmup) operation issues; flipping
    /// it resets all statistics.
    pub warmup_over: Rc<Cell<bool>>,
    /// Reusable `Vec<BlockAddr>` pool for per-op scratch (miss lists, hit
    /// lists) and syncer dirty-set snapshots. Once the pool has warmed up
    /// to the host's concurrency level, the simulate-one-op path performs
    /// no heap allocation (see `PERF.md`).
    pub buf_pool: RefCell<Vec<Vec<BlockAddr>>>,
    /// Asynchronous write-through flush queue, drained by a converging pool
    /// of long-lived worker daemons (see `crate::flush`): policy `a` runs
    /// allocation-free once the pool has grown to the peak concurrency.
    pub flushq: FlushQueue,
    /// Fault-injection context (resolved schedules, retry parameters,
    /// shared robustness counters). `None` — the default — means every
    /// fault-aware path collapses to its pre-fault form (see
    /// `crate::robust`).
    pub fault: Option<Rc<FaultCtx>>,
    /// The backend (router, replicas, per-shard segments).
    pub remote: RemoteCtx,
    /// Sim-time telemetry collector (op spans, unified windows, span
    /// stream). `None` — the default — makes every instrumentation hook a
    /// no-op, the literal pre-telemetry code path (PERF.md invariant 12).
    pub telemetry: Option<Rc<TelemetryCtx>>,
}

impl HostCtx {
    /// Takes a cleared scratch buffer from the pool (or allocates the
    /// pool's first few on a cold start).
    pub fn take_buf(&self) -> Vec<BlockAddr> {
        self.buf_pool.borrow_mut().pop().unwrap_or_default()
    }

    /// Returns a scratch buffer to the pool for reuse.
    pub fn put_buf(&self, mut buf: Vec<BlockAddr>) {
        buf.clear();
        self.buf_pool.borrow_mut().push(buf);
    }
    /// True if this host has a RAM cache tier.
    pub fn has_ram(&self) -> bool {
        self.cfg.ram_blocks() > 0
    }

    /// True if this host has a flash cache tier.
    pub fn has_flash(&self) -> bool {
        self.cfg.flash_blocks() > 0
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

    /// Invalidates copies of `addr` held by *other* hosts (instant, global
    /// knowledge, §3.8); returns how many hosts held a copy.
    pub fn invalidate_peers(&self, addr: BlockAddr) -> u64 {
        let mut count = 0u64;
        for peer in self.peers.borrow().iter().filter_map(Weak::upgrade) {
            let mut held = false;
            if peer.ram.borrow_mut().remove(addr).is_some() {
                held = true;
            }
            if peer.flash.borrow_mut().remove(addr).is_some() {
                held = true;
            }
            if let Some(u) = &peer.unified {
                if u.borrow_mut().remove(addr).is_some() {
                    held = true;
                }
            }
            if held {
                count += 1;
            }
        }
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
        for peer in self.peers.borrow().iter().filter_map(Weak::upgrade) {
            peer.reset_stats();
        }
        self.remote.store.reset_service_stats();
    }

    fn reset_stats(&self) {
        self.ram.borrow_mut().reset_stats();
        self.flash.borrow_mut().reset_stats();
        if let Some(u) = &self.unified {
            u.borrow_mut().reset_stats();
        }
        // Outside a fleet every host shares one metrics sink, so the
        // peers' resets just repeat harmlessly (the whole warmup-end
        // sequence is synchronous); in a fleet each host resets its own.
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
