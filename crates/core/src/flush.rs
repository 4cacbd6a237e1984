//! Writeback tiers and the per-host asynchronous flush queue.
//!
//! A [`Tier`] names where dirty blocks live and which writeback policy
//! governs them; the engine's flush step, policy step and syncer all take
//! one. Asynchronous write-through flushes (`policy a`, and write-through
//! degraded by a filer outage) go through the host's [`FlushQueue`],
//! deduped per block on the tier's pending set and drained by a pool of
//! long-lived worker daemons. Submitting wakes an idle worker, or grows
//! the pool by one when every worker is busy, so the pool converges to
//! the peak number of concurrent flushes and then allocates nothing (the
//! discipline of the host's scratch pools, `PERF.md` invariant 2).
//!
//! A woken worker lands at the executor ready-queue tail, where a fresh
//! task would, and loops while the block stays dirty. Workers are daemons,
//! so a *keeper* task (one per busy period, not per flush) holds the
//! simulation open until every submitted flush has drained.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use fcache_cache::Medium;
use fcache_types::BlockAddr;

use crate::config::SimConfig;
use crate::engine::flush_block;
use crate::host::{HostCtx, TaskClass};
use crate::policy::WritebackPolicy;

/// A cache tier that holds dirty blocks under one writeback policy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Tier {
    /// The RAM tier (naive/lookaside).
    Ram,
    /// The flash tier (naive; the lookaside flash is never dirty).
    Flash,
    /// One medium of the unified cache.
    Unified(Medium),
}

impl Tier {
    /// The medium the tier's blocks live in.
    pub(crate) fn medium(self) -> Medium {
        match self {
            Tier::Ram => Medium::Ram,
            Tier::Flash => Medium::Flash,
            Tier::Unified(m) => m,
        }
    }

    /// The writeback policy that governs the tier.
    pub(crate) fn policy(self, cfg: &SimConfig) -> WritebackPolicy {
        match self.medium() {
            Medium::Ram => cfg.ram_policy,
            Medium::Flash => cfg.flash_policy,
        }
    }
}

/// One queued asynchronous flush.
#[derive(Clone, Copy, Debug)]
struct FlushReq {
    /// Block to flush.
    addr: BlockAddr,
    /// Tier to flush it from.
    tier: Tier,
}

/// Per-host flush queue state (a field of [`HostCtx`]).
pub(crate) struct FlushQueue {
    /// Pending requests, drained FIFO by the workers.
    queue: RefCell<VecDeque<FlushReq>>,
    /// Wakers of parked (idle) workers.
    idle: RefCell<Vec<Waker>>,
    /// Requests submitted but not yet fully flushed (queued + in flight).
    outstanding: Cell<usize>,
    /// Wakers of keeper tasks waiting for `outstanding == 0`.
    done_wakers: RefCell<Vec<Waker>>,
}

impl FlushQueue {
    /// Creates an empty queue with no workers.
    pub(crate) fn new() -> Self {
        Self {
            queue: RefCell::new(VecDeque::new()),
            idle: RefCell::new(Vec::new()),
            outstanding: Cell::new(0),
            done_wakers: RefCell::new(Vec::new()),
        }
    }

    /// Requests submitted but not yet fully flushed (queued + in flight) —
    /// the backlog an outage-recovery probe reads as its drain depth.
    pub(crate) fn backlog(&self) -> usize {
        self.outstanding.get()
    }

    /// Marks one request fully processed, releasing the keeper when the
    /// queue drains.
    fn complete_one(&self) {
        let left = self.outstanding.get() - 1;
        self.outstanding.set(left);
        if left == 0 {
            for w in self.done_wakers.borrow_mut().drain(..) {
                w.wake();
            }
        }
    }
}

/// Queues an asynchronous flush of `addr` from `tier`, waking an idle
/// worker or growing the pool by one long-lived daemon if all workers are
/// busy. A block already queued or in flight on the tier is not queued
/// again: the worker's while-dirty loop picks up a re-dirty in flight.
pub(crate) fn submit(h: &Rc<HostCtx>, tier: Tier, addr: BlockAddr) {
    if !h.flush_pending(tier).borrow_mut().insert(addr.to_u64()) {
        return;
    }
    let q = &h.flushq;
    let was_idle = q.outstanding.get() == 0;
    q.outstanding.set(q.outstanding.get() + 1);
    q.queue.borrow_mut().push_back(FlushReq { addr, tier });
    if was_idle {
        // First flush of a busy period: spawn the keeper that holds the
        // simulation open until the queue drains again.
        let h2 = Rc::clone(h);
        h.sim.spawn(async move {
            TaskClass::FlushKeeper.tag(&h2.sim);
            WaitDrained { h: h2 }.await;
        });
    }
    let idle_waker = q.idle.borrow_mut().pop();
    match idle_waker {
        Some(w) => w.wake(),
        None => {
            h.sim.spawn_daemon(flush_worker(Rc::clone(h)));
        }
    }
}

/// Long-lived flush worker: parks when the queue is empty, otherwise
/// flushes the block until it stays clean.
async fn flush_worker(h: Rc<HostCtx>) {
    TaskClass::FlushWorker.tag(&h.sim);
    loop {
        let FlushReq { addr, tier } = NextFlush { h: Rc::clone(&h) }.await;
        while h.is_dirty(tier, addr) {
            flush_block(&h, tier, addr).await;
        }
        h.flush_pending(tier).borrow_mut().remove(&addr.to_u64());
        h.flushq.complete_one();
    }
}

/// Future yielding the next queued flush; parks the worker when empty.
struct NextFlush {
    h: Rc<HostCtx>,
}

impl Future for NextFlush {
    type Output = FlushReq;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<FlushReq> {
        let q = &self.h.flushq;
        if let Some(req) = q.queue.borrow_mut().pop_front() {
            return Poll::Ready(req);
        }
        q.idle.borrow_mut().push(cx.waker().clone());
        Poll::Pending
    }
}

/// Completes once the host's flush queue is fully drained (immediately if
/// it already is). Used by the outage-recovery probes to time how long the
/// buffered-write backlog takes to clear.
pub(crate) async fn wait_drained(h: &Rc<HostCtx>) {
    WaitDrained { h: Rc::clone(h) }.await;
}

/// Keeper future: completes once every submitted flush has been processed,
/// so daemon workers with work in flight still keep [`fcache_des::Sim::run`]
/// alive (non-daemon tasks gate run completion).
struct WaitDrained {
    h: Rc<HostCtx>,
}

impl Future for WaitDrained {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let q = &self.h.flushq;
        if q.outstanding.get() == 0 {
            return Poll::Ready(());
        }
        q.done_wakers.borrow_mut().push(cx.waker().clone());
        Poll::Pending
    }
}
