//! The simulation engine: per-architecture read/write paths, writeback
//! machinery, and syncer daemons.
//!
//! Every path here follows the paper's §3 design descriptions; quotes in
//! comments mark the load-bearing sentences.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

use fcache_cache::{InsertOutcome, Medium};
use fcache_des::{JoinHandle, Next, SimTime, StepMachine, Stepped};
use fcache_filer::Service;
use fcache_net::{Direction, OnWire, Packet};
use fcache_remote::ReplicaSet;
use fcache_types::{BlockAddr, FaultError, FaultKind, OpKind, Phase, TraceOp, BLOCK_SIZE};

use crate::arch::Architecture;
use crate::config::TABLE1_RAM;
use crate::flush::{self, Tier};
use crate::host::{HostCtx, RemoteCtx, TaskClass};
use crate::policy::WritebackPolicy;
use crate::robust::{DegradedPolicy, RobustnessState, MAX_RETRIES};
use crate::scratch;
use crate::telemetry::OpSpan;

/// Where the data being flushed currently lives, which decides what the
/// flush costs before the network leg.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum FlushSource {
    /// Data is in RAM or "in hand" (write-through with the payload still in
    /// the requester's context): only the wire + filer cost applies.
    InHand,
    /// Data must first be read off the flash device.
    Flash,
}

impl FlushSource {
    /// Where a block cached in `medium` is flushed from.
    fn of(medium: Medium) -> Self {
        match medium {
            Medium::Ram => FlushSource::InHand,
            Medium::Flash => FlushSource::Flash,
        }
    }
}

/// Executes one trace operation and records its application latency.
pub(crate) async fn execute_op(h: &Rc<HostCtx>, op: &TraceOp) {
    if !op.warmup() {
        h.maybe_end_warmup();
    }
    let t0 = h.sim.now();
    // Only measured ops are spanned. A warmup op's phase changes land in
    // the thread's span, which the next measured op replaces.
    let telemetry = h.telemetry.as_ref().filter(|_| !op.warmup());
    if let Some(t) = telemetry {
        t.update_span(&h.sim, |sp| *sp = OpSpan::new(t0));
    }
    match (op.kind(), h.cfg.arch) {
        (OpKind::Read, Architecture::Unified) => read_unified(h, op).await,
        (OpKind::Read, _) => read_layered(h, op).await,
        (OpKind::Write, Architecture::Unified) => write_unified(h, op).await,
        (OpKind::Write, _) => write_layered(h, op).await,
    }
    if !op.warmup() {
        h.metrics
            .record_op(op.kind(), h.sim.now() - t0, op.nblocks());
        if let Some(t) = telemetry {
            t.complete_op(h, op);
        }
    }
}

// ---------------------------------------------------------------------------
// Read paths
// ---------------------------------------------------------------------------

/// Naive / lookaside read: RAM, then flash, then the filer; fetched blocks
/// are "first placed in flash, then into RAM" (§3.2).
async fn read_layered(h: &Rc<HostCtx>, op: &TraceOp) {
    // RAM stage: hits pay the RAM read latency; misses fall through. The
    // miss/hit lists live in the thread's pooled buffers, so the per-op
    // path performs no heap allocation after the thread's first run.
    let mut ram_misses = scratch::take_buf();
    let mut wait = SimTime::ZERO;
    if h.has_ram() {
        let mut ram = h.ram.borrow_mut();
        for b in op.blocks() {
            if ram.lookup(b) {
                wait += TABLE1_RAM.read;
                if h.cfg.inclusive_promotion && h.has_flash() {
                    // Keep the flash LRU order a superset of RAM recency so
                    // the subset property holds without management (§3.3).
                    h.flash.borrow_mut().promote(b);
                }
            } else {
                ram_misses.push(b);
            }
        }
    } else {
        ram_misses.extend(op.blocks());
    }
    if wait > SimTime::ZERO {
        h.sim.sleep(wait).await;
    }
    if ram_misses.is_empty() {
        h.note_blocks(u64::from(op.nblocks()), 0);
        scratch::put_buf(ram_misses);
        return;
    }

    // Flash stage: hits move to their own list, and what stays in the
    // miss list goes on to the filer.
    let mut flash_hits = scratch::take_buf();
    let mut filer_misses = ram_misses;
    if h.has_flash() {
        let mut flash = h.flash.borrow_mut();
        filer_misses.retain(|&b| {
            let hit = flash.lookup(b);
            if hit {
                flash_hits.push(b);
            }
            !hit
        });
    }
    // Device time for the flash hits goes through the timing service:
    // flat mode charges one combined sleep (as the paper's model always
    // did), SSD mode services each block through the bounded device queue.
    h.dev.read_blocks(&flash_hits).await;

    // Filer stage: "each I/O request uses one packet in each direction"
    // (§5) — one request covers every block this op still misses.
    let miss_count = filer_misses.len() as u64;
    if !filer_misses.is_empty() {
        if fetch(h, &filer_misses).await {
            if h.has_flash() && h.cfg.populate_flash_on_read {
                for &b in filer_misses.iter() {
                    flash_insert(h, b, false).await;
                }
            }
        } else {
            // Failed-fast miss: no data arrived, so nothing to cache.
            filer_misses.clear();
        }
    }
    // `filer_misses` was cleared on a failed fetch, so its length is the
    // blocks that actually arrived from the backend; failed blocks count
    // as neither hit nor fetch.
    h.note_blocks(
        u64::from(op.nblocks()) - miss_count,
        filer_misses.len() as u64,
    );

    // Fill RAM with everything that missed it.
    if h.has_ram() {
        for &b in flash_hits.iter().chain(filer_misses.iter()) {
            ram_insert(h, b, false).await;
        }
    }
    scratch::put_buf(flash_hits);
    scratch::put_buf(filer_misses);
}

/// Unified read: one lookup against the single LRU chain; hits pay the
/// latency of whichever medium the frame lives in.
async fn read_unified(h: &Rc<HostCtx>, op: &TraceOp) {
    let mut wait = SimTime::ZERO;
    let mut misses = scratch::take_buf();
    let mut flash_hits = scratch::take_buf();
    {
        let mut u = h.unified().borrow_mut();
        for b in op.blocks() {
            match u.lookup(b) {
                Some(Medium::Ram) => wait += TABLE1_RAM.read,
                Some(Medium::Flash) => match h.dev.try_flat_read(b) {
                    // Flat timing folds into the one combined sleep below,
                    // exactly as before the device service existed.
                    Some(lat) => wait += lat,
                    // Queue-aware timing: the hit must be serviced by the
                    // device queue, which cannot happen under the cache
                    // borrow — collect it for after the loop.
                    None => flash_hits.push(b),
                },
                None => misses.push(b),
            }
        }
    }
    if wait > SimTime::ZERO {
        h.sim.sleep(wait).await;
    }
    // Queue-aware flash hits overlap through the NCQ as one batch, the
    // same as the layered read path.
    h.dev.read_blocks(&flash_hits).await;
    scratch::put_buf(flash_hits);
    if misses.is_empty() {
        h.note_blocks(u64::from(op.nblocks()), 0);
        scratch::put_buf(misses);
        return;
    }
    let miss_count = misses.len() as u64;
    let fetched = fetch(h, &misses).await;
    h.note_blocks(
        u64::from(op.nblocks()) - miss_count,
        if fetched { miss_count } else { 0 },
    );
    if fetched {
        for &b in misses.iter() {
            unified_insert(h, b, false).await;
        }
    }
    scratch::put_buf(misses);
}

// ---------------------------------------------------------------------------
// Write paths
// ---------------------------------------------------------------------------

/// Naive / lookaside write: into RAM, then onward per the tier policies.
async fn write_layered(h: &Rc<HostCtx>, op: &TraceOp) {
    for b in op.blocks() {
        let invalidated = h.invalidate_peers(b);
        if !op.warmup() {
            h.metrics.record_block_write(invalidated);
        }
        if h.has_ram() {
            ram_insert(h, b, true).await;
            if on_dirtied(h, Tier::Ram, b) {
                flush_block(h, Tier::Ram, b).await;
            }
        } else {
            // No RAM tier: naive writes land directly in flash (§7.5's
            // zero-RAM configuration) under the flash policy; the others
            // write to the filer synchronously, and lookaside then updates
            // its flash.
            write_below_ram(h, b).await;
        }
    }
}

/// Unified write: overwrite in place on a hit, else claim the LRU frame;
/// either way the block's frame medium sets the cost and its tier policy
/// governs the writeback.
async fn write_unified(h: &Rc<HostCtx>, op: &TraceOp) {
    for b in op.blocks() {
        let invalidated = h.invalidate_peers(b);
        if !op.warmup() {
            h.metrics.record_block_write(invalidated);
        }
        unified_insert(h, b, true).await;
    }
}

// ---------------------------------------------------------------------------
// Tier insert helpers (pay device time, handle dirty evictions)
// ---------------------------------------------------------------------------

/// Inserts a block into RAM, paying the RAM write latency. A dirty LRU
/// victim is written back synchronously first — this stall is the source of
/// the `none`-policy convoys ("synchronous evictions once the cache fills",
/// §7.1).
async fn ram_insert(h: &Rc<HostCtx>, addr: BlockAddr, dirty: bool) {
    h.enter(Phase::CacheProbe);
    h.sim.sleep(TABLE1_RAM.write).await;
    let outcome = h.ram.borrow_mut().insert(addr, dirty);
    h.note_insert(addr, outcome);
    if let InsertOutcome::InsertedEvicting(ev) = outcome {
        if ev.dirty {
            write_below_ram(h, ev.addr).await;
        }
    }
}

/// Writes a dirty block below the RAM tier: into flash, still dirty, in
/// the naive architecture; otherwise to the filer, then in lookaside into
/// flash clean ("the flash is updated after the file server and never
/// contains dirty data", §3.3).
async fn write_below_ram(h: &Rc<HostCtx>, addr: BlockAddr) {
    if h.cfg.arch == Architecture::Naive && h.has_flash() {
        flash_insert(h, addr, true).await;
    } else {
        flush_to_filer(h, addr, FlushSource::InHand).await;
        if h.cfg.arch == Architecture::Lookaside && h.has_flash() {
            flash_insert(h, addr, false).await;
        }
    }
}

/// Inserts a block into flash, paying the flash write latency. Evicting a
/// dirty flash victim forces a synchronous writeback to the filer. If the
/// inserted block is dirty, the flash writeback policy reacts.
async fn flash_insert(h: &Rc<HostCtx>, addr: BlockAddr, dirty: bool) {
    h.dev.write_block(addr).await;
    let outcome = h.flash.borrow_mut().insert(addr, dirty);
    h.note_insert(addr, outcome);
    if let InsertOutcome::InsertedEvicting(ev) = outcome {
        if ev.dirty {
            flush_to_filer(h, ev.addr, FlushSource::Flash).await;
        }
    }
    if dirty && on_dirtied(h, Tier::Flash, addr) {
        // Blocking write-through; the payload is still in hand, so there
        // is no flash read.
        h.flash.borrow_mut().mark_clean(addr);
        flush_to_filer(h, addr, FlushSource::InHand).await;
    }
}

/// Inserts into the unified cache: pays the landing medium's write cost,
/// flushes a dirty victim, and applies the landing tier's policy when the
/// block is dirty.
async fn unified_insert(h: &Rc<HostCtx>, addr: BlockAddr, dirty: bool) {
    let ins = h.unified().borrow_mut().insert(addr, dirty);
    h.note_unified_insert(addr, &ins);
    match ins.medium {
        Medium::Ram => {
            h.enter(Phase::CacheProbe);
            h.sim.sleep(TABLE1_RAM.write).await;
        }
        Medium::Flash => h.dev.write_block(addr).await,
    }
    if let Some(ev) = ins.evicted {
        if ev.dirty {
            flush_to_filer(h, ev.addr, FlushSource::of(ev.medium)).await;
        }
    }
    if dirty && on_dirtied(h, Tier::Unified(ins.medium), addr) {
        // Blocking write-through with the payload in hand, as for flash.
        h.unified().borrow_mut().mark_clean(addr);
        flush_to_filer(h, addr, FlushSource::InHand).await;
    }
}

/// Applies `tier`'s writeback policy to a block that just became dirty
/// there: queues an asynchronous flush, or returns true when the caller
/// must write the block through now. Synchronous on purpose: the inline
/// write differs per tier, and an async step that flushed RAM would
/// recurse through [`write_below_ram`] and [`flash_insert`] back into it.
fn on_dirtied(h: &Rc<HostCtx>, tier: Tier, addr: BlockAddr) -> bool {
    match tier.policy(&h.cfg) {
        WritebackPolicy::WriteThrough if filer_down(h) => {
            // Degraded mode: the filer is unreachable, so the blocking
            // write-through falls back to buffering — the block stays
            // dirty and the flush queue drains it once the outage clears.
            buffered_write(h);
            flush::submit(h, tier, addr);
            false
        }
        WritebackPolicy::WriteThrough => true,
        WritebackPolicy::AsyncWriteThrough => {
            flush::submit(h, tier, addr);
            false
        }
        WritebackPolicy::Periodic(_) | WritebackPolicy::None => false,
    }
}

// ---------------------------------------------------------------------------
// Flush machinery
// ---------------------------------------------------------------------------

/// Sends one dirty block to the backend, **write-all**: the write
/// acknowledges only when every *live* replica has accepted it (fanned
/// out concurrently, so the ack latency is the slowest live replica, not
/// the sum). If the whole replica set is down the write parks until a
/// replica returns — dirty data is never dropped. Flushing from flash
/// first pays a flash read (the data must come off the device) when
/// configured.
async fn flush_to_filer(h: &Rc<HostCtx>, addr: BlockAddr, src: FlushSource) {
    if src == FlushSource::Flash && h.cfg.charge_flash_read_on_writeback {
        // The data must come off the device before it can be sent.
        h.dev.read(addr).await;
    }
    let mut ring = h.remote.store.router().replica_set(addr);
    park_until_live(h, ring).await;
    let first = ring.next().expect("replication factor >= 1");
    // Only a replicated write fans out; the pool's lists stay that small.
    let mut handles = if ring.len() > 0 {
        scratch::take_joins()
    } else {
        Vec::new()
    };
    handles.extend(ring.map(|shard| {
        let h2 = Rc::clone(h);
        h.sim.spawn(async move {
            TaskClass::ReplicaLeg.tag(&h2.sim);
            write_one_replica(&h2, shard, addr).await
        })
    }));
    write_one_replica(h, first, addr).await;
    // Waiting out the slower replicas' spawned legs is ack fan-in: wire
    // time from the op's perspective.
    h.enter(Phase::Net);
    for handle in handles.drain(..) {
        handle.await;
    }
    scratch::put_joins(handles);
}

/// Writes one block to one replica, retrying transient failures without
/// bound (the backoff exponent is capped) regardless of the degraded
/// policy — durability over latency. A replica that is *down*, initially
/// or mid-retry, is skipped and its copy recorded as under-replicated
/// while another replica of the block is live; with none live the write
/// parks until one returns.
async fn write_one_replica(h: &Rc<HostCtx>, shard: u16, addr: BlockAddr) {
    let store = &h.remote.store;
    let mut attempt: u32 = 0;
    loop {
        let now = h.sim.now().as_nanos();
        if !store.live_at(shard, now) {
            let ring = store.router().replica_set(addr);
            if store.live_in(ring, now).next().is_some() {
                // A live replica holds the write: ack without this one
                // and leave the copy for recovery re-replication.
                store.mark_under_replicated(shard, addr, now);
                return;
            }
            park_until_live(h, ring).await;
            continue;
        }
        match write_exchange(h, shard).await {
            Ok(()) => return,
            Err(_) => {
                attempt += 1;
                failed_attempt(h, attempt).await;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Backend exchanges: "each I/O request uses one packet in each direction"
// (§5). Each leg draws from its schedule; an empty one never fails it.
// ---------------------------------------------------------------------------

/// One read exchange with `shard` over this host's segment to it: request
/// packet out, filer read service, payload packet back. Any leg can fail
/// transiently under a fault plan; a failed leg consumes no service time.
fn read_exchange(h: &Rc<HostCtx>, shard: u16, blocks: &[BlockAddr]) -> Stepped<Exchange> {
    let service = h.remote.store.filer(shard).read_service(blocks);
    let reply = u32::try_from(blocks.len()).expect("an op's blocks fit in u32");
    h.sim.stepped(Exchange::new(h, shard, service, [0, reply]))
}

/// One write exchange with `shard`: data packet out, buffered filer write,
/// acknowledgement back; fails like [`read_exchange`].
fn write_exchange(h: &Rc<HostCtx>, shard: u16) -> Stepped<Exchange> {
    let service = h.remote.store.filer(shard).write_service(1);
    h.sim.stepped(Exchange::new(h, shard, service, [1, 0]))
}

/// A backend exchange as a [`StepMachine`]: the run loop runs its two
/// middle steps at the task's place instead of polling it (PERF.md
/// invariant 17). At the request packet's end it lands the packet, which
/// hands the wire on, moves the op's span to `Filer`, draws the filer's
/// fault effect and service time, and sleeps. At the filer's end it moves
/// the span to `Net` and sends the reply packet, whose end polls the task.
/// A dropped packet or a filer fault has the task polled where it
/// happened, and the exchange yields that fault.
struct Exchange {
    h: Rc<HostCtx>,
    shard: u16,
    /// The filer service the request asks for.
    service: Service,
    /// Blocks of payload in the request and the reply packet.
    payload: [u32; 2],
    leg: Leg,
}

/// Where an [`Exchange`] is.
enum Leg {
    Start,
    /// The request packet waits for the wire.
    Request(Packet),
    /// The request packet is on the wire.
    RequestSent(OnWire),
    /// The filer serves the request.
    Filer,
    /// The reply packet waits for the wire.
    Reply(Packet),
    /// The reply packet is on the wire.
    ReplySent(OnWire),
    Failed(FaultError),
    Done,
}

impl Exchange {
    fn new(h: &Rc<HostCtx>, shard: u16, service: Service, payload: [u32; 2]) -> Self {
        Self {
            h: Rc::clone(h),
            shard,
            service,
            payload,
            leg: Leg::Start,
        }
    }
}

impl StepMachine for Exchange {
    type Output = Result<(), FaultError>;

    fn step(&mut self, cx: &mut Context<'_>, at_place: bool) -> Next<Self::Output> {
        let h = &*self.h;
        let seg = &h.remote.segments[usize::from(self.shard)];
        let [request, reply] = self.payload.map(|blocks| u64::from(blocks) * BLOCK_SIZE);
        loop {
            self.leg = match std::mem::replace(&mut self.leg, Leg::Done) {
                Leg::Start => {
                    h.enter(Phase::Net);
                    Leg::Request(seg.send(Direction::ToServer, request))
                }
                Leg::Request(mut packet) => match packet.poll_wire(cx) {
                    Poll::Pending => {
                        self.leg = Leg::Request(packet);
                        return Next::Wake;
                    }
                    Poll::Ready(Ok((on_wire, carry))) => {
                        self.leg = Leg::RequestSent(on_wire);
                        return Next::Sleep(carry);
                    }
                    Poll::Ready(Err(e)) => Leg::Failed(e),
                },
                Leg::RequestSent(on_wire) => {
                    seg.land(on_wire);
                    h.enter(Phase::Filer);
                    match h.remote.store.filer(self.shard).try_start(self.service) {
                        Ok(t) => {
                            self.leg = Leg::Filer;
                            return Next::Sleep(h.sim.sleep(t));
                        }
                        Err(e) => Leg::Failed(e),
                    }
                }
                Leg::Filer => {
                    h.enter(Phase::Net);
                    Leg::Reply(seg.send(Direction::FromServer, reply))
                }
                Leg::Reply(mut packet) => match packet.poll_wire(cx) {
                    Poll::Pending => {
                        self.leg = Leg::Reply(packet);
                        return Next::Wake;
                    }
                    Poll::Ready(Ok((on_wire, carry))) => {
                        self.leg = Leg::ReplySent(on_wire);
                        return Next::Sleep(carry);
                    }
                    Poll::Ready(Err(e)) => Leg::Failed(e),
                },
                // The end of the exchange is the task's poll.
                leg @ (Leg::ReplySent(_) | Leg::Failed(_)) if at_place => {
                    self.leg = leg;
                    return Next::Poll;
                }
                Leg::ReplySent(on_wire) => {
                    seg.land(on_wire);
                    return Next::Ready(Ok(()));
                }
                Leg::Failed(e) => return Next::Ready(Err(e)),
                Leg::Done => panic!("exchange stepped after it finished"),
            };
        }
    }
}

// ---------------------------------------------------------------------------
// Fetch loop, degraded mode, and retries (see `crate::robust`)
// ---------------------------------------------------------------------------

/// True when the filer fault schedule has an outage open right now. Always
/// false under an empty schedule, so write-through degradation never
/// engages on fault-free runs.
fn filer_down(h: &HostCtx) -> bool {
    let now = h.sim.now().as_nanos();
    h.fault.state.filer.outage_until(now).is_some()
}

/// Counts one write-through write degraded to buffered writeback.
fn buffered_write(h: &HostCtx) {
    RobustnessState::bump(&h.fault.state.buffered_writes);
}

/// While every shard of `ring` is in outage, sleeps until the first of
/// them clears, counting the op as parked; returns at once when one is
/// live.
async fn park_until_live(h: &HostCtx, ring: ReplicaSet) {
    while let Some(clear_ns) = h
        .remote
        .store
        .ring_outage_until(ring, h.sim.now().as_nanos())
    {
        RobustnessState::bump(&h.fault.state.queued_ops);
        let wait = SimTime::from_nanos(clear_ns).saturating_sub(h.sim.now());
        h.enter(Phase::DegradedPark);
        h.sim.sleep(wait.max(SimTime::from_nanos(1))).await;
    }
}

/// Charges one failed exchange attempt: the per-op timeout, then the
/// jittered exponential backoff before the retry.
async fn failed_attempt(h: &HostCtx, attempt: u32) {
    let f = &h.fault;
    RobustnessState::bump(&f.state.timeouts);
    h.enter(Phase::RetryBackoff);
    h.sim.sleep(f.op_timeout).await;
    RobustnessState::bump(&f.state.retries);
    h.note_retry();
    h.sim.sleep(f.backoff(attempt)).await;
}

/// Fetches a miss list from the backend: the list is partitioned by
/// primary shard and each group is served **read-any** across its replica
/// ring (see [`fetch_group`]). Returns whether every group's data arrived.
async fn fetch(h: &Rc<HostCtx>, blocks: &[BlockAddr]) -> bool {
    // Availability accounting against the backend schedule: filer-wide
    // clauses and shard-local clauses each contribute one distinct window,
    // so availability-per-window covers a single shard's outage as well as
    // a fleet-wide one.
    let state = &h.fault.state;
    let widx = state.acct.window_index_at(h.sim.now().as_nanos());
    state.window_op(widx);
    let router = h.remote.store.router();
    let ok = if router.shards() == 1 {
        // One shard owns every block: no partition copy.
        fetch_group(h, 0, blocks).await
    } else {
        let mut ok = true;
        let mut group = scratch::take_buf();
        for k in 0..router.shards() {
            group.clear();
            group.extend(blocks.iter().copied().filter(|b| router.primary(*b) == k));
            if !group.is_empty() && !fetch_group(h, k, &group).await {
                ok = false;
            }
        }
        scratch::put_buf(group);
        ok
    };
    if ok {
        state.window_ok(widx);
    }
    ok
}

/// Serves one primary-shard group: pick the first live replica in ring
/// order (counting a failover when it is not the primary), optionally
/// hedge against the next live one, and retry with timeout + jittered
/// backoff up to [`MAX_RETRIES`] on transient failures. A whole-ring outage
/// degrades per [`DegradedPolicy`]; cache hits keep serving either way.
async fn fetch_group(h: &Rc<HostCtx>, primary: u16, blocks: &[BlockAddr]) -> bool {
    let r = &h.remote;
    let ring = r.store.router().ring(primary);
    let mut attempt: u32 = 0;
    loop {
        let now = h.sim.now().as_nanos();
        let mut live = r.store.live_in(ring, now);
        let Some(first) = live.next() else {
            // The whole replica set is down: no replica can serve.
            let f = &h.fault;
            match h.cfg.degraded {
                DegradedPolicy::Queue => {
                    // Availability first: park the miss until a replica
                    // returns, then fetch.
                    park_until_live(h, ring).await;
                    continue;
                }
                DegradedPolicy::FailFast | DegradedPolicy::Strict => {
                    f.state.op_failed(&shard_outage_clause(r, primary, now));
                    return false;
                }
            }
        };
        // Hedge when configured and a second live replica exists to race.
        let hedge = r.hedge_ns.and_then(|d| live.next().map(|s| (s, d)));
        let served = match hedge {
            Some((second, delay_ns)) => hedged_exchange(h, first, second, delay_ns, blocks).await,
            None => read_exchange(h, first, blocks).await.map(|()| first),
        };
        match served {
            Ok(winner) => {
                if winner != primary {
                    r.store.note_failover();
                }
                return true;
            }
            Err(e) => {
                let f = &h.fault;
                if attempt >= MAX_RETRIES {
                    RobustnessState::bump(&f.state.timeouts);
                    h.enter(Phase::RetryBackoff);
                    h.sim.sleep(f.op_timeout).await;
                    f.state.op_failed(&e.clause);
                    return false;
                }
                attempt += 1;
                failed_attempt(h, attempt).await;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Hedged reads
// ---------------------------------------------------------------------------

/// Shared state of one hedged-read race (see [`hedged_exchange`]).
struct RaceState {
    /// The blocks both arms request.
    blocks: Vec<BlockAddr>,
    winner: Cell<Option<u16>>,
    pending: Cell<u8>,
    error: RefCell<Option<FaultError>>,
    waker: RefCell<Option<Waker>>,
}

impl RaceState {
    /// A race with both arms still out.
    fn new() -> Self {
        Self {
            blocks: Vec::new(),
            winner: Cell::new(None),
            pending: Cell::new(2),
            error: RefCell::new(None),
            waker: RefCell::new(None),
        }
    }

    /// Makes a finished race new again, keeping the block list's capacity.
    fn reset(&mut self) {
        self.blocks.clear();
        self.winner.set(None);
        self.pending.set(2);
        self.error.replace(None);
        self.waker.replace(None);
    }

    /// Records one arm's result; returns whether this arm won the race.
    fn arm_done(&self, shard: u16, result: Result<(), FaultError>) -> bool {
        self.pending.set(self.pending.get() - 1);
        let mut won = false;
        match result {
            Ok(()) => {
                if self.winner.get().is_none() {
                    self.winner.set(Some(shard));
                    won = true;
                }
            }
            Err(e) => {
                let mut slot = self.error.borrow_mut();
                if slot.is_none() {
                    *slot = Some(e);
                }
            }
        }
        self.maybe_wake();
        won
    }

    /// An arm that never launched (the race was decided first).
    fn arm_skipped(&self) {
        self.pending.set(self.pending.get() - 1);
        self.maybe_wake();
    }

    fn maybe_wake(&self) {
        if self.winner.get().is_some() || self.pending.get() == 0 {
            if let Some(w) = self.waker.borrow_mut().take() {
                w.wake();
            }
        }
    }
}

thread_local! {
    /// Finished race states, reset for the thread's next hedged read.
    static RACES: RefCell<Vec<Rc<RaceState>>> = const { RefCell::new(Vec::new()) };
}

/// One holder of a pooled race state: the op and each arm hold one. The
/// loser keeps running after the op moves on, so the state lives until
/// the last holder drops, which resets it and returns it to the thread's
/// pool.
struct Race(Rc<RaceState>);

impl Race {
    /// A race for `blocks`, from the pool when one is free.
    fn new(blocks: &[BlockAddr]) -> Self {
        let pooled = RACES.try_with(|p| p.borrow_mut().pop()).ok().flatten();
        let mut state = pooled.unwrap_or_else(|| Rc::new(RaceState::new()));
        Rc::get_mut(&mut state)
            .expect("a new race has one holder")
            .blocks
            .extend_from_slice(blocks);
        Race(state)
    }

    fn share(&self) -> Self {
        Race(Rc::clone(&self.0))
    }
}

impl std::ops::Deref for Race {
    type Target = RaceState;

    fn deref(&self) -> &RaceState {
        &self.0
    }
}

impl Drop for Race {
    fn drop(&mut self) {
        if let Some(state) = Rc::get_mut(&mut self.0) {
            state.reset();
            let _ = RACES.try_with(|p| p.borrow_mut().push(Rc::clone(&self.0)));
        }
    }
}

/// Resolves at the first arm success — the race's point: the op continues
/// at the winner's latency while the loser finishes in the background —
/// or when every arm has finished without one.
struct RaceDone(Race);

impl Future for RaceDone {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.0.winner.get().is_some() || self.0.pending.get() == 0 {
            return Poll::Ready(());
        }
        *self.0.waker.borrow_mut() = Some(cx.waker().clone());
        Poll::Pending
    }
}

/// Hedged read: send to `first` immediately; if it has not answered within
/// `delay_ns`, duplicate the request to `second` and take whichever
/// answers first. The late response is not awaited — its shard keeps
/// servicing it in the background (counted as a cancelled hedge when it
/// does arrive after losing).
async fn hedged_exchange(
    h: &Rc<HostCtx>,
    first: u16,
    second: u16,
    delay_ns: u64,
    blocks: &[BlockAddr],
) -> Result<u16, FaultError> {
    let state = Race::new(blocks);

    // Primary arm: the ordinary exchange.
    {
        let h2 = Rc::clone(h);
        let st = state.share();
        h.sim.spawn_daemon(async move {
            TaskClass::HedgePrimary.tag(&h2.sim);
            let res = read_exchange(&h2, first, &st.blocks).await;
            st.arm_done(first, res);
        });
    }
    // Hedge arm: waits out the hedge delay, then duplicates the request
    // unless the primary already answered.
    {
        let h2 = Rc::clone(h);
        let st = state.share();
        let launch = h.sim.now() + SimTime::from_nanos(delay_ns);
        h.sim.spawn_daemon_at(launch, async move {
            TaskClass::HedgeSecond.tag(&h2.sim);
            if st.winner.get().is_some() {
                // Primary answered inside the hedge delay: nothing sent.
                st.arm_skipped();
                return;
            }
            let store = Rc::clone(&h2.remote.store);
            store.note_hedge_launched();
            let res = read_exchange(&h2, second, &st.blocks).await;
            let arrived = res.is_ok();
            if st.arm_done(second, res) {
                store.note_hedge_won();
            } else if arrived {
                // The result arrived after the primary had already won.
                store.note_hedge_cancelled();
            }
        });
    }

    // The op's own time here is the race wait itself — neither arm's legs
    // run on the op task, so the whole interval is failover/hedge wait.
    h.enter(Phase::Failover);
    RaceDone(state.share()).await;
    match state.winner.get() {
        Some(w) => Ok(w),
        None => Err(state
            .error
            .borrow_mut()
            .take()
            .unwrap_or_else(|| FaultError {
                clause: format!("shard{first}:outage").into(),
            })),
    }
}

/// The clause text of the outage open on `shard` at `now_ns` (for failure
/// attribution when a miss fails fast).
fn shard_outage_clause(r: &RemoteCtx, shard: u16, now_ns: u64) -> Arc<str> {
    r.store
        .faults(shard)
        .windows()
        .iter()
        .find(|w| w.kind == FaultKind::Outage && w.start_ns <= now_ns && now_ns < w.end_ns)
        .map(|w| w.clause.clone())
        .unwrap_or_else(|| format!("shard{shard}:outage").into())
}

/// Flushes one block from `tier` if it is still dirty there (it may have
/// been evicted or invalidated since it was queued): RAM writes it below
/// the RAM tier; flash and unified frames write it to the filer, reading
/// it off the device first when it lives in flash.
pub(crate) async fn flush_block(h: &Rc<HostCtx>, tier: Tier, addr: BlockAddr) {
    let src = match tier {
        Tier::Ram => {
            if h.ram.borrow_mut().mark_clean(addr) {
                write_below_ram(h, addr).await;
            }
            return;
        }
        Tier::Flash => {
            if !h.flash.borrow_mut().mark_clean(addr) {
                return;
            }
            FlushSource::Flash
        }
        Tier::Unified(_) => {
            let mut u = h.unified().borrow_mut();
            if !u.is_dirty(addr) {
                return;
            }
            let medium = u.medium_of(addr).expect("dirty block is mapped");
            u.mark_clean(addr);
            FlushSource::of(medium)
        }
    };
    flush_to_filer(h, addr, src).await;
}

// ---------------------------------------------------------------------------
// Syncer daemons (periodic policies)
// ---------------------------------------------------------------------------

/// Flushes a batch of dirty blocks keeping up to `syncer_window` I/Os in
/// flight. The syncer is one thread issuing asynchronous I/O: the wire —
/// not the flush loop — is the writeback bottleneck, which is what lets
/// "any reasonable writeback policy maintain an ample supply of clean
/// blocks" (§7.1).
///
/// `handles` is the syncer's own long-lived join list, empty between
/// batches.
async fn flush_batch(
    h: &Rc<HostCtx>,
    blocks: &[BlockAddr],
    tier: Tier,
    handles: &mut Vec<JoinHandle<()>>,
) {
    let window = h.cfg.syncer_window.max(1);
    for chunk in blocks.chunks(window) {
        handles.extend(chunk.iter().map(|&b| {
            let h2 = Rc::clone(h);
            h.sim.spawn(async move {
                TaskClass::SyncerFlush.tag(&h2.sim);
                flush_block(&h2, tier, b).await
            })
        }));
        for handle in handles.drain(..) {
            handle.await;
        }
    }
}

/// Periodic syncer for one tier: every `period`, flush every block dirty
/// in it ("dirty data remains in the cache until a syncer thread flushes
/// the data back", §3.5). A tick that finds the tier clean is re-armed by
/// the executor without a poll (PERF.md invariant 17). The dirty-set
/// snapshot and the batch's join list reuse one buffer each across ticks
/// instead of allocating per tick.
pub(crate) async fn syncer(h: Rc<HostCtx>, tier: Tier, period: SimTime) {
    TaskClass::Syncer.tag(&h.sim);
    let (mut dirty, mut handles) = (Vec::new(), Vec::new());
    loop {
        let host = Rc::clone(&h);
        h.sim
            .idle_ticks(period, move || host.tier_clean(tier))
            .await;
        dirty.clear();
        h.dirty_blocks_into(tier, &mut dirty);
        flush_batch(&h, &dirty, tier, &mut handles).await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_exchange_future_is_no_larger_than_a_packet_future() {
        // A `Segment::try_transfer` future, one of the two packets an
        // exchange future carries, took 128 bytes when each exchange
        // awaited two of them and a filer sleep.
        let size = std::mem::size_of::<Stepped<Exchange>>();
        assert!(size <= 128, "{size} bytes");
    }
}
