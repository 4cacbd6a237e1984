//! Network segment model.
//!
//! §5 of the paper: "The network is modeled less exactly: each segment can
//! carry one packet at a time, and each I/O request uses one packet in each
//! direction. Each packet is assumed to incur a fixed latency (for headers,
//! block information, and so forth) plus a small amount of additional time
//! per bit of block data transferred."
//!
//! A [`Segment`] is therefore a FIFO wire plus a timing rule: a packet
//! holds the wire for `base + bits × per_bit`, and packets that find it
//! busy queue behind each other in request order. Hosts connect to the
//! filer "by private network segments" (§3), i.e. one `Segment` per host
//! with no cross-host contention — but full contention among the threads,
//! syncers, and evictions of a single host, which is what produces the
//! paper's eviction convoys.
//!
//! **Hand-over.** The packet that ends its hold hands the wire to the next
//! queued packet at that instant. On a half-duplex wire the grantee holds
//! the only channel until its packet ends, so no other fault draw on the
//! segment's RNG can come between the hand-over and the grantee's next
//! poll: the hand-over draws the grantee's fault effect itself and arms
//! the grantee with [`Sim::wake_at`] for the end of its packet, instead of
//! waking it to start a sleep (PERF.md invariant 17). A dropped packet (an
//! outage or an error draw) wakes the grantee normally, and it releases
//! the wire in its own poll. The two channels of a full-duplex segment
//! share one fault RNG, so there a packet on the other channel could draw
//! in between: a full-duplex grantee with fault schedules is woken
//! normally and draws in its own poll. The hand-over draws from the
//! grantee's own fault state: schedules belong to a handle, and a clone
//! made before [`Segment::with_faults`] has none.
//!
//! **Shared wires.** Cloning a `Segment` shares its channel *and* its
//! traffic counters: handing the same segment to several hosts models a
//! shared uplink where their packets queue FIFO against each other. The
//! fleet subsystem uses exactly this to simulate cross-host network
//! contention (`hosts_per_segment` hosts per wire); the time packets
//! spend waiting behind other packets is tallied separately from wire
//! time as [`SegmentStats::queue_wait`].

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use fcache_des::executor::Sleep;
use fcache_des::{Sim, SimTime};
use fcache_types::{FaultEffect, FaultError, FaultSchedule};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Direction of a packet on a segment.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Direction {
    /// Client → filer (requests, write payloads).
    ToServer,
    /// Filer → client (responses, read payloads).
    FromServer,
}

/// Wire timing parameters (Table 1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct NetConfig {
    /// Fixed per-packet latency (Table 1: 8.2 µs — "loosely corresponding
    /// to a gigabit network", §7).
    pub base_latency: SimTime,
    /// Per-bit data latency (Table 1: 1 ns / bit).
    pub per_bit: SimTime,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            base_latency: SimTime::from_nanos(8_200),
            per_bit: SimTime::from_nanos(1),
        }
    }
}

impl NetConfig {
    /// Table 1 values.
    pub fn paper_default() -> Self {
        Self::default()
    }

    /// Wire time of one packet carrying `payload_bytes` of block data.
    ///
    /// # Examples
    ///
    /// ```
    /// use fcache_net::NetConfig;
    /// use fcache_des::SimTime;
    ///
    /// let cfg = NetConfig::default();
    /// // Command-only packet: just the base latency.
    /// assert_eq!(cfg.packet_time(0), SimTime::from_nanos(8_200));
    /// // One 4 KB block: 8.2 µs + 32768 bits × 1 ns = 40.968 µs.
    /// assert_eq!(cfg.packet_time(4096), SimTime::from_nanos(40_968));
    /// ```
    pub fn packet_time(&self, payload_bytes: u64) -> SimTime {
        self.base_latency + self.per_bit.times(payload_bytes * 8)
    }
}

/// Traffic counters for a segment.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SegmentStats {
    /// Packets carried.
    pub packets: u64,
    /// Payload bytes carried.
    pub payload_bytes: u64,
    /// Total wire-busy time.
    pub busy: SimTime,
    /// Total time packets spent queued for the wire before transmitting
    /// (zero on an uncontended segment).
    pub queue_wait: SimTime,
    /// Packets that had to wait for the wire at all.
    pub queue_waits: u64,
}

/// Fault-injection state for a segment: one resolved schedule per
/// direction plus a dedicated RNG for `ErrorRate` draws.
struct SegmentFaults {
    to_server: FaultSchedule,
    from_server: FaultSchedule,
    rng: RefCell<SmallRng>,
}

impl SegmentFaults {
    fn schedule(&self, dir: Direction) -> &FaultSchedule {
        match dir {
            Direction::ToServer => &self.to_server,
            Direction::FromServer => &self.from_server,
        }
    }
}

/// One channel of a wire: whether a packet holds it, and the packets
/// waiting for it, oldest first (indices into [`Wire::waiters`]).
#[derive(Default)]
struct Channel {
    busy: bool,
    queue: VecDeque<u32>,
}

/// A packet waiting for, or just handed, a channel.
struct Waiter {
    state: WaitState,
    waker: Option<Waker>,
    dir: Direction,
    payload_bytes: u64,
    /// The packet's own fault state, drawn on when it takes the wire.
    faults: Option<Rc<SegmentFaults>>,
}

enum WaitState {
    Waiting,
    Granted(Grant),
    /// Dropped while queued: the hand-over skips and recycles it.
    Cancelled,
}

/// What the hand-over decided for the packet it granted the wire to.
enum Grant {
    /// Carry the packet from the hand-over until `until`. `armed` when the
    /// executor registers the grantee's timer for `until`; otherwise the
    /// grantee sleeps until then itself.
    Carry {
        wire_time: SimTime,
        until: SimTime,
        armed: bool,
    },
    /// The fault draw dropped the packet.
    Fail(FaultError),
    /// The grantee draws its fault effect in its own poll (a full-duplex
    /// grantee with fault schedules).
    Draw,
}

/// The shared state of a wire: its channels (a half-duplex wire uses the
/// first for both directions) and a slab of waiters recycled through a
/// free list, so steady-state queueing allocates nothing.
struct Wire {
    duplex: bool,
    channels: [Channel; 2],
    waiters: Vec<Waiter>,
    free: Vec<u32>,
}

impl Wire {
    fn new(duplex: bool) -> Self {
        Self {
            duplex,
            channels: Default::default(),
            waiters: Vec::new(),
            free: Vec::new(),
        }
    }

    fn channel(&self, dir: Direction) -> usize {
        match dir {
            Direction::FromServer if self.duplex => 1,
            _ => 0,
        }
    }

    fn alloc(&mut self, waiter: Waiter) -> u32 {
        match self.free.pop() {
            Some(i) => {
                self.waiters[i as usize] = waiter;
                i
            }
            None => {
                self.waiters.push(waiter);
                (self.waiters.len() - 1) as u32
            }
        }
    }
}

/// A network segment between hosts and the filer.
///
/// Half-duplex by default (one packet at a time in either direction, as the
/// paper specifies); [`Segment::new_duplex`] provides a full-duplex variant
/// used by the ablation benches. A clone shares the wire and the counters
/// with its original — private per-host wiring uses one `Segment` per
/// host, shared (fleet) wiring clones one `Segment` across a host group.
#[derive(Clone)]
pub struct Segment {
    sim: Sim,
    cfg: NetConfig,
    wire: Rc<RefCell<Wire>>,
    stats: Rc<Cell<SegmentStats>>,
    faults: Option<Rc<SegmentFaults>>,
}

impl Segment {
    /// Creates a half-duplex segment: both directions share one channel.
    pub fn new(sim: Sim, cfg: NetConfig) -> Self {
        Self::with_wire(sim, cfg, false)
    }

    /// Creates a full-duplex segment: each direction has its own channel.
    pub fn new_duplex(sim: Sim, cfg: NetConfig) -> Self {
        Self::with_wire(sim, cfg, true)
    }

    fn with_wire(sim: Sim, cfg: NetConfig, duplex: bool) -> Self {
        Self {
            sim,
            cfg,
            wire: Rc::new(RefCell::new(Wire::new(duplex))),
            stats: Rc::new(Cell::new(SegmentStats::default())),
            faults: None,
        }
    }

    /// Attaches per-direction fault schedules (seeded error draws).
    /// Without this, [`Segment::try_transfer`] behaves exactly like
    /// [`Segment::transfer`].
    pub fn with_faults(
        mut self,
        to_server: FaultSchedule,
        from_server: FaultSchedule,
        seed: u64,
    ) -> Self {
        self.faults = Some(Rc::new(SegmentFaults {
            to_server,
            from_server,
            rng: RefCell::new(SmallRng::seed_from_u64(seed)),
        }));
        self
    }

    /// Wire configuration.
    pub fn config(&self) -> NetConfig {
        self.cfg
    }

    /// Traffic counters so far.
    pub fn stats(&self) -> SegmentStats {
        self.stats.get()
    }

    /// Resets traffic counters (end of warmup).
    pub fn reset_stats(&self) {
        self.stats.set(SegmentStats::default());
    }

    /// Transfers one packet with `payload_bytes` of block data in the given
    /// direction, waiting FIFO for the wire and holding it for the packet's
    /// wire time.
    ///
    /// A packet that queues may be handed the wire with an armed timer
    /// ([`Sim::wake_at`]): its task is not polled at the hand-over. That
    /// is exact only when the packet is the task's one pending await, as
    /// in every caller in the simulator. Awaiting it beside other futures
    /// that share the task's waker (as the entries of a `WaitAll` do)
    /// would skip the poll those siblings expected at the hand-over
    /// instant.
    pub async fn transfer(&self, dir: Direction, payload_bytes: u64) {
        self.packet(dir, payload_bytes, None)
            .await
            .expect("a packet without a fault draw is never dropped");
    }

    /// Fault-aware [`Segment::transfer`]: on taking the wire, consults the
    /// direction's schedule at `sim.now()` and either drops the packet
    /// (no wire time, no stats), carries it with inflated wire time, or
    /// carries it normally. The same one-pending-await rule as
    /// [`Segment::transfer`] applies.
    pub async fn try_transfer(&self, dir: Direction, payload_bytes: u64) -> Result<(), FaultError> {
        self.packet(dir, payload_bytes, self.faults.as_ref()).await
    }

    fn packet<'a>(
        &'a self,
        dir: Direction,
        payload_bytes: u64,
        faults: Option<&'a Rc<SegmentFaults>>,
    ) -> Packet<'a> {
        Packet {
            seg: self,
            dir,
            channel: self.wire.borrow().channel(dir),
            payload_bytes,
            faults,
            queued_at: SimTime::ZERO,
            state: PacketState::Start,
        }
    }

    /// Wire time of a packet taking the wire now, or the fault that drops
    /// it. Draws on `faults` when the packet has fault state.
    fn wire_time(
        &self,
        dir: Direction,
        payload_bytes: u64,
        faults: Option<&Rc<SegmentFaults>>,
    ) -> Result<SimTime, FaultError> {
        let t = self.cfg.packet_time(payload_bytes);
        let Some(f) = faults else {
            return Ok(t);
        };
        let effect = {
            let mut rng = f.rng.borrow_mut();
            f.schedule(dir)
                .effect_at(self.sim.now().as_nanos(), &mut || {
                    rng.gen_range(0.0f64..1.0)
                })
        };
        match effect {
            FaultEffect::Fail { clause, .. } => Err(FaultError { clause }),
            FaultEffect::SlowBy(factor) => Ok(t.scale(factor)),
            FaultEffect::None => Ok(t),
        }
    }

    /// Releases `channel` at the end of a hold: hands it to the oldest
    /// waiting packet, or frees it when none waits.
    fn release(&self, channel: usize) {
        let mut wire = self.wire.borrow_mut();
        let i = loop {
            match wire.channels[channel].queue.pop_front() {
                None => {
                    wire.channels[channel].busy = false;
                    return;
                }
                Some(i) if matches!(wire.waiters[i as usize].state, WaitState::Cancelled) => {
                    wire.free.push(i);
                }
                Some(i) => break i as usize,
            }
        };
        let w = &mut wire.waiters[i];
        let waker = w.waker.take().expect("queued packet without a waker");
        let faults = w.faults.take();
        let (dir, payload_bytes) = (w.dir, w.payload_bytes);
        let grant = if faults.is_some() && wire.duplex {
            Grant::Draw
        } else {
            match self.wire_time(dir, payload_bytes, faults.as_ref()) {
                Err(e) => Grant::Fail(e),
                Ok(wire_time) => {
                    let until = self.sim.now() + wire_time;
                    Grant::Carry {
                        wire_time,
                        until,
                        armed: self.sim.wake_at(&waker, until),
                    }
                }
            }
        };
        let armed = matches!(grant, Grant::Carry { armed: true, .. });
        wire.waiters[i].state = WaitState::Granted(grant);
        drop(wire);
        if !armed {
            waker.wake();
        }
    }

    /// Counts one carried packet.
    fn record(&self, payload_bytes: u64, wire_time: SimTime, waited: SimTime) {
        let mut s = self.stats.get();
        s.packets += 1;
        s.payload_bytes += payload_bytes;
        s.busy += wire_time;
        if waited > SimTime::ZERO {
            s.queue_wait += waited;
            s.queue_waits += 1;
        }
        self.stats.set(s);
    }
}

/// Future of one packet: take the wire (at once, or FIFO behind the
/// packets queued before it), hold it for the packet's wire time, release
/// it to the next packet.
struct Packet<'a> {
    seg: &'a Segment,
    dir: Direction,
    channel: usize,
    payload_bytes: u64,
    faults: Option<&'a Rc<SegmentFaults>>,
    queued_at: SimTime,
    state: PacketState,
}

enum PacketState {
    Start,
    /// Waiting for the wire as waiter `i`.
    Queued(u32),
    /// Holding the wire until `until`; `sleep` is `None` when the
    /// hand-over armed this task's timer.
    Carrying {
        wire_time: SimTime,
        waited: SimTime,
        until: SimTime,
        sleep: Option<Sleep>,
    },
    Done,
}

impl Packet<'_> {
    /// Starts holding the wire now for `wire_time`, or drops the packet.
    fn take_wire(&mut self, drawn: Result<SimTime, FaultError>) -> Result<(), FaultError> {
        let sim = &self.seg.sim;
        match drawn {
            Err(e) => {
                self.state = PacketState::Done;
                self.seg.release(self.channel);
                Err(e)
            }
            Ok(wire_time) => {
                let until = sim.now() + wire_time;
                self.state = PacketState::Carrying {
                    wire_time,
                    waited: sim.now() - self.queued_at,
                    until,
                    sleep: Some(sim.sleep_until(until)),
                };
                Ok(())
            }
        }
    }
}

impl Future for Packet<'_> {
    type Output = Result<(), FaultError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let seg = this.seg;
        loop {
            match &mut this.state {
                PacketState::Start => {
                    this.queued_at = seg.sim.now();
                    let mut wire = seg.wire.borrow_mut();
                    let ch = &mut wire.channels[this.channel];
                    if !ch.busy && ch.queue.is_empty() {
                        ch.busy = true;
                        drop(wire);
                        let drawn = seg.wire_time(this.dir, this.payload_bytes, this.faults);
                        if let Err(e) = this.take_wire(drawn) {
                            return Poll::Ready(Err(e));
                        }
                    } else {
                        let i = wire.alloc(Waiter {
                            state: WaitState::Waiting,
                            waker: Some(cx.waker().clone()),
                            dir: this.dir,
                            payload_bytes: this.payload_bytes,
                            faults: this.faults.cloned(),
                        });
                        wire.channels[this.channel].queue.push_back(i);
                        this.state = PacketState::Queued(i);
                        return Poll::Pending;
                    }
                }
                PacketState::Queued(i) => {
                    let i = *i;
                    let mut wire = seg.wire.borrow_mut();
                    let w = &mut wire.waiters[i as usize];
                    if let WaitState::Waiting = w.state {
                        if !w.waker.as_ref().is_some_and(|k| k.will_wake(cx.waker())) {
                            w.waker = Some(cx.waker().clone());
                        }
                        return Poll::Pending;
                    }
                    // Granted: take the grant and recycle the waiter.
                    let WaitState::Granted(grant) =
                        std::mem::replace(&mut w.state, WaitState::Cancelled)
                    else {
                        unreachable!("polling a dropped packet")
                    };
                    wire.free.push(i);
                    drop(wire);
                    let drawn = match grant {
                        Grant::Carry {
                            wire_time,
                            until,
                            armed,
                        } => {
                            // The hand-over instant is `until - wire_time`.
                            this.state = PacketState::Carrying {
                                wire_time,
                                waited: until - wire_time - this.queued_at,
                                until,
                                sleep: (!armed).then(|| seg.sim.sleep_until(until)),
                            };
                            continue;
                        }
                        Grant::Fail(e) => Err(e),
                        Grant::Draw => seg.wire_time(this.dir, this.payload_bytes, this.faults),
                    };
                    if let Err(e) = this.take_wire(drawn) {
                        return Poll::Ready(Err(e));
                    }
                }
                PacketState::Carrying {
                    wire_time,
                    waited,
                    until,
                    sleep,
                } => {
                    let held = match sleep {
                        Some(s) => Pin::new(s).poll(cx).is_pending(),
                        None => seg.sim.now() < *until,
                    };
                    if held {
                        return Poll::Pending;
                    }
                    seg.record(this.payload_bytes, *wire_time, *waited);
                    this.state = PacketState::Done;
                    seg.release(this.channel);
                    return Poll::Ready(Ok(()));
                }
                PacketState::Done => panic!("packet polled after completion"),
            }
        }
    }
}

impl Drop for Packet<'_> {
    fn drop(&mut self) {
        match self.state {
            PacketState::Queued(i) => {
                let mut wire = self.seg.wire.borrow_mut();
                let w = &mut wire.waiters[i as usize];
                if matches!(w.state, WaitState::Waiting) {
                    // Still queued: the hand-over skips and recycles it.
                    w.state = WaitState::Cancelled;
                    w.waker = None;
                    return;
                }
                // Handed the wire but never took it: pass it on.
                wire.free.push(i);
                drop(wire);
                self.seg.release(self.channel);
            }
            PacketState::Carrying { .. } => self.seg.release(self.channel),
            PacketState::Start | PacketState::Done => {}
        }
    }
}

impl std::fmt::Debug for Segment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Segment")
            .field("cfg", &self.cfg)
            .field("stats", &self.stats.get())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_time_matches_table1_math() {
        let cfg = NetConfig::default();
        assert_eq!(cfg.packet_time(0).as_nanos(), 8_200);
        assert_eq!(cfg.packet_time(4096).as_nanos(), 8_200 + 4096 * 8);
        assert_eq!(cfg.packet_time(8 * 4096).as_nanos(), 8_200 + 8 * 4096 * 8);
    }

    #[test]
    fn transfer_takes_wire_time() {
        let sim = Sim::new();
        let seg = Segment::new(sim.clone(), NetConfig::default());
        let s = sim.clone();
        let seg2 = seg.clone();
        let h = sim.spawn(async move {
            seg2.transfer(Direction::ToServer, 4096).await;
            s.now()
        });
        sim.run().unwrap();
        assert_eq!(h.try_result().unwrap(), SimTime::from_nanos(40_968));
        assert_eq!(seg.stats().packets, 1);
        assert_eq!(seg.stats().payload_bytes, 4096);
    }

    #[test]
    fn half_duplex_serializes_both_directions() {
        let sim = Sim::new();
        let seg = Segment::new(sim.clone(), NetConfig::default());
        for dir in [Direction::ToServer, Direction::FromServer] {
            let seg = seg.clone();
            sim.spawn(async move {
                seg.transfer(dir, 0).await;
            });
        }
        let report = sim.run().unwrap();
        // Two command packets share one channel: 2 × 8.2 µs.
        assert_eq!(report.end_time, SimTime::from_nanos(16_400));
    }

    #[test]
    fn full_duplex_overlaps_directions() {
        let sim = Sim::new();
        let seg = Segment::new_duplex(sim.clone(), NetConfig::default());
        for dir in [Direction::ToServer, Direction::FromServer] {
            let seg = seg.clone();
            sim.spawn(async move {
                seg.transfer(dir, 0).await;
            });
        }
        let report = sim.run().unwrap();
        assert_eq!(report.end_time, SimTime::from_nanos(8_200));
    }

    #[test]
    fn contention_convoys_fifo() {
        let sim = Sim::new();
        let seg = Segment::new(sim.clone(), NetConfig::default());
        let n = 5;
        for _ in 0..n {
            let seg = seg.clone();
            sim.spawn(async move {
                seg.transfer(Direction::ToServer, 4096).await;
            });
        }
        let report = sim.run().unwrap();
        assert_eq!(report.end_time, SimTime::from_nanos(40_968 * n));
        assert_eq!(seg.stats().packets, n);
        assert_eq!(seg.stats().busy, SimTime::from_nanos(40_968 * n));
    }

    #[test]
    fn shared_clones_queue_and_tally_waits() {
        // Two "hosts" holding clones of one segment contend for the same
        // wire: transfers serialize FIFO, shared counters see both, and
        // the loser's wait shows up as queue_wait (the winner's does not).
        let sim = Sim::new();
        let seg = Segment::new(sim.clone(), NetConfig::default());
        for _host in 0..2 {
            let seg = seg.clone();
            sim.spawn(async move {
                seg.transfer(Direction::ToServer, 4096).await;
            });
        }
        let report = sim.run().unwrap();
        assert_eq!(report.end_time, SimTime::from_nanos(2 * 40_968));
        let s = seg.stats();
        assert_eq!(s.packets, 2);
        assert_eq!(s.queue_waits, 1, "only the second packet waited");
        assert_eq!(s.queue_wait, SimTime::from_nanos(40_968));
    }

    #[test]
    fn uncontended_transfer_records_no_wait() {
        let sim = Sim::new();
        let seg = Segment::new(sim.clone(), NetConfig::default());
        let seg2 = seg.clone();
        sim.spawn(async move {
            seg2.transfer(Direction::ToServer, 4096).await;
            seg2.transfer(Direction::FromServer, 0).await;
        });
        sim.run().unwrap();
        let s = seg.stats();
        assert_eq!(s.queue_waits, 0);
        assert_eq!(s.queue_wait, SimTime::ZERO);
    }

    #[test]
    fn reset_stats_zeroes_counters() {
        let sim = Sim::new();
        let seg = Segment::new(sim.clone(), NetConfig::default());
        let seg2 = seg.clone();
        sim.spawn(async move {
            seg2.transfer(Direction::ToServer, 4096).await;
        });
        sim.run().unwrap();
        assert_ne!(seg.stats(), SegmentStats::default());
        seg.reset_stats();
        assert_eq!(seg.stats(), SegmentStats::default());
    }
}
