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
//! busy queue behind each other in request order. Each channel is a
//! capacity-1 [`fcache_des::Resource`] (a half-duplex wire has one for
//! both directions). Hosts connect to the filer "by private network
//! segments" (§3), i.e. one `Segment` per host with no cross-host
//! contention — but full contention among the threads, syncers, and
//! evictions of a single host, which is what produces the paper's
//! eviction convoys.
//!
//! **Hand-over.** The channel's grant hook runs where the packet's task
//! would first see the wire: in its own poll when the wire is free, or at
//! its place in the ready queue when the packet that ends its hold hands
//! the wire over ([`fcache_des::GrantPlace`]). It draws the packet's fault
//! effect there, which fixes its wire time, and arms a queued grantee for
//! the end of its packet instead of having it polled to start a sleep
//! (PERF.md invariant 17). So every packet draws where its own poll would
//! have, on a half-duplex wire and on the two channels of a full-duplex
//! one alike, which share one fault RNG. A dropped packet (an outage or
//! an error draw) is polled at its place, and releases the wire there.
//!
//! A packet is also a pair of legs a caller can step itself:
//! [`Segment::send`] queues it, [`Packet::poll_wire`] yields it on the
//! wire with the sleep to its end, and [`Segment::land`] counts it and
//! hands the wire on. The engine's backend exchange steps two of them
//! and the filer's service between as one `fcache_des::StepMachine`, so
//! the request packet's end and the filer's end run at the task's place
//! too, and only the reply packet's end polls the task.
//!
//! **Faults.** Fault state belongs to the wire: every segment has one
//! schedule per direction and one error-draw RNG, shared by all its
//! clones, including clones made before [`Segment::with_faults`]. A new
//! segment's schedules are empty, and an empty schedule takes no draw,
//! so a fault-free wire is the same wire with nothing to inject.
//!
//! **Shared wires.** Cloning a `Segment` shares its channel *and* its
//! traffic counters: handing the same segment to several hosts models a
//! shared uplink where their packets queue FIFO against each other. The
//! fleet subsystem uses exactly this to simulate cross-host network
//! contention (`hosts_per_segment` hosts per wire); the time packets
//! spend waiting behind other packets is tallied separately from wire
//! time as [`SegmentStats::queue_wait`].

#![forbid(unsafe_code)]

use std::cell::{Cell, RefCell};
use std::future::{poll_fn, Future};
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use fcache_des::executor::Sleep;
use fcache_des::resource::Acquire;
use fcache_des::{GrantHook, GrantPlace, Resource, ResourceGuard, Sim, SimTime};
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
        Self::paper_default()
    }
}

impl NetConfig {
    /// Table 1 values.
    pub const fn paper_default() -> Self {
        Self {
            base_latency: SimTime::from_nanos(8_200),
            per_bit: SimTime::from_nanos(1),
        }
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

/// Fault-injection state for a wire: one resolved schedule per direction
/// plus a dedicated RNG for `ErrorRate` draws.
struct SegmentFaults {
    to_server: FaultSchedule,
    from_server: FaultSchedule,
    rng: SmallRng,
}

impl SegmentFaults {
    fn new(to_server: FaultSchedule, from_server: FaultSchedule, seed: u64) -> Self {
        Self {
            to_server,
            from_server,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// The effect in force on a `dir` packet taking the wire at `now_ns`.
    fn effect_at(&mut self, dir: Direction, now_ns: u64) -> FaultEffect {
        let sched = match dir {
            Direction::ToServer => &self.to_server,
            Direction::FromServer => &self.from_server,
        };
        let rng = &mut self.rng;
        sched.effect_at(now_ns, &mut || rng.gen_range(0.0f64..1.0))
    }
}

/// What every channel of a wire shares: its fault state and its traffic
/// counters.
struct WireState {
    faults: RefCell<SegmentFaults>,
    stats: Cell<SegmentStats>,
}

/// A wire as its channels see it, and the grant hook of each channel's
/// queue: a packet granted a channel draws its fault effect and learns
/// its wire time where it is granted.
#[derive(Clone)]
struct Wire {
    sim: Sim,
    cfg: NetConfig,
    state: Rc<WireState>,
}

impl Wire {
    /// Wire time of a `dir` packet taking the wire now, or the fault that
    /// drops it.
    fn wire_time(&self, dir: Direction, payload_bytes: u64) -> Result<SimTime, FaultError> {
        let t = self.cfg.packet_time(payload_bytes);
        let effect = self
            .state
            .faults
            .borrow_mut()
            .effect_at(dir, self.sim.now().as_nanos());
        match effect {
            FaultEffect::Fail { clause, .. } => Err(FaultError { clause }),
            FaultEffect::SlowBy(factor) => Ok(t.scale(factor)),
            FaultEffect::None => Ok(t),
        }
    }
}

impl GrantHook for Wire {
    type Request = (Direction, u64);
    /// The packet's wire time and the sleep to its end, or the fault that
    /// dropped it.
    type Outcome = Result<(Carried, Sleep), FaultError>;

    fn grant(
        &mut self,
        (dir, payload_bytes): (Direction, u64),
        place: &mut GrantPlace<'_>,
    ) -> Self::Outcome {
        let wire_time = self.wire_time(dir, payload_bytes)?;
        let carried = Carried {
            payload_bytes,
            wire_time,
        };
        Ok((carried, place.sleep_until(self.sim.now() + wire_time)))
    }
}

/// What a packet granted the wire carries, and for how long.
#[derive(Clone, Copy, Debug)]
struct Carried {
    payload_bytes: u64,
    wire_time: SimTime,
}

/// A packet waiting for its channel ([`Segment::send`]).
pub struct Packet {
    acquire: Acquire<Wire>,
    queued_at: SimTime,
}

impl Packet {
    /// Polls for the channel. Once granted, the packet has drawn its
    /// fault effect: a dropped packet releases the channel and yields the
    /// fault; a carried one yields the packet on the wire and the sleep
    /// to its end, after which [`Segment::land`] completes it.
    pub fn poll_wire(&mut self, cx: &mut Context<'_>) -> Poll<Result<(OnWire, Sleep), FaultError>> {
        let Poll::Ready((held, grant)) = Pin::new(&mut self.acquire).poll(cx) else {
            return Poll::Pending;
        };
        let (carried, carry) = grant?;
        let waited = carry.deadline() - carried.wire_time - self.queued_at;
        Poll::Ready(Ok((
            OnWire {
                _held: held,
                carried,
                waited,
            },
            carry,
        )))
    }
}

/// A packet holding its channel until its wire time is over.
pub struct OnWire {
    _held: ResourceGuard<Wire>,
    carried: Carried,
    /// How long it queued for the channel.
    waited: SimTime,
}

/// A network segment between hosts and the filer.
///
/// Half-duplex by default (one packet at a time in either direction, as the
/// paper specifies); [`Segment::new_duplex`] provides a full-duplex variant
/// used by the ablation benches. A clone shares the wire, its fault
/// state and the counters with its original — private per-host wiring
/// uses one `Segment` per host, shared (fleet) wiring clones one
/// `Segment` across a host group.
#[derive(Clone)]
pub struct Segment {
    wire: Wire,
    /// One capacity-1 queue per direction, indexed by `Direction as
    /// usize`; both are the same queue on a half-duplex wire.
    channels: [Resource<Wire>; 2],
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
        let wire = Wire {
            sim,
            cfg,
            state: Rc::new(WireState {
                faults: RefCell::new(SegmentFaults::new(
                    FaultSchedule::default(),
                    FaultSchedule::default(),
                    0,
                )),
                stats: Cell::new(SegmentStats::default()),
            }),
        };
        let to_server = Resource::with_hook(&wire.sim, 1, wire.clone());
        let from_server = if duplex {
            Resource::with_hook(&wire.sim, 1, wire.clone())
        } else {
            to_server.clone()
        };
        Self {
            wire,
            channels: [to_server, from_server],
        }
    }

    /// Sets the wire's per-direction fault schedules and seeds its error
    /// draws. The state belongs to the wire, so every clone of this
    /// segment, earlier or later, draws from it. Without this the
    /// schedules are empty and no packet draws.
    pub fn with_faults(
        self,
        to_server: FaultSchedule,
        from_server: FaultSchedule,
        seed: u64,
    ) -> Self {
        *self.wire.state.faults.borrow_mut() = SegmentFaults::new(to_server, from_server, seed);
        self
    }

    /// Wire configuration.
    pub fn config(&self) -> NetConfig {
        self.wire.cfg
    }

    /// Traffic counters so far.
    pub fn stats(&self) -> SegmentStats {
        self.wire.state.stats.get()
    }

    /// Resets traffic counters (end of warmup).
    pub fn reset_stats(&self) {
        self.wire.state.stats.set(SegmentStats::default());
    }

    /// Transfers one packet with `payload_bytes` of block data in the given
    /// direction, waiting FIFO for the wire and holding it for the packet's
    /// wire time. On taking the wire the packet consults the direction's
    /// fault schedule at `sim.now()` and is dropped (no wire time, no
    /// stats), carried with inflated wire time, or carried normally.
    ///
    /// A packet that queues may be handed the wire armed
    /// ([`GrantPlace::sleep_until`]): its task is not polled at its place.
    /// That is exact only when the packet is the task's one pending
    /// await, as in every caller in the simulator. Awaiting it beside
    /// other futures that share the task's waker (as the entries of a
    /// `WaitAll` do) would skip the poll those siblings expected at the
    /// hand-over.
    pub async fn try_transfer(&self, dir: Direction, payload_bytes: u64) -> Result<(), FaultError> {
        let mut packet = self.send(dir, payload_bytes);
        let (on_wire, carry) = poll_fn(|cx| packet.poll_wire(cx)).await?;
        carry.await;
        self.land(on_wire);
        Ok(())
    }

    /// Queues one packet with `payload_bytes` of block data in the given
    /// direction: [`try_transfer`](Segment::try_transfer) as a state
    /// machine's legs. Poll it for the wire ([`Packet::poll_wire`]), await
    /// the sleep it yields, then [`land`](Segment::land) it.
    pub fn send(&self, dir: Direction, payload_bytes: u64) -> Packet {
        Packet {
            acquire: self.channels[dir as usize].acquire_with((dir, payload_bytes)),
            queued_at: self.wire.sim.now(),
        }
    }

    /// Completes a packet whose wire time is over: counts it and releases
    /// its channel, which hands it to the next packet.
    pub fn land(&self, packet: OnWire) {
        let Carried {
            payload_bytes,
            wire_time,
        } = packet.carried;
        let stats = &self.wire.state.stats;
        let mut s = stats.get();
        s.packets += 1;
        s.payload_bytes += payload_bytes;
        s.busy += wire_time;
        if packet.waited > SimTime::ZERO {
            s.queue_wait += packet.waited;
            s.queue_waits += 1;
        }
        stats.set(s);
    }
}

impl std::fmt::Debug for Segment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Segment")
            .field("cfg", &self.wire.cfg)
            .field("stats", &self.stats())
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
            seg2.try_transfer(Direction::ToServer, 4096).await.unwrap();
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
                seg.try_transfer(dir, 0).await.unwrap();
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
                seg.try_transfer(dir, 0).await.unwrap();
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
                seg.try_transfer(Direction::ToServer, 4096).await.unwrap();
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
                seg.try_transfer(Direction::ToServer, 4096).await.unwrap();
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
            seg2.try_transfer(Direction::ToServer, 4096).await.unwrap();
            seg2.try_transfer(Direction::FromServer, 0).await.unwrap();
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
            seg2.try_transfer(Direction::ToServer, 4096).await.unwrap();
        });
        sim.run().unwrap();
        assert_ne!(seg.stats(), SegmentStats::default());
        seg.reset_stats();
        assert_eq!(seg.stats(), SegmentStats::default());
    }
}
