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
//! **Hand-over.** The channel's grant hook runs in the poll that grants
//! a packet the wire: the packet's own poll when the wire is free, or the
//! poll of the packet that ends its hold, at that instant. It draws the
//! packet's fault effect, which fixes its wire time, and arms a queued
//! grantee with [`Sim::wake_at`] for the end of its packet instead of
//! waking it to start a sleep (PERF.md invariant 17). On a half-duplex
//! wire the grantee holds the only channel until its packet ends, so no
//! other fault draw on the segment's RNG can come between the grant and
//! the grantee's next poll. A dropped packet (an outage or an error draw)
//! wakes the grantee normally, and it releases the wire in its own poll.
//! The two channels of a full-duplex segment share one fault RNG, so
//! there a packet on the other channel could draw in between: on a
//! full-duplex segment with net fault windows the hook leaves the draw to
//! the grantee, which is woken normally and draws in its own poll.
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
use std::future::poll_fn;
use std::rc::Rc;
use std::task::{Poll, Waker};

use fcache_des::{GrantHook, Resource, Sim, SimTime};
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

    /// Whether either direction has a window.
    fn has_windows(&self) -> bool {
        !self.to_server.is_empty() || !self.from_server.is_empty()
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
    duplex: bool,
    faults: RefCell<SegmentFaults>,
    stats: Cell<SegmentStats>,
}

/// A wire as its channels see it, and the grant hook of each channel's
/// queue: a packet granted a channel draws its fault effect and learns
/// its wire time in the poll that grants it.
#[derive(Clone)]
struct Wire {
    sim: Sim,
    cfg: NetConfig,
    state: Rc<WireState>,
}

/// What the grant decided for a packet.
enum Grant {
    /// Carry the packet from the grant until `until`. `armed` when the
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
    /// grantee on a wire with net fault windows).
    Draw,
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
    type Outcome = Grant;

    fn grant(&mut self, (dir, payload_bytes): (Direction, u64), waker: &Waker) -> (Grant, bool) {
        if self.state.duplex && self.state.faults.borrow().has_windows() {
            return (Grant::Draw, false);
        }
        match self.wire_time(dir, payload_bytes) {
            Err(e) => (Grant::Fail(e), false),
            Ok(wire_time) => {
                let until = self.sim.now() + wire_time;
                let armed = self.sim.wake_at(waker, until);
                (
                    Grant::Carry {
                        wire_time,
                        until,
                        armed,
                    },
                    armed,
                )
            }
        }
    }

    fn disarm(&mut self, waker: &Waker) {
        self.sim.disarm(waker);
    }
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
                duplex,
                faults: RefCell::new(SegmentFaults::new(
                    FaultSchedule::default(),
                    FaultSchedule::default(),
                    0,
                )),
                stats: Cell::new(SegmentStats::default()),
            }),
        };
        let to_server = Resource::with_hook(1, wire.clone());
        let from_server = if duplex {
            Resource::with_hook(1, wire.clone())
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
    /// A packet that queues may be handed the wire with an armed timer
    /// ([`Sim::wake_at`]): its task is not polled at the hand-over. That
    /// is exact only when the packet is the task's one pending await, as
    /// in every caller in the simulator. Awaiting it beside other futures
    /// that share the task's waker (as the entries of a `WaitAll` do)
    /// would skip the poll those siblings expected at the hand-over
    /// instant.
    pub async fn try_transfer(&self, dir: Direction, payload_bytes: u64) -> Result<(), FaultError> {
        let queued_at = self.wire.sim.now();
        let (_held, grant) = self.channels[dir as usize]
            .acquire_with((dir, payload_bytes))
            .await;
        let sim = &self.wire.sim;
        let (wire_time, until, armed) = match grant {
            Grant::Carry {
                wire_time,
                until,
                armed,
            } => (wire_time, until, armed),
            Grant::Fail(e) => return Err(e),
            Grant::Draw => {
                let wire_time = self.wire.wire_time(dir, payload_bytes)?;
                (wire_time, sim.now() + wire_time, false)
            }
        };
        if armed {
            // The grant registered this task's timer for `until`.
            poll_fn(|_| {
                if sim.now() < until {
                    Poll::Pending
                } else {
                    Poll::Ready(())
                }
            })
            .await;
        } else {
            sim.sleep_until(until).await;
        }
        // The grant instant is `until - wire_time`.
        self.record(payload_bytes, wire_time, until - wire_time - queued_at);
        Ok(())
    }

    /// Counts one carried packet.
    fn record(&self, payload_bytes: u64, wire_time: SimTime, waited: SimTime) {
        let stats = &self.wire.state.stats;
        let mut s = stats.get();
        s.packets += 1;
        s.payload_bytes += payload_bytes;
        s.busy += wire_time;
        if waited > SimTime::ZERO {
            s.queue_wait += waited;
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
