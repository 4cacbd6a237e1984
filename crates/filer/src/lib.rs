//! File server ("filer") model.
//!
//! §5 of the paper: "We do not attempt to model the caches or prefetching
//! behavior of the filer directly. … Instead we use a simple model: a
//! 'fast' latency for cache hits, a 'slow' latency for misses, and a
//! prefetch success rate that determines what fraction of reads are fast.
//! (Which reads are fast is random. Writes are buffered and always fast.)"
//!
//! Table 1 values: fast read 92 µs/block, slow read 7952 µs/block, write
//! 92 µs/block, fast read rate 90 %. Figure 5 sweeps the rate between a
//! pessimal 80 % and an optimistic 95 %.
//!
//! The filer itself is modeled as infinitely parallel — the paper assumes
//! "a high-performance filer with sophisticated read-ahead, nonvolatile
//! cache, and large server memory" (§2); the per-host network segment is
//! the contention point, not filer service.

use std::cell::{Cell, RefCell};

use fcache_des::{Sim, SimTime};
use fcache_types::{mix64, BlockAddr, FaultEffect, FaultError, FaultSchedule};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Filer timing parameters (Table 1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FilerConfig {
    /// Service time for a read that hits filer cache / readahead.
    pub fast_read: SimTime,
    /// Service time for a read that misses to disk.
    pub slow_read: SimTime,
    /// Service time for a (buffered) write.
    pub write: SimTime,
    /// Probability a block read is fast (the prefetch success rate).
    pub fast_read_rate: f64,
    /// Seed of the content hash behind the fast/slow draws.
    pub seed: u64,
}

impl Default for FilerConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

impl FilerConfig {
    /// Table 1 values.
    pub const fn paper_default() -> Self {
        Self {
            fast_read: SimTime::from_micros(92),
            slow_read: SimTime::from_micros(7952),
            write: SimTime::from_micros(92),
            fast_read_rate: 0.90,
            seed: 0xf11e_5e12,
        }
    }

    /// Copy with a different prefetch success rate (Figure 5 sweep).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not within `[0, 1]`.
    pub fn with_fast_read_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0,1]");
        self.fast_read_rate = rate;
        self
    }

    /// Expected per-block read service time under this configuration.
    pub fn expected_read(&self) -> SimTime {
        let f = self.fast_read_rate;
        SimTime::from_nanos(
            (self.fast_read.as_nanos() as f64 * f + self.slow_read.as_nanos() as f64 * (1.0 - f))
                .round() as u64,
        )
    }
}

/// Service counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FilerStats {
    /// Block reads served fast.
    pub fast_reads: u64,
    /// Block reads served slow.
    pub slow_reads: u64,
    /// Blocks written.
    pub writes: u64,
}

impl FilerStats {
    /// Observed fast-read fraction.
    pub fn fast_fraction(&self) -> f64 {
        let n = self.fast_reads + self.slow_reads;
        if n == 0 {
            0.0
        } else {
            self.fast_reads as f64 / n as f64
        }
    }
}

/// Fault-injection state for a filer: the resolved schedule plus a
/// dedicated RNG for `ErrorRate` draws. Fast/slow luck comes from the
/// content hash, so a faulted run's luck matches the healthy run's.
struct FilerFaults {
    sched: FaultSchedule,
    rng: RefCell<SmallRng>,
}

/// The shared file server.
pub struct Filer {
    sim: Sim,
    cfg: FilerConfig,
    stats: Cell<FilerStats>,
    faults: FilerFaults,
}

impl Filer {
    /// Creates a filer attached to a simulation, with an empty fault
    /// schedule.
    pub fn new(sim: Sim, cfg: FilerConfig) -> Self {
        Self {
            sim,
            cfg,
            stats: Cell::new(FilerStats::default()),
            faults: FilerFaults {
                sched: FaultSchedule::default(),
                rng: RefCell::new(SmallRng::seed_from_u64(0)),
            },
        }
    }

    /// Sets the resolved fault schedule and seeds its error draws. Without
    /// this the schedule is empty and the `try_*` paths never draw.
    pub fn with_faults(mut self, sched: FaultSchedule, seed: u64) -> Self {
        self.faults = FilerFaults {
            sched,
            rng: RefCell::new(SmallRng::seed_from_u64(seed)),
        };
        self
    }

    /// The resolved fault schedule (empty when the run injects nothing
    /// here).
    pub fn faults(&self) -> &FaultSchedule {
        &self.faults.sched
    }

    /// The fault effect in force right now ([`FaultEffect::None`] under an
    /// empty schedule, which takes no draw).
    fn fault_effect(&self) -> FaultEffect {
        let f = &self.faults;
        let now = self.sim.now().as_nanos();
        let mut rng = f.rng.borrow_mut();
        f.sched.effect_at(now, &mut || rng.gen_range(0.0f64..1.0))
    }

    /// Configuration in force.
    pub fn config(&self) -> FilerConfig {
        self.cfg
    }

    /// Counters so far.
    pub fn stats(&self) -> FilerStats {
        self.stats.get()
    }

    /// Resets counters (end of warmup).
    pub fn reset_stats(&self) {
        self.stats.set(FilerStats::default());
    }

    /// Whether a specific block reads fast, derived by hashing the block
    /// address with the filer seed (threshold = `fast_read_rate`).
    ///
    /// Hashing the *content* of the request instead of consuming a shared
    /// RNG sequence is the common-random-numbers variance-reduction
    /// technique: two configurations replaying the same trace see the same
    /// filer luck for the same blocks regardless of how their timing
    /// reorders request arrivals, so paired comparisons (latency vs. flash
    /// size, flash timing, …) measure the configuration difference rather
    /// than filer-draw noise. Across distinct blocks the outcomes remain
    /// pseudorandom at the configured rate, which is all the paper's model
    /// requires ("Which reads are fast is random", §5).
    pub fn block_is_fast(&self, addr: BlockAddr) -> bool {
        let rate = self.cfg.fast_read_rate;
        if rate <= 0.0 {
            return false;
        }
        if rate >= 1.0 {
            return true;
        }
        let threshold = (rate * (u64::MAX as f64)) as u64;
        mix64(self.cfg.seed ^ addr.to_u64().rotate_left(17)) < threshold
    }

    /// The service of reading the given blocks: each block is fast with
    /// probability `fast_read_rate` (content-hashed; see
    /// [`Filer::block_is_fast`]); the request's service time is the sum.
    /// A pure function of the blocks: nothing is counted until the service
    /// starts ([`Filer::try_start`]).
    pub fn read_service(&self, blocks: &[BlockAddr]) -> Service {
        let mut s = Service::default();
        for &b in blocks {
            if self.block_is_fast(b) {
                s.time += self.cfg.fast_read;
                s.fast_reads += 1;
            } else {
                s.time += self.cfg.slow_read;
                s.slow_reads += 1;
            }
        }
        s
    }

    /// The service of an `nblocks`-long (buffered, always fast) write.
    pub fn write_service(&self, nblocks: u32) -> Service {
        Service {
            time: self.cfg.write.times(nblocks as u64),
            writes: nblocks,
            ..Service::default()
        }
    }

    /// Counts `service` as served.
    fn count(&self, service: Service) {
        let mut stats = self.stats.get();
        stats.fast_reads += u64::from(service.fast_reads);
        stats.slow_reads += u64::from(service.slow_reads);
        stats.writes += u64::from(service.writes);
        self.stats.set(stats);
    }

    /// Draws and counts the service time for reading the given blocks
    /// ([`Filer::read_service`]).
    pub fn draw_read_service_for(&self, blocks: &[BlockAddr]) -> SimTime {
        let s = self.read_service(blocks);
        self.count(s);
        s.time
    }

    /// Service time for an `nblocks`-long (buffered, always fast) write.
    pub fn draw_write_service(&self, nblocks: u32) -> SimTime {
        let s = self.write_service(nblocks);
        self.count(s);
        s.time
    }

    /// Services a read request for specific blocks (content-hashed
    /// fast/slow draws): sleeps for the drawn service time.
    pub async fn read_blocks(&self, blocks: &[BlockAddr]) {
        let t = self.draw_read_service_for(blocks);
        self.sim.sleep(t).await;
    }

    /// Services a write request: sleeps for the drawn service time.
    pub async fn write(&self, nblocks: u32) {
        let t = self.draw_write_service(nblocks);
        self.sim.sleep(t).await;
    }

    /// Starts `service` now, under the attached fault schedule at
    /// `sim.now()`: either fails it (no service, no stats, no time), or
    /// counts it and returns its service time, inflated under a slow
    /// window. The caller waits that long.
    pub fn try_start(&self, service: Service) -> Result<SimTime, FaultError> {
        let time = match self.fault_effect() {
            FaultEffect::Fail { clause, .. } => return Err(FaultError { clause }),
            FaultEffect::SlowBy(factor) => service.time.scale(factor),
            FaultEffect::None => service.time,
        };
        self.count(service);
        Ok(time)
    }
}

/// What one request asks of the filer: its service time at full speed,
/// and the blocks it counts once started.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Service {
    time: SimTime,
    fast_reads: u32,
    slow_reads: u32,
    writes: u32,
}

impl std::fmt::Debug for Filer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Filer")
            .field("cfg", &self.cfg)
            .field("stats", &self.stats.get())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcache_types::FileId;

    #[test]
    fn default_matches_table1() {
        let cfg = FilerConfig::default();
        assert_eq!(cfg.fast_read, SimTime::from_micros(92));
        assert_eq!(cfg.slow_read, SimTime::from_micros(7952));
        assert_eq!(cfg.write, SimTime::from_micros(92));
        assert!((cfg.fast_read_rate - 0.9).abs() < 1e-9);
    }

    #[test]
    fn expected_read_mixes_fast_and_slow() {
        // 0.9 × 92 + 0.1 × 7952 = 878 µs.
        let e = FilerConfig::default().expected_read();
        assert_eq!(e, SimTime::from_nanos(878_000));
    }

    /// `n` distinct block addresses.
    fn distinct_blocks(n: u32) -> Vec<BlockAddr> {
        (0..n)
            .map(|i| BlockAddr::new(FileId(i >> 10), i & 0x3ff))
            .collect()
    }

    #[test]
    fn fast_fraction_converges_to_rate() {
        let sim = Sim::new();
        let filer = Filer::new(sim, FilerConfig::default());
        let mut total = SimTime::ZERO;
        let n = 50_000;
        for b in distinct_blocks(n) {
            total += filer.draw_read_service_for(&[b]);
        }
        let frac = filer.stats().fast_fraction();
        assert!((frac - 0.9).abs() < 0.01, "observed fast fraction {frac}");
        // Mean service near the analytic expectation.
        let mean_us = total.as_micros_f64() / n as f64;
        assert!((mean_us - 878.0).abs() < 40.0, "mean read {mean_us} µs");
    }

    #[test]
    fn writes_always_fast_and_counted() {
        let sim = Sim::new();
        let filer = Filer::new(sim, FilerConfig::default());
        assert_eq!(filer.draw_write_service(8), SimTime::from_micros(92 * 8));
        assert_eq!(filer.stats().writes, 8);
    }

    #[test]
    fn read_sleeps_service_time() {
        let sim = Sim::new();
        let filer = Filer::new(sim.clone(), FilerConfig::default().with_fast_read_rate(1.0));
        let s = sim.clone();
        let h = sim.spawn(async move {
            filer.read_blocks(&distinct_blocks(2)).await;
            s.now()
        });
        sim.run().unwrap();
        assert_eq!(h.try_result().unwrap(), SimTime::from_micros(184));
    }

    #[test]
    fn rate_extremes() {
        let sim = Sim::new();
        let always_fast = Filer::new(sim.clone(), FilerConfig::default().with_fast_read_rate(1.0));
        assert_eq!(
            always_fast.draw_read_service_for(&distinct_blocks(3)),
            SimTime::from_micros(276)
        );
        let always_slow = Filer::new(sim, FilerConfig::default().with_fast_read_rate(0.0));
        assert_eq!(
            always_slow.draw_read_service_for(&distinct_blocks(1)),
            SimTime::from_micros(7952)
        );
    }

    #[test]
    #[should_panic(expected = "rate must be in [0,1]")]
    fn invalid_rate_panics() {
        let _ = FilerConfig::default().with_fast_read_rate(1.5);
    }

    #[test]
    fn content_hashed_draws_converge_and_pair() {
        let sim = Sim::new();
        let filer = Filer::new(sim.clone(), FilerConfig::default());
        let addrs = distinct_blocks(50_000);
        let t1 = filer.draw_read_service_for(&addrs);
        let frac = filer.stats().fast_fraction();
        assert!((frac - 0.9).abs() < 0.01, "observed fast fraction {frac}");
        // Paired: a second filer with the same seed sees identical luck
        // for the same blocks, independent of request order.
        let filer2 = Filer::new(sim, FilerConfig::default());
        let mut rev = addrs.clone();
        rev.reverse();
        let t2 = filer2.draw_read_service_for(&rev);
        assert_eq!(t1, t2);
        for &a in addrs.iter().take(100) {
            assert_eq!(filer.block_is_fast(a), filer2.block_is_fast(a));
        }
        // Rate extremes stay exact.
        let always = Filer::new(Sim::new(), FilerConfig::default().with_fast_read_rate(1.0));
        let never = Filer::new(Sim::new(), FilerConfig::default().with_fast_read_rate(0.0));
        for &a in addrs.iter().take(1000) {
            assert!(always.block_is_fast(a));
            assert!(!never.block_is_fast(a));
        }
    }
}
