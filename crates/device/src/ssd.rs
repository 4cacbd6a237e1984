//! Behavioral SSD latency model.
//!
//! The paper validated its constant-average flash timing against two
//! consumer SSDs (§6.2) and reported three findings, all reproduced by this
//! model:
//!
//! 1. "both devices exhibited high variance in their access latency, \[but\]
//!    this variance is short-term; across a group of 10,000 to 100,000
//!    block accesses … the average behavior is quite reasonable" —
//!    multiplicative noise with occasional large spikes whose window
//!    averages are stable.
//! 2. "both devices maintained a single average write latency from
//!    beginning to end across essentially all the workloads" — write
//!    latency is fill- and wear-independent (drive RAM buffers writes);
//!    "only the read latency fluctuated significantly over time as the
//!    device filled", with "a weak relationship between higher write
//!    volumes and worse read performance".
//! 3. "the read performance replaying the simulator logs is much better
//!    than the read performance doing purely random I/Os. Caching
//!    workloads are not random." — a small direct-mapped FTL map cache
//!    makes reads with spatial/temporal locality cheaper than uniformly
//!    random reads.
//!
//! Replaying a simulator [`crate::IoLog`] through [`SsdModel::replay_windows`]
//! regenerates Figure 1 (10,000-I/O window averages of read and write
//! latency over cumulative I/O count).

use fcache_des::SimTime;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::iolog::{IoDirection, IoLogEntry};

/// Tunable parameters of the behavioral SSD model.
#[derive(Clone, Debug, PartialEq)]
pub struct SsdConfig {
    /// Device capacity in 4 KB blocks (the paper's Figure 1 device is
    /// 58 GB). LBAs wrap modulo this capacity. Zero is the *auto* sentinel
    /// ([`SsdConfig::auto`]): the consumer fits the device to whatever it
    /// backs (the simulator sizes it to the flash cache tier) via
    /// [`SsdConfig::fit_capacity`] before building a model.
    pub capacity_blocks: u64,
    /// Read service time when the FTL map cache hits and the device is
    /// empty. Tuned so that a cache-shaped workload on a mostly-full
    /// device averages near the Table 1 value of 88 µs.
    pub read_base: SimTime,
    /// Mean write service time (Table 1: 21 µs).
    pub write_base: SimTime,
    /// log2 of blocks per FTL mapping region.
    pub region_shift: u32,
    /// Direct-mapped FTL map cache slots.
    pub map_cache_slots: usize,
    /// Multiplier applied to reads that miss the map cache.
    pub read_miss_factor: f64,
    /// Extra read latency fraction at 100 % device fill.
    pub fill_read_penalty: f64,
    /// Extra read latency fraction after one full device overwrite of
    /// cumulative writes (the "weak relationship" with write volume).
    pub wear_read_penalty: f64,
    /// NCQ-style service-queue depth: how many commands the device accepts
    /// (and services) concurrently before submitters back up.
    pub queue_depth: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SsdConfig {
    fn default() -> Self {
        Self {
            capacity_blocks: (58u64 << 30) / 4096,
            read_base: SimTime::from_micros(52),
            write_base: SimTime::from_micros(21),
            region_shift: 10, // 4 MB regions
            map_cache_slots: 4096,
            read_miss_factor: 2.4,
            fill_read_penalty: 0.35,
            wear_read_penalty: 0.15,
            queue_depth: 32,
            seed: 0x55d_f1a5,
        }
    }
}

impl SsdConfig {
    /// Convenience: a small device for tests (capacity in blocks).
    pub fn small(capacity_blocks: u64, seed: u64) -> Self {
        Self {
            capacity_blocks,
            seed,
            map_cache_slots: 256,
            ..Self::default()
        }
    }

    /// A device whose FTL mapping-region size and map cache scale with its
    /// capacity (≥1024 regions, cache covering ~1/16 of them), so that
    /// scaled-down devices keep the paper's locality behavior: purely
    /// random reads thrash the map cache while cache-shaped access does
    /// not.
    pub fn sized(capacity_blocks: u64, seed: u64) -> Self {
        let base = Self::default();
        // Shrink regions until the device holds at least 1024 of them.
        let mut region_shift = base.region_shift;
        while region_shift > 0 && (capacity_blocks >> region_shift) < 1024 {
            region_shift -= 1;
        }
        let regions = (capacity_blocks >> region_shift).max(1);
        Self {
            capacity_blocks,
            seed,
            region_shift,
            map_cache_slots: (regions / 16).clamp(16, 1 << 20) as usize,
            ..base
        }
    }

    /// The auto-sizing configuration: capacity 0 means "fit the device to
    /// whatever it backs". Consumers must call [`SsdConfig::fit_capacity`]
    /// before constructing a model.
    pub fn auto() -> Self {
        Self {
            capacity_blocks: 0,
            ..Self::default()
        }
    }

    /// Fits the device to `blocks` of capacity, re-deriving the
    /// locality parameters ([`SsdConfig::sized`]'s region/map-cache
    /// scaling) while preserving every tuned latency field of `self`.
    /// Capacity is clamped to at least one block so a model can always be
    /// built. No-op on the capacity if it is already nonzero *and* matches.
    pub fn fit_capacity(self, blocks: u64) -> Self {
        let capacity_blocks = blocks.max(1);
        let locality = Self::sized(capacity_blocks, self.seed);
        Self {
            capacity_blocks,
            region_shift: locality.region_shift,
            map_cache_slots: locality.map_cache_slots,
            ..self
        }
    }

    /// Derives the per-host instance of this configuration: each simulated
    /// host owns a physically distinct device, so its RNG stream mixes the
    /// run seed and the host index into the device seed. Deterministic —
    /// the same `(config, run_seed, host)` triple always yields the same
    /// device.
    pub fn for_host(self, run_seed: u64, host: u16) -> Self {
        let seed = self
            .seed
            .wrapping_add(run_seed.rotate_left(29))
            .wrapping_add((u64::from(host) + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        Self { seed, ..self }
    }
}

/// Average latencies over one window of replayed I/Os (one Figure 1 point).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WindowStat {
    /// Index of the first I/O in the window.
    pub start_io: u64,
    /// Mean read latency in the window (µs); NaN-free: 0 when no reads.
    pub read_avg_us: f64,
    /// Mean write latency in the window (µs); 0 when no writes.
    pub write_avg_us: f64,
    /// Reads in the window.
    pub reads: u64,
    /// Writes in the window.
    pub writes: u64,
}

/// Folds serviced I/Os into one [`WindowStat`] per `window` I/Os: the
/// accumulator behind both [`SsdModel::replay_windows`] and the engine's
/// in-run device windows.
#[derive(Clone, Debug)]
pub struct WindowAcc {
    window: u64,
    start_io: u64,
    ios: u64,
    read_ns: u64,
    reads: u64,
    write_ns: u64,
    writes: u64,
    closed: Vec<WindowStat>,
}

impl WindowAcc {
    /// An accumulator closing a window every `window` I/Os.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be nonzero");
        Self {
            window: window as u64,
            start_io: 0,
            ios: 0,
            read_ns: 0,
            reads: 0,
            write_ns: 0,
            writes: 0,
            closed: Vec::new(),
        }
    }

    /// Adds one serviced I/O, closing the window when it is full.
    pub fn record(&mut self, dir: IoDirection, t: SimTime) {
        match dir {
            IoDirection::Read => {
                self.reads += 1;
                self.read_ns += t.as_nanos();
            }
            IoDirection::Write => {
                self.writes += 1;
                self.write_ns += t.as_nanos();
            }
        }
        self.ios += 1;
        if self.ios >= self.window {
            self.close();
        }
    }

    /// Takes the closed windows plus the partial current one, if any I/O
    /// landed in it; later I/Os start a new window.
    pub fn take(&mut self) -> Vec<WindowStat> {
        if self.ios > 0 {
            self.close();
        }
        std::mem::take(&mut self.closed)
    }

    fn close(&mut self) {
        self.closed.push(WindowStat {
            start_io: self.start_io,
            read_avg_us: if self.reads > 0 {
                self.read_ns as f64 / self.reads as f64 / 1000.0
            } else {
                0.0
            },
            write_avg_us: if self.writes > 0 {
                self.write_ns as f64 / self.writes as f64 / 1000.0
            } else {
                0.0
            },
            reads: self.reads,
            writes: self.writes,
        });
        self.start_io += self.ios;
        (
            self.ios,
            self.read_ns,
            self.reads,
            self.write_ns,
            self.writes,
        ) = (0, 0, 0, 0, 0);
    }
}

/// Stateful SSD latency generator.
pub struct SsdModel {
    cfg: SsdConfig,
    rng: SmallRng,
    /// Direct-mapped cache of recently touched mapping regions.
    map_cache: Vec<u64>,
    /// Which blocks have ever been written (device fill state).
    written: Vec<u64>, // bitset
    fill_count: u64,
    cumulative_writes: u64,
}

const EMPTY_SLOT: u64 = u64::MAX;

impl SsdModel {
    /// Creates a model from a configuration.
    pub fn new(cfg: SsdConfig) -> Self {
        let words = (cfg.capacity_blocks as usize).div_ceil(64);
        Self {
            rng: SmallRng::seed_from_u64(cfg.seed),
            map_cache: vec![EMPTY_SLOT; cfg.map_cache_slots.max(1)],
            written: vec![0u64; words],
            fill_count: 0,
            cumulative_writes: 0,
            cfg,
        }
    }

    /// Fraction of device blocks ever written (0.0–1.0).
    pub fn fill_fraction(&self) -> f64 {
        self.fill_count as f64 / self.cfg.capacity_blocks as f64
    }

    /// Total write count so far.
    pub fn cumulative_writes(&self) -> u64 {
        self.cumulative_writes
    }

    fn lba(&self, lba: u64) -> u64 {
        lba % self.cfg.capacity_blocks
    }

    fn touch_region(&mut self, lba: u64) -> bool {
        let region = lba >> self.cfg.region_shift;
        // Fibonacci hashing spreads sequential regions over the table.
        let slot =
            ((region.wrapping_mul(0x9e37_79b9_7f4a_7c15)) >> 32) as usize % self.map_cache.len();
        let hit = self.map_cache[slot] == region;
        self.map_cache[slot] = region;
        hit
    }

    fn mark_written(&mut self, lba: u64) {
        let (word, bit) = ((lba / 64) as usize, lba % 64);
        if self.written[word] & (1 << bit) == 0 {
            self.written[word] |= 1 << bit;
            self.fill_count += 1;
        }
    }

    /// Multiplicative noise with mean ≈ 1 and rare large spikes: high
    /// variance per access, stable 10k-window averages.
    fn noise(&mut self, spike_prob: f64, spike_max: f64) -> f64 {
        if self.rng.gen_bool(spike_prob) {
            self.rng.gen_range(2.0..spike_max)
        } else {
            // Mean chosen so that the mixture mean is ~1.0.
            let spike_mean = (2.0 + spike_max) / 2.0;
            let body_mean = (1.0 - spike_prob * spike_mean) / (1.0 - spike_prob);
            self.rng.gen_range(0.5 * body_mean..1.5 * body_mean)
        }
    }

    /// Services one block read, returning its latency.
    pub fn read(&mut self, lba: u64) -> SimTime {
        let lba = self.lba(lba);
        let hit = self.touch_region(lba);
        let mut factor = if hit { 1.0 } else { self.cfg.read_miss_factor };
        factor *= 1.0 + self.cfg.fill_read_penalty * self.fill_fraction();
        let wear = (self.cumulative_writes as f64 / self.cfg.capacity_blocks as f64).min(1.0);
        factor *= 1.0 + self.cfg.wear_read_penalty * wear;
        let n = self.noise(0.02, 8.0);
        self.cfg.read_base.scale(factor * n)
    }

    /// Services one block write, returning its latency.
    ///
    /// Writes are buffered by drive RAM: no fill or wear dependence.
    pub fn write(&mut self, lba: u64) -> SimTime {
        let lba = self.lba(lba);
        self.touch_region(lba);
        self.mark_written(lba);
        self.cumulative_writes += 1;
        let n = self.noise(0.01, 5.0);
        self.cfg.write_base.scale(n)
    }

    /// Services one logged I/O.
    pub fn service(&mut self, entry: IoLogEntry) -> SimTime {
        match entry.dir {
            IoDirection::Read => self.read(entry.lba),
            IoDirection::Write => self.write(entry.lba),
        }
    }

    /// Replays a log, producing one [`WindowStat`] per `window` I/Os —
    /// exactly the data behind Figure 1 ("Each point is the average of
    /// 10,000 block I/Os").
    pub fn replay_windows(&mut self, log: &[IoLogEntry], window: usize) -> Vec<WindowStat> {
        let mut acc = WindowAcc::new(window);
        for e in log {
            let t = self.service(*e);
            acc.record(e.dir, t);
        }
        acc.take()
    }
}

impl std::fmt::Debug for SsdModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SsdModel")
            .field("capacity_blocks", &self.cfg.capacity_blocks)
            .field("fill", &format!("{:.1}%", 100.0 * self.fill_fraction()))
            .field("cumulative_writes", &self.cumulative_writes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn model(cap: u64, seed: u64) -> SsdModel {
        SsdModel::new(SsdConfig::small(cap, seed))
    }

    /// Zipf-ish skewed LBA stream: most accesses to a small hot set.
    fn cache_shaped(n: usize, cap: u64, seed: u64) -> Vec<IoLogEntry> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let hot = rng.gen_bool(0.85);
                let lba = if hot {
                    rng.gen_range(0..cap / 50)
                } else {
                    rng.gen_range(0..cap)
                };
                let dir = if rng.gen_bool(0.3) {
                    IoDirection::Write
                } else {
                    IoDirection::Read
                };
                IoLogEntry { dir, lba }
            })
            .collect()
    }

    fn random_reads(n: usize, cap: u64, seed: u64) -> Vec<IoLogEntry> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| IoLogEntry {
                dir: IoDirection::Read,
                lba: rng.gen_range(0..cap),
            })
            .collect()
    }

    #[test]
    fn write_mean_is_stable_over_device_life() {
        // §6.2 finding 2: single average write latency from beginning to
        // end, even under heavy write volume.
        let cap = 1 << 20; // 4 GB device
        let mut m = model(cap, 1);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut window_means = Vec::new();
        for _ in 0..20 {
            let mut sum = 0u64;
            let n = 20_000;
            for _ in 0..n {
                sum += m.write(rng.gen_range(0..cap)).as_nanos();
            }
            window_means.push(sum as f64 / n as f64);
        }
        let first = window_means[0];
        let last = *window_means.last().unwrap();
        assert!(
            (last - first).abs() / first < 0.05,
            "write mean drifted: first {first} last {last}"
        );
        // And the mean is near the Table 1 value of 21 µs.
        let overall = window_means.iter().sum::<f64>() / window_means.len() as f64;
        assert!(
            (overall / 1000.0 - 21.0).abs() < 2.0,
            "write mean {overall} ns"
        );
    }

    #[test]
    fn read_latency_degrades_as_device_fills() {
        // §6.2 finding 2 (reads): "Only the read latency fluctuated
        // significantly over time as the device filled."
        let cap = 1 << 18;
        let mut m = model(cap, 3);
        let mut rng = SmallRng::seed_from_u64(4);
        let read_mean = |m: &mut SsdModel, rng: &mut SmallRng| {
            let n = 10_000;
            let mut sum = 0u64;
            for _ in 0..n {
                sum += m.read(rng.gen_range(0..cap)).as_nanos();
            }
            sum as f64 / n as f64
        };
        let empty = read_mean(&mut m, &mut rng);
        // Fill the device completely.
        for lba in 0..cap {
            m.write(lba);
        }
        let full = read_mean(&mut m, &mut rng);
        assert!(
            full > empty * 1.2,
            "full-device reads ({full}) should be notably slower than empty ({empty})"
        );
    }

    #[test]
    fn cache_shaped_reads_beat_random_reads() {
        // §6.2 finding 3: "Caching workloads are not random."
        let cap = 1 << 20;
        let shaped = cache_shaped(60_000, cap, 5);
        let random = random_reads(60_000, cap, 6);
        let mut m1 = model(cap, 7);
        let mut m2 = model(cap, 7);
        let s1 = m1.replay_windows(&shaped, 10_000);
        let s2 = m2.replay_windows(&random, 10_000);
        let avg = |s: &[WindowStat]| {
            s.iter()
                .map(|w| w.read_avg_us * w.reads as f64)
                .sum::<f64>()
                / s.iter().map(|w| w.reads as f64).sum::<f64>()
        };
        let shaped_avg = avg(&s1);
        let random_avg = avg(&s2);
        assert!(
            shaped_avg * 1.3 < random_avg,
            "cache-shaped {shaped_avg} µs should be well below random {random_avg} µs"
        );
    }

    #[test]
    fn short_term_variance_high_but_window_averages_stable() {
        // §6.2 finding 1.
        let cap = 1 << 18;
        let mut m = model(cap, 8);
        let mut rng = SmallRng::seed_from_u64(9);
        // Pre-fill so fill drift does not dominate.
        for lba in 0..cap {
            m.write(lba);
        }
        let lat: Vec<f64> = (0..50_000)
            .map(|_| m.read(rng.gen_range(0..cap / 64)).as_nanos() as f64)
            .collect();
        let mean = lat.iter().sum::<f64>() / lat.len() as f64;
        let var = lat.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / lat.len() as f64;
        let cv = var.sqrt() / mean;
        assert!(cv > 0.3, "per-access variability should be high (cv={cv})");
        // Window averages: stable within ±15 %.
        for w in lat.chunks(10_000) {
            let wm = w.iter().sum::<f64>() / w.len() as f64;
            assert!(
                (wm - mean).abs() / mean < 0.15,
                "window mean {wm} vs {mean}"
            );
        }
    }

    #[test]
    fn replay_windows_partitions_correctly() {
        let cap = 1024;
        let mut m = model(cap, 10);
        let log = cache_shaped(2_500, cap, 11);
        let w = m.replay_windows(&log, 1000);
        assert_eq!(w.len(), 3);
        assert_eq!(w[0].start_io, 0);
        assert_eq!(w[1].start_io, 1000);
        assert_eq!(w[2].start_io, 2000);
        assert_eq!(w.iter().map(|x| x.reads + x.writes).sum::<u64>(), 2500);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let cap = 4096;
        let log = cache_shaped(5_000, cap, 12);
        let mut a = model(cap, 13);
        let mut b = model(cap, 13);
        assert_eq!(a.replay_windows(&log, 500), b.replay_windows(&log, 500));
    }

    #[test]
    fn lba_wraps_at_capacity() {
        let mut m = model(100, 14);
        // Out-of-range LBA must not panic and must count fill once.
        m.write(250); // wraps to 50
        m.write(50);
        assert_eq!(m.fill_fraction(), 0.01);
    }

    #[test]
    #[should_panic(expected = "window must be nonzero")]
    fn zero_window_panics() {
        let mut m = model(100, 15);
        let _ = m.replay_windows(&[], 0);
    }

    #[test]
    fn auto_config_fits_to_backing_capacity() {
        let auto = SsdConfig::auto();
        assert_eq!(auto.capacity_blocks, 0);
        let fitted = auto.clone().fit_capacity(1 << 18);
        assert_eq!(fitted.capacity_blocks, 1 << 18);
        // Locality parameters follow `sized`, latency fields are preserved.
        let sized = SsdConfig::sized(1 << 18, auto.seed);
        assert_eq!(fitted.region_shift, sized.region_shift);
        assert_eq!(fitted.map_cache_slots, sized.map_cache_slots);
        assert_eq!(fitted.read_base, auto.read_base);
        assert_eq!(fitted.write_base, auto.write_base);
        // Fitting to zero still yields a buildable device.
        assert_eq!(SsdConfig::auto().fit_capacity(0).capacity_blocks, 1);
    }

    #[test]
    fn fit_capacity_preserves_tuned_latencies() {
        let tuned = SsdConfig {
            read_base: SimTime::from_micros(33),
            write_base: SimTime::from_micros(9),
            ..SsdConfig::auto()
        };
        let fitted = tuned.fit_capacity(4096);
        assert_eq!(fitted.read_base, SimTime::from_micros(33));
        assert_eq!(fitted.write_base, SimTime::from_micros(9));
        assert_eq!(fitted.capacity_blocks, 4096);
    }

    #[test]
    fn per_host_derivation_is_deterministic_and_distinct() {
        let base = SsdConfig::small(4096, 99);
        let a0 = base.clone().for_host(7, 0);
        let a0_again = base.clone().for_host(7, 0);
        let a1 = base.clone().for_host(7, 1);
        let b0 = base.clone().for_host(8, 0);
        assert_eq!(a0, a0_again, "same (seed, host) must derive identically");
        assert_ne!(a0.seed, a1.seed, "hosts must own distinct devices");
        assert_ne!(a0.seed, b0.seed, "runs must decorrelate");
        // Only the seed differs.
        assert_eq!(a0.capacity_blocks, base.capacity_blocks);
        assert_eq!(a0.queue_depth, base.queue_depth);
    }
}
