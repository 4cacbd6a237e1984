//! Simulation configuration.

use fcache_cache::EvictionPolicy;
use fcache_des::SimTime;
use fcache_device::{FlashModel, RamModel, SsdConfig};
use fcache_filer::FilerConfig;
use fcache_net::NetConfig;
use fcache_types::{ByteSize, FaultPlan, FleetTopology};

use crate::arch::Architecture;
use crate::policy::WritebackPolicy;
use crate::robust::DegradedPolicy;

/// Table 1's RAM timing. The paper never varies it, so it is no knob.
pub const TABLE1_RAM: RamModel = RamModel::paper_default();
/// Table 1's wire timing, fixed like [`TABLE1_RAM`].
pub const TABLE1_NET: NetConfig = NetConfig::paper_default();
/// Table 1's filer timing. Only its prefetch rate varies (Figure 5), so
/// only that is a knob: [`SimConfig::prefetch`].
pub const TABLE1_FILER: FilerConfig = FilerConfig::paper_default();

/// How flash device time is charged (see `crate::devsvc`).
#[derive(Clone, Debug, Default, PartialEq)]
pub enum FlashTiming {
    /// The paper's constant per-block latencies from the configured
    /// [`FlashModel`] — the default; bit-identical to the pre-service
    /// engine.
    #[default]
    Flat,
    /// The queue-aware behavioral SSD: a bounded NCQ-style service queue
    /// in front of an [`fcache_device::SsdModel`] with FTL map-cache
    /// locality, fill and wear penalties. A `capacity_blocks` of 0 (the
    /// [`SsdConfig::auto`] sentinel) fits the device to the flash tier at
    /// host-build time; each host derives its own deterministic device
    /// seed from the run seed.
    Ssd(SsdConfig),
}

impl FlashTiming {
    /// One-line description of the active device model (printed by
    /// [`SimConfig::timing_table`] and the CLI).
    pub fn describe(&self) -> String {
        match self {
            FlashTiming::Flat => "flat (constant per-block latencies)".to_string(),
            FlashTiming::Ssd(sc) => {
                let capacity = if sc.capacity_blocks == 0 {
                    "auto (flash-sized)".to_string()
                } else {
                    format!("{} blocks", sc.capacity_blocks)
                };
                format!(
                    "ssd (capacity {capacity}, read base {}, write base {}, queue depth {})",
                    sc.read_base, sc.write_base, sc.queue_depth
                )
            }
        }
    }
}

/// Complete configuration of one simulation run.
///
/// Defaults are the paper's baseline (§4, §7.1): the naive architecture
/// with 8 GB of RAM and 64 GB of flash, a one-second periodic RAM writeback
/// ("as this most closely matches real system behavior") and asynchronous
/// write-through for the flash ("the best overall choice").
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Cache architecture (§3.3).
    pub arch: Architecture,
    /// RAM cache capacity ("the RAM size actually reflects the amount of
    /// RAM available for file system caching", §3.4). May be zero (§7.5).
    pub ram_size: ByteSize,
    /// Flash cache capacity. May be zero ("no flash").
    pub flash_size: ByteSize,
    /// RAM-tier writeback policy (§3.6).
    pub ram_policy: WritebackPolicy,
    /// Flash-tier writeback policy (§3.5). Ignored by the lookaside
    /// architecture, whose flash never holds dirty data.
    pub flash_policy: WritebackPolicy,
    /// Flash timing model (includes the persistence flag, §7.8).
    pub flash_model: FlashModel,
    /// How flash device time is charged: [`FlashTiming::Flat`] (default —
    /// constant `flash_model` latencies, bit-identical to the pre-service
    /// engine) or [`FlashTiming::Ssd`] (queue-aware behavioral device).
    pub flash_timing: FlashTiming,
    /// Window size (in device I/Os) for per-window device latency
    /// averages in the report (`SimReport::device_windows` — the Figure 1
    /// series, produced inline). 0 (default) disables the series; only
    /// meaningful with [`FlashTiming::Ssd`].
    pub device_window: usize,
    /// Filer prefetch success rate: the probability that a block read is
    /// fast. In `[0, 1]`; Table 1's 90% by default, and Figure 5 sweeps it.
    pub prefetch: f64,
    /// Whether read misses populate the flash tier on their way to RAM
    /// ("Newly referenced blocks are first placed in flash, then into
    /// RAM", §3.2). Ablation knob; the paper's design has it on.
    pub populate_flash_on_read: bool,
    /// Whether a RAM hit also promotes the block in the flash LRU chain,
    /// maintaining the naive/lookaside subset property (inclusive-cache
    /// behavior). Ablation knob; on by default.
    pub inclusive_promotion: bool,
    /// Whether flushing a dirty block *out of flash* charges a flash read
    /// (the data must come off the device before it can be sent). Flushes
    /// that still have the data in RAM never pay this. Ablation knob.
    pub charge_flash_read_on_writeback: bool,
    /// Full-duplex network segments (ablation; the paper's model is
    /// half-duplex: "each segment can carry one packet at a time").
    pub duplex_network: bool,
    /// Record every flash block I/O for Figure 1 replay (costs memory).
    pub log_flash_io: bool,
    /// Replacement policy for the RAM and flash tiers ("we use LRU", §1;
    /// FIFO and CLOCK are replacement-policy ablations). The unified
    /// architecture is defined by its single LRU chain and ignores this.
    pub replacement: EvictionPolicy,
    /// Keep the simulated clock running until at least this time, even if
    /// the trace finishes earlier. Lets periodic syncers drain after a
    /// short trace; `None` (default) ends the run with the last operation.
    pub min_runtime: Option<SimTime>,
    /// How many writebacks a periodic syncer keeps in flight at once. The
    /// syncer is one thread, but it issues asynchronous I/O; a window of 1
    /// degenerates to fully synchronous flushing, which cannot sustain the
    /// paper's write bandwidths (the wire, not the flush loop, should be
    /// the writeback bottleneck).
    pub syncer_window: usize,
    /// Divisor applied to time-based policy periods (the `pN` syncer
    /// intervals). Scaled-down experiments compress simulated run time by
    /// the byte scale factor; dividing the syncer period by the same
    /// factor preserves the dirty-data dynamics (dirty fraction per tick =
    /// write bandwidth × period / cache size is scale-invariant).
    /// [`SimConfig::scaled_down`] sets this automatically.
    pub time_scale: u64,
    /// Number of backend shards. 1 (the default) with `replicas == 1` is
    /// the paper's single filer, bit-identical to the pre-remote engine
    /// (PERF.md invariant 11); more spreads blocks across a read-any /
    /// write-all sharded tier.
    pub shards: u16,
    /// Replication factor of the remote tier (copies per block). Must be
    /// in `1..=shards`.
    pub replicas: u16,
    /// Hedge delay for replicated reads: after a miss fetch has been
    /// outstanding this long (paper-scale; divides by `time_scale`), a
    /// second request races on the next replica and the first answer wins.
    /// `None` (default) disables hedging. Needs `replicas > 1`
    /// ([`SimConfig::validate`]).
    pub hedge: Option<SimTime>,
    /// Injected faults (see `fcache_types::fault`). Empty — the default —
    /// means a healthy run, bit-identical to the pre-fault engine; clause
    /// windows are paper-scale and divide by `time_scale` at resolve time.
    pub fault_plan: FaultPlan,
    /// What a read miss does while every replica is down. Consulted only
    /// when an injected fault fires; the client's timeout and retry
    /// constants live in `crate::robust`.
    pub degraded: DegradedPolicy,
    /// Telemetry window length for the unified time series (paper-scale;
    /// divides by `time_scale`). `None` (default) disables the series.
    /// Engaging telemetry never changes simulation results (PERF.md
    /// invariant 12) — only what gets observed.
    pub telemetry_windows: Option<SimTime>,
    /// Fleet placement of this run: which cell of how many, the global
    /// host ids it covers, and the network fan-in (hosts per shared
    /// segment). `None` — the default — gives every host a private
    /// segment (PERF.md invariant 13). `Some` engages fan-in-grouped
    /// shared segments and the report's `fleet` section.
    pub fleet: Option<FleetTopology>,
    /// Span-stream output path: one JSONL row per completed measured op,
    /// in completion order (see `crate::telemetry`). `None` (default)
    /// disables the stream. Each run needs its own path — the CLI's sweep
    /// suffixes `.N` per job. Not part of the serialized result config
    /// (observer identity, not simulation identity).
    pub trace_out: Option<std::path::PathBuf>,
    /// Base RNG seed; filer draws and any stochastic components derive
    /// from it deterministically.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            arch: Architecture::Naive,
            ram_size: ByteSize::gib(8),
            flash_size: ByteSize::gib(64),
            ram_policy: WritebackPolicy::Periodic(1),
            flash_policy: WritebackPolicy::AsyncWriteThrough,
            flash_model: FlashModel::default(),
            flash_timing: FlashTiming::Flat,
            device_window: 0,
            prefetch: TABLE1_FILER.fast_read_rate,
            populate_flash_on_read: true,
            inclusive_promotion: true,
            charge_flash_read_on_writeback: true,
            duplex_network: false,
            log_flash_io: false,
            replacement: EvictionPolicy::Lru,
            min_runtime: None,
            syncer_window: 64,
            time_scale: 1,
            shards: 1,
            replicas: 1,
            hedge: None,
            fault_plan: FaultPlan::default(),
            degraded: DegradedPolicy::Queue,
            telemetry_windows: None,
            fleet: None,
            trace_out: None,
            seed: 0xcafe_f00d,
        }
    }
}

impl SimConfig {
    /// The paper's baseline configuration.
    pub fn baseline() -> Self {
        Self::default()
    }

    /// Divides every byte quantity — and the time-based syncer periods —
    /// by `factor`, leaving latencies and ratios unchanged: hit rates
    /// depend only on size ratios, so curve shapes survive the scaling.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero.
    pub fn scaled_down(mut self, factor: u64) -> Self {
        assert!(factor > 0, "scale factor must be nonzero");
        self.ram_size = self.ram_size.scaled_down(factor);
        self.flash_size = self.flash_size.scaled_down(factor);
        // An explicitly sized SSD device is a byte quantity too: shrink it
        // with the caches (re-deriving the FTL locality parameters) so fill
        // and wear dynamics stay scale-invariant. The auto sentinel (0)
        // needs nothing — it fits to the already-scaled flash tier at host
        // build time.
        if let FlashTiming::Ssd(sc) = &mut self.flash_timing {
            if sc.capacity_blocks > 0 {
                *sc = sc
                    .clone()
                    .fit_capacity((sc.capacity_blocks / factor).max(1));
            }
        }
        self.time_scale = self.time_scale.saturating_mul(factor);
        self
    }

    /// A paper-scale duration divided by this configuration's time scale
    /// (never below 1 ns). Robustness timeouts and backoffs go through
    /// this, like syncer periods go through [`SimConfig::scaled_period`].
    pub fn scaled_time(&self, t: SimTime) -> SimTime {
        SimTime::from_nanos((t.as_nanos() / self.time_scale).max(1))
    }

    /// Effective period of a policy under this configuration's time scale.
    pub fn scaled_period(&self, policy: WritebackPolicy) -> Option<SimTime> {
        policy.period().map(|p| self.scaled_time(p))
    }

    /// Whether this configuration engages the sharded remote tier: more
    /// than one shard or replica, or a shard fault clause. Every run goes
    /// through the same store either way; engagement decides only whether
    /// the report carries its `shard` section and whether the timing
    /// table prints its remote-tier line. A hedge needs a second replica
    /// ([`SimConfig::validate`]), so it never engages the tier alone.
    pub fn remote_engaged(&self) -> bool {
        self.shards > 1 || self.replicas > 1 || self.fault_plan.has_shard_clauses()
    }

    /// Whether this configuration collects telemetry (op spans, windows,
    /// span stream). Off — the default — keeps every instrumentation hook
    /// `None`, the literal pre-telemetry code path.
    pub fn telemetry_engaged(&self) -> bool {
        self.telemetry_windows.is_some() || self.trace_out.is_some()
    }

    /// Hosts sharing one network segment: the fleet topology's fan-in, or
    /// 1 (private per-host segments) outside a fleet.
    pub fn net_fanin(&self) -> u16 {
        self.fleet.as_ref().map_or(1, FleetTopology::fanin)
    }

    /// RAM capacity in 4 KB blocks.
    pub fn ram_blocks(&self) -> usize {
        self.ram_size.blocks() as usize
    }

    /// Flash capacity in 4 KB blocks.
    pub fn flash_blocks(&self) -> usize {
        self.flash_size.blocks() as usize
    }

    /// Renders the Table 1 timing parameters of this configuration,
    /// followed by its [`SimConfig::setup_lines`].
    pub fn timing_table(&self) -> String {
        let mut out = String::from("Parameter                 Value\n");
        for (name, value, unit) in [
            ("RAM read", TABLE1_RAM.read, "4K block"),
            ("RAM write", TABLE1_RAM.write, "4K block"),
            ("Flash read", self.flash_model.read_latency(), "4K block"),
            ("Flash write", self.flash_model.write_latency(), "4K block"),
            ("Network base latency", TABLE1_NET.base_latency, "packet"),
            ("Network data latency", TABLE1_NET.per_bit, "bit"),
            ("File server fast read", TABLE1_FILER.fast_read, "4K block"),
            ("File server slow read", TABLE1_FILER.slow_read, "4K block"),
            ("File server write", TABLE1_FILER.write, "4K block"),
        ] {
            out.push_str(&format!("{name:<26}{value} / {unit}\n"));
        }
        let rate = self.prefetch * 100.0;
        out + &format!("File server fast read rate {rate:.0}%\n") + &self.setup_lines()
    }

    /// The device and topology this configuration engages, one line each:
    /// the flash timing model, then the remote tier, the fault plan and the
    /// fleet cell when engaged. The tail of [`SimConfig::timing_table`],
    /// and `fcsim run`'s header.
    pub fn setup_lines(&self) -> String {
        let timing = self.flash_timing.describe();
        let mut out = format!("Flash timing model        {timing}\n");
        if self.remote_engaged() {
            let (shards, replicas) = (self.shards, self.replicas);
            let hedge = self
                .hedge
                .map_or("no hedging".into(), |d| format!("hedge after {d}"));
            out += &format!(
                "Remote tier               {shards} shard(s) x {replicas} replica(s), {hedge}\n"
            );
        }
        if !self.fault_plan.is_empty() {
            let (plan, degraded) = (self.fault_plan.describe(), self.degraded.label());
            out += &format!("Fault plan                {plan} (degraded: {degraded})\n");
        }
        if let Some(fleet) = &self.fleet {
            out += &format!("Fleet cell                {fleet}\n");
        }
        out
    }

    /// Checks every range and cross-field rule a run relies on. Every run
    /// path calls this before it builds anything, so a bad configuration
    /// is an error, never a panic deep in the engine.
    ///
    /// # Errors
    ///
    /// A [`ConfigError`] naming the first field that breaks a rule.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let zero = Some(SimTime::ZERO);
        let ssd = |base: fn(&SsdConfig) -> SimTime| match &self.flash_timing {
            FlashTiming::Ssd(sc) => Some(base(sc)),
            FlashTiming::Flat => None,
        };
        let rules = [
            (
                !(0.0..=1.0).contains(&self.prefetch),
                "prefetch",
                "must be in [0,1]",
            ),
            (self.time_scale == 0, "time_scale", "must be at least 1"),
            (self.shards == 0, "shards", "must be at least 1"),
            (
                !(1..=self.shards).contains(&self.replicas),
                "replicas",
                "must be in 1..=shards (one per distinct shard)",
            ),
            (self.hedge == zero, "hedge", "must be a positive delay"),
            (
                self.hedge.is_some() && self.replicas < 2,
                "hedge",
                "needs replicas >= 2 (a hedge races a second replica)",
            ),
            (
                self.telemetry_windows == zero,
                "telemetry_windows",
                "must be a positive duration",
            ),
            (
                ssd(|sc| sc.read_base) == zero,
                "flash_timing.read_base",
                "must be positive",
            ),
            (
                ssd(|sc| sc.write_base) == zero,
                "flash_timing.write_base",
                "must be positive",
            ),
        ];
        let refuse = |field, reason| Err(ConfigError { field, reason });
        match rules.into_iter().find(|rule| rule.0) {
            Some((_, field, rule)) => refuse(field, rule.to_string()),
            None => self
                .fault_plan
                .check_shards(self.shards)
                .or_else(|e| refuse("fault_plan", e)),
        }
    }
}

/// Why [`SimConfig::validate`] refused a configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError {
    /// The offending [`SimConfig`] field, e.g. `replicas` or
    /// `flash_timing.read_base`.
    pub field: &'static str,
    /// The rule it breaks.
    pub reason: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.field, self.reason)
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_paper() {
        let c = SimConfig::baseline();
        assert_eq!(c.arch, Architecture::Naive);
        assert_eq!(c.ram_size, ByteSize::gib(8));
        assert_eq!(c.flash_size, ByteSize::gib(64));
        assert_eq!(c.ram_policy, WritebackPolicy::Periodic(1));
        assert_eq!(c.flash_policy, WritebackPolicy::AsyncWriteThrough);
        assert_eq!(TABLE1_RAM.read, SimTime::from_nanos(400));
        assert_eq!(c.flash_model.read, SimTime::from_micros(88));
        assert_eq!(c.prefetch, 0.9);
        assert_eq!(c.degraded, DegradedPolicy::Queue);
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn validate_names_the_field_of_each_rule() {
        fn with(edit: impl FnOnce(&mut SimConfig)) -> SimConfig {
            let mut cfg = SimConfig::baseline();
            edit(&mut cfg);
            cfg
        }
        let ssd = |read_ms, write_ms| {
            FlashTiming::Ssd(SsdConfig {
                read_base: SimTime::from_millis(read_ms),
                write_base: SimTime::from_millis(write_ms),
                ..SsdConfig::auto()
            })
        };
        let shard2 = || FaultPlan::parse("shard2:outage@1s-2s").unwrap();
        let (zero, us) = (Some(SimTime::ZERO), SimTime::from_micros);
        let rows = [
            ("prefetch", with(|c| c.prefetch = 1.5)),
            ("prefetch", with(|c| c.prefetch = -0.1)),
            ("prefetch", with(|c| c.prefetch = f64::NAN)),
            ("time_scale", with(|c| c.time_scale = 0)),
            ("shards", with(|c| c.shards = 0)),
            ("replicas", with(|c| c.replicas = 0)),
            ("replicas", with(|c| (c.shards, c.replicas) = (2, 3))),
            ("hedge", with(|c| c.hedge = Some(us(500)))),
            (
                "hedge",
                with(|c| (c.shards, c.replicas, c.hedge) = (2, 2, zero)),
            ),
            ("telemetry_windows", with(|c| c.telemetry_windows = zero)),
            (
                "flash_timing.read_base",
                with(|c| c.flash_timing = ssd(0, 1)),
            ),
            (
                "flash_timing.write_base",
                with(|c| c.flash_timing = ssd(1, 0)),
            ),
            (
                "fault_plan",
                with(|c| (c.shards, c.fault_plan) = (2, shard2())),
            ),
        ];
        for (field, cfg) in rows {
            let err = cfg.validate().expect_err(field);
            assert_eq!(err.field, field, "{err}");
            assert!(err.to_string().starts_with(&format!("{field}: ")), "{err}");
        }
        // The edges of each range are valid.
        for cfg in [
            with(|c| c.prefetch = 0.0),
            with(|c| c.prefetch = 1.0),
            with(|c| (c.shards, c.replicas, c.hedge) = (2, 2, Some(SimTime::from_nanos(1)))),
            with(|c| (c.shards, c.fault_plan) = (3, shard2())),
            with(|c| c.flash_timing = ssd(1, 1)),
        ] {
            assert_eq!(cfg.validate(), Ok(()), "{cfg:?}");
        }
    }

    #[test]
    fn scaling_divides_sizes_only() {
        let c = SimConfig::baseline().scaled_down(64);
        assert_eq!(c.ram_size, ByteSize::mib(128));
        assert_eq!(c.flash_size, ByteSize::gib(1));
        // Latencies unchanged.
        assert_eq!(c.flash_model.read, SimTime::from_micros(88));
    }

    #[test]
    fn scaling_shrinks_an_explicit_ssd_device_with_the_caches() {
        let paper_blocks = (58u64 << 30) / 4096;
        let c = SimConfig {
            flash_timing: FlashTiming::Ssd(SsdConfig::default()),
            ..SimConfig::baseline()
        }
        .scaled_down(64);
        let FlashTiming::Ssd(sc) = &c.flash_timing else {
            panic!("timing mode must survive scaling");
        };
        assert_eq!(sc.capacity_blocks, paper_blocks / 64);
        // Locality parameters were re-fitted, latencies untouched.
        let refit = SsdConfig::default().fit_capacity(paper_blocks / 64);
        assert_eq!(sc.region_shift, refit.region_shift);
        assert_eq!(sc.map_cache_slots, refit.map_cache_slots);
        assert_eq!(sc.read_base, SsdConfig::default().read_base);
        // The auto sentinel passes through untouched.
        let auto = SimConfig {
            flash_timing: FlashTiming::Ssd(SsdConfig::auto()),
            ..SimConfig::baseline()
        }
        .scaled_down(64);
        let FlashTiming::Ssd(sc) = &auto.flash_timing else {
            panic!("timing mode must survive scaling");
        };
        assert_eq!(sc.capacity_blocks, 0);
    }

    #[test]
    fn an_identity_scale_leaves_the_default_ssd_device_as_it_is() {
        let cfg = SimConfig {
            flash_timing: FlashTiming::Ssd(SsdConfig::default()),
            ..SimConfig::baseline()
        };
        let same = cfg.clone().scaled_down(1);
        // Every field `scaled_down` touches.
        assert_eq!(same.flash_timing, cfg.flash_timing);
        assert_eq!(
            (same.ram_size, same.flash_size, same.time_scale),
            (cfg.ram_size, cfg.flash_size, cfg.time_scale)
        );
    }

    #[test]
    fn block_counts() {
        let c = SimConfig::baseline().scaled_down(64);
        assert_eq!(c.ram_blocks(), (128 << 20) / 4096);
        assert_eq!(c.flash_blocks(), (1 << 30) / 4096);
    }

    #[test]
    fn timing_table_mentions_all_parameters() {
        let t = SimConfig::baseline().timing_table();
        for needle in [
            "RAM read",
            "Flash write",
            "Network base",
            "fast read rate",
            "88.000us",
            "21.000us",
            "Flash timing model",
            "flat",
        ] {
            assert!(t.contains(needle), "missing {needle} in:\n{t}");
        }
    }

    #[test]
    fn flash_timing_defaults_to_flat() {
        assert_eq!(SimConfig::baseline().flash_timing, FlashTiming::Flat);
        assert_eq!(SimConfig::baseline().device_window, 0);
    }

    #[test]
    fn remote_tier_engagement_and_table_line() {
        let base = SimConfig::baseline();
        assert!(!base.remote_engaged());
        assert!(!base.timing_table().contains("Remote tier"));
        // A hedge delay alone does not engage the tier (and `validate`
        // refuses it: a hedge needs a second replica).
        let hedged = SimConfig {
            hedge: Some(SimTime::from_micros(500)),
            ..SimConfig::baseline()
        };
        assert!(!hedged.remote_engaged());
        for engaged in [
            SimConfig {
                shards: 4,
                ..SimConfig::baseline()
            },
            SimConfig {
                shards: 4,
                replicas: 2,
                ..SimConfig::baseline()
            },
            SimConfig {
                fault_plan: FaultPlan::parse("shard0:outage@1s-2s").unwrap(),
                ..SimConfig::baseline()
            },
        ] {
            assert!(engaged.remote_engaged(), "{:?}", engaged.shards);
        }
        let t = SimConfig {
            shards: 4,
            replicas: 2,
            hedge: Some(SimTime::from_micros(500)),
            ..SimConfig::baseline()
        }
        .timing_table();
        assert!(
            t.contains("Remote tier") && t.contains("4 shard(s) x 2 replica(s)"),
            "{t}"
        );
        assert!(t.contains("hedge after"), "{t}");
    }

    #[test]
    fn fleet_engagement_and_table_line() {
        let base = SimConfig::baseline();
        assert_eq!(base.net_fanin(), 1);
        assert!(!base.timing_table().contains("Fleet cell"));
        let cell = SimConfig {
            fleet: Some(FleetTopology {
                cell: 1,
                cells: 4,
                host_base: 256,
                fleet_hosts: 1024,
                hosts_per_segment: 16,
            }),
            ..SimConfig::baseline()
        };
        assert_eq!(cell.net_fanin(), 16);
        let t = cell.timing_table();
        assert!(t.contains("Fleet cell") && t.contains("cell 1/4"), "{t}");
    }

    #[test]
    fn timing_table_names_the_active_ssd_model() {
        let cfg = SimConfig {
            flash_timing: FlashTiming::Ssd(SsdConfig::auto()),
            ..SimConfig::baseline()
        };
        let t = cfg.timing_table();
        for needle in ["ssd", "auto (flash-sized)", "queue depth 32", "52.000us"] {
            assert!(t.contains(needle), "missing {needle} in:\n{t}");
        }
        let sized = SimConfig {
            flash_timing: FlashTiming::Ssd(SsdConfig::small(4096, 1)),
            ..SimConfig::baseline()
        };
        assert!(sized.timing_table().contains("4096 blocks"));
    }
}
