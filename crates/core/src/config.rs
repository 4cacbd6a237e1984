//! Simulation configuration.

use fcache_cache::EvictionPolicy;
use fcache_device::{FlashModel, RamModel, SsdConfig};
use fcache_filer::FilerConfig;
use fcache_net::NetConfig;
use fcache_types::{ByteSize, FaultPlan, FleetTopology};

use crate::arch::Architecture;
use crate::policy::WritebackPolicy;
use crate::robust::RobustnessConfig;

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
    /// RAM timing model.
    pub ram_model: RamModel,
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
    /// Network timing model.
    pub net: NetConfig,
    /// Filer timing model.
    pub filer: FilerConfig,
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
    pub min_runtime: Option<fcache_des::SimTime>,
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
    /// `None` (default) disables hedging. Meaningful only with
    /// `replicas > 1`.
    pub hedge: Option<fcache_des::SimTime>,
    /// Injected faults (see `fcache_types::fault`). Empty — the default —
    /// means a healthy run, bit-identical to the pre-fault engine; clause
    /// windows are paper-scale and divide by `time_scale` at resolve time.
    pub fault_plan: FaultPlan,
    /// Client robustness parameters (timeouts, retries, degraded-mode
    /// policy). Consulted only when an injected fault fires.
    pub robustness: RobustnessConfig,
    /// Telemetry window length for the unified time series (paper-scale;
    /// divides by `time_scale`). `None` (default) disables the series.
    /// Engaging telemetry never changes simulation results (PERF.md
    /// invariant 12) — only what gets observed.
    pub telemetry_windows: Option<fcache_des::SimTime>,
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
            ram_model: RamModel::default(),
            flash_model: FlashModel::default(),
            flash_timing: FlashTiming::Flat,
            device_window: 0,
            net: NetConfig::default(),
            filer: FilerConfig::default(),
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
            robustness: RobustnessConfig::default(),
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
    pub fn scaled_time(&self, t: fcache_des::SimTime) -> fcache_des::SimTime {
        fcache_des::SimTime::from_nanos((t.as_nanos() / self.time_scale).max(1))
    }

    /// Effective period of a policy under this configuration's time scale.
    pub fn scaled_period(
        &self,
        policy: crate::policy::WritebackPolicy,
    ) -> Option<fcache_des::SimTime> {
        policy
            .period()
            .map(|p| fcache_des::SimTime::from_nanos((p.as_nanos() / self.time_scale).max(1)))
    }

    /// Whether this configuration engages the sharded remote tier: more
    /// than one shard or replica, or a shard fault clause. Every run goes
    /// through the same store either way; engagement decides only whether
    /// the report carries its `shard` section and whether the timing
    /// table prints its remote-tier line. A hedge delay alone does not
    /// engage it — hedging with one replica is a no-op (PERF.md
    /// invariant 11).
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

    /// Renders the Table 1 timing parameters of this configuration.
    pub fn timing_table(&self) -> String {
        let mut out = String::new();
        out.push_str("Parameter                 Value\n");
        out.push_str(&format!(
            "RAM read                  {} / 4K block\n",
            self.ram_model.read
        ));
        out.push_str(&format!(
            "RAM write                 {} / 4K block\n",
            self.ram_model.write
        ));
        out.push_str(&format!(
            "Flash read                {} / 4K block\n",
            self.flash_model.read_latency()
        ));
        out.push_str(&format!(
            "Flash write               {} / 4K block\n",
            self.flash_model.write_latency()
        ));
        out.push_str(&format!(
            "Network base latency      {} / packet\n",
            self.net.base_latency
        ));
        out.push_str(&format!(
            "Network data latency      {} / bit\n",
            self.net.per_bit
        ));
        out.push_str(&format!(
            "File server fast read     {} / 4K block\n",
            self.filer.fast_read
        ));
        out.push_str(&format!(
            "File server slow read     {} / 4K block\n",
            self.filer.slow_read
        ));
        out.push_str(&format!(
            "File server write         {} / 4K block\n",
            self.filer.write
        ));
        out.push_str(&format!(
            "File server fast read rate {:.0}%\n",
            self.filer.fast_read_rate * 100.0
        ));
        out.push_str(&format!(
            "Flash timing model        {}\n",
            self.flash_timing.describe()
        ));
        if self.remote_engaged() {
            let hedge = match self.hedge {
                Some(d) => format!("hedge after {d}"),
                None => "no hedging".to_string(),
            };
            out.push_str(&format!(
                "Remote tier               {} shard(s) x {} replica(s), {hedge}\n",
                self.shards, self.replicas
            ));
        }
        if !self.fault_plan.is_empty() {
            out.push_str(&format!(
                "Fault plan                {} (degraded: {})\n",
                self.fault_plan.describe(),
                self.robustness.degraded.label()
            ));
        }
        if let Some(fleet) = &self.fleet {
            out.push_str(&format!("Fleet cell                {fleet}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcache_des::SimTime;

    #[test]
    fn baseline_matches_paper() {
        let c = SimConfig::baseline();
        assert_eq!(c.arch, Architecture::Naive);
        assert_eq!(c.ram_size, ByteSize::gib(8));
        assert_eq!(c.flash_size, ByteSize::gib(64));
        assert_eq!(c.ram_policy, WritebackPolicy::Periodic(1));
        assert_eq!(c.flash_policy, WritebackPolicy::AsyncWriteThrough);
        assert_eq!(c.ram_model.read, SimTime::from_nanos(400));
        assert_eq!(c.flash_model.read, SimTime::from_micros(88));
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
        // A hedge delay alone is a no-op with one replica: stays plain.
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
