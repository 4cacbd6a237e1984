//! Scaled experiment workbench.
//!
//! Paper-scale experiments (60–640 GB working sets against a 1.4 TB file
//! server with up to 128 GB of flash) are too large to sweep on a laptop,
//! so every benchmark runs at a **linear scale factor**: all byte
//! quantities — file-server model, working set, RAM, flash — are divided by
//! the factor while latencies, the 4 KB block size, and all ratios stay
//! unchanged. Cache hit rates depend only on the size *ratios* and
//! latencies are per-block constants, so curve shapes are preserved.
//! Factor 1 reproduces paper scale exactly.
//!
//! [`Workbench`] packages a scaled file-server model with helpers that
//! accept paper-scale quantities and scale them internally, so experiment
//! code reads exactly like the paper ("60 GB working set, 8 GB RAM, 64 GB
//! flash").

use fcache_fsmodel::{FsModel, FsModelConfig};
use fcache_trace::{TraceGenConfig, TraceStream};
use fcache_types::{ByteSize, Trace};

use crate::config::SimConfig;
use crate::report::SimReport;
use crate::scenario::{Scenario, Workload};
use crate::sim::SimError;

/// Workload description in paper-scale units.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Working-set size at paper scale (e.g. `ByteSize::gib(80)`).
    pub working_set: ByteSize,
    /// Fraction of operations that are writes (baseline 0.3).
    pub write_fraction: f64,
    /// Number of hosts (baseline 1; consistency experiments use 2).
    pub hosts: u16,
    /// Number of distinct working sets (consistency worst case: 1 shared).
    pub ws_count: usize,
    /// Drop the warmup half of the trace instead of flagging it — "this is
    /// equivalent to having a non-persistent flash cache and crashing at
    /// the start of the simulator run" (§7.8, Figure 10's *not warmed*).
    pub skip_warmup: bool,
    /// Trace generation seed.
    pub seed: u64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        Self {
            working_set: ByteSize::gib(60),
            write_fraction: 0.3,
            hosts: 1,
            ws_count: 1,
            skip_warmup: false,
            seed: 0x0b5e_55ed,
        }
    }
}

impl WorkloadSpec {
    /// The 60 GB baseline workload of §4.
    pub fn baseline_60g() -> Self {
        Self::default()
    }

    /// A compact label naming this workload's axes
    /// (`ws=80G wr=30% seed=42`, plus `hosts=`/`wsc=`/`cold` when
    /// off-baseline). Used as the workload half of a sweep grid's
    /// composite job labels — and label-based resume
    /// ([`Sweep::resume`](crate::Sweep::resume)) requires distinct specs to get distinct
    /// labels, so every field that commonly forms an axis is included:
    /// the seed always (two specs differing only in seed are different
    /// workloads), and the write percentage at full precision down to
    /// 0.01% (trailing zeros trimmed).
    pub fn label(&self) -> String {
        use std::fmt::Write as _;
        // {:.2} then trim: "30.00" → "30", "12.50" → "12.5". Plain `{}`
        // of `write_fraction * 100.0` would leak float noise
        // ("30.000000000000004").
        let pct = format!("{:.2}", self.write_fraction * 100.0);
        let pct = pct.trim_end_matches('0').trim_end_matches('.');
        let mut s = format!("ws={} wr={pct}% seed={}", self.working_set, self.seed);
        if self.hosts != 1 {
            let _ = write!(s, " hosts={}", self.hosts);
        }
        if self.ws_count != 1 {
            let _ = write!(s, " wsc={}", self.ws_count);
        }
        if self.skip_warmup {
            s.push_str(" cold");
        }
        s
    }

    /// The 80 GB baseline workload of §4.
    pub fn baseline_80g() -> Self {
        Self {
            working_set: ByteSize::gib(80),
            ..Self::default()
        }
    }
}

/// A scaled file-server model plus scaling-aware run helpers.
pub struct Workbench {
    scale: u64,
    model: FsModel,
}

impl Workbench {
    /// Builds the paper's 1.4 TB Impressions-style model at `1/scale`.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is zero.
    pub fn new(scale: u64, seed: u64) -> Self {
        assert!(scale > 0, "scale factor must be nonzero");
        let model = FsModel::generate(FsModelConfig::paper_scaled(scale, seed));
        Self { scale, model }
    }

    /// The scale factor in force.
    pub fn scale(&self) -> u64 {
        self.scale
    }

    /// The scaled file-server model.
    pub fn model(&self) -> &FsModel {
        &self.model
    }

    /// Generates a trace for a paper-scale workload spec by collecting the
    /// stream [`Workbench::make_stream`] builds — one config site, so the
    /// materialized and streamed paths cannot drift apart.
    pub fn make_trace(&self, spec: &WorkloadSpec) -> Trace {
        let mut stream = self.make_stream(spec);
        let mut trace = Trace::new(stream.meta().clone());
        while let Some(op) = stream.next_op() {
            trace.ops.push(op);
        }
        trace
    }

    /// Builds a streaming generator for a paper-scale workload spec: the
    /// same ops [`Workbench::make_trace`] would materialize, deliverable in
    /// bounded chunks.
    pub fn make_stream(&self, spec: &WorkloadSpec) -> TraceStream<'_> {
        let cfg = TraceGenConfig {
            hosts: spec.hosts,
            working_set: spec.working_set.scaled_down(self.scale),
            ws_count: spec.ws_count,
            write_fraction: spec.write_fraction,
            seed: spec.seed,
            ..TraceGenConfig::default()
        };
        TraceStream::new(&self.model, cfg).skip_warmup(spec.skip_warmup)
    }

    /// A paper-scale workload spec as a *streamed* [`Workload`]: every
    /// run or sweep job regenerates its own [`TraceStream`] from this
    /// workbench's model, so resident op memory is O(chunk) per job no
    /// matter how large the workload volume is. Bit-identical to
    /// materializing [`Workbench::make_trace`] and replaying that.
    pub fn workload(&self, spec: &WorkloadSpec) -> Workload<'_> {
        let spec = spec.clone();
        Workload::stream(move || self.make_stream(&spec))
    }

    /// Builds a [`Scenario`] for a paper-scale configuration (scaled down
    /// here) against the streamed workload of `spec`.
    pub fn scenario(&self, cfg: &SimConfig, spec: &WorkloadSpec) -> Scenario<'_> {
        Scenario::new(cfg.clone().scaled_down(self.scale), self.workload(spec))
    }

    /// Runs a paper-scale configuration against a workload: cache sizes in
    /// `cfg` are given at paper scale and scaled down here.
    pub fn run(&self, cfg: &SimConfig, spec: &WorkloadSpec) -> Result<SimReport, SimError> {
        let scaled = cfg.clone().scaled_down(self.scale);
        let trace = self.make_trace(spec);
        // Bind the scenario so it (and its borrow of `trace`) drops before
        // the trace does.
        let scenario = Scenario::new(scaled, Workload::trace(&trace));
        scenario.run()
    }
}

impl std::fmt::Debug for Workbench {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workbench")
            .field("scale", &self.scale)
            .field("model_bytes", &self.model.total_bytes())
            .field("files", &self.model.file_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workbench_scales_model() {
        let wb = Workbench::new(4096, 1);
        // 1400 GiB / 4096 = 350 MiB.
        let target = (1400u64 << 30) / 4096;
        assert!(wb.model().total_bytes() >= target);
        assert_eq!(wb.scale(), 4096);
    }

    #[test]
    fn make_trace_scales_working_set() {
        let wb = Workbench::new(4096, 1);
        let spec = WorkloadSpec {
            working_set: ByteSize::gib(64),
            ..WorkloadSpec::default()
        };
        let t = wb.make_trace(&spec);
        // Scaled WS = 16 MiB; volume = 4 × WS = 64 MiB = 16384 blocks.
        let blocks = t.stats().blocks;
        assert!(blocks >= 16384, "blocks {blocks}");
        assert!(blocks < 16384 + 2048, "blocks {blocks}");
    }

    #[test]
    fn skip_warmup_drops_prefix() {
        let wb = Workbench::new(4096, 1);
        let spec = WorkloadSpec {
            working_set: ByteSize::gib(64),
            skip_warmup: true,
            ..WorkloadSpec::default()
        };
        let t = wb.make_trace(&spec);
        assert!(t.ops.iter().all(|o| !o.warmup()));
        let full = wb.make_trace(&WorkloadSpec {
            skip_warmup: false,
            ..spec
        });
        assert!(t.len() < full.len());
    }

    #[test]
    fn baseline_specs() {
        assert_eq!(WorkloadSpec::baseline_60g().working_set, ByteSize::gib(60));
        assert_eq!(WorkloadSpec::baseline_80g().working_set, ByteSize::gib(80));
    }

    #[test]
    fn workload_labels_distinguish_axis_specs() {
        let base = WorkloadSpec {
            working_set: ByteSize::gib(80),
            write_fraction: 0.3,
            seed: 1,
            ..WorkloadSpec::default()
        };
        assert_eq!(base.label(), "ws=80G wr=30% seed=1");
        // Seed-only axes (the "≥2 seeds" grids) must not collide.
        let other_seed = WorkloadSpec {
            seed: 2,
            ..base.clone()
        };
        assert_ne!(base.label(), other_seed.label());
        // Fractional percentages survive without float-noise leakage.
        let frac = WorkloadSpec {
            write_fraction: 0.125,
            ..base.clone()
        };
        assert!(frac.label().contains("wr=12.5%"), "{}", frac.label());
        let off_baseline = WorkloadSpec {
            hosts: 2,
            skip_warmup: true,
            ..base
        };
        assert!(off_baseline.label().ends_with("hosts=2 cold"));
    }

    #[test]
    #[should_panic(expected = "scale factor must be nonzero")]
    fn zero_scale_panics() {
        let _ = Workbench::new(0, 1);
    }
}
