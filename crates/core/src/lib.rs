//! Client-side flash-cache simulator — reproduction of *Flash Caching on
//! the Storage Client* (Holland, Angelino, Wald, Seltzer; USENIX ATC 2013).
//!
//! The paper studies flash as a cache on the **client** side of a networked
//! storage environment: compute servers ("hosts") with a RAM buffer cache
//! and a flash cache, talking to a shared file server ("filer") over
//! private network segments. This crate is the trace-driven simulator at
//! the center of that study:
//!
//! - three cache architectures ([`Architecture`]): *naive*, *lookaside*
//!   (Mercury-style), and *unified*;
//! - seven writeback policies per tier ([`WritebackPolicy`]), giving the
//!   49-combination policy surface of Figure 2;
//! - the paper's timing models for RAM, flash, network, and filer
//!   ([`SimConfig`], Table 1);
//! - instant global-knowledge cache-consistency invalidation (§3.8) and
//!   persistence modeling (§7.8).
//!
//! # Quick start
//!
//! The run surface is the [`Scenario`]/[`Sweep`] builder pair over a
//! pluggable [`Workload`] (see [`scenario`]): one configuration × one
//! workload is a `Scenario`; a labeled grid of configurations is a
//! `Sweep` (cross a workload axis in with [`Sweep::workloads`]).
//! Workloads replay a shared in-memory trace ([`Workload::trace`]),
//! regenerate a stream per job ([`Workload::stream`] — sweep memory
//! O(chunk × jobs) instead of a resident trace), or stream an archived
//! `FCTRACE1` file ([`Workload::file`]); all three are bit-identical for
//! the same ops. Sweep results stream through [`ResultSink`]s (see
//! [`results`]): durable, schema-versioned JSONL rows with exact
//! `SimReport` round-trips, making interrupted sweeps resumable
//! ([`Sweep::resume`]) and every run a diffable artifact.
//!
//! ```
//! use fcache::{Scenario, SimConfig, Sweep, Workload};
//! use fcache_fsmodel::{FsModel, FsModelConfig};
//! use fcache_trace::{generate, TraceGenConfig};
//! use fcache_types::ByteSize;
//!
//! // A laptop-scale version of the paper's baseline experiment.
//! let model = FsModel::generate(FsModelConfig {
//!     total_bytes: ByteSize::mib(64),
//!     seed: 1,
//!     ..FsModelConfig::default()
//! });
//! let trace = generate(&model, TraceGenConfig {
//!     working_set: ByteSize::mib(4),
//!     seed: 2,
//!     ..TraceGenConfig::default()
//! });
//! let cfg = SimConfig {
//!     ram_size: ByteSize::mib(1),
//!     flash_size: ByteSize::mib(8),
//!     ..SimConfig::baseline()
//! };
//! let report = Scenario::new(cfg.clone(), Workload::trace(&trace))
//!     .run()
//!     .unwrap();
//! println!("read latency: {:.1} µs/block", report.read_latency_us());
//!
//! // A labeled sweep over the same trace, fanned out across threads;
//! // results keep each job's label and config next to its report.
//! let results = Sweep::over(Workload::trace(&trace))
//!     .config("no flash", SimConfig { flash_size: ByteSize::ZERO, ..cfg.clone() })
//!     .config("with flash", cfg)
//!     .run();
//! for item in &results {
//!     let r = item.report.as_ref().unwrap();
//!     println!("{}: {:.1} µs/block", item.label, r.read_latency_us());
//! }
//! ```

#![deny(unsafe_code)]

pub mod arch;
pub mod config;
pub mod devsvc;
pub mod engine;
pub mod experiment;
pub mod fleet;
mod flush;
pub mod histogram;
pub mod host;
pub mod metrics;
pub mod policy;
pub mod report;
pub mod results;
pub mod robust;
pub mod scenario;
mod scratch;
mod sharers;
pub mod sim;
mod spill;
pub mod telemetry;

pub use arch::Architecture;
pub use config::{FlashTiming, SimConfig};
pub use devsvc::{DeviceService, DeviceStatsSnapshot};
pub use experiment::{Workbench, WorkloadSpec};
pub use fcache_remote::{RemoteStats, Router, ShardedStore};
pub use fcache_types::FleetTopology;
pub use fleet::FleetPlan;
pub use histogram::{HistogramSnapshot, LatencyHistogram};
pub use metrics::{Metrics, MetricsSnapshot};
pub use policy::WritebackPolicy;
pub use report::{FleetStats, HostLoadStats, ShardServiceStats, ShardStats, SimReport};
pub use results::{
    decode_rows, read_rows, report_from_json, report_to_json, row_from_json, row_to_json,
    scan_jsonl, sink_fn, DecodedRow, JsonlSink, MemorySink, ResultRow, ResultSink, TeeSink,
    REPORT_SCHEMA,
};
pub use robust::{DegradedPolicy, FaultWindowStat, RobustnessConfig, RobustnessStats};
pub use scenario::{Scenario, Sweep, SweepError, SweepItem, SweepResults, Workload};
pub use sim::{run_source, run_trace, SimError, SourceError};
pub use telemetry::{
    chrome_trace, read_span_rows, OpSpan, SpanRow, TelemetryStats, TelemetryWindow,
};
