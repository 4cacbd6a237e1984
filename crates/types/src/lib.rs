//! Shared vocabulary for the *Flash Caching on the Storage Client*
//! reproduction.
//!
//! This crate defines the domain types every other crate speaks:
//!
//! - [`BlockAddr`] — a 4 KB block within a file, the unit of caching.
//! - [`HostId`] / [`ThreadId`] — who issued an I/O.
//! - [`TraceOp`] / [`Trace`] — the block-level trace format of Section 4 of
//!   the paper, with a compact binary codec.
//! - [`ByteSize`] — human-friendly byte quantities ("8G", "256K") used
//!   throughout experiment configuration.
//! - [`FxHashMap`] / [`FxHasher`] — the deterministic fast hasher every
//!   hot-path map in the simulator uses (see `PERF.md`).
//! - [`Json`] — a hand-rolled, dependency-free JSON value/codec (the
//!   offline environment has no `serde`) used by the structured results
//!   pipeline to write schema-versioned JSONL result rows.
//!
//! The paper's traces "contain read and write operations. Each operation
//! identifies a file and a range of blocks within that file. Each operation
//! also carries a thread ID and host ID." [`TraceOp`] is exactly that record.

#![forbid(unsafe_code)]

pub mod block;
pub mod fault;
pub mod fleet;
pub mod fxhash;
pub mod ids;
pub mod json;
pub mod op;
pub mod size;
pub mod telemetry;
pub mod trace;

pub use block::{BlockAddr, BLOCK_SHIFT, BLOCK_SIZE};
pub use fault::{
    parse_time_ns, FaultClause, FaultDirection, FaultEffect, FaultError, FaultKind, FaultPlan,
    FaultSchedule, FaultTarget, FaultWindow, ResolvedFaultSet, ResolvedWindow,
};
pub use fleet::FleetTopology;
pub use fxhash::{mix64, FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use ids::{FileId, HostId, ThreadId};
pub use json::{Json, JsonError};
pub use op::{OpKind, TraceOp};
pub use size::ByteSize;
pub use telemetry::Phase;
pub use trace::{
    stream_stats, ByteReader, SliceSource, SlotCursor, Trace, TraceMeta, TraceReader, TraceSource,
    TraceStats, TRACE_CHUNK_OPS,
};
