//! Device timing models.
//!
//! The simulator treats "the flash itself as a block device; that is, we
//! write blocks to it and read them back. We assume a flash translation
//! layer but do not model it directly. We use average per-block access
//! times derived from testing real flash devices." (§5). This crate holds:
//!
//! - [`RamModel`] — per-block RAM access times (400 ns per 4 KB block,
//!   ≈10 GB/s DDR3, §7).
//! - [`FlashModel`] — average per-block flash access times (88 µs read,
//!   21 µs write, Table 1), with the persistence option that doubles the
//!   write latency "to model performing two flash writes per block, one of
//!   the data and one for the meta-data" (§7.8).
//! - [`SsdModel`] — a *behavioral* SSD latency generator reproducing the
//!   three qualitative findings of the paper's flash-modeling validation
//!   (§6.2); it regenerates Figure 1.
//! - [`IoLog`] — a log of per-block flash I/Os captured during simulation,
//!   replayable against an [`SsdModel`] exactly as the authors replayed
//!   their simulator logs against real SSDs.

pub mod flash;
pub mod ftl;
pub mod iolog;
pub mod ram;
pub mod ssd;

pub use flash::FlashModel;
pub use ftl::{Ftl, FtlConfig, FtlStats};
pub use iolog::{IoDirection, IoLog, IoLogEntry};
pub use ram::RamModel;
pub use ssd::{SsdConfig, SsdModel, WindowAcc, WindowStat};

/// Re-export: simulated time type used by every latency function.
pub use fcache_des::SimTime;
