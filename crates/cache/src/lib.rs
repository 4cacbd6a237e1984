//! Block caches for the client-side flash-caching simulator.
//!
//! The paper models every cache as "a single LRU chain of blocks" (§5).
//! This crate provides:
//!
//! - [`BlockCache`] — a single-tier block cache with dirty tracking, used
//!   for the RAM tier and the flash tier of the *naive* and *lookaside*
//!   architectures. One open-addressing table is both its index and its
//!   LRU chain: each 16-byte slot is a chain node.
//! - [`LruList`] — a slab-backed doubly-linked LRU list with O(1) touch,
//!   the recency chain of [`UnifiedCache`]'s frames.
//! - [`UnifiedCache`] — the *unified* architecture's cache: one LRU chain
//!   over RAM and flash *frames*; a block is "placed into the least
//!   recently used buffer, whether RAM or flash, and \[is\] never migrated"
//!   (§3.3).
//!
//! Caches here are pure data structures: they never block and carry no
//! timing. The simulator in the `fcache` crate decides what I/O each cache
//! transition costs and charges simulated time accordingly.

pub mod block_cache;
pub mod lru;
pub mod stats;
pub mod unified;

pub use block_cache::{BlockCache, Eviction, EvictionPolicy, InsertOutcome};
pub use lru::LruList;
pub use stats::CacheStats;
pub use unified::{Medium, UnifiedCache, UnifiedEviction, UnifiedInsert};
