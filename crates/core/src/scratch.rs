//! Per-thread pools of scratch vectors.
//!
//! The engine's per-op paths borrow short-lived lists — read miss and hit
//! lists, a hedge arm's copy of its miss list, the join handles of a
//! replica fan-out or a syncer batch — from these pools and hand them back
//! when done. The pools belong to the thread, not to a host: a simulation
//! runs on one thread, so after the thread's first run every list is a
//! reuse, however many hosts later runs have and however few ops each of
//! them issues (PERF.md invariant 2).

use std::cell::RefCell;

use fcache_des::JoinHandle;
use fcache_types::BlockAddr;

/// Cleared vectors with their capacity kept.
struct VecPool<T>(RefCell<Vec<Vec<T>>>);

impl<T> VecPool<T> {
    const fn new() -> Self {
        Self(RefCell::new(Vec::new()))
    }

    fn take(&self) -> Vec<T> {
        self.0.borrow_mut().pop().unwrap_or_default()
    }

    /// Keeps `v` for reuse, unless it holds no allocation to reuse.
    fn put(&self, mut v: Vec<T>) {
        if v.capacity() > 0 {
            v.clear();
            self.0.borrow_mut().push(v);
        }
    }
}

thread_local! {
    static BLOCKS: VecPool<BlockAddr> = const { VecPool::new() };
    static JOINS: VecPool<JoinHandle<()>> = const { VecPool::new() };
}

/// Takes an empty block list from the thread's pool.
pub(crate) fn take_buf() -> Vec<BlockAddr> {
    BLOCKS.try_with(VecPool::take).unwrap_or_default()
}

/// Returns a block list to the thread's pool.
pub(crate) fn put_buf(buf: Vec<BlockAddr>) {
    let _ = BLOCKS.try_with(|p| p.put(buf));
}

/// Takes an empty join-handle list from the thread's pool.
pub(crate) fn take_joins() -> Vec<JoinHandle<()>> {
    JOINS.try_with(VecPool::take).unwrap_or_default()
}

/// Returns a join-handle list (its handles all awaited) to the pool.
pub(crate) fn put_joins(joins: Vec<JoinHandle<()>>) {
    let _ = JOINS.try_with(|p| p.put(joins));
}
