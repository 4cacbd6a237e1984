//! Single-tier block cache with dirty tracking.
//!
//! Used for the RAM cache everywhere and for the flash cache in the *naive*
//! and *lookaside* architectures. The cache is a timing-free data
//! structure; the simulator charges device/network time around each
//! transition and performs the actual writeback I/O for dirty evictions.
//!
//! The paper fixes the replacement policy: "we put aside other relevant
//! but secondary considerations, such as cache replacement policy (we use
//! LRU)" (§1). [`EvictionPolicy::Lru`] is therefore the default; FIFO and
//! CLOCK (second chance) are provided for the replacement-policy ablation.
//!
//! # Layout
//!
//! One open-addressing table is both the index and the LRU chain: a
//! 16-byte slot holds the block's `u64` key and the `u32` prev/next links
//! of the chain, and the links' top bits carry the slot's occupied, dirty
//! and CLOCK bits. An all-zero slot is empty. The table has
//! `(2 × capacity).next_power_of_two()` slots, so it is at most half full
//! and a probe always meets an empty slot; the home slot is
//! `mix64(key) & mask` and probing is linear. Deletion shifts the rest of
//! the probe run back (no tombstones), relinking each moved slot's
//! neighbours. Dirty blocks are threaded on a second list whose links live
//! in a parallel array indexed by slot, so a dirty-set snapshot costs
//! O(dirty). The table is allocated zeroed: pages of a tier that never
//! fills are never touched. See `PERF.md` invariant 1.

use fcache_types::{mix64, BlockAddr};

use crate::stats::CacheStats;

/// Replacement policy of a [`BlockCache`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum EvictionPolicy {
    /// Least recently used — the paper's policy and the default.
    #[default]
    Lru,
    /// Insertion order; hits do not affect eviction order.
    Fifo,
    /// CLOCK / second chance: hits set a reference bit; eviction rotates
    /// past referenced entries, clearing their bits.
    Clock,
}

/// Low bits of a link word: a slot index, or [`NIL`].
const INDEX: u32 = (1 << 30) - 1;
/// "No slot": the end of a chain.
const NIL: u32 = INDEX;
/// Prev-word flag: the slot holds a block. Every other flag implies it.
const OCCUPIED: u32 = 1 << 31;
/// Prev-word flag: CLOCK reference bit (unused by LRU/FIFO).
const REFERENCED: u32 = 1 << 30;
/// Next-word flag: the block is dirty and on the dirty list.
const DIRTY: u32 = 1 << 31;

/// One table slot, which is one LRU node: `(key, OCCUPIED | REFERENCED |
/// prev, DIRTY | next)`. A tuple rather than a struct so `vec!` of the
/// all-zero slot is a zeroed allocation.
type Slot = (u64, u32, u32);
const EMPTY: Slot = (0, 0, 0);

/// What `insert` had to evict, if anything.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Eviction {
    /// The block that was evicted.
    pub addr: BlockAddr,
    /// True if the block was dirty: the caller must write it to the next
    /// level before the data is lost ("synchronous evictions once the
    /// cache fills", §7.1).
    pub dirty: bool,
}

/// Result of [`BlockCache::insert`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InsertOutcome {
    /// The block was already cached; it was promoted (and possibly
    /// re-dirtied).
    AlreadyPresent,
    /// Inserted into a free slot.
    Inserted,
    /// Inserted; the returned victim was evicted to make room.
    InsertedEvicting(Eviction),
    /// The cache has zero capacity; nothing was stored.
    ZeroCapacity,
}

/// A fixed-capacity LRU cache of 4 KB blocks with dirty tracking.
///
/// # Examples
///
/// ```
/// use fcache_cache::{BlockCache, InsertOutcome};
/// use fcache_types::{BlockAddr, FileId};
///
/// let mut c = BlockCache::new(2);
/// let a = BlockAddr::new(FileId(1), 0);
/// let b = BlockAddr::new(FileId(1), 1);
/// let d = BlockAddr::new(FileId(1), 2);
/// assert_eq!(c.insert(a, false), InsertOutcome::Inserted);
/// assert_eq!(c.insert(b, false), InsertOutcome::Inserted);
/// assert!(c.lookup(a)); // promotes `a`
/// match c.insert(d, false) {
///     InsertOutcome::InsertedEvicting(ev) => assert_eq!(ev.addr, b),
///     other => panic!("unexpected {other:?}"),
/// }
/// ```
pub struct BlockCache {
    capacity: usize,
    policy: EvictionPolicy,
    /// The table, whose occupied slots are the LRU chain's nodes (see the
    /// module docs): one probe finds a block, its links and its bits.
    slots: Vec<Slot>,
    /// `slots.len() - 1`.
    mask: usize,
    /// Dirty-list `[prev, next]` links by slot; meaningful only for slots
    /// whose `DIRTY` bit is set.
    dirty_links: Vec<[u32; 2]>,
    len: usize,
    /// MRU end of the chain.
    head: u32,
    /// LRU end of the chain: the next victim under LRU and FIFO.
    tail: u32,
    /// Count of slots with the `DIRTY` bit set.
    dirty_count: usize,
    dirty_head: u32,
    stats: CacheStats,
}

impl BlockCache {
    /// The largest capacity whose table the 30-bit slot links can address.
    /// [`BlockCache::with_policy`] panics above it, so configurations are
    /// checked against it before any cache is built.
    pub const MAX_CAPACITY: usize = 1 << 28;

    /// Creates a cache holding at most `capacity_blocks` blocks.
    ///
    /// A capacity of zero models "no cache at this tier": every lookup
    /// misses and inserts are dropped.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_blocks` exceeds [`BlockCache::MAX_CAPACITY`].
    pub fn new(capacity_blocks: usize) -> Self {
        Self::with_policy(capacity_blocks, EvictionPolicy::Lru)
    }

    /// Creates a cache with an explicit replacement policy (ablation use;
    /// the paper's caches are LRU).
    ///
    /// # Panics
    ///
    /// Panics if `capacity_blocks` exceeds [`BlockCache::MAX_CAPACITY`].
    pub fn with_policy(capacity_blocks: usize, policy: EvictionPolicy) -> Self {
        assert!(
            capacity_blocks <= Self::MAX_CAPACITY,
            "a {capacity_blocks}-block cache exceeds BlockCache::MAX_CAPACITY"
        );
        let slots = (2 * capacity_blocks).next_power_of_two();
        Self {
            capacity: capacity_blocks,
            policy,
            slots: vec![EMPTY; slots],
            mask: slots - 1,
            dirty_links: vec![[0; 2]; slots],
            len: 0,
            head: NIL,
            tail: NIL,
            dirty_count: 0,
            dirty_head: NIL,
            stats: CacheStats::default(),
        }
    }

    /// Replacement policy in force.
    pub fn policy(&self) -> EvictionPolicy {
        self.policy
    }

    fn home(&self, key: u64) -> usize {
        mix64(key) as usize & self.mask
    }

    /// Probes for `key`: `Ok(slot)` if resident, else `Err(slot)` with the
    /// empty slot that ends its probe run.
    fn find(&self, key: u64) -> Result<u32, u32> {
        let mut i = self.home(key);
        loop {
            let (k, prev, _) = self.slots[i];
            if prev & OCCUPIED == 0 {
                return Err(i as u32);
            }
            if k == key {
                return Ok(i as u32);
            }
            i = (i + 1) & self.mask;
        }
    }

    fn key(&self, i: u32) -> u64 {
        self.slots[i as usize].0
    }

    fn prev(&self, i: u32) -> u32 {
        self.slots[i as usize].1 & INDEX
    }

    fn next(&self, i: u32) -> u32 {
        self.slots[i as usize].2 & INDEX
    }

    fn set_prev(&mut self, i: u32, prev: u32) {
        let word = &mut self.slots[i as usize].1;
        *word = (*word & !INDEX) | prev;
    }

    fn set_next(&mut self, i: u32, next: u32) {
        let word = &mut self.slots[i as usize].2;
        *word = (*word & !INDEX) | next;
    }

    fn slot_dirty(&self, i: u32) -> bool {
        self.slots[i as usize].2 & DIRTY != 0
    }

    /// Slot `i`'s block and dirtiness.
    fn eviction(&self, i: u32) -> Eviction {
        Eviction {
            addr: BlockAddr::from_u64(self.key(i)),
            dirty: self.slot_dirty(i),
        }
    }

    /// Links slot `i` at the MRU end of the chain.
    fn link_front(&mut self, i: u32) {
        self.set_prev(i, NIL);
        self.set_next(i, self.head);
        if self.head != NIL {
            self.set_prev(self.head, i);
        } else {
            self.tail = i;
        }
        self.head = i;
    }

    /// Unlinks slot `i` from the chain (its own links go stale).
    fn unlink(&mut self, i: u32) {
        let (prev, next) = (self.prev(i), self.next(i));
        if prev != NIL {
            self.set_next(prev, next);
        } else {
            self.head = next;
        }
        if next != NIL {
            self.set_prev(next, prev);
        } else {
            self.tail = prev;
        }
    }

    /// Moves slot `i` to the MRU end.
    fn touch(&mut self, i: u32) {
        if self.head != i {
            self.unlink(i);
            self.link_front(i);
        }
    }

    /// Applies the policy's on-reference behavior to a resident slot.
    fn reference(&mut self, i: u32) {
        match self.policy {
            EvictionPolicy::Lru => self.touch(i),
            EvictionPolicy::Fifo => {}
            EvictionPolicy::Clock => self.slots[i as usize].1 |= REFERENCED,
        }
    }

    /// Selects the eviction victim per the policy without unlinking it.
    fn select_victim(&mut self) -> u32 {
        debug_assert!(self.tail != NIL, "full cache has a victim");
        if self.policy == EvictionPolicy::Clock {
            // Second chance: rotate referenced entries to the front,
            // clearing their bit; evict the first unreferenced one.
            // Terminates: each rotation clears one bit.
            while self.slots[self.tail as usize].1 & REFERENCED != 0 {
                let i = self.tail;
                self.slots[i as usize].1 &= !REFERENCED;
                self.touch(i);
            }
        }
        self.tail
    }

    /// Marks a clean resident slot dirty, pushing it onto the dirty list.
    /// Caller ensures the slot is currently clean.
    fn link_dirty(&mut self, i: u32) {
        debug_assert!(!self.slot_dirty(i), "link_dirty on dirty slot");
        self.slots[i as usize].2 |= DIRTY;
        self.dirty_links[i as usize] = [NIL, self.dirty_head];
        if self.dirty_head != NIL {
            self.dirty_links[self.dirty_head as usize][0] = i;
        }
        self.dirty_head = i;
        self.dirty_count += 1;
    }

    /// Marks a dirty resident slot clean, unlinking it from the dirty
    /// list. Caller ensures the slot is currently dirty.
    fn unlink_dirty(&mut self, i: u32) {
        debug_assert!(self.slot_dirty(i), "unlink_dirty on clean slot");
        self.slots[i as usize].2 &= !DIRTY;
        let [prev, next] = self.dirty_links[i as usize];
        if prev != NIL {
            self.dirty_links[prev as usize][1] = next;
        } else {
            self.dirty_head = next;
        }
        if next != NIL {
            self.dirty_links[next as usize][0] = prev;
        }
        self.dirty_count -= 1;
    }

    /// Unlinks slot `i` from both lists and empties it. Returns the one
    /// slot the deletion leaves empty: `i`, or the last slot the shift
    /// moved out of.
    fn delete(&mut self, i: u32) -> u32 {
        if self.slot_dirty(i) {
            self.unlink_dirty(i);
        }
        self.unlink(i);
        self.len -= 1;
        // Backward shift: walk the probe run after the hole and pull back
        // every slot whose home lies cyclically at or before the hole, so
        // no probe ever crosses an empty slot before its key.
        let mut hole = i as usize;
        let mut j = hole;
        loop {
            j = (j + 1) & self.mask;
            let (key, prev, _) = self.slots[j];
            if prev & OCCUPIED == 0 {
                break;
            }
            let home = self.home(key);
            if j.wrapping_sub(home) & self.mask >= j.wrapping_sub(hole) & self.mask {
                self.move_slot(j as u32, hole as u32);
                hole = j;
            }
        }
        self.slots[hole] = EMPTY;
        hole as u32
    }

    /// Moves occupied slot `from` into the empty slot `to`, relinking its
    /// chain neighbours (or `head`/`tail`) and, if dirty, its dirty-list
    /// neighbours (or `dirty_head`).
    fn move_slot(&mut self, from: u32, to: u32) {
        self.slots[to as usize] = self.slots[from as usize];
        let (prev, next) = (self.prev(to), self.next(to));
        if prev != NIL {
            self.set_next(prev, to);
        } else {
            self.head = to;
        }
        if next != NIL {
            self.set_prev(next, to);
        } else {
            self.tail = to;
        }
        if self.slot_dirty(to) {
            let [dprev, dnext] = self.dirty_links[from as usize];
            self.dirty_links[to as usize] = [dprev, dnext];
            if dprev != NIL {
                self.dirty_links[dprev as usize][1] = to;
            } else {
                self.dirty_head = to;
            }
            if dnext != NIL {
                self.dirty_links[dnext as usize][0] = to;
            }
        }
    }

    /// Maximum block count.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current block count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no blocks are cached.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when every slot is occupied.
    pub fn is_full(&self) -> bool {
        self.len() >= self.capacity
    }

    /// Number of dirty blocks.
    pub fn dirty_len(&self) -> usize {
        self.dirty_count
    }

    /// Statistics counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets the statistics counters (cache contents are untouched).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Looks a block up, promoting it to MRU on a hit.
    pub fn lookup(&mut self, addr: BlockAddr) -> bool {
        match self.find(addr.to_u64()) {
            Ok(i) => {
                self.reference(i);
                self.stats.hits += 1;
                true
            }
            Err(_) => {
                self.stats.misses += 1;
                false
            }
        }
    }

    /// True if the block is cached; no promotion, no statistics.
    pub fn contains(&self, addr: BlockAddr) -> bool {
        self.find(addr.to_u64()).is_ok()
    }

    /// Promotes a block *without* counting a hit or miss (the promotion
    /// itself follows the replacement policy's reference behavior).
    ///
    /// Used for inclusive-cache maintenance: a RAM hit promotes the flash
    /// copy so the flash LRU order stays a superset of RAM recency and the
    /// naive/lookaside subset property holds. Returns false if absent.
    pub fn promote(&mut self, addr: BlockAddr) -> bool {
        let found = self.find(addr.to_u64());
        if let Ok(i) = found {
            self.reference(i);
        }
        found.is_ok()
    }

    /// True if the block is cached and dirty.
    pub fn is_dirty(&self, addr: BlockAddr) -> bool {
        self.find(addr.to_u64()).is_ok_and(|i| self.slot_dirty(i))
    }

    /// Inserts (or overwrites) a block, promoting it to MRU.
    ///
    /// If the block is present it stays present; `dirty = true` marks it
    /// dirty (a clean insert never cleans an existing dirty block — data
    /// freshness wins). If the cache is full the LRU block is evicted and
    /// returned so the caller can write it back if dirty.
    pub fn insert(&mut self, addr: BlockAddr, dirty: bool) -> InsertOutcome {
        let key = addr.to_u64();
        let mut free = match self.find(key) {
            Ok(i) => {
                self.reference(i);
                if dirty {
                    self.stats.overwrites += 1;
                    if !self.slot_dirty(i) {
                        self.link_dirty(i);
                    }
                }
                return InsertOutcome::AlreadyPresent;
            }
            Err(free) => free,
        };
        if self.capacity == 0 {
            return InsertOutcome::ZeroCapacity;
        }

        let outcome = if self.len >= self.capacity {
            let victim = self.select_victim();
            let ev = self.eviction(victim);
            if ev.dirty {
                self.stats.dirty_evictions += 1;
            } else {
                self.stats.clean_evictions += 1;
            }
            // The shift never fills `free`, and the one slot it empties
            // ends the new key's probe run if it lies inside it.
            let hole = self.delete(victim);
            let home = self.home(key);
            let run = |slot: u32| (slot as usize).wrapping_sub(home) & self.mask;
            if run(hole) < run(free) {
                free = hole;
            }
            InsertOutcome::InsertedEvicting(ev)
        } else {
            InsertOutcome::Inserted
        };
        self.slots[free as usize] = (key, OCCUPIED, 0);
        self.link_front(free);
        self.len += 1;
        if dirty {
            self.link_dirty(free);
        }
        self.stats.insertions += 1;
        outcome
    }

    /// Marks a cached block dirty (no promotion). Returns false if absent.
    pub fn mark_dirty(&mut self, addr: BlockAddr) -> bool {
        match self.find(addr.to_u64()) {
            Ok(i) => {
                if !self.slot_dirty(i) {
                    self.link_dirty(i);
                }
                true
            }
            Err(_) => false,
        }
    }

    /// Marks a cached block clean (after a completed writeback).
    /// Returns false if the block is absent.
    pub fn mark_clean(&mut self, addr: BlockAddr) -> bool {
        match self.find(addr.to_u64()) {
            Ok(i) => {
                if self.slot_dirty(i) {
                    self.unlink_dirty(i);
                }
                true
            }
            Err(_) => false,
        }
    }

    /// Removes a block (cache-consistency invalidation or subset
    /// maintenance). Returns whether it was present and whether dirty.
    pub fn remove(&mut self, addr: BlockAddr) -> Option<Eviction> {
        let i = self.find(addr.to_u64()).ok()?;
        let ev = self.eviction(i);
        self.delete(i);
        self.stats.invalidations += 1;
        Some(ev)
    }

    /// Address and dirtiness of the current LRU block, if any.
    pub fn peek_lru(&self) -> Option<Eviction> {
        (self.tail != NIL).then(|| self.eviction(self.tail))
    }

    /// Appends all dirty block addresses to `out`, sorted by address.
    ///
    /// The syncer uses this to flush: it iterates the snapshot, writing each
    /// block to the next level and marking it clean on completion. Taking a
    /// caller-owned buffer lets periodic flushers reuse one allocation
    /// across ticks instead of churning the allocator. The sort keeps flush
    /// order deterministic and independent of the table's layout.
    pub fn dirty_blocks_into(&self, out: &mut Vec<BlockAddr>) {
        let start = out.len();
        out.reserve(self.dirty_count);
        let mut cur = self.dirty_head;
        while cur != NIL {
            out.push(BlockAddr::from_u64(self.key(cur)));
            cur = self.dirty_links[cur as usize][1];
        }
        out[start..].sort_unstable();
    }

    /// Snapshot of all dirty block addresses, sorted by address
    /// (allocating convenience wrapper over [`BlockCache::dirty_blocks_into`]).
    pub fn dirty_blocks(&self) -> Vec<BlockAddr> {
        let mut v = Vec::with_capacity(self.dirty_count);
        self.dirty_blocks_into(&mut v);
        v
    }

    /// Iterates cached blocks from MRU to LRU (test/diagnostic use).
    pub fn iter_mru(&self) -> impl Iterator<Item = (BlockAddr, bool)> + '_ {
        let mut cur = self.head;
        std::iter::from_fn(move || {
            (cur != NIL).then(|| {
                let i = cur;
                cur = self.next(i);
                (BlockAddr::from_u64(self.key(i)), self.slot_dirty(i))
            })
        })
    }

    /// Verifies internal invariants; test support.
    ///
    /// # Panics
    ///
    /// Panics if the table, the LRU chain, and the dirty list disagree.
    pub fn check_invariants(&self) {
        assert!(self.len <= self.capacity, "over capacity");
        assert_eq!(
            self.slots.len(),
            (2 * self.capacity).next_power_of_two(),
            "table size"
        );
        let mut occupied = 0;
        for (i, &(key, prev, _)) in self.slots.iter().enumerate() {
            if prev & OCCUPIED == 0 {
                assert_eq!(self.slots[i], EMPTY, "empty slot {i} not all-zero");
            } else {
                occupied += 1;
                // Reachable from its home without crossing an empty slot,
                // and the only slot holding its key.
                assert_eq!(self.find(key), Ok(i as u32), "slot {i} unreachable");
            }
        }
        assert_eq!(occupied, self.len, "occupied slots vs len");
        // The chain holds every occupied slot once, with consistent
        // back-links, and ends at `tail`.
        let (mut walked, mut prev, mut cur) = (0, NIL, self.head);
        while cur != NIL {
            assert!(
                self.slots[cur as usize].1 & OCCUPIED != 0,
                "chain holds empty slot"
            );
            assert_eq!(self.prev(cur), prev, "chain back-link mismatch");
            walked += 1;
            assert!(walked <= self.len, "chain cycle");
            (prev, cur) = (cur, self.next(cur));
        }
        assert_eq!(walked, self.len, "chain length mismatch");
        assert_eq!(self.tail, prev, "tail mismatch");
        let dirty_seen = self.iter_mru().filter(|&(_, dirty)| dirty).count();
        assert_eq!(dirty_seen, self.dirty_count, "dirty count mismatch");
        // The dirty list must contain exactly the dirty slots, with
        // consistent back-links.
        let (mut walked, mut prev, mut cur) = (0, NIL, self.dirty_head);
        while cur != NIL {
            assert!(self.slot_dirty(cur), "dirty list holds clean slot");
            assert_eq!(
                self.dirty_links[cur as usize][0], prev,
                "dirty list back-link mismatch"
            );
            walked += 1;
            assert!(walked <= self.dirty_count, "dirty list cycle");
            (prev, cur) = (cur, self.dirty_links[cur as usize][1]);
        }
        assert_eq!(walked, self.dirty_count, "dirty list length mismatch");
    }
}

impl std::fmt::Debug for BlockCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockCache")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("dirty", &self.dirty_len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcache_types::FileId;

    fn addr(n: u32) -> BlockAddr {
        BlockAddr::new(FileId(0), n)
    }

    #[test]
    fn miss_then_hit() {
        let mut c = BlockCache::new(4);
        assert!(!c.lookup(addr(1)));
        c.insert(addr(1), false);
        assert!(c.lookup(addr(1)));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        c.check_invariants();
    }

    #[test]
    fn eviction_order_is_lru() {
        let mut c = BlockCache::new(3);
        c.insert(addr(1), false);
        c.insert(addr(2), false);
        c.insert(addr(3), false);
        assert!(c.lookup(addr(1))); // 1 promoted; LRU is 2
        match c.insert(addr(4), false) {
            InsertOutcome::InsertedEvicting(ev) => {
                assert_eq!(ev.addr, addr(2));
                assert!(!ev.dirty);
            }
            other => panic!("unexpected {other:?}"),
        }
        c.check_invariants();
    }

    #[test]
    fn dirty_eviction_reports_dirty() {
        let mut c = BlockCache::new(1);
        c.insert(addr(1), true);
        match c.insert(addr(2), false) {
            InsertOutcome::InsertedEvicting(ev) => {
                assert_eq!(ev.addr, addr(1));
                assert!(ev.dirty);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(c.stats().dirty_evictions, 1);
        assert_eq!(c.dirty_len(), 0);
        c.check_invariants();
    }

    #[test]
    fn overwrite_marks_dirty_and_promotes() {
        let mut c = BlockCache::new(2);
        c.insert(addr(1), false);
        c.insert(addr(2), false);
        assert_eq!(c.insert(addr(1), true), InsertOutcome::AlreadyPresent);
        assert!(c.is_dirty(addr(1)));
        // 1 is MRU now, so inserting 3 evicts 2.
        match c.insert(addr(3), false) {
            InsertOutcome::InsertedEvicting(ev) => assert_eq!(ev.addr, addr(2)),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(c.stats().overwrites, 1);
        c.check_invariants();
    }

    #[test]
    fn clean_insert_does_not_clean_dirty_block() {
        let mut c = BlockCache::new(2);
        c.insert(addr(1), true);
        assert_eq!(c.insert(addr(1), false), InsertOutcome::AlreadyPresent);
        assert!(c.is_dirty(addr(1)), "refetch must not lose dirtiness");
    }

    #[test]
    fn mark_clean_and_dirty_roundtrip() {
        let mut c = BlockCache::new(2);
        c.insert(addr(1), true);
        assert_eq!(c.dirty_len(), 1);
        assert!(c.mark_clean(addr(1)));
        assert_eq!(c.dirty_len(), 0);
        assert!(c.mark_dirty(addr(1)));
        assert!(c.is_dirty(addr(1)));
        assert!(!c.mark_dirty(addr(9)));
        assert!(!c.mark_clean(addr(9)));
        c.check_invariants();
    }

    #[test]
    fn remove_invalidates() {
        let mut c = BlockCache::new(2);
        c.insert(addr(1), true);
        let ev = c.remove(addr(1)).unwrap();
        assert!(ev.dirty);
        assert!(!c.contains(addr(1)));
        assert_eq!(c.remove(addr(1)), None);
        assert_eq!(c.stats().invalidations, 1);
        c.check_invariants();
    }

    #[test]
    fn zero_capacity_cache_stores_nothing() {
        let mut c = BlockCache::new(0);
        assert_eq!(c.insert(addr(1), false), InsertOutcome::ZeroCapacity);
        assert!(!c.lookup(addr(1)));
        assert_eq!(c.len(), 0);
        c.check_invariants();
    }

    #[test]
    fn promote_reorders_without_stats() {
        let mut c = BlockCache::new(2);
        c.insert(addr(1), false);
        c.insert(addr(2), false);
        let before = *c.stats();
        assert!(c.promote(addr(1)));
        assert!(!c.promote(addr(9)));
        assert_eq!(
            *c.stats(),
            before,
            "promote must not touch hit/miss counters"
        );
        // 1 is MRU, so 2 is the eviction victim.
        assert_eq!(c.peek_lru().unwrap().addr, addr(2));
        c.check_invariants();
    }

    #[test]
    fn dirty_blocks_snapshot() {
        let mut c = BlockCache::new(8);
        for i in 0..6 {
            c.insert(addr(i), i % 2 == 0);
        }
        let mut dirty = c.dirty_blocks();
        dirty.sort();
        assert_eq!(dirty, vec![addr(0), addr(2), addr(4)]);
    }

    #[test]
    fn peek_lru_matches_next_eviction() {
        let mut c = BlockCache::new(2);
        c.insert(addr(1), true);
        c.insert(addr(2), false);
        let peek = c.peek_lru().unwrap();
        match c.insert(addr(3), false) {
            InsertOutcome::InsertedEvicting(ev) => assert_eq!(ev, peek),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn len_tracks_inserts_up_to_capacity() {
        let mut c = BlockCache::new(3);
        for i in 0..10 {
            c.insert(addr(i), false);
            assert!(c.len() <= 3);
        }
        assert!(c.is_full());
        assert_eq!(c.len(), 3);
        assert_eq!(c.stats().insertions, 10);
        assert_eq!(c.stats().evictions(), 7);
        c.check_invariants();
    }

    mod replacement_policies {
        use super::*;

        #[test]
        fn fifo_ignores_hits() {
            let mut c = BlockCache::with_policy(2, EvictionPolicy::Fifo);
            c.insert(addr(1), false);
            c.insert(addr(2), false);
            assert!(c.lookup(addr(1))); // does not protect 1 under FIFO
            match c.insert(addr(3), false) {
                InsertOutcome::InsertedEvicting(ev) => assert_eq!(ev.addr, addr(1)),
                other => panic!("unexpected {other:?}"),
            }
            c.check_invariants();
        }

        #[test]
        fn clock_gives_second_chance() {
            let mut c = BlockCache::with_policy(2, EvictionPolicy::Clock);
            c.insert(addr(1), false);
            c.insert(addr(2), false);
            assert!(c.lookup(addr(1))); // sets 1's reference bit
                                        // Victim scan: 1 is referenced → spared (bit cleared, rotated);
                                        // 2 is unreferenced → evicted.
            match c.insert(addr(3), false) {
                InsertOutcome::InsertedEvicting(ev) => assert_eq!(ev.addr, addr(2)),
                other => panic!("unexpected {other:?}"),
            }
            assert!(c.contains(addr(1)));
            c.check_invariants();
        }

        #[test]
        fn clock_evicts_oldest_when_all_referenced() {
            let mut c = BlockCache::with_policy(3, EvictionPolicy::Clock);
            for i in 1..=3 {
                c.insert(addr(i), false);
                assert!(c.lookup(addr(i)));
            }
            // All referenced: one full rotation clears every bit, then the
            // oldest (1) is the first unreferenced victim.
            match c.insert(addr(4), false) {
                InsertOutcome::InsertedEvicting(ev) => assert_eq!(ev.addr, addr(1)),
                other => panic!("unexpected {other:?}"),
            }
            c.check_invariants();
        }

        #[test]
        fn lru_beats_fifo_on_skewed_access() {
            // A hot block re-referenced between streams survives under LRU
            // and CLOCK but not under FIFO: hit counts order LRU ≥ CLOCK > FIFO.
            let run = |policy| {
                let mut c = BlockCache::with_policy(8, policy);
                let mut hits = 0u64;
                for round in 0..200u32 {
                    if c.lookup(addr(0)) {
                        hits += 1;
                    }
                    c.insert(addr(0), false);
                    for i in 0..4 {
                        let a = addr(1 + (round * 4 + i) % 40);
                        c.lookup(a);
                        c.insert(a, false);
                    }
                }
                c.check_invariants();
                hits
            };
            let lru = run(EvictionPolicy::Lru);
            let clock = run(EvictionPolicy::Clock);
            let fifo = run(EvictionPolicy::Fifo);
            assert!(lru >= clock, "lru {lru} vs clock {clock}");
            assert!(clock > fifo, "clock {clock} vs fifo {fifo}");
        }

        #[test]
        fn policies_share_dirty_semantics() {
            for policy in [
                EvictionPolicy::Lru,
                EvictionPolicy::Fifo,
                EvictionPolicy::Clock,
            ] {
                let mut c = BlockCache::with_policy(1, policy);
                c.insert(addr(1), true);
                match c.insert(addr(2), false) {
                    InsertOutcome::InsertedEvicting(ev) => {
                        assert!(ev.dirty, "{policy:?} must report dirty victim");
                    }
                    other => panic!("unexpected {other:?}"),
                }
                c.check_invariants();
            }
        }
    }

    mod properties {
        use super::*;
        use fcache_types::mix64;
        use proptest::prelude::*;
        use std::collections::VecDeque;

        #[derive(Debug, Clone)]
        enum Op {
            Lookup(u32),
            Insert(u32, bool),
            MarkClean(u32),
            Remove(u32),
        }

        fn op_strategy() -> impl Strategy<Value = Op> {
            let key = 0u32..24;
            prop_oneof![
                key.clone().prop_map(Op::Lookup),
                (key.clone(), any::<bool>()).prop_map(|(k, d)| Op::Insert(k, d)),
                key.clone().prop_map(Op::MarkClean),
                key.prop_map(Op::Remove),
            ]
        }

        /// Reference model: VecDeque of (key, dirty), front = MRU.
        struct Model {
            cap: usize,
            q: VecDeque<(u32, bool)>,
        }

        impl Model {
            fn lookup(&mut self, k: u32) -> bool {
                if let Some(p) = self.q.iter().position(|&(x, _)| x == k) {
                    let e = self.q.remove(p).unwrap();
                    self.q.push_front(e);
                    true
                } else {
                    false
                }
            }

            fn insert(&mut self, k: u32, d: bool) -> Option<(u32, bool)> {
                if let Some(p) = self.q.iter().position(|&(x, _)| x == k) {
                    let mut e = self.q.remove(p).unwrap();
                    e.1 |= d;
                    self.q.push_front(e);
                    return None;
                }
                let evicted = if self.q.len() >= self.cap {
                    self.q.pop_back()
                } else {
                    None
                };
                self.q.push_front((k, d));
                evicted
            }

            fn set_dirty(&mut self, k: u32, d: bool) -> bool {
                let entry = self.q.iter_mut().find(|(x, _)| *x == k);
                entry.map(|e| e.1 = d).is_some()
            }

            fn remove(&mut self, k: u32) -> Option<(u32, bool)> {
                let p = self.q.iter().position(|&(x, _)| x == k)?;
                self.q.remove(p)
            }
        }

        /// [`Model`] generalised to all three policies, over addresses:
        /// `(addr, dirty, referenced)`, front = MRU (LRU) or newest (FIFO,
        /// CLOCK, where a spared entry re-enters at the front).
        struct PolicyModel {
            cap: usize,
            policy: EvictionPolicy,
            q: VecDeque<(BlockAddr, bool, bool)>,
        }

        impl PolicyModel {
            fn position(&self, a: BlockAddr) -> Option<usize> {
                self.q.iter().position(|e| e.0 == a)
            }

            fn reference(&mut self, p: usize) {
                match self.policy {
                    EvictionPolicy::Lru => {
                        let e = self.q.remove(p).unwrap();
                        self.q.push_front(e);
                    }
                    EvictionPolicy::Fifo => {}
                    EvictionPolicy::Clock => self.q[p].2 = true,
                }
            }

            fn lookup(&mut self, a: BlockAddr) -> bool {
                let p = self.position(a);
                p.map(|p| self.reference(p)).is_some()
            }

            fn insert(&mut self, a: BlockAddr, d: bool) -> InsertOutcome {
                if let Some(p) = self.position(a) {
                    self.q[p].1 |= d;
                    self.reference(p);
                    return InsertOutcome::AlreadyPresent;
                }
                if self.cap == 0 {
                    return InsertOutcome::ZeroCapacity;
                }
                let mut outcome = InsertOutcome::Inserted;
                if self.q.len() >= self.cap {
                    while self.policy == EvictionPolicy::Clock && self.q.back().unwrap().2 {
                        let (a, d, _) = self.q.pop_back().unwrap();
                        self.q.push_front((a, d, false));
                    }
                    let (addr, dirty, _) = self.q.pop_back().unwrap();
                    outcome = InsertOutcome::InsertedEvicting(Eviction { addr, dirty });
                }
                self.q.push_front((a, d, false));
                outcome
            }

            fn set_dirty(&mut self, a: BlockAddr, d: bool) -> bool {
                let p = self.position(a);
                p.map(|p| self.q[p].1 = d).is_some()
            }

            fn remove(&mut self, a: BlockAddr) -> Option<Eviction> {
                let (addr, dirty, _) = self.q.remove(self.position(a)?)?;
                Some(Eviction { addr, dirty })
            }
        }

        #[derive(Debug, Clone, Copy)]
        enum Churn {
            Lookup,
            Insert(bool),
            MarkDirty,
            MarkClean,
            Remove,
        }

        /// Applies `op` on `keys[k]` to the cache and to `model` (and, at a
        /// nonzero LRU capacity, to the original [`Model`]), then checks
        /// the cache's invariants and that it agrees with the models.
        fn churn_step(
            sut: &mut BlockCache,
            model: &mut PolicyModel,
            lru: &mut Model,
            keys: &[BlockAddr],
            k: u32,
            op: Churn,
        ) {
            let a = keys[k as usize];
            let check_lru = model.policy == EvictionPolicy::Lru && model.cap > 0;
            let as_eviction = |e: Option<(u32, bool)>| {
                e.map(|(k, dirty)| Eviction {
                    addr: keys[k as usize],
                    dirty,
                })
            };
            match op {
                Churn::Lookup => {
                    let hit = sut.lookup(a);
                    assert_eq!(hit, model.lookup(a), "lookup {a:?}");
                    if check_lru {
                        assert_eq!(hit, lru.lookup(k));
                    }
                }
                Churn::Insert(d) => {
                    let got = sut.insert(a, d);
                    assert_eq!(got, model.insert(a, d), "insert {a:?} {d}");
                    if check_lru {
                        let evicted = match got {
                            InsertOutcome::InsertedEvicting(ev) => Some(ev),
                            _ => None,
                        };
                        assert_eq!(evicted, as_eviction(lru.insert(k, d)));
                    }
                }
                Churn::MarkDirty | Churn::MarkClean => {
                    let d = matches!(op, Churn::MarkDirty);
                    let got = if d {
                        sut.mark_dirty(a)
                    } else {
                        sut.mark_clean(a)
                    };
                    assert_eq!(got, model.set_dirty(a, d), "{op:?} {a:?}");
                    if check_lru {
                        assert_eq!(got, lru.set_dirty(k, d));
                    }
                }
                Churn::Remove => {
                    let got = sut.remove(a);
                    assert_eq!(got, model.remove(a), "remove {a:?}");
                    if check_lru {
                        assert_eq!(got, as_eviction(lru.remove(k)));
                    }
                }
            }
            sut.check_invariants();
            assert_eq!(sut.len(), model.q.len());
            assert!(
                sut.iter_mru().eq(model.q.iter().map(|&(a, d, _)| (a, d))),
                "chain order after {op:?} {a:?}"
            );
            let mut dirty: Vec<BlockAddr> = model.q.iter().filter(|e| e.1).map(|e| e.0).collect();
            dirty.sort_unstable();
            assert_eq!(sut.dirty_blocks(), dirty);
        }

        const POLICIES: [EvictionPolicy; 3] = [
            EvictionPolicy::Lru,
            EvictionPolicy::Fifo,
            EvictionPolicy::Clock,
        ];

        /// The key `u64::MAX`: every bit of the key is live.
        fn corner() -> BlockAddr {
            BlockAddr::new(FileId(u32::MAX), u32::MAX)
        }

        #[test]
        fn every_capacity_to_64_churns_like_the_models() {
            for policy in POLICIES {
                for cap in 0..=64usize {
                    let mut keys: Vec<BlockAddr> = (0..2 * cap as u32 + 2).map(addr).collect();
                    keys.push(corner());
                    let mut sut = BlockCache::with_policy(cap, policy);
                    let mut model = PolicyModel {
                        cap,
                        policy,
                        q: VecDeque::new(),
                    };
                    let mut lru = Model {
                        cap,
                        q: VecDeque::new(),
                    };
                    let mut state = cap as u64;
                    for _ in 0..100 + 12 * cap {
                        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                        let r = mix64(state);
                        let k = (r % keys.len() as u64) as u32;
                        let op = match (r >> 32) % 20 {
                            0..=5 => Churn::Lookup,
                            6..=12 => Churn::Insert(r >> 40 & 1 == 1),
                            13..=14 => Churn::MarkDirty,
                            15..=16 => Churn::MarkClean,
                            _ => Churn::Remove,
                        };
                        churn_step(&mut sut, &mut model, &mut lru, &keys, k, op);
                    }
                    assert!(
                        cap == 0 || sut.stats().evictions() > 0,
                        "cap {cap} never filled"
                    );
                }
            }
        }

        /// The first `n` blocks of `file` whose home slot in `c` is `home`.
        fn keys_homed_at(c: &BlockCache, file: u32, home: usize, n: usize) -> Vec<BlockAddr> {
            (0u32..)
                .map(|b| BlockAddr::new(FileId(file), b))
                .filter(|a| c.home(a.to_u64()) == home)
                .take(n)
                .collect()
        }

        fn churn_strategy() -> impl Strategy<Value = Churn> {
            prop_oneof![
                Just(Churn::Lookup),
                any::<bool>().prop_map(Churn::Insert),
                Just(Churn::MarkDirty),
                Just(Churn::MarkClean),
                Just(Churn::Remove),
            ]
        }

        proptest! {
            #[test]
            fn shared_home_runs_shift_back_across_the_table_end(
                cap in 1usize..12,
                policy in prop_oneof![
                    Just(EvictionPolicy::Lru),
                    Just(EvictionPolicy::Fifo),
                    Just(EvictionPolicy::Clock),
                ],
                ops in proptest::collection::vec((0u32..10, churn_strategy()), 0..300),
            ) {
                let mut sut = BlockCache::with_policy(cap, policy);
                // Six keys share the last slot as home, so their run wraps
                // to slot 0; two start at slot 0 and one a slot before the
                // end, so the runs interleave across the wrap.
                let last = sut.mask;
                let mut keys = keys_homed_at(&sut, 7, last, 6);
                keys.extend(keys_homed_at(&sut, 8, 0, 2));
                keys.extend(keys_homed_at(&sut, 9, last - 1, 1));
                keys.push(corner());
                let mut model = PolicyModel { cap, policy, q: VecDeque::new() };
                let mut lru = Model { cap, q: VecDeque::new() };
                for (k, op) in ops {
                    churn_step(&mut sut, &mut model, &mut lru, &keys, k, op);
                }
            }
        }

        /// The pre-refactor representation: recency order in one structure,
        /// dirtiness in a *separate* set (the two-probe model this cache
        /// replaced). The folded single-probe cache must stay observably
        /// identical to it.
        struct TwoStructureModel {
            cap: usize,
            order: VecDeque<u32>, // front = MRU
            dirty: std::collections::HashSet<u32>,
        }

        impl TwoStructureModel {
            fn insert(&mut self, k: u32, d: bool) -> Option<(u32, bool)> {
                if let Some(p) = self.order.iter().position(|&x| x == k) {
                    self.order.remove(p);
                    self.order.push_front(k);
                    if d {
                        self.dirty.insert(k);
                    }
                    return None;
                }
                let evicted = if self.order.len() >= self.cap {
                    self.order.pop_back().map(|v| (v, self.dirty.remove(&v)))
                } else {
                    None
                };
                self.order.push_front(k);
                if d {
                    self.dirty.insert(k);
                }
                evicted
            }
        }

        proptest! {
            #[test]
            fn folded_dirty_bit_matches_two_structure_model(
                cap in 1usize..10,
                ops in proptest::collection::vec(op_strategy(), 0..300),
            ) {
                let mut sut = BlockCache::new(cap);
                let mut model = TwoStructureModel {
                    cap,
                    order: VecDeque::new(),
                    dirty: std::collections::HashSet::new(),
                };
                for op in ops {
                    match op {
                        Op::Lookup(k) => {
                            let hit = sut.lookup(addr(k));
                            if let Some(p) = model.order.iter().position(|&x| x == k) {
                                prop_assert!(hit);
                                model.order.remove(p);
                                model.order.push_front(k);
                            } else {
                                prop_assert!(!hit);
                            }
                        }
                        Op::Insert(k, d) => {
                            match (sut.insert(addr(k), d), model.insert(k, d)) {
                                (InsertOutcome::InsertedEvicting(ev), Some((mk, md))) => {
                                    prop_assert_eq!(ev.addr, addr(mk));
                                    prop_assert_eq!(ev.dirty, md);
                                }
                                (InsertOutcome::Inserted, None)
                                | (InsertOutcome::AlreadyPresent, None) => {}
                                (got, want) => {
                                    return Err(TestCaseError::fail(
                                        format!("insert mismatch: sut={got:?} model={want:?}")));
                                }
                            }
                        }
                        Op::MarkClean(k) => {
                            let present = model.order.contains(&k);
                            model.dirty.remove(&k);
                            prop_assert_eq!(sut.mark_clean(addr(k)), present);
                        }
                        Op::Remove(k) => {
                            let got = sut.remove(addr(k));
                            if let Some(p) = model.order.iter().position(|&x| x == k) {
                                model.order.remove(p);
                                let was_dirty = model.dirty.remove(&k);
                                prop_assert_eq!(got.map(|e| (e.addr, e.dirty)),
                                                Some((addr(k), was_dirty)));
                            } else {
                                prop_assert_eq!(got, None);
                            }
                        }
                    }
                    // Observable dirty state must match the two-structure
                    // model exactly after every operation.
                    sut.check_invariants();
                    prop_assert_eq!(sut.dirty_len(), model.dirty.len());
                    for &k in model.order.iter() {
                        prop_assert_eq!(sut.is_dirty(addr(k)), model.dirty.contains(&k));
                    }
                    let mut expect: Vec<BlockAddr> =
                        model.dirty.iter().map(|&k| addr(k)).collect();
                    expect.sort_unstable();
                    prop_assert_eq!(sut.dirty_blocks(), expect);
                }
            }

            #[test]
            fn matches_reference_model(
                cap in 1usize..8,
                ops in proptest::collection::vec(op_strategy(), 0..300),
            ) {
                let mut sut = BlockCache::new(cap);
                let mut model = Model { cap, q: VecDeque::new() };
                for op in ops {
                    match op {
                        Op::Lookup(k) => {
                            prop_assert_eq!(sut.lookup(addr(k)), model.lookup(k));
                        }
                        Op::Insert(k, d) => {
                            let expect = model.insert(k, d);
                            match (sut.insert(addr(k), d), expect) {
                                (InsertOutcome::InsertedEvicting(ev), Some((mk, md))) => {
                                    prop_assert_eq!(ev.addr, addr(mk));
                                    prop_assert_eq!(ev.dirty, md);
                                }
                                (InsertOutcome::Inserted, None) => {}
                                (InsertOutcome::AlreadyPresent, None) => {}
                                (got, want) => {
                                    return Err(TestCaseError::fail(
                                        format!("insert mismatch: sut={got:?} model={want:?}")));
                                }
                            }
                        }
                        Op::MarkClean(k) => {
                            let in_model = model.q.iter_mut().find(|(x, _)| *x == k);
                            let expect = in_model.map(|e| { e.1 = false; true }).unwrap_or(false);
                            prop_assert_eq!(sut.mark_clean(addr(k)), expect);
                        }
                        Op::Remove(k) => {
                            let expect = model.q.iter().position(|&(x, _)| x == k)
                                .map(|p| model.q.remove(p).unwrap());
                            let got = sut.remove(addr(k));
                            prop_assert_eq!(got.map(|e| (e.addr, e.dirty)),
                                            expect.map(|(k, d)| (addr(k), d)));
                        }
                    }
                    sut.check_invariants();
                    prop_assert_eq!(sut.len(), model.q.len());
                    prop_assert_eq!(
                        sut.iter_mru().collect::<Vec<_>>(),
                        model.q.iter().map(|&(k, d)| (addr(k), d)).collect::<Vec<_>>()
                    );
                }
            }
        }
    }
}
