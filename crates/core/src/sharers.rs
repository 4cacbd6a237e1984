//! The sharer filter: which hosts may hold a copy of a block.
//!
//! The paper keeps host caches consistent by instant invalidation with
//! global knowledge (§3.8): a write removes the block from every other
//! host's caches. Probing every peer's cache maps for every written block
//! would make a write cost O(hosts) hash probes, so per-op cost would grow
//! with the host count. The filter narrows that scan to the hosts that may
//! hold the block.
//!
//! It is a counting filter: a `u8` matrix with one row per bucket and one
//! column per host. A block's bucket is `mix64(addr) & mask`. A column
//! counts the host's (tier, block) memberships that hash into the row: an
//! insert of a new block adds one, an evicted victim or an invalidated copy
//! subtracts one. A counter that reaches 255 stays there, so a host with a
//! copy always reads non-zero: the candidates are a superset of the true
//! holders, and probing only them removes exactly what a full scan removes
//! (a `remove` that misses changes no statistic).

use std::cell::RefCell;

use fcache_types::{mix64, BlockAddr, HostId};

/// Takes `n` memberships off a counter. A saturated counter no longer
/// knows its true count, so it stays saturated.
fn uncount(c: &mut u8, n: u8) {
    if *c != u8::MAX {
        debug_assert!(*c >= n, "sharer counter underflow");
        *c -= n;
    }
}

/// Per-run counting filter over (bucket, host) memberships.
pub(crate) struct SharerFilter {
    /// `buckets × hosts` counters, row-major by bucket.
    counts: RefCell<Box<[u8]>>,
    hosts: usize,
    mask: u64,
}

impl SharerFilter {
    /// A filter for `hosts` hosts caching up to `blocks_per_host` blocks
    /// each: `next_power_of_two(2 × blocks_per_host)` buckets, so 2 bytes
    /// per block of cache capacity.
    pub(crate) fn new(hosts: usize, blocks_per_host: usize) -> Self {
        let buckets = (2 * blocks_per_host.max(1)).next_power_of_two();
        Self {
            counts: RefCell::new(vec![0u8; buckets * hosts].into_boxed_slice()),
            hosts,
            mask: buckets as u64 - 1,
        }
    }

    /// First counter of `addr`'s row.
    fn row_start(&self, addr: BlockAddr) -> usize {
        (mix64(addr.to_u64()) & self.mask) as usize * self.hosts
    }

    /// `host` cached `addr` in one more tier.
    pub(crate) fn add(&self, host: HostId, addr: BlockAddr) {
        let i = self.row_start(addr) + host.index();
        let mut counts = self.counts.borrow_mut();
        counts[i] = counts[i].saturating_add(1);
    }

    /// `host` dropped its copy of `addr` from one tier.
    pub(crate) fn sub(&self, host: HostId, addr: BlockAddr) {
        let i = self.row_start(addr) + host.index();
        let mut counts = self.counts.borrow_mut();
        uncount(&mut counts[i], 1);
    }

    /// Calls `probe` for each host other than `me` whose counter for
    /// `addr` is non-zero, in host order. `probe` returns how many copies
    /// it removed, which come off that host's counter; it must not touch
    /// the filter.
    pub(crate) fn for_each_candidate(
        &self,
        me: HostId,
        addr: BlockAddr,
        mut probe: impl FnMut(usize) -> u8,
    ) {
        let start = self.row_start(addr);
        let mut counts = self.counts.borrow_mut();
        for (host, c) in counts[start..start + self.hosts].iter_mut().enumerate() {
            if *c != 0 && host != me.index() {
                uncount(c, probe(host));
            }
        }
    }

    /// Hosts other than `me` the filter names for `addr`.
    #[cfg(test)]
    pub(crate) fn candidates(&self, me: HostId, addr: BlockAddr) -> Vec<usize> {
        let mut out = Vec::new();
        self.for_each_candidate(me, addr, |host| {
            out.push(host);
            0
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcache_types::FileId;
    use std::collections::HashSet;

    fn block(i: u32) -> BlockAddr {
        BlockAddr::new(FileId(i / 7), i % 7)
    }

    #[test]
    fn saturated_counters_still_name_every_holder() {
        // Two buckets for 1000 blocks per host: every counter saturates.
        let hosts = 3;
        let f = SharerFilter::new(hosts, 1);
        let mut held = HashSet::new();
        for i in 0..1000u32 {
            for h in 0..hosts {
                f.add(HostId(h as u16), block(i));
                held.insert((h, i));
            }
        }
        assert!(f.counts.borrow().iter().all(|&c| c == u8::MAX));
        // Drop most copies again: the saturated counters must not forget
        // the holders that remain.
        for i in 0..990u32 {
            for h in 0..hosts {
                f.sub(HostId(h as u16), block(i));
                held.remove(&(h, i));
            }
        }
        for i in 0..1000u32 {
            let cands = f.candidates(HostId(0), block(i));
            for h in 1..hosts {
                if held.contains(&(h, i)) {
                    assert!(cands.contains(&h), "holder {h} of block {i} missing");
                }
            }
        }
    }

    #[test]
    fn counts_follow_memberships_exactly_below_saturation() {
        let f = SharerFilter::new(4, 64);
        let a = block(11);
        f.add(HostId(2), a);
        f.add(HostId(2), a); // RAM and flash copy
        f.add(HostId(3), a);
        assert_eq!(f.candidates(HostId(0), a), [2, 3]);
        assert_eq!(f.candidates(HostId(2), a), [3], "the writer is skipped");
        // An invalidation that removed both of host 2's copies clears it.
        f.for_each_candidate(HostId(0), a, |h| if h == 2 { 2 } else { 0 });
        assert_eq!(f.candidates(HostId(0), a), [3]);
        f.sub(HostId(3), a);
        assert!(f.candidates(HostId(0), a).is_empty());
    }
}
