//! Page-mapped flash translation layer (FTL) model.
//!
//! The paper's §8 names this as future work: "flash caching is a good
//! candidate for a custom flash translation layer \[FlashTier\] — exploring
//! approaches and algorithms as well as establishing satisfactory lifetime
//! for this application remains as future work." This module provides the
//! substrate for that exploration: a page-mapped FTL with erase-block
//! bookkeeping, greedy garbage collection, and write-amplification /
//! erase-count (lifetime) accounting.
//!
//! The simulator proper deliberately does **not** route I/O through this
//! model — §5: "We assume a flash translation layer but do not model it
//! directly." Instead, captured [`crate::IoLog`]s can be replayed through
//! an [`Ftl`] to measure what the paper's caching workloads would do to a
//! real device's write amplification and lifetime (see the `ftl_lifetime`
//! figure: `cargo bench --bench figures -- ftl_lifetime`).

use std::collections::HashMap;

/// Configuration of the modeled device geometry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FtlConfig {
    /// Logical device capacity in 4 KB pages.
    pub logical_pages: u64,
    /// Physical overprovisioning: physical = logical × (1 + op) / 1.
    /// Expressed in percent (consumer drives: ~7 %; enterprise: 28 %+).
    pub overprovision_pct: u32,
    /// Pages per erase block (typical: 64–256).
    pub pages_per_block: u32,
}

impl Default for FtlConfig {
    fn default() -> Self {
        Self {
            logical_pages: 1 << 20,
            overprovision_pct: 7,
            pages_per_block: 128,
        }
    }
}

impl FtlConfig {
    /// Number of physical erase blocks implied by the geometry.
    pub fn physical_blocks(&self) -> u64 {
        let physical_pages = self.logical_pages * (100 + u64::from(self.overprovision_pct)) / 100;
        physical_pages
            .div_ceil(u64::from(self.pages_per_block))
            .max(2)
    }
}

/// Lifetime / amplification counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FtlStats {
    /// Host (logical) page writes.
    pub host_writes: u64,
    /// Physical page programs (host + GC relocations).
    pub flash_programs: u64,
    /// Pages relocated by garbage collection.
    pub gc_relocations: u64,
    /// Erase operations performed.
    pub erases: u64,
}

impl FtlStats {
    /// Write amplification factor: physical programs per host write.
    pub fn write_amplification(&self) -> f64 {
        if self.host_writes == 0 {
            1.0
        } else {
            self.flash_programs as f64 / self.host_writes as f64
        }
    }

    /// Mean erase count per physical block (lifetime proxy).
    pub fn mean_erases_per_block(&self, physical_blocks: u64) -> f64 {
        self.erases as f64 / physical_blocks.max(1) as f64
    }
}

/// State of one erase block.
#[derive(Clone, Debug)]
struct EraseBlock {
    /// Physical page states: logical page mapped here, or `None` if the
    /// slot is invalid/free past the write pointer.
    slots: Vec<Option<u64>>,
    /// Next free slot index (block fills sequentially).
    write_ptr: u32,
    /// Live (valid) page count.
    live: u32,
    /// Erase count (wear).
    erases: u32,
}

impl EraseBlock {
    fn new(pages: u32) -> Self {
        Self {
            slots: vec![None; pages as usize],
            write_ptr: 0,
            live: 0,
            erases: 0,
        }
    }

    fn is_full(&self, pages: u32) -> bool {
        self.write_ptr >= pages
    }
}

/// Page-mapped FTL with greedy garbage collection.
///
/// # Examples
///
/// ```
/// use fcache_device::ftl::{Ftl, FtlConfig};
///
/// let mut ftl = Ftl::new(FtlConfig { logical_pages: 1024, ..FtlConfig::default() });
/// for lpn in 0..1024 {
///     ftl.write(lpn);
/// }
/// // Sequential fill: no GC needed yet, WA = 1.
/// assert!((ftl.stats().write_amplification() - 1.0).abs() < 1e-9);
/// ```
pub struct Ftl {
    cfg: FtlConfig,
    blocks: Vec<EraseBlock>,
    /// Logical page → (block index, slot index).
    map: HashMap<u64, (u32, u32)>,
    /// Block currently accepting host writes.
    active: u32,
    /// Block reserved for GC writes (separate frontier, as real FTLs do).
    gc_active: u32,
    free_blocks: Vec<u32>,
    stats: FtlStats,
}

impl Ftl {
    /// Creates a fresh (fully erased) device.
    ///
    /// # Panics
    ///
    /// Panics if the geometry yields fewer than four erase blocks.
    pub fn new(cfg: FtlConfig) -> Self {
        let n = cfg.physical_blocks();
        assert!(n >= 4, "FTL needs at least 4 erase blocks, got {n}");
        let blocks = (0..n)
            .map(|_| EraseBlock::new(cfg.pages_per_block))
            .collect();
        let mut free_blocks: Vec<u32> = (2..n as u32).rev().collect();
        let _ = &mut free_blocks;
        Self {
            cfg,
            blocks,
            map: HashMap::new(),
            active: 0,
            gc_active: 1,
            free_blocks,
            stats: FtlStats::default(),
        }
    }

    /// Device geometry.
    pub fn config(&self) -> FtlConfig {
        self.cfg
    }

    /// Counters so far.
    pub fn stats(&self) -> FtlStats {
        self.stats
    }

    /// Fraction of logical pages currently mapped.
    pub fn utilization(&self) -> f64 {
        self.map.len() as f64 / self.cfg.logical_pages as f64
    }

    /// Highest erase count across blocks (worst-case wear).
    pub fn max_erases(&self) -> u32 {
        self.blocks.iter().map(|b| b.erases).max().unwrap_or(0)
    }

    /// Services a host write of logical page `lpn` (wraps modulo capacity).
    pub fn write(&mut self, lpn: u64) {
        let lpn = lpn % self.cfg.logical_pages;
        self.stats.host_writes += 1;
        self.invalidate(lpn);
        self.program(lpn, false);
    }

    /// Services a host trim/discard of a logical page.
    pub fn trim(&mut self, lpn: u64) {
        let lpn = lpn % self.cfg.logical_pages;
        self.invalidate(lpn);
    }

    fn invalidate(&mut self, lpn: u64) {
        if let Some((b, s)) = self.map.remove(&lpn) {
            let blk = &mut self.blocks[b as usize];
            debug_assert_eq!(blk.slots[s as usize], Some(lpn));
            blk.slots[s as usize] = None;
            blk.live -= 1;
        }
    }

    /// Programs `lpn` into the appropriate frontier block.
    fn program(&mut self, lpn: u64, gc: bool) {
        let pages = self.cfg.pages_per_block;
        // Ensure the frontier has room, switching to a free block if not.
        let frontier = if gc { self.gc_active } else { self.active };
        let frontier = if self.blocks[frontier as usize].is_full(pages) {
            let fresh = self.take_free_block();
            if gc {
                self.gc_active = fresh;
            } else {
                self.active = fresh;
            }
            fresh
        } else {
            frontier
        };
        let blk = &mut self.blocks[frontier as usize];
        let slot = blk.write_ptr;
        blk.slots[slot as usize] = Some(lpn);
        blk.write_ptr += 1;
        blk.live += 1;
        self.map.insert(lpn, (frontier, slot));
        self.stats.flash_programs += 1;
    }

    /// Pops a free block, running garbage collection until one is
    /// available. Each collection nets `pages - live(victim)` free slots,
    /// so this terminates whenever utilization is below 100 % (enforced by
    /// the reclaimable-space assertion in [`Ftl::garbage_collect`]).
    fn take_free_block(&mut self) -> u32 {
        loop {
            if let Some(b) = self.free_blocks.pop() {
                return b;
            }
            self.garbage_collect();
        }
    }

    /// Greedy GC: pick the full block with the fewest live pages, buffer
    /// its live pages (the device reads them into controller RAM), erase
    /// it, then re-program the buffered pages via the GC frontier.
    ///
    /// Detaching the victim completely *before* any re-programming keeps
    /// the operation re-entrant: re-programming may fill the GC frontier
    /// and trigger a nested collection, which then sees only consistent
    /// blocks (the victim is already erased and back in the free pool).
    fn garbage_collect(&mut self) {
        let pages = self.cfg.pages_per_block;
        let victim = self
            .blocks
            .iter()
            .enumerate()
            .filter(|(i, b)| {
                let i = *i as u32;
                i != self.active && i != self.gc_active && b.is_full(pages)
            })
            .min_by_key(|(_, b)| b.live)
            .map(|(i, _)| i as u32)
            .expect("a full victim block must exist");
        assert!(
            self.blocks[victim as usize].live < pages,
            "GC victim has no reclaimable space; device over-utilized \
             (raise overprovisioning)"
        );

        // Buffer and detach all live pages.
        let buffered: Vec<u64> = self.blocks[victim as usize]
            .slots
            .iter()
            .flatten()
            .copied()
            .collect();
        for lpn in &buffered {
            let removed = self.map.remove(lpn);
            debug_assert!(matches!(removed, Some((b, _)) if b == victim));
        }
        {
            let blk = &mut self.blocks[victim as usize];
            for s in blk.slots.iter_mut() {
                *s = None;
            }
            blk.live = 0;
            blk.write_ptr = 0;
            blk.erases += 1;
        }
        self.stats.erases += 1;
        self.free_blocks.push(victim);

        // Re-program the survivors through the GC frontier.
        for lpn in buffered {
            self.stats.gc_relocations += 1;
            self.program(lpn, true);
        }
    }

    /// Verifies internal invariants; test support.
    ///
    /// # Panics
    ///
    /// Panics if mapping or live accounting is inconsistent.
    pub fn check_invariants(&self) {
        let mut live_total = 0u64;
        for (bi, b) in self.blocks.iter().enumerate() {
            let live = b.slots.iter().flatten().count() as u32;
            assert_eq!(live, b.live, "block {bi} live count mismatch");
            live_total += u64::from(live);
            for (si, slot) in b.slots.iter().enumerate() {
                if let Some(lpn) = slot {
                    assert_eq!(
                        self.map.get(lpn),
                        Some(&(bi as u32, si as u32)),
                        "map does not point back at block {bi} slot {si}"
                    );
                }
            }
        }
        assert_eq!(live_total as usize, self.map.len(), "live total mismatch");
        assert!(
            self.map.len() as u64 <= self.cfg.logical_pages,
            "over-mapped"
        );
    }
}

impl std::fmt::Debug for Ftl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ftl")
            .field("logical_pages", &self.cfg.logical_pages)
            .field("mapped", &self.map.len())
            .field("wa", &self.stats.write_amplification())
            .field("erases", &self.stats.erases)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn small(logical_pages: u64, op_pct: u32) -> Ftl {
        Ftl::new(FtlConfig {
            logical_pages,
            overprovision_pct: op_pct,
            pages_per_block: 32,
        })
    }

    #[test]
    fn sequential_fill_has_unit_wa() {
        let mut ftl = small(4096, 25);
        for lpn in 0..4096 {
            ftl.write(lpn);
        }
        assert_eq!(ftl.stats().host_writes, 4096);
        assert!((ftl.stats().write_amplification() - 1.0).abs() < 1e-9);
        assert_eq!(ftl.utilization(), 1.0);
        ftl.check_invariants();
    }

    #[test]
    fn overwrites_trigger_gc_and_wa_above_one() {
        let mut ftl = small(4096, 12);
        let mut rng = SmallRng::seed_from_u64(1);
        // Fill, then random-overwrite 4x the device.
        for lpn in 0..4096 {
            ftl.write(lpn);
        }
        for _ in 0..4 * 4096 {
            ftl.write(rng.gen_range(0..4096));
        }
        let wa = ftl.stats().write_amplification();
        assert!(wa > 1.2, "random overwrite must amplify, wa={wa}");
        assert!(ftl.stats().erases > 0);
        ftl.check_invariants();
    }

    #[test]
    fn more_overprovisioning_means_less_amplification() {
        let run = |op_pct| {
            let mut ftl = small(4096, op_pct);
            let mut rng = SmallRng::seed_from_u64(2);
            for lpn in 0..4096 {
                ftl.write(lpn);
            }
            for _ in 0..6 * 4096 {
                ftl.write(rng.gen_range(0..4096));
            }
            ftl.check_invariants();
            ftl.stats().write_amplification()
        };
        let tight = run(7);
        let roomy = run(50);
        assert!(
            roomy < tight,
            "more spare area must reduce WA: 7% → {tight:.2}, 50% → {roomy:.2}"
        );
    }

    #[test]
    fn skewed_writes_amplify_less_than_uniform() {
        // Cache-shaped (hot/cold) write traffic separates hot blocks into
        // frequently-rewritten erase blocks that GC finds nearly empty.
        let run = |hot_frac: f64| {
            let mut ftl = small(8192, 10);
            let mut rng = SmallRng::seed_from_u64(3);
            for lpn in 0..8192 {
                ftl.write(lpn);
            }
            for _ in 0..6 * 8192 {
                let lpn = if rng.gen_bool(hot_frac) {
                    rng.gen_range(0..8192 / 16) // hot 1/16
                } else {
                    rng.gen_range(0..8192)
                };
                ftl.write(lpn);
            }
            ftl.check_invariants();
            ftl.stats().write_amplification()
        };
        let skewed = run(0.9);
        let uniform = run(0.0);
        assert!(
            skewed < uniform,
            "skewed {skewed:.2} should beat uniform {uniform:.2}"
        );
    }

    #[test]
    fn trim_reduces_amplification() {
        // A cache that trims evicted blocks gives GC free space back —
        // FlashTier's central observation.
        let run = |trim: bool| {
            let mut ftl = small(4096, 10);
            let mut rng = SmallRng::seed_from_u64(4);
            for lpn in 0..4096 {
                ftl.write(lpn);
            }
            for i in 0..6 * 4096u64 {
                let lpn = rng.gen_range(0..4096);
                if trim && i % 4 == 0 {
                    ftl.trim(rng.gen_range(0..4096));
                }
                ftl.write(lpn);
            }
            ftl.check_invariants();
            ftl.stats().write_amplification()
        };
        let with_trim = run(true);
        let without = run(false);
        assert!(
            with_trim < without,
            "trim {with_trim:.2} should beat no-trim {without:.2}"
        );
    }

    #[test]
    fn lpn_wraps_modulo_capacity() {
        let mut ftl = small(128, 50);
        ftl.write(128); // wraps to 0
        ftl.write(0);
        assert_eq!(ftl.stats().host_writes, 2);
        assert_eq!(ftl.utilization(), 1.0 / 128.0);
        ftl.check_invariants();
    }

    #[test]
    #[should_panic(expected = "at least 4 erase blocks")]
    fn tiny_geometry_rejected() {
        let _ = Ftl::new(FtlConfig {
            logical_pages: 16,
            overprovision_pct: 0,
            pages_per_block: 32,
        });
    }

    mod properties {
        use super::small;
        use proptest::prelude::*;
        use rand::rngs::SmallRng;
        use rand::{Rng as _, SeedableRng as _};

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]
            #[test]
            fn invariants_hold_under_random_traffic(
                seed in any::<u64>(),
                ops in 100usize..800,
            ) {
                let mut ftl = small(1024, 15);
                let mut rng = SmallRng::seed_from_u64(seed);
                for _ in 0..ops {
                    if rng.gen_bool(0.9) {
                        ftl.write(rng.gen_range(0..2048));
                    } else {
                        ftl.trim(rng.gen_range(0..2048));
                    }
                }
                ftl.check_invariants();
                prop_assert!(ftl.stats().write_amplification() >= 1.0);
            }
        }
    }
}
