//! Thread-local size-class recycling for the executor's hot allocations.
//!
//! Task futures, task waker blocks and oneshot channel blocks are allocated
//! on every spawn and freed on completion, nearly always on the thread that
//! owns the simulation. Routing them through a per-thread free list keyed
//! by layout turns steady-state spawning into pointer pops: the set of
//! distinct layouts is the set of spawned future types, a small closed set
//! per program, so a linear scan over the classes beats hashing.

use std::alloc::Layout;
use std::cell::RefCell;
use std::ptr::NonNull;

/// Retention cap per layout class, in bytes; excess blocks return to the
/// global allocator so one allocation burst cannot pin memory forever.
/// Small classes therefore keep many blocks: a 100-host fleet cell parks
/// thousands of flush-worker daemons, and all their 40-byte oneshot blocks
/// are freed at once when the cell shuts down. Under a cap of a few
/// thousand blocks the excess would go back to the allocator, only for the
/// next cell to allocate it all again.
const PER_CLASS_BYTES: usize = 4 << 20;

/// Every class may keep at least this many blocks, however large.
const PER_CLASS_MIN: usize = 4096;

/// Cap on distinct pooled layouts; later layouts fall through to the
/// global allocator (never hit in practice).
const MAX_CLASSES: usize = 64;

thread_local! {
    static POOL: RefCell<Pool> = RefCell::new(Pool(Vec::with_capacity(MAX_CLASSES)));
}

/// A thread's retained blocks, by layout class.
struct Pool(Vec<(Layout, Vec<NonNull<u8>>)>);

impl Drop for Pool {
    /// At thread exit, returns every retained block to the global
    /// allocator, so a finished thread leaves nothing behind. Blocks freed
    /// later in the thread's teardown skip the pool (see [`pfree`]).
    fn drop(&mut self) {
        for (layout, blocks) in self.0.drain(..) {
            for block in blocks {
                // SAFETY: every pooled block came from the global
                // allocator with this class's layout (`palloc`) and is
                // owned by the pool alone.
                unsafe { std::alloc::dealloc(block.as_ptr(), layout) };
            }
        }
    }
}

/// Allocates a block of `layout`, reusing a previously freed block of the
/// same layout when one is pooled.
///
/// # Panics
///
/// Panics (via `handle_alloc_error`) on allocation failure. `layout` must
/// have non-zero size.
pub(crate) fn palloc(layout: Layout) -> NonNull<u8> {
    debug_assert!(layout.size() > 0);
    // `try_with`: a block may be requested or returned while the thread's
    // locals are being torn down; the global allocator serves it then.
    let reused = POOL
        .try_with(|p| {
            let classes = &mut p.borrow_mut().0;
            classes
                .iter_mut()
                .find(|(l, _)| *l == layout)
                .and_then(|(_, list)| list.pop())
        })
        .ok()
        .flatten();
    reused.unwrap_or_else(|| {
        // SAFETY: non-zero size asserted above.
        NonNull::new(unsafe { std::alloc::alloc(layout) })
            .unwrap_or_else(|| std::alloc::handle_alloc_error(layout))
    })
}

/// Returns a block previously obtained from [`palloc`] with the same
/// `layout`. Any thread may return a block (a task waker can die on a
/// foreign thread); it joins that thread's pool.
pub(crate) fn pfree(ptr: NonNull<u8>, layout: Layout) {
    let cap = PER_CLASS_MIN.max(PER_CLASS_BYTES / layout.size());
    let pooled = POOL
        .try_with(|p| {
            let classes = &mut p.borrow_mut().0;
            if let Some((_, list)) = classes.iter_mut().find(|(l, _)| *l == layout) {
                if list.len() < cap {
                    list.push(ptr);
                    return true;
                }
            } else if classes.len() < MAX_CLASSES {
                classes.push((layout, vec![ptr]));
                return true;
            }
            false
        })
        .unwrap_or(false);
    if !pooled {
        // SAFETY: `ptr` came from `palloc` with this exact layout.
        unsafe { std::alloc::dealloc(ptr.as_ptr(), layout) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_are_recycled_by_layout() {
        let a = Layout::from_size_align(128, 8).unwrap();
        let b = Layout::from_size_align(256, 8).unwrap();
        let p1 = palloc(a);
        pfree(p1, a);
        let p2 = palloc(a);
        assert_eq!(p1, p2, "same-layout block must be reused");
        let p3 = palloc(b);
        assert_ne!(p2.as_ptr(), p3.as_ptr());
        pfree(p2, a);
        pfree(p3, b);
    }

    fn pooled(layout: Layout) -> usize {
        POOL.with(|p| {
            p.borrow()
                .0
                .iter()
                .find(|(l, _)| *l == layout)
                .map_or(0, |(_, list)| list.len())
        })
    }

    #[test]
    fn small_classes_keep_a_burst_larger_than_the_block_floor() {
        let small = Layout::from_size_align(40, 8).unwrap();
        let blocks: Vec<_> = (0..10_000).map(|_| palloc(small)).collect();
        for &b in &blocks {
            pfree(b, small);
        }
        assert_eq!(pooled(small), 10_000, "a 400 KB burst fits the byte cap");
        let large = Layout::from_size_align(2048, 8).unwrap();
        let blocks: Vec<_> = (0..PER_CLASS_MIN + 10).map(|_| palloc(large)).collect();
        for &b in &blocks {
            pfree(b, large);
        }
        assert_eq!(pooled(large), PER_CLASS_MIN, "large classes keep the floor");
    }

    #[test]
    fn a_thread_returns_its_pool_at_exit() {
        let layout = Layout::from_size_align(96, 16).unwrap();
        let freed = std::thread::spawn(move || {
            let blocks: Vec<_> = (0..8).map(|_| palloc(layout)).collect();
            for &b in &blocks {
                pfree(b, layout);
            }
            assert_eq!(pooled(layout), 8);
            // A block freed after the pool is gone goes to the allocator.
            struct Late(NonNull<u8>, Layout);
            impl Drop for Late {
                fn drop(&mut self) {
                    pfree(self.0, self.1);
                }
            }
            thread_local!(static LATE: RefCell<Option<Late>> = const { RefCell::new(None) });
            LATE.with(|l| *l.borrow_mut() = Some(Late(palloc(layout), layout)));
        })
        .join();
        assert!(freed.is_ok());
    }

    #[test]
    fn distinct_layouts_do_not_mix() {
        let a = Layout::from_size_align(64, 8).unwrap();
        let b = Layout::from_size_align(64, 64).unwrap();
        let p1 = palloc(a);
        pfree(p1, a);
        // Alignment differs: must not hand the 8-aligned block out.
        let p2 = palloc(b);
        assert_eq!(p2.as_ptr() as usize % 64, 0);
        pfree(p2, b);
    }
}
