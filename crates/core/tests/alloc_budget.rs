//! Heap allocations per simulated op stay within budget (PERF.md
//! invariant 2): after the thread's first run, a multi-host, sharded,
//! hedged, SSD-timed run allocates almost nothing per op, and a one-host
//! flat run stays at its per-run set-up cost.
//!
//! The counting allocator counts only allocations made on a thread that
//! switched counting on, so the test harness's own threads never leak
//! into the numbers. This file is its own test binary with one test, so
//! no other test's allocator traffic exists at all.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fcache::{FlashTiming, Scenario, SimConfig, Workbench, Workload, WorkloadSpec};
use fcache_des::SimTime;
use fcache_device::SsdConfig;
use fcache_types::{FaultPlan, Trace};

thread_local! {
    /// Allocations on this thread while counting is on; `None` when off.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

/// The system allocator, counting the calls of threads that asked.
struct PerThreadCount;

fn note() {
    let _ = COUNT.try_with(|c| {
        if let Some(n) = c.get() {
            c.set(Some(n + 1));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`; the
// counter is a `const`-initialized thread-local without a destructor, so
// touching it never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for PerThreadCount {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's `layout` guarantees are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: PerThreadCount = PerThreadCount;

/// Allocations per trace op of one run of `cfg` over `trace` on this
/// thread.
fn allocs_per_op(cfg: &SimConfig, trace: &Trace) -> f64 {
    let scenario = Scenario::new(cfg.clone(), Workload::trace(trace));
    COUNT.with(|c| c.set(Some(0)));
    let report = scenario.run();
    let allocs = COUNT.with(|c| c.replace(None)).expect("counting was on");
    report.expect("run succeeds");
    allocs as f64 / trace.ops.len() as f64
}

/// Allocations per op of a warm run (the thread's pools filled by a
/// first run) on the 8-host sharded, hedged, SSD-timed scenario. Measured
/// 0.12 when this budget was set; 5.1 before the multi-host paths
/// stopped allocating per op.
const MULTI_HOST_BUDGET: f64 = 0.25;

/// Allocations per op of a one-host flat run, which pays little more than
/// its set-up. Measured 0.011 when this budget was set.
const ONE_HOST_BUDGET: f64 = 0.02;

#[test]
fn warm_runs_stay_within_the_allocation_budget() {
    let wb = Workbench::new(1024, 7);
    let multi = SimConfig {
        shards: 2,
        replicas: 2,
        hedge: Some(SimTime::from_micros(200)),
        flash_timing: FlashTiming::Ssd(SsdConfig::auto()),
        fault_plan: FaultPlan::parse("shard1:outage@40s-60s").expect("plan parses"),
        ..SimConfig::baseline()
    }
    .scaled_down(1024);
    let trace = wb.make_trace(&WorkloadSpec {
        write_fraction: 0.5,
        hosts: 8,
        ..WorkloadSpec::default()
    });
    let cold = allocs_per_op(&multi, &trace);
    let warm = allocs_per_op(&multi, &trace);
    assert!(
        warm <= MULTI_HOST_BUDGET,
        "8-host warm run: {warm:.3} allocs/op (cold {cold:.3}), budget {MULTI_HOST_BUDGET}"
    );

    let one = SimConfig::baseline().scaled_down(1024);
    let trace = wb.make_trace(&WorkloadSpec::default());
    let flat = allocs_per_op(&one, &trace);
    assert!(
        flat <= ONE_HOST_BUDGET,
        "one-host flat run: {flat:.3} allocs/op, budget {ONE_HOST_BUDGET}"
    );
}
