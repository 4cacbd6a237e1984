//! End-to-end integration tests asserting the paper's headline claims at
//! reduced scale: shapes, not absolute numbers, since dividing every size
//! by one factor keeps the size ratios that hit rates depend on.
//!
//! Each test runs complete simulations through the public API: model
//! generation → trace generation → simulation → report. These claims of
//! Figures 2, 4 and 6 are checked here only; every other claim lives in
//! the figure table (`fcache_bench::FIGURES`).

use fcache::{
    Architecture, Scenario, SimConfig, SimReport, Workbench, Workload, WorkloadSpec,
    WritebackPolicy,
};
use fcache_types::{ByteSize, Trace};

/// Shared scale for these tests: big enough for stable statistics, small
/// enough to keep the suite fast.
const SCALE: u64 = 2048;

fn bench() -> Workbench {
    Workbench::new(SCALE, 42)
}

/// Runs a paper-scale configuration against a pre-generated trace.
fn run(wb: &Workbench, cfg: &SimConfig, trace: &Trace) -> SimReport {
    Scenario::new(cfg.clone().scaled_down(wb.scale()), Workload::trace(trace))
        .run()
        .unwrap()
}

#[test]
fn flash_cache_improves_reads_dramatically_when_ws_fits() {
    // Figure 4's core claim: when the working set fits in flash, read
    // latency improves dramatically over a RAM-only system.
    let wb = bench();
    let spec = WorkloadSpec::baseline_60g();
    let trace = wb.make_trace(&spec);
    let no_flash = run(
        &wb,
        &SimConfig {
            flash_size: ByteSize::ZERO,
            ..SimConfig::baseline()
        },
        &trace,
    );
    let with_flash = run(&wb, &SimConfig::baseline(), &trace);
    assert!(
        with_flash.read_latency_us() * 2.0 < no_flash.read_latency_us(),
        "flash {:.0} µs should be far below no-flash {:.0} µs",
        with_flash.read_latency_us(),
        no_flash.read_latency_us()
    );
}

#[test]
fn flash_helps_even_when_working_set_exceeds_it() {
    // "even when the working set far exceeds the flash size, the flash
    // improves performance significantly" (§7.2).
    let wb = bench();
    let spec = WorkloadSpec {
        working_set: ByteSize::gib(320),
        seed: 320,
        ..WorkloadSpec::default()
    };
    let trace = wb.make_trace(&spec);
    let no_flash = run(
        &wb,
        &SimConfig {
            flash_size: ByteSize::ZERO,
            ..SimConfig::baseline()
        },
        &trace,
    );
    let with_flash = run(&wb, &SimConfig::baseline(), &trace);
    assert!(
        with_flash.read_latency_us() < 0.85 * no_flash.read_latency_us(),
        "flash {:.0} µs vs no-flash {:.0} µs",
        with_flash.read_latency_us(),
        no_flash.read_latency_us()
    );
}

#[test]
fn writeback_policy_interior_is_flat() {
    // Figure 2: "excepting policies that result in synchronous writes to
    // the filer (synchronous or none) the writeback policy does not
    // matter."
    let wb = bench();
    let trace = wb.make_trace(&WorkloadSpec::baseline_80g());
    let benign = [
        (
            WritebackPolicy::AsyncWriteThrough,
            WritebackPolicy::AsyncWriteThrough,
        ),
        (
            WritebackPolicy::Periodic(1),
            WritebackPolicy::AsyncWriteThrough,
        ),
        (WritebackPolicy::Periodic(1), WritebackPolicy::Periodic(5)),
        (WritebackPolicy::Periodic(30), WritebackPolicy::Periodic(30)),
        (
            WritebackPolicy::AsyncWriteThrough,
            WritebackPolicy::Periodic(15),
        ),
    ];
    let mut writes = Vec::new();
    for (ram_policy, flash_policy) in benign {
        let cfg = SimConfig {
            ram_policy,
            flash_policy,
            ..SimConfig::baseline()
        };
        let r = run(&wb, &cfg, &trace);
        writes.push(r.write_latency_us());
    }
    // All benign combinations write at RAM speed.
    for (i, w) in writes.iter().enumerate() {
        assert!(
            (*w - 0.4).abs() < 0.2,
            "benign combo {i} write latency {w} µs should be ≈0.4 µs"
        );
    }
}

#[test]
fn synchronous_write_through_to_filer_is_slow() {
    // The s/s corner of Figure 2 exposes the full filer round trip.
    let wb = bench();
    let trace = wb.make_trace(&WorkloadSpec::baseline_80g());
    let cfg = SimConfig {
        ram_policy: WritebackPolicy::WriteThrough,
        flash_policy: WritebackPolicy::WriteThrough,
        ..SimConfig::baseline()
    };
    let r = run(&wb, &cfg, &trace);
    assert!(
        r.write_latency_us() > 100.0,
        "s/s writes must expose filer latency, got {:.1} µs",
        r.write_latency_us()
    );
}

#[test]
fn none_policy_exposes_eviction_stalls() {
    // The n/n corner: "multiple threads doing evictions contend for the
    // network, convoy, and slow down" (§7.1).
    let wb = bench();
    let trace = wb.make_trace(&WorkloadSpec::baseline_80g());
    let cfg = SimConfig {
        ram_policy: WritebackPolicy::None,
        flash_policy: WritebackPolicy::None,
        ..SimConfig::baseline()
    };
    let r = run(&wb, &cfg, &trace);
    assert!(
        r.write_latency_us() > 2.0,
        "n/n writes must stall on evictions, got {:.2} µs",
        r.write_latency_us()
    );
    assert!(r.flash.dirty_evictions > 0);
}

#[test]
fn unified_wins_reads_when_ws_falls_out_of_flash() {
    // §7.1: at 80 GB the unified architecture's larger effective capacity
    // (72 GB vs 64 GB) improves read latency "by as much as 20%"; naive
    // and lookaside write at RAM speed while unified pays ~8/9 of the
    // flash write latency.
    let wb = bench();
    let trace = wb.make_trace(&WorkloadSpec::baseline_80g());
    let mut results = Vec::new();
    for arch in Architecture::ALL {
        let cfg = SimConfig {
            arch,
            ..SimConfig::baseline()
        };
        results.push((arch, run(&wb, &cfg, &trace)));
    }
    let read = |a: Architecture| {
        results
            .iter()
            .find(|(x, _)| *x == a)
            .map(|(_, r)| r.read_latency_us())
            .unwrap()
    };
    let write = |a: Architecture| {
        results
            .iter()
            .find(|(x, _)| *x == a)
            .map(|(_, r)| r.write_latency_us())
            .unwrap()
    };
    assert!(
        read(Architecture::Unified) < read(Architecture::Naive),
        "unified reads {:.0} µs must beat naive {:.0} µs",
        read(Architecture::Unified),
        read(Architecture::Naive)
    );
    // Naive and lookaside write at RAM speed.
    assert!((write(Architecture::Naive) - 0.4).abs() < 0.2);
    assert!((write(Architecture::Lookaside) - 0.4).abs() < 0.2);
    // Unified pays ~8/9 × 21 µs ≈ 18.7 µs.
    let u = write(Architecture::Unified);
    assert!(
        (u - 18.7).abs() < 3.0,
        "unified write {u:.1} µs should be ≈18.7 µs"
    );
}

#[test]
fn lookaside_flash_never_dirty() {
    let wb = bench();
    let trace = wb.make_trace(&WorkloadSpec::baseline_60g());
    let cfg = SimConfig {
        arch: Architecture::Lookaside,
        ..SimConfig::baseline()
    };
    let r = run(&wb, &cfg, &trace);
    assert_eq!(
        r.flash.dirty_evictions, 0,
        "lookaside flash must never hold dirty data"
    );
}

#[test]
fn tiny_ram_with_async_writeback_suffices() {
    // §7.5: "If we use the asynchronous write-through policy, a tiny
    // 256 KB is sufficient as a write buffer." At this scale the floor is
    // one 4 KB block of RAM.
    let wb = bench();
    let trace = wb.make_trace(&WorkloadSpec::baseline_60g());
    let full = SimConfig {
        ram_policy: WritebackPolicy::AsyncWriteThrough,
        ..SimConfig::baseline()
    };
    let tiny = SimConfig {
        ram_size: ByteSize::bytes_exact(4096 * SCALE), // one scaled block
        ram_policy: WritebackPolicy::AsyncWriteThrough,
        ..SimConfig::baseline()
    };
    let r_full = run(&wb, &full, &trace);
    let r_tiny = run(&wb, &tiny, &trace);
    // Writes stay cheap (well under flash latency)…
    assert!(
        r_tiny.write_latency_us() < 10.0,
        "tiny-RAM writes {:.2} µs",
        r_tiny.write_latency_us()
    );
    // …and reads are within ~35 % of the full-RAM configuration (the
    // paper reports "comparable" performance for out-of-RAM workloads).
    assert!(
        r_tiny.read_latency_us() < 1.35 * r_full.read_latency_us(),
        "tiny {:.0} µs vs full {:.0} µs",
        r_tiny.read_latency_us(),
        r_full.read_latency_us()
    );
}

#[test]
fn zero_ram_does_not_work_well() {
    // §7.5: "The no-RAM configuration does not work well" — every write
    // pays flash latency.
    let wb = bench();
    let trace = wb.make_trace(&WorkloadSpec::baseline_60g());
    let cfg = SimConfig {
        ram_size: ByteSize::ZERO,
        ..SimConfig::baseline()
    };
    let r = run(&wb, &cfg, &trace);
    assert!(
        r.write_latency_us() > 15.0,
        "no-RAM writes should pay flash latency, got {:.1} µs",
        r.write_latency_us()
    );
}
