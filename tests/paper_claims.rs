//! End-to-end integration tests asserting the paper's headline claims at
//! reduced scale (shape, not absolute numbers — see DESIGN.md §4).
//!
//! Each test runs complete simulations through the public API: model
//! generation → trace generation → simulation → report.

use fcache::{
    Architecture, Scenario, SimConfig, SimReport, Workbench, Workload, WorkloadSpec,
    WritebackPolicy,
};
use fcache_device::FlashModel;
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

#[test]
fn persistence_cost_invisible_benefit_large() {
    // §7.8: doubled flash write latency is "invisible to the application";
    // skipping warmup (crash at start) costs a lot.
    let wb = bench();
    let spec = WorkloadSpec::baseline_60g();
    let trace = wb.make_trace(&spec);

    let plain = run(&wb, &SimConfig::baseline(), &trace);
    let persistent_cfg = SimConfig {
        flash_model: FlashModel::default().with_persistence(true),
        ..SimConfig::baseline()
    };
    let persistent = run(&wb, &persistent_cfg, &trace);
    assert!(
        (persistent.write_latency_us() - plain.write_latency_us()).abs() < 0.5,
        "persistence must be invisible: {:.2} vs {:.2}",
        persistent.write_latency_us(),
        plain.write_latency_us()
    );
    assert!(
        persistent.read_latency_us() < 1.1 * plain.read_latency_us(),
        "persistent reads {:.0} vs plain {:.0}",
        persistent.read_latency_us(),
        plain.read_latency_us()
    );

    // Crash at start (not warmed): markedly worse reads.
    let cold_spec = WorkloadSpec {
        skip_warmup: true,
        ..spec
    };
    let cold = wb.run(&SimConfig::baseline(), &cold_spec).unwrap();
    assert!(
        cold.read_latency_us() > 1.15 * plain.read_latency_us(),
        "cold {:.0} µs vs warmed {:.0} µs",
        cold.read_latency_us(),
        plain.read_latency_us()
    );
}

#[test]
fn shared_working_set_causes_heavy_invalidation_with_flash() {
    // §7.9: "for workloads that fit in flash, the percentage of writes
    // requiring invalidation is high" compared to RAM-only caches.
    let wb = bench();
    let spec = WorkloadSpec {
        working_set: ByteSize::gib(60),
        hosts: 2,
        ws_count: 1,
        ..WorkloadSpec::default()
    };
    let trace = wb.make_trace(&spec);
    let with_flash = run(&wb, &SimConfig::baseline(), &trace);
    let no_flash = run(
        &wb,
        &SimConfig {
            flash_size: ByteSize::ZERO,
            ..SimConfig::baseline()
        },
        &trace,
    );
    assert!(
        with_flash.invalidation_pct() > 1.5 * no_flash.invalidation_pct(),
        "flash {:.0}% vs no-flash {:.0}%",
        with_flash.invalidation_pct(),
        no_flash.invalidation_pct()
    );
    assert!(with_flash.invalidation_pct() > 40.0);
}

#[test]
fn flash_timing_scales_read_latency_linearly() {
    // §7.7 / Figure 9: "application latency scales linearly with the flash
    // latency". Compare latency deltas for three flash read times.
    let wb = bench();
    let trace = wb.make_trace(&WorkloadSpec::baseline_60g());
    let mut lat = Vec::new();
    for us in [0u64, 44, 88] {
        let cfg = SimConfig {
            flash_model: FlashModel::with_read_time_proportional(fcache_des::SimTime::from_micros(
                us,
            )),
            ..SimConfig::baseline()
        };
        lat.push(run(&wb, &cfg, &trace).read_latency_us());
    }
    assert!(
        lat[0] < lat[1] && lat[1] < lat[2],
        "latency must increase: {lat:?}"
    );
    // Midpoint within 15 % of the linear interpolation.
    let mid = (lat[0] + lat[2]) / 2.0;
    assert!(
        (lat[1] - mid).abs() / mid < 0.15,
        "nonlinear scaling: {lat:?} (midpoint {mid:.0})"
    );
}

#[test]
fn prefetch_rate_bounds_latency() {
    // Figure 5: the filer prefetch (fast-read) rate dominates read latency.
    let wb = bench();
    let trace = wb.make_trace(&WorkloadSpec::baseline_80g());
    let mut lat = Vec::new();
    for rate in [0.80, 0.95] {
        let mut cfg = SimConfig::baseline();
        cfg.filer.fast_read_rate = rate;
        lat.push(run(&wb, &cfg, &trace).read_latency_us());
    }
    assert!(
        lat[0] > 1.3 * lat[1],
        "80% prefetch ({:.0} µs) must be far worse than 95% ({:.0} µs)",
        lat[0],
        lat[1]
    );
}

#[test]
fn reports_are_deterministic() {
    let wb = bench();
    let spec = WorkloadSpec::baseline_60g();
    let a = wb.run(&SimConfig::baseline(), &spec).unwrap();
    let b = wb.run(&SimConfig::baseline(), &spec).unwrap();
    assert_eq!(a.metrics, b.metrics);
    assert_eq!(a.end_time, b.end_time);
    assert_eq!(a.ram, b.ram);
    assert_eq!(a.flash, b.flash);
    assert_eq!(a.filer, b.filer);
}
