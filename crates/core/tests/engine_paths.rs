//! Analytic path tests: tiny hand-built traces whose latencies can be
//! computed exactly from the Table 1 timing model, verifying every cache
//! path charges precisely the right time.
//!
//! Key Table 1 numbers used below (all per 4 KB block):
//! RAM 0.4 µs, flash read 88 µs, flash write 21 µs, net base 8.2 µs,
//! net payload 4096 B = 32.768 µs, filer fast read/write 92 µs.

use fcache::{run_trace, Architecture, SimConfig, WritebackPolicy};
use fcache_device::FlashModel;
use fcache_types::{ByteSize, FileId, HostId, OpKind, ThreadId, Trace, TraceMeta, TraceOp};

fn op(host: u16, thread: u16, kind: OpKind, file: u32, start: u32, n: u32) -> TraceOp {
    TraceOp::new(
        HostId(host),
        ThreadId(thread),
        kind,
        FileId(file),
        start,
        n,
        false,
    )
}

fn trace_of(ops: Vec<TraceOp>) -> Trace {
    let hosts = ops.iter().map(|o| o.host().0).max().unwrap_or(0) + 1;
    let threads = ops.iter().map(|o| o.thread().0).max().unwrap_or(0) + 1;
    Trace {
        meta: TraceMeta {
            hosts,
            threads_per_host: threads,
            ..TraceMeta::default()
        },
        ops,
    }
}

/// Baseline test configuration: deterministic filer (always fast), naive
/// architecture, small caches, periodic policies that never fire within
/// the test window.
fn cfg() -> SimConfig {
    SimConfig {
        ram_size: ByteSize::bytes_exact(16 * 4096),
        flash_size: ByteSize::bytes_exact(64 * 4096),
        ram_policy: WritebackPolicy::Periodic(3600),
        flash_policy: WritebackPolicy::Periodic(3600),
        prefetch: 1.0,
        ..SimConfig::default()
    }
}

const US: f64 = 1.0;

fn close(got: f64, want: f64, tol: f64, what: &str) {
    assert!(
        (got - want).abs() <= tol,
        "{what}: got {got} µs, want {want} µs"
    );
}

#[test]
fn cold_read_pays_net_filer_net_flash_ram() {
    // 8.2 (cmd) + 92 (filer fast) + 40.968 (data) + 21 (flash populate)
    // + 0.4 (ram fill) = 162.568 µs.
    let r = run_trace(&cfg(), &trace_of(vec![op(0, 0, OpKind::Read, 1, 0, 1)])).unwrap();
    close(r.read_latency_us(), 162.568, 0.01 * US, "cold read");
    assert_eq!(r.filer.fast_reads, 1);
    assert_eq!(r.net.packets, 2);
}

#[test]
fn warm_read_is_ram_speed() {
    let r = run_trace(
        &cfg(),
        &trace_of(vec![
            op(0, 0, OpKind::Read, 1, 0, 1),
            op(0, 0, OpKind::Read, 1, 0, 1),
        ]),
    )
    .unwrap();
    // Two reads: 162.568 + 0.4; per-block mean = 81.484.
    close(
        r.read_latency_us(),
        (162.568 + 0.4) / 2.0,
        0.01,
        "cold+warm mean",
    );
    assert_eq!(r.ram.hits, 1);
}

#[test]
fn flash_hit_read_pays_flash_read_plus_ram_fill() {
    // Fill RAM with 16 other blocks to evict block (1,0) from RAM while it
    // stays in the 64-block flash; then re-read it.
    let mut ops = vec![op(0, 0, OpKind::Read, 1, 0, 1)];
    ops.push(op(0, 0, OpKind::Read, 2, 0, 16)); // evicts f1+0 from RAM
    ops.push(op(0, 0, OpKind::Read, 1, 0, 1)); // flash hit
    let r = run_trace(&cfg(), &trace_of(ops)).unwrap();
    assert_eq!(r.flash.hits, 1, "third read must hit flash");
    // Last op alone: 88 (flash read) + 0.4 (ram fill) = 88.4. Check the
    // aggregate: total = 162.568 + (8.2 + 16*92 + 8.2 + 16*32.768*1e-3... )
    // — instead verify per-op accounting via the flash-hit count and that
    // mean read latency sits between the flash and filer costs.
    assert!(r.read_latency_us() > 80.0 && r.read_latency_us() < 170.0);
}

#[test]
fn multi_block_read_uses_one_round_trip() {
    // An 8-block cold read: 8.2 + 8×92 + (8.2 + 8×32.768) + 8×21 + 8×0.4.
    let r = run_trace(&cfg(), &trace_of(vec![op(0, 0, OpKind::Read, 1, 0, 8)])).unwrap();
    let want_total = 8.2 + 8.0 * 92.0 + 8.2 + 8.0 * 32.768 + 8.0 * 21.0 + 8.0 * 0.4;
    close(
        r.metrics.read_latency.as_micros_f64(),
        want_total,
        0.01,
        "8-block cold read",
    );
    assert_eq!(
        r.net.packets, 2,
        "one packet each direction per I/O request"
    );
}

#[test]
fn write_with_periodic_policy_is_ram_speed() {
    let r = run_trace(&cfg(), &trace_of(vec![op(0, 0, OpKind::Write, 1, 0, 1)])).unwrap();
    close(r.write_latency_us(), 0.4, 0.001, "buffered write");
    assert_eq!(r.filer.writes, 0, "no writeback before the syncer fires");
}

#[test]
fn write_through_both_tiers_blocks_to_filer() {
    // s/s: 0.4 + 21 + 40.968 + 92 + 8.2 = 162.568 µs.
    let c = SimConfig {
        ram_policy: WritebackPolicy::WriteThrough,
        flash_policy: WritebackPolicy::WriteThrough,
        ..cfg()
    };
    let r = run_trace(&c, &trace_of(vec![op(0, 0, OpKind::Write, 1, 0, 1)])).unwrap();
    close(r.write_latency_us(), 162.568, 0.01, "s/s write");
    assert_eq!(r.filer.writes, 1);
}

#[test]
fn write_through_ram_only_blocks_to_flash() {
    // s/p: 0.4 + 21 = 21.4 µs; flash holds the dirty block.
    let c = SimConfig {
        ram_policy: WritebackPolicy::WriteThrough,
        ..cfg()
    };
    let r = run_trace(&c, &trace_of(vec![op(0, 0, OpKind::Write, 1, 0, 1)])).unwrap();
    close(r.write_latency_us(), 21.4, 0.01, "s/periodic write");
    assert_eq!(r.filer.writes, 0);
}

#[test]
fn async_write_through_does_not_block_app() {
    // a/a: app sees 0.4 µs; the flush happens in the background.
    let c = SimConfig {
        ram_policy: WritebackPolicy::AsyncWriteThrough,
        flash_policy: WritebackPolicy::AsyncWriteThrough,
        ..cfg()
    };
    let r = run_trace(&c, &trace_of(vec![op(0, 0, OpKind::Write, 1, 0, 1)])).unwrap();
    close(r.write_latency_us(), 0.4, 0.001, "async write");
    assert_eq!(r.filer.writes, 1, "background flush must reach the filer");
}

#[test]
fn lookaside_write_through_goes_straight_to_filer() {
    // Lookaside s: 0.4 + 40.968 + 92 + 8.2 (filer leg) + 21 (flash update)
    // = 162.568 µs; flash never dirty.
    let c = SimConfig {
        arch: Architecture::Lookaside,
        ram_policy: WritebackPolicy::WriteThrough,
        ..cfg()
    };
    let r = run_trace(&c, &trace_of(vec![op(0, 0, OpKind::Write, 1, 0, 1)])).unwrap();
    close(r.write_latency_us(), 162.568, 0.01, "lookaside s write");
    assert_eq!(r.filer.writes, 1);
    assert_eq!(r.flash.dirty_evictions, 0);
}

#[test]
fn periodic_syncer_flushes_after_period() {
    // p1 RAM / p1 flash: write at t≈0; the RAM syncer fires at t=1 s moving
    // the block to flash; the flash syncer's t=2 s tick moves it to the
    // filer. `min_runtime` keeps the clock alive past the last app op.
    let c = SimConfig {
        ram_policy: WritebackPolicy::Periodic(1),
        flash_policy: WritebackPolicy::Periodic(1),
        min_runtime: Some(fcache_des::SimTime::from_millis(2500)),
        ..cfg()
    };
    let r = run_trace(&c, &trace_of(vec![op(0, 0, OpKind::Write, 1, 0, 1)])).unwrap();
    assert_eq!(r.filer.writes, 1, "syncer chain must reach the filer");
    assert!(r.end_time.as_secs_f64() >= 2.5, "min_runtime honored");
    close(r.write_latency_us(), 0.4, 0.001, "app never blocked");
}

#[test]
fn syncer_does_not_flush_before_its_period() {
    let c = SimConfig {
        ram_policy: WritebackPolicy::Periodic(5),
        flash_policy: WritebackPolicy::Periodic(5),
        min_runtime: Some(fcache_des::SimTime::from_millis(4500)),
        ..cfg()
    };
    let r = run_trace(&c, &trace_of(vec![op(0, 0, OpKind::Write, 1, 0, 1)])).unwrap();
    // At t=4.5 s the p5 RAM syncer has not fired yet.
    assert_eq!(r.filer.writes, 0);
}

#[test]
fn none_policy_evicts_synchronously() {
    // Flash of 4 blocks, RAM of 1 block, both policy none. Writing 5
    // distinct blocks forces dirty evictions all the way to the filer.
    let c = SimConfig {
        ram_size: ByteSize::bytes_exact(4096),
        flash_size: ByteSize::bytes_exact(4 * 4096),
        ram_policy: WritebackPolicy::None,
        flash_policy: WritebackPolicy::None,
        ..cfg()
    };
    let ops = (0..6).map(|i| op(0, 0, OpKind::Write, 1, i, 1)).collect();
    let r = run_trace(&c, &trace_of(ops)).unwrap();
    assert!(
        r.flash.dirty_evictions >= 1,
        "flash must evict dirty blocks"
    );
    assert!(r.filer.writes >= 1, "dirty evictions must reach the filer");
    // Later writes are far slower than RAM speed because of the eviction
    // writeback convoy.
    assert!(r.write_latency_us() > 20.0, "got {}", r.write_latency_us());
}

#[test]
fn no_flash_configuration_reads_from_filer() {
    let c = SimConfig {
        flash_size: ByteSize::ZERO,
        ..cfg()
    };
    let r = run_trace(&c, &trace_of(vec![op(0, 0, OpKind::Read, 1, 0, 1)])).unwrap();
    // 8.2 + 92 + 40.968 + 0.4 = 141.568 µs (no flash populate).
    close(r.read_latency_us(), 141.568, 0.01, "no-flash cold read");
    assert_eq!(r.flash.lookups(), 0);
}

#[test]
fn no_ram_configuration_uses_flash_directly() {
    let c = SimConfig {
        ram_size: ByteSize::ZERO,
        ..cfg()
    };
    let t = trace_of(vec![
        op(0, 0, OpKind::Read, 1, 0, 1),
        op(0, 0, OpKind::Read, 1, 0, 1),
        op(0, 0, OpKind::Write, 1, 0, 1),
    ]);
    let r = run_trace(&c, &t).unwrap();
    assert_eq!(r.ram.lookups(), 0);
    assert_eq!(r.flash.hits, 1, "second read hits flash");
    // Write pays the flash write latency (21 µs).
    close(r.write_latency_us(), 21.0, 0.01, "no-RAM write");
}

#[test]
fn unified_read_hits_pay_frame_medium_latency() {
    // Unified with 0 RAM frames and 8 flash frames: every hit is a flash
    // hit at 88 µs + nothing else.
    let c = SimConfig {
        arch: Architecture::Unified,
        ram_size: ByteSize::ZERO,
        flash_size: ByteSize::bytes_exact(8 * 4096),
        ..cfg()
    };
    let t = trace_of(vec![
        op(0, 0, OpKind::Read, 1, 0, 1),
        op(0, 0, OpKind::Read, 1, 0, 1),
    ]);
    let r = run_trace(&c, &t).unwrap();
    assert_eq!(r.unified.hits, 1);
    // Cold: 8.2 + 92 + 40.968 + 21 (flash frame fill) = 162.168;
    // warm: 88. Mean = 125.084.
    close(
        r.read_latency_us(),
        (162.168 + 88.0) / 2.0,
        0.01,
        "unified reads",
    );
}

#[test]
fn unified_write_cost_tracks_frame_ratio() {
    // 100 RAM frames : 800 flash frames; 900 distinct block writes exactly
    // fill the cache with no evictions. 1/9 of placements land in RAM →
    // mean write cost = (100×0.4 + 800×21)/900 ≈ 18.7 µs (the §7.1 "8/9 of
    // the 21 µs flash latency" effect).
    let c = SimConfig {
        arch: Architecture::Unified,
        ram_size: ByteSize::bytes_exact(100 * 4096),
        flash_size: ByteSize::bytes_exact(800 * 4096),
        ..cfg()
    };
    let n = 900u32;
    let ops = (0..n)
        .map(|i| op(0, 0, OpKind::Write, 1 + (i % 64), i / 64, 1))
        .collect();
    let r = run_trace(&c, &trace_of(ops)).unwrap();
    assert_eq!(r.unified.insertions, 900);
    assert_eq!(r.unified.evictions(), 0, "no evictions when the cache fits");
    let expect = (100.0 * 0.4 + 800.0 * 21.0) / 900.0;
    close(r.write_latency_us(), expect, 0.1, "unified write mean");
}

#[test]
fn two_hosts_invalidate_each_other() {
    // Per-thread op lists run concurrently, so ordering across hosts is
    // established with delay ops (cold reads of unrelated files, ≈162 µs
    // each). Host 0 caches f1+0 at ≈162 µs; host 1 writes it at ≈488 µs
    // (after three delay reads); host 0 re-reads it at ≈975 µs.
    let c = cfg();
    let mut ops = vec![op(0, 0, OpKind::Read, 1, 0, 1)];
    for i in 0..5 {
        ops.push(op(0, 0, OpKind::Read, 8, i * 2, 1)); // host 0 delay
    }
    ops.push(op(0, 0, OpKind::Read, 1, 0, 1)); // host 0 re-read
    for i in 0..3 {
        ops.push(op(1, 0, OpKind::Read, 9, i * 2, 1)); // host 1 delay
    }
    ops.push(op(1, 0, OpKind::Write, 1, 0, 1)); // host 1 conflicting write
    let r = run_trace(&c, &trace_of(ops)).unwrap();
    assert_eq!(r.metrics.tracked_writes, 1);
    assert_eq!(r.metrics.writes_invalidating, 1);
    assert_eq!(r.invalidation_pct(), 100.0);
    // Host 0's re-read of f1+0 missed (copy invalidated): filer served
    // 1 + 5 (host 0) + 3 (host 1) + 1 (re-read) block reads.
    assert_eq!(r.filer.fast_reads + r.filer.slow_reads, 10);
}

#[test]
fn single_host_never_invalidates() {
    let t = trace_of(vec![
        op(0, 0, OpKind::Read, 1, 0, 1),
        op(0, 0, OpKind::Write, 1, 0, 1),
    ]);
    let r = run_trace(&cfg(), &t).unwrap();
    assert_eq!(r.metrics.writes_invalidating, 0);
    assert_eq!(r.invalidation_pct(), 0.0);
}

#[test]
fn warmup_ops_are_simulated_but_not_measured() {
    let mut warm = op(0, 0, OpKind::Read, 1, 0, 1);
    warm.set_warmup(true);
    let t = trace_of(vec![warm, op(0, 0, OpKind::Read, 1, 0, 1)]);
    let r = run_trace(&cfg(), &t).unwrap();
    // Only the measured op is counted, and it hits RAM (the warmup op
    // filled the caches).
    assert_eq!(r.metrics.read_ops, 1);
    close(r.read_latency_us(), 0.4, 0.001, "measured op is a RAM hit");
    assert_eq!(r.ram.hits, 1);
    assert_eq!(r.ram.misses, 0, "warmup miss must not be counted");
}

#[test]
fn threads_interleave_on_the_segment() {
    // Two threads issue cold 1-block reads concurrently; the shared
    // half-duplex segment serializes their packets, so the run finishes
    // later than one read but sooner than two sequential reads.
    let t = trace_of(vec![
        op(0, 0, OpKind::Read, 1, 0, 1),
        op(0, 1, OpKind::Read, 2, 0, 1),
    ]);
    let r = run_trace(&cfg(), &t).unwrap();
    let one = 162.568;
    assert!(r.end_time.as_micros_f64() > one);
    assert!(r.end_time.as_micros_f64() < 2.0 * one);
}

#[test]
fn persistence_doubles_flash_write_cost() {
    let mut c = SimConfig {
        ram_policy: WritebackPolicy::WriteThrough,
        ..cfg()
    };
    c.flash_model = FlashModel::default().with_persistence(true);
    let r = run_trace(&c, &trace_of(vec![op(0, 0, OpKind::Write, 1, 0, 1)])).unwrap();
    // 0.4 + 2×21 = 42.4 µs.
    close(r.write_latency_us(), 42.4, 0.01, "persistent flash write");
}

#[test]
fn deterministic_runs() {
    let mk = || {
        let ops = (0..200u32)
            .map(|i| {
                op(
                    0,
                    (i % 4) as u16,
                    if i % 3 == 0 {
                        OpKind::Write
                    } else {
                        OpKind::Read
                    },
                    1 + i % 7,
                    (i * 13) % 50,
                    1 + i % 3,
                )
            })
            .collect();
        run_trace(&cfg(), &trace_of(ops)).unwrap()
    };
    let a = mk();
    let b = mk();
    assert_eq!(a.metrics, b.metrics);
    assert_eq!(a.end_time, b.end_time);
    assert_eq!(a.events, b.events);
    assert_eq!(a.ram, b.ram);
    assert_eq!(a.flash, b.flash);
}

#[test]
fn iolog_captures_flash_traffic() {
    let c = SimConfig {
        log_flash_io: true,
        ..cfg()
    };
    let t = trace_of(vec![op(0, 0, OpKind::Read, 1, 0, 4)]);
    let r = run_trace(&c, &t).unwrap();
    let log = r.flash_iolog.expect("logging enabled");
    // Populate-on-read wrote 4 blocks to flash.
    assert_eq!(log.len(), 4);
}

#[test]
fn populate_on_read_off_skips_flash_fill() {
    let c = SimConfig {
        populate_flash_on_read: false,
        ..cfg()
    };
    let t = trace_of(vec![
        op(0, 0, OpKind::Read, 1, 0, 1),
        op(0, 0, OpKind::Read, 1, 0, 1),
    ]);
    let r = run_trace(&c, &t).unwrap();
    // Cold read: 8.2 + 92 + 40.968 + 0.4 = 141.568 (no 21 µs flash write);
    // second read hits RAM.
    close(
        r.metrics.read_latency.as_micros_f64(),
        141.568 + 0.4,
        0.01,
        "reads without flash populate",
    );
    assert_eq!(r.flash.insertions, 0);
}

#[test]
fn flash_read_charge_on_writeback_is_configurable() {
    // Force a flash-sourced writeback on an app path: a one-block flash
    // with `s` RAM policy and `n` flash policy. The second write evicts
    // the first (dirty) block, paying the flash read when charged.
    let base = SimConfig {
        ram_size: ByteSize::bytes_exact(4096),
        flash_size: ByteSize::bytes_exact(4096),
        ram_policy: WritebackPolicy::WriteThrough,
        flash_policy: WritebackPolicy::None,
        ..cfg()
    };
    let t = || {
        trace_of(vec![
            op(0, 0, OpKind::Write, 1, 0, 1),
            op(0, 0, OpKind::Write, 1, 1, 1),
        ])
    };
    let charged = run_trace(&base, &t()).unwrap();
    let free = run_trace(
        &SimConfig {
            charge_flash_read_on_writeback: false,
            ..base
        },
        &t(),
    )
    .unwrap();
    assert_eq!(charged.filer.writes, 1);
    assert_eq!(free.filer.writes, 1);
    // Charged second write: 0.4 + 21 + 88 (flash read) + 40.968 + 92 + 8.2;
    // free second write lacks the 88 µs. Per-block mean differs by 44 µs.
    let delta = charged.write_latency_us() - free.write_latency_us();
    close(delta, 44.0, 0.1, "flash read charge on writeback");
}

#[test]
fn inclusive_promotion_keeps_ram_resident_blocks_in_flash() {
    // Flash of 4 blocks, RAM of 2. Block A is kept hot in RAM while other
    // blocks stream through flash. With inclusive promotion the streaming
    // cannot evict A from flash.
    let mk = |inclusive: bool| {
        let c = SimConfig {
            ram_size: ByteSize::bytes_exact(2 * 4096),
            flash_size: ByteSize::bytes_exact(4 * 4096),
            inclusive_promotion: inclusive,
            ..cfg()
        };
        let mut ops = vec![op(0, 0, OpKind::Read, 1, 0, 1)]; // A
        for i in 0..6 {
            ops.push(op(0, 0, OpKind::Read, 2, i, 1)); // stream
            ops.push(op(0, 0, OpKind::Read, 1, 0, 1)); // touch A in RAM
        }
        run_trace(&c, &trace_of(ops)).unwrap()
    };
    let with = mk(true);
    let without = mk(false);
    // Without promotion, A eventually falls out of flash; the subset
    // property is violated silently (A still hits in RAM), so the
    // difference shows up in flash eviction counts of A (re-populations).
    assert!(with.flash.insertions <= without.flash.insertions);
}

#[test]
fn min_runtime_extends_clock_only() {
    let c = SimConfig {
        min_runtime: Some(fcache_des::SimTime::from_secs(5)),
        ..cfg()
    };
    let r = run_trace(&c, &trace_of(vec![op(0, 0, OpKind::Read, 1, 0, 1)])).unwrap();
    assert_eq!(r.end_time, fcache_des::SimTime::from_secs(5));
    // Metrics unaffected by the idle tail.
    assert_eq!(r.metrics.read_ops, 1);
}

#[test]
fn report_percentiles_track_mix() {
    // 9 RAM hits + 1 cold read: p50 in the sub-µs bucket, p99 in the
    // hundreds-of-µs bucket.
    let mut ops = vec![op(0, 0, OpKind::Read, 1, 0, 1)];
    for _ in 0..9 {
        ops.push(op(0, 0, OpKind::Read, 1, 0, 1));
    }
    let r = run_trace(&cfg(), &trace_of(ops)).unwrap();
    let (p50, _, p99) = r.metrics.read_hist.p50_p95_p99_us();
    assert!(p50 < 1.0, "p50 {p50} µs should be a RAM hit");
    assert!(p99 > 100.0, "p99 {p99} µs should be the cold read");
}
