//! The device timing service must be invisible under the default flat
//! timing (byte-identical reports vs the pre-service engine, pinned by a
//! golden check) and must behave as a bounded FIFO queue under SSD timing.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::OnceLock;

use fcache::{
    run_trace, Architecture, DeviceService, FlashTiming, SimConfig, SimReport, Workbench,
    WorkloadSpec,
};
use fcache_des::Sim;
use fcache_device::{IoLog, SsdConfig};
use fcache_types::{BlockAddr, ByteSize, FileId, HostId};

// ---------------------------------------------------------------------------
// Golden check: flat timing is byte-identical to the pre-DeviceService engine
// ---------------------------------------------------------------------------

/// Report fields captured from the engine *before* the device service
/// existed (same workload: `Workbench::new(4096, 42)`,
/// `WorkloadSpec::baseline_60g()`, configs scaled down by 4096). Flat
/// timing must keep reproducing these numbers bit-for-bit. The executor
/// poll count is pinned on its own: it is a cost of the simulator, not
/// behaviour of the modeled system, and it may only go down.
struct Golden {
    arch: Architecture,
    zero_flash: bool,
    end_ns: u64,
    /// Executor polls (`SimReport::events`).
    events: u64,
    read_latency_ns: u64,
    write_latency_ns: u64,
    ram_hits: u64,
    flash_hits: u64,
    unified_hits: u64,
    filer_fast: u64,
    filer_slow: u64,
    filer_writes: u64,
    net_packets: u64,
    net_payload: u64,
}

const GOLDENS: &[Golden] = &[
    Golden {
        arch: Architecture::Naive,
        zero_flash: false,
        end_ns: 606_001_132,
        events: 40_763,
        read_latency_ns: 1_393_239_848,
        write_latency_ns: 1_002_400,
        ram_hits: 692,
        flash_hits: 4586,
        unified_hits: 0,
        filer_fast: 1179,
        filer_slow: 137,
        filer_writes: 3268,
        net_packets: 7277,
        net_payload: 18_935_808,
    },
    Golden {
        arch: Architecture::Lookaside,
        zero_flash: false,
        end_ns: 598_723_536,
        events: 34_712,
        read_latency_ns: 1_425_541_292,
        write_latency_ns: 1_002_400,
        ram_hits: 733,
        flash_hits: 4527,
        unified_hits: 0,
        filer_fast: 1174,
        filer_slow: 139,
        filer_writes: 3271,
        net_packets: 7284,
        net_payload: 18_976_768,
    },
    Golden {
        arch: Architecture::Unified,
        zero_flash: false,
        end_ns: 598_140_980,
        events: 34_500,
        read_latency_ns: 1_290_779_640,
        write_latency_ns: 46_961_000,
        ram_hits: 0,
        flash_hits: 0,
        unified_hits: 5395,
        filer_fast: 1065,
        filer_slow: 125,
        filer_writes: 3295,
        net_packets: 7271,
        net_payload: 18_591_744,
    },
    Golden {
        arch: Architecture::Naive,
        zero_flash: true,
        end_ns: 1_404_960_820,
        events: 29_004,
        read_latency_ns: 4_478_416_996,
        write_latency_ns: 1_002_400,
        ram_hits: 554,
        flash_hits: 0,
        unified_hits: 0,
        filer_fast: 5203,
        filer_slow: 582,
        filer_writes: 3058,
        net_packets: 7866,
        net_payload: 36_442_112,
    },
];

/// The golden runs, one report per [`GOLDENS`] row, run once and shared
/// by the behaviour pin and the poll-count pin.
fn golden_reports() -> &'static [SimReport] {
    static REPORTS: OnceLock<Vec<SimReport>> = OnceLock::new();
    REPORTS.get_or_init(|| {
        let wb = Workbench::new(4096, 42);
        let trace = wb.make_trace(&WorkloadSpec::baseline_60g());
        GOLDENS
            .iter()
            .map(|g| {
                let cfg = SimConfig {
                    arch: g.arch,
                    flash_size: if g.zero_flash {
                        ByteSize::ZERO
                    } else {
                        SimConfig::baseline().flash_size
                    },
                    ..SimConfig::baseline()
                }
                .scaled_down(4096);
                run_trace(&cfg, &trace).expect("flat run")
            })
            .collect()
    })
}

fn golden_tag(g: &Golden) -> String {
    format!("{:?} (zero_flash={})", g.arch, g.zero_flash)
}

#[test]
fn flat_mode_reports_are_byte_identical_to_pre_service_engine() {
    for (g, r) in GOLDENS.iter().zip(golden_reports()) {
        let tag = golden_tag(g);
        assert_eq!(r.end_time.as_nanos(), g.end_ns, "end_time drifted: {tag}");
        assert_eq!(
            r.metrics.read_latency.as_nanos(),
            g.read_latency_ns,
            "read latency drifted: {tag}"
        );
        assert_eq!(
            r.metrics.write_latency.as_nanos(),
            g.write_latency_ns,
            "write latency drifted: {tag}"
        );
        assert_eq!(r.ram.hits, g.ram_hits, "ram hits drifted: {tag}");
        assert_eq!(r.flash.hits, g.flash_hits, "flash hits drifted: {tag}");
        assert_eq!(r.unified.hits, g.unified_hits, "unified drifted: {tag}");
        assert_eq!(r.filer.fast_reads, g.filer_fast, "filer fast: {tag}");
        assert_eq!(r.filer.slow_reads, g.filer_slow, "filer slow: {tag}");
        assert_eq!(r.filer.writes, g.filer_writes, "filer writes: {tag}");
        assert_eq!(r.net.packets, g.net_packets, "net packets: {tag}");
        assert_eq!(r.net.payload_bytes, g.net_payload, "net payload: {tag}");
        // And the service itself must have stayed out of the way entirely.
        assert_eq!(r.device.ops(), 0, "flat mode recorded device stats: {tag}");
        assert!(r.device_windows.is_none(), "flat mode built windows: {tag}");
    }
}

#[test]
fn flat_mode_poll_counts_are_pinned() {
    let moved: Vec<String> = GOLDENS
        .iter()
        .zip(golden_reports())
        .filter(|(g, r)| r.events != g.events)
        .map(|(g, r)| format!("{}: got {}, want {}", golden_tag(g), r.events, g.events))
        .collect();
    assert!(
        moved.is_empty(),
        "executor poll counts moved:\n{}",
        moved.join("\n")
    );
}

// ---------------------------------------------------------------------------
// Queue behavior under SSD timing
// ---------------------------------------------------------------------------

/// A config whose device service runs in SSD mode with the given queue
/// depth, small enough to drive directly.
fn ssd_cfg(depth: usize) -> SimConfig {
    SimConfig {
        flash_size: ByteSize::mib(16), // 4096-block LBA space
        flash_timing: FlashTiming::Ssd(SsdConfig {
            queue_depth: depth,
            ..SsdConfig::small(4096, 77)
        }),
        ..SimConfig::baseline()
    }
}

fn addr(n: u32) -> BlockAddr {
    BlockAddr::new(FileId(7), n)
}

#[test]
fn depth_one_queue_services_concurrent_submitters_in_fifo_order() {
    let sim = Sim::new();
    let dev = Rc::new(DeviceService::new(
        sim.clone(),
        &ssd_cfg(1),
        HostId(0),
        IoLog::disabled(),
    ));
    assert!(dev.is_queued());
    let order: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
    // All submitters are ready at t=0; with one service slot they must
    // complete in exact submission order regardless of their (random,
    // unequal) service times.
    for i in 0..16u32 {
        let dev = Rc::clone(&dev);
        let order = Rc::clone(&order);
        sim.spawn(async move {
            dev.read(addr(i), None).await;
            order.borrow_mut().push(i);
        });
    }
    sim.run().expect("run");
    let end = sim.now();
    sim.shutdown();
    assert_eq!(*order.borrow(), (0..16).collect::<Vec<_>>());
    // Depth 1 fully serializes: elapsed time is the sum of service times.
    let stats = dev.stats();
    assert_eq!(stats.reads, 16);
    assert_eq!(end, stats.read_time, "depth-1 queue must serialize");
    assert_eq!(stats.queue_waits, 15, "all but the first submission wait");
    assert_eq!(stats.depth_max, 15, "peak occupancy seen by the last");
}

#[test]
fn bounded_depth_applies_backpressure_and_wider_queues_overlap_service() {
    // The same 24 submissions through depth-2 and depth-32 devices: the
    // narrow queue must take notably longer (service barely overlaps) and
    // must force waits; the wide queue accepts everything at once.
    let mut ends = Vec::new();
    let mut all_waits = Vec::new();
    for depth in [2usize, 32] {
        let sim = Sim::new();
        let dev = Rc::new(DeviceService::new(
            sim.clone(),
            &ssd_cfg(depth),
            HostId(0),
            IoLog::disabled(),
        ));
        for i in 0..24u32 {
            let dev = Rc::clone(&dev);
            sim.spawn(async move {
                dev.write(addr(i), None).await;
            });
        }
        sim.run().expect("run");
        let stats = dev.stats();
        ends.push(sim.now());
        all_waits.push(stats.queue_waits);
        sim.shutdown();
        assert_eq!(stats.writes, 24);
        assert!(
            stats.depth_max <= 23,
            "occupancy cannot exceed the other submitters"
        );
    }
    assert!(
        ends[0] > ends[1],
        "depth 2 ({}) must be slower than depth 32 ({})",
        ends[0],
        ends[1]
    );
    assert_eq!(all_waits[0], 22, "depth 2 admits two, queues the rest");
    assert_eq!(all_waits[1], 0, "depth 32 absorbs all 24 at once");
}

#[test]
fn read_batch_overlaps_blocks_across_the_ncq() {
    let sim = Sim::new();
    let dev = Rc::new(DeviceService::new(
        sim.clone(),
        &ssd_cfg(32),
        HostId(0),
        IoLog::disabled(),
    ));
    let addrs: Vec<BlockAddr> = (0..10).map(addr).collect();
    {
        let dev = Rc::clone(&dev);
        sim.spawn(async move {
            dev.read_batch(&addrs, None).await;
        });
    }
    sim.run().expect("run");
    let end = sim.now();
    sim.shutdown();
    let stats = dev.stats();
    assert_eq!(stats.reads, 10, "one command per block, stats exact");
    // The batch enters the queue at once: all ten commands are in service
    // together, so the op completes at the longest draw, strictly faster
    // than the pre-overlap `n × serial service`.
    assert!(
        end < stats.read_time,
        "batch must overlap: elapsed {end:?} vs summed service {:?}",
        stats.read_time
    );
    assert_eq!(stats.queue_waits, 0, "depth 32 absorbs the whole batch");
    assert_eq!(
        stats.depth_max, 9,
        "the last command sees the other nine in flight"
    );
}

#[test]
fn batch_backpressure_blocks_the_commands_past_the_queue_depth() {
    // A 6-command batch into a depth-4 queue: four admitted at once, the
    // fifth and sixth wait for a free slot.
    let sim = Sim::new();
    let dev = Rc::new(DeviceService::new(
        sim.clone(),
        &ssd_cfg(4),
        HostId(0),
        IoLog::disabled(),
    ));
    let addrs: Vec<BlockAddr> = (0..6).map(addr).collect();
    {
        let dev = Rc::clone(&dev);
        sim.spawn(async move {
            dev.read_batch(&addrs, None).await;
        });
    }
    sim.run().expect("run");
    sim.shutdown();
    let stats = dev.stats();
    assert_eq!(stats.reads, 6);
    assert_eq!(
        stats.queue_waits, 2,
        "exactly the commands past the queue depth wait"
    );
    assert_eq!(stats.depth_max, 5, "the last command sees five ahead");
}

#[test]
fn batch_submit_preserves_fifo_admission_across_submitters() {
    // Task A submits a 3-command batch, then task B a single read, into a
    // depth-1 queue. FIFO admission: all of A's commands service before
    // B's, so A completes strictly first and the clock is fully serial.
    let sim = Sim::new();
    let dev = Rc::new(DeviceService::new(
        sim.clone(),
        &ssd_cfg(1),
        HostId(0),
        IoLog::disabled(),
    ));
    let done: Rc<RefCell<Vec<&'static str>>> = Rc::new(RefCell::new(Vec::new()));
    {
        let dev = Rc::clone(&dev);
        let done = Rc::clone(&done);
        sim.spawn(async move {
            dev.read_batch(&[addr(0), addr(1), addr(2)], None).await;
            done.borrow_mut().push("batch");
        });
    }
    {
        let dev = Rc::clone(&dev);
        let done = Rc::clone(&done);
        sim.spawn(async move {
            dev.read(addr(3), None).await;
            done.borrow_mut().push("single");
        });
    }
    sim.run().expect("run");
    let end = sim.now();
    sim.shutdown();
    assert_eq!(*done.borrow(), vec!["batch", "single"]);
    let stats = dev.stats();
    assert_eq!(stats.reads, 4);
    assert_eq!(end, stats.read_time, "depth 1 serializes everything");
    assert_eq!(stats.queue_waits, 3, "all but the first admission wait");
}

#[test]
fn batch_of_one_is_bit_identical_to_a_single_read() {
    // The same op through `read_batch(&[a])` and `read(a)` on identically
    // seeded devices: same clock, same stats, same executor event count.
    let run = |batched: bool| {
        let sim = Sim::new();
        let dev = Rc::new(DeviceService::new(
            sim.clone(),
            &ssd_cfg(8),
            HostId(0),
            IoLog::disabled(),
        ));
        {
            let dev = Rc::clone(&dev);
            sim.spawn(async move {
                if batched {
                    dev.read_batch(&[addr(5)], None).await;
                } else {
                    dev.read(addr(5), None).await;
                }
            });
        }
        let report = sim.run().expect("run");
        let stats = dev.stats();
        sim.shutdown();
        (report.end_time, report.events, format!("{stats:?}"))
    };
    assert_eq!(run(true), run(false));
}

#[test]
fn read_batch_dedups_repeated_addresses_to_one_command_per_lba() {
    // Repeats inside one op collapse: one device command and one iolog
    // entry per distinct LBA, in first-occurrence order.
    let sim = Sim::new();
    let log = IoLog::new();
    let dev = Rc::new(DeviceService::new(
        sim.clone(),
        &ssd_cfg(32),
        HostId(0),
        log.clone(),
    ));
    let a = addr(10);
    let b = addr(11);
    let c = addr(12);
    {
        let dev = Rc::clone(&dev);
        sim.spawn(async move {
            dev.read_batch(&[a, b, a, c, b, a], None).await;
        });
    }
    sim.run().expect("run");
    sim.shutdown();
    let stats = dev.stats();
    assert_eq!(stats.reads, 3, "one command per distinct LBA");
    assert_eq!(
        stats.read_hist.count(),
        3,
        "histogram entries match the deduped command count"
    );
    let lbas: Vec<u64> = log.take().into_iter().map(|e| e.lba).collect();
    assert_eq!(
        lbas,
        vec![dev.lba(a), dev.lba(b), dev.lba(c)],
        "iolog records each distinct LBA once, first-occurrence order"
    );
}

#[test]
fn persistent_writes_enqueue_data_and_metadata_as_a_two_command_batch() {
    // §7.8 persistence: one block write becomes two device commands (data
    // + metadata) that overlap across the NCQ instead of summing serially.
    let cfg = SimConfig {
        flash_model: fcache_device::FlashModel {
            persistent: true,
            ..SimConfig::baseline().flash_model
        },
        ..ssd_cfg(8)
    };
    let sim = Sim::new();
    let log = IoLog::new();
    let dev = Rc::new(DeviceService::new(
        sim.clone(),
        &cfg,
        HostId(0),
        log.clone(),
    ));
    {
        let dev = Rc::clone(&dev);
        sim.spawn(async move {
            dev.write(addr(3), None).await;
        });
    }
    sim.run().expect("run");
    let end = sim.now();
    sim.shutdown();
    let stats = dev.stats();
    assert_eq!(stats.writes, 2, "data + metadata commands both recorded");
    assert_eq!(log.len(), 1, "still one logical block write in the iolog");
    assert!(
        end < stats.write_time,
        "the two commands overlap: elapsed {end:?} vs summed {:?}",
        stats.write_time
    );
}

mod batch_conservation {
    use super::*;
    use fcache::DeviceStatsSnapshot;
    use fcache_des::SimTime;
    use proptest::prelude::*;

    /// Runs the same read commands either as one `read_batch` or serially
    /// (one `read` per distinct LBA, first-occurrence order) on an
    /// identically seeded device; returns the clock and frozen stats.
    fn run_commands(blocks: &[u32], depth: usize, batched: bool) -> (SimTime, DeviceStatsSnapshot) {
        let sim = Sim::new();
        let dev = Rc::new(DeviceService::new(
            sim.clone(),
            &ssd_cfg(depth),
            HostId(0),
            IoLog::disabled(),
        ));
        let addrs: Vec<BlockAddr> = blocks.iter().map(|&b| addr(b)).collect();
        let mut distinct: Vec<BlockAddr> = Vec::new();
        for &a in &addrs {
            if !distinct.iter().any(|&d| dev.lba(d) == dev.lba(a)) {
                distinct.push(a);
            }
        }
        {
            let dev = Rc::clone(&dev);
            sim.spawn(async move {
                if batched {
                    dev.read_batch(&addrs, None).await;
                } else {
                    for &a in &distinct {
                        dev.read(a, None).await;
                    }
                }
            });
        }
        sim.run().expect("run");
        let end = sim.now();
        let stats = dev.stats();
        sim.shutdown();
        (end, stats)
    }

    // Overlapped submission must conserve per-command accounting exactly:
    // batch vs serial draw the same service times from identically seeded
    // devices, so the histograms — and every total derived from them —
    // match bucket for bucket, while the batch clock never exceeds the
    // serial clock.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn batched_histograms_conserve_totals_vs_serial(
            blocks in proptest::collection::vec(0u32..600, 1..24),
            depth in 1usize..12,
        ) {
            let (batch_end, batch) = run_commands(&blocks, depth, true);
            let (serial_end, serial) = run_commands(&blocks, depth, false);
            prop_assert_eq!(batch.reads, serial.reads);
            prop_assert_eq!(batch.read_time, serial.read_time);
            prop_assert_eq!(batch.read_hist, serial.read_hist);
            prop_assert_eq!(batch.read_hist.count(), batch.reads);
            prop_assert!(batch_end <= serial_end);
        }
    }
}

#[test]
fn flat_service_charges_exact_model_latencies_and_no_stats() {
    let cfg = SimConfig {
        flash_size: ByteSize::mib(16),
        ..SimConfig::baseline()
    };
    let sim = Sim::new();
    let dev = Rc::new(DeviceService::new(
        sim.clone(),
        &cfg,
        HostId(0),
        IoLog::disabled(),
    ));
    assert!(!dev.is_queued());
    assert_eq!(
        dev.try_flat_read(addr(1)),
        Some(cfg.flash_model.read_latency())
    );
    {
        let dev = Rc::clone(&dev);
        sim.spawn(async move {
            dev.read(addr(0), None).await;
            dev.write(addr(1), None).await;
            dev.read_batch(&[addr(2), addr(3), addr(4)], None).await;
        });
    }
    sim.run().expect("run");
    let end = sim.now();
    sim.shutdown();
    // 4 reads' worth (1 + batch of 3) + 1 write, all at Table 1 rates.
    let want = cfg.flash_model.read_latency().times(4) + cfg.flash_model.write_latency();
    assert_eq!(end, want);
    assert_eq!(dev.stats().ops(), 0, "flat mode keeps no device stats");
    assert!(dev.take_windows().is_none());
}

#[test]
fn ssd_runs_shift_latency_and_populate_device_stats() {
    // End-to-end: the same trace under flat vs SSD timing. SSD timing must
    // fill the device histograms/queue stats and shift the clock — that
    // interleaving (and thus policy behavior) moves with device timing is
    // precisely why the paper's trade-offs warrant re-examination.
    let wb = Workbench::new(4096, 42);
    let trace = wb.make_trace(&WorkloadSpec::baseline_60g());
    let flat_cfg = SimConfig::baseline().scaled_down(4096);
    let ssd_cfg = SimConfig {
        flash_timing: FlashTiming::Ssd(SsdConfig::auto()),
        ..SimConfig::baseline()
    }
    .scaled_down(4096);
    let flat = run_trace(&flat_cfg, &trace).expect("flat");
    let ssd = run_trace(&ssd_cfg, &trace).expect("ssd");
    // The trace is fully consumed either way.
    assert_eq!(flat.metrics.read_ops, ssd.metrics.read_ops);
    assert_eq!(flat.metrics.write_ops, ssd.metrics.write_ops);
    assert_eq!(flat.metrics.read_blocks, ssd.metrics.read_blocks);
    assert!(ssd.device.ops() > 0, "ssd mode must record device service");
    assert_eq!(
        ssd.device.reads + ssd.device.writes,
        ssd.device.read_hist.count() + ssd.device.write_hist.count(),
        "histograms cover every serviced op"
    );
    assert!(
        ssd.end_time != flat.end_time,
        "device timing must actually shift the clock"
    );
    assert!(ssd.device.depth_samples > 0);
}

#[test]
fn device_windows_partition_the_run() {
    // Single host, and two hosts whose per-device series must be rebased
    // so the combined report series still tiles contiguously.
    for hosts in [1u16, 2] {
        let wb = Workbench::new(4096, 42);
        let trace = wb.make_trace(&WorkloadSpec {
            hosts,
            ..WorkloadSpec::baseline_60g()
        });
        let cfg = SimConfig {
            flash_timing: FlashTiming::Ssd(SsdConfig::auto()),
            device_window: 500,
            ..SimConfig::baseline()
        }
        .scaled_down(4096);
        let r = run_trace(&cfg, &trace).expect("run");
        let windows = r.device_windows.expect("windows enabled");
        assert!(!windows.is_empty());
        // Windows tile the device I/O sequence without gaps or overlaps,
        // even across the per-host series boundary.
        let mut expected_start = 0u64;
        let mut total = 0u64;
        let mut full = 0usize;
        for w in &windows {
            assert_eq!(
                w.start_io, expected_start,
                "windows must tile contiguously ({hosts} hosts)"
            );
            expected_start += w.reads + w.writes;
            total += w.reads + w.writes;
            full += usize::from(w.reads + w.writes == 500);
        }
        // Windows cover the whole run (warmup included) while aggregate
        // stats reset at warmup end, so windows see at least as many I/Os.
        assert!(total >= r.device.ops(), "windows cover warmup too");
        // All but at most one trailing partial window per host are full.
        assert!(
            full >= windows.len() - hosts as usize,
            "at most one partial window per host"
        );
    }
}
