//! Mercury-style validation replay (§6.1 substitution).
//!
//! The authors validated their simulator against NetApp's Mercury hardware
//! by replaying four days of below-the-buffer-cache block traces "directly
//! through a 32 GB flash cache. (In our simulator, that means we set the
//! RAM cache size to zero.)" We have no Mercury hardware and the NetApp
//! traces are not public, so this test replays a generated below-the-cache
//! trace through the same configuration and asserts the analytic
//! properties the validation relied on: component latencies compose
//! exactly, hit rates match an independent reference cache simulation, and
//! repeated runs agree to the nanosecond.

use fcache::{run_trace, SimConfig, Workbench, WorkloadSpec, WritebackPolicy};
use fcache_types::{ByteSize, OpKind, Trace};

const SCALE: u64 = 1024;

/// Builds the Mercury validation configuration: no RAM tier, 32 GB flash,
/// lookaside (Mercury's design), deterministic filer.
fn mercury_cfg() -> SimConfig {
    SimConfig {
        arch: fcache::Architecture::Lookaside,
        ram_size: ByteSize::ZERO,
        flash_size: ByteSize::gib(32),
        ram_policy: WritebackPolicy::AsyncWriteThrough,
        flash_policy: WritebackPolicy::AsyncWriteThrough,
        prefetch: 1.0,
        ..SimConfig::baseline()
    }
}

/// Independent single-tier LRU reference: replays the trace against a
/// plain `BlockCache` and returns (hits, lookups) for read blocks.
fn reference_hit_counts(trace: &Trace, capacity_blocks: usize) -> (u64, u64) {
    use fcache_cache::BlockCache;
    let mut cache = BlockCache::new(capacity_blocks);
    let (mut hits, mut lookups) = (0u64, 0u64);
    for op in &trace.ops {
        for b in op.blocks() {
            match op.kind() {
                OpKind::Read => {
                    if !op.warmup() {
                        lookups += 1;
                        if cache.lookup(b) {
                            hits += 1;
                        }
                    } else {
                        cache.lookup(b);
                    }
                    cache.insert(b, false);
                }
                OpKind::Write => {
                    // Lookaside: the write goes to the filer and the flash
                    // copy is updated (clean).
                    cache.insert(b, false);
                }
            }
        }
    }
    (hits, lookups)
}

#[test]
fn simulator_hit_rate_matches_reference_lru() {
    let wb = Workbench::new(SCALE, 7);
    let spec = WorkloadSpec {
        working_set: ByteSize::gib(40),
        seed: 40,
        ..WorkloadSpec::default()
    };
    let trace = wb.make_trace(&spec);
    let cfg = mercury_cfg().scaled_down(SCALE);
    let report = run_trace(&cfg, &trace).unwrap();

    let (ref_hits, ref_lookups) = reference_hit_counts(&trace, cfg.flash_blocks());
    let ref_rate = ref_hits as f64 / ref_lookups as f64;
    let sim_rate = report.flash_hit_rate();

    // The simulator interleaves threads, so insertion order differs
    // slightly from the sequential reference; rates must agree closely.
    assert!(
        (sim_rate - ref_rate).abs() < 0.03,
        "simulator flash hit rate {sim_rate:.4} vs reference LRU {ref_rate:.4}"
    );
}

#[test]
fn single_op_latencies_compose_exactly() {
    // The §6.1 validation checked that "throughput and latencies seen
    // above and below the flash cache … all or nearly all matched within
    // 10%". Our equivalent: a hand-built trace whose per-op latencies are
    // analytically known under the Mercury configuration.
    use fcache_types::{FileId, HostId, ThreadId, TraceMeta, TraceOp};
    let mk = |kind, file: u32, start: u32| {
        TraceOp::new(HostId(0), ThreadId(0), kind, FileId(file), start, 1, false)
    };
    let trace = Trace {
        meta: TraceMeta {
            hosts: 1,
            threads_per_host: 1,
            ..TraceMeta::default()
        },
        ops: vec![
            mk(OpKind::Read, 1, 0),  // cold: net + filer + net + flash fill
            mk(OpKind::Read, 1, 0),  // flash hit: 88 µs
            mk(OpKind::Write, 1, 0), // lookaside, no RAM: filer + flash update
        ],
    };
    let cfg = mercury_cfg();
    let r = run_trace(&cfg, &trace).unwrap();
    // Cold read: 8.2 + 92 + 40.968 + 21 = 162.168 µs; hit: 88 µs.
    let read_total = r.metrics.read_latency.as_micros_f64();
    assert!(
        (read_total - (162.168 + 88.0)).abs() < 0.01,
        "read latency total {read_total} µs"
    );
    // Write: 40.968 (data out) + 92 (filer) + 8.2 (ack) + 21 (flash) = 162.168.
    let write_total = r.metrics.write_latency.as_micros_f64();
    assert!(
        (write_total - 162.168).abs() < 0.01,
        "write latency total {write_total} µs"
    );
}

#[test]
fn replay_is_reproducible_to_the_nanosecond() {
    let wb = Workbench::new(SCALE, 7);
    let spec = WorkloadSpec {
        working_set: ByteSize::gib(24),
        seed: 24,
        ..WorkloadSpec::default()
    };
    let trace = wb.make_trace(&spec);
    let cfg = mercury_cfg().scaled_down(SCALE);
    let a = run_trace(&cfg, &trace).unwrap();
    let b = run_trace(&cfg, &trace).unwrap();
    assert_eq!(a.metrics.read_latency, b.metrics.read_latency);
    assert_eq!(a.metrics.write_latency, b.metrics.write_latency);
    assert_eq!(a.end_time, b.end_time);
    assert_eq!(a.flash, b.flash);
}

#[test]
fn trace_file_roundtrip_replays_identically() {
    // Archive the trace in the FCTRACE1 binary format and replay the
    // decoded copy: reports must be identical.
    let wb = Workbench::new(SCALE, 7);
    let spec = WorkloadSpec {
        working_set: ByteSize::gib(16),
        seed: 16,
        ..WorkloadSpec::default()
    };
    let trace = wb.make_trace(&spec);
    let mut buf = Vec::new();
    trace.encode(&mut buf).unwrap();
    let decoded = Trace::decode(&mut buf.as_slice()).unwrap();
    let cfg = mercury_cfg().scaled_down(SCALE);
    let a = run_trace(&cfg, &trace).unwrap();
    let b = run_trace(&cfg, &decoded).unwrap();
    assert_eq!(a.metrics, b.metrics);
    assert_eq!(a.end_time, b.end_time);
}
