//! Per-layer measurements, all taken from outside the engine: counters the
//! reports already carry, and isolated drives of one layer's public API
//! with the workload's own inputs.
//!
//! The isolated drives (`*.replay_*`, `trace.gen_*`, `types.feed_*`) are
//! proxies for a layer's host cost. They run the layer alone, so they do
//! not add up to `core.run_s`.

use std::path::Path;
use std::rc::Rc;
use std::time::{Duration, Instant};

use fcache::{report_from_json, report_to_json, DeviceService, SimConfig, SimReport};
use fcache_cache::BlockCache;
use fcache_des::Sim;
use fcache_device::IoLog;
use fcache_types::{BlockAddr, ByteReader, HostId, Json, Phase, Trace, TraceSource};

use crate::metrics::Values;
use crate::spans::Spans;
use crate::workload::Bench;

/// Minimum host time an isolated drive repeats for, so short drives still
/// give a usable average.
const MIN_DRIVE: Duration = Duration::from_millis(200);

/// Repeats `f` until `MIN_DRIVE` has passed; returns the mean time per
/// call.
fn repeat(mut f: impl FnMut()) -> Duration {
    let t0 = Instant::now();
    let mut n = 0u32;
    while n == 0 || t0.elapsed() < MIN_DRIVE {
        f();
        n += 1;
    }
    t0.elapsed() / n
}

fn ns(d: Duration) -> f64 {
    d.as_secs_f64() * 1e9
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// `trace.gen_ns_per_op`: drains a fresh `Workbench::make_stream` of one
/// job's workload.
pub fn generate(values: &mut Values, spans: &Spans, bench: &Bench) {
    let spec = bench.probe_spec();
    let (n, took) = spans.span("trace.TraceStream::drain", || {
        let mut stream = bench.wb.make_stream(&spec);
        let mut n = 0u64;
        while stream.next_op().is_some() {
            n += 1;
        }
        n
    });
    values.set("trace.gen_ns_per_op", ratio(ns(took), n as f64));
}

/// `types.encode_ns_per_op`: `Trace::encode` plus the file write.
pub fn encode(values: &mut Values, spans: &Spans, trace: &Trace, path: &Path) {
    let (_, took) = spans.span("types.Trace::encode", || {
        let mut buf = Vec::new();
        trace
            .encode(&mut buf)
            .expect("encoding to memory cannot fail");
        std::fs::write(path, &buf).expect("the work directory is writable");
    });
    values.set(
        "types.encode_ns_per_op",
        ratio(ns(took), trace.len() as f64),
    );
}

/// `types.feed_*`: drains every `fork_slot` cursor of the archive image
/// with no simulation. The records a slot cursor decodes per delivered op
/// are estimated as that drain's cost over the cost of decoding every
/// record once, in sequence, through `next_chunk`.
pub fn feed(values: &mut Values, spans: &Spans, archive: &[u8]) {
    let reader = ByteReader::new(archive).expect("the archive header is valid");
    let records = reader.remaining();
    let meta = reader.meta().clone();
    let mut delivered = 0u64;
    let (_, fork) = spans.span("types.ByteReader::fork_slot", || {
        for host in 0..meta.hosts.max(1) {
            for thread in 0..meta.threads_per_host.max(1) {
                let mut cursor = reader
                    .fork_slot(host, thread)
                    .expect("an archive image forks per slot");
                while cursor.next().expect("archive records decode").is_some() {
                    delivered += 1;
                }
            }
        }
    });
    let (seq, _) = spans.span("types.ByteReader::next_chunk", || {
        let mut chunk = Vec::with_capacity(fcache_types::TRACE_CHUNK_OPS);
        repeat(|| {
            let mut r = ByteReader::new(archive).expect("the archive header is valid");
            loop {
                chunk.clear();
                let n = r
                    .next_chunk(&mut chunk, fcache_types::TRACE_CHUNK_OPS)
                    .expect("archive records decode");
                if n == 0 {
                    break;
                }
            }
            std::hint::black_box(&chunk);
        })
    });
    assert_eq!(delivered, records, "slot cursors deliver every op once");
    let per_op = ratio(ns(fork), delivered as f64);
    let records_per_op = ratio(per_op, ratio(ns(seq), records as f64));
    values.set("types.feed_ns_per_op", per_op);
    values.set("types.feed_records_per_op", records_per_op);
    values.set("types.feed_useful_frac", ratio(1.0, records_per_op));
}

/// `cache.replay_ns_per_access`: the trace's block stream through a RAM
/// and a flash `BlockCache` per host at the configured capacities (reads
/// probe RAM, then flash, and fill both; writes dirty RAM).
pub fn cache(values: &mut Values, spans: &Spans, trace: &Trace, cfg: &SimConfig) {
    let hosts = usize::from(trace.meta.hosts.max(1));
    let mut accesses = 0u64;
    let (_, took) = spans.span("cache.BlockCache", || {
        let mut tiers: Vec<(BlockCache, BlockCache)> = (0..hosts)
            .map(|_| {
                (
                    BlockCache::new(cfg.ram_blocks().max(1)),
                    BlockCache::new(cfg.flash_blocks().max(1)),
                )
            })
            .collect();
        for op in &trace.ops {
            let (ram, flash) = &mut tiers[usize::from(op.host().0) % hosts];
            for addr in op.blocks() {
                accesses += 1;
                if op.is_write() {
                    ram.insert(addr, true);
                } else if !ram.lookup(addr) {
                    if !flash.lookup(addr) {
                        flash.insert(addr, false);
                    }
                    ram.insert(addr, false);
                }
            }
        }
        std::hint::black_box(&tiers);
    });
    values.set(
        "cache.replay_ns_per_access",
        ratio(ns(took), accesses as f64),
    );
}

/// `devsvc.replay_ns_per_op`: the trace's flash traffic through one
/// `DeviceService` in a standalone `Sim` at the workload's device
/// configuration — 8 submitters, reads as `read_batch` per op, writes
/// per block.
pub fn devsvc(values: &mut Values, spans: &Spans, trace: &Trace, cfg: &SimConfig) {
    const LANES: usize = 8;
    const MAX_OPS: usize = 50_000;
    let ops: Vec<_> = trace.ops.iter().take(MAX_OPS).copied().collect();
    let (dev_ops, took) = spans.span("devsvc.DeviceService", || {
        let sim = Sim::new();
        let dev = Rc::new(DeviceService::new(
            sim.clone(),
            cfg,
            HostId(0),
            IoLog::disabled(),
        ));
        let ops = Rc::new(ops);
        for lane in 0..LANES {
            let (dev, ops) = (Rc::clone(&dev), Rc::clone(&ops));
            sim.spawn(async move {
                let mut addrs: Vec<BlockAddr> = Vec::new();
                for op in ops.iter().skip(lane).step_by(LANES) {
                    if op.is_write() {
                        for addr in op.blocks() {
                            dev.write(addr, None).await;
                        }
                    } else {
                        addrs.clear();
                        addrs.extend(op.blocks());
                        dev.read_batch(&addrs, None).await;
                    }
                }
            });
        }
        sim.run().expect("the device drive completes");
        sim.shutdown();
        ops.iter().map(|op| u64::from(op.nblocks())).sum::<u64>()
    });
    values.set("devsvc.replay_ns_per_op", ratio(ns(took), dev_ops as f64));
}

/// `results.*`: `report_to_json` and `report_from_json` over the
/// workload's reports.
pub fn results(values: &mut Values, spans: &Spans, reports: &[SimReport]) {
    let rows = reports.len().max(1) as f64;
    let texts: Vec<String> = reports
        .iter()
        .map(|r| report_to_json(r).to_string())
        .collect();
    let (enc, _) = spans.span("results.report_to_json", || {
        repeat(|| {
            for r in reports {
                std::hint::black_box(report_to_json(r).to_string());
            }
        })
    });
    let (dec, _) = spans.span("results.report_from_json", || {
        repeat(|| {
            for t in &texts {
                let j = Json::parse(t).expect("report JSON parses");
                std::hint::black_box(report_from_json(&j).expect("report JSON decodes"));
            }
        })
    });
    let bytes: usize = texts.iter().map(String::len).sum();
    values.set("results.encode_ns_per_row", ns(enc) / rows);
    values.set("results.decode_ns_per_row", ns(dec) / rows);
    values.set("results.row_bytes", bytes as f64 / rows);
}

/// Counters summed over a run's reports (fleet cells fold together).
#[derive(Default)]
struct Sum {
    ops: f64,
    ram_hits: f64,
    ram_lookups: f64,
    flash_hits: f64,
    flash_lookups: f64,
    lookups: f64,
    evictions: f64,
    dev_ops: f64,
    dev_depth_sum: f64,
    dev_samples: f64,
    dev_waits: f64,
    dev_reads: f64,
    dev_read_ns: f64,
    packets: f64,
    net_waits: f64,
    net_wait_ns: f64,
    filer_fast: f64,
    filer_slow: f64,
    filer_writes: f64,
    failovers: f64,
    hedges: f64,
    hedges_won: f64,
    re_replicated: f64,
    retries: f64,
    failed_ops: f64,
    tracked_writes: f64,
    invalidating: f64,
    read_blocks: f64,
    read_ns: f64,
    write_blocks: f64,
    write_ns: f64,
    end_s: f64,
}

impl Sum {
    fn of(reports: &[SimReport]) -> Sum {
        let mut s = Sum::default();
        let f = |x: u64| x as f64;
        for r in reports {
            let m = &r.metrics;
            s.ops += f(m.read_ops + m.write_ops);
            s.ram_hits += f(r.ram.hits + r.unified.hits);
            s.ram_lookups += f(r.ram.lookups() + r.unified.lookups());
            s.flash_hits += f(r.flash.hits);
            s.flash_lookups += f(r.flash.lookups());
            s.lookups += f(r.ram.lookups() + r.flash.lookups() + r.unified.lookups());
            s.evictions += f(r.ram.evictions() + r.flash.evictions() + r.unified.evictions());
            s.dev_ops += f(r.device.ops());
            s.dev_depth_sum += f(r.device.depth_sum);
            s.dev_samples += f(r.device.depth_samples);
            s.dev_waits += f(r.device.queue_waits);
            s.dev_reads += f(r.device.reads);
            s.dev_read_ns += f(r.device.read_time.as_nanos());
            s.packets += f(r.net.packets);
            s.net_waits += f(r.net.queue_waits);
            s.net_wait_ns += f(r.net.queue_wait.as_nanos());
            s.filer_fast += f(r.filer.fast_reads);
            s.filer_slow += f(r.filer.slow_reads);
            s.filer_writes += f(r.filer.writes);
            s.failovers += f(r.shard.remote.failovers);
            s.hedges += f(r.shard.remote.hedges_launched);
            s.hedges_won += f(r.shard.remote.hedges_won);
            s.re_replicated += f(r.shard.remote.re_replicated_blocks);
            s.retries += f(r.robustness.retries);
            s.failed_ops += f(r.robustness.failed_ops);
            s.tracked_writes += f(m.tracked_writes);
            s.invalidating += f(m.writes_invalidating);
            s.read_blocks += f(m.read_blocks);
            s.read_ns += f(m.read_latency.as_nanos());
            s.write_blocks += f(m.write_blocks);
            s.write_ns += f(m.write_latency.as_nanos());
            s.end_s = s.end_s.max(r.end_time.as_secs_f64());
        }
        s
    }
}

/// The per-layer counters every report carries, per measured op.
pub fn from_reports(values: &mut Values, reports: &[SimReport]) {
    let s = Sum::of(reports);
    let per_op = |x: f64| ratio(x, s.ops);
    values.set("cache.ram_hit_rate", ratio(s.ram_hits, s.ram_lookups));
    values.set("cache.flash_hit_rate", ratio(s.flash_hits, s.flash_lookups));
    values.set("cache.lookups_per_op", per_op(s.lookups));
    values.set("cache.evictions_per_op", per_op(s.evictions));
    values.set("devsvc.ops_per_op", per_op(s.dev_ops));
    values.set(
        "devsvc.queue_depth_mean",
        ratio(s.dev_depth_sum, s.dev_samples),
    );
    values.set("devsvc.queue_wait_frac", ratio(s.dev_waits, s.dev_samples));
    values.set(
        "devsvc.read_service_us",
        ratio(s.dev_read_ns, s.dev_reads) / 1e3,
    );
    values.set("net.packets_per_op", per_op(s.packets));
    values.set("net.queue_wait_frac", ratio(s.net_waits, s.packets));
    values.set(
        "net.queue_wait_us_per_packet",
        ratio(s.net_wait_ns, s.packets) / 1e3,
    );
    values.set("filer.reads_per_op", per_op(s.filer_fast + s.filer_slow));
    values.set("filer.writes_per_op", per_op(s.filer_writes));
    values.set(
        "filer.slow_read_frac",
        ratio(s.filer_slow, s.filer_fast + s.filer_slow),
    );
    values.set("remote.failovers_per_op", per_op(s.failovers));
    values.set("remote.hedge_win_frac", ratio(s.hedges_won, s.hedges));
    values.set("remote.re_replicated_blocks", s.re_replicated);
    values.set("robust.retries_per_op", per_op(s.retries));
    values.set("robust.failed_ops", s.failed_ops);
    values.set(
        "core.invalidation_frac",
        ratio(s.invalidating, s.tracked_writes),
    );
    values.set(
        "model.read_us_per_block",
        ratio(s.read_ns, s.read_blocks) / 1e3,
    );
    values.set(
        "model.write_us_per_block",
        ratio(s.write_ns, s.write_blocks) / 1e3,
    );
    let mut hist = reports[0].metrics.read_hist;
    for r in &reports[1..] {
        hist = hist.merged(&r.metrics.read_hist);
    }
    values.set(
        "model.read_p99_us",
        hist.percentile(99.0)
            .map_or(0.0, |t| t.as_nanos() as f64 / 1e3),
    );
    values.set("model.sim_time_s", s.end_s);
}

/// `telemetry.share.<phase>`: each phase's share of attributed latency in
/// the traced reports.
pub fn telemetry(values: &mut Values, traced: &[SimReport]) {
    let mut phase_ns = [0u64; Phase::COUNT];
    for r in traced {
        for (acc, ns) in phase_ns.iter_mut().zip(r.telemetry.phase_ns) {
            *acc += ns;
        }
    }
    let total: u64 = phase_ns.iter().sum();
    for p in Phase::ALL {
        values.set(
            share_name(p),
            ratio(phase_ns[p.index()] as f64, total as f64),
        );
    }
}

/// The metric name of a phase's share.
fn share_name(p: Phase) -> &'static str {
    match p {
        Phase::CacheProbe => "telemetry.share.cache_probe",
        Phase::FlashQueue => "telemetry.share.flash_queue",
        Phase::DeviceService => "telemetry.share.device_service",
        Phase::Net => "telemetry.share.net",
        Phase::Filer => "telemetry.share.filer",
        Phase::Failover => "telemetry.share.failover",
        Phase::RetryBackoff => "telemetry.share.retry_backoff",
        Phase::DegradedPark => "telemetry.share.degraded_park",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn share_names_follow_phase_labels() {
        for p in Phase::ALL {
            assert_eq!(share_name(p), format!("telemetry.share.{}", p.label()));
        }
    }
}
