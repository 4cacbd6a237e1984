//! Micro/throughput benchmarks for the simulator's components (not paper
//! figures): data-structure op rates, the device service, and the
//! whole-engine cost of optional layers (SSD timing, faults, telemetry,
//! span streaming, streamed sweeps) on the baseline trace. End-to-end
//! replay throughput, with spreads, is `python3 perfbench/run.py`'s job.
//!
//! Emits a human table on stdout and machine-readable JSON to
//! `BENCH_micro.json` (schema below) so successive PRs can track the
//! performance trajectory:
//!
//! ```json
//! {"bench":"micro","schema":1,"results":[
//!   {"name":"block_cache_insert_evict_per_sec","value":123.0,"unit":"ops/s"}, ...]}
//! ```
//!
//! `FCACHE_SCALE` overrides the workload scale (default 1/1024);
//! `FCACHE_BENCH_OUT` overrides the JSON output path.

use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

use fcache::DeviceService;
use fcache_bench::{
    scale_from_env, Architecture, FlashTiming, Scenario, SimConfig, Sweep, Workbench, Workload,
    WorkloadSpec,
};
use fcache_cache::{BlockCache, UnifiedCache};
use fcache_des::{Sim, SimTime};
use fcache_device::{IoLog, SsdConfig};
use fcache_types::{BlockAddr, ByteSize, FaultPlan, FileId, HostId, TraceOp};

struct Results {
    entries: Vec<(String, f64, &'static str)>,
}

impl Results {
    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        // Big rates print as integers; small ratios/walls keep decimals.
        if value >= 1000.0 {
            println!("{name:<34} {value:>14.0} {unit}");
        } else {
            println!("{name:<34} {value:>14.3} {unit}");
        }
        self.entries.push((name.to_string(), value, unit));
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{\"bench\":\"micro\",\"schema\":1,\"results\":[");
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{name}\",\"value\":{value:.3},\"unit\":\"{unit}\"}}"
            );
        }
        out.push_str("]}");
        out
    }
}

fn bench_block_cache(res: &mut Results) {
    const N: u32 = 2_000_000;
    let mut cache = BlockCache::new(65_536);
    let t0 = Instant::now();
    for n in 0..N {
        cache.insert(BlockAddr::new(FileId(0), n), n % 3 == 0);
    }
    res.push(
        "block_cache_insert_evict_per_sec",
        f64::from(N) / t0.elapsed().as_secs_f64(),
        "ops/s",
    );

    let mut hits = 0u64;
    let t0 = Instant::now();
    for n in 0..N {
        // All resident: pure hit-path lookups (one hash probe each).
        hits += u64::from(cache.lookup(BlockAddr::new(FileId(0), N - 1 - (n % 65_536))));
    }
    assert_eq!(hits, u64::from(N));
    res.push(
        "block_cache_hit_lookup_per_sec",
        f64::from(N) / t0.elapsed().as_secs_f64(),
        "ops/s",
    );

    let mut unified = UnifiedCache::new(8_192, 57_344);
    let t0 = Instant::now();
    for n in 0..N {
        unified.insert(BlockAddr::new(FileId(0), n), n % 3 == 0);
    }
    res.push(
        "unified_insert_evict_per_sec",
        f64::from(N) / t0.elapsed().as_secs_f64(),
        "ops/s",
    );
}

fn bench_des(res: &mut Results) {
    const SLEEPS: u64 = 200_000;
    let t0 = Instant::now();
    let sim = Sim::new();
    for lane in 0..8u64 {
        let s = sim.clone();
        sim.spawn(async move {
            for i in 0..SLEEPS / 8 {
                s.sleep(SimTime::from_nanos((lane * 37 + i) % 97 + 1)).await;
            }
        });
    }
    sim.run().unwrap();
    sim.shutdown();
    res.push(
        "des_timer_events_per_sec",
        SLEEPS as f64 / t0.elapsed().as_secs_f64(),
        "events/s",
    );
}

/// Raw device-service throughput: flash ops pushed through the queue-aware
/// SSD timing path (slot acquire + model draw + timed sleep) by eight
/// concurrent submitters in a dedicated DES — the per-op cost of
/// `flash_timing = ssd`, isolated from the rest of the engine.
fn bench_ssd_service(res: &mut Results) {
    const OPS: u64 = 200_000;
    const LANES: u64 = 8;
    let cfg = SimConfig {
        flash_size: ByteSize::mib(256),
        flash_timing: FlashTiming::Ssd(SsdConfig::auto()),
        ..SimConfig::baseline()
    };
    let t0 = Instant::now();
    let sim = Sim::new();
    let dev = Rc::new(DeviceService::new(
        sim.clone(),
        &cfg,
        HostId(0),
        IoLog::disabled(),
    ));
    for lane in 0..LANES {
        let dev = Rc::clone(&dev);
        sim.spawn(async move {
            for i in 0..OPS / LANES {
                let addr = BlockAddr::new(FileId(0), (lane * 1_000_003 + i * 17) as u32);
                if i % 3 == 0 {
                    dev.write_block(addr).await;
                } else {
                    dev.read(addr).await;
                }
            }
        });
    }
    sim.run().expect("ssd service run");
    sim.shutdown();
    assert_eq!(dev.stats().ops(), OPS);
    res.push(
        "ssd_service_ops_per_sec",
        OPS as f64 / t0.elapsed().as_secs_f64(),
        "ops/s",
    );
}

/// Intra-batch NCQ overlap in *simulated* time: one submitter issuing
/// 16-block `read_blocks` calls back to back. With overlapped submission the
/// batch finishes when its last member completes, not after the serial sum
/// of per-command service times — so summed device busy time divided by
/// elapsed simulated time is the concurrency the batch path extracts from
/// the queue. Serial submission would pin this at 1.0; PERF.md invariant 14
/// requires > 1.
fn bench_ssd_batch_overlap(res: &mut Results) {
    const BATCHES: u32 = 2_000;
    const BATCH: u32 = 16;
    let cfg = SimConfig {
        flash_size: ByteSize::mib(256),
        flash_timing: FlashTiming::Ssd(SsdConfig::auto()),
        ..SimConfig::baseline()
    };
    let sim = Sim::new();
    let dev = Rc::new(DeviceService::new(
        sim.clone(),
        &cfg,
        HostId(0),
        IoLog::disabled(),
    ));
    {
        let dev = Rc::clone(&dev);
        sim.spawn(async move {
            for b in 0..BATCHES {
                let addrs: Vec<BlockAddr> = (0..BATCH)
                    .map(|i| BlockAddr::new(FileId(0), b * BATCH + i))
                    .collect();
                dev.read_blocks(&addrs).await;
            }
        });
    }
    sim.run().expect("batch overlap run");
    let stats = dev.stats();
    let elapsed = sim.now();
    sim.shutdown();
    assert_eq!(stats.reads, u64::from(BATCHES * BATCH));
    res.push(
        "ssd_batch_overlap_speedup",
        stats.read_time.as_nanos() as f64 / elapsed.as_nanos().max(1) as f64,
        "x",
    );
}

fn main() {
    let scale = scale_from_env(1024);
    println!("# micro benchmarks, workload scale 1/{scale}");
    let mut res = Results {
        entries: Vec::new(),
    };

    bench_block_cache(&mut res);
    bench_des(&mut res);
    bench_ssd_service(&mut res);
    bench_ssd_batch_overlap(&mut res);

    // End-to-end throughput: simulated trace blocks per wall-clock second.
    let wb = Workbench::new(scale, 42);
    let trace = wb.make_trace(&WorkloadSpec::baseline_60g());
    let blocks = trace.stats().blocks as f64;
    let run = |cfg: &SimConfig| {
        Scenario::new(cfg.clone().scaled_down(wb.scale()), Workload::trace(&trace)).run()
    };

    // The plain layered run, timed only as the reference for the overhead
    // ratios below (perfbench measures end-to-end throughput).
    let t0 = Instant::now();
    let r = run(&SimConfig::baseline()).expect("layered run");
    let layered_wall = t0.elapsed().as_secs_f64();
    assert!(r.metrics.read_ops > 0);

    // The same run under queue-aware SSD timing.
    let layered_ssd = SimConfig {
        flash_timing: FlashTiming::Ssd(SsdConfig::auto()),
        ..SimConfig::baseline()
    };
    let t0 = Instant::now();
    let r = run(&layered_ssd).expect("layered ssd run");
    let ssd_wall = t0.elapsed().as_secs_f64();
    assert!(r.device.ops() > 0);
    res.push("layered_ssd_sim_ops_per_sec", blocks / ssd_wall, "blocks/s");

    // The same run through a mid-run filer outage: the wall-clock ratio to
    // the clean run is the engine cost of the engaged robustness layer
    // (retry/park bookkeeping, recovery drains) on top of the simulation.
    let layered_faulted = SimConfig {
        fault_plan: FaultPlan::parse("filer:outage@40s-60s").expect("spec"),
        ..SimConfig::baseline()
    };
    let t0 = Instant::now();
    let r = run(&layered_faulted).expect("faulted run");
    let faulted_wall = t0.elapsed().as_secs_f64();
    assert!(r.robustness.engaged());
    res.push(
        "fault_outage_sim_ops_per_sec",
        blocks / faulted_wall,
        "blocks/s",
    );
    res.push(
        "fault_outage_overhead_vs_clean",
        faulted_wall / layered_wall.max(1e-9),
        "x",
    );

    // The same run with telemetry engaged (10 s unified windows, spans
    // recorded in-memory): the ratio to the plain run is the whole-engine
    // cost of span bookkeeping — PERF.md invariant 12 demands this is pure
    // addition, so the ratio should hover near 1.
    let layered_telemetry = SimConfig {
        telemetry_windows: Some(SimTime::from_micros(10_000_000)),
        ..SimConfig::baseline()
    };
    let t0 = Instant::now();
    let r = run(&layered_telemetry).expect("telemetry run");
    let telemetry_wall = t0.elapsed().as_secs_f64();
    assert!(r.telemetry.engaged() && r.telemetry.spans > 0);
    res.push(
        "telemetry_overhead_vs_off",
        telemetry_wall / layered_wall.max(1e-9),
        "x",
    );

    // Span streaming: the same telemetry run also writing one JSON row per
    // op to a file (`--trace-out`) — the sustained span encode+write rate.
    let span_path = std::env::temp_dir().join("fcache_bench_spans.jsonl");
    let layered_streamed = SimConfig {
        trace_out: Some(span_path.clone()),
        ..layered_telemetry
    };
    let t0 = Instant::now();
    let r = run(&layered_streamed).expect("span stream run");
    let stream_wall = t0.elapsed().as_secs_f64();
    assert!(r.telemetry.spans > 0);
    res.push(
        "span_stream_ops_per_sec",
        r.telemetry.spans as f64 / stream_wall.max(1e-9),
        "spans/s",
    );
    let _ = std::fs::remove_file(&span_path);

    // Packed-op footprint: the trajectory record of the 16-byte layout vs
    // the seed's 20-byte field-per-flag struct (host + thread + kind enum +
    // file + start + nblocks + warmup bool, 4-byte aligned).
    res.push(
        "trace_bytes_per_op",
        std::mem::size_of::<TraceOp>() as f64,
        "B",
    );
    res.push("trace_bytes_per_op_seed", 20.0, "B");

    let unified = SimConfig {
        arch: Architecture::Unified,
        ..SimConfig::baseline()
    };
    let t0 = Instant::now();
    run(&unified).expect("unified run");
    res.push(
        "unified_sim_ops_per_sec",
        blocks / t0.elapsed().as_secs_f64(),
        "blocks/s",
    );

    // Fully streamed sweep: 4 flash sizes, each job regenerating its own
    // `TraceStream` instead of borrowing the resident trace — the
    // O(chunk × jobs) sweep mode. Throughput counts every job's ops
    // (generation + simulation per job).
    let cfgs: Vec<SimConfig> = [0u64, 32, 64, 128]
        .iter()
        .map(|g| {
            SimConfig {
                flash_size: ByteSize::gib(*g),
                ..SimConfig::baseline()
            }
            .scaled_down(scale)
        })
        .collect();
    let spec = WorkloadSpec::baseline_60g();
    let t0 = Instant::now();
    let streamed = cfgs
        .iter()
        .enumerate()
        .fold(Sweep::new(), |sweep, (i, cfg)| {
            sweep.scenario(
                format!("#{i}"),
                Scenario::new(cfg.clone(), wb.workload(&spec)),
            )
        });
    let reports = streamed.reports().expect("streamed sweep");
    let streamed_wall = t0.elapsed().as_secs_f64();
    assert_eq!(reports.len(), cfgs.len());
    res.push(
        "sweep_streamed_ops_per_sec",
        (trace.len() * cfgs.len()) as f64 / streamed_wall.max(1e-9),
        "ops/s",
    );
    res.push(
        "sweep_workers",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1) as f64,
        "threads",
    );

    let out = std::env::var("FCACHE_BENCH_OUT").unwrap_or_else(|_| "BENCH_micro.json".into());
    let json = res.to_json();
    println!("{json}");
    if let Err(e) = std::fs::write(&out, format!("{json}\n")) {
        eprintln!("could not write {out}: {e}");
    } else {
        println!("# json written to {out}");
    }
}
