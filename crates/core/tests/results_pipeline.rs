//! The structured results pipeline end to end: exact JSON round-trips for
//! reports, durable JSONL sweep sinks, and resumable grids.
//!
//! The two contracts pinned here:
//!
//! 1. **Serialization is exact.** `SimReport` → JSON → `SimReport` is the
//!    identity, including histograms, device windows, and the flash I/O
//!    log (property test over arbitrary counter values), and the encoded
//!    form itself is pinned by a golden row so any schema drift fails
//!    loudly instead of silently changing files on disk.
//! 2. **Resume is lossless.** A 16-job grid sweep killed mid-run (torn
//!    final line included) and resumed with `JsonlSink::resume` +
//!    `Sweep::resume` produces a results file whose row set is
//!    identical to an uninterrupted run's (PERF.md invariant 9).

use fcache::results::config_to_json;
use fcache::{
    read_rows, report_from_json, report_to_json, row_to_json, scan_jsonl, Architecture, DecodedRow,
    DeviceStatsSnapshot, FaultWindowStat, FleetStats, FleetTopology, HistogramSnapshot,
    HostLoadStats, JsonlSink, MemorySink, MetricsSnapshot, RemoteStats, ResultRow, RobustnessStats,
    ShardServiceStats, ShardStats, SimConfig, SimReport, Sweep, TelemetryStats, TelemetryWindow,
    Workbench, WorkloadSpec, WritebackPolicy, REPORT_SCHEMA,
};
use fcache::{DegradedPolicy, FlashTiming};
use fcache_cache::CacheStats;
use fcache_cache::EvictionPolicy;
use fcache_des::SimTime;
use fcache_device::{IoDirection, IoLogEntry, SsdConfig, WindowStat};
use fcache_filer::FilerStats;
use fcache_net::SegmentStats;
use fcache_types::{ByteSize, FaultPlan, Json};

/// Deterministic word stream, cycling so the builder is total for any
/// non-empty input.
struct Words<'a> {
    words: &'a [u64],
    i: usize,
}

impl Words<'_> {
    fn next(&mut self) -> u64 {
        let w = self.words[self.i % self.words.len()].wrapping_add(self.i as u64);
        self.i += 1;
        w
    }

    fn hist(&mut self) -> HistogramSnapshot {
        let mut buckets = [0u64; fcache::histogram::BUCKETS];
        for _ in 0..(self.next() % 6) {
            let slot = (self.next() % 64) as usize;
            // Capped so the derived total cannot overflow (a live
            // histogram's count grows one sample at a time and never can).
            buckets[slot] = self.next() % (1 << 40);
        }
        HistogramSnapshot::from_buckets(buckets)
    }

    /// Arbitrary finite f64s: shortest-round-trip formatting must bring
    /// any of them back exactly, not just "nice" values.
    fn float(&mut self) -> f64 {
        let x = f64::from_bits(self.next());
        if x.is_finite() {
            x
        } else {
            self.next() as f64 / 1e3
        }
    }

    fn cache(&mut self) -> CacheStats {
        CacheStats {
            hits: self.next(),
            misses: self.next(),
            insertions: self.next(),
            clean_evictions: self.next(),
            dirty_evictions: self.next(),
            invalidations: self.next(),
            overwrites: self.next(),
        }
    }
}

/// Builds a `SimReport` deterministically from a word stream, exercising
/// every serialized field (optionals included, steered by the draws).
fn report_from_words(words: &[u64]) -> SimReport {
    let w = &mut Words { words, i: 0 };
    let metrics = MetricsSnapshot {
        read_ops: w.next(),
        write_ops: w.next(),
        read_blocks: w.next(),
        write_blocks: w.next(),
        read_latency: SimTime::from_nanos(w.next()),
        write_latency: SimTime::from_nanos(w.next()),
        tracked_writes: w.next(),
        writes_invalidating: w.next(),
        invalidated_blocks: w.next(),
        read_hist: w.hist(),
        write_hist: w.hist(),
    };
    let device = DeviceStatsSnapshot {
        reads: w.next(),
        writes: w.next(),
        read_time: SimTime::from_nanos(w.next()),
        write_time: SimTime::from_nanos(w.next()),
        queue_waits: w.next(),
        depth_sum: w.next(),
        depth_samples: w.next(),
        depth_max: w.next(),
        read_hist: w.hist(),
        write_hist: w.hist(),
    };
    let device_windows = if w.next().is_multiple_of(2) {
        None
    } else {
        Some(
            (0..(w.next() % 4))
                .map(|_| WindowStat {
                    start_io: w.next(),
                    read_avg_us: w.float(),
                    write_avg_us: w.float(),
                    reads: w.next(),
                    writes: w.next(),
                })
                .collect(),
        )
    };
    let flash_iolog = if w.next().is_multiple_of(2) {
        None
    } else {
        Some(
            (0..(w.next() % 5))
                .map(|_| IoLogEntry {
                    dir: if w.next().is_multiple_of(2) {
                        IoDirection::Read
                    } else {
                        IoDirection::Write
                    },
                    lba: w.next(),
                })
                .collect(),
        )
    };
    SimReport {
        metrics,
        ram: w.cache(),
        flash: w.cache(),
        unified: w.cache(),
        filer: FilerStats {
            fast_reads: w.next(),
            slow_reads: w.next(),
            writes: w.next(),
        },
        net: SegmentStats {
            packets: w.next(),
            payload_bytes: w.next(),
            busy: SimTime::from_nanos(w.next()),
            queue_wait: SimTime::from_nanos(w.next()),
            queue_waits: w.next().max(1),
        },
        device,
        device_windows,
        end_time: SimTime::from_nanos(w.next()),
        events: w.next(),
        flash_iolog,
        robustness: RobustnessStats {
            retries: w.next(),
            timeouts: w.next(),
            failed_ops: w.next(),
            queued_ops: w.next(),
            buffered_writes: w.next(),
            degraded_time: SimTime::from_nanos(w.next()),
            drain_events: w.next(),
            drain_depth_max: w.next(),
            drain_time: SimTime::from_nanos(w.next()),
            windows: (0..(w.next() % 3))
                .map(|_| FaultWindowStat {
                    start: SimTime::from_nanos(w.next()),
                    end: SimTime::from_nanos(w.next()),
                    ops: w.next(),
                    ok: w.next(),
                })
                .collect(),
        },
        shard: if w.next().is_multiple_of(2) {
            // Disengaged half the time: the section must be omitted and
            // decode back to the default.
            ShardStats::default()
        } else {
            ShardStats {
                shards: (w.next() % 8 + 1) as u16,
                replicas: (w.next() % 3 + 1) as u16,
                hedge_ns: w.next(),
                per_shard: (0..(w.next() % 4))
                    .map(|_| ShardServiceStats {
                        fast_reads: w.next(),
                        slow_reads: w.next(),
                        writes: w.next(),
                        outage_ns: w.next(),
                    })
                    .collect(),
                remote: RemoteStats {
                    hedges_launched: w.next(),
                    hedges_won: w.next(),
                    hedges_cancelled: w.next(),
                    failovers: w.next(),
                    re_replicated_blocks: w.next(),
                    re_replication_bytes: w.next(),
                    under_intervals: w.next(),
                    under_peak: w.next(),
                    under_now: w.next(),
                    under_time_ns: w.next(),
                },
            }
        },
        telemetry: if w.next().is_multiple_of(2) {
            // Disengaged half the time: the section must be omitted and
            // decode back to the default.
            TelemetryStats::default()
        } else {
            TelemetryStats {
                spans: w.next(),
                phase_ns: std::array::from_fn(|_| w.next()),
                phase_ops: std::array::from_fn(|_| w.next()),
                phase_hists: std::array::from_fn(|_| w.hist()),
                window_ns: w.next(),
                windows: (0..(w.next() % 3))
                    .map(|_| TelemetryWindow {
                        start_ns: w.next(),
                        end_ns: w.next(),
                        ops: w.next(),
                        read_blocks: w.next(),
                        write_blocks: w.next(),
                        hit_blocks: w.next(),
                        filer_blocks: w.next(),
                        latency_ns: w.next(),
                        retries: w.next(),
                        degraded_ns: w.next(),
                        dirty_num: w.next(),
                        dirty_den: w.next(),
                        depth_sum: w.next(),
                        depth_samples: w.next(),
                        shard_live_ns: (0..(w.next() % 3)).map(|_| w.next()).collect(),
                    })
                    .collect(),
            }
        },
        fleet: if w.next().is_multiple_of(2) {
            // Disengaged half the time: the section must be omitted and
            // decode back to the default.
            FleetStats::default()
        } else {
            FleetStats {
                topology: Some(FleetTopology {
                    cell: (w.next() % 64) as u32,
                    cells: (w.next() % 64 + 1) as u32,
                    host_base: (w.next() % 4096) as u32,
                    fleet_hosts: (w.next() % 4096 + 1) as u32,
                    hosts_per_segment: (w.next() % 16 + 1) as u16,
                }),
                per_host: (0..(w.next() % 4))
                    .map(|_| HostLoadStats {
                        host: (w.next() % 4096) as u32,
                        read_ops: w.next(),
                        write_ops: w.next(),
                        read_latency_ns: w.next(),
                        write_latency_ns: w.next(),
                    })
                    .collect(),
            }
        },
    }
}

mod roundtrip {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn report_json_roundtrip_is_exact(words in proptest::collection::vec(0u64..u64::MAX, 40..220)) {
            let report = report_from_words(&words);
            let encoded = report_to_json(&report).to_string();
            let parsed = Json::parse(&encoded).expect("reparse");
            let back = report_from_json(&parsed).expect("decode");
            prop_assert_eq!(back, report);
        }
    }
}

#[test]
fn simulated_report_roundtrips_including_device_state() {
    // Not just synthetic counters: a real SSD-timing run with device
    // windows and an I/O log survives the round trip bit-for-bit.
    let wb = Workbench::new(16384, 7);
    let cfg = SimConfig {
        flash_timing: fcache::FlashTiming::Ssd(fcache_device::SsdConfig::auto()),
        device_window: 64,
        log_flash_io: true,
        ..SimConfig::baseline()
    };
    let spec = WorkloadSpec {
        working_set: ByteSize::gib(16),
        seed: 3,
        ..WorkloadSpec::default()
    };
    let report = wb.scenario(&cfg, &spec).run().expect("run");
    assert!(report.device.ops() > 0, "ssd timing must record device ops");
    assert!(report.device_windows.is_some());
    assert!(report.flash_iolog.as_deref().is_some_and(|l| !l.is_empty()));
    let back = report_from_json(&Json::parse(&report_to_json(&report).to_string()).unwrap())
        .expect("decode");
    assert_eq!(back, report);
}

#[test]
fn golden_row_pins_the_schema() {
    // A fixed report must serialize to this exact string. If this test
    // fails because the layout changed on purpose, bump REPORT_SCHEMA and
    // repin — silent drift is the failure mode this guards against.
    let mut buckets = [0u64; fcache::histogram::BUCKETS];
    buckets[4] = 2;
    buckets[40] = 1;
    let report = SimReport {
        metrics: MetricsSnapshot {
            read_ops: 3,
            write_ops: 1,
            read_blocks: 9,
            write_blocks: 2,
            read_latency: SimTime::from_micros(120),
            write_latency: SimTime::from_nanos(1500),
            tracked_writes: 1,
            writes_invalidating: 0,
            invalidated_blocks: 0,
            read_hist: HistogramSnapshot::from_buckets(buckets),
            write_hist: HistogramSnapshot::default(),
        },
        ram: CacheStats {
            hits: 5,
            misses: 4,
            insertions: 4,
            clean_evictions: 1,
            dirty_evictions: 0,
            invalidations: 0,
            overwrites: 2,
        },
        flash: CacheStats::default(),
        unified: CacheStats::default(),
        filer: FilerStats {
            fast_reads: 3,
            slow_reads: 1,
            writes: 2,
        },
        net: SegmentStats {
            packets: 12,
            payload_bytes: 49152,
            busy: SimTime::from_micros(393),
            // Uncontended: the golden row keeps the pre-fleet three-field
            // net encoding.
            queue_wait: SimTime::ZERO,
            queue_waits: 0,
        },
        device: DeviceStatsSnapshot::default(),
        device_windows: Some(vec![WindowStat {
            start_io: 0,
            read_avg_us: 92.5,
            write_avg_us: 21.0,
            reads: 7,
            writes: 3,
        }]),
        end_time: SimTime::from_millis(2),
        events: 77,
        flash_iolog: Some(vec![
            IoLogEntry {
                dir: IoDirection::Write,
                lba: 8,
            },
            IoLogEntry {
                dir: IoDirection::Read,
                lba: 8,
            },
        ]),
        robustness: RobustnessStats::default(),
        shard: ShardStats::default(),
        telemetry: TelemetryStats {
            spans: 2,
            phase_ns: [1200, 0, 0, 800, 500, 0, 0, 0],
            phase_ops: [2, 0, 0, 1, 1, 0, 0, 0],
            phase_hists: Default::default(),
            window_ns: 1_000_000,
            windows: vec![TelemetryWindow {
                start_ns: 0,
                end_ns: 1_000_000,
                ops: 2,
                read_blocks: 9,
                write_blocks: 2,
                hit_blocks: 6,
                filer_blocks: 3,
                latency_ns: 2500,
                retries: 0,
                degraded_ns: 0,
                dirty_num: 1,
                dirty_den: 4,
                depth_sum: 0,
                depth_samples: 2,
                shard_live_ns: Vec::new(),
            }],
        },
        fleet: FleetStats::default(),
    };
    let row = ResultRow {
        index: 4,
        label: "naive/64G".into(),
        config: SimConfig {
            seed: 42,
            ..SimConfig::baseline()
        },
        report,
    };
    let golden = concat!(
        r#"{"schema":1,"index":4,"label":"naive/64G","#,
        r#""config":{"arch":"naive","ram":"8G","flash":"64G","ram_policy":"p1","flash_policy":"a","#,
        r#""flash_timing":"flat (constant per-block latencies)","prefetch":0.9,"persistent":false,"#,
        r#""duplex":false,"time_scale":1,"seed":42},"#,
        r#""report":{"metrics":{"read_ops":3,"write_ops":1,"read_blocks":9,"write_blocks":2,"#,
        r#""read_latency_ns":120000,"write_latency_ns":1500,"tracked_writes":1,"#,
        r#""writes_invalidating":0,"invalidated_blocks":0,"read_hist":[[4,2],[40,1]],"write_hist":[]},"#,
        r#""ram":{"hits":5,"misses":4,"insertions":4,"clean_evictions":1,"dirty_evictions":0,"invalidations":0,"overwrites":2},"#,
        r#""flash":{"hits":0,"misses":0,"insertions":0,"clean_evictions":0,"dirty_evictions":0,"invalidations":0,"overwrites":0},"#,
        r#""unified":{"hits":0,"misses":0,"insertions":0,"clean_evictions":0,"dirty_evictions":0,"invalidations":0,"overwrites":0},"#,
        r#""filer":{"fast_reads":3,"slow_reads":1,"writes":2},"#,
        r#""net":{"packets":12,"payload_bytes":49152,"busy_ns":393000},"#,
        r#""device":{"reads":0,"writes":0,"read_time_ns":0,"write_time_ns":0,"queue_waits":0,"#,
        r#""depth_sum":0,"depth_samples":0,"depth_max":0,"read_hist":[],"write_hist":[]},"#,
        r#""device_windows":[{"start_io":0,"read_avg_us":92.5,"write_avg_us":21.0,"reads":7,"writes":3}],"#,
        r#""end_time_ns":2000000,"events":77,"flash_iolog":[["w",8],["r",8]],"#,
        r#""robustness":{"retries":0,"timeouts":0,"failed_ops":0,"queued_ops":0,"buffered_writes":0,"#,
        r#""degraded_time_ns":0,"drain_events":0,"drain_depth_max":0,"drain_time_ns":0,"windows":[]},"#,
        r#""telemetry":{"spans":2,"phase_ns":[1200,0,0,800,500,0,0,0],"phase_ops":[2,0,0,1,1,0,0,0],"#,
        r#""phase_hists":[[],[],[],[],[],[],[],[]],"window_ns":1000000,"#,
        r#""windows":[[0,1000000,2,9,2,6,3,2500,0,0,1,4,0,2,[]]]}}}"#,
    );
    assert_eq!(row_to_json(&row).to_string(), golden);
    // And the golden string decodes back to the same row content.
    let decoded = fcache::row_from_json(&Json::parse(golden).unwrap()).expect("decode golden");
    assert_eq!(decoded.index, 4);
    assert_eq!(decoded.label, "naive/64G");
    assert_eq!(decoded.report, row.report);
}

/// The labels of [`grid_sweep`]'s 16 jobs, in job order.
const GRID_LABELS: [&str; 16] = [
    "noflash/ws=16G wr=10% seed=26",
    "noflash/ws=16G wr=30% seed=46",
    "noflash/ws=24G wr=10% seed=34",
    "noflash/ws=24G wr=30% seed=54",
    "naive/ws=16G wr=10% seed=26",
    "naive/ws=16G wr=30% seed=46",
    "naive/ws=24G wr=10% seed=34",
    "naive/ws=24G wr=30% seed=54",
    "lookaside/ws=16G wr=10% seed=26",
    "lookaside/ws=16G wr=30% seed=46",
    "lookaside/ws=24G wr=10% seed=34",
    "lookaside/ws=24G wr=30% seed=54",
    "unified/ws=16G wr=10% seed=26",
    "unified/ws=16G wr=30% seed=46",
    "unified/ws=24G wr=10% seed=34",
    "unified/ws=24G wr=30% seed=54",
];

/// The 16-job grid every resume test runs: 4 configurations × 4 workload
/// specs, one scenario per cell labeled `<config>/<spec label>`, in
/// config-major order ([`GRID_LABELS`]).
fn grid_sweep(wb: &Workbench) -> (Sweep<'_>, usize) {
    let specs: Vec<WorkloadSpec> = [(16u64, 0.1), (16, 0.3), (24, 0.1), (24, 0.3)]
        .into_iter()
        .map(|(ws, wf)| WorkloadSpec {
            working_set: ByteSize::gib(ws),
            write_fraction: wf,
            seed: ws + (wf * 100.0) as u64,
            ..WorkloadSpec::default()
        })
        .collect();
    let cfgs = [
        ("noflash", ByteSize::ZERO, Architecture::Naive),
        ("naive", ByteSize::gib(16), Architecture::Naive),
        ("lookaside", ByteSize::gib(16), Architecture::Lookaside),
        ("unified", ByteSize::gib(16), Architecture::Unified),
    ];
    let mut sweep = Sweep::new();
    let mut labels = Vec::new();
    for (cfg_label, flash, arch) in cfgs {
        let cfg = SimConfig {
            arch,
            flash_size: flash,
            ..SimConfig::baseline()
        };
        for spec in &specs {
            let label = format!("{cfg_label}/{}", spec.label());
            labels.push(label.clone());
            sweep = sweep.scenario(label, wb.scenario(&cfg, spec));
        }
    }
    assert_eq!(labels, GRID_LABELS);
    let jobs = sweep.len();
    (sweep, jobs)
}

#[test]
fn killed_and_resumed_sweep_matches_uninterrupted_row_set() {
    let dir = std::env::temp_dir();
    let full_path = dir.join("fcache_results_full.jsonl");
    let resumed_path = dir.join("fcache_results_resumed.jsonl");
    let wb = Workbench::new(16384, 42);

    // Uninterrupted reference run.
    let mut sink = JsonlSink::create(&full_path).expect("create");
    let (sweep, jobs) = grid_sweep(&wb);
    assert_eq!(jobs, 16);
    let results = sweep.threads(4).run(&mut sink);
    assert!(results.first_error().is_none());
    assert!(results.sink_error().is_none());
    drop(sink);
    let full_text = std::fs::read_to_string(&full_path).expect("read full");
    let full_lines: Vec<&str> = full_text.lines().collect();
    assert_eq!(full_lines.len(), 16);

    // Simulate a kill after 7 complete rows plus a torn eighth line (what
    // a flush-per-row writer leaves when the process dies mid-write).
    let torn = full_lines[7];
    let partial: String = full_lines[..7]
        .iter()
        .map(|l| format!("{l}\n"))
        .collect::<String>()
        + &torn[..torn.len() / 2];
    std::fs::write(&resumed_path, &partial).expect("write partial");

    // Resume: one scan truncates the torn tail and returns the 7 finished
    // rows; the sweep checks and skips them and appends the missing 9.
    let (mut sink, seen) = JsonlSink::resume(&resumed_path).expect("resume sink");
    assert_eq!(seen.len(), 7);
    let (sweep, _) = grid_sweep(&wb);
    let results = sweep
        .resume(&resumed_path, &seen)
        .expect("rows belong to this sweep")
        .threads(4)
        .run(&mut sink);
    assert!(results.first_error().is_none());
    assert!(results.sink_error().is_none());
    assert_eq!(results.skipped(), 7, "finished jobs must not rerun");
    drop(sink);

    // The resumed file's row *set* is byte-identical to the uninterrupted
    // run's (order differs: resumed rows keep their original positions,
    // new rows land in completion order).
    let resumed_text = std::fs::read_to_string(&resumed_path).expect("read resumed");
    let mut full_sorted: Vec<&str> = full_text.lines().collect();
    let mut resumed_sorted: Vec<&str> = resumed_text.lines().collect();
    assert_eq!(resumed_sorted.len(), 16);
    full_sorted.sort_unstable();
    resumed_sorted.sort_unstable();
    assert_eq!(resumed_sorted, full_sorted);

    // And both decode to 16 schema-checked rows, one per grid label, each
    // at its job's index.
    let mut rows = read_rows(&resumed_path).expect("decode resumed");
    rows.sort_by_key(|r| r.index);
    let labels: Vec<(usize, &str)> = rows.iter().map(|r| (r.index, r.label.as_str())).collect();
    let want: Vec<(usize, &str)> = GRID_LABELS.into_iter().enumerate().collect();
    assert_eq!(labels, want);

    let _ = std::fs::remove_file(&full_path);
    let _ = std::fs::remove_file(&resumed_path);
}

#[test]
fn resume_with_complete_file_skips_everything() {
    let dir = std::env::temp_dir();
    let path = dir.join("fcache_results_complete.jsonl");
    let wb = Workbench::new(16384, 42);

    let mut sink = JsonlSink::create(&path).expect("create");
    let (sweep, _) = grid_sweep(&wb);
    sweep.threads(4).run(&mut sink);
    drop(sink);
    let before = std::fs::read_to_string(&path).expect("read");

    let (mut sink, seen) = JsonlSink::resume(&path).expect("resume");
    assert_eq!(seen.len(), 16);
    let (sweep, _) = grid_sweep(&wb);
    let results = sweep
        .resume(&path, &seen)
        .expect("rows belong to this sweep")
        .run(&mut sink);
    assert_eq!(results.skipped(), 16);
    drop(sink);
    // Nothing reran, nothing was rewritten: the file is untouched.
    assert_eq!(std::fs::read_to_string(&path).expect("read"), before);
    let _ = std::fs::remove_file(&path);
}

/// Writes a one-job sweep under `written`, then asserts that a sweep of
/// `asked` under the same label refuses the file's row and leaves the file
/// untouched.
fn assert_resume_refused(file: &str, written: &SimConfig, asked: &SimConfig) {
    let path = std::env::temp_dir().join(file);
    let wb = Workbench::new(16384, 42);
    let spec = WorkloadSpec {
        working_set: ByteSize::gib(16),
        ..WorkloadSpec::default()
    };
    let sweep = |cfg: &SimConfig| Sweep::new().scenario("naive", wb.scenario(cfg, &spec));
    let mut sink = JsonlSink::create(&path).expect("create");
    let results = sweep(written).run(&mut sink);
    assert!(results.first_error().is_none());
    drop(sink);
    let before = std::fs::read(&path).expect("read");

    let (_sink, seen) = JsonlSink::resume(&path).expect("resume sink");
    assert_eq!(seen.len(), 1);
    let err = sweep(asked).resume(&path, &seen).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("different configuration"), "{msg}");
    assert!(msg.contains(&format!("row {:?}", seen[0].label)), "{msg}");
    assert!(msg.contains(&path.display().to_string()), "{msg}");
    assert_eq!(std::fs::read(&path).expect("read"), before);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn resume_refuses_rows_from_another_configuration_under_the_same_labels() {
    // A label names what its caller chose, here the architecture alone:
    // two sweeps that differ only in a writeback policy write the same
    // labels. The second must not take the first's rows.
    assert_resume_refused(
        "fcache_results_other_config.jsonl",
        &SimConfig::baseline(),
        &SimConfig {
            flash_policy: WritebackPolicy::WriteThrough,
            ..SimConfig::baseline()
        },
    );
}

#[test]
fn resume_refuses_a_fifo_row_for_an_lru_job() {
    // The replacement policy is part of what a row ran, though no label
    // of this sweep names it.
    assert_resume_refused(
        "fcache_results_fifo_for_lru.jsonl",
        &SimConfig {
            replacement: EvictionPolicy::Fifo,
            ..SimConfig::baseline()
        },
        &SimConfig::baseline(),
    );
}

#[test]
fn every_field_off_baseline_changes_the_config_encoding() {
    // `config_to_json` destructures `SimConfig`, so a new field does not
    // compile until it is encoded or skipped; this pins that each encoded
    // field reaches the bytes. One row per field (one per `flash_model`
    // part), each differing from the baseline in that field alone.
    fn with(edit: impl FnOnce(&mut SimConfig)) -> SimConfig {
        let mut cfg = SimConfig::baseline();
        edit(&mut cfg);
        cfg
    }
    let us = SimTime::from_micros;
    let fleet = FleetTopology {
        cell: 0,
        cells: 1,
        host_base: 0,
        fleet_hosts: 1,
        hosts_per_segment: 1,
    };
    let cases = [
        ("arch", with(|c| c.arch = Architecture::Unified)),
        ("ram_size", with(|c| c.ram_size = ByteSize::gib(4))),
        ("flash_size", with(|c| c.flash_size = ByteSize::ZERO)),
        (
            "ram_policy",
            with(|c| c.ram_policy = WritebackPolicy::WriteThrough),
        ),
        (
            "flash_policy",
            with(|c| c.flash_policy = WritebackPolicy::Periodic(5)),
        ),
        ("flash_model.read", with(|c| c.flash_model.read = us(40))),
        ("flash_model.write", with(|c| c.flash_model.write = us(9))),
        (
            "flash_model.persistent",
            with(|c| c.flash_model.persistent = true),
        ),
        (
            "flash_timing",
            with(|c| c.flash_timing = FlashTiming::Ssd(SsdConfig::auto())),
        ),
        ("device_window", with(|c| c.device_window = 1000)),
        ("prefetch", with(|c| c.prefetch = 0.8)),
        (
            "populate_flash_on_read",
            with(|c| c.populate_flash_on_read = false),
        ),
        (
            "inclusive_promotion",
            with(|c| c.inclusive_promotion = false),
        ),
        (
            "charge_flash_read_on_writeback",
            with(|c| c.charge_flash_read_on_writeback = false),
        ),
        ("duplex_network", with(|c| c.duplex_network = true)),
        ("log_flash_io", with(|c| c.log_flash_io = true)),
        (
            "replacement",
            with(|c| c.replacement = EvictionPolicy::Clock),
        ),
        ("min_runtime", with(|c| c.min_runtime = Some(us(5)))),
        ("syncer_window", with(|c| c.syncer_window = 8)),
        ("time_scale", with(|c| c.time_scale = 64)),
        ("shards", with(|c| c.shards = 2)),
        ("replicas", with(|c| (c.shards, c.replicas) = (2, 2))),
        ("hedge", with(|c| c.hedge = Some(us(200)))),
        (
            "fault_plan",
            with(|c| c.fault_plan = FaultPlan::parse("filer:outage@1s-2s").unwrap()),
        ),
        ("degraded", with(|c| c.degraded = DegradedPolicy::FailFast)),
        (
            "telemetry_windows",
            with(|c| c.telemetry_windows = Some(us(10))),
        ),
        ("fleet", with(|c| c.fleet = Some(fleet))),
        ("seed", with(|c| c.seed = 7)),
    ];
    let baseline = config_to_json(&SimConfig::baseline());
    for (field, cfg) in &cases {
        assert_ne!(
            config_to_json(cfg),
            baseline,
            "{field} left the encoding unchanged"
        );
    }
    // Each SSD parameter `FlashTiming::describe` leaves out, against the
    // auto-sized device the flags give.
    let ssd = |edit: fn(&mut SsdConfig)| {
        let mut sc = SsdConfig::auto();
        edit(&mut sc);
        config_to_json(&with(|c| c.flash_timing = FlashTiming::Ssd(sc)))
    };
    let auto = ssd(|_| {});
    for (field, tuned) in [
        ("region_shift", ssd(|sc| sc.region_shift = 4)),
        ("map_cache_slots", ssd(|sc| sc.map_cache_slots = 64)),
        ("read_miss_factor", ssd(|sc| sc.read_miss_factor = 3.0)),
        ("fill_read_penalty", ssd(|sc| sc.fill_read_penalty = 0.5)),
        ("wear_read_penalty", ssd(|sc| sc.wear_read_penalty = 0.5)),
        ("seed", ssd(|sc| sc.seed = 7)),
    ] {
        assert_ne!(tuned, auto, "ssd {field} left the encoding unchanged");
    }
    // A fitted or scaled device derives its tuning, which adds no key.
    let fitted = SsdConfig::auto().fit_capacity(1 << 16);
    let fitted = config_to_json(&with(|c| c.flash_timing = FlashTiming::Ssd(fitted)));
    assert!(fitted.get("ssd_tuning").is_none());
    // Where spans go is not what the run does.
    let traced = with(|c| c.trace_out = Some("spans.jsonl".into()));
    assert_eq!(config_to_json(&traced), baseline);
}

#[test]
fn memory_sink_collects_the_grid_in_job_order() {
    let wb = Workbench::new(16384, 42);
    let mut mem = MemorySink::new();
    let (sweep, jobs) = grid_sweep(&wb);
    let results = sweep.threads(4).run(&mut mem);
    assert!(results.first_error().is_none());
    let rows = mem.into_rows();
    assert_eq!(rows.len(), jobs);
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(row.index, i);
        assert_eq!(row.label, results.items()[i].label);
    }
}

#[test]
fn scan_refuses_other_schemas_instead_of_truncating() {
    // A results file from a future schema must not satisfy resume — and
    // it must NOT be silently truncated to nothing either (that would
    // destroy a completed run's data). It is an error the user sees.
    let dir = std::env::temp_dir();
    let path = dir.join("fcache_results_other_schema.jsonl");
    let row = ResultRow {
        index: 0,
        label: "x".into(),
        config: SimConfig::baseline(),
        report: SimReport::default(),
    };
    let line = row_to_json(&row).to_string().replacen(
        &format!("\"schema\":{REPORT_SCHEMA}"),
        &format!("\"schema\":{}", REPORT_SCHEMA + 1),
        1,
    );
    let content = format!("{line}\n");
    std::fs::write(&path, &content).unwrap();
    let err = scan_jsonl(&path).unwrap_err();
    assert!(err.to_string().contains("schema"), "{err}");
    let err = JsonlSink::resume(&path).unwrap_err();
    assert!(err.to_string().contains("refusing to truncate"), "{err}");
    // The file is untouched.
    assert_eq!(std::fs::read_to_string(&path).unwrap(), content);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn scan_tolerates_a_tail_torn_mid_utf8_character() {
    // Labels may contain multibyte characters; a kill can land between
    // their bytes. That is still "torn final line", not an I/O error.
    let dir = std::env::temp_dir();
    let path = dir.join("fcache_results_torn_utf8.jsonl");
    let row = |label: &str| {
        row_to_json(&ResultRow {
            index: 0,
            label: label.into(),
            config: SimConfig::baseline(),
            report: SimReport::default(),
        })
        .to_string()
    };
    let good = row("tiny-αβ");
    let torn = row("später");
    let cut = torn.find('ä').unwrap() + 1; // one byte into the 2-byte 'ä'
    let mut bytes = format!("{good}\n").into_bytes();
    bytes.extend_from_slice(&torn.as_bytes()[..cut]);
    std::fs::write(&path, &bytes).unwrap();
    let (valid, rows) = scan_jsonl(&path).unwrap();
    assert_eq!(valid as usize, good.len() + 1);
    let labels: Vec<&str> = rows.iter().map(|r| r.label.as_str()).collect();
    assert_eq!(labels, ["tiny-αβ"]);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn resume_with_duplicate_labels_is_refused_instead_of_skipping_blind() {
    // Two jobs with one label cannot be told apart by a results file;
    // resuming such a sweep would silently skip a job that never ran.
    let wb = Workbench::new(16384, 42);
    let spec = WorkloadSpec {
        working_set: ByteSize::gib(16),
        ..WorkloadSpec::default()
    };
    let row = DecodedRow {
        index: 0,
        label: "dup".into(),
        config: Json::Null,
        report: SimReport::default(),
    };
    let err = Sweep::new()
        .scenario("dup", wb.scenario(&SimConfig::baseline(), &spec))
        .scenario("dup", wb.scenario(&SimConfig::baseline(), &spec))
        .resume("dup.jsonl", &[row])
        .expect_err("duplicate labels refuse to resume");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert_eq!(
        err.to_string(),
        "dup.jsonl: job label \"dup\" names two jobs; refusing to resume"
    );
}
