//! Sim-time telemetry end to end: phase attribution must be exact by
//! construction (the per-phase nanoseconds of every span sum to the op's
//! latency, in every engine mode), collecting telemetry must never change
//! the simulation (PERF.md invariant 12 — bit-identical reports including
//! the executor event count), the span stream must be deterministic and
//! identical across serial / parallel / streamed execution, and the wire
//! format of one span row is pinned against silent drift.

use fcache::{
    report_to_json, run_trace, Architecture, DegradedPolicy, FlashTiming, Scenario, SimConfig,
    SpanRow, Sweep, TelemetryStats, Workbench, Workload, WorkloadSpec,
};
use fcache_device::{SimTime, SsdConfig};
use fcache_types::{FaultPlan, OpKind, Phase, Trace};

const SCALE: u64 = 4096;

/// One engine-matrix case: reshapes the paper-scale baseline config.
type Shape = fn(SimConfig) -> SimConfig;

fn workbench() -> Workbench {
    Workbench::new(SCALE, 42)
}

fn trace() -> Trace {
    workbench().make_trace(&WorkloadSpec::baseline_60g())
}

/// Baseline config with 10 s (paper-scale) telemetry windows engaged and a
/// span stream to `path`, at test scale.
fn telemetered(path: &std::path::Path) -> SimConfig {
    SimConfig {
        telemetry_windows: Some(SimTime::from_micros(10_000_000)),
        trace_out: Some(path.into()),
        ..SimConfig::baseline()
    }
    .scaled_down(SCALE)
}

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(name)
}

#[test]
fn phase_sums_equal_latency_across_the_engine_matrix() {
    let trace = trace();
    // Every plane the attribution instrumentation touches: flat vs
    // queue-aware SSD timing, fault-free vs faulted, single-filer vs
    // sharded with hedged reads. Fault windows lie in the measured half of
    // each run (warmup ops carry no span), so their phases show: at 1/4096
    // that half spans about 980-1960 s of paper time on a flat single-filer
    // run and about 470-880 s on a sharded one.
    let cases: &[(&str, Shape)] = &[
        ("flat", |c| c),
        ("ssd", |c| SimConfig {
            flash_timing: FlashTiming::Ssd(SsdConfig::auto()),
            ..c
        }),
        ("faulted", |c| SimConfig {
            fault_plan: FaultPlan::parse("filer:outage@1200s-1300s;device:err0.1@1100s-1500s")
                .expect("spec"),
            ..c
        }),
        ("sharded", |c| SimConfig {
            shards: 4,
            replicas: 2,
            hedge: Some(SimTime::from_micros(200)),
            fault_plan: FaultPlan::parse("shard1:outage@700s-800s").expect("spec"),
            ..c
        }),
        ("ssd-faulted-sharded", |c| SimConfig {
            flash_timing: FlashTiming::Ssd(SsdConfig::auto()),
            shards: 4,
            replicas: 2,
            hedge: Some(SimTime::from_micros(200)),
            fault_plan: FaultPlan::parse("shard1:outage@700s-800s;device:err0.1@650s-900s")
                .expect("spec"),
            ..c
        }),
    ];
    // The phases each case must show beyond the ones every case does.
    let shows = |name: &str| -> &[Phase] {
        match name {
            "faulted" => &[Phase::RetryBackoff, Phase::DegradedPark],
            "sharded" | "ssd-faulted-sharded" => &[Phase::Net, Phase::Filer, Phase::Failover],
            _ => &[],
        }
    };
    for (name, shape) in cases {
        let path = tmp(&format!("fcache_test_phases_{name}.jsonl"));
        // Shape the paper-scale config first so its fault windows scale
        // down together with the telemetry window.
        let cfg = SimConfig {
            telemetry_windows: Some(SimTime::from_micros(10_000_000)),
            trace_out: Some(path.clone()),
            ..shape(SimConfig::baseline())
        }
        .scaled_down(SCALE);
        let r = run_trace(&cfg, &trace).unwrap_or_else(|e| panic!("{name}: {e}"));
        let rows = fcache::read_span_rows(&path).expect("readable span stream");
        assert!(!rows.is_empty(), "{name}: no spans");
        for row in &rows {
            assert_eq!(
                row.phase_sum(),
                row.latency_ns(),
                "{name}: op {} attribution must be exact",
                row.op
            );
        }
        // The in-report aggregate describes the same population.
        let t = &r.telemetry;
        assert!(t.engaged(), "{name}: report telemetry must engage");
        assert_eq!(t.spans, rows.len() as u64, "{name}: span count");
        assert_eq!(
            t.total_ns(),
            rows.iter().map(SpanRow::latency_ns).sum::<u64>(),
            "{name}: phase_ns sums to total span latency"
        );
        // The measured ops all probe the cache, so the probe phase tallies
        // every span; device service shows up whenever flash is hit.
        assert_eq!(t.phase_ops[Phase::CacheProbe.index()], t.spans, "{name}");
        assert!(t.phase_ns[Phase::DeviceService.index()] > 0, "{name}");
        for p in shows(name) {
            assert!(
                t.phase_ns[p.index()] > 0,
                "{name}: phase {} never entered",
                p.label()
            );
        }
        // Windows tile the measured interval and tally every span.
        assert!(t.window_ns > 0, "{name}");
        assert_eq!(
            t.windows.iter().map(|w| w.ops).sum::<u64>(),
            t.spans,
            "{name}: windows partition the spans"
        );
        for w in &t.windows {
            assert!(w.start_ns < w.end_ns, "{name}: ordered window");
        }
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn telemetry_changes_nothing_but_the_telemetry_section() {
    let trace = trace();
    let off = run_trace(&SimConfig::baseline().scaled_down(SCALE), &trace).expect("off");
    assert!(
        !off.telemetry.engaged(),
        "no telemetry knob set, none collected"
    );

    let path = tmp("fcache_test_invariant12.jsonl");
    let mut on = run_trace(&telemetered(&path), &trace).expect("on");
    let _ = std::fs::remove_file(&path);
    assert!(on.telemetry.engaged());
    assert!(on.telemetry.spans > 0);

    // Invariant 12: everything except the telemetry section — including
    // the executor event count — is bit-identical to the untelemetered
    // run. Spans and windows are bookkeeping on the op tasks; they spawn
    // nothing, sleep nowhere, and draw no randomness.
    on.telemetry = TelemetryStats::default();
    assert_eq!(
        format!("{on:?}"),
        format!("{off:?}"),
        "telemetry must be observation only"
    );
}

#[test]
fn span_stream_is_byte_identical_across_run_modes() {
    let wb = workbench();
    let trace = wb.make_trace(&WorkloadSpec::baseline_60g());

    // Serial, twice: the stream is a pure function of (config, workload).
    let p1 = tmp("fcache_test_spans_serial1.jsonl");
    let p2 = tmp("fcache_test_spans_serial2.jsonl");
    run_trace(&telemetered(&p1), &trace).expect("serial 1");
    run_trace(&telemetered(&p2), &trace).expect("serial 2");
    let reference = std::fs::read(&p1).expect("stream bytes");
    assert!(!reference.is_empty());
    assert_eq!(reference, std::fs::read(&p2).expect("bytes"), "rerun");

    // Parallel fan-out: same jobs through worker threads, each writing its
    // own stream file.
    let p3 = tmp("fcache_test_spans_par1.jsonl");
    let p4 = tmp("fcache_test_spans_par2.jsonl");
    let job = |p: &std::path::Path| Scenario::new(telemetered(p), Workload::trace(&trace));
    Sweep::new()
        .scenario("par1", job(&p3))
        .scenario("par2", job(&p4))
        .threads(2)
        .reports()
        .expect("parallel job");
    assert_eq!(reference, std::fs::read(&p3).expect("bytes"), "parallel");
    assert_eq!(reference, std::fs::read(&p4).expect("bytes"), "parallel");

    // Streamed workload: the job regenerates its ops chunk by chunk
    // instead of borrowing the resident trace.
    let p5 = tmp("fcache_test_spans_streamed.jsonl");
    let spec = WorkloadSpec::baseline_60g();
    let results = Sweep::new()
        .scenario(
            "streamed",
            Scenario::new(telemetered(&p5), wb.workload(&spec)),
        )
        .reports()
        .expect("streamed sweep");
    assert_eq!(results.len(), 1);
    assert_eq!(reference, std::fs::read(&p5).expect("bytes"), "streamed");

    for p in [p1, p2, p3, p4, p5] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn span_row_wire_format_is_pinned() {
    // One golden row: the exact bytes `--trace-out` writes for a span.
    // Phases with zero time are omitted; the kind is its label; times are
    // absolute sim nanoseconds.
    let row = SpanRow {
        op: 17,
        host: 2,
        kind: OpKind::Read,
        start_ns: 1_000_000,
        end_ns: 1_003_500,
        blocks: 8,
        phases: {
            let mut p = [0u64; Phase::COUNT];
            p[Phase::CacheProbe.index()] = 400;
            p[Phase::Net.index()] = 2_100;
            p[Phase::Filer.index()] = 1_000;
            p
        },
    };
    let golden = concat!(
        r#"{"op":17,"host":2,"kind":"read","start":1000000,"end":1003500,"#,
        r#""lat":3500,"blocks":8,"#,
        r#""phases":{"cache_probe":400,"net":2100,"filer":1000}}"#,
    );
    assert_eq!(row.to_json().to_string(), golden);
    assert_eq!(row.phase_sum(), row.latency_ns(), "golden row is coherent");

    // And it decodes back to the same row.
    let parsed = fcache_types::Json::parse(golden).expect("golden parses");
    let back = SpanRow::from_json(&parsed).expect("golden decodes");
    assert_eq!(format!("{back:?}"), format!("{row:?}"));
}

/// The exact `--trace-out` bytes and the encoded `telemetry` report
/// section of two small telemetered runs, one layered and one unified,
/// pinned by hash. Both runs engage every phase the engine attributes:
/// queue-aware SSD timing (`flash_queue`, `device_service`), transient
/// device errors (`retry_backoff`), hedged reads around an outage that
/// takes a whole replica ring down under the `Queue` degraded policy
/// (`failover`, `degraded_park`), and 4 shards × 2 replicas (`net`,
/// `filer`). The other telemetry tests compare runs within one build;
/// this one holds the span stream fixed across changes to the engine.
#[test]
fn span_stream_and_telemetry_section_are_pinned() {
    // (architecture, span-stream hash, telemetry-section hash)
    const PINS: [(Architecture, u64, u64); 2] = [
        (
            Architecture::Naive,
            0xd11b_f1ab_577e_1f3b,
            0x8469_7642_a3c7_8135,
        ),
        (
            Architecture::Unified,
            0x8945_dc7b_2e17_c210,
            0x529a_dc32_5f57_371f,
        ),
    ];
    let trace = trace();
    let mut got = Vec::new();
    for (arch, _, _) in PINS {
        let path = tmp(&format!("fcache_test_span_pin_{}.jsonl", arch.name()));
        let cfg = SimConfig {
            arch,
            flash_timing: FlashTiming::Ssd(SsdConfig::auto()),
            shards: 4,
            replicas: 2,
            hedge: Some(SimTime::from_micros(200)),
            fault_plan: FaultPlan::parse(
                "shard1:outage@700s-800s;shard2:outage@720s-780s;device:err0.1@650s-900s",
            )
            .expect("spec"),
            degraded: DegradedPolicy::Queue,
            telemetry_windows: Some(SimTime::from_micros(10_000_000)),
            trace_out: Some(path.clone()),
            ..SimConfig::baseline()
        }
        .scaled_down(SCALE);
        let r = run_trace(&cfg, &trace).expect("pinned run");
        let stream = std::fs::read(&path).expect("span stream bytes");
        let _ = std::fs::remove_file(&path);
        for p in Phase::ALL {
            assert!(
                r.telemetry.phase_ns[p.index()] > 0,
                "{}: phase {} never entered",
                arch.name(),
                p.label()
            );
        }
        let section = report_to_json(&r)
            .get("telemetry")
            .expect("engaged telemetry is encoded")
            .to_string();
        got.push((arch, fnv(stream), fnv(section.bytes())));
    }
    assert_eq!(got, PINS, "span stream or telemetry section moved");
}

/// FNV-1a (64-bit) over `bytes`.
fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
