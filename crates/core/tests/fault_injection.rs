//! Fault injection end to end: a mid-run filer outage must engage the
//! client robustness layer (parked misses, buffered writes, recovery
//! drains) without losing operations; degraded policies must differ in
//! exactly the documented ways; and an empty plan must leave the report's
//! robustness section untouched.

use fcache::{
    run_trace, DegradedPolicy, FlashTiming, RobustnessStats, SimConfig, SimError, Workbench,
    WorkloadSpec, WritebackPolicy,
};
use fcache_device::{SimTime, SsdConfig};
use fcache_types::{ByteSize, FaultPlan, Trace};

const SCALE: u64 = 4096;

fn workbench_trace() -> Trace {
    Workbench::new(SCALE, 42).make_trace(&WorkloadSpec::baseline_60g())
}

/// Baseline config with a fault spec, at test scale.
fn faulted(spec: &str) -> SimConfig {
    SimConfig {
        fault_plan: FaultPlan::parse(spec).expect("valid spec"),
        ..SimConfig::baseline()
    }
    .scaled_down(SCALE)
}

#[test]
fn clean_runs_report_no_robustness_activity() {
    let trace = workbench_trace();
    let cfg = SimConfig::baseline().scaled_down(SCALE);
    let r = run_trace(&cfg, &trace).expect("clean run");
    assert_eq!(r.robustness, RobustnessStats::default());
    assert!(!r.robustness.engaged());
}

#[test]
fn midrun_filer_outage_parks_misses_and_loses_nothing() {
    let trace = workbench_trace();
    let clean = run_trace(&SimConfig::baseline().scaled_down(SCALE), &trace).expect("clean");
    let cfg = faulted("filer:outage@40s-60s");
    let r = run_trace(&cfg, &trace).expect("faulted run");

    let rs = &r.robustness;
    assert!(rs.engaged(), "outage must engage the robustness layer");
    assert!(rs.degraded_time > SimTime::ZERO, "outage overlaps the run");
    assert!(
        rs.queued_ops > 0,
        "misses and flushes park during the outage"
    );
    assert_eq!(rs.failed_ops, 0, "queue policy never gives up");
    for w in &rs.windows {
        assert!(w.ok <= w.ops, "window tallies stay coherent: {w:?}");
    }

    // Zero rows lost: parking delays ops, it never drops them. The
    // post-warmup op/block tallies are decided by the trace alone.
    assert_eq!(r.metrics.read_ops, clean.metrics.read_ops);
    assert_eq!(r.metrics.write_ops, clean.metrics.write_ops);
    assert_eq!(r.metrics.read_blocks, clean.metrics.read_blocks);
    assert_eq!(r.metrics.write_blocks, clean.metrics.write_blocks);

    // (No latency ordering is asserted: parking delays the parked reads
    // but also reshuffles cache contents and contention, so the
    // post-warmup mean can move either way by a hair.)

    // Same plan, same seed, same report: fault handling is part of the
    // deterministic simulation.
    let again = run_trace(&cfg, &trace).expect("repeat faulted run");
    assert_eq!(format!("{again:?}"), format!("{r:?}"));
}

#[test]
fn failfast_fails_misses_during_the_outage() {
    let trace = workbench_trace();
    let mut cfg = faulted("filer:outage@40s-60s");
    cfg.degraded = DegradedPolicy::FailFast;
    let r = run_trace(&cfg, &trace).expect("failfast run");
    let rs = &r.robustness;
    assert!(rs.failed_ops > 0, "misses inside the outage must fail fast");
    let (ops, ok) = rs
        .windows
        .iter()
        .fold((0u64, 0u64), |(a, b), w| (a + w.ops, b + w.ok));
    assert!(
        ok < ops,
        "failed in-window fetches must dent availability ({ok}/{ops})"
    );
}

#[test]
fn strict_policy_surfaces_the_offending_clause() {
    let trace = workbench_trace();
    let mut cfg = faulted("filer:outage@40s-60s");
    cfg.degraded = DegradedPolicy::Strict;
    let err = run_trace(&cfg, &trace).expect_err("strict run must fail");
    let SimError::Faulted { clause } = &err else {
        panic!("expected SimError::Faulted, got {err:?}");
    };
    assert!(
        clause.contains("filer:outage"),
        "clause names the culprit: {clause:?}"
    );
    assert!(err.to_string().contains("strict degraded policy"), "{err}");
}

#[test]
fn writethrough_buffers_writes_through_the_outage_and_drains() {
    // Write-through RAM against the filer: an outage degrades those
    // writes to writeback-style buffering, and the recovery probe sees
    // the backlog drain once the filer returns.
    let trace = workbench_trace();
    let cfg = SimConfig {
        ram_policy: WritebackPolicy::WriteThrough,
        flash_size: ByteSize::ZERO,
        fault_plan: FaultPlan::parse("filer:outage@40s-60s").unwrap(),
        ..SimConfig::baseline()
    }
    .scaled_down(SCALE);
    let r = run_trace(&cfg, &trace).expect("write-through faulted run");
    let rs = &r.robustness;
    assert!(
        rs.buffered_writes > 0,
        "write-through must degrade to buffering during the outage"
    );
    assert!(rs.drain_events >= 1, "recovery must observe a drain");
    assert!(rs.drain_depth_max > 0);
    assert_eq!(rs.failed_ops, 0, "writes are never dropped");
}

#[test]
fn transient_net_errors_retry_with_backoff() {
    let trace = workbench_trace();
    let cfg = faulted("net:err0.5@20s-80s");
    let r = run_trace(&cfg, &trace).expect("flaky-net run");
    let rs = &r.robustness;
    assert!(rs.retries > 0, "transient failures must be retried");
    assert!(
        rs.timeouts >= rs.retries,
        "every retry was preceded by a timeout"
    );
}

#[test]
fn device_slowdown_inflates_device_service_times() {
    let trace = workbench_trace();
    let ssd = |spec: Option<&str>| {
        let mut cfg = SimConfig {
            flash_timing: FlashTiming::Ssd(SsdConfig::auto()),
            ..SimConfig::baseline()
        };
        if let Some(s) = spec {
            cfg.fault_plan = FaultPlan::parse(s).unwrap();
        }
        cfg.scaled_down(SCALE)
    };
    let clean = run_trace(&ssd(None), &trace).expect("clean ssd run");
    let slow = run_trace(&ssd(Some("device:slowx16@0s-100000s")), &trace).expect("slow ssd run");
    assert!(clean.device.ops() > 0 && slow.device.ops() > 0);
    assert!(
        slow.device.read_avg_us() > clean.device.read_avg_us(),
        "a 16x device slowdown must show up in device service times ({} vs {})",
        slow.device.read_avg_us(),
        clean.device.read_avg_us()
    );
}
