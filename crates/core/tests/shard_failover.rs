//! Sharded remote tier end to end: the single-shard/replication-1 config
//! must be bit-identical to the plain filer engine (invariant 11); a
//! single-shard outage at replication >= 2 must lose zero acknowledged
//! writes and re-replicate the under-replicated blocks once the shard
//! returns; hedged reads must engage (and stay deterministic) when a
//! hedge delay is configured.

use fcache::{run_trace, DegradedPolicy, SimConfig, Workbench, WorkloadSpec};
use fcache_des::SimTime;
use fcache_types::{FaultPlan, Trace};

const SCALE: u64 = 4096;

fn workbench_trace() -> Trace {
    Workbench::new(SCALE, 42).make_trace(&WorkloadSpec::baseline_60g())
}

/// Baseline config with a shard topology, at test scale.
fn sharded(shards: u16, replicas: u16) -> SimConfig {
    SimConfig {
        shards,
        replicas,
        ..SimConfig::baseline()
    }
    .scaled_down(SCALE)
}

#[test]
fn single_shard_replication_one_is_the_filer_engine() {
    // Invariant 11: shards=1 x replicas=1 with no shard fault clauses is
    // the default store — shard 0 on the base seeds — so the run is the
    // pre-remote filer engine bit for bit, including the DES event count,
    // and the report carries no shard section.
    let trace = workbench_trace();
    let plain = run_trace(&SimConfig::baseline().scaled_down(SCALE), &trace).expect("plain");
    let single = run_trace(&sharded(1, 1), &trace).expect("single-shard");
    assert!(
        !single.shard.engaged(),
        "1x1 must not engage the remote tier"
    );
    assert_eq!(plain.events, single.events, "event counts must match");
    assert_eq!(format!("{plain:?}"), format!("{single:?}"));
}

#[test]
fn sharded_runs_are_deterministic_and_report_topology() {
    let trace = workbench_trace();
    let cfg = sharded(4, 2);
    let r = run_trace(&cfg, &trace).expect("sharded run");
    assert!(r.shard.engaged());
    assert_eq!(r.shard.shards, 4);
    assert_eq!(r.shard.replicas, 2);
    assert_eq!(r.shard.per_shard.len(), 4);
    let served: u64 = r
        .shard
        .per_shard
        .iter()
        .map(|s| s.fast_reads + s.slow_reads + s.writes)
        .sum();
    assert!(served > 0, "shards must serve traffic");
    // Fault-free: no failovers, no under-replication, no hedging (no delay).
    assert_eq!(r.shard.remote.failovers, 0);
    assert_eq!(r.shard.remote.under_intervals, 0);
    assert_eq!(r.shard.remote.hedges_launched, 0);

    let again = run_trace(&cfg, &trace).expect("repeat sharded run");
    assert_eq!(format!("{again:?}"), format!("{r:?}"));
}

#[test]
fn shard_outage_at_replication_two_loses_no_acknowledged_write() {
    // The headline acceptance test: 4 shards, replication 2, one shard dies
    // mid-run. Reads fail over to the surviving replica; writes to the dead
    // shard are acknowledged by the live replica and marked
    // under-replicated; the recovery pass re-replicates them when the shard
    // returns. Nothing fails, nothing is lost.
    let trace = workbench_trace();
    let clean = run_trace(&sharded(4, 2), &trace).expect("clean sharded");
    let mut cfg = sharded(4, 2);
    cfg.fault_plan = FaultPlan::parse("shard1:outage@40s-60s").expect("valid spec");
    let r = run_trace(&cfg, &trace).expect("faulted sharded run");

    assert_eq!(r.robustness.failed_ops, 0, "no op may fail at R=2");
    assert!(
        r.shard.remote.failovers > 0,
        "reads with a dead primary must fail over"
    );
    assert!(
        r.shard.remote.under_peak > 0,
        "writes during the outage must go under-replicated"
    );
    assert!(
        r.shard.remote.re_replicated_blocks > 0,
        "recovery must re-replicate once the shard returns"
    );
    assert_eq!(
        r.shard.remote.under_now, 0,
        "every under-replicated block must be healed by run end"
    );
    assert!(r.shard.per_shard[1].outage_ns > 0, "outage is attributed");

    // The shard outage is one availability window, and replication keeps
    // availability at 100%: every remote fetch first attempted inside the
    // window ultimately succeeded via the surviving replica.
    assert_eq!(r.robustness.windows.len(), 1, "one distinct shard window");
    let w = &r.robustness.windows[0];
    assert!(w.ops > 0, "remote fetches landed inside the outage window");
    assert_eq!(w.ok, w.ops, "failover keeps in-window availability at 1.0");

    // Zero rows lost: the op/block tallies are decided by the trace alone.
    assert_eq!(r.metrics.read_ops, clean.metrics.read_ops);
    assert_eq!(r.metrics.write_ops, clean.metrics.write_ops);
    assert_eq!(r.metrics.read_blocks, clean.metrics.read_blocks);
    assert_eq!(r.metrics.write_blocks, clean.metrics.write_blocks);

    // Deterministic, fault handling included.
    let again = run_trace(&cfg, &trace).expect("repeat faulted run");
    assert_eq!(format!("{again:?}"), format!("{r:?}"));
}

#[test]
fn replication_one_fails_where_replication_two_survives() {
    // Same outage, fail-fast policy: with no replica to fall back on,
    // reads whose primary is down must fail; with replication 2 they must
    // not.
    let trace = workbench_trace();
    let outage = |replicas: u16| {
        let mut cfg = sharded(4, replicas);
        cfg.fault_plan = FaultPlan::parse("shard1:outage@40s-60s").unwrap();
        cfg.degraded = DegradedPolicy::FailFast;
        run_trace(&cfg, &trace).expect("run")
    };
    let r1 = outage(1);
    let r2 = outage(2);
    assert!(
        r1.robustness.failed_ops > 0,
        "R=1 has nowhere to fail over to"
    );
    assert_eq!(r2.robustness.failed_ops, 0, "R=2 survives the same outage");
}

#[test]
fn replication_one_parks_writes_through_an_outage_instead_of_dropping_them() {
    // At R=1 a write whose only replica goes down mid-retry (the flaky
    // wire keeps it retrying into the outage) has no other copy to lean
    // on: it must park until the shard returns, never ack under-replicated.
    let trace = workbench_trace();
    for (shards, spec) in [
        (2, "net:err0.9@20s-40s;shard*:outage@40s-60s"),
        (1, "net:err0.9@20s-40s;shard0:outage@40s-60s"),
    ] {
        let mut cfg = sharded(shards, 1);
        cfg.fault_plan = FaultPlan::parse(spec).expect("valid spec");
        let r = run_trace(&cfg, &trace).expect("faulted run");
        let rem = &r.shard.remote;
        assert!(r.robustness.retries > 0, "{spec}: the flaky wire retries");
        assert!(r.robustness.queued_ops > 0, "{spec}: writes park");
        assert_eq!(rem.under_peak, 0, "{spec}: no write acked without a copy");
        assert_eq!(rem.under_now, 0, "{spec}: no write left stored nowhere");
        assert_eq!(rem.re_replicated_blocks, 0, "{spec}: nothing to repair");
    }
}

#[test]
fn strict_policy_names_the_offending_shard_clause() {
    let trace = workbench_trace();
    let mut cfg = sharded(2, 1);
    cfg.fault_plan = FaultPlan::parse("shard*:outage@40s-60s").unwrap();
    cfg.degraded = DegradedPolicy::Strict;
    let err = run_trace(&cfg, &trace).expect_err("strict run must fail");
    assert!(
        err.to_string().contains("shard"),
        "error names the shard clause: {err}"
    );
}

#[test]
fn hedged_reads_engage_and_stay_deterministic() {
    // A hedge delay well below the shard service time forces hedges on
    // most remote reads; the counters must balance and repeat runs must be
    // bit-identical (the race is resolved inside the deterministic DES).
    let trace = workbench_trace();
    let mut cfg = sharded(4, 2);
    cfg.hedge = Some(SimTime::from_micros(50));
    let r = run_trace(&cfg, &trace).expect("hedged run");
    let rem = &r.shard.remote;
    assert!(rem.hedges_launched > 0, "hedges must launch");
    assert!(
        rem.hedges_won + rem.hedges_cancelled <= rem.hedges_launched,
        "hedge outcomes cannot exceed launches"
    );
    assert!(r.shard.hedge_ns > 0, "report records the hedge delay");

    let again = run_trace(&cfg, &trace).expect("repeat hedged run");
    assert_eq!(format!("{again:?}"), format!("{r:?}"));

    // Hedging alone never changes what is read or written.
    let unhedged = run_trace(&sharded(4, 2), &trace).expect("unhedged");
    assert_eq!(r.metrics.read_ops, unhedged.metrics.read_ops);
    assert_eq!(r.metrics.write_ops, unhedged.metrics.write_ops);
}

#[test]
fn retry_jitter_is_bit_identical_across_repeated_runs() {
    // Satellite: the retry/backoff jitter draws come from the seeded fault
    // RNG, so two identical flaky-net runs must agree on every retry and
    // every latency, bit for bit — sharded or not.
    let trace = workbench_trace();
    let mut cfg = sharded(2, 2);
    cfg.fault_plan = FaultPlan::parse("net:err0.5@20s-80s").unwrap();
    let a = run_trace(&cfg, &trace).expect("first flaky run");
    let b = run_trace(&cfg, &trace).expect("second flaky run");
    assert!(a.robustness.retries > 0, "flaky net must force retries");
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}
