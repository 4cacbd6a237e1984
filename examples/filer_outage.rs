//! Fault injection: a mid-run filer outage under each degraded policy.
//!
//! The client robustness layer keeps cache hits flowing during an outage;
//! what happens to *misses* and write-through traffic is the
//! `DegradedPolicy` choice: `queue` parks them until the filer returns
//! (availability first), `failfast` fails them immediately (latency
//! first), `strict` turns the first casualty into a run error. Writes are
//! never dropped — write-through degrades to writeback-style buffering
//! and drains on recovery.
//!
//! Run with: `cargo run --release --example filer_outage [scale]`

use fcache::{DegradedPolicy, RobustnessConfig, SimConfig, Workbench, WorkloadSpec};
use fcache_types::{ByteSize, FaultPlan};

fn main() {
    let scale: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("scale"))
        .unwrap_or(512);
    let wb = Workbench::new(scale, 42);
    let spec = WorkloadSpec {
        working_set: ByteSize::gib(60),
        ..WorkloadSpec::default()
    };
    // Paper-scale clause: the window divides by the time scale with the
    // rest of the run, so the outage lands mid-run at any scale.
    let plan = FaultPlan::parse("filer:outage@40s-60s").expect("spec");
    let faulted = |degraded| SimConfig {
        fault_plan: plan.clone(),
        robustness: RobustnessConfig {
            degraded,
            ..RobustnessConfig::default()
        },
        ..SimConfig::baseline()
    };

    println!("60 GB working set, 20 s filer outage at t=40 s, scale 1/{scale}\n");
    println!(
        "{:>9} | {:>9} {:>9} {:>7} {:>7} {:>9} {:>10}",
        "policy", "read us", "write us", "queued", "failed", "buffered", "degraded"
    );

    let healthy = wb
        .scenario(&SimConfig::baseline(), &spec)
        .run()
        .expect("healthy run");
    println!(
        "{:>9} | {:>9.1} {:>9.2} {:>7} {:>7} {:>9} {:>10}",
        "none",
        healthy.read_latency_us(),
        healthy.write_latency_us(),
        "-",
        "-",
        "-",
        "-"
    );

    for policy in [DegradedPolicy::Queue, DegradedPolicy::FailFast] {
        let report = wb
            .scenario(&faulted(policy), &spec)
            .run()
            .expect("faulted run");
        let r = &report.robustness;
        println!(
            "{:>9} | {:>9.1} {:>9.2} {:>7} {:>7} {:>9} {:>10}",
            policy.label(),
            report.read_latency_us(),
            report.write_latency_us(),
            r.queued_ops,
            r.failed_ops,
            r.buffered_writes,
            format!("{}", r.degraded_time),
        );
    }

    // Strict: the same outage is a hard failure naming the clause.
    let err = wb
        .scenario(&faulted(DegradedPolicy::Strict), &spec)
        .run()
        .expect_err("strict must fail");
    println!("\nstrict: {err}");
}
