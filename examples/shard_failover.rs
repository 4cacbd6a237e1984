//! Sharded remote tier: replication factors 1–3 through a mid-run shard
//! outage.
//!
//! The filer is sharded four ways; shard 1 dies for 20 s mid-run. At
//! replication 1 the dead shard's blocks have nowhere else to live:
//! reads park until recovery (queue policy). At replication 2 and 3
//! reads fail over to a surviving replica and writes are acknowledged by
//! the live replicas — the outage costs almost nothing, and the recovery
//! pass re-replicates the under-replicated blocks once the shard
//! returns. A final run adds hedged reads, racing a second replica when
//! the first is slow.
//!
//! Run with: `cargo run --release --example shard_failover [scale]`

use fcache::{SimConfig, Workbench, WorkloadSpec};
use fcache_device::SimTime;
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
    let plan = FaultPlan::parse("shard1:outage@40s-60s").expect("spec");
    let sharded = |replicas| SimConfig {
        shards: 4,
        replicas,
        fault_plan: plan.clone(),
        ..SimConfig::baseline()
    };

    println!("60 GB working set, 4 shards, 20 s shard-1 outage at t=40 s, scale 1/{scale}\n");
    println!(
        "{:>9} | {:>9} {:>9} {:>7} {:>7} {:>9} {:>9} {:>7}",
        "replicas", "read us", "write us", "queued", "failed", "failover", "re-repl", "healed"
    );

    for replicas in 1u16..=3 {
        let report = wb
            .scenario(&sharded(replicas), &spec)
            .run()
            .expect("faulted sharded run");
        let rs = &report.robustness;
        let rem = &report.shard.remote;
        println!(
            "{:>9} | {:>9.1} {:>9.2} {:>7} {:>7} {:>9} {:>9} {:>7}",
            replicas,
            report.read_latency_us(),
            report.write_latency_us(),
            rs.queued_ops,
            rs.failed_ops,
            rem.failovers,
            rem.re_replicated_blocks,
            if rem.under_now == 0 { "yes" } else { "no" },
        );
    }

    // Hedged reads on top of replication 2: race a second replica when
    // the first is silent for 500 µs. The hedge also masks the outage —
    // a dead primary simply loses the race.
    let hedged_cfg = SimConfig {
        hedge: Some(SimTime::from_micros(500)),
        ..sharded(2)
    };
    let hedged = wb.scenario(&hedged_cfg, &spec).run().expect("hedged run");
    let rem = &hedged.shard.remote;
    println!(
        "\nhedged (R=2, 500 us): read {:.1} us/block, {} hedges launched, {} won, {} cancelled",
        hedged.read_latency_us(),
        rem.hedges_launched,
        rem.hedges_won,
        rem.hedges_cancelled,
    );
}
