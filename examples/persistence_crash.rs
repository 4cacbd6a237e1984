//! Persistence experiment: a miniature Figure 10.
//!
//! §7.8: a persistent (recoverable) flash cache costs a second flash write
//! per block for metadata — invisible to the application — but saves the
//! cold-start penalty after a crash. The *not warmed* runs drop the warmup
//! half of the trace, "equivalent to having a non-persistent flash cache
//! and crashing at the start of the simulator run".
//!
//! Each working-set row is a two-job `Sweep` whose jobs replay *different*
//! workloads (the crash run drops the warmup half), so they go in as
//! per-job scenarios over streamed workloads — nothing is materialized.
//!
//! Run with: `cargo run --release --example persistence_crash [scale]`

use fcache::{SimConfig, Sweep, Workbench, WorkloadSpec};
use fcache_device::FlashModel;
use fcache_types::ByteSize;

fn main() {
    let scale: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("scale"))
        .unwrap_or(512);
    let wb = Workbench::new(scale, 42);

    println!("64 GB flash, 8 GB RAM, naive architecture, scale 1/{scale}\n");
    println!(
        "{:>8} | {:>22} {:>22} {:>18}",
        "WS", "warmed (persistent)", "not warmed (crash)", "cold-start penalty"
    );
    for ws_gib in [20u64, 40, 60, 80, 120] {
        let base = WorkloadSpec {
            working_set: ByteSize::gib(ws_gib),
            seed: ws_gib,
            ..WorkloadSpec::default()
        };

        // Warmed + persistent: metadata writes double the flash write
        // cost. Not warmed: cold caches see the measured half directly.
        let persistent_cfg = SimConfig {
            flash_model: FlashModel::default().with_persistence(true),
            ..SimConfig::baseline()
        };
        let crash_spec = WorkloadSpec {
            skip_warmup: true,
            ..base.clone()
        };
        let mut reports = Sweep::new()
            .scenario("warmed persistent", wb.scenario(&persistent_cfg, &base))
            .scenario(
                "crash not-warmed",
                wb.scenario(&SimConfig::baseline(), &crash_spec),
            )
            .reports()
            .expect("persistence sweep")
            .into_iter();
        let warmed = reports.next().expect("warmed report");
        let cold = reports.next().expect("cold report");

        let penalty =
            100.0 * (cold.read_latency_us() - warmed.read_latency_us()) / warmed.read_latency_us();
        println!(
            "{:>7}G | {:>18.1} us {:>18.1} us {:>17.1}%",
            ws_gib,
            warmed.read_latency_us(),
            cold.read_latency_us(),
            penalty
        );
    }
    println!("\nthe warmed runs pay doubled flash-write latency for recoverability —");
    println!("and it is invisible. the not-warmed runs show what a crash costs");
    println!("without persistence: the cache refills at file-server speed.");
}
