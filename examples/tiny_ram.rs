//! Tiny-RAM experiment: a miniature Figure 6/7.
//!
//! §7.5's startling result: with a large flash cache, a *minuscule* RAM
//! cache (256 KB at paper scale — just a speed-matching write buffer)
//! performs comparably to the full 8 GB, as long as the RAM writeback
//! policy is asynchronous write-through. The freed RAM can go to the
//! application instead.
//!
//! The 16 configurations (8 RAM sizes × 2 writeback policies) run as one
//! labeled `Sweep` over the shared materialized trace.
//!
//! Run with: `cargo run --release --example tiny_ram [scale]`

use fcache::{Scenario, SimConfig, Sweep, Workbench, Workload, WorkloadSpec, WritebackPolicy};
use fcache_types::ByteSize;

fn main() {
    let scale: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("scale"))
        .unwrap_or(64);
    let wb = Workbench::new(scale, 42);
    let spec = WorkloadSpec::baseline_60g();
    let trace = wb.make_trace(&spec);

    // Paper-scale RAM sizes from Figure 6's x-axis. At scale `s`, a paper
    // size below s×4 KB would round to zero blocks, so sizes are floored at
    // one scaled block and reported with their effective value.
    let sizes = [
        ByteSize::ZERO,
        ByteSize::kib(256),
        ByteSize::mib(1),
        ByteSize::mib(16),
        ByteSize::mib(64),
        ByteSize::mib(256),
        ByteSize::gib(1),
        ByteSize::gib(8),
    ];

    println!("60 GB working set, 64 GB flash, scale 1/{scale}");
    println!(
        "{:>10} {:>10} | {:>12} {:>13} | {:>12} {:>13}",
        "RAM", "scaled", "read(a) us", "write(a) us", "read(p1) us", "write(p1) us"
    );
    // One labeled job per (RAM size, policy): 16 configurations fanned
    // out over the shared trace in a single sweep.
    let mut sweep = Sweep::new();
    for ram in sizes {
        for policy in [
            WritebackPolicy::AsyncWriteThrough,
            WritebackPolicy::Periodic(1),
        ] {
            let mut scaled_ram = ram.scaled_down(scale);
            if !ram.is_zero() && scaled_ram.blocks() == 0 {
                scaled_ram = ByteSize::bytes_exact(4096); // floor: one block
            }
            let cfg = SimConfig {
                ram_size: scaled_ram,
                ram_policy: policy,
                ..SimConfig::baseline().scaled_down(scale)
            };
            let job = Scenario::new(cfg, Workload::trace(&trace));
            sweep = sweep.scenario(format!("ram={ram} {}", policy.label()), job);
        }
    }
    let mut results = sweep.reports().expect("tiny-RAM sweep").into_iter();

    for ram in sizes {
        let row: Vec<(f64, f64)> = (0..2)
            .map(|_| {
                let r = results.next().expect("one report per job");
                (r.read_latency_us(), r.write_latency_us())
            })
            .collect();
        let scaled = {
            let s = ram.scaled_down(scale);
            if !ram.is_zero() && s.blocks() == 0 {
                ByteSize::bytes_exact(4096)
            } else {
                s
            }
        };
        println!(
            "{:>10} {:>10} | {:>12.1} {:>13.2} | {:>12.1} {:>13.2}",
            ram.to_string(),
            scaled.to_string(),
            row[0].0,
            row[0].1,
            row[1].0,
            row[1].1
        );
    }
    println!("\nwith the asynchronous policy even the smallest RAM rows should sit");
    println!("close to the 8G row — the flash, not the RAM, is doing the caching.");
}
