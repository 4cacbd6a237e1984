//! Policy explorer: a miniature Figure 2.
//!
//! Sweeps all 49 RAM × flash writeback-policy combinations for a chosen
//! architecture and prints the read/write latency surfaces. The paper's
//! key result should be visible directly in the grid: every combination
//! that avoids synchronous writes to the filer (`s` rows/columns and the
//! all-dirty `n`/`n` corner) performs essentially identically.
//!
//! The 49 configurations are one labeled `Sweep` over a shared
//! materialized trace: every job replays the same borrowed ops (zero
//! copies) and the grid fans out across worker threads.
//!
//! Run with: `cargo run --release --example policy_explorer [arch] [scale]`

use fcache::{
    Architecture, Scenario, SimConfig, Sweep, Workbench, Workload, WorkloadSpec, WritebackPolicy,
};

fn main() {
    let mut args = std::env::args().skip(1);
    let arch: Architecture = args
        .next()
        .map(|a| a.parse().expect("naive|lookaside|unified"))
        .unwrap_or(Architecture::Naive);
    let scale: u64 = args
        .next()
        .map(|s| s.parse().expect("scale"))
        .unwrap_or(1024);

    println!("architecture: {arch}; scale 1/{scale}; 80 GB working set\n");
    let wb = Workbench::new(scale, 42);
    let spec = WorkloadSpec::baseline_80g();
    let trace = wb.make_trace(&spec);

    let mut sweep = Sweep::new();
    for ram_policy in WritebackPolicy::ALL {
        for flash_policy in WritebackPolicy::ALL {
            let cfg = SimConfig {
                arch,
                ram_policy,
                flash_policy,
                ..SimConfig::baseline()
            }
            .scaled_down(scale);
            sweep = sweep.scenario(
                format!("ram={} flash={}", ram_policy.label(), flash_policy.label()),
                Scenario::new(cfg, Workload::trace(&trace)),
            );
        }
    }
    let results = sweep.reports().expect("policy surface");

    let mut reads = Vec::new();
    let mut writes = Vec::new();
    for row in results.chunks(WritebackPolicy::ALL.len()) {
        reads.push(row.iter().map(|r| r.read_latency_us()).collect::<Vec<_>>());
        writes.push(row.iter().map(|r| r.write_latency_us()).collect::<Vec<_>>());
    }

    for (name, grid) in [("READ", &reads), ("WRITE", &writes)] {
        println!("{name} latency (us/block); rows = RAM policy, cols = flash policy");
        print!("{:>6}", "");
        for p in WritebackPolicy::ALL {
            print!("{:>9}", p.label());
        }
        println!();
        for (i, p) in WritebackPolicy::ALL.iter().enumerate() {
            print!("{:>6}", p.label());
            for v in &grid[i] {
                print!("{v:>9.1}");
            }
            println!();
        }
        println!();
    }

    println!("note the flat interior (policy does not matter) and the elevated");
    println!("write-latency ridge along the synchronous row/column and the n/n corner.");
}
