//! Figure 7: the tiny-RAM configuration against a RAM-sized workload
//! (5 GB working set).
//!
//! §7.5: "this configuration carries a 25-30% penalty, which is noticeable
//! but far less than the factor of five or so seen without the flash
//! cache."

use fcache_bench::{
    f, f2, header, run_configs, scale_from_env, shape_check, ByteSize, Scenario, SimConfig, Table,
    Workbench, Workload, WorkloadSpec, WritebackPolicy,
};

fn main() {
    let scale = scale_from_env(64);
    header(
        "Figure 7",
        scale,
        "tiny RAM with a RAM-sized (5 GB) workload",
    );

    let wb = Workbench::new(scale, 42);
    let spec = WorkloadSpec {
        working_set: ByteSize::gib(5),
        seed: 5,
        ..WorkloadSpec::default()
    };
    let trace = wb.make_trace(&spec);

    let sizes: [(u64, &str); 8] = [
        (0, "0"),
        (64 << 10, "64K"),
        (256 << 10, "256K"),
        (1 << 20, "1M"),
        (16 << 20, "16M"),
        (256 << 20, "256M"),
        (4u64 << 30, "4G"),
        (8u64 << 30, "8G"),
    ];
    let mut t = Table::new(
        "Figure 7 — latency vs RAM size (5 GB working set)",
        &["ram", "read_p1", "read_a", "write_p1", "write_a"],
    );
    let mut tiny_read = 0.0;
    let mut full_read = 0.0;
    let mut noflash_tiny_read = 0.0;
    for (bytes, label) in sizes {
        let mut scaled = bytes / scale;
        if bytes > 0 && scaled < 4096 {
            scaled = 4096;
        }
        let mut row = vec![label.to_string()];
        let mut reads = Vec::new();
        let mut writes = Vec::new();
        let cfgs: Vec<SimConfig> = [
            WritebackPolicy::Periodic(1),
            WritebackPolicy::AsyncWriteThrough,
        ]
        .into_iter()
        .map(|policy| SimConfig {
            ram_size: ByteSize::bytes_exact(scaled * scale),
            ram_policy: policy,
            ..SimConfig::baseline()
        })
        .collect();
        for r in run_configs(&wb, &cfgs, &trace) {
            reads.push(r.read_latency_us());
            writes.push(r.write_latency_us());
        }
        row.push(f(reads[0]));
        row.push(f(reads[1]));
        row.push(f2(writes[0]));
        row.push(f2(writes[1]));
        t.row(row);
        if label == "256K" {
            tiny_read = reads[1];
            // The no-flash comparison the paper cites ("factor of five").
            let cfg = SimConfig {
                ram_size: ByteSize::bytes_exact(scaled * scale),
                flash_size: ByteSize::ZERO,
                ram_policy: WritebackPolicy::AsyncWriteThrough,
                ..SimConfig::baseline()
            };
            noflash_tiny_read = Scenario::new(cfg.scaled_down(wb.scale()), Workload::trace(&trace))
                .run()
                .expect("run")
                .read_latency_us();
        }
        if label == "8G" {
            full_read = reads[1];
        }
        eprint!(".");
    }
    eprintln!();
    t.note("paper: the small-RAM penalty is 25-30% for a RAM-sized workload,");
    t.note("far less than the ~5x seen without the flash cache.");
    t.emit("fig7_small_ram_5g");

    let penalty = (tiny_read - full_read) / full_read;
    shape_check(
        "tiny-RAM penalty is moderate",
        penalty > 0.05 && penalty < 1.0,
        format!(
            "256K read {tiny_read:.0} µs vs 8G {full_read:.0} µs ({:.0}% penalty; paper 25-30%)",
            100.0 * penalty
        ),
    );
    shape_check(
        "without flash the tiny-RAM penalty is far larger",
        noflash_tiny_read > 2.0 * tiny_read,
        format!("no-flash 256K read {noflash_tiny_read:.0} µs vs with-flash {tiny_read:.0} µs"),
    );
}
