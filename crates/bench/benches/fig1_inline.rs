//! Figure 1 (inline): SSD latency bands from an in-engine simulated run.
//!
//! The original `fig1_ssd_latency` bench reproduces Figure 1 the way the
//! authors did — log the simulator's flash I/Os, then replay the log
//! offline against the behavioral SSD model. This bench regenerates the
//! same bands **without the offline step**: the run itself services every
//! flash op through the queue-aware device timing service
//! (`flash_timing = ssd`), and the per-window averages come straight out
//! of the report (`SimReport::device_windows`).
//!
//! Shape to reproduce (§6.2): writes keep a stable mean from beginning to
//! end; read latency rises as the device fills (plus the weak wear
//! effect); and the cache-shaped access the engine generates is cheaper
//! per read than purely random I/O against the same device. All of it
//! deterministic per seed.

use fcache_bench::{
    f, f2, header, scale_from_env, shape_check, ByteSize, FlashTiming, Scenario, SimConfig, Table,
    Workbench, Workload, WorkloadSpec,
};
use fcache_device::{IoDirection, IoLogEntry, SsdConfig, SsdModel};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn main() {
    let scale = scale_from_env(256);
    header(
        "Figure 1 (inline)",
        scale,
        "device-service latency bands from a simulated run (no offline replay)",
    );

    // 60 GB working set against a 58 GB flash cache; the device service
    // auto-fits the SSD to the flash tier and produces the window series.
    let wb = Workbench::new(scale, 42);
    let trace = wb.make_trace(&WorkloadSpec::baseline_60g());
    let window = ((trace.stats().blocks as usize) / 20).clamp(200, 10_000);
    let cfg = SimConfig {
        flash_size: ByteSize::gib(58),
        flash_timing: FlashTiming::Ssd(SsdConfig::auto()),
        device_window: window,
        ..SimConfig::baseline()
    };
    let report = Scenario::new(cfg.clone().scaled_down(wb.scale()), Workload::trace(&trace))
        .run()
        .expect("simulation");
    let windows = report.device_windows.clone().expect("windows enabled");
    println!(
        "# {} device I/Os serviced in-engine across {} windows",
        report.device.ops(),
        windows.len()
    );
    println!(
        "# device queue: mean depth {:.2}, peak {}, {} submissions waited",
        report.device.mean_queue_depth(),
        report.device.depth_max,
        report.device.queue_waits
    );

    let mut t = Table::new(
        "Figure 1 (inline) — device latency per window (µs)",
        &["ios_done", "read_avg_us", "write_avg_us"],
    );
    for w in &windows {
        t.row(vec![
            w.start_io.to_string(),
            f(w.read_avg_us),
            f(w.write_avg_us),
        ]);
    }
    t.note(format!(
        "window = {window} device I/Os; in-engine service, seed {}",
        cfg.seed
    ));
    t.emit("fig1_inline");

    // Shape checks on the bands.
    let reads: Vec<f64> = windows
        .iter()
        .filter(|w| w.reads > 0)
        .map(|w| w.read_avg_us)
        .collect();
    let writes: Vec<f64> = windows
        .iter()
        .filter(|w| w.writes > 0)
        .map(|w| w.write_avg_us)
        .collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    if writes.len() >= 4 {
        let first = mean(&writes[..writes.len() / 4]);
        let last = mean(&writes[writes.len() * 3 / 4..]);
        shape_check(
            "write mean stable over device life",
            (last - first).abs() / first < 0.10,
            format!("first-quarter {first:.1} µs vs last-quarter {last:.1} µs"),
        );
    }
    if reads.len() >= 4 {
        let first = mean(&reads[..reads.len() / 4]);
        let last = mean(&reads[reads.len() * 3 / 4..]);
        shape_check(
            "read latency rises as the device fills",
            last > first,
            format!("first-quarter {first:.1} µs vs last-quarter {last:.1} µs"),
        );
    }

    // Locality: replay the same volume of *random* I/O (same read/write
    // mix) through an identical fresh device; the engine's cache-shaped
    // stream must read cheaper. The baseline device is resolved exactly
    // the way the in-engine service resolves it for host 0.
    let scaled = cfg.clone().scaled_down(scale);
    let device_blocks = scaled.flash_size.blocks().max(1);
    let resolved = SsdConfig::auto()
        .fit_capacity(device_blocks)
        .for_host(scaled.seed, 0);
    let total_ios: u64 = windows.iter().map(|w| w.reads + w.writes).sum();
    let total_reads: u64 = windows.iter().map(|w| w.reads).sum();
    let write_frac = 1.0 - total_reads as f64 / total_ios.max(1) as f64;
    let mut rng = SmallRng::seed_from_u64(99);
    let random: Vec<IoLogEntry> = (0..total_ios.min(500_000))
        .map(|_| IoLogEntry {
            dir: if rng.gen_bool(write_frac) {
                IoDirection::Write
            } else {
                IoDirection::Read
            },
            lba: rng.gen_range(0..device_blocks),
        })
        .collect();
    let mut baseline = SsdModel::new(resolved);
    let rand_stats = baseline.replay_windows(&random, window);
    let rand_read = mean(
        &rand_stats
            .iter()
            .filter(|w| w.reads > 0)
            .map(|w| w.read_avg_us)
            .collect::<Vec<_>>(),
    );
    let shaped_read = mean(&reads);
    shape_check(
        "cache-shaped reads beat random reads",
        shaped_read < rand_read,
        format!("in-engine {shaped_read:.1} µs vs random {rand_read:.1} µs"),
    );

    // Determinism: the same seed regenerates the identical series.
    let again = Scenario::new(cfg.scaled_down(wb.scale()), Workload::trace(&trace))
        .run()
        .expect("repeat simulation")
        .device_windows
        .expect("windows enabled");
    shape_check(
        "window series deterministic per seed",
        again == windows,
        format!("{} windows compared bit-for-bit", windows.len()),
    );
    println!(
        "# application read latency under ssd timing: {} µs/block (flat-timing baseline differs — device queuing is visible to policy)",
        f2(report.read_latency_us())
    );
}
