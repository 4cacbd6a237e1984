//! Table 1 and Figures 1–12 of the paper's evaluation (§6–§7): one grid
//! and one extract function per [`Figure`](crate::Figure) entry.
//!
//! Claims with [`Scope::Test`](crate::Scope::Test) state the paper's
//! headline results at the tier-1 test's scale; the rest are the bench's
//! shape checks.

use fcache::{
    Architecture, FlashTiming, SimConfig, SimReport, WorkloadSpec, WritebackPolicy, TABLE1_FILER,
    TABLE1_NET, TABLE1_RAM,
};
use fcache_des::SimTime;
use fcache_device::{FlashModel, IoDirection, IoLogEntry, SsdConfig, SsdModel, WindowStat};
use fcache_types::ByteSize;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::Scope::{Bench, Both, Test};
use crate::{f, f2, mean, Job, Lab, Page, Runs, Table, WS_SWEEP_GIB};

/// A workload of `ws` GiB (paper scale) seeded with its own size, the
/// working-set sweeps' convention.
fn ws_spec(ws: u64) -> WorkloadSpec {
    WorkloadSpec {
        working_set: ByteSize::gib(ws),
        seed: ws,
        ..WorkloadSpec::default()
    }
}

/// The baseline with no flash tier.
fn no_flash() -> SimConfig {
    SimConfig {
        flash_size: ByteSize::ZERO,
        ..SimConfig::baseline()
    }
}

fn position<T: PartialEq>(all: &[T], x: &T) -> usize {
    all.iter().position(|y| y == x).expect("axis value")
}

// --- Table 1 ------------------------------------------------------------

/// Table 1: the timing model's defaults against the published values.
/// The published table heads its latency column "ms"; its values are µs,
/// as every latency in §7 shows (a 400 ms RAM write could not give
/// Figure 2's sub-µs writes), so the comparison reads them as µs.
pub fn table1(_: &Runs, p: &mut Page) {
    let cfg = SimConfig::baseline();
    p.line(cfg.timing_table().trim_end());
    let mut t = Table::new(
        "Table 1 — paper vs reproduction",
        &["parameter", "paper", "ours"],
    );
    let rows = [
        ("RAM read", "400 ns", TABLE1_RAM.read),
        ("RAM write", "400 ns", TABLE1_RAM.write),
        ("Flash read", "88 us", cfg.flash_model.read_latency()),
        ("Flash write", "21 us", cfg.flash_model.write_latency()),
        ("Net base/packet", "8.2 us", TABLE1_NET.base_latency),
        ("Net per bit", "1 ns", TABLE1_NET.per_bit),
        ("Filer fast read", "92 us", TABLE1_FILER.fast_read),
        ("Filer slow read", "7952 us", TABLE1_FILER.slow_read),
        ("Filer write", "92 us", TABLE1_FILER.write),
    ];
    for (name, paper, ours) in rows {
        t.row(vec![name.into(), paper.into(), ours.to_string()]);
    }
    t.row(vec![
        "Fast read rate".into(),
        "90%".into(),
        format!("{:.0}%", cfg.prefetch * 100.0),
    ]);
    p.table(&t, "table1");

    p.claim(
        Both,
        "table1",
        TABLE1_RAM.read.as_nanos() == 400
            && cfg.flash_model.read_latency().as_nanos() == 88_000
            && cfg.flash_model.write_latency().as_nanos() == 21_000
            && TABLE1_NET.base_latency.as_nanos() == 8_200
            && TABLE1_FILER.slow_read.as_nanos() == 7_952_000,
        "all defaults equal the published Table 1 values".into(),
    );
}

// --- Figure 1 -----------------------------------------------------------
//
// §6.2: the authors logged the simulator's flash I/Os for the 60 GB
// workload on a 58 GB device, replayed the log against real SSDs and
// plotted per-10,000-I/O average latencies. Shape: the read band sits
// above the write band; writes keep a stable mean from beginning to end;
// reads degrade as the device fills; cache-shaped reads beat random ones.

/// Figure 1: one logged run, replayed offline through the behavioral
/// [`SsdModel`] in [`fig1`].
pub fn fig1_grid(_: &Lab) -> Vec<Job> {
    let cfg = SimConfig {
        flash_size: ByteSize::gib(58),
        log_flash_io: true,
        ..SimConfig::baseline()
    };
    vec![Job::new(
        "flash58 io-log",
        cfg,
        &WorkloadSpec::baseline_60g(),
    )]
}

/// The read and write means of the windows that saw any.
fn bands(windows: &[WindowStat]) -> (Vec<f64>, Vec<f64>) {
    let reads = windows.iter().filter(|w| w.reads > 0);
    let writes = windows.iter().filter(|w| w.writes > 0);
    (
        reads.map(|w| w.read_avg_us).collect(),
        writes.map(|w| w.write_avg_us).collect(),
    )
}

/// The band claims both Figure 1 variants make: writes keep their mean
/// over the device's life, reads drift up as it fills.
fn band_claims(p: &mut Page, reads: &[f64], writes: &[f64], read_claim: &str) {
    let quarters =
        |v: &[f64]| (v.len() >= 4).then(|| (mean(&v[..v.len() / 4]), mean(&v[v.len() * 3 / 4..])));
    if let Some((first, last)) = quarters(writes) {
        p.claim(
            Both,
            "write mean stable over device life",
            (last - first).abs() / first < 0.10,
            format!("first-quarter {first:.1} µs vs last-quarter {last:.1} µs"),
        );
    }
    if let Some((first, last)) = quarters(reads) {
        p.claim(
            Both,
            read_claim,
            last > first,
            format!("first-quarter {first:.1} µs vs last-quarter {last:.1} µs"),
        );
    }
}

/// Mean read latency of `ios` uniformly random I/Os with the given write
/// fraction, replayed through a fresh `ssd` in `window`-I/O windows: the
/// locality baseline of §6.2's finding 3.
fn random_read_us(ios: u64, write_frac: f64, ssd: SsdConfig, window: usize) -> f64 {
    let blocks = ssd.capacity_blocks;
    let mut rng = SmallRng::seed_from_u64(99);
    let random: Vec<IoLogEntry> = (0..ios.min(500_000))
        .map(|_| IoLogEntry {
            dir: if rng.gen_bool(write_frac) {
                IoDirection::Write
            } else {
                IoDirection::Read
            },
            lba: rng.gen_range(0..blocks),
        })
        .collect();
    mean(&bands(&SsdModel::new(ssd).replay_windows(&random, window)).0)
}

/// Figure 1: SSD access latency as a function of time.
pub fn fig1(runs: &Runs, p: &mut Page) {
    let log = runs.reports[0]
        .flash_iolog
        .as_ref()
        .expect("flash log enabled");
    p.line(format!(
        "# captured {} flash I/Os from the simulator run",
        log.len()
    ));

    // Replay through the behavioral SSD model (58 GB device, scaled).
    let device_blocks = ((58u64 << 30) / 4096 / runs.lab.scale).max(1024);
    let ssd = SsdConfig::sized(device_blocks, 7);
    let window = 10_000usize.min((log.len() / 20).max(100));
    let stats = SsdModel::new(ssd.clone()).replay_windows(log, window);

    let mut t = Table::new(
        "Figure 1 — latency per window (µs)",
        &["ios_done", "read_avg_us", "write_avg_us"],
    );
    for w in &stats {
        t.row(vec![
            w.start_io.to_string(),
            f(w.read_avg_us),
            f(w.write_avg_us),
        ]);
    }
    t.note(format!(
        "window = {window} I/Os; device = {device_blocks} blocks"
    ));
    p.table(&t, "fig1_ssd_latency");

    let (reads, writes) = bands(&stats);
    p.claim(
        Both,
        "read band above write band",
        mean(&reads) > 1.5 * mean(&writes),
        format!(
            "mean read {:.1} µs vs mean write {:.1} µs",
            mean(&reads),
            mean(&writes)
        ),
    );
    band_claims(p, &reads, &writes, "read latency drifts up as device fills");

    // §6.2 finding 3: cache-shaped replay beats purely random I/Os "with a
    // read/write mix similar to that found in the simulator logs".
    let log_writes = log.iter().filter(|e| e.dir == IoDirection::Write).count();
    let write_frac = log_writes as f64 / log.len().max(1) as f64;
    let rand_read = random_read_us(log.len() as u64, write_frac, ssd, window);
    p.claim(
        Both,
        "cache-shaped reads beat random reads",
        mean(&reads) < rand_read,
        format!("shaped {:.1} µs vs random {rand_read:.1} µs", mean(&reads)),
    );
}

/// Figure 1 (inline): the same bands from the in-engine device service
/// (`flash_timing = ssd`), no offline step. The window is 1/20 of the
/// trace's blocks, clamped to 200..=10,000 I/Os.
pub fn fig1_inline_grid(lab: &Lab) -> Vec<Job> {
    let spec = WorkloadSpec::baseline_60g();
    let blocks = lab.wb().make_trace(&spec).stats().blocks as usize;
    let cfg = SimConfig {
        flash_size: ByteSize::gib(58),
        flash_timing: FlashTiming::Ssd(SsdConfig::auto()),
        device_window: (blocks / 20).clamp(200, 10_000),
        ..SimConfig::baseline()
    };
    vec![Job::new("flash58 ssd timing", cfg, &spec)]
}

/// Figure 1 (inline): device-service latency bands from a simulated run,
/// plus a repeat run that must regenerate the identical series.
pub fn fig1_inline(runs: &Runs, p: &mut Page) {
    let report = &runs.reports[0];
    let cfg = &runs.jobs[0].cfg;
    let windows = report.device_windows.as_ref().expect("windows enabled");
    p.line(format!(
        "# {} device I/Os serviced in-engine across {} windows",
        report.device.ops(),
        windows.len()
    ));
    p.line(format!(
        "# device queue: mean depth {:.2}, peak {}, {} submissions waited",
        report.device.mean_queue_depth(),
        report.device.depth_max,
        report.device.queue_waits
    ));

    let mut t = Table::new(
        "Figure 1 (inline) — device latency per window (µs)",
        &["ios_done", "read_avg_us", "write_avg_us"],
    );
    for w in windows {
        t.row(vec![
            w.start_io.to_string(),
            f(w.read_avg_us),
            f(w.write_avg_us),
        ]);
    }
    t.note(format!(
        "window = {} device I/Os; in-engine service, seed {}",
        cfg.device_window, cfg.seed
    ));
    p.table(&t, "fig1_inline");

    let (reads, writes) = bands(windows);
    band_claims(p, &reads, &writes, "read latency rises as the device fills");

    // Locality: the same volume of random I/O (same read/write mix)
    // through an identical fresh device, resolved exactly the way the
    // in-engine service resolves it for host 0.
    let scaled = cfg.clone().scaled_down(runs.lab.scale);
    let ssd = SsdConfig::auto()
        .fit_capacity(scaled.flash_size.blocks().max(1))
        .for_host(scaled.seed, 0);
    let total_ios: u64 = windows.iter().map(|w| w.reads + w.writes).sum();
    let total_reads: u64 = windows.iter().map(|w| w.reads).sum();
    let write_frac = 1.0 - total_reads as f64 / total_ios.max(1) as f64;
    let rand_read = random_read_us(total_ios, write_frac, ssd, cfg.device_window);
    let shaped_read = mean(&reads);
    p.claim(
        Both,
        "cache-shaped reads beat random reads",
        shaped_read < rand_read,
        format!("in-engine {shaped_read:.1} µs vs random {rand_read:.1} µs"),
    );

    let again = runs.run(&runs.jobs[0]).device_windows;
    p.claim(
        Both,
        "window series deterministic per seed",
        again.as_ref() == Some(windows),
        format!("{} windows compared bit-for-bit", windows.len()),
    );
    p.line(format!(
        "# application read latency under ssd timing: {} µs/block (flat-timing baseline \
         differs — device queuing is visible to policy)",
        f2(report.read_latency_us())
    ));
}

// --- Figure 2 -----------------------------------------------------------
//
// All 49 RAM × flash writeback-policy pairs for the three architectures
// (80 GB working set). §7.1: "excepting policies that result in
// synchronous writes to the filer (synchronous or none) the writeback
// policy does not matter"; unified posts the lowest reads; naive and
// lookaside write at RAM speed while unified pays ~8/9 of a flash write.

/// Figure 2: 147 jobs, arch-major then RAM policy then flash policy.
pub fn fig2_grid(_: &Lab) -> Vec<Job> {
    let spec = WorkloadSpec::baseline_80g();
    let mut jobs = Vec::new();
    for arch in Architecture::ALL {
        for ram_policy in WritebackPolicy::ALL {
            for flash_policy in WritebackPolicy::ALL {
                let cfg = SimConfig {
                    arch,
                    ram_policy,
                    flash_policy,
                    ..SimConfig::baseline()
                };
                let label = format!("{arch}/r={}/f={}", ram_policy.label(), flash_policy.label());
                jobs.push(Job::new(label, cfg, &spec));
            }
        }
    }
    jobs
}

/// Figure 2: read and write latency per policy pair and architecture.
pub fn fig2(runs: &Runs, p: &mut Page) {
    use WritebackPolicy::{AsyncWriteThrough as A, Periodic as P, WriteThrough as S};
    let n = WritebackPolicy::ALL.len();
    let rows_of = |arch| &runs.reports[position(&Architecture::ALL, &arch) * n * n..][..n * n];
    let at = |arch, ram, flash| {
        let policy = |x| position(&WritebackPolicy::ALL, &x);
        &rows_of(arch)[policy(ram) * n + policy(flash)]
    };
    let cols = ["ram\\flash", "s", "a", "p1", "p5", "p15", "p30", "n"];
    for arch in Architecture::ALL {
        let mut reads = Table::new(
            &format!("Figure 2 — read latency (µs/block), {arch}"),
            &cols,
        );
        let mut writes = Table::new(
            &format!("Figure 2 — write latency (µs/block), {arch}"),
            &cols,
        );
        let mut interior_writes = Vec::new();
        let mut sync_writes = Vec::new();
        for ram_policy in WritebackPolicy::ALL {
            let mut rrow = vec![ram_policy.label()];
            let mut wrow = vec![ram_policy.label()];
            for flash_policy in WritebackPolicy::ALL {
                let r = at(arch, ram_policy, flash_policy);
                let write_us = r.write_latency_us();
                rrow.push(f(r.read_latency_us()));
                wrow.push(f2(write_us));
                // The benign interior (§7.1): both tiers `a` or `pN`, so
                // no app write ever blocks on the filer.
                let async_ish = |x: WritebackPolicy| matches!(x, A | P(_));
                // "Policies that result in synchronous writes to the
                // filer": naive needs both tiers write-through; lookaside
                // `s` writes straight to the filer; for unified either
                // tier's `s` exposes it (writes land in whichever frame
                // is LRU).
                let sync_to_filer = match arch {
                    Architecture::Naive => ram_policy == S && flash_policy == S,
                    Architecture::Lookaside => ram_policy == S,
                    Architecture::Unified => ram_policy == S || flash_policy == S,
                };
                if async_ish(ram_policy) && async_ish(flash_policy) {
                    interior_writes.push(write_us);
                } else if sync_to_filer {
                    sync_writes.push(write_us);
                }
            }
            reads.row(rrow);
            writes.row(wrow);
        }
        p.table(&reads, &format!("fig2_read_{arch}"));
        p.table(&writes, &format!("fig2_write_{arch}"));

        let max_interior = interior_writes.iter().cloned().fold(0.0, f64::max);
        let min_sync = sync_writes.iter().cloned().fold(f64::INFINITY, f64::min);
        // Unified pays ~8/9 × 21 µs by design. Lookaside's long-period
        // syncers share the wire with reads, so a small tail of dirty
        // evictions (p30 row) is expected — still an order of magnitude
        // below the synchronous corner.
        let interior_bound = match arch {
            Architecture::Naive => 2.0,
            Architecture::Lookaside => 25.0,
            Architecture::Unified => 30.0,
        };
        p.claim(
            Both,
            format!("{arch}: benign policy interior is flat"),
            max_interior < interior_bound,
            format!("max interior write latency {max_interior:.2} µs (bound {interior_bound})"),
        );
        if min_sync.is_finite() {
            p.claim(
                Both,
                format!("{arch}: synchronous-to-filer writes are far slower"),
                min_sync > 2.0 * max_interior.max(0.4) && min_sync > 30.0,
                format!("min sync-to-filer write {min_sync:.1} µs vs interior {max_interior:.2}"),
            );
        }
    }

    if let Some(path) = p.jsonl() {
        p.line(format!(
            "# all 147 rows (schema-versioned JSONL): {}",
            path.display()
        ));
    }
}

// --- Figure 3 -----------------------------------------------------------

/// Figure 3's three configurations (§7.1): the real system, the same
/// structure with RAM-speed flash (isolates the structural effect), and a
/// 64 GB-effective unified cache at RAM speed.
pub fn fig3_grid(_: &Lab) -> Vec<Job> {
    let ram_speed_flash = SimConfig {
        flash_model: FlashModel {
            read: TABLE1_RAM.read,
            write: TABLE1_RAM.write,
            persistent: false,
        },
        ..SimConfig::baseline()
    };
    let unified_56 = SimConfig {
        arch: Architecture::Unified,
        flash_size: ByteSize::gib(56),
        flash_model: FlashModel {
            read: SimTime::from_nanos(400),
            write: SimTime::from_nanos(400),
            persistent: false,
        },
        ..SimConfig::baseline()
    };
    WS_SWEEP_GIB
        .into_iter()
        .flat_map(|ws| {
            let spec = ws_spec(ws);
            [
                Job::new(format!("ws{ws}/flash naive"), SimConfig::baseline(), &spec),
                Job::new(
                    format!("ws{ws}/ramspeed naive"),
                    ram_speed_flash.clone(),
                    &spec,
                ),
                Job::new(
                    format!("ws{ws}/ramspeed56 unified"),
                    unified_56.clone(),
                    &spec,
                ),
            ]
        })
        .collect()
}

/// Figure 3: read latency vs working-set size, separating the structural
/// effect of effective cache size from the cache medium's latency. Shape:
/// the two RAM-speed lines of equal effective size (64 GB) track each
/// other; the real-flash line sits above them.
pub fn fig3(runs: &Runs, p: &mut Page) {
    let mut t = Table::new(
        "Figure 3 — read latency (µs/block)",
        &[
            "ws_gib",
            "8G+64G_flash_naive",
            "8G+64G_ramspeed_naive",
            "8G+56G_ramspeed_unified",
        ],
    );
    let mut structural_gap = Vec::new();
    let mut medium_gap = Vec::new();
    for (wi, ws) in WS_SWEEP_GIB.into_iter().enumerate() {
        let read = |k: usize| runs.reports[wi * 3 + k].read_latency_us();
        let (a, b, c) = (read(0), read(1), read(2));
        // The smallest working sets have too few filer reads for the
        // Bernoulli fast/slow draws to average out; exclude them from the
        // shape statistics (they are still printed).
        if ws >= 20 {
            structural_gap.push((b - c).abs() / b.max(c));
            medium_gap.push(a - b);
        }
        t.row(vec![ws.to_string(), f(a), f(b), f(c)]);
    }
    t.note("paper: the two RAM-speed 64G-effective lines are identical; the");
    t.note("difference to the top line is the flash medium's latency.");
    p.table(&t, "fig3_effective_size");

    let mean_struct = mean(&structural_gap);
    p.claim(
        Both,
        "equal effective sizes track each other",
        mean_struct < 0.15,
        format!(
            "mean relative gap between RAM-speed lines {:.1}%",
            100.0 * mean_struct
        ),
    );
    p.claim(
        Both,
        "real flash sits above RAM-speed flash",
        medium_gap.iter().all(|g| *g > 0.0),
        format!("per-point medium gaps (µs): {medium_gap:.0?}"),
    );
}

// --- Figure 4 -----------------------------------------------------------

const FIG4_FLASH_GIB: [u64; 4] = [0, 32, 64, 128];

/// Figure 4: every working set against flash sizes {none, 32, 64, 128} GB.
pub fn fig4_grid(_: &Lab) -> Vec<Job> {
    WS_SWEEP_GIB
        .into_iter()
        .flat_map(|ws| {
            FIG4_FLASH_GIB.map(|fs| {
                let cfg = SimConfig {
                    flash_size: ByteSize::gib(fs),
                    ..SimConfig::baseline()
                };
                Job::new(format!("ws{ws}/flash{fs}"), cfg, &ws_spec(ws))
            })
        })
        .collect()
}

/// Figure 4: read latency vs working-set size across flash sizes (8 GB
/// RAM). §7.2: "even when the working set far exceeds the flash size, the
/// flash improves performance significantly"; the knee sits at the flash
/// size; the RAM hit rate is small while the flash hit rate grows with
/// the flash; writes stay at RAM speed.
pub fn fig4(runs: &Runs, p: &mut Page) {
    let mut t = Table::new(
        "Figure 4 — read latency (µs/block)",
        &["ws_gib", "no_flash", "32G", "64G", "128G"],
    );
    let mut hits = Table::new(
        "§7.2 — hit rates (%)",
        &[
            "ws_gib",
            "ram_hit",
            "flash_hit_32G",
            "flash_hit_64G",
            "flash_hit_128G",
        ],
    );
    // latencies[flash][ws]
    let mut latencies = vec![Vec::new(); FIG4_FLASH_GIB.len()];
    let mut write_lat_max: f64 = 0.0;
    for (wi, ws) in WS_SWEEP_GIB.into_iter().enumerate() {
        let rs = &runs.reports[wi * 4..wi * 4 + 4];
        let mut row = vec![ws.to_string()];
        let mut hrow = vec![ws.to_string(), f(100.0 * rs[0].ram_hit_rate())];
        for (i, r) in rs.iter().enumerate() {
            row.push(f(r.read_latency_us()));
            latencies[i].push(r.read_latency_us());
            write_lat_max = write_lat_max.max(r.write_latency_us());
            if i > 0 {
                hrow.push(f(100.0 * r.flash_hit_rate_of_all_reads()));
            }
        }
        t.row(row);
        hits.row(hrow);
    }
    t.note("paper: no-flash plateaus near 900 µs; flash curves knee at the flash size.");
    p.table(&t, "fig4_read_latency");
    hits.note("paper: RAM hit rate small (3.4%); flash hit up to 47% at 128 GB.");
    p.table(&hits, "fig4_hit_rates");

    let last = WS_SWEEP_GIB.len() - 1;
    let at = |gib| position(&WS_SWEEP_GIB, &gib);
    let lat = |flash: usize, wi: usize| latencies[flash][wi];
    p.claim(
        Both,
        "no-flash plateau near 900 µs",
        (lat(0, last) - 900.0).abs() < 150.0,
        format!(
            "no-flash at {} GiB = {:.0} µs",
            WS_SWEEP_GIB[last],
            lat(0, last)
        ),
    );
    let w = at(320);
    p.claim(
        Both,
        "bigger flash reads faster at 320 GiB",
        lat(1, w) < lat(0, w) && lat(2, w) < lat(1, w) && lat(3, w) < lat(2, w),
        format!(
            "none/32/64/128 = {:.0}/{:.0}/{:.0}/{:.0} µs",
            lat(0, w),
            lat(1, w),
            lat(2, w),
            lat(3, w)
        ),
    );
    p.claim(
        Both,
        "flash helps at 640 GiB >> 64 GiB flash",
        lat(2, last) < 0.9 * lat(0, last),
        format!("64G {:.0} µs vs none {:.0} µs", lat(2, last), lat(0, last)),
    );
    p.claim(
        Both,
        "writes at RAM speed throughout",
        write_lat_max < 1.0,
        format!("max write latency {write_lat_max:.2} µs"),
    );
}

// --- Figure 5 -----------------------------------------------------------

/// Figure 5's four lines: (flash GiB, filer fast-read rate).
const FIG5_LINES: [(u64, f64); 4] = [(0, 0.80), (0, 0.95), (64, 0.80), (64, 0.95)];

/// Figure 5: every working set with and without flash at an 80 % and a
/// 95 % filer prefetch rate.
pub fn fig5_grid(_: &Lab) -> Vec<Job> {
    WS_SWEEP_GIB
        .into_iter()
        .flat_map(|ws| {
            FIG5_LINES.map(|(flash, rate)| {
                let cfg = SimConfig {
                    flash_size: ByteSize::gib(flash),
                    prefetch: rate,
                    ..SimConfig::baseline()
                };
                Job::new(format!("ws{ws}/flash{flash}/fast{rate}"), cfg, &ws_spec(ws))
            })
        })
        .collect()
}

/// Figure 5: the filer's prefetch (fast-read) rate. §7.3: latency is
/// dominated by filer misses, so the two rates bracket a wide band; in the
/// pessimal world flash only helps workloads that fit in flash but not in
/// RAM.
pub fn fig5(runs: &Runs, p: &mut Page) {
    let mut t = Table::new(
        "Figure 5 — read latency (µs/block)",
        &[
            "ws_gib",
            "noflash_80",
            "noflash_95",
            "flash64_80",
            "flash64_95",
        ],
    );
    let s = |line: usize, wi: usize| runs.reports[wi * 4 + line].read_latency_us();
    for (wi, ws) in WS_SWEEP_GIB.into_iter().enumerate() {
        let mut row = vec![ws.to_string()];
        row.extend((0..4).map(|line| f(s(line, wi))));
        t.row(row);
    }
    t.note("paper: filer prefetching dominates; compare lines of similar shape.");
    p.table(&t, "fig5_prefetch");

    let last = WS_SWEEP_GIB.len() - 1;
    p.claim(
        Both,
        "95% rate far better than 80% (no flash, large WS)",
        s(1, last) < 0.6 * s(0, last),
        format!("{:.0} µs vs {:.0} µs", s(1, last), s(0, last)),
    );
    // The pessimal pocket: at a WS that fits flash (60 GiB), flash/80%
    // still beats no-flash/80%.
    let at_60 = position(&WS_SWEEP_GIB, &60);
    p.claim(
        Both,
        "flash wins inside the pocket (60 GiB, 80% rate)",
        s(2, at_60) < 0.7 * s(0, at_60),
        format!("{:.0} µs vs {:.0} µs", s(2, at_60), s(0, at_60)),
    );
    // Pessimal-world crossover: no-flash at 95% can beat 64G flash at 80%
    // once the WS falls well out of flash.
    p.claim(
        Both,
        "pessimal crossover exists at large WS",
        s(1, last) < s(2, last),
        format!(
            "noflash/95 {:.0} µs vs flash/80 {:.0} µs",
            s(1, last),
            s(2, last)
        ),
    );
    let at_80 = position(&WS_SWEEP_GIB, &80);
    p.claim(
        Test,
        "prefetch rate bounds latency: 80% far worse than 95% (64 GiB flash, 80 GiB WS)",
        s(2, at_80) > 1.3 * s(3, at_80),
        format!(
            "{:.0} µs vs {:.0} µs (bound 1.3x)",
            s(2, at_80),
            s(3, at_80)
        ),
    );
}

// --- Figures 6 and 7 ----------------------------------------------------

/// Figure 6's RAM sizes (its x-axis, 0 and 64K .. 4G, plus the 8G
/// baseline); Figure 7 drops the 1G point.
const RAM_SIZES: [(u64, &str); 9] = [
    (0, "0"),
    (64 << 10, "64K"),
    (256 << 10, "256K"),
    (1 << 20, "1M"),
    (16 << 20, "16M"),
    (256 << 20, "256M"),
    (1 << 30, "1G"),
    (4u64 << 30, "4G"),
    (8u64 << 30, "8G"),
];

const SMALL_RAM_POLICIES: [WritebackPolicy; 2] = [
    WritebackPolicy::Periodic(1),
    WritebackPolicy::AsyncWriteThrough,
];

/// A paper-scale RAM size whose scaled size is floored at one 4 KB block.
fn ram_at(bytes: u64, scale: u64) -> ByteSize {
    let mut scaled = bytes / scale;
    if bytes > 0 && scaled < 4096 {
        scaled = 4096;
    }
    ByteSize::bytes_exact(scaled * scale)
}

/// The small-RAM grid of one workload: every size under p1 then a.
fn small_ram_jobs(lab: &Lab, spec: &WorkloadSpec, sizes: &[(u64, &str)]) -> Vec<Job> {
    let ws = spec.working_set;
    sizes
        .iter()
        .flat_map(|&(bytes, label)| {
            SMALL_RAM_POLICIES.map(|policy| {
                let cfg = SimConfig {
                    ram_size: ram_at(bytes, lab.scale),
                    ram_policy: policy,
                    ..SimConfig::baseline()
                };
                Job::new(format!("ws={ws}/ram={label}/{}", policy.label()), cfg, spec)
            })
        })
        .collect()
}

/// The small-RAM table of one workload: `rs` holds (p1, a) report pairs
/// in size order.
fn small_ram_table(title: &str, sizes: &[(u64, &str)], rs: &[SimReport]) -> Table {
    let mut t = Table::new(title, &["ram", "read_p1", "read_a", "write_p1", "write_a"]);
    for (&(_, label), pair) in sizes.iter().zip(rs.chunks(2)) {
        t.row(vec![
            label.to_string(),
            f(pair[0].read_latency_us()),
            f(pair[1].read_latency_us()),
            f2(pair[0].write_latency_us()),
            f2(pair[1].write_latency_us()),
        ]);
    }
    t
}

/// Figure 6: 60 and 80 GB working sets, 64 GB flash. The default scale
/// 1/64 keeps the paper's 256 KB point resolvable: one 4 KB scaled block
/// is 256 KB paper-equivalent.
pub fn fig6_grid(lab: &Lab) -> Vec<Job> {
    [60, 80]
        .into_iter()
        .flat_map(|ws| small_ram_jobs(lab, &ws_spec(ws), &RAM_SIZES))
        .collect()
}

/// Figure 6: latency with very small RAM caches. §7.5: "The no-RAM
/// configuration does not work well, but it is surprising how well a
/// relatively small (e.g., 64 MB) RAM cache performs. If we use the
/// asynchronous write-through policy, a tiny 256 KB is sufficient as a
/// write buffer."
pub fn fig6(runs: &Runs, p: &mut Page) {
    let per_ws = RAM_SIZES.len() * 2;
    let size = |label| position(&RAM_SIZES.map(|s| s.1), &label);
    for (wi, ws) in [60u64, 80].into_iter().enumerate() {
        let rs = &runs.reports[wi * per_ws..(wi + 1) * per_ws];
        let mut t = small_ram_table(
            &format!("Figure 6 — latency vs RAM size ({ws} GB working set)"),
            &RAM_SIZES,
            rs,
        );
        t.note("paper: with policy (a), 256 KB of RAM performs comparably to 8 GB.");
        p.table(&t, &format!("fig6_small_ram_{ws}g"));

        let async_at = |label| &rs[size(label) * 2 + 1];
        let (tiny, full) = (async_at("256K"), async_at("8G"));
        let (tiny_read, tiny_write) = (tiny.read_latency_us(), tiny.write_latency_us());
        p.claim(
            Both,
            format!("{ws} GB WS: 256 KB + async ≈ 8 GB reads"),
            tiny_read < 1.4 * full.read_latency_us(),
            format!(
                "256K read {tiny_read:.0} µs vs 8G read {:.0} µs",
                full.read_latency_us()
            ),
        );
        p.claim(
            Both,
            format!("{ws} GB WS: 256 KB + async writes stay cheap"),
            tiny_write < 25.0,
            format!("256K write {tiny_write:.2} µs (flash write is 21 µs)"),
        );
    }
}

/// Figure 7's sizes: Figure 6's without the 1G point.
fn fig7_sizes() -> Vec<(u64, &'static str)> {
    RAM_SIZES.into_iter().filter(|s| s.1 != "1G").collect()
}

/// Figure 7: the small-RAM grid on a 5 GB working set, plus the no-flash
/// 256 KB + async job the paper compares against.
pub fn fig7_grid(lab: &Lab) -> Vec<Job> {
    let spec = ws_spec(5);
    let mut jobs = small_ram_jobs(lab, &spec, &fig7_sizes());
    let cfg = SimConfig {
        ram_size: ram_at(256 << 10, lab.scale),
        flash_size: ByteSize::ZERO,
        ram_policy: WritebackPolicy::AsyncWriteThrough,
        ..SimConfig::baseline()
    };
    jobs.push(Job::new("ws=5G/ram=256K/a/no-flash", cfg, &spec));
    jobs
}

/// Figure 7: tiny RAM against a RAM-sized workload. §7.5: "this
/// configuration carries a 25-30% penalty, which is noticeable but far
/// less than the factor of five or so seen without the flash cache."
pub fn fig7(runs: &Runs, p: &mut Page) {
    let sizes = fig7_sizes();
    let rs = &runs.reports;
    let mut t = small_ram_table(
        "Figure 7 — latency vs RAM size (5 GB working set)",
        &sizes,
        &rs[..sizes.len() * 2],
    );
    t.note("paper: the small-RAM penalty is 25-30% for a RAM-sized workload,");
    t.note("far less than the ~5x seen without the flash cache.");
    p.table(&t, "fig7_small_ram_5g");

    let async_read = |label| {
        let si = sizes.iter().position(|s| s.1 == label).expect("size");
        rs[si * 2 + 1].read_latency_us()
    };
    let (tiny_read, full_read) = (async_read("256K"), async_read("8G"));
    let noflash_tiny_read = rs[sizes.len() * 2].read_latency_us();
    let penalty = (tiny_read - full_read) / full_read;
    p.claim(
        Both,
        "tiny-RAM penalty is moderate",
        penalty > 0.05 && penalty < 1.0,
        format!(
            "256K read {tiny_read:.0} µs vs 8G {full_read:.0} µs ({:.0}% penalty; paper 25-30%)",
            100.0 * penalty
        ),
    );
    p.claim(
        Both,
        "without flash the tiny-RAM penalty is far larger",
        noflash_tiny_read > 2.0 * tiny_read,
        format!("no-flash 256K read {noflash_tiny_read:.0} µs vs with-flash {tiny_read:.0} µs"),
    );
}

// --- Figure 8 -----------------------------------------------------------

const FIG8_PCTS: [u32; 11] = [0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100];

/// Figure 8: the baseline configuration over a 22-point workload axis,
/// write-percentage-major, 60 then 80 GB.
pub fn fig8_grid(_: &Lab) -> Vec<Job> {
    FIG8_PCTS
        .into_iter()
        .flat_map(|pct| {
            [60u64, 80].map(|ws| {
                let spec = WorkloadSpec {
                    working_set: ByteSize::gib(ws),
                    write_fraction: f64::from(pct) / 100.0,
                    seed: ws * 100 + u64::from(pct),
                    ..WorkloadSpec::default()
                };
                Job::new(
                    format!("baseline/{}", spec.label()),
                    SimConfig::baseline(),
                    &spec,
                )
            })
        })
        .collect()
}

/// Figure 8: latency as a function of the write percentage. §7.6: "As
/// long as the write percentage remains below 90 %, avoiding synchronous
/// RAM evictions, performance is independent of the write rate", with
/// degradation above 90 % "taken with a grain of salt".
pub fn fig8(runs: &Runs, p: &mut Page) {
    let mut t = Table::new(
        "Figure 8 — latency vs write percentage",
        &["write_pct", "read60", "read80", "write60", "write80"],
    );
    let mut stable_writes = Vec::new();
    let mut stable_reads = Vec::new();
    for (pi, pct) in FIG8_PCTS.into_iter().enumerate() {
        let (r60, r80) = (&runs.reports[pi * 2], &runs.reports[pi * 2 + 1]);
        // No reads at 100% writes, no writes at 0%.
        let read = |r: &SimReport| (pct < 100).then(|| f(r.read_latency_us()));
        let write = |r: &SimReport| (pct > 0).then(|| f2(r.write_latency_us()));
        let cells = [read(r60), read(r80), write(r60), write(r80)];
        let mut row = vec![pct.to_string()];
        row.extend(cells.map(|c| c.unwrap_or_else(|| "-".into())));
        t.row(row);
        if (10..=80).contains(&pct) {
            stable_writes.push(r80.write_latency_us());
        }
        if (10..=50).contains(&pct) {
            stable_reads.push(r80.read_latency_us());
        }
    }
    t.note("paper: below ~90% writes, reads are stable and writes stay at RAM speed.");
    t.note("our model keeps writes at RAM speed through 90%, but its writeback traffic");
    t.note("loads the gigabit segment much earlier: reads climb from ~20% writes on and");
    t.note("about double by 50%, so the 'reads stable' check below WARNs. The paper");
    t.note("itself flags this region as 'network saturation … imperfectly modeled' (§7.6).");
    t.note("full rows (schema-versioned JSONL): paper-figures/fig8_write_ratio.jsonl");
    p.table(&t, "fig8_write_ratio");

    let wmax = stable_writes.iter().cloned().fold(0.0f64, f64::max);
    p.claim(
        Both,
        "writes at RAM speed for 10-80% write ratios",
        wmax < 1.0,
        format!("max write latency {wmax:.2} µs"),
    );
    // A known deviation, WARN at every scale tried: see the note above.
    let rmin = stable_reads.iter().cloned().fold(f64::INFINITY, f64::min);
    let rmax = stable_reads.iter().cloned().fold(0.0f64, f64::max);
    p.claim(
        Bench,
        "reads stable for low-to-moderate write ratios (10-50%)",
        rmax < 1.7 * rmin,
        format!("read latency range {rmin:.0}–{rmax:.0} µs (80 GB WS)"),
    );
}

// --- Figure 9 -----------------------------------------------------------

const FIG9_READ_US: [u64; 7] = [0, 11, 22, 44, 66, 88, 100];
const FIG9_ARCHS: [Architecture; 3] = [
    Architecture::Lookaside,
    Architecture::Naive,
    Architecture::Unified,
];

/// Figure 9: flash read time × working set (80 then 60 GB) × architecture.
pub fn fig9_grid(_: &Lab) -> Vec<Job> {
    let mut jobs = Vec::new();
    for us in FIG9_READ_US {
        for ws in [80u64, 60] {
            for arch in FIG9_ARCHS {
                let cfg = SimConfig {
                    arch,
                    flash_model: FlashModel::with_read_time_proportional(SimTime::from_micros(us)),
                    ..SimConfig::baseline()
                };
                jobs.push(Job::new(format!("{us}us/ws{ws}/{arch}"), cfg, &ws_spec(ws)));
            }
        }
    }
    jobs
}

/// Figure 9: read latency for a range of flash read times (writes
/// proportional). §7.7: "application latency scales linearly with the
/// flash latency"; architecture matters little while the working set fits
/// in flash, and unified's larger effective size wins once it falls out.
pub fn fig9(runs: &Runs, p: &mut Page) {
    let mut t = Table::new(
        "Figure 9 — read latency (µs/block)",
        &[
            "flash_read_us",
            "lookaside80",
            "naive80",
            "unified80",
            "lookaside60",
            "naive60",
            "unified60",
        ],
    );
    // Row ti holds the six (ws, arch) columns in table order.
    let read = |ti: usize, col: usize| runs.reports[ti * 6 + col].read_latency_us();
    for (ti, us) in FIG9_READ_US.into_iter().enumerate() {
        let mut row = vec![us.to_string()];
        row.extend((0..6).map(|col| f(read(ti, col))));
        t.row(row);
    }
    t.note("leftmost row (0 µs) models phase-change memory.");
    p.table(&t, "fig9_flash_timing");

    let (i44, i88) = (position(&FIG9_READ_US, &44), position(&FIG9_READ_US, &88));
    let (naive80, naive60, unified80) = (1, 4, 2);
    let line = |col| [read(0, col), read(i44, col), read(i88, col)];
    let [l0, l44, l88] = line(naive80);
    let mid = (l0 + l88) / 2.0;
    p.claim(
        Both,
        "latency scales linearly with flash read time",
        (l44 - mid).abs() / mid < 0.15,
        format!("naive/80G at 0/44/88 µs = {l0:.0}/{l44:.0}/{l88:.0} µs (midpoint {mid:.0})"),
    );
    p.claim(
        Both,
        "unified wins when the WS falls out of flash",
        read(i88, unified80) < read(i88, naive80),
        format!(
            "80G at 88 µs: unified {:.0} vs naive {:.0}",
            read(i88, unified80),
            read(i88, naive80)
        ),
    );
    let [l0, l44, l88] = line(naive60);
    let mid = (l0 + l88) / 2.0;
    p.claim(
        Test,
        "naive/60G latency rises linearly with flash read time (15%)",
        l0 < l44 && l44 < l88 && (l44 - mid).abs() / mid < 0.15,
        format!("0/44/88 µs = {l0:.0}/{l44:.0}/{l88:.0} µs (midpoint {mid:.0})"),
    );
}

// --- Figure 10 ----------------------------------------------------------

/// Figure 10: per working set, no flash (warmed), persistent flash not
/// warmed (crash at start), persistent flash warmed. The grid is not a
/// rectangular config × workload product: the cold spec pairs only with
/// the persistent config.
pub fn fig10_grid(_: &Lab) -> Vec<Job> {
    let persistent = SimConfig {
        flash_model: FlashModel::default().with_persistence(true),
        ..SimConfig::baseline()
    };
    WS_SWEEP_GIB
        .into_iter()
        .flat_map(|ws| {
            let warmed = ws_spec(ws);
            let cold = WorkloadSpec {
                skip_warmup: true,
                ..warmed.clone()
            };
            [
                Job::new(format!("ws{ws}/no-flash warmed"), no_flash(), &warmed),
                Job::new(
                    format!("ws{ws}/flash64 not-warmed"),
                    persistent.clone(),
                    &cold,
                ),
                Job::new(
                    format!("ws{ws}/flash64 warmed"),
                    persistent.clone(),
                    &warmed,
                ),
            ]
        })
        .collect()
}

/// Figure 10: flash-cache persistence. §7.8 models persistence as a second
/// flash write per block and measures its benefit by skipping warmup —
/// "equivalent to having a non-persistent flash cache and crashing at the
/// beginning of the simulator run". Shape: the doubled write latency is
/// invisible; not-warmed runs are substantially slower.
pub fn fig10(runs: &Runs, p: &mut Page) {
    let mut t = Table::new(
        "Figure 10 — read latency (µs/block)",
        &[
            "ws_gib",
            "noflash_warmed",
            "flash64_not_warmed",
            "flash64_warmed",
            "warmed_write_us",
        ],
    );
    let mut cold_gap = Vec::new();
    let mut write_cost = Vec::new();
    for (wi, ws) in WS_SWEEP_GIB.into_iter().enumerate() {
        let [nf, cold, warm] = [0, 1, 2].map(|k| &runs.reports[wi * 3 + k]);
        let (cold_read, warm_read) = (cold.read_latency_us(), warm.read_latency_us());
        t.row(vec![
            ws.to_string(),
            f(nf.read_latency_us()),
            f(cold_read),
            f(warm_read),
            f(warm.write_latency_us()),
        ]);
        if (20..=160).contains(&ws) {
            cold_gap.push(cold_read / warm_read);
        }
        write_cost.push(warm.write_latency_us());
    }
    t.note("not-warmed = crash at start of run with a non-persistent cache.");
    t.note("full rows (schema-versioned JSONL): paper-figures/fig10_persistence.jsonl");
    p.table(&t, "fig10_persistence");

    let mean_gap = mean(&cold_gap);
    p.claim(
        Both,
        "not-warmed substantially slower than warmed",
        mean_gap > 1.15,
        format!("mean cold/warm read ratio {mean_gap:.2} (20-160 GiB region)"),
    );
    let wmax = write_cost.iter().cloned().fold(0.0f64, f64::max);
    p.claim(
        Both,
        "doubled (persistent) flash write latency invisible to the app",
        wmax < 1.0,
        format!("max write latency with persistence {wmax:.2} µs"),
    );

    // Against the plain (non-persistent) cache on the 60 GiB workload, a
    // reference the grid leaves out so its rows stay the figure's own.
    let wi = position(&WS_SWEEP_GIB, &60);
    let plain = runs.run(&Job::new(
        "ws60/flash64 plain",
        SimConfig::baseline(),
        &ws_spec(60),
    ));
    let [cold, warm] = [1, 2].map(|k| &runs.reports[wi * 3 + k]);
    p.claim(
        Test,
        "60 GiB: persistence is invisible next to a plain flash cache",
        (warm.write_latency_us() - plain.write_latency_us()).abs() < 0.5
            && warm.read_latency_us() < 1.1 * plain.read_latency_us(),
        format!(
            "persistent write {:.2} vs {:.2} µs, read {:.0} vs {:.0} µs",
            warm.write_latency_us(),
            plain.write_latency_us(),
            warm.read_latency_us(),
            plain.read_latency_us()
        ),
    );
    p.claim(
        Test,
        "60 GiB: a crash at start reads markedly slower than a warmed plain cache",
        cold.read_latency_us() > 1.15 * plain.read_latency_us(),
        format!(
            "cold {:.0} µs vs warmed {:.0} µs (bound 1.15x)",
            cold.read_latency_us(),
            plain.read_latency_us()
        ),
    );
}

// --- Figures 11 and 12 --------------------------------------------------

/// Two hosts sharing one working set (the consistency worst case, §7.9),
/// each workload run without and with the 64 GB flash.
fn shared_ws_jobs(ws: u64, write_pct: u32, seed: u64) -> [Job; 2] {
    let spec = WorkloadSpec {
        working_set: ByteSize::gib(ws),
        write_fraction: f64::from(write_pct) / 100.0,
        hosts: 2,
        ws_count: 1,
        seed,
        ..WorkloadSpec::default()
    };
    let label = spec.label();
    [
        Job::new(format!("no-flash/{label}"), no_flash(), &spec),
        Job::new(format!("flash64/{label}"), SimConfig::baseline(), &spec),
    ]
}

const FIG11_PCTS: [u32; 9] = [10, 20, 30, 40, 50, 60, 70, 80, 90];

/// Figure 11: write percentage × working set (60 then 80 GB).
pub fn fig11_grid(_: &Lab) -> Vec<Job> {
    FIG11_PCTS
        .into_iter()
        .flat_map(|pct| [60u64, 80].map(|ws| shared_ws_jobs(ws, pct, ws * 1000 + u64::from(pct))))
        .flatten()
        .collect()
}

/// Figure 11: invalidations and read latency vs write percentage. §7.9:
/// with a 64 GB flash far more block writes need an invalidation than
/// with RAM-only caches, and reads slow as the write share grows because
/// invalidated blocks are re-fetched from the filer.
pub fn fig11(runs: &Runs, p: &mut Page) {
    let mut t = Table::new(
        "Figure 11 — invalidations (% of block writes) and read latency (µs)",
        &[
            "write_pct",
            "inval_noflash60",
            "inval_flash60",
            "inval_noflash80",
            "inval_flash80",
            "read_flash60",
            "read_flash80",
        ],
    );
    let mut flash_inval = Vec::new();
    let mut noflash_inval = Vec::new();
    let mut flash_reads = Vec::new();
    for (pi, pct) in FIG11_PCTS.into_iter().enumerate() {
        let [nf60, fl60, nf80, fl80] = [0, 1, 2, 3].map(|k| &runs.reports[pi * 4 + k]);
        t.row(vec![
            pct.to_string(),
            f(nf60.invalidation_pct()),
            f(fl60.invalidation_pct()),
            f(nf80.invalidation_pct()),
            f(fl80.invalidation_pct()),
            f(fl60.read_latency_us()),
            f(fl80.read_latency_us()),
        ]);
        flash_inval.push(fl60.invalidation_pct());
        noflash_inval.push(nf60.invalidation_pct());
        flash_reads.push(fl60.read_latency_us());
    }
    t.note("worst case: both hosts share the entire working set (§7.9).");
    p.table(&t, "fig11_inval_write_pct");

    p.claim(
        Both,
        "flash invalidation rate far above RAM-only",
        mean(&flash_inval) > 1.5 * mean(&noflash_inval),
        format!(
            "mean {:.0}% vs {:.0}%",
            mean(&flash_inval),
            mean(&noflash_inval)
        ),
    );
    let (first, last) = (flash_reads[0], flash_reads[flash_reads.len() - 1]);
    p.claim(
        Both,
        "read latency grows with write percentage",
        last > first,
        format!("60 GB flash reads {first:.0} µs @10% → {last:.0} µs @90%"),
    );
}

/// Figure 12: every working set at 30 % writes.
pub fn fig12_grid(_: &Lab) -> Vec<Job> {
    WS_SWEEP_GIB
        .into_iter()
        .flat_map(|ws| shared_ws_jobs(ws, 30, ws))
        .collect()
}

/// Figure 12: invalidations and read latency vs working-set size. §7.9:
/// "for workloads that fit in flash, the percentage of writes requiring
/// invalidation is high … The invalidation rate drops off for
/// out-of-cache workloads, but neither as quickly nor as significantly as
/// with the smaller RAM cache."
pub fn fig12(runs: &Runs, p: &mut Page) {
    let mut t = Table::new(
        "Figure 12 — invalidations (% of block writes) and read latency (µs)",
        &[
            "ws_gib",
            "inval_noflash",
            "inval_flash64",
            "read_noflash",
            "read_flash64",
        ],
    );
    let mut fit_inval = Vec::new();
    let mut out_inval = Vec::new();
    let mut noflash_inval_all = Vec::new();
    for (wi, ws) in WS_SWEEP_GIB.into_iter().enumerate() {
        let (nf, fl) = (&runs.reports[wi * 2], &runs.reports[wi * 2 + 1]);
        t.row(vec![
            ws.to_string(),
            f(nf.invalidation_pct()),
            f(fl.invalidation_pct()),
            f(nf.read_latency_us()),
            f(fl.read_latency_us()),
        ]);
        if ws <= 60 {
            fit_inval.push(fl.invalidation_pct());
        } else if ws >= 160 {
            out_inval.push(fl.invalidation_pct());
        }
        noflash_inval_all.push(nf.invalidation_pct());
    }
    t.note("worst case: both hosts share the entire working set (§7.9).");
    p.table(&t, "fig12_inval_ws");

    let (fit, out, noflash) = (mean(&fit_inval), mean(&out_inval), mean(&noflash_inval_all));
    p.claim(
        Both,
        "in-flash workloads: high invalidation rate",
        fit > 40.0,
        format!("mean invalidation for WS ≤ 60 GiB: {fit:.0}%"),
    );
    p.claim(
        Both,
        "invalidations drop for out-of-cache workloads but stay elevated",
        out < fit && out > noflash,
        format!("out-of-cache {out:.0}% < in-cache {fit:.0}%, still above no-flash {noflash:.0}%"),
    );
    let wi = position(&WS_SWEEP_GIB, &60);
    let (nf, fl) = (
        runs.reports[wi * 2].invalidation_pct(),
        runs.reports[wi * 2 + 1].invalidation_pct(),
    );
    p.claim(
        Test,
        "60 GiB shared WS: flash invalidates over 40% of writes, 1.5x RAM-only",
        fl > 1.5 * nf && fl > 40.0,
        format!("flash {fl:.0}% vs no-flash {nf:.0}%"),
    );
}
