//! Studies beyond the paper's figures: the ablations of the model's own
//! choices, two extension sweeps, the Figure 2 comparison under a filer or
//! shard outage, and the FTL lifetime replay of §8's future work.

use fcache::{Architecture, DegradedPolicy, SimConfig, SimReport, WorkloadSpec, WritebackPolicy};
use fcache_cache::EvictionPolicy;
use fcache_des::SimTime;
use fcache_device::ftl::{Ftl, FtlConfig};
use fcache_device::IoDirection;
use fcache_types::{ByteSize, FaultPlan};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::Scope::Both;
use crate::{f, f2, Job, Lab, Page, Runs, Table};

// --- Ablations ----------------------------------------------------------

/// The ablation variants: the baseline plus one modeling choice flipped
/// each.
fn ablation_variants() -> Vec<(&'static str, SimConfig)> {
    let base = SimConfig::baseline;
    vec![
        ("baseline", base()),
        // §3.2's "newly referenced blocks are first placed in flash, then
        // into RAM" vs a flash cache that only absorbs writebacks.
        (
            "no populate-on-read",
            SimConfig {
                populate_flash_on_read: false,
                ..base()
            },
        ),
        // Whether RAM hits refresh the flash LRU position (the naive and
        // lookaside subset property).
        (
            "no inclusive promotion",
            SimConfig {
                inclusive_promotion: false,
                ..base()
            },
        ),
        // Whether flushing a dirty block out of flash pays a flash read.
        (
            "free flash-read on writeback",
            SimConfig {
                charge_flash_read_on_writeback: false,
                ..base()
            },
        ),
        // Full-duplex segments vs the paper's one packet at a time.
        (
            "full-duplex network",
            SimConfig {
                duplex_network: true,
                ..base()
            },
        ),
        // How many writebacks the periodic syncer keeps in flight.
        (
            "syncer window = 1",
            SimConfig {
                syncer_window: 1,
                ..base()
            },
        ),
        (
            "syncer window = 256",
            SimConfig {
                syncer_window: 256,
                ..base()
            },
        ),
        (
            "FIFO replacement",
            SimConfig {
                replacement: EvictionPolicy::Fifo,
                ..base()
            },
        ),
        (
            "CLOCK replacement",
            SimConfig {
                replacement: EvictionPolicy::Clock,
                ..base()
            },
        ),
    ]
}

/// Ablations: every variant on the 80 GB baseline workload.
pub fn ablations_grid(_: &Lab) -> Vec<Job> {
    let spec = WorkloadSpec::baseline_80g();
    ablation_variants()
        .into_iter()
        .map(|(name, cfg)| Job::new(name, cfg, &spec))
        .collect()
}

/// Ablations: how much each of the model's own design choices moves the
/// baseline, so readers can judge how robust the reproduced shapes are.
pub fn ablations(runs: &Runs, p: &mut Page) {
    let mut t = Table::new(
        "Ablations — 80 GB working set, naive baseline",
        &[
            "variant",
            "read_us",
            "write_us",
            "flash_hit_pct",
            "net_packets",
        ],
    );
    for (job, r) in runs.jobs.iter().zip(&runs.reports) {
        t.row(vec![
            job.label.clone(),
            f(r.read_latency_us()),
            f2(r.write_latency_us()),
            f(100.0 * r.flash_hit_rate_of_all_reads()),
            r.net.packets.to_string(),
        ]);
    }
    p.table(&t, "ablations");

    let get = |name: &str| {
        let i = runs
            .jobs
            .iter()
            .position(|j| j.label == name)
            .expect("variant");
        &runs.reports[i]
    };
    let read = |name: &str| get(name).read_latency_us();
    let baseline = read("baseline");
    let near_baseline = |v: f64| (v - baseline).abs() < 0.2 * baseline;
    let no_populate = read("no populate-on-read");
    p.claim(
        Both,
        "populate-on-read is load-bearing for reads",
        no_populate > 1.15 * baseline,
        format!("without populate: {no_populate:.0} µs vs baseline {baseline:.0} µs"),
    );
    let no_promotion = read("no inclusive promotion");
    p.claim(
        Both,
        "inclusive promotion is a second-order effect",
        near_baseline(no_promotion),
        format!("without promotion: {no_promotion:.0} µs vs baseline {baseline:.0} µs"),
    );
    let duplex = read("full-duplex network");
    p.claim(
        Both,
        "duplex changes little at 30% writes",
        near_baseline(duplex),
        format!("duplex: {duplex:.0} µs vs baseline {baseline:.0} µs"),
    );
    let window1 = get("syncer window = 1").write_latency_us();
    p.claim(
        Both,
        "a synchronous (window=1) syncer still keeps writes cheap at 30% writes",
        window1 < 10.0,
        format!("window=1 write latency {window1:.2} µs"),
    );
    let (fifo, clock) = (read("FIFO replacement"), read("CLOCK replacement"));
    let spread = [fifo, clock, baseline];
    let max = spread.iter().cloned().fold(0.0, f64::max);
    let min = spread.iter().cloned().fold(f64::INFINITY, f64::min);
    p.claim(
        Both,
        "replacement policy is second-order (paper's §1 scoping holds)",
        max < 1.25 * min,
        format!("LRU {baseline:.0} / CLOCK {clock:.0} / FIFO {fifo:.0} µs reads"),
    );
}

// --- Extensions ---------------------------------------------------------

/// (hosts, shared working set) points of the host-scaling sweep.
const HOST_POINTS: [(u16, bool); 7] = [
    (1, false),
    (2, false),
    (2, true),
    (4, false),
    (4, true),
    (8, false),
    (8, true),
];

const SYNC_PERIODS_S: [u32; 11] = [1, 2, 3, 5, 8, 10, 15, 20, 30, 45, 60];

/// Extensions: host scaling (60 GB per working set, private or shared)
/// then the RAM syncer-period sweep on the 80 GB baseline.
pub fn extensions_grid(_: &Lab) -> Vec<Job> {
    let hosts = HOST_POINTS.into_iter().map(|(hosts, shared)| {
        let spec = WorkloadSpec {
            working_set: ByteSize::gib(60),
            hosts,
            ws_count: if shared { 1 } else { hosts as usize },
            seed: 6000 + u64::from(hosts) * 2 + u64::from(shared),
            ..WorkloadSpec::default()
        };
        Job::new(spec.label(), SimConfig::baseline(), &spec)
    });
    let periods = SYNC_PERIODS_S.into_iter().map(|secs| {
        let cfg = SimConfig {
            ram_policy: WritebackPolicy::Periodic(secs),
            ..SimConfig::baseline()
        };
        Job::new(format!("ram p{secs}"), cfg, &WorkloadSpec::baseline_80g())
    });
    hosts.chain(periods).collect()
}

/// Extensions: two sweeps the paper motivates but does not plot. Host
/// scaling follows "one or more compute servers" (§3) past the two hosts
/// of the consistency experiments; the fine syncer-period sweep fills in
/// the curve between the paper's p ∈ {1, 5, 15, 30} (§3.6: "we did not
/// try other more elaborate policies").
pub fn extensions(runs: &Runs, p: &mut Page) {
    let mut t = Table::new(
        "Extension A — host scaling (60 GB per working set, 30% writes)",
        &["hosts", "sharing", "read_us", "write_us", "inval_pct"],
    );
    let mut shared_inval = Vec::new();
    for ((hosts, shared), r) in HOST_POINTS.into_iter().zip(&runs.reports) {
        t.row(vec![
            hosts.to_string(),
            if shared { "shared" } else { "private" }.to_string(),
            f(r.read_latency_us()),
            f2(r.write_latency_us()),
            f(r.invalidation_pct()),
        ]);
        if shared {
            shared_inval.push(r.invalidation_pct());
        }
    }
    t.note("private working sets keep reads fast; residual invalidations come");
    t.note("from the popular files all hosts touch. sharing one set drives both");
    t.note("latency and invalidation pressure up with host count.");
    p.table(&t, "ext_host_scaling");
    p.claim(
        Both,
        "invalidation pressure grows with shared host count",
        shared_inval.windows(2).all(|w| w[1] >= w[0] * 0.9) // monotone-ish
            && shared_inval.last() > shared_inval.first(),
        format!("shared-WS invalidation % by host count: {shared_inval:.0?}"),
    );

    let mut t2 = Table::new(
        "Extension B — RAM syncer period sweep (naive, flash policy a)",
        &["period_s", "read_us", "write_us"],
    );
    let mut early: f64 = 0.0;
    for (secs, r) in SYNC_PERIODS_S
        .into_iter()
        .zip(&runs.reports[HOST_POINTS.len()..])
    {
        t2.row(vec![
            secs.to_string(),
            f(r.read_latency_us()),
            f2(r.write_latency_us()),
        ]);
        if secs <= 5 {
            early = early.max(r.write_latency_us());
        }
    }
    t2.note("longer periods let dirty data pile up; eventually evictions of");
    t2.note("dirty blocks put writeback stalls on application paths.");
    p.table(&t2, "ext_period_sweep");
    p.claim(
        Both,
        "short periods keep writes at RAM speed",
        early < 1.0,
        format!("max write latency for p1..p5: {early:.2} µs"),
    );
}

// --- Fault outage and fault shard ---------------------------------------

/// The Figure 2 comparison reduced to the RAM policy axis (flash policy
/// `a`), once healthy and once under `fault` with the queue degraded
/// policy: 21 healthy jobs labeled `<arch>/<ram policy>`, then the 21
/// faulted ones in the same order.
fn outage_jobs(base: SimConfig, fault: &str) -> Vec<Job> {
    let plan = FaultPlan::parse(fault).expect("fault spec");
    let spec = WorkloadSpec::baseline_80g();
    let cfgs: Vec<(String, SimConfig)> = Architecture::ALL
        .into_iter()
        .flat_map(|arch| WritebackPolicy::ALL.map(|rp| (arch, rp)))
        .map(|(arch, ram_policy)| {
            let cfg = SimConfig {
                arch,
                ram_policy,
                ..base.clone()
            };
            (format!("{arch}/{}", ram_policy.label()), cfg)
        })
        .collect();
    let healthy = cfgs
        .iter()
        .map(|(label, cfg)| Job::new(label.clone(), cfg.clone(), &spec));
    let faulted = cfgs.iter().map(|(label, cfg)| {
        let mut cfg = cfg.clone();
        cfg.fault_plan = plan.clone();
        cfg.degraded = DegradedPolicy::Queue;
        Job::new(format!("{label} + outage"), cfg, &spec)
    });
    healthy.chain(faulted).collect()
}

/// The healthy and faulted halves of an outage grid.
fn outage_halves(runs: &Runs) -> (&[SimReport], &[SimReport]) {
    runs.reports.split_at(runs.reports.len() / 2)
}

/// Whether the faulted half kept every operation of the healthy half:
/// equal read and write tallies and no failed operation.
fn lost_none(p: &mut Page, name: &str, healthy: &[SimReport], faulted: &[SimReport]) {
    p.claim(
        Both,
        name,
        healthy.iter().zip(faulted).all(|(h, o)| {
            h.metrics.read_ops == o.metrics.read_ops
                && h.metrics.write_ops == o.metrics.write_ops
                && o.robustness.failed_ops == 0
        }),
        format!(
            "{} jobs, op tallies equal healthy vs faulted, 0 failed",
            faulted.len()
        ),
    );
}

/// The §7.1 orderings under a fault. Lookaside and unified expose a
/// synchronous-to-filer corner through the RAM tier's `s` policy (naive's
/// corner needs the flash tier too, which stays `a` here); that corner
/// must still write slowest, and unified must still read fastest on
/// average, healthy and faulted.
fn orderings_hold(p: &mut Page, healthy: &[SimReport], faulted: &[SimReport], under: &str) {
    let n = WritebackPolicy::ALL.len();
    let sync_i = WritebackPolicy::ALL
        .iter()
        .position(|&x| x == WritebackPolicy::WriteThrough)
        .expect("s in policy list");
    for (ai, arch) in Architecture::ALL.into_iter().enumerate() {
        if arch == Architecture::Naive {
            continue;
        }
        let writes: Vec<f64> = faulted[ai * n..(ai + 1) * n]
            .iter()
            .map(SimReport::write_latency_us)
            .collect();
        let worst = writes.iter().cloned().fold(0.0, f64::max);
        p.claim(
            Both,
            format!("{arch}: synchronous-to-filer corner still writes slowest {under}"),
            writes[sync_i] >= worst,
            format!("s = {:.2} µs, max = {worst:.2} µs", writes[sync_i]),
        );
    }
    let mean_read = |reports: &[SimReport], ai: usize| {
        reports[ai * n..(ai + 1) * n]
            .iter()
            .map(SimReport::read_latency_us)
            .sum::<f64>()
            / n as f64
    };
    for reports in [healthy, faulted] {
        let naive = mean_read(reports, 0);
        let unified = mean_read(reports, 2);
        p.claim(
            Both,
            "unified still reads fastest",
            unified < naive,
            format!("unified {unified:.1} µs vs naive {naive:.1} µs"),
        );
    }
}

/// Fault outage: a 200 s filer outage in the measured half of the
/// ~2300 s-equivalent run (a paper-scale clause, divided by the time
/// scale with everything else).
pub fn fault_outage_grid(_: &Lab) -> Vec<Job> {
    outage_jobs(SimConfig::baseline(), "filer:outage@1500s-1700s")
}

/// Fault outage: the Figure 2 policy comparison rerun with a mid-run filer
/// outage. Cache hits keep serving, misses and flushes park until
/// recovery. Every job must finish with every operation accounted for and
/// engage the robustness layer, and the §7.1 orderings must hold.
pub fn fault_outage(runs: &Runs, p: &mut Page) {
    let (healthy, faulted) = outage_halves(runs);
    let mut table = Table::new(
        "Fault outage — healthy vs 200 s filer outage (queue policy)",
        &[
            "arch/ram",
            "read us",
            "read+out",
            "write us",
            "write+out",
            "queued",
            "degr%",
        ],
    );
    for ((job, h), o) in runs.jobs.iter().zip(healthy).zip(faulted) {
        table.row(vec![
            job.label.clone(),
            f(h.read_latency_us()),
            f(o.read_latency_us()),
            f2(h.write_latency_us()),
            f2(o.write_latency_us()),
            o.robustness.queued_ops.to_string(),
            format!("{:.1}", 100.0 * o.robustness.degraded_fraction(o.end_time)),
        ]);
    }
    p.table(&table, "fault_outage");

    p.claim(
        Both,
        "outage engages the robustness layer on every job",
        faulted
            .iter()
            .all(|r| r.robustness.engaged() && r.robustness.degraded_time.as_nanos() > 0),
        format!(
            "min queued ops {}",
            faulted
                .iter()
                .map(|r| r.robustness.queued_ops)
                .min()
                .unwrap_or(0)
        ),
    );
    lost_none(p, "queue policy loses no operations", healthy, faulted);
    orderings_hold(p, healthy, faulted, "under outage");
}

/// Fault shard: 4 shards, replication 2, reads hedged after 500 µs; shard
/// 1 down for 150 s inside the measured half (hedged reads shorten the
/// run, so the window sits earlier than the filer outage's).
pub fn fault_shard_grid(_: &Lab) -> Vec<Job> {
    let base = SimConfig {
        shards: 4,
        replicas: 2,
        hedge: Some(SimTime::from_micros(500)),
        ..SimConfig::baseline()
    };
    outage_jobs(base, "shard1:outage@1000s-1150s")
}

/// Fault shard: the Figure 2 policy comparison over a sharded remote tier
/// with one shard failing mid-run. Reads fail over to the surviving
/// replica, writes to the dead shard are acknowledged by the live one and
/// re-replicated on recovery: no operation may be lost, in-window
/// availability must stay at 100%, recovery must heal the tier, and the
/// §7.1 orderings must hold.
pub fn fault_shard(runs: &Runs, p: &mut Page) {
    let (healthy, faulted) = outage_halves(runs);
    let mut table = Table::new(
        "Fault shard — healthy vs 150 s shard-1 outage (4 shards × 2 replicas, hedged)",
        &[
            "arch/ram",
            "read us",
            "read+out",
            "write us",
            "write+out",
            "failover",
            "re-repl",
            "avail%",
        ],
    );
    for ((job, h), o) in runs.jobs.iter().zip(healthy).zip(faulted) {
        // One fault window (the shard outage): the fraction of remote
        // fetches first attempted inside it that ultimately succeeded.
        let avail = o
            .robustness
            .windows
            .iter()
            .map(|w| w.availability())
            .fold(1.0, f64::min);
        table.row(vec![
            job.label.clone(),
            f(h.read_latency_us()),
            f(o.read_latency_us()),
            f2(h.write_latency_us()),
            f2(o.write_latency_us()),
            o.shard.remote.failovers.to_string(),
            o.shard.remote.re_replicated_blocks.to_string(),
            format!("{:.1}", 100.0 * avail),
        ]);
    }
    p.table(&table, "fault_shard");

    // Replication masks the outage: nothing fails, nothing queues behind
    // the dead shard, and no acknowledged write (or read) is lost.
    let lose = "single-shard outage at replication 2 loses no operations";
    lost_none(p, lose, healthy, faulted);
    p.claim(
        Both,
        "reads fail over to the surviving replica on every job",
        faulted.iter().all(|r| r.shard.remote.failovers > 0),
        format!(
            "min failovers {}",
            faulted
                .iter()
                .map(|r| r.shard.remote.failovers)
                .min()
                .unwrap_or(0)
        ),
    );
    p.claim(
        Both,
        "in-window availability stays at 100% behind replication",
        faulted.iter().all(|r| {
            !r.robustness.windows.is_empty()
                && r.robustness
                    .windows
                    .iter()
                    .all(|w| w.ops > 0 && w.ok == w.ops)
        }),
        "every in-window fetch served by a live replica".to_string(),
    );
    p.claim(
        Both,
        "recovery re-replicates every under-replicated block by run end",
        faulted.iter().all(|r| {
            let rem = &r.shard.remote;
            rem.under_peak > 0 && rem.re_replicated_blocks > 0 && rem.under_now == 0
        }),
        format!(
            "max under-replication peak {} blocks",
            faulted
                .iter()
                .map(|r| r.shard.remote.under_peak)
                .max()
                .unwrap_or(0)
        ),
    );
    orderings_hold(p, healthy, faulted, "with a shard down");
}

// --- FTL lifetime -------------------------------------------------------

/// FTL lifetime: the 80 GB baseline with its flash I/O logged.
pub fn ftl_grid(_: &Lab) -> Vec<Job> {
    let cfg = SimConfig {
        log_flash_io: true,
        ..SimConfig::baseline()
    };
    vec![Job::new("flash io-log", cfg, &WorkloadSpec::baseline_80g())]
}

/// Replays `lbas` through a fresh page-mapped FTL over `pages` logical
/// pages; `trim` may trim a page before each write.
fn ftl_replay(
    pages: u64,
    op_pct: u32,
    lbas: impl Iterator<Item = u64>,
    mut trim: impl FnMut() -> Option<u64>,
) -> Ftl {
    let mut ftl = Ftl::new(FtlConfig {
        logical_pages: pages,
        overprovision_pct: op_pct,
        ..FtlConfig::default()
    });
    for lba in lbas {
        if let Some(t) = trim() {
            ftl.trim(t);
        }
        ftl.write(lba);
    }
    ftl
}

/// One table row per FTL replay; returns its write amplification.
fn ftl_row(t: &mut Table, workload: &str, op_pct: u32, ftl: &Ftl) -> f64 {
    let s = ftl.stats();
    t.row(vec![
        workload.into(),
        op_pct.to_string(),
        f2(s.write_amplification()),
        f2(s.mean_erases_per_block(ftl.config().physical_blocks())),
        ftl.max_erases().to_string(),
    ]);
    s.write_amplification()
}

/// FTL lifetime, the paper's §8 future work: "Flash caching is a good
/// candidate for a custom flash translation layer \[FlashTier\] — exploring
/// approaches and algorithms as well as establishing satisfactory
/// lifetime for this application remains as future work." The captured
/// flash write stream replays through the page-mapped FTL at several
/// overprovisioning levels against a uniform-random control, and once
/// with trims of evicted blocks (FlashTier's key cache-specific
/// optimization).
pub fn ftl_lifetime(runs: &Runs, p: &mut Page) {
    let log = runs.reports[0]
        .flash_iolog
        .as_ref()
        .expect("flash log enabled");
    let writes: Vec<u64> = log
        .iter()
        .filter(|e| e.dir == IoDirection::Write)
        .map(|e| e.lba)
        .collect();
    p.line(format!(
        "# captured {} flash writes from the cache workload",
        writes.len()
    ));

    let pages = (64u64 << 30) / 4096 / runs.lab.scale; // the 64 GB flash, scaled
    let mut t = Table::new(
        "FTL — write amplification and wear",
        &["workload", "op_pct", "WA", "erases_per_block", "max_erase"],
    );
    let mut cache_wa = Vec::new();
    for op_pct in [7u32, 15, 28] {
        let cache = ftl_replay(pages, op_pct, writes.iter().copied(), || None);
        cache_wa.push(ftl_row(&mut t, "cache", op_pct, &cache));
        // Uniform random control with the same volume.
        let mut rng = SmallRng::seed_from_u64(9);
        let random = (0..writes.len()).map(|_| rng.gen_range(0..pages));
        let random = ftl_replay(pages, op_pct, random, || None);
        ftl_row(&mut t, "uniform-random", op_pct, &random);
    }
    // Trim-on-evict: 25% interleaved trims (a cache FTL knows exactly
    // which blocks it evicted).
    let mut rng = SmallRng::seed_from_u64(10);
    let trimmed = ftl_replay(pages, 7, writes.iter().copied(), || {
        rng.gen_bool(0.25).then(|| rng.gen_range(0..pages))
    });
    let trim_wa = ftl_row(&mut t, "cache + trim-on-evict", 7, &trimmed);
    t.note("a cache-aware FTL (FlashTier-style trim of evicted blocks) cuts WA further.");
    p.table(&t, "ftl_lifetime");

    p.claim(
        Both,
        "overprovisioning reduces write amplification",
        cache_wa.windows(2).all(|w| w[1] <= w[0] + 0.01),
        format!("cache WA at 7/15/28% OP: {cache_wa:.2?}"),
    );
    p.claim(
        Both,
        "trim-on-evict reduces write amplification",
        trim_wa < cache_wa[0],
        format!("trim {trim_wa:.2} vs plain {:.2}", cache_wa[0]),
    );
}
