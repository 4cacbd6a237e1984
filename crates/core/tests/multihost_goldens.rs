//! Multi-host runs are pinned bit for bit. Every write invalidates the
//! other hosts' copies of its blocks (§3.8), so a shared working set at
//! 50% writes drives the invalidation path on nearly every op. Each run
//! pins the executor event count, the end time, the number of block
//! writes that invalidated a peer, and an FNV-1a digest of the whole
//! report's JSON encoding.
//!
//! The table covers the three architectures under flat and SSD timing at
//! 2 and 32 hosts, plus one 100-host fleet cell at fan-in 4 on a sharded,
//! replicated, hedged backend with a shard outage.

use fcache::{
    report_to_json, Architecture, FlashTiming, FleetPlan, SimConfig, SimReport, Workbench,
    WorkloadSpec,
};
use fcache_des::SimTime;
use fcache_device::SsdConfig;
use fcache_types::FaultPlan;

/// `events`, `end_time` (ns), `metrics.writes_invalidating`, report digest.
type Observed = (u64, u64, u64, u64);

/// FNV-1a (64-bit) of the report's JSON encoding.
fn digest(r: &SimReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in report_to_json(r).to_string().bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn observe(r: &SimReport) -> Observed {
    (
        r.events,
        r.end_time.as_nanos(),
        r.metrics.writes_invalidating,
        digest(r),
    )
}

/// Half writes over one working set shared by every host.
fn shared_spec(hosts: u16) -> WorkloadSpec {
    WorkloadSpec {
        write_fraction: 0.5,
        hosts,
        ws_count: 1,
        seed: 42,
        ..WorkloadSpec::default()
    }
}

fn config(arch: Architecture, ssd: bool) -> SimConfig {
    SimConfig {
        arch,
        flash_timing: if ssd {
            FlashTiming::Ssd(SsdConfig::auto())
        } else {
            FlashTiming::Flat
        },
        ..SimConfig::baseline()
    }
}

/// One pinned run of the architecture × timing × host-count table.
struct Pin {
    arch: Architecture,
    ssd: bool,
    hosts: u16,
    want: Observed,
}

#[rustfmt::skip]
const PINS: &[Pin] = &[
    Pin { arch: Architecture::Naive, ssd: false, hosts: 2, want: (94356, 385745508, 2292, 0x6096f2a33837223d) },
    Pin { arch: Architecture::Naive, ssd: false, hosts: 32, want: (106172, 117067012, 3177, 0xa2816c546176c626) },
    Pin { arch: Architecture::Naive, ssd: true, hosts: 2, want: (99825, 368667678, 2242, 0xee575636cfcd3120) },
    Pin { arch: Architecture::Naive, ssd: true, hosts: 32, want: (109824, 116974261, 3175, 0x46ccf936b5ade5ba) },
    Pin { arch: Architecture::Lookaside, ssd: false, hosts: 2, want: (83398, 359277524, 2273, 0xa6ce023b15de8cc9) },
    Pin { arch: Architecture::Lookaside, ssd: false, hosts: 32, want: (94801, 116101372, 3164, 0xcb07f9f35f324708) },
    Pin { arch: Architecture::Lookaside, ssd: true, hosts: 2, want: (83213, 370253601, 2247, 0x302b0f36698e42cf) },
    Pin { arch: Architecture::Lookaside, ssd: true, hosts: 32, want: (93676, 116104412, 3169, 0xd0c275070b018221) },
    Pin { arch: Architecture::Unified, ssd: false, hosts: 2, want: (71272, 391122444, 2261, 0xba992cbc518b52b3) },
    Pin { arch: Architecture::Unified, ssd: false, hosts: 32, want: (86024, 116737336, 3188, 0x0b3168323b31ca10) },
    Pin { arch: Architecture::Unified, ssd: true, hosts: 2, want: (74226, 392925206, 2238, 0xe1ebea5c0011bf02) },
    Pin { arch: Architecture::Unified, ssd: true, hosts: 32, want: (86482, 116670971, 3178, 0x019cc31bb37da22a) },
];

#[test]
fn multihost_runs_are_pinned() {
    let wb = Workbench::new(4096, 42);
    let mut diffs = Vec::new();
    for p in PINS {
        let report = wb
            .run(&config(p.arch, p.ssd), &shared_spec(p.hosts))
            .expect("multi-host run");
        let got = observe(&report);
        if got != p.want {
            diffs.push(format!(
                "{:?} ssd={} hosts={}: got {got:?}, want {:?}",
                p.arch, p.ssd, p.hosts, p.want
            ));
        }
    }
    assert!(
        diffs.is_empty(),
        "multi-host goldens moved:\n{}",
        diffs.join("\n")
    );
}

#[test]
fn hundred_host_sharded_cell_is_pinned() {
    let wb = Workbench::new(4096, 42);
    let base = SimConfig {
        shards: 4,
        replicas: 2,
        hedge: Some(SimTime::from_micros(200)),
        fault_plan: FaultPlan::parse("shard1:outage@40s-60s").expect("plan parses"),
        ..SimConfig::baseline()
    };
    let plan = FleetPlan::new(100, 100, 4);
    let cfg = plan.cell_config(&base, 0);
    let spec = plan.cell_spec(&shared_spec(100), 0);
    let report = wb.scenario(&cfg, &spec).run().expect("fleet cell run");
    assert_eq!(report.fleet.per_host.len(), 100);
    assert_eq!(observe(&report), CELL);
}

/// The 100-host cell's pin.
const CELL: Observed = (181219, 45813228, 2758, 0x658cb9d0e1c5f888);
