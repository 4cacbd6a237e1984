//! Multi-host runs are pinned bit for bit. Every write invalidates the
//! other hosts' copies of its blocks (§3.8), so a shared working set at
//! 50% writes drives the invalidation path on nearly every op. Each run
//! pins the end time, the number of block writes that invalidated a peer,
//! and an FNV-1a digest of the whole report's JSON encoding minus its
//! `events` key. The executor poll count (`events`) is a cost, not
//! behaviour, and is pinned by its own tests.
//!
//! The table covers the three architectures under flat and SSD timing at
//! 2 and 32 hosts, plus one 100-host fleet cell at fan-in 4 on a sharded,
//! replicated, hedged backend with a shard outage.

use std::sync::OnceLock;

use fcache::{
    report_to_json, Architecture, FlashTiming, FleetPlan, SimConfig, SimReport, Workbench,
    WorkloadSpec,
};
use fcache_des::SimTime;
use fcache_device::SsdConfig;
use fcache_types::{FaultPlan, Json};

/// `end_time` (ns), `metrics.writes_invalidating`, report digest.
type Observed = (u64, u64, u64);

/// FNV-1a (64-bit) of the report's JSON encoding without its `events` key.
fn digest(r: &SimReport) -> u64 {
    let mut json = report_to_json(r);
    if let Json::Obj(fields) = &mut json {
        fields.retain(|(key, _)| key != "events");
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in json.to_string().bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn observe(r: &SimReport) -> Observed {
    (
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
    /// Executor polls (`SimReport::events`).
    events: u64,
}

#[rustfmt::skip]
const PINS: &[Pin] = &[
    Pin { arch: Architecture::Naive, ssd: false, hosts: 2, want: (385745508, 2292, 0xb37d8e7bb11881f1), events: 44794 },
    Pin { arch: Architecture::Naive, ssd: false, hosts: 32, want: (117067012, 3177, 0x15f4dfb1e8cbbca8), events: 51774 },
    Pin { arch: Architecture::Naive, ssd: true, hosts: 2, want: (368667678, 2242, 0xd2ef3fe3638d44bc), events: 47803 },
    Pin { arch: Architecture::Naive, ssd: true, hosts: 32, want: (116974261, 3175, 0xe6356f77d06668b9), events: 53948 },
    Pin { arch: Architecture::Lookaside, ssd: false, hosts: 2, want: (359277524, 2273, 0xe687bfc3b4d486fb), events: 36189 },
    Pin { arch: Architecture::Lookaside, ssd: false, hosts: 32, want: (116101372, 3164, 0x337b461f11937b63), events: 43453 },
    Pin { arch: Architecture::Lookaside, ssd: true, hosts: 2, want: (370253601, 2247, 0x3ee7bae66f8d8a67), events: 35961 },
    Pin { arch: Architecture::Lookaside, ssd: true, hosts: 32, want: (116104412, 3169, 0xff4430dccf336a3b), events: 42099 },
    Pin { arch: Architecture::Unified, ssd: false, hosts: 2, want: (391122444, 2261, 0xc7aea45cdd2a0331), events: 35828 },
    Pin { arch: Architecture::Unified, ssd: false, hosts: 32, want: (116737336, 3188, 0xb86b7804d67f9faf), events: 39695 },
    Pin { arch: Architecture::Unified, ssd: true, hosts: 2, want: (392925206, 2238, 0x03c22885da6a978a), events: 38431 },
    Pin { arch: Architecture::Unified, ssd: true, hosts: 32, want: (116670971, 3178, 0x72244122ad43ec95), events: 39987 },
];

/// The table's runs, one report per [`PINS`] row, run once and shared by
/// the behaviour pin and the poll-count pin.
fn pinned_reports() -> &'static [SimReport] {
    static REPORTS: OnceLock<Vec<SimReport>> = OnceLock::new();
    REPORTS.get_or_init(|| {
        let wb = Workbench::new(4096, 42);
        PINS.iter()
            .map(|p| {
                wb.run(&config(p.arch, p.ssd), &shared_spec(p.hosts))
                    .expect("multi-host run")
            })
            .collect()
    })
}

#[test]
fn multihost_runs_are_pinned() {
    let mut diffs = Vec::new();
    for (p, report) in PINS.iter().zip(pinned_reports()) {
        let got = observe(report);
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
fn multihost_poll_counts_are_pinned() {
    let mut diffs = Vec::new();
    for (p, report) in PINS.iter().zip(pinned_reports()) {
        if report.events != p.events {
            diffs.push(format!(
                "{:?} ssd={} hosts={}: got {}, want {}",
                p.arch, p.ssd, p.hosts, report.events, p.events
            ));
        }
    }
    assert!(
        diffs.is_empty(),
        "multi-host poll counts moved:\n{}",
        diffs.join("\n")
    );
}

/// The 100-host cell's run, shared by its two pins.
fn cell_report() -> &'static SimReport {
    static REPORT: OnceLock<SimReport> = OnceLock::new();
    REPORT.get_or_init(|| {
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
        report
    })
}

#[test]
fn hundred_host_sharded_cell_is_pinned() {
    let report = cell_report();
    assert_eq!(report.fleet.per_host.len(), 100);
    assert_eq!(observe(report), CELL);
}

#[test]
fn hundred_host_sharded_cell_poll_count_is_pinned() {
    assert_eq!(cell_report().events, CELL_EVENTS);
}

/// The 100-host cell's pin.
const CELL: Observed = (45813228, 2758, 0xb64d50c835ff7cc7);

/// The 100-host cell's executor poll count.
const CELL_EVENTS: u64 = 85924;
