//! Runs that queue on the network wire are pinned bit for bit. Half
//! writes over one working set shared by every host keep the write-through
//! and writeback flushes queueing behind demand traffic on each host's
//! segment, and the fault plans put error draws, slowed packets and a
//! filer outage on that queue. Each row pins an FNV-1a digest of the whole
//! report's JSON encoding minus its `events` key; the executor poll count
//! (`events`) is a cost, not behaviour, and is pinned by its own test.
//!
//! The table covers half- and full-duplex segments × three fault plans ×
//! the three architectures × 1 and 4 hosts.

use std::sync::OnceLock;

use fcache::{report_to_json, Architecture, SimConfig, SimReport, Workbench, WorkloadSpec};
use fcache_types::{FaultPlan, Json};

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

const ERR: &str = "net:err0.3@20s-80s";
const SLOW_ERR: &str = "net:slowx4@10s-50s;net:err0.2@30s-90s";
const OUTAGE: &str = "filer:outage@40s-60s";

fn config(p: &Pin) -> SimConfig {
    SimConfig {
        arch: p.arch,
        duplex_network: p.duplex,
        fault_plan: FaultPlan::parse(p.plan).expect("plan parses"),
        ..SimConfig::baseline()
    }
}

/// One pinned run of the duplex × plan × architecture × host-count table.
struct Pin {
    duplex: bool,
    plan: &'static str,
    arch: Architecture,
    hosts: u16,
    /// Report digest.
    want: u64,
    /// Executor polls (`SimReport::events`).
    events: u64,
}

use Architecture::{Lookaside, Naive, Unified};

#[rustfmt::skip]
const PINS: &[Pin] = &[
    Pin { duplex: false, plan: ERR, arch: Naive, hosts: 1, want: 0x6e1e16cccf0a745e, events: 42254 },
    Pin { duplex: false, plan: ERR, arch: Naive, hosts: 4, want: 0x12e014f1ad8ba0d2, events: 48489 },
    Pin { duplex: false, plan: ERR, arch: Lookaside, hosts: 1, want: 0x11fdc819c352cb47, events: 32485 },
    Pin { duplex: false, plan: ERR, arch: Lookaside, hosts: 4, want: 0x251a4f1dde8dfac9, events: 39443 },
    Pin { duplex: false, plan: ERR, arch: Unified, hosts: 1, want: 0x22a32b42d9766ef4, events: 32852 },
    Pin { duplex: false, plan: ERR, arch: Unified, hosts: 4, want: 0x488aa2b40b5cf5ad, events: 38899 },
    Pin { duplex: false, plan: SLOW_ERR, arch: Naive, hosts: 1, want: 0xc15002b74c70eca6, events: 41934 },
    Pin { duplex: false, plan: SLOW_ERR, arch: Naive, hosts: 4, want: 0x998460fc723235d4, events: 48402 },
    Pin { duplex: false, plan: SLOW_ERR, arch: Lookaside, hosts: 1, want: 0x51d5c5c532dbc8be, events: 32282 },
    Pin { duplex: false, plan: SLOW_ERR, arch: Lookaside, hosts: 4, want: 0x32fe885c9450e709, events: 38880 },
    Pin { duplex: false, plan: SLOW_ERR, arch: Unified, hosts: 1, want: 0x9d74e1197e3adcf5, events: 32786 },
    Pin { duplex: false, plan: SLOW_ERR, arch: Unified, hosts: 4, want: 0xe48dcc5490b41c92, events: 38573 },
    Pin { duplex: false, plan: OUTAGE, arch: Naive, hosts: 1, want: 0xdb1268380080dc34, events: 41906 },
    Pin { duplex: false, plan: OUTAGE, arch: Naive, hosts: 4, want: 0xe39c680121cf8b28, events: 47889 },
    Pin { duplex: false, plan: OUTAGE, arch: Lookaside, hosts: 1, want: 0xf1613e34f0465212, events: 32176 },
    Pin { duplex: false, plan: OUTAGE, arch: Lookaside, hosts: 4, want: 0x3b316f145bfc1743, events: 38754 },
    Pin { duplex: false, plan: OUTAGE, arch: Unified, hosts: 1, want: 0xbf1b0f5ccab56fb9, events: 32677 },
    Pin { duplex: false, plan: OUTAGE, arch: Unified, hosts: 4, want: 0x37c98d638f3efe95, events: 37987 },
    Pin { duplex: true, plan: ERR, arch: Naive, hosts: 1, want: 0x87db26bcbe72304b, events: 42314 },
    Pin { duplex: true, plan: ERR, arch: Naive, hosts: 4, want: 0x501979ddcdab7369, events: 48695 },
    Pin { duplex: true, plan: ERR, arch: Lookaside, hosts: 1, want: 0x48a0e0816e1035c6, events: 27031 },
    Pin { duplex: true, plan: ERR, arch: Lookaside, hosts: 4, want: 0x5ec47395d92f2f73, events: 39020 },
    Pin { duplex: true, plan: ERR, arch: Unified, hosts: 1, want: 0xbc51e574649910c6, events: 33269 },
    Pin { duplex: true, plan: ERR, arch: Unified, hosts: 4, want: 0x8a7930c7b10fefbc, events: 38787 },
    Pin { duplex: true, plan: SLOW_ERR, arch: Naive, hosts: 1, want: 0x022ef667bc04a0bc, events: 42312 },
    Pin { duplex: true, plan: SLOW_ERR, arch: Naive, hosts: 4, want: 0x93910af223a56430, events: 48267 },
    Pin { duplex: true, plan: SLOW_ERR, arch: Lookaside, hosts: 1, want: 0x29232bad1069ef33, events: 27142 },
    Pin { duplex: true, plan: SLOW_ERR, arch: Lookaside, hosts: 4, want: 0x729cf203f7eaa760, events: 38647 },
    Pin { duplex: true, plan: SLOW_ERR, arch: Unified, hosts: 1, want: 0x29f8406c884c4970, events: 33057 },
    Pin { duplex: true, plan: SLOW_ERR, arch: Unified, hosts: 4, want: 0x05130e91acbc99a8, events: 38674 },
    Pin { duplex: true, plan: OUTAGE, arch: Naive, hosts: 1, want: 0x7df26bd942a7e629, events: 42098 },
    Pin { duplex: true, plan: OUTAGE, arch: Naive, hosts: 4, want: 0xb663dbf1dfa91857, events: 47888 },
    Pin { duplex: true, plan: OUTAGE, arch: Lookaside, hosts: 1, want: 0x534f9fc74bf5a88a, events: 26914 },
    Pin { duplex: true, plan: OUTAGE, arch: Lookaside, hosts: 4, want: 0x5479dcbf54634a86, events: 38447 },
    Pin { duplex: true, plan: OUTAGE, arch: Unified, hosts: 1, want: 0xdf187b9a8c4d51bb, events: 33058 },
    Pin { duplex: true, plan: OUTAGE, arch: Unified, hosts: 4, want: 0x9f619fefa5e3a072, events: 38275 },
];

/// The table's runs, one report per [`PINS`] row, run once and shared by
/// the behaviour pin and the poll-count pin.
fn pinned_reports() -> &'static [SimReport] {
    static REPORTS: OnceLock<Vec<SimReport>> = OnceLock::new();
    REPORTS.get_or_init(|| {
        let wb = Workbench::new(4096, 42);
        PINS.iter()
            .map(|p| wb.run(&config(p), &shared_spec(p.hosts)).expect("wire run"))
            .collect()
    })
}

/// The table as it would be pinned from `reports`, rows that differ from
/// their pin marked, so a deliberate re-pin is a paste.
fn table(reports: &[SimReport], moved: impl Fn(&Pin, &SimReport) -> bool) -> String {
    let plan_name = |plan: &str| match plan {
        ERR => "ERR",
        SLOW_ERR => "SLOW_ERR",
        OUTAGE => "OUTAGE",
        other => panic!("unnamed plan {other}"),
    };
    PINS.iter()
        .zip(reports)
        .map(|(p, r)| {
            format!(
                "    Pin {{ duplex: {}, plan: {}, arch: {:?}, hosts: {}, want: {:#018x}, events: {} }},{}\n",
                p.duplex,
                plan_name(p.plan),
                p.arch,
                p.hosts,
                digest(r),
                r.events,
                if moved(p, r) { " // moved" } else { "" },
            )
        })
        .collect()
}

#[test]
fn wire_runs_are_pinned() {
    let reports = pinned_reports();
    let moved = |p: &Pin, r: &SimReport| digest(r) != p.want;
    assert!(
        !PINS.iter().zip(reports).any(|(p, r)| moved(p, r)),
        "wire goldens moved:\n{}",
        table(reports, moved)
    );
}

#[test]
fn wire_poll_counts_are_pinned() {
    let reports = pinned_reports();
    let moved = |p: &Pin, r: &SimReport| r.events != p.events;
    assert!(
        !PINS.iter().zip(reports).any(|(p, r)| moved(p, r)),
        "wire poll counts moved:\n{}",
        table(reports, moved)
    );
}

#[test]
fn every_row_queues_on_the_wire() {
    for (p, r) in PINS.iter().zip(pinned_reports()) {
        assert!(
            r.net.queue_waits > 0,
            "duplex={} {} {:?} hosts={}: no packet waited for the wire",
            p.duplex,
            p.plan,
            p.arch,
            p.hosts
        );
    }
}
