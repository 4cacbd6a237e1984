//! Un-sharded faulted runs are pinned bit for bit: every architecture
//! under a filer outage, flaky wires, and a slow filer over a flaky
//! device, with both non-strict degraded policies. The fault-free goldens
//! in `device_service.rs` cannot see the retry, park, and degrade loops;
//! this table does. The executor poll count is a cost, not behaviour, and
//! is pinned by its own test.

use std::sync::OnceLock;

use fcache::{
    run_trace, Architecture, DegradedPolicy, SimConfig, SimReport, Workbench, WorkloadSpec,
};
use fcache_types::FaultPlan;

/// One pinned run (`Workbench::new(4096, 42)`, `WorkloadSpec::baseline_60g()`,
/// the baseline config scaled down by 4096).
struct Pin {
    arch: Architecture,
    plan: &'static str,
    degraded: DegradedPolicy,
    /// `end_time`, read latency total, write latency total (ns).
    run: [u64; 3],
    /// Executor polls (`SimReport::events`).
    events: u64,
    /// Filer fast reads, slow reads, writes; net packets, payload bytes,
    /// busy ns, queue-wait ns, queue waits.
    backend: [u64; 8],
    /// Retries, timeouts, failed ops, queued ops, buffered writes,
    /// degraded ns, drain events, deepest drain, drain ns.
    robust: [u64; 9],
    /// `(ops, ok)` per availability window.
    windows: &'static [(u64, u64)],
}

type Observed = ([u64; 3], [u64; 8], [u64; 9], Vec<(u64, u64)>);

fn observe(r: &SimReport) -> Observed {
    let rs = &r.robustness;
    (
        [
            r.end_time.as_nanos(),
            r.metrics.read_latency.as_nanos(),
            r.metrics.write_latency.as_nanos(),
        ],
        [
            r.filer.fast_reads,
            r.filer.slow_reads,
            r.filer.writes,
            r.net.packets,
            r.net.payload_bytes,
            r.net.busy.as_nanos(),
            r.net.queue_wait.as_nanos(),
            r.net.queue_waits,
        ],
        [
            rs.retries,
            rs.timeouts,
            rs.failed_ops,
            rs.queued_ops,
            rs.buffered_writes,
            rs.degraded_time.as_nanos(),
            rs.drain_events,
            rs.drain_depth_max,
            rs.drain_time.as_nanos(),
        ],
        rs.windows.iter().map(|w| (w.ops, w.ok)).collect(),
    )
}

#[rustfmt::skip]
const PINS: &[Pin] = &[
    Pin {
        arch: Architecture::Naive,
        plan: "filer:outage@40s-60s",
        degraded: DegradedPolicy::Queue,
        run: [615210052, 1432240716, 1002400],
        events: 40856,
        backend: [1162, 137, 3258, 7259, 18853888, 210354904, 5399048168, 6842],
        robust: [0, 0, 0, 14, 0, 4882812, 1, 11, 704720],
        windows: &[(3, 3)],
    },
    Pin {
        arch: Architecture::Naive,
        plan: "filer:outage@40s-60s",
        degraded: DegradedPolicy::FailFast,
        run: [593681204, 1302697828, 1065400],
        events: 40080,
        backend: [2372, 253, 4861, 10946, 30859264, 336631312, 59562187575, 10115],
        robust: [0, 0, 324, 1016, 0, 4882812, 1, 1016, 60591299],
        windows: &[(324, 0)],
    },
    Pin {
        arch: Architecture::Naive,
        plan: "net:err0.3@20s-80s",
        degraded: DegradedPolicy::Queue,
        run: [606891864, 1448038632, 1002400],
        events: 40807,
        backend: [1201, 145, 3311, 7395, 19234816, 214517528, 5297878228, 7002],
        robust: [33, 33, 0, 0, 0, 0, 0, 0, 0],
        windows: &[],
    },
    Pin {
        arch: Architecture::Naive,
        plan: "net:err0.3@20s-80s",
        degraded: DegradedPolicy::FailFast,
        run: [606891864, 1448038632, 1002400],
        events: 40807,
        backend: [1201, 145, 3311, 7395, 19234816, 214517528, 5297878228, 7002],
        robust: [33, 33, 0, 0, 0, 0, 0, 0, 0],
        windows: &[],
    },
    Pin {
        arch: Architecture::Naive,
        plan: "filer:slowx4@30s-50s;device:err0.1@10s-90s",
        degraded: DegradedPolicy::Queue,
        run: [625880595, 1386881784, 1002400],
        events: 40701,
        backend: [1216, 144, 3296, 7370, 19214336, 214148688, 5510984084, 6891],
        robust: [13, 0, 0, 0, 0, 0, 0, 0, 0],
        windows: &[(5, 5)],
    },
    Pin {
        arch: Architecture::Naive,
        plan: "filer:slowx4@30s-50s;device:err0.1@10s-90s",
        degraded: DegradedPolicy::FailFast,
        run: [625880595, 1386881784, 1002400],
        events: 40701,
        backend: [1216, 144, 3296, 7370, 19214336, 214148688, 5510984084, 6891],
        robust: [13, 0, 0, 0, 0, 0, 0, 0, 0],
        windows: &[(5, 5)],
    },
    Pin {
        arch: Architecture::Lookaside,
        plan: "filer:outage@40s-60s",
        degraded: DegradedPolicy::Queue,
        run: [592895865, 1414506756, 1002400],
        events: 34876,
        backend: [1212, 142, 3369, 7494, 19468288, 217197104, 5115182836, 7062],
        robust: [0, 0, 0, 14, 0, 4882812, 0, 0, 0],
        windows: &[(3, 3)],
    },
    Pin {
        arch: Architecture::Lookaside,
        plan: "filer:outage@40s-60s",
        degraded: DegradedPolicy::FailFast,
        run: [576618829, 1572001228, 8582261],
        events: 34591,
        backend: [2859, 312, 4872, 11180, 33140736, 356801888, 6999907197, 10299],
        robust: [0, 0, 140, 67, 0, 4882812, 0, 0, 0],
        windows: &[(140, 0)],
    },
    Pin {
        arch: Architecture::Lookaside,
        plan: "net:err0.3@20s-80s",
        degraded: DegradedPolicy::Queue,
        run: [606456224, 1422173064, 1002400],
        events: 34893,
        backend: [1173, 137, 3293, 7335, 19075072, 212747576, 4757563276, 6912],
        robust: [33, 33, 0, 0, 0, 0, 0, 0, 0],
        windows: &[],
    },
    Pin {
        arch: Architecture::Lookaside,
        plan: "net:err0.3@20s-80s",
        degraded: DegradedPolicy::FailFast,
        run: [606456224, 1422173064, 1002400],
        events: 34893,
        backend: [1173, 137, 3293, 7335, 19075072, 212747576, 4757563276, 6912],
        robust: [33, 33, 0, 0, 0, 0, 0, 0, 0],
        windows: &[],
    },
    Pin {
        arch: Architecture::Lookaside,
        plan: "filer:slowx4@30s-50s;device:err0.1@10s-90s",
        degraded: DegradedPolicy::Queue,
        run: [602584728, 1447377272, 1002400],
        events: 34741,
        backend: [1211, 147, 3308, 7378, 19288064, 214804112, 4968428116, 6891],
        robust: [10, 0, 0, 0, 0, 0, 0, 0, 0],
        windows: &[(5, 5)],
    },
    Pin {
        arch: Architecture::Lookaside,
        plan: "filer:slowx4@30s-50s;device:err0.1@10s-90s",
        degraded: DegradedPolicy::FailFast,
        run: [602584728, 1447377272, 1002400],
        events: 34741,
        backend: [1211, 147, 3308, 7378, 19288064, 214804112, 4968428116, 6891],
        robust: [10, 0, 0, 0, 0, 0, 0, 0, 0],
        windows: &[(5, 5)],
    },
    Pin {
        arch: Architecture::Unified,
        plan: "filer:outage@40s-60s",
        degraded: DegradedPolicy::Queue,
        run: [594284112, 1258227152, 46734400],
        events: 34480,
        backend: [1060, 125, 3295, 7268, 18538496, 207905568, 4197887988, 6883],
        robust: [0, 0, 0, 14, 0, 4882812, 1, 10, 567248],
        windows: &[(3, 3)],
    },
    Pin {
        arch: Architecture::Unified,
        plan: "filer:outage@40s-60s",
        degraded: DegradedPolicy::FailFast,
        run: [566569489, 1406916168, 46919800],
        events: 34402,
        backend: [1953, 219, 4024, 9137, 25579520, 279559560, 4484469984, 8408],
        robust: [0, 0, 136, 333, 0, 4882812, 1, 336, 21485936],
        windows: &[(136, 0)],
    },
    Pin {
        arch: Architecture::Unified,
        plan: "net:err0.3@20s-80s",
        degraded: DegradedPolicy::Queue,
        run: [598474626, 1296316968, 46816800],
        events: 34572,
        backend: [1078, 129, 3293, 7271, 18640896, 208749368, 4304986032, 6850],
        robust: [39, 39, 0, 0, 0, 0, 0, 0, 0],
        windows: &[],
    },
    Pin {
        arch: Architecture::Unified,
        plan: "net:err0.3@20s-80s",
        degraded: DegradedPolicy::FailFast,
        run: [598474626, 1296316968, 46816800],
        events: 34572,
        backend: [1078, 129, 3293, 7271, 18640896, 208749368, 4304986032, 6850],
        robust: [39, 39, 0, 0, 0, 0, 0, 0, 0],
        windows: &[],
    },
    Pin {
        arch: Architecture::Unified,
        plan: "filer:slowx4@30s-50s;device:err0.1@10s-90s",
        degraded: DegradedPolicy::Queue,
        run: [618347490, 1291981296, 46610800],
        events: 34697,
        backend: [1100, 132, 3285, 7271, 18739200, 209535800, 4722856544, 6889],
        robust: [12, 0, 0, 0, 0, 0, 0, 0, 0],
        windows: &[(5, 5)],
    },
    Pin {
        arch: Architecture::Unified,
        plan: "filer:slowx4@30s-50s;device:err0.1@10s-90s",
        degraded: DegradedPolicy::FailFast,
        run: [618347490, 1291981296, 46610800],
        events: 34697,
        backend: [1100, 132, 3285, 7271, 18739200, 209535800, 4722856544, 6889],
        robust: [12, 0, 0, 0, 0, 0, 0, 0, 0],
        windows: &[(5, 5)],
    },
];

/// The pinned runs, one report per [`PINS`] row, run once and shared by
/// the behaviour pin and the poll-count pin.
fn pinned_reports() -> &'static [SimReport] {
    static REPORTS: OnceLock<Vec<SimReport>> = OnceLock::new();
    REPORTS.get_or_init(|| {
        let trace = Workbench::new(4096, 42).make_trace(&WorkloadSpec::baseline_60g());
        PINS.iter()
            .map(|p| {
                let mut cfg = SimConfig {
                    arch: p.arch,
                    fault_plan: FaultPlan::parse(p.plan).expect("valid spec"),
                    ..SimConfig::baseline()
                }
                .scaled_down(4096);
                cfg.robustness.degraded = p.degraded;
                run_trace(&cfg, &trace).expect("faulted run")
            })
            .collect()
    })
}

fn pin_tag(p: &Pin) -> String {
    format!("{:?} / {} / {:?}", p.arch, p.plan, p.degraded)
}

#[test]
fn unsharded_faulted_runs_match_their_pins() {
    for (p, r) in PINS.iter().zip(pinned_reports()) {
        let tag = pin_tag(p);
        let (run, backend, robust, windows) = observe(r);
        assert_eq!(run, p.run, "end/latency drifted: {tag}");
        assert_eq!(backend, p.backend, "filer/net counters drifted: {tag}");
        assert_eq!(robust, p.robust, "robustness counters drifted: {tag}");
        assert_eq!(windows, p.windows, "availability windows drifted: {tag}");
        assert!(
            !r.shard.engaged(),
            "an un-sharded run has no shard section: {tag}"
        );
    }
}

#[test]
fn unsharded_faulted_poll_counts_are_pinned() {
    let moved: Vec<String> = PINS
        .iter()
        .zip(pinned_reports())
        .filter(|(p, r)| r.events != p.events)
        .map(|(p, r)| format!("{}: got {}, want {}", pin_tag(p), r.events, p.events))
        .collect();
    assert!(
        moved.is_empty(),
        "executor poll counts moved:\n{}",
        moved.join("\n")
    );
}
