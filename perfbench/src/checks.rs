//! Output checks and the report digest.
//!
//! Every simulation job (one run, or one fleet cell) is checked; a job
//! with any failed check counts as failed and fails the benchmark.

use fcache::{report_from_json, report_to_json, SimReport, TelemetryStats};
use fcache_types::Json;

use crate::workload::Expect;

/// Jobs attempted and failed, with the reason for each failure.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    /// Records one job and the problems found with it.
    pub fn job(&mut self, label: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                self.errors.push(format!("{label}: {p}"));
            }
        }
    }

    /// Records `jobs` jobs that could not run at all.
    pub fn broken(&mut self, label: &str, jobs: u64, error: String) {
        self.attempted += jobs;
        self.failed += jobs;
        self.errors.push(format!("{label}: {error}"));
    }
}

/// Checks one job's report: completed read and write ops equal the
/// trace's measured ops of each kind, and report → JSON → report is the
/// identity.
pub fn check_job(report: &SimReport, expect: &Expect) -> Vec<String> {
    let mut problems = Vec::new();
    let m = &report.metrics;
    if m.read_ops != expect.reads || m.write_ops != expect.writes {
        problems.push(format!(
            "completed {} reads / {} writes, the trace measures {} / {}",
            m.read_ops, m.write_ops, expect.reads, expect.writes
        ));
    }
    let json = report_to_json(report);
    match report_from_json(&json) {
        Ok(back) if back == *report => {
            if report_to_json(&back).to_string() != json.to_string() {
                problems.push("report JSON does not re-encode to the same text".into());
            }
        }
        Ok(_) => problems.push("report -> JSON -> report changed the report".into()),
        Err(e) => problems.push(format!("report JSON does not decode: {e}")),
    }
    problems
}

/// Checks a traced report against the untraced one: equal once the
/// telemetry section is removed, and the phase attribution sums to the
/// measured op latency.
pub fn check_traced(traced: &SimReport, untraced: &SimReport) -> Vec<String> {
    let mut problems = Vec::new();
    let t = &traced.telemetry;
    if !t.engaged() || t.spans == 0 {
        problems.push("traced run collected no telemetry".into());
    }
    let latency = traced.metrics.read_latency.as_nanos() + traced.metrics.write_latency.as_nanos();
    if t.total_ns() != latency {
        problems.push(format!(
            "phases sum to {} ns, op latencies to {latency} ns",
            t.total_ns()
        ));
    }
    let stripped = SimReport {
        telemetry: TelemetryStats::default(),
        ..traced.clone()
    };
    if stripped != *untraced {
        problems.push("traced report minus telemetry differs from the untraced report".into());
    }
    problems
}

/// Checks a merged fleet: one row per cell, every host present, no
/// failed op.
pub fn check_fleet(reports: &[SimReport], cells: usize, hosts: u32) -> Vec<String> {
    let mut problems = Vec::new();
    if reports.len() != cells {
        problems.push(format!("{} merged rows for {cells} cells", reports.len()));
    }
    let seen: usize = reports.iter().map(|r| r.fleet.hosts()).sum();
    if seen != hosts as usize {
        problems.push(format!(
            "{seen} hosts in the merged rows, the fleet has {hosts}"
        ));
    }
    let failed: u64 = reports.iter().map(|r| r.robustness.failed_ops).sum();
    if failed != 0 {
        problems.push(format!("{failed} failed ops"));
    }
    problems
}

/// Hash of the reports' JSON without the executor's cost fields
/// (`events`, and a `cost` section should one appear): two builds with
/// equal digests simulated the same behaviour.
pub fn digest(reports: &[SimReport]) -> u64 {
    // FNV-1a, 64-bit.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in reports {
        let mut json = report_to_json(r);
        if let Json::Obj(fields) = &mut json {
            fields.retain(|(k, _)| k != "events" && k != "cost");
        }
        for b in json.to_string().bytes().chain([b'\n']) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_report_fails_its_job() {
        let report = SimReport::default();
        let expect = Expect::default();
        let mut tally = Tally::default();
        tally.job("clean", check_job(&report, &expect));
        assert_eq!((tally.attempted, tally.failed), (1, 0));

        let mut corrupt = report.clone();
        corrupt.metrics.read_ops += 1;
        tally.job("corrupt", check_job(&corrupt, &expect));
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert!(
            tally.errors[0].contains("completed 1 reads"),
            "{:?}",
            tally.errors
        );
    }

    #[test]
    fn digest_ignores_events_only() {
        let a = SimReport::default();
        let mut b = a.clone();
        b.events = 99;
        assert_eq!(digest(std::slice::from_ref(&a)), digest(&[b.clone()]));
        b.metrics.write_ops = 1;
        assert_ne!(digest(&[a]), digest(&[b]));
    }
}
