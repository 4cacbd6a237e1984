//! Fleet-scale simulation: thousands of client hosts against shared
//! backends, fanned out across threads *and* OS processes, folded back
//! into fleet-level percentiles.
//!
//! The paper evaluates one client at a time; a deployment is thousands of
//! them. This crate runs that population. A fleet is partitioned by
//! [`FleetPlan`] (re-exported from `fcache::fleet`) into **cells** —
//! contiguous host slices, each cell one deterministic single-threaded
//! simulation of its hosts contending for a shared backend and shared
//! network segments
//! ([`hosts_per_segment`](fcache_types::FleetTopology::hosts_per_segment)
//! hosts per wire). Cells are embarrassingly parallel, so a [`Fleet`]
//! runs them:
//!
//! - **in-process** across worker threads ([`Fleet::run`]), or
//! - **across worker processes** ([`Fleet::run_worker`] +
//!   [`Fleet::merge_parts`], driven by `fcsim fleet --procs P`): worker
//!   `k` of `P` owns cells `cell % P == k` and streams finished rows to
//!   its own JSONL part file, flushing per row; a killed worker loses at
//!   most its unflushed final line, and a `--resume` rerun picks up the
//!   remaining cells ([`JsonlSink::resume`] + [`Sweep::resume`], whose
//!   checks refuse a part file from a different fleet).
//!
//! Every per-cell input — config, trace seed, label — is a pure function
//! of the base config and the cell index, and the merge step orders rows
//! by cell. A fleet run across `P` processes therefore produces a results
//! file **byte-identical** to the same fleet in one process (pinned by
//! this crate's tests and the CI fleet smoke), and `hosts_per_segment: 1`
//! cells are bit-identical to the pre-fleet engine (PERF.md invariant
//! 13).
//!
//! [`FleetSummary`] folds merged rows into fleet-level numbers: exact
//! fleet-wide op-latency percentiles via [`HistogramSnapshot::merged`](fcache::HistogramSnapshot::merged),
//! and p50/p95/p99 of per-host mean latency *across hosts* — the "how bad
//! is the unluckiest host" view a single-cell report cannot give.

use std::io;
use std::path::{Path, PathBuf};

use fcache::{
    DecodedRow, FleetPlan, FleetStats, JsonlSink, MemorySink, MetricsSnapshot, ResultRow,
    ResultSink, SimConfig, SimReport, Sweep, Workbench, WorkloadSpec,
};

/// What to simulate: the fleet's shape plus the per-cell workload
/// template, in paper-scale units.
#[derive(Clone, Debug)]
pub struct FleetSpec {
    /// Total host population.
    pub hosts: u32,
    /// Hosts per cell (one cell = one simulation job = one result row).
    pub cell_hosts: u16,
    /// Hosts sharing each network segment within a cell; 1 gives every
    /// host a private wire (no queuing), larger values make hosts contend.
    pub hosts_per_segment: u16,
    /// Workload template. `hosts` is overridden per cell; `seed` is the
    /// fleet's base trace seed (each cell derives its own) and also seeds
    /// the shared file-server model.
    pub workload: WorkloadSpec,
    /// Linear scale factor for the [`Workbench`] (1 = paper scale).
    pub scale: u64,
}

impl Default for FleetSpec {
    fn default() -> Self {
        Self {
            hosts: 1000,
            cell_hosts: 100,
            hosts_per_segment: 4,
            workload: WorkloadSpec::default(),
            scale: 4096,
        }
    }
}

impl FleetSpec {
    /// The partitioning plan this spec describes.
    pub fn plan(&self) -> FleetPlan {
        FleetPlan::new(self.hosts, self.cell_hosts, self.hosts_per_segment)
    }
}

/// Outcome of one worker's (or one in-process) cell pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerReport {
    /// Cells this worker owns.
    pub cells: usize,
    /// Cells simulated in this pass.
    pub completed: usize,
    /// Cells skipped because a resumed part file already held their rows.
    pub resumed: usize,
}

/// A fleet scenario: one base configuration, one [`FleetSpec`].
///
/// The base configuration is paper-scale (scaled by the spec's workbench
/// factor, like every `Workbench` experiment); each cell runs a derived
/// copy carrying its [`FleetTopology`](fcache_types::FleetTopology) and
/// a per-cell seed.
#[derive(Clone, Debug)]
pub struct Fleet {
    base: SimConfig,
    spec: FleetSpec,
    threads: usize,
}

impl Fleet {
    /// Pairs a base configuration with a fleet spec.
    pub fn new(base: SimConfig, spec: FleetSpec) -> Self {
        Self {
            base,
            spec,
            threads: 0,
        }
    }

    /// Bounds the in-process worker-thread count (`0` = all cores).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// The partitioning plan in force.
    pub fn plan(&self) -> FleetPlan {
        self.spec.plan()
    }

    /// The fleet spec.
    pub fn spec(&self) -> &FleetSpec {
        &self.spec
    }

    /// Runs `cells` in-process, streaming each finished row — indexed by
    /// its global cell — into `sink`. With `resumed` (a part file and the
    /// rows it already holds), [`Sweep::resume`] checks those rows and
    /// skips their cells.
    fn run_cells(
        &self,
        cells: &[u32],
        resumed: Option<(&Path, &[DecodedRow])>,
        sink: &mut dyn ResultSink,
    ) -> io::Result<WorkerReport> {
        let plan = self.plan();
        let wb = Workbench::new(self.spec.scale, self.spec.workload.seed);
        let mut sweep = Sweep::new().threads(self.threads);
        for &cell in cells {
            let cfg = plan.cell_config(&self.base, cell);
            let spec = plan.cell_spec(&self.spec.workload, cell);
            let scenario = wb.scenario(&cfg, &spec);
            sweep = sweep.scenario_at(cell as usize, plan.cell_label(cell), scenario);
        }
        if let Some((part, rows)) = resumed {
            sweep = sweep.resume(part, rows)?;
        }
        let results = sweep.run(sink);
        if let Some(e) = results.sink_error() {
            return Err(io::Error::new(e.kind(), e.to_string()));
        }
        if let Some(e) = results.first_error() {
            return Err(io::Error::other(e.to_string()));
        }
        let resumed = results.skipped();
        Ok(WorkerReport {
            cells: cells.len(),
            completed: results.len() - resumed,
            resumed,
        })
    }

    /// Runs the whole fleet in-process and returns its rows in cell
    /// order. Memory is O(rows); for fleets too large for that, use the
    /// worker-file path.
    pub fn run(&self) -> io::Result<FleetRun> {
        let cells = self.plan().worker_cells(1, 0);
        let mut sink = MemorySink::new();
        self.run_cells(&cells, None, &mut sink)?;
        Ok(FleetRun {
            rows: sink.into_rows(),
        })
    }

    /// Runs worker `worker` of `procs`: simulates the cells it owns
    /// (`cell % procs == worker`) and streams their rows to the worker's
    /// part file ([`worker_part_path`]), one flushed JSONL line per cell.
    ///
    /// With `resume`, rows already in the part file are checked by
    /// [`Sweep::resume`] against this worker's cells (label, cell index,
    /// serialized config — mismatches are refused, not overwritten) and
    /// their cells skipped, so a rerun after a kill completes only the
    /// missing cells.
    pub fn run_worker(
        &self,
        out: &Path,
        procs: u32,
        worker: u32,
        resume: bool,
    ) -> io::Result<WorkerReport> {
        let plan = self.plan();
        let cells = plan.worker_cells(procs, worker);
        let part = worker_part_path(out, worker);
        if resume {
            let (mut sink, rows) = JsonlSink::resume(&part)?;
            self.run_cells(&cells, Some((&part, &rows)), &mut sink)
        } else {
            self.run_cells(&cells, None, &mut JsonlSink::create(&part)?)
        }
    }

    /// Merges the `procs` worker part files into `out`, ordered by cell
    /// index, verifying every cell appears exactly once. Lines are copied
    /// verbatim (after strict decoding), so the merged file is
    /// byte-identical to a single-process run of the same fleet.
    pub fn merge_parts(&self, out: &Path, procs: u32) -> io::Result<Vec<DecodedRow>> {
        let cells = self.plan().cells() as usize;
        let mut slots: Vec<Option<(Vec<u8>, DecodedRow)>> = vec![None; cells];
        for w in 0..procs {
            let part = worker_part_path(out, w);
            fcache::decode_rows(&part, &std::fs::read(&part)?, false, |line, row| {
                let i = row.index;
                if i >= cells {
                    return Err(format!("cell index {i} out of range"));
                }
                if slots[i].is_some() {
                    return Err(format!("cell {i} appears twice"));
                }
                slots[i] = Some((line.to_vec(), row));
                Ok(())
            })?;
        }
        let missing: Vec<usize> = slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.is_none().then_some(i))
            .collect();
        if !missing.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "fleet incomplete: {} of {cells} cells missing (first: cell {}) — \
                     rerun with --resume to finish them",
                    missing.len(),
                    missing[0]
                ),
            ));
        }
        let mut bytes = Vec::new();
        let mut rows = Vec::with_capacity(cells);
        for slot in slots {
            let (line, row) = slot.expect("missing cells were rejected above");
            bytes.extend_from_slice(&line);
            bytes.push(b'\n');
            rows.push(row);
        }
        std::fs::write(out, bytes)?;
        Ok(rows)
    }
}

/// The part file worker `worker` streams its rows to: `<out>.<worker>`.
pub fn worker_part_path(out: &Path, worker: u32) -> PathBuf {
    let mut s = out.as_os_str().to_os_string();
    s.push(format!(".{worker}"));
    PathBuf::from(s)
}

/// An in-process fleet run: one row per cell, in cell order.
#[derive(Debug)]
pub struct FleetRun {
    /// Result rows, `rows[i]` being cell `i`.
    pub rows: Vec<ResultRow>,
}

impl FleetRun {
    /// Folds the rows into fleet-level numbers.
    pub fn summary(&self) -> FleetSummary {
        FleetSummary::from_reports(self.rows.iter().map(|r| &r.report))
    }
}

/// Fleet-level aggregates folded from per-cell reports.
///
/// Two distinct latency views:
///
/// - **op percentiles** come from the exact bucket-wise merge of every
///   cell's operation-latency histogram ([`HistogramSnapshot::merged`](fcache::HistogramSnapshot::merged)) —
///   the distribution over all operations fleet-wide;
/// - **per-host percentiles** rank hosts by their mean read latency — the
///   spread *across hosts*, which is what shared-wire contention skews.
#[derive(Clone, Debug, Default)]
pub struct FleetSummary {
    /// Cells folded in.
    pub cells: usize,
    /// Hosts folded in (sum of per-cell host rows).
    pub hosts: usize,
    /// Exact fleet-wide metrics fold (counters summed, histograms merged).
    pub metrics: MetricsSnapshot,
    /// p50/p95/p99 of per-host mean read latency, µs, across all hosts.
    pub host_read_us: (f64, f64, f64),
    /// Packets that queued for a shared wire, fleet-wide.
    pub queue_waits: u64,
    /// Total simulated time packets spent queued, ns, fleet-wide.
    pub queue_wait_ns: u64,
}

impl FleetSummary {
    /// Folds per-cell reports (any order; the fold is exact and
    /// order-insensitive).
    pub fn from_reports<'a>(reports: impl IntoIterator<Item = &'a SimReport>) -> Self {
        let mut s = Self::default();
        let mut per_host = Vec::new();
        for r in reports {
            s.cells += 1;
            s.metrics = s.metrics.merged(&r.metrics);
            s.queue_waits += r.net.queue_waits;
            s.queue_wait_ns += r.net.queue_wait.as_nanos();
            per_host.extend(r.fleet.per_host.iter().cloned());
        }
        s.hosts = per_host.len();
        let combined = FleetStats {
            topology: None,
            per_host,
        };
        s.host_read_us = combined.host_read_p50_p95_p99_us();
        s
    }

    /// Folds decoded result rows (the merged-file path).
    pub fn from_rows(rows: &[DecodedRow]) -> Self {
        Self::from_reports(rows.iter().map(|r| &r.report))
    }

    /// A fleet-wide operation-latency percentile in µs (`None` while no
    /// ops were recorded), from the merged read histogram.
    pub fn read_op_percentile_us(&self, p: f64) -> Option<f64> {
        self.metrics
            .read_hist
            .percentile(p)
            .map(|t| t.as_nanos() as f64 / 1000.0)
    }
}

impl std::fmt::Display for FleetSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "fleet              {} hosts in {} cells",
            self.hosts, self.cells
        )?;
        writeln!(
            f,
            "ops                {} reads, {} writes",
            self.metrics.read_ops, self.metrics.write_ops
        )?;
        let p = |p: f64| self.read_op_percentile_us(p).unwrap_or(0.0);
        writeln!(
            f,
            "read latency       p50/p95/p99 {:.1}/{:.1}/{:.1} µs per op (fleet-wide)",
            p(50.0),
            p(95.0),
            p(99.0)
        )?;
        let (h50, h95, h99) = self.host_read_us;
        writeln!(
            f,
            "host mean read     p50/p95/p99 {h50:.1}/{h95:.1}/{h99:.1} µs (across hosts)"
        )?;
        if self.queue_waits > 0 {
            writeln!(
                f,
                "net queueing       {} packets waited, {} ns total queue time",
                self.queue_waits, self.queue_wait_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcache_types::{ByteSize, Json};

    /// A small, fast fleet: 24 hosts in 8-host cells, 2 hosts per wire.
    fn tiny_fleet() -> Fleet {
        let base = SimConfig {
            ram_size: ByteSize::gib(8),
            flash_size: ByteSize::gib(32),
            ..SimConfig::baseline()
        };
        let spec = FleetSpec {
            hosts: 24,
            cell_hosts: 8,
            hosts_per_segment: 2,
            workload: WorkloadSpec {
                working_set: ByteSize::gib(8),
                seed: 11,
                ..WorkloadSpec::default()
            },
            scale: 16384,
        };
        Fleet::new(base, spec).threads(2)
    }

    fn encode_rows(rows: &[ResultRow]) -> Vec<String> {
        rows.iter()
            .map(|r| fcache::row_to_json(r).to_string())
            .collect()
    }

    #[test]
    fn an_invalid_base_config_fails_the_fleet_naming_the_field() {
        let fleet = Fleet::new(
            SimConfig {
                replicas: 2,
                ..tiny_fleet().base
            },
            tiny_fleet().spec,
        );
        let err = fleet.run().expect_err("two replicas on one shard");
        assert!(err.to_string().contains("replicas: "), "{err}");
    }

    #[test]
    fn run_yields_one_row_per_cell_with_fleet_sections() {
        let fleet = tiny_fleet();
        let run = fleet.run().expect("fleet run");
        assert_eq!(run.rows.len(), 3);
        for (i, row) in run.rows.iter().enumerate() {
            assert_eq!(row.index, i);
            let topo = row.report.fleet.topology.expect("fleet engaged");
            assert_eq!(topo.cell, i as u32);
            assert_eq!(topo.fleet_hosts, 24);
            assert_eq!(row.report.fleet.per_host.len(), 8);
            // Global host ids are contiguous across cells.
            assert_eq!(row.report.fleet.per_host[0].host, (i as u32) * 8);
        }
        let summary = run.summary();
        assert_eq!(summary.cells, 3);
        assert_eq!(summary.hosts, 24);
        assert!(summary.metrics.read_ops > 0);
        let (h50, h95, h99) = summary.host_read_us;
        assert!(
            h50 > 0.0 && h50 <= h95 && h95 <= h99,
            "{:?}",
            summary.host_read_us
        );
        // 2 hosts share each wire: someone must have queued.
        assert!(summary.queue_waits > 0);
        assert!(!summary.to_string().is_empty());
    }

    #[test]
    fn multi_process_partition_merges_to_the_single_process_rows() {
        let fleet = tiny_fleet();
        let single = encode_rows(&fleet.run().expect("in-process").rows);

        let dir = std::env::temp_dir().join("fcache_fleet_unit_merge");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("fleet.jsonl");
        for procs in [1u32, 2, 3] {
            for w in 0..procs {
                let rep = fleet.run_worker(&out, procs, w, false).expect("worker");
                assert_eq!(rep.completed, rep.cells);
            }
            let rows = fleet.merge_parts(&out, procs).expect("merge");
            assert_eq!(rows.len(), 3);
            let text = std::fs::read_to_string(&out).unwrap();
            let merged: Vec<&str> = text.lines().collect();
            assert_eq!(merged, single, "procs={procs} diverged from in-process run");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn killed_worker_resumes_to_an_identical_file() {
        let fleet = tiny_fleet();
        let dir = std::env::temp_dir().join("fcache_fleet_unit_resume");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("fleet.jsonl");

        // Uninterrupted reference (part files hold rows in completion
        // order; the merged file is the canonical, cell-ordered artifact).
        fleet.run_worker(&out, 1, 0, false).expect("reference");
        fleet.merge_parts(&out, 1).expect("reference merge");
        let reference = std::fs::read_to_string(&out).unwrap();

        // Simulate a kill: keep the part file's first row plus a torn
        // second line.
        let part = std::fs::read_to_string(worker_part_path(&out, 0)).unwrap();
        let first_line_end = part.find('\n').unwrap() + 1;
        std::fs::write(worker_part_path(&out, 0), &part[..first_line_end + 40]).unwrap();
        let rep = fleet.run_worker(&out, 1, 0, true).expect("resume");
        assert_eq!(rep.resumed, 1);
        assert_eq!(rep.completed, 2);
        fleet.merge_parts(&out, 1).expect("resumed merge");
        assert_eq!(
            std::fs::read_to_string(&out).unwrap(),
            reference,
            "resumed fleet file must match the uninterrupted one"
        );

        // A part file from a different fleet is refused, not absorbed.
        let mut other = tiny_fleet();
        other.base.seed = 999;
        let err = other.run_worker(&out, 1, 0, true).unwrap_err();
        assert!(err.to_string().contains("different configuration"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_refuses_a_row_whose_index_is_not_the_workers_cell() {
        let fleet = tiny_fleet();
        let dir = std::env::temp_dir().join("fcache_fleet_unit_index");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("fleet.jsonl");
        fleet.run_worker(&out, 1, 0, false).expect("worker");

        // Keep one row, label and config intact, under the index of a
        // cell this fleet does not have.
        let part = worker_part_path(&out, 0);
        let text = std::fs::read_to_string(&part).unwrap();
        let line = text.lines().next().unwrap();
        let row = fcache::row_from_json(&Json::parse(line).unwrap()).unwrap();
        let moved = line.replacen(&format!("\"index\":{}", row.index), "\"index\":7", 1);
        assert_ne!(moved, line);
        std::fs::write(&part, format!("{moved}\n")).unwrap();

        let err = fleet.run_worker(&out, 1, 0, true).unwrap_err();
        assert!(err.to_string().contains("has index 7"), "{err}");
        assert_eq!(
            std::fs::read_to_string(&part).unwrap(),
            format!("{moved}\n")
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_rejects_incomplete_fleets() {
        let fleet = tiny_fleet();
        let dir = std::env::temp_dir().join("fcache_fleet_unit_incomplete");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("fleet.jsonl");
        // Worker 0 of 2 ran; worker 1 never did.
        fleet.run_worker(&out, 2, 0, false).expect("worker 0");
        std::fs::write(worker_part_path(&out, 1), "").unwrap();
        let err = fleet.merge_parts(&out, 2).unwrap_err();
        assert!(err.to_string().contains("cells missing"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
