//! The three benchmark workloads: their inputs, their set-up, and one
//! measured run of each.

use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use fcache::{FlashTiming, Scenario, SimConfig, SimReport, Workbench, Workload, WorkloadSpec};
use fcache_des::SimTime;
use fcache_device::SsdConfig;
use fcache_fleet::{Fleet, FleetSpec};
use fcache_types::{ByteSize, FaultPlan, Trace, TraceOp};

use crate::alloc;
use crate::spans::Spans;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// The paper's §4 baseline, replayed from a mapped FCTRACE1 archive.
    BaselineReplay,
    /// 32 hosts with private working sets, half writes, SSD timing.
    Hosts32SsdWrites,
    /// A 1000-host fleet on a sharded, replicated, faulted backend.
    Fleet1kShardOutage,
}

impl Kind {
    pub const ALL: [Kind; 3] = [
        Kind::BaselineReplay,
        Kind::Hosts32SsdWrites,
        Kind::Fleet1kShardOutage,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::BaselineReplay => "baseline-replay",
            Kind::Hosts32SsdWrites => "hosts32-ssd-writes",
            Kind::Fleet1kShardOutage => "fleet1k-shard-outage",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The benchmark's sizes: each workload replays about 190 K trace ops
    /// per run (the fleet about 30 K, spread over 1000 hosts).
    pub fn sizing(self) -> Sizing {
        match self {
            Kind::BaselineReplay => Sizing {
                scale: 64,
                ..Sizing::FLEET_DEFAULTS
            },
            Kind::Hosts32SsdWrites => Sizing {
                scale: 256,
                ..Sizing::FLEET_DEFAULTS
            },
            Kind::Fleet1kShardOutage => Sizing::FLEET_DEFAULTS,
        }
    }

    /// Much smaller inputs with the same shape, for the benchmark's own
    /// tests.
    #[cfg(test)]
    pub fn test_sizing(self) -> Sizing {
        Sizing {
            scale: match self {
                Kind::BaselineReplay => 8192,
                Kind::Hosts32SsdWrites => 16384,
                Kind::Fleet1kShardOutage => 16384,
            },
            fleet_hosts: 40,
            cell_hosts: 20,
        }
    }
}

/// How large one workload instance is.
#[derive(Clone, Copy, Debug)]
pub struct Sizing {
    /// Linear scale factor of the `Workbench` (byte sizes divide by it).
    pub scale: u64,
    /// Fleet population (fleet workload only).
    pub fleet_hosts: u32,
    /// Hosts per fleet cell (fleet workload only).
    pub cell_hosts: u16,
}

impl Sizing {
    /// `fcsim fleet` defaults: 1000 hosts in 100-host cells at 1/4096.
    const FLEET_DEFAULTS: Sizing = Sizing {
        scale: 4096,
        fleet_hosts: 1000,
        cell_hosts: 100,
    };
}

/// What one simulation job's report must show: the trace's measured
/// (non-warmup) reads and writes, plus the trace length.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Expect {
    pub reads: u64,
    pub writes: u64,
    pub ops: u64,
}

impl Expect {
    fn add(&mut self, op: &TraceOp) {
        self.ops += 1;
        if !op.warmup() {
            if op.is_write() {
                self.writes += 1;
            } else {
                self.reads += 1;
            }
        }
    }

    fn of_ops<'a>(ops: impl IntoIterator<Item = &'a TraceOp>) -> Self {
        let mut e = Expect::default();
        for op in ops {
            e.add(op);
        }
        e
    }
}

/// Host time spent in each set-up step.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub model: Duration,
    pub total: Duration,
}

/// Everything a workload needs before its first measured op.
pub struct Bench {
    pub kind: Kind,
    pub sizing: Sizing,
    pub wb: Workbench,
    /// Paper-scale configuration; single-job workloads run it scaled.
    pub base: SimConfig,
    /// Paper-scale workload (the fleet's per-cell template).
    pub spec: WorkloadSpec,
    /// The materialized trace (`baseline-replay` only).
    pub trace: Option<Trace>,
    /// The FCTRACE1 archive the baseline replays.
    pub archive: Option<PathBuf>,
    /// Per-job expectations, in job (cell) order.
    pub expect: Vec<Expect>,
    work_dir: PathBuf,
    pub times: SetupTimes,
}

/// One measured run: every job's report plus what the run cost.
pub struct Run {
    pub reports: Vec<SimReport>,
    pub wall: Duration,
    pub allocs: u64,
    /// `Fleet::run_worker` and `Fleet::merge_parts` spans (fleet only).
    pub run_worker: Duration,
    pub merge: Duration,
}

impl Run {
    pub fn events(&self) -> u64 {
        self.reports.iter().map(|r| r.events).sum()
    }
}

/// Paper-scale telemetry window of the traced run.
const TELEMETRY_WINDOW: SimTime = SimTime::from_secs(10);

impl Bench {
    /// Builds the workload's model and inputs: the file-server model, the
    /// trace (materialized and archived for the baseline, drained once to
    /// count ops for the streamed workloads), and the fleet plan.
    pub fn setup(
        kind: Kind,
        sizing: Sizing,
        seed: u64,
        work_dir: &Path,
        spans: &Spans,
    ) -> std::io::Result<Bench> {
        let t0 = Instant::now();
        let (wb, model) = spans.span("fsmodel.Workbench::new", || {
            Workbench::new(sizing.scale, seed)
        });
        let (base, spec) = Self::inputs(kind, seed);
        let mut bench = Bench {
            kind,
            sizing,
            wb,
            base,
            spec,
            trace: None,
            archive: None,
            expect: Vec::new(),
            work_dir: work_dir.to_path_buf(),
            times: SetupTimes::default(),
        };
        match kind {
            Kind::BaselineReplay => {
                let (trace, _) = spans.span("fcache.Workbench::make_trace", || {
                    bench.wb.make_trace(&bench.spec)
                });
                let path = work_dir.join("baseline.fctrace");
                spans
                    .span("types.Trace::encode", || write_archive(&trace, &path))
                    .0?;
                bench.expect = vec![Expect::of_ops(&trace.ops)];
                bench.trace = Some(trace);
                bench.archive = Some(path);
            }
            Kind::Hosts32SsdWrites => {
                let (e, _) = spans.span("trace.TraceStream::drain", || {
                    drain_expect(&bench.wb, &bench.spec)
                });
                bench.expect = vec![e];
            }
            Kind::Fleet1kShardOutage => {
                let plan = bench.fleet(false).plan();
                let (expect, _) = spans.span("trace.TraceStream::drain", || {
                    (0..plan.cells())
                        .map(|c| drain_expect(&bench.wb, &plan.cell_spec(&bench.spec, c)))
                        .collect()
                });
                bench.expect = expect;
            }
        }
        bench.times = SetupTimes {
            model,
            total: t0.elapsed(),
        };
        Ok(bench)
    }

    /// The paper-scale configuration and workload of `kind`.
    fn inputs(kind: Kind, seed: u64) -> (SimConfig, WorkloadSpec) {
        let spec = WorkloadSpec {
            working_set: ByteSize::gib(80),
            write_fraction: 0.3,
            seed,
            ..WorkloadSpec::default()
        };
        let base = SimConfig {
            seed,
            ..SimConfig::baseline()
        };
        match kind {
            // One host, 8 threads, naive, 8 GB RAM, 64 GB flash, flat timing.
            Kind::BaselineReplay => (base, spec),
            // The baseline's RAM/ws (1/10) and flash/ws (8/10) ratios per host.
            Kind::Hosts32SsdWrites => (
                SimConfig {
                    ram_size: ByteSize::gib(1),
                    flash_size: ByteSize::gib(8),
                    flash_timing: FlashTiming::Ssd(SsdConfig::auto()),
                    ..base
                },
                WorkloadSpec {
                    working_set: ByteSize::gib(10),
                    write_fraction: 0.5,
                    hosts: 32,
                    ws_count: 32,
                    ..spec
                },
            ),
            // `fcsim fleet --shards 4 --replicas 2 --hedge 200
            // --fault shard1:outage@40s-60s`.
            Kind::Fleet1kShardOutage => (
                SimConfig {
                    shards: 4,
                    replicas: 2,
                    hedge: Some(SimTime::from_micros(200)),
                    fault_plan: FaultPlan::parse("shard1:outage@40s-60s")
                        .expect("the fleet fault plan parses"),
                    ..base
                },
                spec,
            ),
        }
    }

    /// Total trace ops (warmup included) one run replays, over all jobs.
    pub fn total_ops(&self) -> u64 {
        self.expect.iter().map(|e| e.ops).sum()
    }

    /// The scaled configuration a single-job workload runs.
    pub fn scaled_config(&self, traced: bool) -> SimConfig {
        let mut cfg = self.base.clone().scaled_down(self.sizing.scale);
        if traced {
            cfg.telemetry_windows = Some(TELEMETRY_WINDOW);
        }
        cfg
    }

    /// The fleet (fleet workload only), optionally with telemetry on. It
    /// runs on one worker thread, so every workload measures
    /// single-threaded host cost whatever the machine's core count.
    pub fn fleet(&self, traced: bool) -> Fleet {
        let mut base = self.base.clone();
        if traced {
            base.telemetry_windows = Some(TELEMETRY_WINDOW);
        }
        Fleet::new(
            base,
            FleetSpec {
                hosts: self.sizing.fleet_hosts,
                cell_hosts: self.sizing.cell_hosts,
                hosts_per_segment: 4,
                workload: self.spec.clone(),
                scale: self.sizing.scale,
            },
        )
        .threads(1)
    }

    /// The workload of one job, for the isolated layer drives: the
    /// workload's own, or fleet cell 0's.
    pub fn probe_spec(&self) -> WorkloadSpec {
        match self.kind {
            Kind::Fleet1kShardOutage => self.fleet(false).plan().cell_spec(&self.spec, 0),
            _ => self.spec.clone(),
        }
    }

    /// The trace of [`Bench::probe_spec`].
    pub fn probe_trace(&self) -> Trace {
        match &self.trace {
            Some(t) => t.clone(),
            None => self.wb.make_trace(&self.probe_spec()),
        }
    }

    /// The configuration of the job `probe_trace` belongs to.
    pub fn probe_config(&self) -> SimConfig {
        match self.kind {
            Kind::Fleet1kShardOutage => {
                let plan = self.fleet(false).plan();
                plan.cell_config(&self.base, 0)
                    .scaled_down(self.sizing.scale)
            }
            _ => self.scaled_config(false),
        }
    }

    /// Runs the workload once, the way its users run it.
    pub fn run(&self, traced: bool, spans: &Spans) -> Result<Run, String> {
        let a0 = alloc::allocs();
        let t0 = Instant::now();
        let mut run_worker = Duration::ZERO;
        let mut merge = Duration::ZERO;
        let reports = match self.kind {
            Kind::BaselineReplay => {
                let archive = self
                    .archive
                    .as_ref()
                    .expect("baseline set-up wrote an archive");
                let scenario = Scenario::new(self.scaled_config(traced), Workload::file(archive));
                let (r, _) = spans.span("fcache.Scenario::run", || scenario.run());
                vec![r.map_err(|e| format!("replay failed: {e}"))?]
            }
            Kind::Hosts32SsdWrites => {
                let spec = self.spec.clone();
                let scenario = Scenario::new(
                    self.scaled_config(traced),
                    Workload::stream(move || self.wb.make_stream(&spec)),
                );
                let (r, _) = spans.span("fcache.Scenario::run", || scenario.run());
                vec![r.map_err(|e| format!("run failed: {e}"))?]
            }
            Kind::Fleet1kShardOutage => {
                let fleet = self.fleet(traced);
                let out = self.work_dir.join("fleet.jsonl");
                let (r, took) = spans.span("fleet.Fleet::run_worker", || {
                    fleet.run_worker(&out, 1, 0, false)
                });
                run_worker = took;
                r.map_err(|e| format!("fleet worker failed: {e}"))?;
                let (rows, took) =
                    spans.span("fleet.Fleet::merge_parts", || fleet.merge_parts(&out, 1));
                merge = took;
                let rows = rows.map_err(|e| format!("fleet merge failed: {e}"))?;
                rows.into_iter().map(|row| row.report).collect()
            }
        };
        Ok(Run {
            reports,
            wall: t0.elapsed(),
            allocs: alloc::allocs() - a0,
            run_worker,
            merge,
        })
    }
}

/// Writes `trace` as an FCTRACE1 archive at `path`.
fn write_archive(trace: &Trace, path: &Path) -> std::io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    trace.encode(&mut w)?;
    w.flush()
}

/// Drains a fresh stream of `spec`, counting what a run must complete.
fn drain_expect(wb: &Workbench, spec: &WorkloadSpec) -> Expect {
    let mut stream = wb.make_stream(spec);
    let mut e = Expect::default();
    while let Some(op) = stream.next_op() {
        e.add(&op);
    }
    e
}
