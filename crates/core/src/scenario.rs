//! The one run surface: [`Scenario`] and [`Sweep`] builders over pluggable
//! [`Workload`]s.
//!
//! Every experiment in this crate is "some configurations × some workload →
//! reports". The engine primitives ([`run_trace`], [`run_source`]) each
//! take one workload kind; this module is the composable layer over them
//! that the `Workbench` helpers, the figure benches and `fcsim` route
//! through:
//!
//! - a [`Workload`] names *what* to replay — a shared in-memory trace
//!   ([`Workload::trace`]), a per-job regenerated stream
//!   ([`Workload::stream`]), or a chunked `FCTRACE1` archive
//!   ([`Workload::file`]) — and every kind produces bit-identical
//!   [`SimReport`]s for the same ops (pinned by
//!   `tests/trace_streaming.rs` and `tests/sweep_determinism.rs`);
//! - a [`Scenario`] pairs one [`SimConfig`] with one workload and runs it;
//! - a [`Sweep`] fans a labeled grid of scenarios out over scoped worker
//!   threads ([`Sweep::threads`]), optionally streaming each report to a
//!   [`ResultSink`] as jobs finish ([`Sweep::sink`] — in-memory, durable
//!   JSONL, or a tee of both) so paper-scale sweeps never hold every
//!   report resident, and returns [`SweepResults`] that keep each job's
//!   label and configuration next to its report or error — no positional
//!   `expect` chains. Grids over *both* axes — configurations × workloads
//!   — build with [`Sweep::workloads`] (the Figures 8/10/11 shape), and
//!   [`Sweep::resume`] checks the rows an existing results file already
//!   holds against the sweep's jobs and skips them, making interrupted
//!   sweeps restartable.
//!
//! Memory: a sweep over [`Workload::trace`] shares one resident trace
//! across all jobs (O(trace) total). A sweep over [`Workload::stream`]
//! regenerates each job's ops on the fly, so resident op memory is
//! O(chunk × concurrent jobs) no matter how large the workload volume is —
//! the "fully streamed sweep" mode.
//!
//! # Examples
//!
//! ```
//! use fcache::{Scenario, SimConfig, Sweep, Workload};
//! use fcache_fsmodel::{FsModel, FsModelConfig};
//! use fcache_trace::{TraceGenConfig, TraceStream};
//! use fcache_types::ByteSize;
//!
//! let model = FsModel::generate(FsModelConfig {
//!     total_bytes: ByteSize::mib(64),
//!     seed: 1,
//!     ..FsModelConfig::default()
//! });
//! let gen_cfg = TraceGenConfig {
//!     working_set: ByteSize::mib(4),
//!     seed: 2,
//!     ..TraceGenConfig::default()
//! };
//! let cfg = SimConfig {
//!     ram_size: ByteSize::mib(1),
//!     flash_size: ByteSize::mib(8),
//!     ..SimConfig::baseline()
//! };
//!
//! // One configuration, one streamed workload.
//! let workload = Workload::stream(|| TraceStream::new(&model, gen_cfg.clone()));
//! let report = Scenario::new(cfg.clone(), workload).run().unwrap();
//! assert!(report.metrics.read_ops > 0);
//!
//! // A labeled two-point sweep over the same streamed workload: each job
//! // regenerates its own stream, so nothing is materialized.
//! let results = Sweep::over(Workload::stream(|| TraceStream::new(&model, gen_cfg.clone())))
//!     .config("no flash", SimConfig { flash_size: ByteSize::ZERO, ..cfg.clone() })
//!     .config("8M flash", cfg)
//!     .threads(2)
//!     .run();
//! let reports = results.into_reports().unwrap();
//! assert_eq!(reports.len(), 2);
//! ```

use std::collections::HashMap;
use std::fs::File;
use std::io::BufReader;
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use fcache_types::{ByteReader, Trace, TraceReader, TraceSource};

use crate::config::SimConfig;
use crate::report::SimReport;
use crate::results::{config_to_json, DecodedRow, ResultRow, ResultSink};
use crate::sim::{run_source, run_trace, SimError, SourceError};

/// Boxed per-job source factory: called once per run/job, on the worker
/// thread that consumes the stream.
type SourceFactory<'a> = Box<dyn Fn() -> Box<dyn TraceSource + 'a> + Sync + 'a>;

enum WorkloadKind<'a> {
    Trace(&'a Trace),
    Stream(SourceFactory<'a>),
    File(PathBuf),
}

/// What a [`Scenario`] or [`Sweep`] replays.
///
/// All three kinds feed the same engine and produce bit-identical
/// [`SimReport`]s for the same operation sequence; they differ only in
/// where the ops live while a job runs:
///
/// | constructor | resident op memory | sharing across sweep jobs |
/// |---|---|---|
/// | [`Workload::trace`] | O(trace), once | one shared borrow, zero copies |
/// | [`Workload::stream`] | O(chunk) per job | each job regenerates its own stream |
/// | [`Workload::file`] | O(chunk) per job | each job re-reads the archive |
pub struct Workload<'a> {
    kind: WorkloadKind<'a>,
}

impl<'a> Workload<'a> {
    /// A shared, zero-copy borrow of a materialized trace. Sweep jobs
    /// replay it through per-thread cursors without copying any ops.
    pub fn trace(trace: &'a Trace) -> Self {
        Self {
            kind: WorkloadKind::Trace(trace),
        }
    }

    /// A per-job stream factory: every run calls `factory` for a fresh
    /// [`TraceSource`] and replays it in bounded chunks, so a sweep's
    /// resident op memory is O(chunk × concurrent jobs) instead of a
    /// materialized trace. Regeneration is pure CPU; the reports are
    /// bit-identical to replaying the materialized equivalent.
    ///
    /// The factory is shared by all of a sweep's worker threads, hence the
    /// `Sync` bound; the sources it returns stay on the worker that made
    /// them.
    pub fn stream<F, S>(factory: F) -> Self
    where
        F: Fn() -> S + Sync + 'a,
        S: TraceSource + 'a,
    {
        Self {
            kind: WorkloadKind::Stream(Box::new(move || Box::new(factory()))),
        }
    }

    /// Chunked replay of an archived `FCTRACE1` trace file: each run opens
    /// the file and streams it through [`TraceReader`] with O(chunk)
    /// resident memory. I/O and decode errors surface as
    /// [`SimError::Source`].
    pub fn file(path: impl Into<PathBuf>) -> Self {
        Self {
            kind: WorkloadKind::File(path.into()),
        }
    }

    /// True if runs regenerate/stream their ops instead of borrowing a
    /// resident trace (the O(chunk)-per-job kinds).
    pub fn is_streamed(&self) -> bool {
        !matches!(self.kind, WorkloadKind::Trace(_))
    }

    /// One-line description of the workload kind and its memory bound
    /// (printed by `fcsim sweep`).
    pub fn describe(&self) -> &'static str {
        match self.kind {
            WorkloadKind::Trace(_) => "materialized trace, shared zero-copy (O(trace) resident)",
            WorkloadKind::Stream(_) => "streamed, regenerated per job (O(chunk × jobs) resident)",
            WorkloadKind::File(_) => "file replay, chunked per job (O(chunk × jobs) resident)",
        }
    }

    /// Replays this workload under `cfg`.
    fn run(&self, cfg: &SimConfig) -> Result<SimReport, SimError> {
        match &self.kind {
            WorkloadKind::Trace(trace) => run_trace(cfg, trace),
            WorkloadKind::Stream(factory) => {
                let mut source = factory();
                run_source(cfg, &mut source)
            }
            WorkloadKind::File(path) => {
                let open = |e| {
                    SimError::Source(SourceError::Unreadable(format!("{}: {e}", path.display())))
                };
                let file = File::open(path).map_err(open)?;
                // Zero-copy fast path: map the archive and replay through
                // per-slot cursors decoding records straight out of the
                // page cache. Any mapping failure (non-unix target, empty
                // file, resource limits) falls back to chunked buffered
                // reads — the map is strictly an optimization, and both
                // paths produce bit-identical reports (pinned by
                // `tests/trace_streaming.rs`).
                if let Ok(map) = fcache_mmap::Mmap::map(&file) {
                    let mut reader = ByteReader::new(&map).map_err(open)?;
                    return run_source(cfg, &mut reader);
                }
                let mut reader = TraceReader::new(BufReader::new(file)).map_err(open)?;
                run_source(cfg, &mut reader)
            }
        }
    }
}

impl std::fmt::Debug for Workload<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            WorkloadKind::Trace(t) => f.debug_tuple("Workload::trace").field(&t.len()).finish(),
            WorkloadKind::Stream(_) => f.write_str("Workload::stream(..)"),
            WorkloadKind::File(p) => f.debug_tuple("Workload::file").field(p).finish(),
        }
    }
}

/// One configuration paired with one workload.
///
/// The smallest unit of the run surface: build it, [`Scenario::run`] it,
/// get a [`SimReport`]. Runs are fully deterministic and repeatable — the
/// workload kinds are interchangeable for the same ops.
#[derive(Debug)]
pub struct Scenario<'a> {
    cfg: SimConfig,
    workload: Workload<'a>,
}

impl<'a> Scenario<'a> {
    /// Pairs a configuration with a workload.
    pub fn new(cfg: SimConfig, workload: Workload<'a>) -> Self {
        Self { cfg, workload }
    }

    /// The configuration this scenario runs.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The workload this scenario replays.
    pub fn workload(&self) -> &Workload<'a> {
        &self.workload
    }

    /// Runs the scenario. `&self`: a scenario can run any number of times
    /// (streams regenerate, files re-open, traces re-borrow) and always
    /// produces the same report.
    pub fn run(&self) -> Result<SimReport, SimError> {
        self.workload.run(&self.cfg)
    }
}

/// A sweep job failure with its job context attached.
///
/// Display output chains through the underlying [`SimError`], so a job
/// sunk by fault injection under a strict degraded policy prints the
/// originating fault clause, e.g.
/// `sweep job 3 (naive/none) failed: operation failed under injected
/// fault (filer:outage@40s-60s) with strict degraded policy`.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepError {
    /// Index of the failed job in sweep order.
    pub index: usize,
    /// Label of the failed job.
    pub label: String,
    /// The underlying simulation error.
    pub error: SimError,
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sweep job {} ({}) failed: {}",
            self.index, self.label, self.error
        )
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// One job of a finished sweep: the label and configuration it ran, plus
/// its report (unless spilled to a sink) or error.
#[derive(Debug)]
pub struct SweepItem {
    /// The job's label.
    pub label: String,
    /// The configuration the job ran.
    pub config: SimConfig,
    /// The job's report. `None` if the job failed, was skipped by
    /// [`Sweep::resume`], *or* if the report was delivered to a
    /// [`Sweep::sink`] instead of retained.
    pub report: Option<SimReport>,
    /// The job's error, if it failed.
    pub error: Option<SimError>,
    /// True if the job was skipped because [`Sweep::resume`] found its
    /// row already in the results file.
    pub skipped: bool,
}

impl SweepItem {
    /// True if the job completed without error (skipped jobs count as ok —
    /// their report is in the resumed results file).
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }
}

/// Results of a [`Sweep`], in job (push) order.
#[derive(Debug)]
pub struct SweepResults {
    items: Vec<SweepItem>,
    spilled: bool,
    sink_error: Option<std::io::Error>,
}

impl SweepResults {
    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if the sweep had no jobs.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// True if reports were streamed to a [`Sweep::sink`] instead of
    /// retained in the items.
    pub fn spilled_to_sink(&self) -> bool {
        self.spilled
    }

    /// The first I/O error the sink raised, if any. Simulations keep
    /// running after a sink failure (their results are still returned or
    /// reported as errors), but no further rows are delivered — a durable
    /// results file is incomplete if this is `Some`.
    pub fn sink_error(&self) -> Option<&std::io::Error> {
        self.sink_error.as_ref()
    }

    /// Number of jobs skipped by [`Sweep::resume`].
    pub fn skipped(&self) -> usize {
        self.items.iter().filter(|i| i.skipped).count()
    }

    /// The per-job results, in job order.
    pub fn items(&self) -> &[SweepItem] {
        &self.items
    }

    /// Iterates the per-job results in job order.
    pub fn iter(&self) -> std::slice::Iter<'_, SweepItem> {
        self.items.iter()
    }

    /// The first failed job, with its index and label attached.
    pub fn first_error(&self) -> Option<SweepError> {
        self.items.iter().enumerate().find_map(|(index, item)| {
            item.error.as_ref().map(|error| SweepError {
                index,
                label: item.label.clone(),
                error: error.clone(),
            })
        })
    }

    /// Unwraps every report in job order, or the first failure with its
    /// job context ("which config failed", not a positional `expect`).
    ///
    /// # Panics
    ///
    /// Panics if the reports were spilled to a [`Sweep::sink`] (they are
    /// no longer here to return) or skipped by [`Sweep::resume`]
    /// (they were never run — read the results file).
    pub fn into_reports(self) -> Result<Vec<SimReport>, SweepError> {
        if let Some(err) = self.first_error() {
            return Err(err);
        }
        assert!(
            !self.spilled,
            "sweep reports were streamed to the sink; read them there"
        );
        assert!(
            self.skipped() == 0,
            "sweep skipped resumed jobs; their reports live in the results file"
        );
        Ok(self
            .items
            .into_iter()
            .map(|item| item.report.expect("ok item retains its report"))
            .collect())
    }

    /// [`SweepResults::into_reports`], panicking with `what` plus the
    /// failing job's label on error (for harnesses that cannot proceed
    /// from a partial sweep, like the figure benches).
    ///
    /// # Panics
    ///
    /// Panics if any job failed, naming the job, or if the reports were
    /// spilled to a sink.
    pub fn expect_reports(self, what: &str) -> Vec<SimReport> {
        match self.into_reports() {
            Ok(reports) => reports,
            Err(e) => panic!("{what}: {e}"),
        }
    }
}

impl IntoIterator for SweepResults {
    type Item = SweepItem;
    type IntoIter = std::vec::IntoIter<SweepItem>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

impl<'a> IntoIterator for &'a SweepResults {
    type Item = &'a SweepItem;
    type IntoIter = std::slice::Iter<'a, SweepItem>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

struct JobSpec {
    label: String,
    cfg: SimConfig,
    workload: usize,
    /// The index the job's result row carries.
    index: usize,
    /// Set by [`Sweep::resume`]: the results file already holds the row.
    resumed: bool,
}

/// A labeled grid of scenarios, fanned out over scoped worker threads.
///
/// Build with [`Sweep::over`] (one shared workload, many configurations —
/// every paper figure), [`Sweep::workloads`] (a labeled *workload axis*:
/// each configuration crosses every workload, the Figures 8/10/11 grid
/// shape), and/or [`Sweep::scenario`] (jobs with their own workloads).
/// Jobs are independent single-threaded simulations, so the fan-out is
/// bit-identical to running them serially in push order
/// (`tests/sweep_determinism.rs`); results come back in push order no
/// matter the completion order. A per-job panic is caught and surfaced as
/// [`SimError::Panic`] with the job's index and label — one hostile job
/// cannot abort the sweep.
pub struct Sweep<'a> {
    workloads: Vec<Workload<'a>>,
    /// The shared workload axis: `(label, index into workloads)`. `None`
    /// labels the single axis entry of [`Sweep::over`], which keeps plain
    /// config labels ungarbled.
    axis: Vec<(Option<String>, usize)>,
    jobs: Vec<JobSpec>,
    /// Number of [`Sweep::config`]/[`Sweep::configs`] calls so far (the
    /// config-axis length; used for auto-labels and to reject workload
    /// additions after the cross product started).
    config_count: usize,
    threads: usize,
    sink: Option<&'a mut dyn ResultSink>,
}

impl Default for Sweep<'_> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'a> Sweep<'a> {
    /// An empty sweep with no shared workload; add jobs with
    /// [`Sweep::scenario`] (or add a workload axis first with
    /// [`Sweep::workloads`]).
    pub fn new() -> Self {
        Self {
            workloads: Vec::new(),
            axis: Vec::new(),
            jobs: Vec::new(),
            config_count: 0,
            threads: 0,
            sink: None,
        }
    }

    /// A sweep whose [`Sweep::config`]/[`Sweep::configs`] jobs all replay
    /// `workload`.
    pub fn over(workload: Workload<'a>) -> Self {
        let mut sweep = Self::new();
        sweep.workloads.push(workload);
        sweep.axis.push((None, 0));
        sweep
    }

    /// Adds labeled workloads to the shared axis. Every configuration
    /// added afterwards crosses the whole axis: `.workloads(W).config(c)`
    /// pushes one job per workload, labeled `<config>/<workload>` — the
    /// config × workload grid of Figures 8/10/11 in one call. Job order is
    /// config-major (all of one config's workloads, then the next
    /// config's).
    ///
    /// # Panics
    ///
    /// Panics if configurations were already added — the cross product is
    /// expanded eagerly, so the workload axis must be complete first —
    /// or if the sweep was built with [`Sweep::over`] (mixing its
    /// anonymous workload into a labeled axis would give every config a
    /// phantom unlabeled job; start from [`Sweep::new`]).
    pub fn workloads<S: Into<String>>(
        mut self,
        workloads: impl IntoIterator<Item = (S, Workload<'a>)>,
    ) -> Self {
        assert!(
            self.config_count == 0,
            "Sweep::workloads must come before config/configs (the grid is expanded eagerly)"
        );
        assert!(
            self.axis.iter().all(|(label, _)| label.is_some()),
            "Sweep::workloads cannot extend a Sweep::over axis; build with Sweep::new"
        );
        for (label, workload) in workloads {
            self.workloads.push(workload);
            self.axis
                .push((Some(label.into()), self.workloads.len() - 1));
        }
        self
    }

    /// Adds one labeled configuration: one job per workload on the shared
    /// axis (a single job for [`Sweep::over`], the full cross-product row
    /// for [`Sweep::workloads`], labeled `<config>/<workload>`).
    ///
    /// # Panics
    ///
    /// Panics if the sweep has no shared workload axis (build with
    /// [`Sweep::over`] or [`Sweep::workloads`], or use
    /// [`Sweep::scenario`]).
    pub fn config(mut self, label: impl Into<String>, cfg: SimConfig) -> Self {
        assert!(
            !self.axis.is_empty(),
            "Sweep::config needs a shared workload; build with Sweep::over or Sweep::workloads"
        );
        let label = label.into();
        for ai in 0..self.axis.len() {
            let (wl_label, workload) = &self.axis[ai];
            let composite = match wl_label {
                None => label.clone(),
                Some(w) => format!("{label}/{w}"),
            };
            self.jobs.push(JobSpec {
                label: composite,
                cfg: cfg.clone(),
                workload: *workload,
                index: self.jobs.len(),
                resumed: false,
            });
        }
        self.config_count += 1;
        self
    }

    /// Adds many configurations against the shared workload axis, each
    /// labeled `#<index> <arch> ram=<size> flash=<size>`.
    ///
    /// # Panics
    ///
    /// Panics if the sweep has no shared workload axis (see
    /// [`Sweep::config`]).
    pub fn configs(mut self, cfgs: impl IntoIterator<Item = SimConfig>) -> Self {
        for cfg in cfgs {
            let label = format!(
                "#{} {} ram={} flash={}",
                self.config_count,
                cfg.arch.name(),
                cfg.ram_size,
                cfg.flash_size
            );
            self = self.config(label, cfg);
        }
        self
    }

    /// Adds a labeled job with its own workload (for grids whose jobs
    /// don't fit a rectangular config × workload product).
    pub fn scenario(self, label: impl Into<String>, scenario: Scenario<'a>) -> Self {
        let index = self.jobs.len();
        self.scenario_at(index, label, scenario)
    }

    /// [`Sweep::scenario`] for a sweep that runs one slice of a larger
    /// grid (e.g. one fleet worker's cells): the job's result row carries
    /// `index`, its place in the whole grid, instead of its push position.
    pub fn scenario_at(
        mut self,
        index: usize,
        label: impl Into<String>,
        scenario: Scenario<'a>,
    ) -> Self {
        self.workloads.push(scenario.workload);
        self.jobs.push(JobSpec {
            label: label.into(),
            cfg: scenario.cfg,
            workload: self.workloads.len() - 1,
            index,
            resumed: false,
        });
        self
    }

    /// Bounds the worker-thread count; `0` (the default) uses the
    /// machine's available parallelism. `1` runs the jobs serially on the
    /// calling thread.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Streams each job's [`ResultRow`] to `sink` as the job finishes
    /// (completion order; deliveries are serialized across workers). With
    /// a sink attached the returned [`SweepResults`] keep only each job's
    /// label, configuration, and error status — reports are moved into the
    /// sink, so a paper-scale sweep never holds all of them resident.
    /// Failed jobs produce no row; their error stays in the results. The
    /// sink is borrowed, so the caller keeps it (and e.g. a
    /// [`MemorySink`](crate::MemorySink)'s rows) after the run.
    pub fn sink(mut self, sink: &'a mut dyn ResultSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Skips the jobs whose rows the results file at `path` already
    /// holds: `rows` are the rows [`JsonlSink::resume`](crate::JsonlSink::resume)
    /// returned when it opened that file for appending. A killed sweep
    /// rerun this way picks up where it stopped, and the resumed file's
    /// row *set* is identical to an uninterrupted run's (pinned by
    /// `tests/results_pipeline.rs`). Call it after adding every job.
    ///
    /// Every row must be one of this sweep's: its label must name a job,
    /// its index must be the index that job's row carries, its `config`
    /// must equal [`config_to_json`] of the job's configuration, and no
    /// job may have two rows. A file written by another sweep is refused,
    /// never absorbed as this sweep's results.
    ///
    /// # Errors
    ///
    /// An [`InvalidData`](std::io::ErrorKind::InvalidData) error naming
    /// `path`, the first failing row's label and the cause: `not part of
    /// this sweep`, `has index`, `different configuration` or `appears
    /// twice`.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is non-empty and two jobs share a label: a results
    /// file cannot tell them apart, so skipping would be blind.
    pub fn resume(mut self, path: impl AsRef<Path>, rows: &[DecodedRow]) -> std::io::Result<Self> {
        if rows.is_empty() {
            return Ok(self);
        }
        let mut by_label = HashMap::with_capacity(self.jobs.len());
        for (i, job) in self.jobs.iter().enumerate() {
            assert!(
                by_label.insert(job.label.as_str(), i).is_none(),
                "resume requires unique job labels; duplicate {:?}",
                job.label
            );
        }
        let refuse = |row: &DecodedRow, why: String| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "{}: row {:?} {why}; refusing to resume",
                    path.as_ref().display(),
                    row.label
                ),
            )
        };
        let mut resumed = vec![false; self.jobs.len()];
        for row in rows {
            let Some(&i) = by_label.get(row.label.as_str()) else {
                return Err(refuse(row, "is not part of this sweep".into()));
            };
            let job = &self.jobs[i];
            if row.index != job.index {
                let why = format!(
                    "has index {} but this sweep writes {}",
                    row.index, job.index
                );
                return Err(refuse(row, why));
            }
            let want = config_to_json(&job.cfg);
            if row.config != want {
                let why = format!(
                    "was produced by a different configuration (file: {}, requested: {})",
                    row.config.to_string(),
                    want.to_string()
                );
                return Err(refuse(row, why));
            }
            if std::mem::replace(&mut resumed[i], true) {
                return Err(refuse(row, "appears twice".into()));
            }
        }
        for (job, resumed) in self.jobs.iter_mut().zip(resumed) {
            job.resumed |= resumed;
        }
        Ok(self)
    }

    /// Number of jobs added so far.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True if no jobs have been added.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Runs every job and returns the per-job results in push order.
    pub fn run(self) -> SweepResults {
        let Sweep {
            workloads,
            axis: _,
            jobs,
            config_count: _,
            threads,
            sink,
        } = self;
        let spilled = sink.is_some();
        let workers = if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            threads
        }
        .clamp(1, jobs.len().max(1));

        // What a finished job leaves behind: its retained report (absent
        // when spilled to the sink, failed, or skipped), its error status,
        // and whether it was skipped by resume.
        type JobOutcome = (Option<SimReport>, Option<SimError>, bool);

        // The sink plus the first error it raised; after an error the
        // sink reference is dropped so no further rows are delivered.
        let sink = Mutex::new((sink, None::<std::io::Error>));
        // Runs job `i` and delivers its result: the report goes to the
        // sink (moved) or into the returned slot; the error status is
        // recorded either way so `SweepResults` keeps the job context.
        let run_job = |i: usize| -> JobOutcome {
            let job = &jobs[i];
            if job.resumed {
                return (None, None, true);
            }
            // One panicking job must not abort the other 15: catch it and
            // surface it as this job's error, with context. The job's
            // simulator state is fully owned by the run, so unwinding
            // cannot corrupt its siblings.
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                workloads[job.workload].run(&job.cfg)
            }))
            .unwrap_or_else(|payload| Err(SimError::Panic(panic_message(payload.as_ref()))));
            let mut guard = sink.lock().expect("sweep sink poisoned");
            let (sink_slot, sink_err) = &mut *guard;
            if let Some(s) = sink_slot.as_mut() {
                match result {
                    Ok(report) => {
                        let delivery = s.on_row(ResultRow {
                            index: job.index,
                            label: job.label.clone(),
                            config: job.cfg.clone(),
                            report,
                        });
                        if let Err(e) = delivery {
                            *sink_err = Some(e);
                            *sink_slot = None;
                        }
                        (None, None, false)
                    }
                    Err(error) => (None, Some(error), false),
                }
            } else {
                match result {
                    Ok(report) if !spilled => (Some(report), None, false),
                    // A broken sink already consumed this sweep's mandate
                    // to stream; don't silently start retaining.
                    Ok(_) => (None, None, false),
                    Err(error) => (None, Some(error), false),
                }
            }
        };

        let mut outcomes: Vec<Option<JobOutcome>>;
        if workers <= 1 || jobs.len() <= 1 {
            outcomes = (0..jobs.len()).map(|i| Some(run_job(i))).collect();
        } else {
            // Workers pull jobs from a shared cursor (heterogeneous job
            // lengths load-balance); each result lands in its job's slot,
            // so completion order never affects output order.
            let cursor = AtomicUsize::new(0);
            let slots: Vec<Mutex<Option<JobOutcome>>> =
                jobs.iter().map(|_| Mutex::new(None)).collect();
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= jobs.len() {
                            break;
                        }
                        let outcome = run_job(i);
                        *slots[i].lock().expect("sweep slot poisoned") = Some(outcome);
                    });
                }
            });
            outcomes = slots
                .into_iter()
                .map(|slot| slot.into_inner().expect("sweep slot poisoned"))
                .collect();
        }

        let (sink, mut sink_error) = sink.into_inner().expect("sweep sink poisoned");
        if let Some(s) = sink {
            if let Err(e) = s.flush() {
                sink_error.get_or_insert(e);
            }
        }

        let items = jobs
            .into_iter()
            .enumerate()
            .map(|(i, job)| {
                let (report, error, skipped) = outcomes[i].take().unwrap_or_else(|| {
                    // Scoped workers claim slots monotonically and the
                    // scope joins them all, so an empty slot means a
                    // worker died; name the job instead of a bare unwrap.
                    panic!("sweep job {i} ({}) was never completed", job.label)
                });
                SweepItem {
                    label: job.label,
                    config: job.cfg,
                    report,
                    error,
                    skipped,
                }
            })
            .collect();
        SweepResults {
            items,
            spilled,
            sink_error,
        }
    }
}

/// Extracts a human-readable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl std::fmt::Debug for Sweep<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sweep")
            .field("jobs", &self.jobs.len())
            .field("workloads", &self.workloads)
            .field("threads", &self.threads)
            .field("sink", &self.sink.is_some())
            .field("resumed", &self.jobs.iter().filter(|j| j.resumed).count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcache_types::{FileId, HostId, OpKind, ThreadId, TraceMeta, TraceOp};

    /// A tiny deterministic in-memory trace (no generator dependency).
    fn tiny_trace() -> Trace {
        let mut t = Trace::new(TraceMeta {
            hosts: 1,
            threads_per_host: 2,
            ..TraceMeta::default()
        });
        for i in 0..40u32 {
            t.ops.push(TraceOp::new(
                HostId(0),
                ThreadId((i % 2) as u16),
                if i % 3 == 0 {
                    OpKind::Write
                } else {
                    OpKind::Read
                },
                FileId(i % 4),
                i * 3,
                1 + i % 4,
                false,
            ));
        }
        t
    }

    fn tiny_cfg() -> SimConfig {
        SimConfig {
            ram_size: fcache_types::ByteSize::kib(64),
            flash_size: fcache_types::ByteSize::kib(256),
            ..SimConfig::baseline()
        }
    }

    #[test]
    fn scenario_runs_all_workload_kinds_identically() {
        let trace = tiny_trace();
        let cfg = tiny_cfg();
        let want = format!(
            "{:?}",
            Scenario::new(cfg.clone(), Workload::trace(&trace))
                .run()
                .expect("trace run")
        );

        let streamed = Scenario::new(
            cfg.clone(),
            Workload::stream(|| fcache_types::SliceSource::new(&trace)),
        )
        .run()
        .expect("streamed run");
        assert_eq!(format!("{streamed:?}"), want);

        let path = std::env::temp_dir().join("fcache_scenario_unit_trace.bin");
        let mut buf = Vec::new();
        trace.encode(&mut buf).expect("encode");
        std::fs::write(&path, &buf).expect("write archive");
        let filed = Scenario::new(cfg, Workload::file(&path))
            .run()
            .expect("file run");
        let _ = std::fs::remove_file(&path);
        assert_eq!(format!("{filed:?}"), want);
    }

    #[test]
    fn scenario_is_rerunnable() {
        let trace = tiny_trace();
        let s = Scenario::new(tiny_cfg(), Workload::trace(&trace));
        let a = format!("{:?}", s.run().expect("first"));
        let b = format!("{:?}", s.run().expect("second"));
        assert_eq!(a, b);
    }

    #[test]
    fn sweep_keeps_labels_and_order() {
        let trace = tiny_trace();
        let results = Sweep::over(Workload::trace(&trace))
            .config("small", tiny_cfg())
            .config(
                "no-flash",
                SimConfig {
                    flash_size: fcache_types::ByteSize::ZERO,
                    ..tiny_cfg()
                },
            )
            .threads(2)
            .run();
        assert_eq!(results.len(), 2);
        assert!(!results.spilled_to_sink());
        let labels: Vec<&str> = results.iter().map(|i| i.label.as_str()).collect();
        assert_eq!(labels, ["small", "no-flash"]);
        assert!(results
            .items()
            .iter()
            .all(|i| i.is_ok() && i.report.is_some()));
        let reports = results.into_reports().expect("all ok");
        assert_eq!(reports.len(), 2);
    }

    #[test]
    fn resume_names_the_cause_of_each_refusal() {
        let trace = tiny_trace();
        let sweep = || {
            Sweep::over(Workload::trace(&trace))
                .config("a", tiny_cfg())
                .config("b", tiny_cfg())
        };
        let row = |index: usize, label: &str, cfg: &SimConfig| DecodedRow {
            index,
            label: label.into(),
            config: config_to_json(cfg),
            report: SimReport::default(),
        };
        let other = SimConfig {
            seed: tiny_cfg().seed + 1,
            ..tiny_cfg()
        };
        for (rows, cause) in [
            (
                vec![row(0, "c", &tiny_cfg())],
                "row \"c\" is not part of this sweep",
            ),
            (vec![row(1, "a", &tiny_cfg())], "row \"a\" has index 1"),
            (
                vec![row(0, "a", &other)],
                "row \"a\" was produced by a different configuration",
            ),
            (
                vec![row(0, "a", &tiny_cfg()), row(0, "a", &tiny_cfg())],
                "row \"a\" appears twice",
            ),
        ] {
            let err = sweep().resume("r.jsonl", &rows).unwrap_err();
            let msg = err.to_string();
            assert!(msg.starts_with("r.jsonl: ") && msg.contains(cause), "{msg}");
        }

        let results = sweep()
            .resume("r.jsonl", &[row(1, "b", &tiny_cfg())])
            .expect("b is this sweep's second job")
            .run();
        assert_eq!(results.skipped(), 1);
        assert!(results.items()[1].skipped && results.items()[1].report.is_none());
        assert!(results.items()[0].report.is_some());
    }

    #[test]
    fn auto_labels_name_the_configuration() {
        let trace = tiny_trace();
        let results = Sweep::over(Workload::trace(&trace))
            .configs([tiny_cfg()])
            .run();
        let label = &results.items()[0].label;
        assert!(label.contains("#0") && label.contains("naive"), "{label}");
    }

    #[test]
    fn sink_spills_reports_incrementally() {
        let trace = tiny_trace();
        let want = format!(
            "{:?}",
            Scenario::new(tiny_cfg(), Workload::trace(&trace))
                .run()
                .expect("reference")
        );
        let mut sink = crate::MemorySink::new();
        let results = Sweep::over(Workload::trace(&trace))
            .config("a", tiny_cfg())
            .config("b", tiny_cfg())
            .threads(2)
            .sink(&mut sink)
            .run();
        assert!(results.spilled_to_sink());
        assert!(results.sink_error().is_none());
        assert!(results
            .items()
            .iter()
            .all(|i| i.report.is_none() && i.is_ok()));
        let rows = sink.into_rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].label, "a");
        assert_eq!(rows[1].label, "b");
        for row in &rows {
            assert_eq!(
                format!("{:?}", row.report),
                want,
                "sink row {} diverged",
                row.label
            );
        }
    }

    #[test]
    fn workload_axis_crosses_configs_with_composite_labels() {
        let trace = tiny_trace();
        let results = Sweep::new()
            .workloads([
                ("w1", Workload::trace(&trace)),
                ("w2", Workload::trace(&trace)),
            ])
            .config("a", tiny_cfg())
            .config("b", tiny_cfg())
            .run();
        let labels: Vec<&str> = results.iter().map(|i| i.label.as_str()).collect();
        assert_eq!(labels, ["a/w1", "a/w2", "b/w1", "b/w2"]);
        assert!(results.items().iter().all(SweepItem::is_ok));
        // Same workload, same config: every cell of the grid agrees.
        let reports: Vec<String> = results
            .iter()
            .map(|i| format!("{:?}", i.report.as_ref().expect("ok")))
            .collect();
        assert!(reports.iter().all(|r| r == &reports[0]));
    }

    #[test]
    #[should_panic(expected = "before config")]
    fn workloads_after_configs_panics() {
        let trace = tiny_trace();
        let _ = Sweep::new()
            .workloads([("v", Workload::trace(&trace))])
            .config("a", tiny_cfg())
            .workloads([("w", Workload::trace(&trace))]);
    }

    #[test]
    #[should_panic(expected = "cannot extend a Sweep::over axis")]
    fn workloads_on_an_over_sweep_panics() {
        // Mixing over()'s anonymous workload into a labeled axis would
        // give every config a phantom unlabeled job.
        let trace = tiny_trace();
        let _ = Sweep::over(Workload::trace(&trace)).workloads([("w", Workload::trace(&trace))]);
    }

    #[test]
    fn panicking_job_becomes_an_error_not_an_abort() {
        let trace = tiny_trace();
        let results = Sweep::new()
            .scenario("good", Scenario::new(tiny_cfg(), Workload::trace(&trace)))
            .scenario(
                "hostile",
                Scenario::new(
                    tiny_cfg(),
                    Workload::stream(|| -> fcache_types::SliceSource<'_> {
                        panic!("boom in workload factory")
                    }),
                ),
            )
            .scenario(
                "also good",
                Scenario::new(tiny_cfg(), Workload::trace(&trace)),
            )
            .threads(2)
            .run();
        assert_eq!(results.len(), 3);
        assert!(results.items()[0].is_ok());
        assert!(results.items()[2].is_ok());
        let err = results.first_error().expect("hostile job failed");
        assert_eq!(err.index, 1);
        assert_eq!(err.label, "hostile");
        match &err.error {
            SimError::Panic(msg) => assert!(msg.contains("boom"), "{msg}"),
            other => panic!("expected Panic, got {other:?}"),
        }
    }

    #[test]
    fn failing_sink_surfaces_io_error_and_stops_deliveries() {
        struct FailingSink {
            delivered: usize,
        }
        impl crate::ResultSink for FailingSink {
            fn on_row(&mut self, _row: crate::ResultRow) -> std::io::Result<()> {
                self.delivered += 1;
                Err(std::io::Error::other("disk full"))
            }
        }
        let trace = tiny_trace();
        let mut sink = FailingSink { delivered: 0 };
        let results = Sweep::over(Workload::trace(&trace))
            .config("a", tiny_cfg())
            .config("b", tiny_cfg())
            .threads(1)
            .sink(&mut sink)
            .run();
        let err = results.sink_error().expect("sink error surfaced");
        assert!(err.to_string().contains("disk full"));
        // The sink was dropped after the first failure; the jobs still ran
        // and report ok (the failure is the sink's, not theirs).
        assert_eq!(sink.delivered, 1);
        assert!(results.items().iter().all(SweepItem::is_ok));
    }

    #[test]
    fn failed_jobs_carry_index_and_label_context() {
        let results = Sweep::over(Workload::file("/nonexistent/fcache-trace.bin"))
            .config("missing-archive", tiny_cfg())
            .run();
        assert!(!results.items()[0].is_ok());
        let err = results.first_error().expect("job failed");
        assert_eq!(err.index, 0);
        assert_eq!(err.label, "missing-archive");
        assert!(matches!(err.error, SimError::Source(_)));
        let msg = results.into_reports().unwrap_err().to_string();
        assert!(
            msg.contains("job 0") && msg.contains("missing-archive"),
            "{msg}"
        );
    }

    #[test]
    #[should_panic(expected = "needs a shared workload")]
    fn config_without_shared_workload_panics() {
        let _ = Sweep::new().config("x", tiny_cfg());
    }

    #[test]
    fn empty_sweep_returns_empty_results() {
        let results = Sweep::new().run();
        assert!(results.is_empty());
        assert_eq!(results.into_reports().expect("empty is ok").len(), 0);
    }
}
