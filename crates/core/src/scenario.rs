//! The one run surface: [`Scenario`] and [`Sweep`] builders over pluggable
//! [`Workload`]s.
//!
//! Every experiment in this crate is "some configurations × some workload →
//! reports". The engine primitives ([`run_trace`], [`run_source`]) each
//! take one workload kind; this module is the composable layer over them
//! that the `Workbench` helpers, the figure runner, the fleet and `fcsim`
//! route through:
//!
//! - a [`Workload`] names *what* to replay — a shared in-memory trace
//!   ([`Workload::trace`]), a per-job regenerated stream
//!   ([`Workload::stream`]), or a chunked `FCTRACE1` archive
//!   ([`Workload::file`]) — and every kind produces bit-identical
//!   [`SimReport`]s for the same ops (pinned by
//!   `tests/trace_streaming.rs` and `tests/sweep_determinism.rs`);
//! - a [`Scenario`] pairs one [`SimConfig`] with one workload and runs it;
//! - a [`Sweep`] is a list of labeled scenarios ([`Sweep::scenario`])
//!   fanned out over scoped worker threads ([`Sweep::threads`]).
//!   [`Sweep::run`] delivers each finished job's row to the caller's
//!   [`ResultSink`] — in memory or a durable JSONL file — as the job
//!   finishes, so a paper-scale sweep never holds every report resident,
//!   and returns [`SweepResults`] that keep each job's label,
//!   configuration and error — no positional `expect` chains.
//!   [`Sweep::reports`] is the in-memory shorthand for tests and examples,
//!   and [`Sweep::resume`] checks the rows an existing results file
//!   already holds against the sweep's jobs and skips them, making
//!   interrupted sweeps restartable.
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
//! let (model, gen_cfg) = (&model, &gen_cfg);
//! let streamed = || Workload::stream(move || TraceStream::new(model, gen_cfg.clone()));
//! let no_flash = SimConfig { flash_size: ByteSize::ZERO, ..cfg.clone() };
//! let reports = Sweep::new()
//!     .scenario("no flash", Scenario::new(no_flash, streamed()))
//!     .scenario("8M flash", Scenario::new(cfg, streamed()))
//!     .threads(2)
//!     .reports()
//!     .unwrap();
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
use crate::results::{config_to_json, DecodedRow, MemorySink, ResultRow, ResultSink};
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

/// One job of a finished sweep: the label and configuration it ran, and
/// its error if it failed. Its report went to the sink [`Sweep::run`] was
/// given.
#[derive(Debug)]
pub struct SweepItem {
    /// The job's label.
    pub label: String,
    /// The configuration the job ran.
    pub config: SimConfig,
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
    workers: usize,
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

    /// The number of worker threads the sweep ran on: [`Sweep::threads`]
    /// (or the machine's available parallelism for `0`), capped at the job
    /// count. `1` means the jobs ran serially on the calling thread.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The first I/O error the sink raised, if any. Simulations keep
    /// running after a sink failure (their errors are still reported), but
    /// no further rows are delivered — a durable results file is
    /// incomplete if this is `Some`.
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
}

struct Job<'a> {
    label: String,
    scenario: Scenario<'a>,
    /// The index the job's result row carries.
    index: usize,
    /// Set by [`Sweep::resume`]: the results file already holds the row.
    resumed: bool,
}

/// A labeled list of scenarios, fanned out over scoped worker threads.
///
/// Every job is one labeled [`Scenario`] ([`Sweep::scenario`], or
/// [`Sweep::scenario_at`] for one slice of a larger grid). Jobs are
/// independent single-threaded simulations, so the fan-out is
/// bit-identical to running them serially in push order
/// (`tests/sweep_determinism.rs`). [`Sweep::run`] hands each finished
/// job's row to the caller's [`ResultSink`]; the returned
/// [`SweepResults`] list the jobs in push order no matter the completion
/// order. A per-job panic is caught and surfaced as [`SimError::Panic`]
/// with the job's index and label — one hostile job cannot abort the
/// sweep.
///
/// A grid over configurations × workloads is one `scenario` call per
/// cell: [`Workload::trace`] is a borrow, and streamed and file workloads
/// regenerate or reopen their ops for each job anyway, so a job per cell
/// costs no copy.
pub struct Sweep<'a> {
    jobs: Vec<Job<'a>>,
    threads: usize,
}

impl Default for Sweep<'_> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'a> Sweep<'a> {
    /// An empty sweep; add jobs with [`Sweep::scenario`].
    pub fn new() -> Self {
        Self {
            jobs: Vec::new(),
            threads: 0,
        }
    }

    /// Adds a labeled job. Its result row carries its push position as
    /// its index.
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
        self.jobs.push(Job {
            label: label.into(),
            scenario,
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
    /// never absorbed as this sweep's results. Nor is a file resumed into
    /// a sweep where two jobs share a label: the file cannot tell them
    /// apart, so skipping would be blind.
    ///
    /// # Errors
    ///
    /// An [`InvalidData`](std::io::ErrorKind::InvalidData) error naming
    /// `path`, a label and the cause: the first failing row's `not part of
    /// this sweep`, `has index`, `different configuration` or `appears
    /// twice`, or a job label that `names two jobs`.
    pub fn resume(mut self, path: impl AsRef<Path>, rows: &[DecodedRow]) -> std::io::Result<Self> {
        if rows.is_empty() {
            return Ok(self);
        }
        let refuse = |what: &str, label: &str, why: &str| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "{}: {what} {label:?} {why}; refusing to resume",
                    path.as_ref().display(),
                ),
            )
        };
        let mut by_label = HashMap::with_capacity(self.jobs.len());
        for (i, job) in self.jobs.iter().enumerate() {
            if by_label.insert(job.label.as_str(), i).is_some() {
                return Err(refuse("job label", &job.label, "names two jobs"));
            }
        }
        let mut resumed = vec![false; self.jobs.len()];
        for row in rows {
            let Some(&i) = by_label.get(row.label.as_str()) else {
                return Err(refuse("row", &row.label, "is not part of this sweep"));
            };
            let job = &self.jobs[i];
            if row.index != job.index {
                let why = format!(
                    "has index {} but this sweep writes {}",
                    row.index, job.index
                );
                return Err(refuse("row", &row.label, &why));
            }
            let want = config_to_json(job.scenario.config());
            if row.config != want {
                let why = format!(
                    "was produced by a different configuration (file: {}, requested: {})",
                    row.config.to_string(),
                    want.to_string()
                );
                return Err(refuse("row", &row.label, &why));
            }
            if std::mem::replace(&mut resumed[i], true) {
                return Err(refuse("row", &row.label, "appears twice"));
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

    /// Runs every job and delivers each finished job's [`ResultRow`] to
    /// `sink`, in completion order (deliveries are serialized across
    /// workers), then flushes the sink. The sink is the only place reports
    /// go, so a paper-scale sweep into a durable sink never holds all of
    /// them resident. Failed and resumed jobs deliver no row; the returned
    /// [`SweepResults`] keep every job's label, configuration and error in
    /// push order.
    pub fn run(self, sink: &mut dyn ResultSink) -> SweepResults {
        let Sweep { jobs, threads } = self;
        let workers = if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            threads
        }
        .clamp(1, jobs.len().max(1));

        // The sink plus the first error it raised; after an error the
        // sink reference is dropped so no further rows are delivered.
        let sink = Mutex::new((Some(sink), None::<std::io::Error>));
        // Runs job `i` and delivers its row; returns its error, if any.
        let run_job = |i: usize| -> Option<SimError> {
            let job = &jobs[i];
            if job.resumed {
                return None;
            }
            // One panicking job must not abort its siblings: catch it and
            // surface it as this job's error, with context. The job's
            // simulator state is fully owned by the run, so unwinding
            // cannot corrupt its siblings.
            let report = match std::panic::catch_unwind(AssertUnwindSafe(|| job.scenario.run())) {
                Ok(Ok(report)) => report,
                Ok(Err(error)) => return Some(error),
                Err(payload) => return Some(SimError::Panic(panic_message(payload.as_ref()))),
            };
            let mut guard = sink.lock().expect("sweep sink poisoned");
            let (slot, sink_err) = &mut *guard;
            if let Some(s) = slot {
                let delivery = s.on_row(ResultRow {
                    index: job.index,
                    label: job.label.clone(),
                    config: job.scenario.cfg.clone(),
                    report,
                });
                if let Err(e) = delivery {
                    *sink_err = Some(e);
                    *slot = None;
                }
            }
            None
        };
        // Workers pull jobs from a shared cursor (heterogeneous job
        // lengths load-balance) and return the jobs that failed; errors
        // are placed by job index, so completion order never affects the
        // results.
        let cursor = AtomicUsize::new(0);
        let drain = || {
            let mut failed = Vec::new();
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= jobs.len() {
                    return failed;
                }
                if let Some(error) = run_job(i) {
                    failed.push((i, error));
                }
            }
        };
        let failed: Vec<(usize, SimError)> = if workers == 1 {
            drain()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers).map(|_| scope.spawn(drain)).collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("sweep worker panicked"))
                    .collect()
            })
        };

        let (sink, mut sink_error) = sink.into_inner().expect("sweep sink poisoned");
        if let Some(s) = sink {
            if let Err(e) = s.flush() {
                sink_error.get_or_insert(e);
            }
        }
        let mut errors: Vec<Option<SimError>> = vec![None; jobs.len()];
        for (i, error) in failed {
            errors[i] = Some(error);
        }
        let items = jobs
            .into_iter()
            .zip(errors)
            .map(|(job, error)| SweepItem {
                label: job.label,
                config: job.scenario.cfg,
                error,
                skipped: job.resumed,
            })
            .collect();
        SweepResults {
            items,
            workers,
            sink_error,
        }
    }

    /// Runs the sweep into a [`MemorySink`] and returns the reports in
    /// row-index order — push order for [`Sweep::scenario`] jobs — or the
    /// first failed job with its index and label. The shorthand for tests
    /// and examples; a sweep that must not hold every report resident
    /// runs into its own sink with [`Sweep::run`]. Jobs skipped by
    /// [`Sweep::resume`] return no report: theirs is in the results file.
    pub fn reports(self) -> Result<Vec<SimReport>, SweepError> {
        let mut sink = MemorySink::new();
        let results = self.run(&mut sink);
        match results.first_error() {
            Some(err) => Err(err),
            None => Ok(sink.into_rows().into_iter().map(|row| row.report).collect()),
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
            .field("threads", &self.threads)
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
    fn every_run_path_refuses_an_invalid_config_naming_the_field() {
        // More replicas than shards would trip the router's assert deep in
        // the build; every path returns the validation error instead.
        let trace = tiny_trace();
        let bad = SimConfig {
            shards: 2,
            replicas: 3,
            ..tiny_cfg()
        };
        let refused = |run: Result<SimReport, SimError>| match run {
            Err(SimError::Config(msg)) => assert!(msg.starts_with("replicas: "), "{msg}"),
            other => panic!("expected a config error, got {other:?}"),
        };
        refused(Scenario::new(bad.clone(), Workload::trace(&trace)).run());
        let stream = || fcache_types::SliceSource::new(&trace);
        refused(Scenario::new(bad.clone(), Workload::stream(stream)).run());
        refused(run_trace(&bad, &trace));
        refused(run_source(&bad, &mut stream()));
        let results = Sweep::new()
            .scenario("bad", Scenario::new(bad, Workload::trace(&trace)))
            .run(&mut MemorySink::new());
        refused(Err(results.first_error().expect("the job fails").error));
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
        let no_flash = SimConfig {
            flash_size: fcache_types::ByteSize::ZERO,
            ..tiny_cfg()
        };
        let mut sink = MemorySink::new();
        let results = Sweep::new()
            .scenario("small", Scenario::new(tiny_cfg(), Workload::trace(&trace)))
            .scenario("no-flash", Scenario::new(no_flash, Workload::trace(&trace)))
            .threads(2)
            .run(&mut sink);
        assert_eq!(results.len(), 2);
        assert_eq!(results.workers(), 2);
        let labels: Vec<&str> = results.iter().map(|i| i.label.as_str()).collect();
        assert_eq!(labels, ["small", "no-flash"]);
        assert!(results.items().iter().all(SweepItem::is_ok));
        let rows: Vec<(usize, String)> = sink
            .into_rows()
            .into_iter()
            .map(|r| (r.index, r.label))
            .collect();
        assert_eq!(rows, [(0, "small".into()), (1, "no-flash".into())]);
    }

    #[test]
    fn sink_spills_reports_incrementally() {
        let trace = tiny_trace();
        let job = || Scenario::new(tiny_cfg(), Workload::trace(&trace));
        let want = format!("{:?}", job().run().expect("reference"));
        let mut sink = MemorySink::new();
        let results = Sweep::new()
            .scenario("a", job())
            .scenario("b", job())
            .threads(2)
            .run(&mut sink);
        assert!(results.sink_error().is_none());
        assert!(results.items().iter().all(SweepItem::is_ok));
        let rows = sink.into_rows();
        assert_eq!(rows.len(), 2);
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
    fn workers_are_capped_at_the_job_count() {
        let trace = tiny_trace();
        let one = || Scenario::new(tiny_cfg(), Workload::trace(&trace));
        let mut sink = MemorySink::new();
        let results = Sweep::new().scenario("a", one()).threads(4).run(&mut sink);
        assert_eq!(results.workers(), 1);
        let results = Sweep::new()
            .scenario("a", one())
            .scenario("b", one())
            .threads(1)
            .run(&mut sink);
        assert_eq!(results.workers(), 1);
        assert_eq!(sink.rows().len(), 3);
    }

    #[test]
    fn resume_names_the_cause_of_each_refusal() {
        let trace = tiny_trace();
        let sweep = || {
            Sweep::new()
                .scenario("a", Scenario::new(tiny_cfg(), Workload::trace(&trace)))
                .scenario("b", Scenario::new(tiny_cfg(), Workload::trace(&trace)))
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

        let mut sink = MemorySink::new();
        let results = sweep()
            .resume("r.jsonl", &[row(1, "b", &tiny_cfg())])
            .expect("b is this sweep's second job")
            .run(&mut sink);
        assert_eq!(results.skipped(), 1);
        assert!(results.items()[1].skipped);
        let labels: Vec<String> = sink.into_rows().into_iter().map(|r| r.label).collect();
        assert_eq!(labels, ["a"]);
    }

    #[test]
    fn panicking_job_becomes_an_error_not_an_abort() {
        let trace = tiny_trace();
        let mut sink = MemorySink::new();
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
            .run(&mut sink);
        assert_eq!(results.len(), 3);
        assert!(results.items()[0].is_ok());
        assert!(results.items()[2].is_ok());
        assert_eq!(sink.rows().len(), 2, "the hostile job delivers no row");
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
        let results = Sweep::new()
            .scenario("a", Scenario::new(tiny_cfg(), Workload::trace(&trace)))
            .scenario("b", Scenario::new(tiny_cfg(), Workload::trace(&trace)))
            .threads(1)
            .run(&mut sink);
        let err = results.sink_error().expect("sink error surfaced");
        assert!(err.to_string().contains("disk full"));
        // The sink was dropped after the first failure; the jobs still ran
        // and report ok (the failure is the sink's, not theirs).
        assert_eq!(sink.delivered, 1);
        assert!(results.items().iter().all(SweepItem::is_ok));
    }

    #[test]
    fn failed_jobs_carry_index_and_label_context() {
        let missing = || Workload::file("/nonexistent/fcache-trace.bin");
        let err = Sweep::new()
            .scenario("missing-archive", Scenario::new(tiny_cfg(), missing()))
            .reports()
            .unwrap_err();
        assert_eq!(err.index, 0);
        assert_eq!(err.label, "missing-archive");
        assert!(matches!(err.error, SimError::Source(_)));
        let msg = err.to_string();
        assert!(
            msg.contains("job 0") && msg.contains("missing-archive"),
            "{msg}"
        );
    }

    #[test]
    fn bad_configs_fail_with_typed_errors_naming_the_cause() {
        let trace = tiny_trace();
        let bad_shard = SimConfig {
            shards: 2,
            fault_plan: fcache_types::FaultPlan::parse("shard3:outage@1s-2s").expect("parses"),
            ..tiny_cfg()
        };
        let bad_out = SimConfig {
            trace_out: Some("/nonexistent/dir/spans.jsonl".into()),
            ..tiny_cfg()
        };
        for (cfg, cause) in [
            (bad_shard, "shard3:outage"),
            (bad_out, "/nonexistent/dir/spans.jsonl"),
        ] {
            let err = Scenario::new(cfg.clone(), Workload::trace(&trace))
                .run()
                .expect_err("a bad config must not run");
            assert!(
                matches!(&err, SimError::Config(msg) if msg.contains(cause)),
                "{err:?}"
            );
            let swept = Sweep::new()
                .scenario("ok", Scenario::new(tiny_cfg(), Workload::trace(&trace)))
                .scenario("bad", Scenario::new(cfg, Workload::trace(&trace)))
                .reports()
                .expect_err("the bad job fails the sweep");
            assert_eq!((swept.index, swept.label.as_str()), (1, "bad"));
            assert_eq!(swept.error, err);
        }
    }

    #[test]
    fn empty_sweep_returns_empty_results() {
        let mut sink = MemorySink::new();
        let results = Sweep::new().run(&mut sink);
        assert!(results.is_empty());
        assert_eq!(results.workers(), 1);
        assert_eq!(Sweep::new().reports().expect("empty is ok").len(), 0);
    }
}
