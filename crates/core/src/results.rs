//! Structured results: serializable reports, durable sinks, resumable
//! result files.
//!
//! The paper's evaluation is a large grid of config × workload sweeps;
//! every run of that grid used to end as a `Vec<SimReport>` in RAM — a
//! crashed 16-job sweep restarted from zero, and nothing survived the
//! process to be diffed across runs. This module is the durable half of
//! the results path:
//!
//! - **Serialization**: [`report_to_json`] / [`report_from_json`] encode a
//!   complete [`SimReport`] — counters, latency histograms, device
//!   windows, the flash I/O log — as dependency-free
//!   [`Json`], exactly (u64 counters never pass
//!   through an `f64`; floats use shortest-round-trip formatting). The row
//!   format is versioned by [`REPORT_SCHEMA`]; a pinned golden row in
//!   `tests/results_pipeline.rs` makes schema drift fail loudly.
//! - **Sinks**: [`Sweep::run`](crate::Sweep::run) hands each finished
//!   job's [`ResultRow`] to the caller's [`ResultSink`]. [`MemorySink`]
//!   retains rows in RAM, and [`JsonlSink`] appends one JSON row per line
//!   to a file with a flush per row (a killed process loses at most the
//!   row being written).
//! - **Resume**: [`JsonlSink::resume`] reads the valid prefix of an
//!   existing results file — tolerating the torn final line a kill leaves
//!   behind — and appends after it; the rows it returns go to
//!   [`Sweep::resume`](crate::Sweep::resume), which checks each against
//!   the sweep's jobs and skips them. An interrupted-then-resumed sweep
//!   produces the same row set as an uninterrupted one (pinned by
//!   `tests/results_pipeline.rs`).
//! - **Reading**: [`scan_jsonl`], [`read_rows`] and the fleet's part-file
//!   merge all decode through [`decode_rows`], whose errors name
//!   `path:line`.

use std::fs::{File, OpenOptions};
use std::io::{self, Seek as _, Write as _};
use std::path::{Path, PathBuf};

use fcache_cache::{CacheStats, EvictionPolicy};
use fcache_des::SimTime;
use fcache_device::{FlashModel, IoDirection, IoLogEntry, SsdConfig, WindowStat};
use fcache_filer::FilerStats;
use fcache_net::SegmentStats;
use fcache_types::{FleetTopology, Json};

use crate::config::{FlashTiming, SimConfig};
use crate::devsvc::DeviceStatsSnapshot;
use crate::histogram::{HistogramSnapshot, BUCKETS};
use crate::metrics::MetricsSnapshot;
use crate::report::{FleetStats, HostLoadStats, ShardServiceStats, ShardStats, SimReport};
use crate::robust::{FaultWindowStat, RobustnessStats};
use crate::telemetry::{TelemetryStats, TelemetryWindow};
use fcache_remote::RemoteStats;
use fcache_types::Phase;

/// Version stamped into every serialized result row. Bump it whenever the
/// row layout changes shape; readers reject rows from other schemas
/// instead of misinterpreting them.
pub const REPORT_SCHEMA: u64 = 1;

/// One finished sweep job, as delivered to a [`ResultSink`]: the job's
/// identity (index in sweep order + label), the configuration it ran, and
/// its report. Failed jobs never reach a sink — their error stays in the
/// [`SweepResults`](crate::SweepResults) — so a results file only ever
/// holds completed rows (which is what makes label-based resume sound).
#[derive(Clone, Debug)]
pub struct ResultRow {
    /// Job index in sweep (push) order.
    pub index: usize,
    /// The job's label (unique within a sweep; the resume key).
    pub label: String,
    /// The configuration the job ran.
    pub config: SimConfig,
    /// The job's report.
    pub report: SimReport,
}

/// A result row read back from a file: everything [`ResultRow`] carries
/// except the configuration, which stays the JSON [`config_to_json`] wrote
/// rather than a decoded `SimConfig` (resume compares the JSON, and
/// reporting never needs the struct).
#[derive(Clone, Debug, PartialEq)]
pub struct DecodedRow {
    /// Job index recorded in the row.
    pub index: usize,
    /// The job's label.
    pub label: String,
    /// The configuration (the serialized `config` object, verbatim).
    pub config: Json,
    /// The decoded report, exact to the bit.
    pub report: SimReport,
}

/// Receives result rows from a [`Sweep`](crate::Sweep) as jobs finish.
///
/// Delivery is serialized (one row at a time, any worker thread), in
/// completion order. A sink error stops further deliveries and surfaces as
/// [`SweepResults::sink_error`](crate::SweepResults::sink_error); the
/// sweep's simulations still run to completion.
pub trait ResultSink: Send {
    /// Consumes one finished job's row.
    fn on_row(&mut self, row: ResultRow) -> io::Result<()>;

    /// Flushes any buffered state (called once after the last row).
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Retains every row in memory, in delivery (completion) order.
#[derive(Debug, Default)]
pub struct MemorySink {
    rows: Vec<ResultRow>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The rows delivered so far, in completion order.
    pub fn rows(&self) -> &[ResultRow] {
        &self.rows
    }

    /// Consumes the sink, returning its rows sorted back into job order.
    pub fn into_rows(self) -> Vec<ResultRow> {
        let mut rows = self.rows;
        rows.sort_by_key(|r| r.index);
        rows
    }
}

impl ResultSink for MemorySink {
    fn on_row(&mut self, row: ResultRow) -> io::Result<()> {
        self.rows.push(row);
        Ok(())
    }
}

/// Appends one serialized row per line to a file, flushing after every row
/// so a killed process loses at most the line being written.
#[derive(Debug)]
pub struct JsonlSink {
    file: File,
    path: PathBuf,
    /// Reused line buffer (rows are written whole, one syscall each).
    buf: String,
}

impl JsonlSink {
    /// Creates (or truncates) a results file.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = File::create(&path)?;
        Ok(Self {
            file,
            path,
            buf: String::new(),
        })
    }

    /// Opens a results file for resumption: scans its valid row prefix,
    /// truncates the torn final line a killed writer leaves behind (if
    /// any), and positions writes after the last valid row. Returns the
    /// sink plus the rows already present, for
    /// [`Sweep::resume`](crate::Sweep::resume) to check and skip — one
    /// decode pass serves truncation, skipping, and verification.
    ///
    /// A missing file starts empty, so `resume` on a fresh path behaves
    /// exactly like [`JsonlSink::create`]. A file with a complete but
    /// undecodable line — mid-file corruption, another schema, not a
    /// results file — is an error, never a truncation (see
    /// [`scan_jsonl`]).
    pub fn resume(path: impl AsRef<Path>) -> io::Result<(Self, Vec<DecodedRow>)> {
        let path = path.as_ref().to_path_buf();
        let (valid_bytes, rows) = scan_jsonl(&path)?;
        let file = OpenOptions::new()
            .create(true)
            .truncate(false) // existing rows are the point of resuming
            .read(true)
            .write(true)
            .open(&path)?;
        file.set_len(valid_bytes)?;
        let mut sink = Self {
            file,
            path,
            buf: String::new(),
        };
        sink.file.seek(io::SeekFrom::End(0))?;
        Ok((sink, rows))
    }

    /// The file being written.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl ResultSink for JsonlSink {
    fn on_row(&mut self, row: ResultRow) -> io::Result<()> {
        self.buf.clear();
        row_to_json(&row).encode(&mut self.buf);
        self.buf.push('\n');
        // One write_all per row, then flush: the row is durable (modulo OS
        // buffering) before the next job can complete.
        self.file.write_all(self.buf.as_bytes())?;
        self.file.flush()
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }
}

/// Scans a JSONL results file: returns the byte length of the valid row
/// prefix and the decoded rows it contains. A missing file is an empty
/// prefix, not an error.
///
/// Leniency is deliberately narrow: only a torn **final** line — one with
/// no `\n` terminator, exactly what a killed flush-per-row writer leaves
/// (possibly mid-multibyte-character) — is tolerated and excluded from
/// the valid prefix. A *complete* line that fails to decode (corruption
/// mid-file, a row from another [`REPORT_SCHEMA`], a file that is not a
/// results file at all) is an error: truncating there would destroy data
/// that was never ours to discard.
pub fn scan_jsonl(path: impl AsRef<Path>) -> io::Result<(u64, Vec<DecodedRow>)> {
    let path = path.as_ref();
    // Bytes, not a String: a kill can tear the final line mid-UTF-8
    // sequence, which must read as "torn tail", not an I/O error.
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((0, Vec::new())),
        Err(e) => return Err(e),
    };
    let mut rows = Vec::new();
    let valid = decode_rows(path, &bytes, true, |_, row| {
        rows.push(row);
        Ok(())
    })
    .map_err(|e| {
        io::Error::new(
            e.kind(),
            format!(
                "{e} (complete but unreadable — refusing to truncate; repair or \
                 delete the file to start over)"
            ),
        )
    })?;
    Ok((valid, rows))
}

/// Reads a complete results file strictly: every line must be a valid row
/// of the current [`REPORT_SCHEMA`]. Errors name the offending line.
pub fn read_rows(path: impl AsRef<Path>) -> io::Result<Vec<DecodedRow>> {
    let path = path.as_ref();
    let mut rows = Vec::new();
    decode_rows(path, &std::fs::read(path)?, false, |_, row| {
        rows.push(row);
        Ok(())
    })?;
    Ok(rows)
}

/// Decodes the rows in the bytes of the results file at `path`, one per
/// non-empty line, handing each to `each` with its raw line (no `\n`). A
/// final line without a `\n` — the torn tail a killed writer leaves — is
/// skipped when `torn_tail` is set and decoded like any other line
/// otherwise. Every error, `each`'s included, names `path:line`. Returns
/// the byte length of the lines consumed.
pub fn decode_rows(
    path: &Path,
    bytes: &[u8],
    torn_tail: bool,
    mut each: impl FnMut(&[u8], DecodedRow) -> Result<(), String>,
) -> io::Result<u64> {
    let mut consumed = 0usize;
    for (i, chunk) in bytes.split_inclusive(|&b| b == b'\n').enumerate() {
        let line = match chunk.strip_suffix(b"\n") {
            Some(line) => line,
            None if torn_tail => break,
            None => chunk,
        };
        if !line.is_empty() {
            std::str::from_utf8(line)
                .map_err(|_| "invalid UTF-8".to_string())
                .and_then(|text| Json::parse(text).map_err(|e| e.to_string()))
                .and_then(|v| row_from_json(&v))
                .and_then(|row| each(line, row))
                .map_err(|why| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("{}:{}: {why}", path.display(), i + 1),
                    )
                })?;
        }
        consumed += chunk.len();
    }
    Ok(consumed as u64)
}

// ---------------------------------------------------------------------------
// Encoding

/// Serializes one result row (schema, identity, config, report).
pub fn row_to_json(row: &ResultRow) -> Json {
    Json::obj()
        .field("schema", Json::U64(REPORT_SCHEMA))
        .field("index", Json::U64(row.index as u64))
        .field("label", Json::Str(row.label.clone()))
        .field("config", config_to_json(&row.config))
        .field("report", report_to_json(&row.report))
}

/// Serializes a configuration: every field that decides what a run
/// reports, so [`Sweep::resume`](crate::Sweep::resume) never takes a row
/// written under one configuration for another's. The axes every row has
/// always carried come first, then the fault, remote-tier and fleet axes
/// when engaged. Every other field appears only when it differs from
/// [`SimConfig::baseline`], so baseline-valued rows keep their bytes and
/// older results files still resume. `trace_out` is left out: it names
/// where spans go, not what the run does. Not round-tripped —
/// [`row_from_json`] hands it back verbatim.
pub fn config_to_json(cfg: &SimConfig) -> Json {
    let SimConfig {
        arch,
        ram_size,
        flash_size,
        ram_policy,
        flash_policy,
        flash_model:
            FlashModel {
                read: flash_read,
                write: flash_write,
                persistent,
            },
        flash_timing,
        device_window,
        prefetch,
        populate_flash_on_read,
        inclusive_promotion,
        charge_flash_read_on_writeback,
        duplex_network,
        log_flash_io,
        replacement,
        min_runtime,
        syncer_window,
        time_scale,
        shards,
        replicas,
        hedge,
        fault_plan,
        degraded,
        telemetry_windows,
        fleet,
        trace_out: _,
        seed,
    } = cfg;
    let base = SimConfig::baseline();
    let mut j = Json::obj()
        .field("arch", Json::Str(arch.name().to_string()))
        .field("ram", Json::Str(ram_size.to_string()))
        .field("flash", Json::Str(flash_size.to_string()))
        .field("ram_policy", Json::Str(ram_policy.label()))
        .field("flash_policy", Json::Str(flash_policy.label()))
        .field("flash_timing", Json::Str(flash_timing.describe()))
        .field("prefetch", Json::F64(*prefetch))
        .field("persistent", Json::Bool(*persistent))
        .field("duplex", Json::Bool(*duplex_network))
        .field("time_scale", Json::U64(*time_scale))
        .field("seed", Json::U64(*seed));
    // Fault axes appear only when a plan exists, so fault-free rows keep
    // their exact pre-fault encoding.
    if !fault_plan.is_empty() {
        j = j.field("fault", fault_plan.to_json());
    }
    if !fault_plan.is_empty() || *degraded != base.degraded {
        j = j.field("degraded", Json::Str(degraded.label().to_string()));
    }
    // Remote-tier axes, likewise only when non-default.
    if *shards > 1 || *replicas > 1 || hedge.is_some() {
        j = j
            .field("shards", Json::U64(u64::from(*shards)))
            .field("replicas", Json::U64(u64::from(*replicas)))
            .field(
                "hedge_ns",
                match hedge {
                    Some(d) => Json::U64(d.as_nanos()),
                    None => Json::Null,
                },
            );
    }
    // Fleet axes, only for rows that are one cell of a fleet run. The
    // coordinator's resume path cross-checks these, so a fleet results
    // file can't silently absorb rows from a different fleet shape.
    if let Some(fleet) = fleet {
        j = j
            .field("fleet_cell", Json::U64(u64::from(fleet.cell)))
            .field("fleet_cells", Json::U64(u64::from(fleet.cells)))
            .field("fleet_host_base", Json::U64(u64::from(fleet.host_base)))
            .field("fleet_hosts", Json::U64(u64::from(fleet.fleet_hosts)))
            .field("fleet_fanin", Json::U64(u64::from(fleet.fanin())));
    }
    let nanos = |t: &Option<SimTime>| Json::U64(t.map_or(0, SimTime::as_nanos));
    let off_baseline = [
        (
            "flash_read_ns",
            *flash_read != base.flash_model.read,
            Json::U64(flash_read.as_nanos()),
        ),
        (
            "flash_write_ns",
            *flash_write != base.flash_model.write,
            Json::U64(flash_write.as_nanos()),
        ),
        (
            "device_window",
            *device_window != base.device_window,
            Json::U64(*device_window as u64),
        ),
        (
            "populate_flash_on_read",
            *populate_flash_on_read != base.populate_flash_on_read,
            Json::Bool(*populate_flash_on_read),
        ),
        (
            "inclusive_promotion",
            *inclusive_promotion != base.inclusive_promotion,
            Json::Bool(*inclusive_promotion),
        ),
        (
            "charge_flash_read_on_writeback",
            *charge_flash_read_on_writeback != base.charge_flash_read_on_writeback,
            Json::Bool(*charge_flash_read_on_writeback),
        ),
        (
            "log_flash_io",
            *log_flash_io != base.log_flash_io,
            Json::Bool(*log_flash_io),
        ),
        (
            "min_runtime_ns",
            *min_runtime != base.min_runtime,
            nanos(min_runtime),
        ),
        (
            "syncer_window",
            *syncer_window != base.syncer_window,
            Json::U64(*syncer_window as u64),
        ),
        (
            "telemetry_windows_ns",
            *telemetry_windows != base.telemetry_windows,
            nanos(telemetry_windows),
        ),
    ];
    for (key, differs, value) in off_baseline {
        if differs {
            j = j.field(key, value);
        }
    }
    if *replacement != base.replacement {
        let name = match replacement {
            EvictionPolicy::Lru => "lru",
            EvictionPolicy::Fifo => "fifo",
            EvictionPolicy::Clock => "clock",
        };
        j = j.field("replacement", Json::Str(name.to_string()));
    }
    if let FlashTiming::Ssd(sc) = flash_timing {
        if let Some(tuning) = ssd_tuning(sc) {
            j = j.field("ssd_tuning", tuning);
        }
    }
    j
}

/// The SSD parameters [`FlashTiming::describe`] leaves out, or `None` when
/// they are the ones a device of `sc`'s capacity derives (as every `fcsim`
/// flag and every scaled configuration leaves them).
fn ssd_tuning(sc: &SsdConfig) -> Option<Json> {
    let SsdConfig {
        capacity_blocks,
        read_base,
        write_base,
        queue_depth,
        region_shift,
        map_cache_slots,
        read_miss_factor,
        fill_read_penalty,
        wear_read_penalty,
        seed,
    } = *sc;
    let derived = match capacity_blocks {
        0 => SsdConfig::auto(),
        blocks => SsdConfig::auto().fit_capacity(blocks),
    };
    let described = SsdConfig {
        capacity_blocks,
        read_base,
        write_base,
        queue_depth,
        ..derived
    };
    (*sc != described).then(|| {
        Json::obj()
            .field("region_shift", Json::U64(u64::from(region_shift)))
            .field("map_cache_slots", Json::U64(map_cache_slots as u64))
            .field("read_miss_factor", Json::F64(read_miss_factor))
            .field("fill_read_penalty", Json::F64(fill_read_penalty))
            .field("wear_read_penalty", Json::F64(wear_read_penalty))
            .field("seed", Json::U64(seed))
    })
}

/// Serializes a complete report, exactly (see the round-trip property test
/// in `tests/results_pipeline.rs`).
pub fn report_to_json(r: &SimReport) -> Json {
    let j = Json::obj()
        .field("metrics", metrics_to_json(&r.metrics))
        .field("ram", cache_to_json(&r.ram))
        .field("flash", cache_to_json(&r.flash))
        .field("unified", cache_to_json(&r.unified))
        .field(
            "filer",
            Json::obj()
                .field("fast_reads", Json::U64(r.filer.fast_reads))
                .field("slow_reads", Json::U64(r.filer.slow_reads))
                .field("writes", Json::U64(r.filer.writes)),
        )
        .field("net", net_to_json(&r.net))
        .field("device", device_to_json(&r.device))
        .field(
            "device_windows",
            match &r.device_windows {
                None => Json::Null,
                Some(ws) => Json::Arr(ws.iter().map(window_to_json).collect()),
            },
        )
        .field("end_time_ns", Json::U64(r.end_time.as_nanos()))
        .field("events", Json::U64(r.events))
        .field(
            "flash_iolog",
            match &r.flash_iolog {
                None => Json::Null,
                Some(entries) => Json::Arr(
                    entries
                        .iter()
                        .map(|e| {
                            let dir = match e.dir {
                                IoDirection::Read => "r",
                                IoDirection::Write => "w",
                            };
                            Json::Arr(vec![Json::Str(dir.to_string()), Json::U64(e.lba)])
                        })
                        .collect(),
                ),
            },
        )
        .field("robustness", robustness_to_json(&r.robustness));
    // The shard section appears only when the run engaged the remote tier,
    // so single-filer rows keep their exact pre-remote encoding.
    let mut j = j;
    if r.shard.engaged() {
        j = j.field("shard", shard_to_json(&r.shard));
    }
    // The telemetry section likewise appears only when telemetry ran, so
    // telemetry-off rows keep their exact earlier encoding.
    if r.telemetry.engaged() {
        j = j.field("telemetry", telemetry_to_json(&r.telemetry));
    }
    // The fleet section appears only for fleet-cell rows.
    if r.fleet.engaged() {
        j = j.field("fleet", fleet_to_json(&r.fleet));
    }
    j
}

/// Network counters; the queueing pair appears only when some packet
/// actually waited, so uncontended rows (every pre-fleet row) keep their
/// exact three-field encoding.
fn net_to_json(n: &SegmentStats) -> Json {
    let mut j = Json::obj()
        .field("packets", Json::U64(n.packets))
        .field("payload_bytes", Json::U64(n.payload_bytes))
        .field("busy_ns", Json::U64(n.busy.as_nanos()));
    if n.queue_waits > 0 {
        j = j
            .field("queue_wait_ns", Json::U64(n.queue_wait.as_nanos()))
            .field("queue_waits", Json::U64(n.queue_waits));
    }
    j
}

/// Fleet topology plus the per-host load vector as compact
/// `[host, read_ops, write_ops, read_latency_ns, write_latency_ns]` rows.
fn fleet_to_json(f: &FleetStats) -> Json {
    let topo = f.topology.as_ref().expect("encoded only when engaged");
    Json::obj()
        .field("cell", Json::U64(u64::from(topo.cell)))
        .field("cells", Json::U64(u64::from(topo.cells)))
        .field("host_base", Json::U64(u64::from(topo.host_base)))
        .field("fleet_hosts", Json::U64(u64::from(topo.fleet_hosts)))
        .field(
            "hosts_per_segment",
            Json::U64(u64::from(topo.hosts_per_segment)),
        )
        .field(
            "per_host",
            Json::Arr(
                f.per_host
                    .iter()
                    .map(|h| {
                        Json::Arr(vec![
                            Json::U64(u64::from(h.host)),
                            Json::U64(h.read_ops),
                            Json::U64(h.write_ops),
                            Json::U64(h.read_latency_ns),
                            Json::U64(h.write_latency_ns),
                        ])
                    })
                    .collect(),
            ),
        )
}

/// Telemetry: per-phase totals as fixed-order arrays (index =
/// [`Phase::index`]), per-phase histograms in the sparse histogram
/// encoding, and the unified window series as compact rows.
fn telemetry_to_json(t: &TelemetryStats) -> Json {
    Json::obj()
        .field("spans", Json::U64(t.spans))
        .field(
            "phase_ns",
            Json::Arr(t.phase_ns.iter().map(|&n| Json::U64(n)).collect()),
        )
        .field(
            "phase_ops",
            Json::Arr(t.phase_ops.iter().map(|&n| Json::U64(n)).collect()),
        )
        .field(
            "phase_hists",
            Json::Arr(t.phase_hists.iter().map(hist_to_json).collect()),
        )
        .field("window_ns", Json::U64(t.window_ns))
        .field(
            "windows",
            Json::Arr(t.windows.iter().map(telemetry_window_to_json).collect()),
        )
}

/// One unified window as a compact row:
/// `[start, end, ops, read_blocks, write_blocks, hit_blocks, filer_blocks,
/// latency_ns, retries, degraded_ns, dirty_num, dirty_den, depth_sum,
/// depth_samples, [shard_live_ns…]]`.
fn telemetry_window_to_json(w: &TelemetryWindow) -> Json {
    Json::Arr(vec![
        Json::U64(w.start_ns),
        Json::U64(w.end_ns),
        Json::U64(w.ops),
        Json::U64(w.read_blocks),
        Json::U64(w.write_blocks),
        Json::U64(w.hit_blocks),
        Json::U64(w.filer_blocks),
        Json::U64(w.latency_ns),
        Json::U64(w.retries),
        Json::U64(w.degraded_ns),
        Json::U64(w.dirty_num),
        Json::U64(w.dirty_den),
        Json::U64(w.depth_sum),
        Json::U64(w.depth_samples),
        Json::Arr(w.shard_live_ns.iter().map(|&n| Json::U64(n)).collect()),
    ])
}

/// Remote-tier counters: topology, per-shard tallies (compact
/// `[fast, slow, writes, outage_ns]` rows), and the replication-layer
/// counters flattened alongside.
fn shard_to_json(s: &ShardStats) -> Json {
    let r = &s.remote;
    Json::obj()
        .field("shards", Json::U64(u64::from(s.shards)))
        .field("replicas", Json::U64(u64::from(s.replicas)))
        .field("hedge_ns", Json::U64(s.hedge_ns))
        .field(
            "per_shard",
            Json::Arr(
                s.per_shard
                    .iter()
                    .map(|p| {
                        Json::Arr(vec![
                            Json::U64(p.fast_reads),
                            Json::U64(p.slow_reads),
                            Json::U64(p.writes),
                            Json::U64(p.outage_ns),
                        ])
                    })
                    .collect(),
            ),
        )
        .field("hedges_launched", Json::U64(r.hedges_launched))
        .field("hedges_won", Json::U64(r.hedges_won))
        .field("hedges_cancelled", Json::U64(r.hedges_cancelled))
        .field("failovers", Json::U64(r.failovers))
        .field("re_replicated_blocks", Json::U64(r.re_replicated_blocks))
        .field("re_replication_bytes", Json::U64(r.re_replication_bytes))
        .field("under_intervals", Json::U64(r.under_intervals))
        .field("under_peak", Json::U64(r.under_peak))
        .field("under_now", Json::U64(r.under_now))
        .field("under_time_ns", Json::U64(r.under_time_ns))
}

/// Robustness counters serialize compactly; fault-free runs encode the
/// all-zero default, and PR-5-era rows without the field decode to it.
fn robustness_to_json(r: &RobustnessStats) -> Json {
    Json::obj()
        .field("retries", Json::U64(r.retries))
        .field("timeouts", Json::U64(r.timeouts))
        .field("failed_ops", Json::U64(r.failed_ops))
        .field("queued_ops", Json::U64(r.queued_ops))
        .field("buffered_writes", Json::U64(r.buffered_writes))
        .field("degraded_time_ns", Json::U64(r.degraded_time.as_nanos()))
        .field("drain_events", Json::U64(r.drain_events))
        .field("drain_depth_max", Json::U64(r.drain_depth_max))
        .field("drain_time_ns", Json::U64(r.drain_time.as_nanos()))
        .field(
            "windows",
            Json::Arr(
                r.windows
                    .iter()
                    .map(|w| {
                        Json::Arr(vec![
                            Json::U64(w.start.as_nanos()),
                            Json::U64(w.end.as_nanos()),
                            Json::U64(w.ops),
                            Json::U64(w.ok),
                        ])
                    })
                    .collect(),
            ),
        )
}

fn metrics_to_json(m: &MetricsSnapshot) -> Json {
    Json::obj()
        .field("read_ops", Json::U64(m.read_ops))
        .field("write_ops", Json::U64(m.write_ops))
        .field("read_blocks", Json::U64(m.read_blocks))
        .field("write_blocks", Json::U64(m.write_blocks))
        .field("read_latency_ns", Json::U64(m.read_latency.as_nanos()))
        .field("write_latency_ns", Json::U64(m.write_latency.as_nanos()))
        .field("tracked_writes", Json::U64(m.tracked_writes))
        .field("writes_invalidating", Json::U64(m.writes_invalidating))
        .field("invalidated_blocks", Json::U64(m.invalidated_blocks))
        .field("read_hist", hist_to_json(&m.read_hist))
        .field("write_hist", hist_to_json(&m.write_hist))
}

fn cache_to_json(c: &CacheStats) -> Json {
    Json::obj()
        .field("hits", Json::U64(c.hits))
        .field("misses", Json::U64(c.misses))
        .field("insertions", Json::U64(c.insertions))
        .field("clean_evictions", Json::U64(c.clean_evictions))
        .field("dirty_evictions", Json::U64(c.dirty_evictions))
        .field("invalidations", Json::U64(c.invalidations))
        .field("overwrites", Json::U64(c.overwrites))
}

fn device_to_json(d: &DeviceStatsSnapshot) -> Json {
    Json::obj()
        .field("reads", Json::U64(d.reads))
        .field("writes", Json::U64(d.writes))
        .field("read_time_ns", Json::U64(d.read_time.as_nanos()))
        .field("write_time_ns", Json::U64(d.write_time.as_nanos()))
        .field("queue_waits", Json::U64(d.queue_waits))
        .field("depth_sum", Json::U64(d.depth_sum))
        .field("depth_samples", Json::U64(d.depth_samples))
        .field("depth_max", Json::U64(d.depth_max))
        .field("read_hist", hist_to_json(&d.read_hist))
        .field("write_hist", hist_to_json(&d.write_hist))
}

fn window_to_json(w: &WindowStat) -> Json {
    Json::obj()
        .field("start_io", Json::U64(w.start_io))
        .field("read_avg_us", Json::F64(w.read_avg_us))
        .field("write_avg_us", Json::F64(w.write_avg_us))
        .field("reads", Json::U64(w.reads))
        .field("writes", Json::U64(w.writes))
}

/// Histograms serialize sparsely: `[[bucket_index, count], …]` for the
/// non-empty buckets (of 64, most are empty). The total is derived on
/// decode — a live histogram's count always equals its bucket sum.
fn hist_to_json(h: &HistogramSnapshot) -> Json {
    Json::Arr(
        h.buckets()
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| Json::Arr(vec![Json::U64(i as u64), Json::U64(c)]))
            .collect(),
    )
}

// ---------------------------------------------------------------------------
// Decoding

/// Decodes one serialized row, verifying its schema version.
pub fn row_from_json(v: &Json) -> Result<DecodedRow, String> {
    let schema = u(v, "schema")?;
    if schema != REPORT_SCHEMA {
        return Err(format!(
            "row has schema {schema}, this build reads schema {REPORT_SCHEMA}"
        ));
    }
    Ok(DecodedRow {
        index: u(v, "index")? as usize,
        label: v
            .get("label")
            .and_then(Json::as_str)
            .ok_or("missing/invalid field \"label\"")?
            .to_string(),
        config: v.get("config").cloned().ok_or("missing field \"config\"")?,
        report: report_from_json(v.get("report").ok_or("missing field \"report\"")?)?,
    })
}

/// Decodes a serialized report, exactly inverse to [`report_to_json`].
pub fn report_from_json(v: &Json) -> Result<SimReport, String> {
    let filer = v.get("filer").ok_or("missing field \"filer\"")?;
    let net = v.get("net").ok_or("missing field \"net\"")?;
    Ok(SimReport {
        metrics: metrics_from_json(v.get("metrics").ok_or("missing field \"metrics\"")?)?,
        ram: cache_from_json(v.get("ram").ok_or("missing field \"ram\"")?)?,
        flash: cache_from_json(v.get("flash").ok_or("missing field \"flash\"")?)?,
        unified: cache_from_json(v.get("unified").ok_or("missing field \"unified\"")?)?,
        filer: FilerStats {
            fast_reads: u(filer, "fast_reads")?,
            slow_reads: u(filer, "slow_reads")?,
            writes: u(filer, "writes")?,
        },
        net: SegmentStats {
            packets: u(net, "packets")?,
            payload_bytes: u(net, "payload_bytes")?,
            busy: t(net, "busy_ns")?,
            // Lenient: rows written before shared wires existed (and rows
            // where nothing queued) carry no queueing fields.
            queue_wait: SimTime::from_nanos(
                net.get("queue_wait_ns").and_then(Json::as_u64).unwrap_or(0),
            ),
            queue_waits: net.get("queue_waits").and_then(Json::as_u64).unwrap_or(0),
        },
        device: device_from_json(v.get("device").ok_or("missing field \"device\"")?)?,
        device_windows: match v.get("device_windows") {
            None | Some(Json::Null) => None,
            Some(Json::Arr(items)) => Some(
                items
                    .iter()
                    .map(window_from_json)
                    .collect::<Result<Vec<_>, _>>()?,
            ),
            Some(other) => return Err(format!("invalid device_windows: {other:?}")),
        },
        end_time: t(v, "end_time_ns")?,
        events: u(v, "events")?,
        flash_iolog: match v.get("flash_iolog") {
            None | Some(Json::Null) => None,
            Some(Json::Arr(items)) => Some(
                items
                    .iter()
                    .map(|e| {
                        let pair = e.as_arr().filter(|a| a.len() == 2);
                        let pair = pair.ok_or("invalid flash_iolog entry")?;
                        let dir = match pair[0].as_str() {
                            Some("r") => IoDirection::Read,
                            Some("w") => IoDirection::Write,
                            _ => return Err("invalid flash_iolog direction".to_string()),
                        };
                        let lba = pair[1].as_u64().ok_or("invalid flash_iolog lba")?;
                        Ok(IoLogEntry { dir, lba })
                    })
                    .collect::<Result<Vec<_>, String>>()?,
            ),
            Some(other) => return Err(format!("invalid flash_iolog: {other:?}")),
        },
        // Optional for backward compatibility: rows written before the
        // fault-injection schema addition decode to the all-zero default.
        robustness: match v.get("robustness") {
            None | Some(Json::Null) => RobustnessStats::default(),
            Some(r) => robustness_from_json(r)?,
        },
        // Likewise optional: rows from single-filer runs (and older
        // builds) decode to the disengaged default.
        shard: match v.get("shard") {
            None | Some(Json::Null) => ShardStats::default(),
            Some(s) => shard_from_json(s)?,
        },
        // Telemetry-off rows (and rows from earlier builds) decode to the
        // disengaged default.
        telemetry: match v.get("telemetry") {
            None | Some(Json::Null) => TelemetryStats::default(),
            Some(t) => telemetry_from_json(t)?,
        },
        // Non-fleet rows decode to the disengaged default.
        fleet: match v.get("fleet") {
            None | Some(Json::Null) => FleetStats::default(),
            Some(f) => fleet_from_json(f)?,
        },
    })
}

fn fleet_from_json(v: &Json) -> Result<FleetStats, String> {
    Ok(FleetStats {
        topology: Some(FleetTopology {
            cell: u(v, "cell")? as u32,
            cells: u(v, "cells")? as u32,
            host_base: u(v, "host_base")? as u32,
            fleet_hosts: u(v, "fleet_hosts")? as u32,
            hosts_per_segment: u(v, "hosts_per_segment")? as u16,
        }),
        per_host: v
            .get("per_host")
            .and_then(Json::as_arr)
            .ok_or("missing/invalid fleet per_host")?
            .iter()
            .map(|p| {
                let q = p.as_arr().filter(|a| a.len() == 5);
                let q = q.ok_or(
                    "fleet per_host row must be [host, read_ops, write_ops, \
                     read_latency_ns, write_latency_ns]",
                )?;
                let n = |i: usize| q[i].as_u64().ok_or("invalid fleet per_host entry");
                Ok(HostLoadStats {
                    host: n(0)? as u32,
                    read_ops: n(1)?,
                    write_ops: n(2)?,
                    read_latency_ns: n(3)?,
                    write_latency_ns: n(4)?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?,
    })
}

fn telemetry_from_json(v: &Json) -> Result<TelemetryStats, String> {
    fn phase_array(v: &Json, key: &str) -> Result<[u64; Phase::COUNT], String> {
        let items = v
            .get(key)
            .and_then(Json::as_arr)
            .filter(|a| a.len() == Phase::COUNT)
            .ok_or_else(|| format!("telemetry {key} must be an array of {}", Phase::COUNT))?;
        let mut out = [0u64; Phase::COUNT];
        for (slot, item) in out.iter_mut().zip(items) {
            *slot = item
                .as_u64()
                .ok_or_else(|| format!("invalid telemetry {key} entry"))?;
        }
        Ok(out)
    }
    let hists = v
        .get("phase_hists")
        .and_then(Json::as_arr)
        .filter(|a| a.len() == Phase::COUNT)
        .ok_or_else(|| format!("telemetry phase_hists must be an array of {}", Phase::COUNT))?;
    let mut phase_hists: [HistogramSnapshot; Phase::COUNT] = Default::default();
    for (slot, item) in phase_hists.iter_mut().zip(hists) {
        *slot = hist_from_json(item)?;
    }
    Ok(TelemetryStats {
        spans: u(v, "spans")?,
        phase_ns: phase_array(v, "phase_ns")?,
        phase_ops: phase_array(v, "phase_ops")?,
        phase_hists,
        window_ns: u(v, "window_ns")?,
        windows: v
            .get("windows")
            .and_then(Json::as_arr)
            .ok_or("missing/invalid telemetry windows")?
            .iter()
            .map(telemetry_window_from_json)
            .collect::<Result<Vec<_>, _>>()?,
    })
}

fn telemetry_window_from_json(v: &Json) -> Result<TelemetryWindow, String> {
    let q = v.as_arr().filter(|a| a.len() == 15);
    let q = q.ok_or("telemetry window must be a 15-element array")?;
    let n = |i: usize| q[i].as_u64().ok_or("invalid telemetry window entry");
    Ok(TelemetryWindow {
        start_ns: n(0)?,
        end_ns: n(1)?,
        ops: n(2)?,
        read_blocks: n(3)?,
        write_blocks: n(4)?,
        hit_blocks: n(5)?,
        filer_blocks: n(6)?,
        latency_ns: n(7)?,
        retries: n(8)?,
        degraded_ns: n(9)?,
        dirty_num: n(10)?,
        dirty_den: n(11)?,
        depth_sum: n(12)?,
        depth_samples: n(13)?,
        shard_live_ns: q[14]
            .as_arr()
            .ok_or("invalid telemetry window shard_live_ns")?
            .iter()
            .map(|x| x.as_u64().ok_or("invalid shard_live_ns entry".to_string()))
            .collect::<Result<Vec<_>, _>>()?,
    })
}

fn shard_from_json(v: &Json) -> Result<ShardStats, String> {
    Ok(ShardStats {
        shards: u(v, "shards")? as u16,
        replicas: u(v, "replicas")? as u16,
        hedge_ns: u(v, "hedge_ns")?,
        per_shard: v
            .get("per_shard")
            .and_then(Json::as_arr)
            .ok_or("missing/invalid shard per_shard")?
            .iter()
            .map(|p| {
                let q = p.as_arr().filter(|a| a.len() == 4);
                let q = q.ok_or("per_shard row must be [fast, slow, writes, outage_ns]")?;
                let n = |i: usize| q[i].as_u64().ok_or("invalid per_shard entry");
                Ok(ShardServiceStats {
                    fast_reads: n(0)?,
                    slow_reads: n(1)?,
                    writes: n(2)?,
                    outage_ns: n(3)?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?,
        remote: RemoteStats {
            hedges_launched: u(v, "hedges_launched")?,
            hedges_won: u(v, "hedges_won")?,
            hedges_cancelled: u(v, "hedges_cancelled")?,
            failovers: u(v, "failovers")?,
            re_replicated_blocks: u(v, "re_replicated_blocks")?,
            re_replication_bytes: u(v, "re_replication_bytes")?,
            under_intervals: u(v, "under_intervals")?,
            under_peak: u(v, "under_peak")?,
            under_now: u(v, "under_now")?,
            under_time_ns: u(v, "under_time_ns")?,
        },
    })
}

fn robustness_from_json(v: &Json) -> Result<RobustnessStats, String> {
    Ok(RobustnessStats {
        retries: u(v, "retries")?,
        timeouts: u(v, "timeouts")?,
        failed_ops: u(v, "failed_ops")?,
        queued_ops: u(v, "queued_ops")?,
        buffered_writes: u(v, "buffered_writes")?,
        degraded_time: t(v, "degraded_time_ns")?,
        drain_events: u(v, "drain_events")?,
        drain_depth_max: u(v, "drain_depth_max")?,
        drain_time: t(v, "drain_time_ns")?,
        windows: v
            .get("windows")
            .and_then(Json::as_arr)
            .ok_or("missing/invalid robustness windows")?
            .iter()
            .map(|w| {
                let q = w.as_arr().filter(|a| a.len() == 4);
                let q = q.ok_or("robustness window must be [start, end, ops, ok]")?;
                let n = |i: usize| q[i].as_u64().ok_or("invalid robustness window entry");
                Ok(FaultWindowStat {
                    start: SimTime::from_nanos(n(0)?),
                    end: SimTime::from_nanos(n(1)?),
                    ops: n(2)?,
                    ok: n(3)?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?,
    })
}

fn metrics_from_json(v: &Json) -> Result<MetricsSnapshot, String> {
    Ok(MetricsSnapshot {
        read_ops: u(v, "read_ops")?,
        write_ops: u(v, "write_ops")?,
        read_blocks: u(v, "read_blocks")?,
        write_blocks: u(v, "write_blocks")?,
        read_latency: t(v, "read_latency_ns")?,
        write_latency: t(v, "write_latency_ns")?,
        tracked_writes: u(v, "tracked_writes")?,
        writes_invalidating: u(v, "writes_invalidating")?,
        invalidated_blocks: u(v, "invalidated_blocks")?,
        read_hist: hist_from_json(v.get("read_hist").ok_or("missing read_hist")?)?,
        write_hist: hist_from_json(v.get("write_hist").ok_or("missing write_hist")?)?,
    })
}

fn cache_from_json(v: &Json) -> Result<CacheStats, String> {
    Ok(CacheStats {
        hits: u(v, "hits")?,
        misses: u(v, "misses")?,
        insertions: u(v, "insertions")?,
        clean_evictions: u(v, "clean_evictions")?,
        dirty_evictions: u(v, "dirty_evictions")?,
        invalidations: u(v, "invalidations")?,
        overwrites: u(v, "overwrites")?,
    })
}

fn device_from_json(v: &Json) -> Result<DeviceStatsSnapshot, String> {
    Ok(DeviceStatsSnapshot {
        reads: u(v, "reads")?,
        writes: u(v, "writes")?,
        read_time: t(v, "read_time_ns")?,
        write_time: t(v, "write_time_ns")?,
        queue_waits: u(v, "queue_waits")?,
        depth_sum: u(v, "depth_sum")?,
        depth_samples: u(v, "depth_samples")?,
        depth_max: u(v, "depth_max")?,
        read_hist: hist_from_json(v.get("read_hist").ok_or("missing read_hist")?)?,
        write_hist: hist_from_json(v.get("write_hist").ok_or("missing write_hist")?)?,
    })
}

fn window_from_json(v: &Json) -> Result<WindowStat, String> {
    Ok(WindowStat {
        start_io: u(v, "start_io")?,
        read_avg_us: f(v, "read_avg_us")?,
        write_avg_us: f(v, "write_avg_us")?,
        reads: u(v, "reads")?,
        writes: u(v, "writes")?,
    })
}

fn hist_from_json(v: &Json) -> Result<HistogramSnapshot, String> {
    let pairs = v.as_arr().ok_or("histogram must be an array")?;
    let mut buckets = [0u64; BUCKETS];
    let mut total: u64 = 0;
    for p in pairs {
        let pair = p.as_arr().filter(|a| a.len() == 2);
        let pair = pair.ok_or("histogram entry must be [index, count]")?;
        let i = pair[0].as_u64().ok_or("invalid histogram bucket index")? as usize;
        if i >= BUCKETS {
            return Err(format!("histogram bucket index {i} out of range"));
        }
        let count = pair[1].as_u64().ok_or("invalid histogram bucket count")?;
        // The encoder emits each non-empty bucket once: duplicates and
        // zero counts are foreign, and the derived total must not
        // overflow (a live histogram counts one sample at a time, so a
        // file claiming > u64::MAX samples is corrupt, not big).
        if count == 0 {
            return Err(format!("histogram bucket {i} has zero count"));
        }
        if buckets[i] != 0 {
            return Err(format!("duplicate histogram bucket index {i}"));
        }
        total = total
            .checked_add(count)
            .ok_or("histogram counts overflow u64")?;
        buckets[i] = count;
    }
    Ok(HistogramSnapshot::from_buckets(buckets))
}

fn u(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing/invalid u64 field {key:?}"))
}

fn t(v: &Json, key: &str) -> Result<SimTime, String> {
    u(v, key).map(SimTime::from_nanos)
}

fn f(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing/invalid f64 field {key:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_histogram_roundtrips() {
        let mut buckets = [0u64; BUCKETS];
        buckets[0] = 3;
        buckets[17] = 9;
        buckets[63] = 1;
        let h = HistogramSnapshot::from_buckets(buckets);
        let back = hist_from_json(&hist_to_json(&h)).expect("decode");
        assert_eq!(back, h);
        assert_eq!(back.count(), 13);
        // The empty histogram is `[]`.
        assert_eq!(
            hist_to_json(&HistogramSnapshot::default()).to_string(),
            "[]"
        );
    }

    #[test]
    fn hostile_histograms_fail_decode_instead_of_overflowing() {
        // Well-formed JSON claiming impossible sample counts must be a
        // decode error, not a wrapped/panicking sum.
        for (bad, why) in [
            (format!("[[0,{}],[1,{}]]", u64::MAX, u64::MAX), "overflow"),
            ("[[0,1],[0,2]]".to_string(), "duplicate"),
            ("[[3,0]]".to_string(), "zero count"),
            ("[[64,1]]".to_string(), "out of range"),
        ] {
            let v = Json::parse(&bad).unwrap();
            let err = hist_from_json(&v).unwrap_err();
            assert!(err.contains(why), "{bad}: {err}");
        }
    }

    #[test]
    fn default_report_roundtrips() {
        let r = SimReport::default();
        let back = report_from_json(&report_to_json(&r)).expect("decode");
        assert_eq!(back, r);
    }

    #[test]
    fn row_rejects_other_schemas() {
        let row = ResultRow {
            index: 0,
            label: "x".into(),
            config: SimConfig::baseline(),
            report: SimReport::default(),
        };
        let mut v = row_to_json(&row);
        let Json::Obj(pairs) = &mut v else { panic!() };
        pairs[0].1 = Json::U64(REPORT_SCHEMA + 1);
        let err = row_from_json(&v).unwrap_err();
        assert!(err.contains("schema"), "{err}");
    }

    #[test]
    fn memory_sink_restores_job_order() {
        let mk = |index: usize| ResultRow {
            index,
            label: format!("job{index}"),
            config: SimConfig::baseline(),
            report: SimReport::default(),
        };
        let mut sink = MemorySink::new();
        for i in [2usize, 0, 1] {
            sink.on_row(mk(i)).unwrap();
        }
        assert_eq!(sink.rows().len(), 3);
        let ordered: Vec<usize> = sink.into_rows().iter().map(|r| r.index).collect();
        assert_eq!(ordered, [0, 1, 2]);
    }

    #[test]
    fn scan_tolerates_torn_tail_and_missing_file() {
        let dir = std::env::temp_dir();
        let path = dir.join("fcache_results_scan_unit.jsonl");
        let _ = std::fs::remove_file(&path);
        assert_eq!(scan_jsonl(&path).unwrap(), (0, Vec::new()));
        let labels_of =
            |rows: &[DecodedRow]| -> Vec<String> { rows.iter().map(|r| r.label.clone()).collect() };

        let row = |label: &str| {
            row_to_json(&ResultRow {
                index: 0,
                label: label.into(),
                config: SimConfig::baseline(),
                report: SimReport::default(),
            })
            .to_string()
        };
        let a = row("a");
        let b = row("b");
        let torn = &b[..b.len() / 2];
        std::fs::write(&path, format!("{a}\n{b}\n{torn}")).unwrap();
        let (valid, scanned) = scan_jsonl(&path).unwrap();
        assert_eq!(valid as usize, a.len() + b.len() + 2);
        assert_eq!(labels_of(&scanned), ["a", "b"]);

        // Resuming truncates the torn tail and appends after row b.
        let (mut sink, seen) = JsonlSink::resume(&path).unwrap();
        assert_eq!(labels_of(&seen), ["a", "b"]);
        sink.on_row(ResultRow {
            index: 2,
            label: "c".into(),
            config: SimConfig::baseline(),
            report: SimReport::default(),
        })
        .unwrap();
        drop(sink);
        let rows = read_rows(&path).unwrap();
        let labels: Vec<&str> = rows.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(labels, ["a", "b", "c"]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn read_rows_is_strict() {
        let dir = std::env::temp_dir();
        let path = dir.join("fcache_results_strict_unit.jsonl");
        std::fs::write(&path, "{\"schema\":1,\"nope\"\n").unwrap();
        let err = read_rows(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains(":1:"), "{err}");
        let _ = std::fs::remove_file(&path);
    }
}
