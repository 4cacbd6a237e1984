//! Sim-time telemetry: op-lifecycle spans, phase attribution, unified
//! time-series windows, the span stream, and the Chrome trace exporter.
//!
//! The paper's governing metric is per-block application latency (§7); this
//! module explains *where* those nanoseconds went. Each op thread's
//! measured op has an [`OpSpan`] that attributes each awaited interval of
//! the op to exactly one [`Phase`]. Attribution is exact **by
//! construction**: the span keeps one open interval (`cur_phase` since
//! `cur_since`); [`OpSpan::enter`] closes it into the current phase's
//! bucket and opens the next, and collection closes the last — so the
//! per-phase durations always sum to `end - start`, the op's reported
//! latency, no matter how sparsely the engine marks phase changes
//! (un-annotated awaits simply accrue to the phase that was last entered).
//!
//! No span is passed around: `HostCtx::enter(phase)` finds the span by
//! the polled task's tag ([`fcache_des::Sim::current_tag`]), which only an
//! op thread's carries; a flush worker, hedge arm or replica leg has no
//! span, so an op span measures only the op's own timeline.
//!
//! Telemetry is strictly opt-in and is pure bookkeeping: it never sleeps,
//! spawns, or draws randomness, so an instrumented run schedules the exact
//! same event sequence as an uninstrumented one (PERF.md invariant 12).
//! With telemetry disabled every hook is one branch on a `None`.
//!
//! Three sinks consume spans:
//!
//! - [`TelemetryStats`] — in-memory per-phase totals/histograms plus the
//!   unified per-window time series ([`TelemetryWindow`]), merged across
//!   hosts and embedded in every `SimReport`.
//! - the **span stream** ([`SpanStream`]) — an optional JSONL file
//!   (`--trace-out FILE`), one [`SpanRow`] per completed op in completion
//!   order (deterministic under the DES), flushed in chunks.
//! - [`chrome_trace`] — converts span rows to Chrome trace-event JSON for
//!   Perfetto / `chrome://tracing` timeline viewing.

use std::cell::{Cell, RefCell};
use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::path::Path;
use std::rc::Rc;

use fcache_des::{Sim, SimTime};
use fcache_types::{FxHashMap, Json, OpKind, Phase, TraceOp};

use crate::histogram::{HistogramSnapshot, LatencyHistogram};
use crate::host::{HostCtx, TaskClass};

/// Rows buffered in the span stream between explicit flushes.
const FLUSH_EVERY: u32 = 64;

// ---------------------------------------------------------------------------
// Op-lifecycle span
// ---------------------------------------------------------------------------

/// Phase attribution for an op thread's in-flight measured op, kept per
/// op thread by its host's [`TelemetryCtx`]; see the module docs for how
/// the engine finds it and for the exactness argument.
#[derive(Clone, Copy, Debug)]
pub struct OpSpan {
    start: SimTime,
    cur_phase: Phase,
    cur_since: u64,
    acc: [u64; Phase::COUNT],
    retries: u64,
    hit_blocks: u64,
    filer_blocks: u64,
}

impl OpSpan {
    /// Opens a span at `now`, starting in [`Phase::CacheProbe`] (every op
    /// begins with a cache lookup).
    pub fn new(now: SimTime) -> Self {
        OpSpan {
            start: now,
            cur_phase: Phase::CacheProbe,
            cur_since: now.as_nanos(),
            acc: [0; Phase::COUNT],
            retries: 0,
            hit_blocks: 0,
            filer_blocks: 0,
        }
    }

    /// Closes the open interval into the current phase's bucket and starts
    /// attributing to `phase` from `now` on.
    pub fn enter(&mut self, now: SimTime, phase: Phase) {
        let now = now.as_nanos();
        self.acc[self.cur_phase.index()] += now - self.cur_since;
        self.cur_phase = phase;
        self.cur_since = now;
    }

    /// Records one retry attempt (op timeout / transient device failure).
    pub(crate) fn note_retry(&mut self) {
        self.retries += 1;
    }

    /// Records the op's block fates for the window hit-rate series:
    /// `hit` blocks served from RAM/flash, `filer` blocks fetched from the
    /// backend.
    pub(crate) fn note_blocks(&mut self, hit: u64, filer: u64) {
        self.hit_blocks += hit;
        self.filer_blocks += filer;
    }

    /// Closes the last interval at `end` and returns the per-phase
    /// durations. They sum to `end - start` exactly.
    fn finish(mut self, end: SimTime) -> [u64; Phase::COUNT] {
        self.enter(end, self.cur_phase);
        self.acc
    }
}

// ---------------------------------------------------------------------------
// Unified time-series window
// ---------------------------------------------------------------------------

/// One fixed-duration window of the unified telemetry time series.
///
/// Generalizes the device layer's `device_windows`: per window the series
/// carries hit rate, dirty ratio, flash queue depth, retry counts,
/// degraded time, and (for sharded runs) per-shard availability. Raw sums
/// are stored so windows merge across hosts by field-wise addition; the
/// ratio helpers derive the usual metrics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TelemetryWindow {
    /// Window start (inclusive), sim ns.
    pub start_ns: u64,
    /// Window end (exclusive), sim ns.
    pub end_ns: u64,
    /// Ops completed in this window (completion-time binning).
    pub ops: u64,
    /// Blocks read by ops completed in this window.
    pub read_blocks: u64,
    /// Blocks written by ops completed in this window.
    pub write_blocks: u64,
    /// Read blocks served from RAM or flash.
    pub hit_blocks: u64,
    /// Read blocks fetched from the backend filer.
    pub filer_blocks: u64,
    /// Summed op latency, ns.
    pub latency_ns: u64,
    /// Retry attempts (op timeouts, transient device failures).
    pub retries: u64,
    /// Nanoseconds ops spent parked in degraded mode.
    pub degraded_ns: u64,
    /// Dirty-ratio sample numerator (dirty cached blocks at op completion).
    pub dirty_num: u64,
    /// Dirty-ratio sample denominator (cached blocks at op completion).
    pub dirty_den: u64,
    /// Flash queue depth summed over samples (one sample per completion).
    pub depth_sum: u64,
    /// Number of queue-depth samples.
    pub depth_samples: u64,
    /// Per-shard nanoseconds the shard was live within this window
    /// (empty for unsharded runs; filled once at collection, not summed
    /// per host).
    pub shard_live_ns: Vec<u64>,
}

impl TelemetryWindow {
    /// Empty window number `index` of length `window_ns`.
    fn at(index: u64, window_ns: u64) -> Self {
        TelemetryWindow {
            start_ns: index * window_ns,
            end_ns: (index + 1) * window_ns,
            ..TelemetryWindow::default()
        }
    }

    /// Read hit rate over the window (hits / (hits + filer fetches)).
    pub fn hit_rate(&self) -> f64 {
        let den = self.hit_blocks + self.filer_blocks;
        if den == 0 {
            0.0
        } else {
            self.hit_blocks as f64 / den as f64
        }
    }

    /// Mean dirty fraction of the cache over the window's samples.
    pub fn dirty_ratio(&self) -> f64 {
        if self.dirty_den == 0 {
            0.0
        } else {
            self.dirty_num as f64 / self.dirty_den as f64
        }
    }

    /// Mean sampled flash queue depth.
    pub fn mean_queue_depth(&self) -> f64 {
        if self.depth_samples == 0 {
            0.0
        } else {
            self.depth_sum as f64 / self.depth_samples as f64
        }
    }

    /// Mean op latency in microseconds.
    pub fn mean_latency_us(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.latency_ns as f64 / self.ops as f64 / 1000.0
        }
    }

    /// Per-shard availability (live fraction of the window).
    pub fn availability(&self) -> Vec<f64> {
        let span = (self.end_ns - self.start_ns).max(1) as f64;
        self.shard_live_ns
            .iter()
            .map(|&live| live as f64 / span)
            .collect()
    }

    /// Adds another host's accumulation of the same window (field-wise;
    /// bounds and shard availability are global, not summed).
    fn absorb(&mut self, o: &TelemetryWindow) {
        self.ops += o.ops;
        self.read_blocks += o.read_blocks;
        self.write_blocks += o.write_blocks;
        self.hit_blocks += o.hit_blocks;
        self.filer_blocks += o.filer_blocks;
        self.latency_ns += o.latency_ns;
        self.retries += o.retries;
        self.degraded_ns += o.degraded_ns;
        self.dirty_num += o.dirty_num;
        self.dirty_den += o.dirty_den;
        self.depth_sum += o.depth_sum;
        self.depth_samples += o.depth_samples;
    }
}

// ---------------------------------------------------------------------------
// Report-level summary
// ---------------------------------------------------------------------------

/// Telemetry section of a `SimReport`: per-phase latency breakdown and the
/// unified window series, merged across hosts.
///
/// Default (all-zero) when telemetry was disabled; the results codec only
/// serializes an engaged section, mirroring the `shard` field's optional
/// encoding under `REPORT_SCHEMA` 1.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TelemetryStats {
    /// Completed op spans recorded.
    pub spans: u64,
    /// Total nanoseconds attributed to each phase (indexed by
    /// [`Phase::index`]).
    pub phase_ns: [u64; Phase::COUNT],
    /// Ops that spent any time in each phase.
    pub phase_ops: [u64; Phase::COUNT],
    /// Per-phase duration histograms (per-op time in that phase).
    pub phase_hists: [HistogramSnapshot; Phase::COUNT],
    /// Window length in sim ns (0 when the window series was disabled).
    pub window_ns: u64,
    /// The unified time series, one entry per window in time order.
    pub windows: Vec<TelemetryWindow>,
}

impl TelemetryStats {
    /// True when telemetry ran (anything differs from the default).
    pub fn engaged(&self) -> bool {
        *self != TelemetryStats::default()
    }

    /// Total attributed nanoseconds across all phases. Equals the summed
    /// latency of all spanned ops.
    pub fn total_ns(&self) -> u64 {
        self.phase_ns.iter().sum()
    }

    /// Fraction of all attributed time spent in `phase`.
    pub fn share(&self, phase: Phase) -> f64 {
        let total = self.total_ns();
        if total == 0 {
            0.0
        } else {
            self.phase_ns[phase.index()] as f64 / total as f64
        }
    }
}

// ---------------------------------------------------------------------------
// Per-host collection context
// ---------------------------------------------------------------------------

/// Per-host telemetry collector, hung off `HostCtx` when enabled.
///
/// Pure bookkeeping: every method runs synchronously at op completion and
/// never touches the executor.
pub struct TelemetryCtx {
    /// Scaled window length, or `None` when the window series is off.
    window_ns: Option<u64>,
    spans: Cell<u64>,
    phase_ns: [Cell<u64>; Phase::COUNT],
    phase_ops: [Cell<u64>; Phase::COUNT],
    phase_hists: [LatencyHistogram; Phase::COUNT],
    windows: RefCell<Vec<TelemetryWindow>>,
    /// Span stream shared by all hosts of the run (completion-order rows).
    stream: Option<Rc<SpanStream>>,
    /// One span per op thread of the host, by thread index.
    op_spans: Vec<Cell<OpSpan>>,
}

impl TelemetryCtx {
    /// New collector for `threads` op threads; `window_ns` is scaled.
    pub(crate) fn new(
        window_ns: Option<u64>,
        stream: Option<Rc<SpanStream>>,
        threads: u16,
    ) -> Self {
        TelemetryCtx {
            op_spans: vec![Cell::new(OpSpan::new(SimTime::ZERO)); usize::from(threads)],
            window_ns,
            spans: Cell::new(0),
            phase_ns: Default::default(),
            phase_ops: Default::default(),
            phase_hists: std::array::from_fn(|_| LatencyHistogram::new()),
            windows: RefCell::new(Vec::new()),
            stream,
        }
    }

    /// The shared span stream, if one is attached.
    pub(crate) fn stream(&self) -> Option<&Rc<SpanStream>> {
        self.stream.as_ref()
    }

    /// The polled op thread's span; `None` in any other task.
    fn span(&self, sim: &Sim) -> Option<&Cell<OpSpan>> {
        TaskClass::op_thread(sim.current_tag()).map(|thread| &self.op_spans[thread])
    }

    /// Applies `f` to the polled op thread's span, if an op thread is polled.
    pub(crate) fn update_span(&self, sim: &Sim, f: impl FnOnce(&mut OpSpan)) {
        if let Some(span) = self.span(sim) {
            let mut sp = span.get();
            f(&mut sp);
            span.set(sp);
        }
    }

    /// Folds the polled op thread's completed span into the summary, the
    /// window series, and the span stream, once per measured op.
    pub(crate) fn complete_op(&self, h: &HostCtx, op: &TraceOp) {
        let end = h.sim.now();
        let sp = self.span(&h.sim).expect("ops run on op threads").get();
        let phases = sp.finish(end);
        self.spans.set(self.spans.get() + 1);
        for (i, &ns) in phases.iter().enumerate() {
            if ns > 0 {
                self.phase_ns[i].set(self.phase_ns[i].get() + ns);
                self.phase_ops[i].set(self.phase_ops[i].get() + 1);
                self.phase_hists[i].record(SimTime::from_nanos(ns));
            }
        }
        if let Some(wns) = self.window_ns {
            let idx = (end.as_nanos() / wns) as usize;
            let mut ws = self.windows.borrow_mut();
            while ws.len() <= idx {
                let i = ws.len() as u64;
                ws.push(TelemetryWindow::at(i, wns));
            }
            let w = &mut ws[idx];
            let blocks = u64::from(op.nblocks());
            w.ops += 1;
            if op.kind().is_write() {
                w.write_blocks += blocks;
            } else {
                w.read_blocks += blocks;
            }
            w.hit_blocks += sp.hit_blocks;
            w.filer_blocks += sp.filer_blocks;
            w.latency_ns += end.as_nanos() - sp.start.as_nanos();
            w.retries += sp.retries;
            w.degraded_ns += phases[Phase::DegradedPark.index()];
            let (dirty, total) = h.cache_occupancy();
            w.dirty_num += dirty;
            w.dirty_den += total;
            w.depth_sum += h.dev.queue_depth();
            w.depth_samples += 1;
        }
        if let Some(stream) = &self.stream {
            stream.write_row(&SpanRow {
                op: stream.next_seq(),
                host: u64::from(h.id.0),
                kind: op.kind(),
                start_ns: sp.start.as_nanos(),
                end_ns: end.as_nanos(),
                blocks: u64::from(op.nblocks()),
                phases,
            });
        }
    }

    /// Merges this host's accumulation into a run-level summary.
    pub(crate) fn fold_into(&self, out: &mut TelemetryStats) {
        out.spans += self.spans.get();
        for i in 0..Phase::COUNT {
            out.phase_ns[i] += self.phase_ns[i].get();
            out.phase_ops[i] += self.phase_ops[i].get();
            out.phase_hists[i] = out.phase_hists[i].merged(&self.phase_hists[i].snapshot());
        }
        if let Some(wns) = self.window_ns {
            out.window_ns = wns;
            let ws = self.windows.borrow();
            for (i, w) in ws.iter().enumerate() {
                if out.windows.len() <= i {
                    out.windows.push(TelemetryWindow::at(i as u64, wns));
                }
                out.windows[i].absorb(w);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Span stream (JSONL sink)
// ---------------------------------------------------------------------------

/// Append-only JSONL span sink shared by every host of a run.
///
/// Rows are written in op-completion order, which the deterministic
/// executor makes identical across serial / parallel-sweep / streamed
/// runs of the same seed. Buffered, flushed every `FLUSH_EVERY` rows
/// and once more at collection.
pub struct SpanStream {
    out: RefCell<BufWriter<File>>,
    seq: Cell<u64>,
    pending: Cell<u32>,
}

impl SpanStream {
    /// Creates (truncating) the span stream file.
    pub(crate) fn create(path: &Path) -> io::Result<SpanStream> {
        Ok(SpanStream {
            out: RefCell::new(BufWriter::new(File::create(path)?)),
            seq: Cell::new(0),
            pending: Cell::new(0),
        })
    }

    /// Next global completion-order sequence number.
    fn next_seq(&self) -> u64 {
        let s = self.seq.get();
        self.seq.set(s + 1);
        s
    }

    fn write_row(&self, row: &SpanRow) {
        let mut line = String::new();
        row.to_json().encode(&mut line);
        line.push('\n');
        let mut out = self.out.borrow_mut();
        out.write_all(line.as_bytes())
            .expect("span stream write failed");
        let p = self.pending.get() + 1;
        if p >= FLUSH_EVERY {
            out.flush().expect("span stream flush failed");
            self.pending.set(0);
        } else {
            self.pending.set(p);
        }
    }

    /// Final flush at collection time.
    pub(crate) fn finish(&self) {
        self.out
            .borrow_mut()
            .flush()
            .expect("span stream flush failed");
    }
}

// ---------------------------------------------------------------------------
// Span rows (wire format)
// ---------------------------------------------------------------------------

/// One completed op span as written to / read from the span stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRow {
    /// Global completion-order sequence number.
    pub op: u64,
    /// Issuing host.
    pub host: u64,
    /// Read or write.
    pub kind: OpKind,
    /// Op dispatch time, sim ns.
    pub start_ns: u64,
    /// Op completion time, sim ns.
    pub end_ns: u64,
    /// Blocks touched by the op.
    pub blocks: u64,
    /// Per-phase nanoseconds; sums to [`SpanRow::latency_ns`] exactly.
    pub phases: [u64; Phase::COUNT],
}

impl SpanRow {
    /// The op's reported latency.
    pub fn latency_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Sum of the per-phase attributions (== latency by construction).
    pub fn phase_sum(&self) -> u64 {
        self.phases.iter().sum()
    }

    /// `"read"` / `"write"`, as encoded in the stream.
    pub fn kind_label(&self) -> &'static str {
        match self.kind {
            OpKind::Read => "read",
            OpKind::Write => "write",
        }
    }

    /// JSONL encoding. Only nonzero phases are emitted, keyed by
    /// [`Phase::label`]; `lat` is redundant with `end - start` but keeps
    /// rows greppable.
    pub fn to_json(&self) -> Json {
        let mut ph = Json::obj();
        for p in Phase::ALL {
            let ns = self.phases[p.index()];
            if ns > 0 {
                ph = ph.field(p.label(), Json::U64(ns));
            }
        }
        Json::obj()
            .field("op", Json::U64(self.op))
            .field("host", Json::U64(self.host))
            .field("kind", Json::Str(self.kind_label().to_string()))
            .field("start", Json::U64(self.start_ns))
            .field("end", Json::U64(self.end_ns))
            .field("lat", Json::U64(self.latency_ns()))
            .field("blocks", Json::U64(self.blocks))
            .field("phases", ph)
    }

    /// Decodes one span row (the analyzer path).
    pub fn from_json(v: &Json) -> Result<SpanRow, String> {
        let u = |key: &str| {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("span row: missing or invalid `{key}`"))
        };
        let kind = match v.get("kind").and_then(Json::as_str) {
            Some("read") => OpKind::Read,
            Some("write") => OpKind::Write,
            other => return Err(format!("span row: bad `kind` {other:?}")),
        };
        let start_ns = u("start")?;
        let end_ns = u("end")?;
        if end_ns < start_ns {
            return Err("span row: end < start".to_string());
        }
        let mut phases = [0u64; Phase::COUNT];
        if let Some(ph) = v.get("phases") {
            for p in Phase::ALL {
                if let Some(ns) = ph.get(p.label()).and_then(Json::as_u64) {
                    phases[p.index()] = ns;
                }
            }
        }
        Ok(SpanRow {
            op: u("op")?,
            host: u("host")?,
            kind,
            start_ns,
            end_ns,
            blocks: u("blocks")?,
            phases,
        })
    }
}

/// Reads an entire span stream file. Strict: any malformed line is an
/// error naming the line number (trace files are written whole; there is
/// no torn tail to tolerate).
pub fn read_span_rows(path: &Path) -> Result<Vec<SpanRow>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut rows = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = Json::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
        rows.push(
            SpanRow::from_json(&v).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?,
        );
    }
    Ok(rows)
}

// ---------------------------------------------------------------------------
// Chrome trace-event export
// ---------------------------------------------------------------------------

/// Converts span rows to Chrome trace-event JSON (the "JSON array format"
/// with complete `"ph":"X"` events) loadable in Perfetto or
/// `chrome://tracing`.
///
/// Each host becomes a `pid`; overlapping ops on a host are spread over
/// `tid` lanes greedily (first free lane by start time). Every op emits
/// one `op` slice plus its nonzero phase slices laid end-to-end inside
/// it — the phases tile the op exactly, so the viewer shows the
/// attribution visually. Timestamps and durations are microseconds, per
/// the format.
pub fn chrome_trace(rows: &[SpanRow]) -> Json {
    let mut order: Vec<usize> = (0..rows.len()).collect();
    order.sort_by_key(|&i| (rows[i].host, rows[i].start_ns, rows[i].op));
    let us = |ns: u64| Json::F64(ns as f64 / 1000.0);
    let mut lanes: FxHashMap<u64, Vec<u64>> = FxHashMap::default();
    let mut events = Vec::new();
    for &i in &order {
        let r = &rows[i];
        let host_lanes = lanes.entry(r.host).or_default();
        let lane = match host_lanes.iter().position(|&busy| busy <= r.start_ns) {
            Some(l) => l,
            None => {
                host_lanes.push(0);
                host_lanes.len() - 1
            }
        };
        host_lanes[lane] = r.end_ns;
        events.push(
            Json::obj()
                .field("name", Json::Str(r.kind_label().to_string()))
                .field("cat", Json::Str("op".to_string()))
                .field("ph", Json::Str("X".to_string()))
                .field("ts", us(r.start_ns))
                .field("dur", us(r.latency_ns()))
                .field("pid", Json::U64(r.host))
                .field("tid", Json::U64(lane as u64))
                .field(
                    "args",
                    Json::obj()
                        .field("op", Json::U64(r.op))
                        .field("blocks", Json::U64(r.blocks)),
                ),
        );
        let mut off = r.start_ns;
        for p in Phase::ALL {
            let d = r.phases[p.index()];
            if d == 0 {
                continue;
            }
            events.push(
                Json::obj()
                    .field("name", Json::Str(p.label().to_string()))
                    .field("cat", Json::Str("phase".to_string()))
                    .field("ph", Json::Str("X".to_string()))
                    .field("ts", us(off))
                    .field("dur", us(d))
                    .field("pid", Json::U64(r.host))
                    .field("tid", Json::U64(lane as u64)),
            );
            off += d;
        }
    }
    Json::obj()
        .field("traceEvents", Json::Arr(events))
        .field("displayTimeUnit", Json::Str("ms".to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_phases_sum_to_latency_by_construction() {
        let mut sp = OpSpan::new(SimTime::from_nanos(100));
        sp.enter(SimTime::from_nanos(150), Phase::Net);
        sp.enter(SimTime::from_nanos(400), Phase::Filer);
        // A phase re-entered later accumulates, and un-annotated gaps
        // accrue to the last-entered phase.
        sp.enter(SimTime::from_nanos(900), Phase::Net);
        let phases = sp.finish(SimTime::from_nanos(1000));
        assert_eq!(phases[Phase::CacheProbe.index()], 50);
        assert_eq!(phases[Phase::Net.index()], 250 + 100);
        assert_eq!(phases[Phase::Filer.index()], 500);
        assert_eq!(phases.iter().sum::<u64>(), 900);
    }

    #[test]
    fn zero_duration_span_is_all_zero() {
        let sp = OpSpan::new(SimTime::from_nanos(5));
        let phases = sp.finish(SimTime::from_nanos(5));
        assert_eq!(phases.iter().sum::<u64>(), 0);
    }

    #[test]
    fn span_row_roundtrips_through_json() {
        let mut phases = [0u64; Phase::COUNT];
        phases[Phase::CacheProbe.index()] = 10;
        phases[Phase::Filer.index()] = 90;
        let row = SpanRow {
            op: 7,
            host: 2,
            kind: OpKind::Read,
            start_ns: 1_000,
            end_ns: 1_100,
            blocks: 4,
            phases,
        };
        let v = Json::parse(&row.to_json().to_string()).unwrap();
        assert_eq!(SpanRow::from_json(&v).unwrap(), row);
        assert_eq!(row.phase_sum(), row.latency_ns());
    }

    #[test]
    fn window_ratios() {
        let w = TelemetryWindow {
            start_ns: 0,
            end_ns: 1_000,
            hit_blocks: 3,
            filer_blocks: 1,
            dirty_num: 1,
            dirty_den: 4,
            depth_sum: 6,
            depth_samples: 3,
            shard_live_ns: vec![1_000, 500],
            ..TelemetryWindow::default()
        };
        assert_eq!(w.hit_rate(), 0.75);
        assert_eq!(w.dirty_ratio(), 0.25);
        assert_eq!(w.mean_queue_depth(), 2.0);
        assert_eq!(w.availability(), vec![1.0, 0.5]);
    }

    #[test]
    fn chrome_trace_tiles_phases_inside_ops() {
        let mut phases = [0u64; Phase::COUNT];
        phases[Phase::CacheProbe.index()] = 40;
        phases[Phase::DeviceService.index()] = 60;
        let rows = vec![SpanRow {
            op: 0,
            host: 1,
            kind: OpKind::Write,
            start_ns: 2_000,
            end_ns: 2_100,
            blocks: 1,
            phases,
        }];
        let j = chrome_trace(&rows);
        let events = j.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 3); // op slice + 2 phase slices
        let op = &events[0];
        assert_eq!(op.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(op.get("dur").and_then(Json::as_f64), Some(0.1));
        let total: f64 = events[1..]
            .iter()
            .map(|e| e.get("dur").and_then(Json::as_f64).unwrap())
            .sum();
        assert!((total - 0.1).abs() < 1e-9);
    }

    #[test]
    fn chrome_trace_lanes_split_overlapping_ops() {
        let row = |op, start, end| SpanRow {
            op,
            host: 0,
            kind: OpKind::Read,
            start_ns: start,
            end_ns: end,
            blocks: 1,
            phases: [0; Phase::COUNT],
        };
        // Two overlapping ops need two lanes; a third after both fits lane 0.
        let rows = vec![row(0, 0, 100), row(1, 50, 150), row(2, 200, 300)];
        let j = chrome_trace(&rows);
        let events = j.get("traceEvents").and_then(Json::as_arr).unwrap();
        let tids: Vec<u64> = events
            .iter()
            .filter(|e| e.get("cat").and_then(Json::as_str) == Some("op"))
            .map(|e| e.get("tid").and_then(Json::as_u64).unwrap())
            .collect();
        assert_eq!(tids, vec![0, 1, 0]);
    }
}
