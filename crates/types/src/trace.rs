//! Trace container, statistics, a compact binary codec, and the streaming
//! [`TraceSource`] abstraction.
//!
//! Traces can be held in memory (the common case — the generator feeds the
//! simulator directly) or serialized to a file with a small little-endian
//! binary format so generated workloads can be archived and replayed.
//! Consumers that do not need the whole trace resident pull ops through a
//! [`TraceSource`] in bounded chunks: [`TraceReader`] streams an archived
//! `FCTRACE1` file with O(chunk) memory, and [`SliceSource`] adapts an
//! in-memory [`Trace`] to the same interface. The random-access sources
//! ([`SliceSource`], [`ByteReader`]) also fork one cursor per
//! `(host, thread)` slot over a shared slot index, so each replay thread
//! visits only its own records.

use std::cell::OnceCell;
use std::io::{self, Read, Write};

use crate::{
    ids::{FileId, HostId, ThreadId},
    op::{OpKind, TraceOp},
};

/// Magic bytes identifying the trace file format.
const MAGIC: &[u8; 8] = b"FCTRACE1";

/// Size of one encoded op record in bytes.
const RECORD_BYTES: usize = 20;

/// Default chunk size (in ops) for streamed trace consumption: 4096 packed
/// ops = 64 KiB resident, independent of trace length.
pub const TRACE_CHUNK_OPS: usize = 4096;

/// Metadata describing how a trace was generated.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct TraceMeta {
    /// Number of hosts issuing I/O.
    pub hosts: u16,
    /// Threads per host.
    pub threads_per_host: u16,
    /// Working-set size in bytes (0 if not applicable).
    pub working_set_bytes: u64,
    /// Fraction of I/Os drawn from the working set, in percent.
    pub working_set_pct: u8,
    /// Write percentage of the workload.
    pub write_pct: u8,
    /// RNG seed the trace was generated from.
    pub seed: u64,
}

/// The error kind of an op outside the grid its [`TraceMeta`] promised
/// ([`TraceMeta::slot_of`]). The record itself decoded: one that does
/// not is `InvalidData`, a truncated one `UnexpectedEof`.
pub const OUTSIDE_GRID: io::ErrorKind = io::ErrorKind::InvalidInput;

impl TraceMeta {
    /// The `(hosts, threads per host)` grid replay provisions: the
    /// metadata's counts, with a zero widened to 1.
    pub fn grid(&self) -> (u16, u16) {
        (self.hosts.max(1), self.threads_per_host.max(1))
    }

    /// The op's `(host, thread)` slot number in [`TraceMeta::grid`],
    /// host-major; an [`OUTSIDE_GRID`] error when the op falls outside
    /// the grid.
    pub fn slot_of(&self, op: &TraceOp) -> io::Result<usize> {
        let (hosts, threads) = self.grid();
        if op.host().0 >= hosts || op.thread().0 >= threads {
            return Err(io::Error::new(
                OUTSIDE_GRID,
                format!(
                    "op for {} {} outside the {hosts}-host/{threads}-thread grid its meta promised",
                    op.host(),
                    op.thread(),
                ),
            ));
        }
        Ok(slot_number(op.host().0, op.thread().0, threads))
    }
}

/// Slot number of `(host, thread)` in a grid of `threads` threads per host.
fn slot_number(host: u16, thread: u16, threads: u16) -> usize {
    usize::from(host) * usize::from(threads) + usize::from(thread)
}

/// A pull-based stream of trace operations.
///
/// This is the zero-copy trace pipeline's feeding interface: the replay
/// engine provisions hosts/threads from [`TraceSource::meta`] and then
/// drains ops in bounded chunks, so replay memory is O(chunk) instead of
/// O(trace). Delivery order is the trace's issue order; within one
/// `(host, thread)` pair ops must arrive in program order (the simulator's
/// "one I/O in progress per thread" rule depends on it).
pub trait TraceSource {
    /// Generation metadata; `hosts` × `threads_per_host` bounds the ids the
    /// stream may emit.
    fn meta(&self) -> &TraceMeta;

    /// Appends up to `max` next ops to `out`, returning how many were
    /// appended. Returning `Ok(0)` signals end of stream; the source is
    /// never polled again after that.
    fn next_chunk(&mut self, out: &mut Vec<TraceOp>, max: usize) -> io::Result<usize>;

    /// Forks an independent cursor over just the ops of one
    /// `(host, thread)` slot, in program order — the zero-copy replay fast
    /// path. Random-access sources (an in-memory trace, a mapped archive)
    /// return one cursor per slot so every replay thread pulls its own ops
    /// directly, with no shared chunk queues in between. Sequential
    /// sources return `None` (the default) and are drained through
    /// [`TraceSource::next_chunk`] instead.
    ///
    /// [`SliceSource`] and [`ByteReader`] build one slot index on their
    /// first fork (one validating pass over every record, 4 bytes per
    /// record resident); every later fork shares it, and each cursor
    /// decodes only its own records.
    ///
    /// Contract: the union of all slots' cursors is exactly the stream
    /// `next_chunk` would deliver, and a cursor must yield the ops *it*
    /// owns that precede any invalid record (corrupt, truncated, or
    /// outside [`TraceMeta::grid`]), then fail — never an op past the
    /// corruption point.
    fn fork_slot(&self, host: u16, thread: u16) -> Option<Box<dyn SlotCursor + '_>> {
        let _ = (host, thread);
        None
    }
}

/// A pull cursor over one `(host, thread)` slot's ops, in program order.
/// See [`TraceSource::fork_slot`].
pub trait SlotCursor {
    /// Returns the slot's next op, `None` at end of stream, or the decode
    /// error for a corrupt record.
    fn next(&mut self) -> io::Result<Option<TraceOp>>;
}

impl<S: TraceSource + ?Sized> TraceSource for Box<S> {
    fn meta(&self) -> &TraceMeta {
        (**self).meta()
    }

    fn next_chunk(&mut self, out: &mut Vec<TraceOp>, max: usize) -> io::Result<usize> {
        (**self).next_chunk(out, max)
    }

    fn fork_slot(&self, host: u16, thread: u16) -> Option<Box<dyn SlotCursor + '_>> {
        (**self).fork_slot(host, thread)
    }
}

impl<S: TraceSource + ?Sized> TraceSource for &mut S {
    fn meta(&self) -> &TraceMeta {
        (**self).meta()
    }

    fn next_chunk(&mut self, out: &mut Vec<TraceOp>, max: usize) -> io::Result<usize> {
        (**self).next_chunk(out, max)
    }

    fn fork_slot(&self, host: u16, thread: u16) -> Option<Box<dyn SlotCursor + '_>> {
        (**self).fork_slot(host, thread)
    }
}

/// [`TraceSource`] over an in-memory [`Trace`].
///
/// Used to route materialized traces through the same streamed-replay code
/// path as generated or archived ones (and to prove the paths equivalent).
#[derive(Debug)]
pub struct SliceSource<'a> {
    ops: &'a [TraceOp],
    meta: TraceMeta,
    pos: usize,
    /// Built on the first [`TraceSource::fork_slot`].
    index: OnceCell<SlotIndex>,
}

impl<'a> SliceSource<'a> {
    /// Wraps a trace, starting at its first op.
    pub fn new(trace: &'a Trace) -> Self {
        Self::with_meta(trace.meta.clone(), &trace.ops)
    }

    /// Wraps `ops` under `meta`, whose grid then bounds the slot cursors
    /// (`run_trace` widens a trace's grid to its ops this way).
    pub fn with_meta(meta: TraceMeta, ops: &'a [TraceOp]) -> Self {
        Self {
            ops,
            meta,
            pos: 0,
            index: OnceCell::new(),
        }
    }
}

impl TraceSource for SliceSource<'_> {
    fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    fn next_chunk(&mut self, out: &mut Vec<TraceOp>, max: usize) -> io::Result<usize> {
        let end = (self.pos + max).min(self.ops.len());
        let n = end - self.pos;
        out.extend_from_slice(&self.ops[self.pos..end]);
        self.pos = end;
        Ok(n)
    }

    fn fork_slot(&self, host: u16, thread: u16) -> Option<Box<dyn SlotCursor + '_>> {
        let records = Records::Ops(self.ops);
        let index = self
            .index
            .get_or_init(|| SlotIndex::build(&self.meta, records));
        Some(Box::new(index.cursor(records, &self.meta, host, thread)))
    }
}

/// Zero-copy [`TraceSource`] over a complete in-memory `FCTRACE1` image —
/// typically a memory-mapped archive. The header is parsed up front;
/// records decode straight out of the byte slice with no intermediate read
/// buffer, and [`TraceSource::fork_slot`] hands every replay thread its
/// own cursor over the records of its slot.
///
/// # Examples
///
/// ```
/// use fcache_types::{ByteReader, Trace, TraceMeta, TraceSource};
///
/// let mut buf = Vec::new();
/// Trace::new(TraceMeta::default()).encode(&mut buf).unwrap();
/// let mut reader = ByteReader::new(&buf).unwrap();
/// let mut chunk = Vec::new();
/// assert_eq!(reader.next_chunk(&mut chunk, 1024).unwrap(), 0);
/// ```
#[derive(Debug)]
pub struct ByteReader<'a> {
    /// Record region of the archive (header already consumed).
    records: &'a [u8],
    meta: TraceMeta,
    /// Byte offset of the next `next_chunk` record within `records`.
    pos: usize,
    /// Ops not yet yielded through `next_chunk`.
    remaining: u64,
    /// Built on the first [`TraceSource::fork_slot`].
    index: OnceCell<SlotIndex>,
}

impl<'a> ByteReader<'a> {
    /// Validates the `FCTRACE1` header of a complete archive image.
    pub fn new(bytes: &'a [u8]) -> io::Result<Self> {
        // `&[u8]: Read` advances the slice, so after the header parse `r`
        // is exactly the record region.
        let mut r = bytes;
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "bad trace magic",
            ));
        }
        let meta = TraceMeta {
            hosts: read_u16(&mut r)?,
            threads_per_host: read_u16(&mut r)?,
            working_set_bytes: read_u64(&mut r)?,
            working_set_pct: read_u8(&mut r)?,
            write_pct: read_u8(&mut r)?,
            seed: read_u64(&mut r)?,
        };
        let remaining = read_u64(&mut r)?;
        Ok(Self {
            records: r,
            meta,
            pos: 0,
            remaining,
            index: OnceCell::new(),
        })
    }

    /// Ops not yet yielded through `next_chunk`.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }
}

/// Borrows the record at byte offset `pos`, or fails like a truncated
/// read would.
fn record_at(records: &[u8], pos: usize) -> io::Result<&[u8; RECORD_BYTES]> {
    records
        .get(pos..pos + RECORD_BYTES)
        .map(|rec| rec.try_into().expect("slice is RECORD_BYTES long"))
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "trace record region truncated",
            )
        })
}

impl TraceSource for ByteReader<'_> {
    fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    fn next_chunk(&mut self, out: &mut Vec<TraceOp>, max: usize) -> io::Result<usize> {
        let n = (self.remaining.min(max as u64)) as usize;
        out.reserve(n);
        for _ in 0..n {
            out.push(decode_record(record_at(self.records, self.pos)?)?);
            self.pos += RECORD_BYTES;
        }
        self.remaining -= n as u64;
        Ok(n)
    }

    fn fork_slot(&self, host: u16, thread: u16) -> Option<Box<dyn SlotCursor + '_>> {
        // Count from the header, not `remaining`: cursors always cover the
        // whole stream regardless of `next_chunk` progress.
        let records = Records::Encoded {
            bytes: self.records,
            count: self.remaining + (self.pos / RECORD_BYTES) as u64,
        };
        let index = self
            .index
            .get_or_init(|| SlotIndex::build(&self.meta, records));
        Some(Box::new(index.cursor(records, &self.meta, host, thread)))
    }
}

/// The records a [`SlotIndex`] numbers: a decoded op slice, or the record
/// region of an `FCTRACE1` image and the count its header claims.
#[derive(Clone, Copy)]
enum Records<'a> {
    Ops(&'a [TraceOp]),
    Encoded { bytes: &'a [u8], count: u64 },
}

impl Records<'_> {
    fn count(self) -> u64 {
        match self {
            Records::Ops(ops) => ops.len() as u64,
            Records::Encoded { count, .. } => count,
        }
    }

    /// Record `i`, decoded and validated.
    fn op(self, i: usize) -> io::Result<TraceOp> {
        match self {
            Records::Ops(ops) => Ok(ops[i]),
            Records::Encoded { bytes, .. } => decode_record(record_at(bytes, i * RECORD_BYTES)?),
        }
    }

    /// The host and thread of record `i`, which the index pass has
    /// already validated, read without decoding the rest of it.
    fn ids(self, i: usize) -> (u16, u16) {
        match self {
            Records::Ops(ops) => (ops[i].host().0, ops[i].thread().0),
            Records::Encoded { bytes, .. } => record_ids(&bytes[i * RECORD_BYTES..]),
        }
    }
}

/// Record numbers grouped by `(host, thread)` slot: a counting sort of
/// the source's records, built once per source on its first
/// [`TraceSource::fork_slot`] and shared by every slot's cursor. Resident
/// cost is 4 bytes per record plus 4 per slot.
#[derive(Debug)]
struct SlotIndex {
    /// Slot `s` owns `order[starts[s]..starts[s + 1]]`.
    starts: Vec<u32>,
    /// Record numbers, slot by slot, each slot's in stream order.
    order: Vec<u32>,
    /// Why indexing stopped early: the first corrupt or out-of-grid
    /// record, or a record count past what `u32` can number. Every cursor
    /// returns it after its own records.
    error: Option<io::Error>,
}

impl SlotIndex {
    /// One validating pass counts each slot's records up to the first bad
    /// one; a second pass over those records fills the sized order array.
    fn build(meta: &TraceMeta, records: Records<'_>) -> Self {
        let (hosts, threads) = meta.grid();
        let mut starts = vec![0u32; usize::from(hosts) * usize::from(threads) + 1];
        let mut error = None;
        let count = records.count();
        let indexed = if count > u64::from(u32::MAX) {
            error = Some(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "trace of {count} records exceeds the {}-record slot index",
                    u32::MAX
                ),
            ));
            0
        } else {
            let count = count as usize;
            (0..count)
                .position(|i| match records.op(i).and_then(|op| meta.slot_of(&op)) {
                    Ok(slot) => {
                        starts[slot + 1] += 1;
                        false
                    }
                    Err(e) => {
                        error = Some(e);
                        true
                    }
                })
                .unwrap_or(count)
        };
        for s in 1..starts.len() {
            starts[s] += starts[s - 1];
        }
        let mut next = starts.clone();
        let mut order = vec![0u32; indexed];
        for i in 0..indexed {
            let (host, thread) = records.ids(i);
            let slot = &mut next[slot_number(host, thread, threads)];
            order[*slot as usize] = i as u32;
            *slot += 1;
        }
        Self {
            starts,
            order,
            error,
        }
    }

    /// A cursor over the records of one slot (none for a slot outside
    /// the grid), ending with the index's error if it has one.
    fn cursor<'a>(
        &'a self,
        records: Records<'a>,
        meta: &TraceMeta,
        host: u16,
        thread: u16,
    ) -> IndexedCursor<'a> {
        let (hosts, threads) = meta.grid();
        let span = if host < hosts && thread < threads {
            let slot = slot_number(host, thread, threads);
            &self.order[self.starts[slot] as usize..self.starts[slot + 1] as usize]
        } else {
            &[]
        };
        IndexedCursor {
            records,
            span: span.iter(),
            error: self.error.as_ref(),
        }
    }
}

/// [`SlotCursor`] over one slot's span of a [`SlotIndex`]: it decodes only
/// its own records, then returns the index's error, if any — so it yields
/// exactly the slot's ops that precede the first bad record.
struct IndexedCursor<'a> {
    records: Records<'a>,
    span: std::slice::Iter<'a, u32>,
    error: Option<&'a io::Error>,
}

impl SlotCursor for IndexedCursor<'_> {
    fn next(&mut self) -> io::Result<Option<TraceOp>> {
        match self.span.next() {
            Some(&i) => self.records.op(i as usize).map(Some),
            None => match self.error {
                Some(e) => Err(io::Error::new(e.kind(), e.to_string())),
                None => Ok(None),
            },
        }
    }
}

/// An in-memory block-level trace.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Generation metadata.
    pub meta: TraceMeta,
    /// Operations in issue order.
    pub ops: Vec<TraceOp>,
}

impl Trace {
    /// Creates an empty trace with the given metadata.
    pub fn new(meta: TraceMeta) -> Self {
        Self {
            meta,
            ops: Vec::new(),
        }
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if the trace has no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Computes summary statistics over the trace.
    pub fn stats(&self) -> TraceStats {
        let mut s = TraceStats::default();
        for op in &self.ops {
            s.accumulate(op);
        }
        s
    }

    /// Serializes the trace to a writer in the `FCTRACE1` binary format.
    ///
    /// Layout: magic, meta fields, op count, then one 20-byte record per op.
    /// The record format is unchanged from the seed (the packed in-memory
    /// layout is a RAM optimization, not a wire change), so archives written
    /// by older builds round-trip.
    pub fn encode<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(MAGIC)?;
        w.write_all(&self.meta.hosts.to_le_bytes())?;
        w.write_all(&self.meta.threads_per_host.to_le_bytes())?;
        w.write_all(&self.meta.working_set_bytes.to_le_bytes())?;
        w.write_all(&[self.meta.working_set_pct, self.meta.write_pct])?;
        w.write_all(&self.meta.seed.to_le_bytes())?;
        w.write_all(&(self.ops.len() as u64).to_le_bytes())?;
        for op in &self.ops {
            encode_record(op, w)?;
        }
        Ok(())
    }

    /// Deserializes a trace written by [`Trace::encode`].
    ///
    /// Returns `InvalidData` on a bad magic number or truncated input. This
    /// materializes every op; use [`TraceReader`] to stream with O(chunk)
    /// memory instead.
    pub fn decode<R: Read>(r: &mut R) -> io::Result<Self> {
        let mut reader = TraceReader::new(r)?;
        let mut ops = Vec::with_capacity((reader.remaining() as usize).min(1 << 24));
        while reader.next_chunk(&mut ops, TRACE_CHUNK_OPS)? > 0 {}
        Ok(Self {
            meta: reader.into_meta(),
            ops,
        })
    }
}

/// Writes one op as a 20-byte `FCTRACE1` record.
fn encode_record<W: Write>(op: &TraceOp, w: &mut W) -> io::Result<()> {
    let mut rec = [0u8; RECORD_BYTES];
    rec[0..2].copy_from_slice(&op.host().0.to_le_bytes());
    rec[2..4].copy_from_slice(&op.thread().0.to_le_bytes());
    rec[4] = u8::from(op.is_write()) | (u8::from(op.warmup()) << 1);
    rec[8..12].copy_from_slice(&op.file().0.to_le_bytes());
    rec[12..16].copy_from_slice(&op.start_block().to_le_bytes());
    rec[16..20].copy_from_slice(&op.nblocks().to_le_bytes());
    w.write_all(&rec)
}

#[cfg(test)]
thread_local! {
    /// `decode_record` calls on this thread, for the decode-count tests.
    static DECODED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Parses one 20-byte `FCTRACE1` record into a packed op.
fn decode_record(rec: &[u8; RECORD_BYTES]) -> io::Result<TraceOp> {
    #[cfg(test)]
    DECODED.with(|d| d.set(d.get() + 1));
    let (host, thread) = record_ids(rec);
    let kind = if rec[4] & 1 != 0 {
        OpKind::Write
    } else {
        OpKind::Read
    };
    let warmup = rec[4] & 2 != 0;
    let file = FileId(u32::from_le_bytes([rec[8], rec[9], rec[10], rec[11]]));
    let start_block = u32::from_le_bytes([rec[12], rec[13], rec[14], rec[15]]);
    let nblocks = u32::from_le_bytes([rec[16], rec[17], rec[18], rec[19]]);
    if nblocks == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "zero-length trace op",
        ));
    }
    if nblocks > TraceOp::MAX_NBLOCKS {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "trace op block count exceeds packed range",
        ));
    }
    Ok(TraceOp::new(
        HostId(host),
        ThreadId(thread),
        kind,
        file,
        start_block,
        nblocks,
        warmup,
    ))
}

/// The host and thread ids at the head of an `FCTRACE1` record.
fn record_ids(rec: &[u8]) -> (u16, u16) {
    (
        u16::from_le_bytes([rec[0], rec[1]]),
        u16::from_le_bytes([rec[2], rec[3]]),
    )
}

/// Streaming `FCTRACE1` decoder: reads the header eagerly, then yields ops
/// in bounded chunks so an arbitrarily large archive replays with O(chunk)
/// resident memory.
///
/// # Examples
///
/// ```
/// use fcache_types::{Trace, TraceMeta, TraceReader, TraceSource};
///
/// let mut buf = Vec::new();
/// Trace::new(TraceMeta::default()).encode(&mut buf).unwrap();
/// let mut reader = TraceReader::new(buf.as_slice()).unwrap();
/// let mut chunk = Vec::new();
/// assert_eq!(reader.next_chunk(&mut chunk, 1024).unwrap(), 0);
/// ```
#[derive(Debug)]
pub struct TraceReader<R> {
    r: R,
    meta: TraceMeta,
    remaining: u64,
}

impl<R: Read> TraceReader<R> {
    /// Reads and validates the `FCTRACE1` header, leaving the reader
    /// positioned at the first op record.
    pub fn new(mut r: R) -> io::Result<Self> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "bad trace magic",
            ));
        }
        let meta = TraceMeta {
            hosts: read_u16(&mut r)?,
            threads_per_host: read_u16(&mut r)?,
            working_set_bytes: read_u64(&mut r)?,
            working_set_pct: read_u8(&mut r)?,
            write_pct: read_u8(&mut r)?,
            seed: read_u64(&mut r)?,
        };
        let remaining = read_u64(&mut r)?;
        Ok(Self { r, meta, remaining })
    }

    /// Ops not yet yielded.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Consumes the reader, returning the header metadata.
    pub fn into_meta(self) -> TraceMeta {
        self.meta
    }
}

impl<R: Read> TraceSource for TraceReader<R> {
    fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    fn next_chunk(&mut self, out: &mut Vec<TraceOp>, max: usize) -> io::Result<usize> {
        let n = (self.remaining.min(max as u64)) as usize;
        out.reserve(n);
        let mut rec = [0u8; RECORD_BYTES];
        for _ in 0..n {
            self.r.read_exact(&mut rec)?;
            out.push(decode_record(&rec)?);
        }
        self.remaining -= n as u64;
        Ok(n)
    }
}

/// Streams a `FCTRACE1` archive computing its [`TraceStats`] with O(chunk)
/// memory; returns the header meta, the stats, and the peak resident
/// op-buffer size in bytes.
pub fn stream_stats<R: Read>(r: R) -> io::Result<(TraceMeta, TraceStats, usize)> {
    let mut reader = TraceReader::new(r)?;
    let mut stats = TraceStats::default();
    let mut chunk: Vec<TraceOp> = Vec::with_capacity(TRACE_CHUNK_OPS);
    loop {
        chunk.clear();
        if reader.next_chunk(&mut chunk, TRACE_CHUNK_OPS)? == 0 {
            break;
        }
        for op in &chunk {
            stats.accumulate(op);
        }
    }
    let peak = chunk.capacity() * std::mem::size_of::<TraceOp>();
    Ok((reader.into_meta(), stats, peak))
}

fn read_u8<R: Read>(r: &mut R) -> io::Result<u8> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

fn read_u16<R: Read>(r: &mut R) -> io::Result<u16> {
    let mut b = [0u8; 2];
    r.read_exact(&mut b)?;
    Ok(u16::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Summary statistics over a trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Total operations.
    pub ops: u64,
    /// Total blocks touched (sum of op lengths).
    pub blocks: u64,
    /// Total bytes moved.
    pub bytes: u64,
    /// Write operations.
    pub write_ops: u64,
    /// Blocks written.
    pub write_blocks: u64,
    /// Operations flagged as warmup.
    pub warmup_ops: u64,
    /// Bytes in warmup operations.
    pub warmup_bytes: u64,
    /// Highest host id seen.
    pub max_host: u16,
    /// Highest thread id seen.
    pub max_thread: u16,
}

impl TraceStats {
    /// Folds one op into the summary (streaming-friendly building block of
    /// [`Trace::stats`] and [`stream_stats`]).
    pub fn accumulate(&mut self, op: &TraceOp) {
        self.ops += 1;
        self.blocks += op.nblocks() as u64;
        self.bytes += op.bytes();
        if op.is_write() {
            self.write_ops += 1;
            self.write_blocks += op.nblocks() as u64;
        }
        if op.warmup() {
            self.warmup_ops += 1;
            self.warmup_bytes += op.bytes();
        }
        self.max_host = self.max_host.max(op.host().0);
        self.max_thread = self.max_thread.max(op.thread().0);
    }

    /// Observed write fraction in operations (0.0–1.0).
    pub fn write_fraction(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.write_ops as f64 / self.ops as f64
        }
    }

    /// Observed warmup fraction by bytes (0.0–1.0).
    pub fn warmup_fraction(&self) -> f64 {
        if self.bytes == 0 {
            0.0
        } else {
            self.warmup_bytes as f64 / self.bytes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        let meta = TraceMeta {
            hosts: 2,
            threads_per_host: 8,
            working_set_bytes: 60 << 30,
            working_set_pct: 80,
            write_pct: 30,
            seed: 42,
        };
        let mut t = Trace::new(meta);
        for i in 0..100u32 {
            t.ops.push(TraceOp::new(
                HostId((i % 2) as u16),
                ThreadId((i % 8) as u16),
                if i % 3 == 0 {
                    OpKind::Write
                } else {
                    OpKind::Read
                },
                FileId(i / 10),
                i * 7,
                1 + i % 5,
                i < 50,
            ));
        }
        t
    }

    #[test]
    fn codec_roundtrip() {
        let t = sample_trace();
        let mut buf = Vec::new();
        t.encode(&mut buf).unwrap();
        let t2 = Trace::decode(&mut buf.as_slice()).unwrap();
        assert_eq!(t2.meta, t.meta);
        assert_eq!(t2.ops, t.ops);
    }

    #[test]
    fn decode_rejects_bad_magic() {
        let mut buf = Vec::new();
        sample_trace().encode(&mut buf).unwrap();
        buf[0] = b'X';
        assert!(Trace::decode(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn decode_rejects_truncation() {
        let mut buf = Vec::new();
        sample_trace().encode(&mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(Trace::decode(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn decode_accepts_seed_format_records() {
        // A record laid out byte-for-byte as the seed encoder wrote it
        // (host u16, thread u16, flags u8, 3 pad bytes, file u32,
        // start u32, nblocks u32) must decode into the packed op.
        let mut buf = Vec::new();
        Trace::new(TraceMeta {
            hosts: 1,
            threads_per_host: 1,
            ..TraceMeta::default()
        })
        .encode(&mut buf)
        .unwrap();
        // Patch the op count to 1 and append a hand-built record.
        let count_at = buf.len() - 8;
        buf[count_at..].copy_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&7u16.to_le_bytes()); // host
        buf.extend_from_slice(&300u16.to_le_bytes()); // thread (> u8 range)
        buf.extend_from_slice(&[0b11, 0, 0, 0]); // write + warmup, padding
        buf.extend_from_slice(&9u32.to_le_bytes()); // file
        buf.extend_from_slice(&123u32.to_le_bytes()); // start
        buf.extend_from_slice(&4u32.to_le_bytes()); // nblocks
        let t = Trace::decode(&mut buf.as_slice()).unwrap();
        assert_eq!(t.ops.len(), 1);
        let op = &t.ops[0];
        assert_eq!(op.host(), HostId(7));
        assert_eq!(op.thread(), ThreadId(300));
        assert_eq!(op.kind(), OpKind::Write);
        assert!(op.warmup());
        assert_eq!(op.file(), FileId(9));
        assert_eq!(op.start_block(), 123);
        assert_eq!(op.nblocks(), 4);
    }

    #[test]
    fn streamed_reader_matches_bulk_decode() {
        let t = sample_trace();
        let mut buf = Vec::new();
        t.encode(&mut buf).unwrap();

        let mut reader = TraceReader::new(buf.as_slice()).unwrap();
        assert_eq!(reader.meta(), &t.meta);
        assert_eq!(reader.remaining(), t.len() as u64);
        let mut streamed = Vec::new();
        let mut chunk = Vec::new();
        loop {
            chunk.clear();
            // A deliberately tiny chunk exercises many refills.
            if reader.next_chunk(&mut chunk, 7).unwrap() == 0 {
                break;
            }
            streamed.extend_from_slice(&chunk);
        }
        assert_eq!(streamed, t.ops);
    }

    #[test]
    fn stream_stats_matches_materialized_stats() {
        let t = sample_trace();
        let mut buf = Vec::new();
        t.encode(&mut buf).unwrap();
        let (meta, stats, peak) = stream_stats(buf.as_slice()).unwrap();
        assert_eq!(meta, t.meta);
        assert_eq!(stats, t.stats());
        assert!(peak <= TRACE_CHUNK_OPS * std::mem::size_of::<TraceOp>());
    }

    #[test]
    fn slice_source_yields_trace_in_order() {
        let t = sample_trace();
        let mut src = SliceSource::new(&t);
        assert_eq!(src.meta(), &t.meta);
        let mut got = Vec::new();
        while src.next_chunk(&mut got, 13).unwrap() > 0 {}
        assert_eq!(got, t.ops);
    }

    // Byte offset of record `i` in an encoded archive: 8-byte magic,
    // 2+2+8+1+1+8 meta, 8-byte count.
    const HEADER_BYTES: usize = 38;

    fn record_offset(i: usize) -> usize {
        HEADER_BYTES + i * RECORD_BYTES
    }

    #[test]
    fn byte_reader_matches_streamed_reader() {
        let t = sample_trace();
        let mut buf = Vec::new();
        t.encode(&mut buf).unwrap();

        let mut reader = ByteReader::new(&buf).unwrap();
        assert_eq!(reader.meta(), &t.meta);
        assert_eq!(reader.remaining(), t.len() as u64);
        let mut got = Vec::new();
        let mut chunk = Vec::new();
        loop {
            chunk.clear();
            if reader.next_chunk(&mut chunk, 7).unwrap() == 0 {
                break;
            }
            got.extend_from_slice(&chunk);
        }
        assert_eq!(got, t.ops);
    }

    #[test]
    fn byte_reader_rejects_bad_magic_and_truncation() {
        let mut buf = Vec::new();
        sample_trace().encode(&mut buf).unwrap();
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(ByteReader::new(&bad).is_err());

        buf.truncate(buf.len() - 3);
        let mut reader = ByteReader::new(&buf).unwrap();
        let mut out = Vec::new();
        let err = loop {
            match reader.next_chunk(&mut out, 16) {
                Ok(0) => panic!("truncated archive must error"),
                Ok(_) => {}
                Err(e) => break e,
            }
        };
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    /// What one slot's cursor delivered: its ops, then the kind of the
    /// error it ended on, if any.
    type SlotRun = (Vec<TraceOp>, Option<io::ErrorKind>);

    /// Drains every cursor of `src`'s grid, slot by slot.
    fn drain_cursors(src: &dyn TraceSource) -> Vec<SlotRun> {
        let (hosts, threads) = src.meta().grid();
        let mut runs = Vec::new();
        for host in 0..hosts {
            for thread in 0..threads {
                let mut cursor = src.fork_slot(host, thread).expect("forkable");
                let mut ops = Vec::new();
                let err = loop {
                    match cursor.next() {
                        Ok(Some(op)) => ops.push(op),
                        Ok(None) => break None,
                        Err(e) => break Some(e.kind()),
                    }
                };
                runs.push((ops, err));
            }
        }
        runs
    }

    /// The sequential `next_chunk` stream split by slot: every slot gets
    /// its ops up to the first bad record, then that record's error.
    fn split_stream(src: &mut dyn TraceSource) -> Vec<SlotRun> {
        let meta = src.meta().clone();
        let (hosts, threads) = meta.grid();
        let mut runs = vec![(Vec::new(), None); usize::from(hosts) * usize::from(threads)];
        let mut chunk = Vec::new();
        let err = loop {
            chunk.clear();
            match src.next_chunk(&mut chunk, 1) {
                Ok(0) => break None,
                Ok(_) => match meta.slot_of(&chunk[0]) {
                    Ok(slot) => runs[slot].0.push(chunk[0]),
                    Err(e) => break Some(e.kind()),
                },
                Err(e) => break Some(e.kind()),
            }
        };
        for run in &mut runs {
            run.1 = err;
        }
        runs
    }

    // Every (host, thread) cursor of `src` must yield exactly the ops of
    // that slot, in program order, and the union must cover the trace.
    fn assert_cursors_partition(src: &dyn TraceSource, t: &Trace) {
        let runs = drain_cursors(src);
        assert_eq!(runs, split_stream(&mut SliceSource::new(t)));
        assert_eq!(runs.iter().map(|r| r.0.len()).sum::<usize>(), t.len());
    }

    #[test]
    fn slot_cursors_decode_at_most_two_records_per_op() {
        // One host, eight threads: the baseline's slot layout. The index
        // pass decodes each record once and a cursor its own records
        // once; a cursor that scanned the whole stream would decode up to
        // eight records per delivered op.
        let mut t = sample_trace();
        t.meta.hosts = 1;
        t.ops = (0..400u32)
            .map(|i| {
                TraceOp::new(
                    HostId(0),
                    ThreadId((i % 8) as u16),
                    OpKind::Read,
                    FileId(i),
                    i,
                    1,
                    false,
                )
            })
            .collect();
        let mut buf = Vec::new();
        t.encode(&mut buf).unwrap();
        let reader = ByteReader::new(&buf).unwrap();
        let before = DECODED.with(|d| d.get());
        let delivered: usize = drain_cursors(&reader).iter().map(|r| r.0.len()).sum();
        let decoded = DECODED.with(|d| d.get()) - before;
        assert_eq!(delivered, t.len());
        assert!(
            decoded <= 2 * delivered as u64,
            "{decoded} records decoded for {delivered} ops"
        );
    }

    #[test]
    fn an_archive_past_the_index_range_is_invalid_data_not_a_panic() {
        // A header-only archive claiming 2^32 records: more than the slot
        // index's u32 record numbers can name.
        let mut buf = Vec::new();
        sample_trace().encode(&mut buf).unwrap();
        buf.truncate(HEADER_BYTES);
        let claimed = u64::from(u32::MAX) + 1;
        buf[HEADER_BYTES - 8..].copy_from_slice(&claimed.to_le_bytes());
        let reader = ByteReader::new(&buf).unwrap();
        let err = reader.fork_slot(0, 0).unwrap().next().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains(&claimed.to_string()), "got: {err}");
    }

    #[test]
    fn slice_source_cursors_partition_the_trace() {
        let t = sample_trace();
        assert_cursors_partition(&SliceSource::new(&t), &t);
    }

    #[test]
    fn byte_reader_cursors_partition_the_trace() {
        let t = sample_trace();
        let mut buf = Vec::new();
        t.encode(&mut buf).unwrap();
        assert_cursors_partition(&ByteReader::new(&buf).unwrap(), &t);
    }

    #[test]
    fn byte_cursor_stops_at_a_corrupt_record_even_for_other_slots() {
        let t = sample_trace();
        let mut buf = Vec::new();
        t.encode(&mut buf).unwrap();
        // Zero out the nblocks field of record 40 — an op that belongs to
        // host 0, thread 0 (40 % 2 == 0, 40 % 8 == 0).
        let bad = 40;
        buf[record_offset(bad) + 16..record_offset(bad) + 20].fill(0);

        let reader = ByteReader::new(&buf).unwrap();
        // A different slot (host 1, thread 1 owns ops 1, 9, 17, ...) must
        // still stop at the foreign corrupt record: its ops before index
        // 40 arrive, then the decode error — never an op past it.
        let mut cursor = reader.fork_slot(1, 1).unwrap();
        let mut got = Vec::new();
        let err = loop {
            match cursor.next() {
                Ok(Some(op)) => got.push(op),
                Ok(None) => panic!("cursor must surface the corrupt record"),
                Err(e) => break e,
            }
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let want: Vec<TraceOp> = t.ops[..bad]
            .iter()
            .copied()
            .filter(|op| op.host().0 == 1 && op.thread().0 == 1)
            .collect();
        assert!(!want.is_empty());
        assert_eq!(got, want);
    }

    #[test]
    fn cursors_reject_ops_outside_the_meta_grid() {
        let mut t = sample_trace();
        // The trace's ops carry host 1, but the meta now promises 1 host.
        t.meta.hosts = 1;
        let src = SliceSource::new(&t);
        let mut cursor = src.fork_slot(0, 0).unwrap();
        let err = loop {
            match cursor.next() {
                Ok(Some(_)) => {}
                Ok(None) => panic!("cursor must surface the out-of-grid op"),
                Err(e) => break e,
            }
        };
        assert!(
            err.to_string().contains("outside the 1-host/8-thread grid"),
            "got: {err}"
        );
    }

    #[test]
    fn stats_counts() {
        let s = sample_trace().stats();
        assert_eq!(s.ops, 100);
        assert_eq!(s.write_ops, 34);
        assert_eq!(s.warmup_ops, 50);
        assert_eq!(s.max_host, 1);
        assert_eq!(s.max_thread, 7);
        assert!(s.write_fraction() > 0.3 && s.write_fraction() < 0.4);
    }

    #[test]
    fn empty_trace_stats() {
        let t = Trace::new(TraceMeta::default());
        let s = t.stats();
        assert_eq!(s.ops, 0);
        assert_eq!(s.write_fraction(), 0.0);
        assert_eq!(s.warmup_fraction(), 0.0);
        assert!(t.is_empty());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn op_strategy() -> impl Strategy<Value = TraceOp> {
            (
                0u16..4,
                0u16..8,
                any::<bool>(),
                0u32..1000,
                0u32..10_000,
                // Cover the full packed range, including the 24-bit edge.
                prop_oneof![1u32..64, TraceOp::MAX_NBLOCKS - 2..TraceOp::MAX_NBLOCKS + 1],
                any::<bool>(),
            )
                .prop_map(|(h, t, w, file, start, n, warm)| {
                    TraceOp::new(
                        HostId(h),
                        ThreadId(t),
                        if w { OpKind::Write } else { OpKind::Read },
                        FileId(file),
                        start,
                        n,
                        warm,
                    )
                })
        }

        /// Where a layout puts op `i` (drawn as `draw`) on a grid of
        /// `slots` slots: `stride` leaves every slot not divisible by it
        /// empty.
        fn layout_slot(
            layout: u8,
            i: usize,
            n: usize,
            draw: u32,
            slots: usize,
            stride: usize,
        ) -> usize {
            let slot = match layout {
                // Interleaved: slots drawn at random.
                0 => draw as usize % slots,
                // Slot-major: each slot's ops back to back.
                1 => i * slots / n.max(1),
                // Skewed: three ops in four go to slot 0.
                _ if !draw.is_multiple_of(4) => 0,
                _ => draw as usize % slots,
            };
            slot / stride * stride
        }

        proptest! {
            #[test]
            fn every_source_partitions_a_layout_and_stops_at_its_bad_record(
                hosts in 1u16..4,
                threads in 1u16..5,
                draws in proptest::collection::vec(any::<u32>(), 0..120),
                layout in 0u8..3,
                stride in 1usize..3,
                // 0: no bad record, 1: a corrupt record, 2: an op outside
                // the grid.
                bad in 0u8..3,
                bad_at in any::<u32>(),
            ) {
                let slots = usize::from(hosts) * usize::from(threads);
                let n = draws.len();
                let op = |slot: usize, i: u32, draw: u32| TraceOp::new(
                    HostId((slot / usize::from(threads)) as u16),
                    ThreadId((slot % usize::from(threads)) as u16),
                    if draw.is_multiple_of(3) { OpKind::Write } else { OpKind::Read },
                    FileId(i),
                    draw % 10_000,
                    1 + draw % 7,
                    i.is_multiple_of(2),
                );
                let mut t = Trace::new(TraceMeta { hosts, threads_per_host: threads, ..TraceMeta::default() });
                let mut want = vec![(Vec::new(), None); slots];
                let bad_at = if bad == 0 { usize::MAX } else { bad_at as usize % (n + 1) };
                for (i, &draw) in draws.iter().enumerate() {
                    if i == bad_at {
                        // The corrupt record is patched to zero length
                        // after encoding; the stray one names host `hosts`.
                        t.ops.push(op(slots, i as u32, draw));
                    }
                    let slot = layout_slot(layout, i, n, draw, slots, stride);
                    t.ops.push(op(slot, i as u32, draw));
                    if i < bad_at {
                        want[slot].0.push(*t.ops.last().unwrap());
                    }
                }
                if bad_at == n {
                    t.ops.push(op(slots, n as u32, 0));
                }
                if bad != 0 {
                    let kind = if bad == 1 { io::ErrorKind::InvalidData } else { OUTSIDE_GRID };
                    for w in &mut want {
                        w.1 = Some(kind);
                    }
                }
                let mut buf = Vec::new();
                t.encode(&mut buf).unwrap();
                if bad == 1 {
                    buf[record_offset(bad_at) + 16..record_offset(bad_at) + 20].fill(0);
                } else {
                    let slice = SliceSource::new(&t);
                    prop_assert_eq!(drain_cursors(&slice), want.clone());
                    prop_assert_eq!(split_stream(&mut SliceSource::new(&t)), want.clone());
                }
                prop_assert_eq!(drain_cursors(&ByteReader::new(&buf).unwrap()), want.clone());
                prop_assert_eq!(split_stream(&mut ByteReader::new(&buf).unwrap()), want.clone());
                prop_assert_eq!(split_stream(&mut TraceReader::new(buf.as_slice()).unwrap()), want);
            }

            #[test]
            fn codec_roundtrips_arbitrary_packed_traces(
                ops in proptest::collection::vec(op_strategy(), 0..200),
                hosts in 1u16..8,
                seed in any::<u64>(),
            ) {
                let t = Trace {
                    meta: TraceMeta { hosts, threads_per_host: 8, seed, ..TraceMeta::default() },
                    ops,
                };
                let mut buf = Vec::new();
                t.encode(&mut buf).unwrap();
                let d = Trace::decode(&mut buf.as_slice()).unwrap();
                prop_assert_eq!(d.meta, t.meta);
                prop_assert_eq!(d.ops, t.ops);
                // Chunked streaming sees the same ops as bulk decode.
                let mut reader = TraceReader::new(buf.as_slice()).unwrap();
                let mut streamed = Vec::new();
                while reader.next_chunk(&mut streamed, 17).unwrap() > 0 {}
                prop_assert_eq!(streamed, t.ops);
            }

            #[test]
            fn decode_never_panics_on_corruption(
                mut bytes in proptest::collection::vec(any::<u8>(), 0..256),
            ) {
                // Arbitrary bytes: decode must return Ok or Err, not panic.
                let _ = Trace::decode(&mut bytes.as_slice());
                // Valid header + garbage body.
                let mut buf = Vec::new();
                Trace::new(TraceMeta::default()).encode(&mut buf).unwrap();
                buf.append(&mut bytes);
                let _ = Trace::decode(&mut buf.as_slice());
            }
        }
    }
}
