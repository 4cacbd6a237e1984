//! Bounded-memory per-slot queues for chunk-fed streamed replay.
//!
//! [`crate::run_source`]'s chunk feed fans ops into one queue per
//! `(host, thread)` slot. With a plain `VecDeque` per slot, replay memory
//! is O(chunk + inter-thread skew) — and the skew term is unbounded: a
//! trace whose final thread's ops all sit at the end of the archive makes
//! every earlier queue buffer the whole stream. [`SpillQueue`] caps the
//! resident term unconditionally: the first [`SPILL_RESIDENT_OPS`] ops of
//! a slot's backlog stay in memory, and anything past that spills to an
//! unlinked temporary file in compact 20-byte records, read back in order
//! as the slot drains.
//!
//! The spill is strictly an overflow valve — a slot that never exceeds the
//! cap never touches the filesystem — and it degrades gracefully: if the
//! temp file cannot be created or written, the overflow simply stays
//! resident (the pre-cap behavior) rather than failing the run. A *read*
//! failure is not recoverable (the ops exist nowhere else) and surfaces as
//! a source error.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::sync::atomic::{AtomicU64, Ordering};

use fcache_types::{FileId, HostId, OpKind, ThreadId, TraceOp, TRACE_CHUNK_OPS};

/// Per-slot resident cap in ops. Two source chunks: enough that the
/// steady-state round-robin skew of a well-interleaved trace never
/// spills, small enough that total replay memory stays O(chunk) per slot
/// no matter how lopsided the trace is.
pub(crate) const SPILL_RESIDENT_OPS: usize = 2 * TRACE_CHUNK_OPS;

/// Encoded spill record size (same 20-byte shape as the `FCTRACE1` wire
/// records, so spilled backlog costs 20 bytes/op on disk, not 16 bytes
/// resident).
const REC: usize = 20;

/// Ops moved from the spill back into the resident window per refill.
const REFILL_OPS: usize = TRACE_CHUNK_OPS;

/// Flush the encode buffer to disk once it holds a chunk's worth.
const FLUSH_BYTES: usize = TRACE_CHUNK_OPS * REC;

static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// Largest resident window, in ops, a dropped queue hands back for reuse.
const POOLED_OPS: usize = 64;

thread_local! {
    /// Emptied resident windows of dropped queues. A fleet cell has
    /// hundreds of slots that each replay a few ops; reusing the small
    /// windows spares every new cell growing each slot's from nothing.
    static FRONTS: RefCell<Vec<VecDeque<TraceOp>>> = const { RefCell::new(Vec::new()) };
}

/// FIFO op queue whose resident size is capped at roughly
/// [`SPILL_RESIDENT_OPS`]; overflow lives in an unlinked temp file.
pub(crate) struct SpillQueue {
    front: VecDeque<TraceOp>,
    spill: Option<Spill>,
    /// Temp-file creation failed once; keep overflow resident instead.
    degraded: bool,
    /// Ops ever routed through the spill (diagnostics and tests).
    spilled: u64,
}

impl SpillQueue {
    pub(crate) fn new() -> Self {
        Self {
            front: FRONTS
                .try_with(|p| p.borrow_mut().pop())
                .ok()
                .flatten()
                .unwrap_or_default(),
            spill: None,
            degraded: false,
            spilled: 0,
        }
    }

    /// Appends an op, spilling past the resident cap. Infallible: spill
    /// I/O trouble falls back to resident buffering.
    pub(crate) fn push(&mut self, op: TraceOp) {
        let spill_backlog = self.spill.as_ref().map_or(0, Spill::pending_records);
        // Ops may only join the resident window while the spill is empty,
        // otherwise they would overtake the spilled backlog.
        if spill_backlog == 0 && self.front.len() < SPILL_RESIDENT_OPS {
            self.front.push_back(op);
            return;
        }
        if self.degraded {
            self.front.push_back(op);
            return;
        }
        if self.spill.is_none() {
            match Spill::create() {
                Ok(s) => self.spill = Some(s),
                Err(_) => {
                    self.degraded = true;
                    self.front.push_back(op);
                    return;
                }
            }
        }
        self.spill.as_mut().expect("just ensured").push(op);
        self.spilled += 1;
    }

    /// Pops the next op in arrival order, pulling spilled backlog back
    /// into the resident window as needed. Errs only when spilled records
    /// cannot be read back (they exist nowhere else).
    pub(crate) fn pop(&mut self) -> io::Result<Option<TraceOp>> {
        if let Some(op) = self.front.pop_front() {
            return Ok(Some(op));
        }
        if let Some(s) = &mut self.spill {
            s.refill(&mut self.front)?;
        }
        Ok(self.front.pop_front())
    }

    /// Ops ever routed through the spill file.
    #[cfg(test)]
    pub(crate) fn spilled(&self) -> u64 {
        self.spilled
    }

    /// Resident ops right now.
    #[cfg(test)]
    pub(crate) fn resident(&self) -> usize {
        self.front.len()
    }
}

impl Drop for SpillQueue {
    fn drop(&mut self) {
        let cap = self.front.capacity();
        if cap > 0 && cap <= POOLED_OPS {
            let mut front = std::mem::take(&mut self.front);
            front.clear();
            let _ = FRONTS.try_with(|p| p.borrow_mut().push(front));
        }
    }
}

/// The overflow tail: `file[read_pos..write_pos]` followed by the not yet
/// flushed `buf[buf_read..]`, both in arrival order.
struct Spill {
    file: File,
    read_pos: u64,
    write_pos: u64,
    buf: Vec<u8>,
    buf_read: usize,
    /// A flush failed; stop writing and keep the tail in `buf`.
    write_broken: bool,
}

impl Spill {
    /// Creates the backing temp file and unlinks it immediately, so the
    /// backlog can never outlive the process.
    fn create() -> io::Result<Self> {
        let seq = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("fcache_spill_{}_{seq}.tmp", std::process::id()));
        let file = File::options()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)?;
        // Best-effort unlink: on platforms that refuse to remove an open
        // file the queue still works, it just leaves the file behind on a
        // crash.
        let _ = std::fs::remove_file(&path);
        Ok(Self {
            file,
            read_pos: 0,
            write_pos: 0,
            buf: Vec::new(),
            buf_read: 0,
            write_broken: false,
        })
    }

    fn pending_records(&self) -> usize {
        ((self.write_pos - self.read_pos) as usize + (self.buf.len() - self.buf_read)) / REC
    }

    fn push(&mut self, op: TraceOp) {
        encode_rec(&op, &mut self.buf);
        if !self.write_broken && self.buf.len() - self.buf_read >= FLUSH_BYTES {
            self.flush();
        }
    }

    fn flush(&mut self) {
        let pending = &self.buf[self.buf_read..];
        let ok = self
            .file
            .seek(SeekFrom::Start(self.write_pos))
            .and_then(|_| self.file.write_all(pending))
            .is_ok();
        if ok {
            self.write_pos += pending.len() as u64;
            self.buf.clear();
            self.buf_read = 0;
        } else {
            // Keep the records resident; the queue degrades to unbounded
            // memory rather than losing ops.
            self.write_broken = true;
        }
    }

    /// Moves up to [`REFILL_OPS`] backlog ops into `front`, disk region
    /// first, then the unflushed buffer.
    fn refill(&mut self, front: &mut VecDeque<TraceOp>) -> io::Result<()> {
        let disk_recs = ((self.write_pos - self.read_pos) as usize) / REC;
        if disk_recs > 0 {
            let n = disk_recs.min(REFILL_OPS);
            let mut scratch = vec![0u8; n * REC];
            self.file.seek(SeekFrom::Start(self.read_pos))?;
            self.file.read_exact(&mut scratch)?;
            for rec in scratch.chunks_exact(REC) {
                front.push_back(decode_rec(rec.try_into().expect("chunked by REC")));
            }
            self.read_pos += (n * REC) as u64;
            return Ok(());
        }
        let buf_recs = (self.buf.len() - self.buf_read) / REC;
        let n = buf_recs.min(REFILL_OPS);
        for rec in self.buf[self.buf_read..self.buf_read + n * REC].chunks_exact(REC) {
            front.push_back(decode_rec(rec.try_into().expect("chunked by REC")));
        }
        self.buf_read += n * REC;
        if self.buf_read == self.buf.len() {
            self.buf.clear();
            self.buf_read = 0;
        }
        Ok(())
    }
}

/// Spill record codec: same field layout as the `FCTRACE1` wire records.
/// Private to the spill file, which never outlives the process, so the
/// layout owes compatibility to nothing.
fn encode_rec(op: &TraceOp, out: &mut Vec<u8>) {
    out.extend_from_slice(&op.host().0.to_le_bytes());
    out.extend_from_slice(&op.thread().0.to_le_bytes());
    out.extend_from_slice(&[
        u8::from(op.is_write()) | (u8::from(op.warmup()) << 1),
        0,
        0,
        0,
    ]);
    out.extend_from_slice(&op.file().0.to_le_bytes());
    out.extend_from_slice(&op.start_block().to_le_bytes());
    out.extend_from_slice(&op.nblocks().to_le_bytes());
}

fn decode_rec(rec: &[u8; REC]) -> TraceOp {
    TraceOp::new(
        HostId(u16::from_le_bytes([rec[0], rec[1]])),
        ThreadId(u16::from_le_bytes([rec[2], rec[3]])),
        if rec[4] & 1 != 0 {
            OpKind::Write
        } else {
            OpKind::Read
        },
        FileId(u32::from_le_bytes([rec[8], rec[9], rec[10], rec[11]])),
        u32::from_le_bytes([rec[12], rec[13], rec[14], rec[15]]),
        u32::from_le_bytes([rec[16], rec[17], rec[18], rec[19]]),
        rec[4] & 2 != 0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(i: u32) -> TraceOp {
        TraceOp::new(
            HostId((i % 3) as u16),
            ThreadId((i % 5) as u16),
            if i.is_multiple_of(2) {
                OpKind::Read
            } else {
                OpKind::Write
            },
            FileId(i / 7),
            i.wrapping_mul(13),
            1 + i % TraceOp::MAX_NBLOCKS.min(64),
            i.is_multiple_of(11),
        )
    }

    #[test]
    fn under_the_cap_stays_resident() {
        let mut q = SpillQueue::new();
        for i in 0..SPILL_RESIDENT_OPS as u32 {
            q.push(op(i));
        }
        assert_eq!(q.spilled(), 0);
        for i in 0..SPILL_RESIDENT_OPS as u32 {
            assert_eq!(q.pop().unwrap(), Some(op(i)));
        }
        assert_eq!(q.pop().unwrap(), None);
    }

    #[test]
    fn overflow_spills_and_drains_in_order() {
        let total = 5 * SPILL_RESIDENT_OPS as u32;
        let mut q = SpillQueue::new();
        for i in 0..total {
            q.push(op(i));
        }
        assert!(q.spilled() > 0, "backlog past the cap must spill");
        assert!(
            q.resident() <= SPILL_RESIDENT_OPS,
            "resident window exceeded the cap: {}",
            q.resident()
        );
        for i in 0..total {
            assert_eq!(q.pop().unwrap(), Some(op(i)), "op {i} out of order");
        }
        assert_eq!(q.pop().unwrap(), None);
    }

    #[test]
    fn interleaved_bursts_preserve_fifo_order() {
        let mut q = SpillQueue::new();
        let mut next_push = 0u32;
        let mut next_pop = 0u32;
        // Alternate skewed bursts: fill 3x the cap, drain half, repeat.
        for round in 0..4 {
            let burst = (round + 3) * SPILL_RESIDENT_OPS as u32;
            for _ in 0..burst {
                q.push(op(next_push));
                next_push += 1;
            }
            for _ in 0..burst / 2 {
                assert_eq!(q.pop().unwrap(), Some(op(next_pop)));
                next_pop += 1;
            }
        }
        while next_pop < next_push {
            assert_eq!(q.pop().unwrap(), Some(op(next_pop)));
            next_pop += 1;
        }
        assert_eq!(q.pop().unwrap(), None);
        assert!(q.spilled() > 0);
    }

    #[test]
    fn spill_record_codec_roundtrips() {
        let mut buf = Vec::new();
        for i in 0..1000 {
            buf.clear();
            let o = op(i);
            encode_rec(&o, &mut buf);
            assert_eq!(buf.len(), REC);
            assert_eq!(decode_rec(buf.as_slice().try_into().unwrap()), o);
        }
    }
}
