//! Flash I/O logging.
//!
//! §6.2: "We modified the simulator to log I/Os to the flash as it ran and
//! captured the results for a variety of workloads. Then we replayed these
//! I/Os to the SSDs and recorded the actual read and write latencies."
//! [`IoLog`] is that log; replaying it against an [`crate::SsdModel`]
//! regenerates Figure 1.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Direction of a logged flash I/O.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IoDirection {
    /// Block read from flash.
    Read,
    /// Block written to flash.
    Write,
}

/// One logged per-block flash access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct IoLogEntry {
    /// Read or write.
    pub dir: IoDirection,
    /// Logical block address on the flash device.
    pub lba: u64,
}

/// A shared, append-only log of flash I/Os.
///
/// Cloning shares the log; the simulator appends while it runs and the
/// Figure 1 harness drains afterwards. One allocation holds the whole
/// log, so a run that logs nothing can hand every host a clone of one
/// disabled log.
#[derive(Clone, Default)]
pub struct IoLog {
    inner: Rc<Inner>,
}

#[derive(Default)]
struct Inner {
    entries: RefCell<Vec<IoLogEntry>>,
    enabled: Cell<bool>,
}

impl IoLog {
    /// Creates an enabled log.
    pub fn new() -> Self {
        let log = Self::disabled();
        log.set_enabled(true);
        log
    }

    /// Creates a disabled log (appends are no-ops; zero overhead mode).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Enables or disables recording.
    pub fn set_enabled(&self, on: bool) {
        self.inner.enabled.set(on);
    }

    /// True if appends are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.get()
    }

    /// Records one read access.
    pub fn log_read(&self, lba: u64) {
        if self.is_enabled() {
            self.inner.entries.borrow_mut().push(IoLogEntry {
                dir: IoDirection::Read,
                lba,
            });
        }
    }

    /// Records one write access.
    pub fn log_write(&self, lba: u64) {
        if self.is_enabled() {
            self.inner.entries.borrow_mut().push(IoLogEntry {
                dir: IoDirection::Write,
                lba,
            });
        }
    }

    /// Number of recorded entries.
    pub fn len(&self) -> usize {
        self.inner.entries.borrow().len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.inner.entries.borrow().is_empty()
    }

    /// Takes the recorded entries, leaving the log empty.
    pub fn take(&self) -> Vec<IoLogEntry> {
        std::mem::take(&mut *self.inner.entries.borrow_mut())
    }

    /// Copies the recorded entries.
    pub fn snapshot(&self) -> Vec<IoLogEntry> {
        self.inner.entries.borrow().clone()
    }
}

impl std::fmt::Debug for IoLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IoLog")
            .field("entries", &self.len())
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_reads_and_writes_in_order() {
        let log = IoLog::new();
        log.log_read(5);
        log.log_write(6);
        log.log_read(7);
        let e = log.snapshot();
        assert_eq!(e.len(), 3);
        assert_eq!(
            e[0],
            IoLogEntry {
                dir: IoDirection::Read,
                lba: 5
            }
        );
        assert_eq!(
            e[1],
            IoLogEntry {
                dir: IoDirection::Write,
                lba: 6
            }
        );
        assert_eq!(
            e[2],
            IoLogEntry {
                dir: IoDirection::Read,
                lba: 7
            }
        );
    }

    #[test]
    fn disabled_log_records_nothing() {
        let log = IoLog::disabled();
        log.log_read(1);
        log.log_write(2);
        assert!(log.is_empty());
        log.set_enabled(true);
        log.log_read(3);
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn clones_share_state() {
        let a = IoLog::new();
        let b = a.clone();
        b.log_write(9);
        assert_eq!(a.len(), 1);
        let taken = a.take();
        assert_eq!(taken.len(), 1);
        assert!(b.is_empty());
    }
}
