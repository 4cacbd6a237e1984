//! Completion handles for overlapped submissions.
//!
//! A [`CompletionSet`] lets one task hold several in-flight sub-operations
//! — e.g. every block of a device batch queued into a bounded NCQ — and
//! suspend until the *last* of them completes, without spawning executor
//! tasks. Submissions are polled in submission order on every wake, so a
//! set draining through a FIFO [`crate::Resource`] admits its entries in
//! exactly the order they were submitted: determinism is preserved by
//! construction.
//!
//! Compared to `Sim::spawn` + joining handles, a completion set keeps the
//! sub-futures inside the owning task: no task slots, no join wakeups, and
//! the executor's event count grows only with the owning task's own polls.
//!
//! # Examples
//!
//! ```
//! use fcache_des::{CompletionSet, Sim, SimTime};
//!
//! let sim = Sim::new();
//! let s = sim.clone();
//! let h = sim.spawn(async move {
//!     let mut batch = CompletionSet::new();
//!     for us in [7u64, 3, 9] {
//!         let s = s.clone();
//!         batch.submit(async move { s.sleep(SimTime::from_micros(us)).await });
//!     }
//!     batch.wait_all().await;
//!     s.now()
//! });
//! sim.run().unwrap();
//! // Three overlapped sleeps complete at the longest, not the sum.
//! assert_eq!(h.try_result().unwrap(), SimTime::from_micros(9));
//! ```

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

/// A set of in-flight sub-operations awaited together.
///
/// Futures submitted to the set are not polled until
/// [`wait_all`](CompletionSet::wait_all) is awaited; the first poll then
/// runs them in submission order, which is what queues their resource
/// acquisitions FIFO. The set may be reused after `wait_all` completes.
#[derive(Default)]
pub struct CompletionSet<'a> {
    pending: Vec<Pin<Box<dyn Future<Output = ()> + 'a>>>,
}

impl<'a> CompletionSet<'a> {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self {
            pending: Vec::new(),
        }
    }

    /// Submits one sub-operation. It starts executing on the next
    /// [`wait_all`](Self::wait_all) poll, after everything submitted
    /// before it.
    pub fn submit<F: Future<Output = ()> + 'a>(&mut self, fut: F) {
        self.pending.push(Box::pin(fut));
    }

    /// Number of submissions still incomplete.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when no submissions are in flight.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Completes when every submission has completed (immediately if the
    /// set is empty). Sub-futures are polled in submission order on every
    /// wake; completed ones are retired as they finish, so the last
    /// completion resolves the whole set.
    pub fn wait_all(&mut self) -> WaitAll<'_, 'a> {
        WaitAll { set: self }
    }
}

impl std::fmt::Debug for CompletionSet<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompletionSet")
            .field("pending", &self.pending.len())
            .finish()
    }
}

/// Future returned by [`CompletionSet::wait_all`].
pub struct WaitAll<'s, 'a> {
    set: &'s mut CompletionSet<'a>,
}

impl Future for WaitAll<'_, '_> {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let pending = &mut self.set.pending;
        let mut i = 0;
        while i < pending.len() {
            match pending[i].as_mut().poll(cx) {
                // `remove` keeps the submission order of the survivors, so
                // later polls still visit them deterministically in order.
                Poll::Ready(()) => {
                    drop(pending.remove(i));
                }
                Poll::Pending => i += 1,
            }
        }
        if pending.is_empty() {
            Poll::Ready(())
        } else {
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Resource, Sim, SimTime};
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn empty_set_completes_immediately() {
        let sim = Sim::new();
        let s = sim.clone();
        let h = sim.spawn(async move {
            CompletionSet::new().wait_all().await;
            s.now()
        });
        sim.run().unwrap();
        assert_eq!(h.try_result().unwrap(), SimTime::ZERO);
    }

    #[test]
    fn overlapped_sleeps_finish_at_the_longest() {
        let sim = Sim::new();
        let s = sim.clone();
        let h = sim.spawn(async move {
            let mut set = CompletionSet::new();
            for us in [5u64, 11, 2, 7] {
                let s = s.clone();
                set.submit(async move { s.sleep(SimTime::from_micros(us)).await });
            }
            set.wait_all().await;
            s.now()
        });
        let report = sim.run().unwrap();
        assert_eq!(h.try_result().unwrap(), SimTime::from_micros(11));
        assert_eq!(report.end_time, SimTime::from_micros(11));
    }

    #[test]
    fn submissions_acquire_a_fifo_resource_in_submission_order() {
        let sim = Sim::new();
        let order: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        let s = sim.clone();
        let order2 = Rc::clone(&order);
        sim.spawn(async move {
            let res = Rc::new(Resource::new(1));
            let mut set = CompletionSet::new();
            for i in 0..4u32 {
                let res = Rc::clone(&res);
                let s = s.clone();
                let order = Rc::clone(&order2);
                set.submit(async move {
                    let _g = res.acquire().await;
                    order.borrow_mut().push(i);
                    s.sleep(SimTime::from_micros(1)).await;
                });
            }
            set.wait_all().await;
        });
        sim.run().unwrap();
        // One slot: the four submissions serialize in submission order.
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn set_is_reusable_after_wait_all() {
        let sim = Sim::new();
        let s = sim.clone();
        let h = sim.spawn(async move {
            let mut set = CompletionSet::new();
            let s1 = s.clone();
            set.submit(async move { s1.sleep(SimTime::from_micros(3)).await });
            set.wait_all().await;
            assert!(set.is_empty());
            let s2 = s.clone();
            set.submit(async move { s2.sleep(SimTime::from_micros(4)).await });
            set.wait_all().await;
            s.now()
        });
        sim.run().unwrap();
        assert_eq!(h.try_result().unwrap(), SimTime::from_micros(7));
    }

    #[test]
    fn single_submission_behaves_like_plain_await() {
        // A set of one must add no simulated time or ordering effects over
        // awaiting the future directly.
        let run = |wrapped: bool| {
            let sim = Sim::new();
            let s = sim.clone();
            sim.spawn(async move {
                if wrapped {
                    let mut set = CompletionSet::new();
                    let s2 = s.clone();
                    set.submit(async move { s2.sleep(SimTime::from_micros(9)).await });
                    set.wait_all().await;
                } else {
                    s.sleep(SimTime::from_micros(9)).await;
                }
            });
            sim.run().unwrap().end_time
        };
        assert_eq!(run(true), run(false));
    }
}
