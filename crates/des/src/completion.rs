//! Completion sets for overlapped submissions.
//!
//! A [`CompletionSet`] lets one task hold several in-flight sub-operations
//! — e.g. every block of a device batch queued into a bounded NCQ — and
//! suspend until the *last* of them completes, without spawning executor
//! tasks. Entries are stepped in submission order on every wake, so a set
//! draining through a FIFO [`crate::Resource`] admits its entries in
//! exactly the order they were submitted: determinism is preserved by
//! construction.
//!
//! Compared to `Sim::spawn` + joining handles, a completion set keeps the
//! sub-operations inside the owning task: no task slots, no join wakeups,
//! and the executor's event count grows only with the owning task's own
//! polls.
//!
//! The set stores entries of one type `S` inline and drives them with a
//! step function passed to [`CompletionSet::wait_all`], so nothing is boxed
//! per entry, and a set kept after `wait_all` reuses its slot array: a
//! caller that pools its sets submits batches without allocating. The step
//! function borrows whatever the entries need; the entries themselves are
//! plain data (or `Unpin` futures).
//!
//! # Examples
//!
//! ```
//! use std::future::Future;
//! use std::pin::Pin;
//! use fcache_des::{CompletionSet, Sim, SimTime};
//!
//! let sim = Sim::new();
//! let s = sim.clone();
//! let h = sim.spawn(async move {
//!     let mut batch = CompletionSet::new();
//!     for us in [7u64, 3, 9] {
//!         batch.submit(s.sleep(SimTime::from_micros(us)));
//!     }
//!     batch.wait_all(|sleep, cx| Pin::new(sleep).poll(cx)).await;
//!     s.now()
//! });
//! sim.run().unwrap();
//! // Three overlapped sleeps complete at the longest, not the sum.
//! assert_eq!(h.try_result().unwrap(), SimTime::from_micros(9));
//! ```

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

use crate::executor::RunAheadBarrier;

/// A set of in-flight sub-operations awaited together.
///
/// Entries are not stepped until [`wait_all`](CompletionSet::wait_all) is
/// awaited; the first poll then steps them in submission order, which is
/// what queues their resource acquisitions FIFO. The set may be reused
/// after `wait_all` completes, and keeps its capacity.
pub struct CompletionSet<S> {
    pending: Vec<S>,
}

impl<S> Default for CompletionSet<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S> CompletionSet<S> {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self {
            pending: Vec::new(),
        }
    }

    /// Submits one sub-operation. It starts executing on the next
    /// [`wait_all`](Self::wait_all) poll, after everything submitted
    /// before it.
    pub fn submit(&mut self, entry: S) {
        self.pending.push(entry);
    }

    /// The submissions still incomplete, in submission order.
    pub fn pending(&self) -> &[S] {
        &self.pending
    }

    /// Number of submissions still incomplete.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when no submissions are in flight.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Drops every submission, keeping the capacity.
    pub fn clear(&mut self) {
        self.pending.clear();
    }

    /// Completes when every submission has completed (immediately if the
    /// set is empty). On every wake `step` is called on each incomplete
    /// entry in submission order, with the task's context; an entry is
    /// retired when its step returns `Ready`, so the last completion
    /// resolves the whole set.
    pub fn wait_all<F>(&mut self, step: F) -> WaitAll<'_, S, F>
    where
        F: FnMut(&mut S, &mut Context<'_>) -> Poll<()>,
    {
        WaitAll { set: self, step }
    }
}

impl<S> std::fmt::Debug for CompletionSet<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompletionSet")
            .field("pending", &self.pending.len())
            .finish()
    }
}

/// Future returned by [`CompletionSet::wait_all`].
pub struct WaitAll<'s, S, F> {
    set: &'s mut CompletionSet<S>,
    step: F,
}

// Nothing is structurally pinned: entries are stepped through `&mut`.
impl<S, F> Unpin for WaitAll<'_, S, F> {}

impl<S, F> Future for WaitAll<'_, S, F>
where
    F: FnMut(&mut S, &mut Context<'_>) -> Poll<()>,
{
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        // Entries after one that returns `Pending` are still stepped with
        // this context at this instant, so no entry's sleep may move the
        // clock ahead inline.
        let _barrier = RunAheadBarrier::enter();
        let this = self.get_mut();
        let pending = &mut this.set.pending;
        let mut i = 0;
        while i < pending.len() {
            match (this.step)(&mut pending[i], cx) {
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

    /// Boxed futures: the general entry type, for tests mixing closures.
    type Boxed = Pin<Box<dyn Future<Output = ()>>>;

    fn poll_boxed(f: &mut Boxed, cx: &mut Context<'_>) -> Poll<()> {
        f.as_mut().poll(cx)
    }

    #[test]
    fn empty_set_completes_immediately() {
        let sim = Sim::new();
        let s = sim.clone();
        let h = sim.spawn(async move {
            CompletionSet::<Boxed>::new().wait_all(poll_boxed).await;
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
            let mut set = CompletionSet::<Boxed>::new();
            for us in [5u64, 11, 2, 7] {
                let s = s.clone();
                set.submit(Box::pin(
                    async move { s.sleep(SimTime::from_micros(us)).await },
                ));
            }
            set.wait_all(poll_boxed).await;
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
            let res = Rc::new(Resource::new(&s, 1));
            let mut set = CompletionSet::<Boxed>::new();
            for i in 0..4u32 {
                let res = Rc::clone(&res);
                let s = s.clone();
                let order = Rc::clone(&order2);
                set.submit(Box::pin(async move {
                    let _g = res.acquire().await;
                    order.borrow_mut().push(i);
                    s.sleep(SimTime::from_micros(1)).await;
                }));
            }
            set.wait_all(poll_boxed).await;
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
            let mut set = CompletionSet::<Boxed>::new();
            let s1 = s.clone();
            set.submit(Box::pin(
                async move { s1.sleep(SimTime::from_micros(3)).await },
            ));
            set.wait_all(poll_boxed).await;
            assert!(set.is_empty());
            let s2 = s.clone();
            set.submit(Box::pin(
                async move { s2.sleep(SimTime::from_micros(4)).await },
            ));
            set.wait_all(poll_boxed).await;
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
                    let mut set = CompletionSet::<Boxed>::new();
                    let s2 = s.clone();
                    set.submit(Box::pin(
                        async move { s2.sleep(SimTime::from_micros(9)).await },
                    ));
                    set.wait_all(poll_boxed).await;
                } else {
                    s.sleep(SimTime::from_micros(9)).await;
                }
            });
            sim.run().unwrap().end_time
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn plain_entries_step_in_order_and_reuse_the_slot_array() {
        let sim = Sim::new();
        let s = sim.clone();
        let h = sim.spawn(async move {
            let mut set = CompletionSet::new();
            let mut caps = Vec::new();
            for round in 0..3u64 {
                for us in [4u64, 1, 6] {
                    set.submit(s.sleep(SimTime::from_micros(us + round)));
                }
                caps.push(set.pending.capacity());
                set.wait_all(|sleep, cx| Pin::new(sleep).poll(cx)).await;
            }
            (s.now(), caps)
        });
        sim.run().unwrap();
        let (now, caps) = h.try_result().unwrap();
        assert_eq!(now, SimTime::from_micros(6 + 7 + 8));
        assert!(
            caps.windows(2).all(|w| w[0] == w[1]),
            "capacity reused: {caps:?}"
        );
    }
}
