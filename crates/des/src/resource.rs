//! FIFO counting semaphore for modeling contention points.
//!
//! The simulator uses it for the SSD's command-queue slots: a
//! [`Resource`] with `queue_depth` permits. Waiters are served in strict
//! FIFO order, so commands enter service in submission order. (The
//! network segments keep their own FIFO, which hands the wire over with
//! an armed timer; see `fcache_net`.)

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// Internal wait-list entry state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum WaitState {
    Waiting,
    Granted,
    Cancelled,
}

/// One wait-list entry. Slots live in a slab inside [`ResourceState`] and
/// are recycled through a free list, so steady-state waiting allocates
/// nothing (the `Rc<RefCell<..>>`-per-wait representation this replaces was
/// the dominant small-allocation source in contended simulations).
struct WaiterSlot {
    state: WaitState,
    waker: Option<Waker>,
}

struct ResourceState {
    capacity: usize,
    available: usize,
    /// FIFO of indices into `slots`; cancelled entries stay until a
    /// release skips them.
    queue: VecDeque<u32>,
    /// Entries of `queue` still waiting (not cancelled).
    waiting: usize,
    slots: Vec<WaiterSlot>,
    free: Vec<u32>,
    // Statistics.
    acquires: u64,
    waits: u64,
}

impl ResourceState {
    fn alloc_slot(&mut self, waker: Waker) -> u32 {
        if let Some(i) = self.free.pop() {
            let s = &mut self.slots[i as usize];
            s.state = WaitState::Waiting;
            s.waker = Some(waker);
            i
        } else {
            self.slots.push(WaiterSlot {
                state: WaitState::Waiting,
                waker: Some(waker),
            });
            (self.slots.len() - 1) as u32
        }
    }

    /// Returns one permit, handing it to the first live waiter if any.
    fn release(&mut self) {
        while let Some(i) = self.queue.pop_front() {
            let s = &mut self.slots[i as usize];
            match s.state {
                WaitState::Cancelled => {
                    self.free.push(i);
                    continue;
                }
                WaitState::Waiting => {
                    s.state = WaitState::Granted;
                    self.waiting -= 1;
                    if let Some(waker) = s.waker.take() {
                        waker.wake();
                    }
                    return;
                }
                WaitState::Granted => unreachable!("granted waiter still queued"),
            }
        }
        self.available += 1;
        debug_assert!(
            self.available <= self.capacity,
            "released more than capacity"
        );
    }
}

/// A FIFO counting semaphore over simulated time.
///
/// Cloning the handle shares the same underlying permits.
///
/// # Examples
///
/// ```
/// use fcache_des::{Resource, Sim, SimTime};
///
/// let sim = Sim::new();
/// let wire = Resource::new(1);
/// for _ in 0..3 {
///     let s = sim.clone();
///     let wire = wire.clone();
///     sim.spawn(async move {
///         let _guard = wire.acquire().await;
///         s.sleep(SimTime::from_micros(10)).await; // hold the wire 10 µs
///     });
/// }
/// let report = sim.run().unwrap();
/// // Three holders serialized on one permit: 30 µs total.
/// assert_eq!(report.end_time, SimTime::from_micros(30));
/// ```
#[derive(Clone)]
pub struct Resource {
    state: Rc<RefCell<ResourceState>>,
}

impl Resource {
    /// Creates a resource with `capacity` permits.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "resource capacity must be nonzero");
        Self {
            state: Rc::new(RefCell::new(ResourceState {
                capacity,
                available: capacity,
                queue: VecDeque::new(),
                waiting: 0,
                slots: Vec::new(),
                free: Vec::new(),
                acquires: 0,
                waits: 0,
            })),
        }
    }

    /// Acquires one permit, waiting FIFO behind earlier requesters.
    pub fn acquire(&self) -> Acquire {
        Acquire {
            resource: self.clone(),
            waiter: None,
        }
    }

    /// Attempts to take a permit without waiting.
    pub fn try_acquire(&self) -> Option<ResourceGuard> {
        let mut st = self.state.borrow_mut();
        if st.queue.is_empty() && st.available > 0 {
            st.available -= 1;
            st.acquires += 1;
            Some(ResourceGuard {
                state: Rc::clone(&self.state),
            })
        } else {
            None
        }
    }

    /// Permits currently free.
    pub fn available(&self) -> usize {
        self.state.borrow().available
    }

    /// Requests currently queued.
    pub fn queue_len(&self) -> usize {
        self.state.borrow().waiting
    }

    /// Total successful acquisitions so far.
    pub fn total_acquires(&self) -> u64 {
        self.state.borrow().acquires
    }

    /// Total acquisitions that had to wait.
    pub fn total_waits(&self) -> u64 {
        self.state.borrow().waits
    }
}

impl fmt::Debug for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.state.borrow();
        f.debug_struct("Resource")
            .field("capacity", &st.capacity)
            .field("available", &st.available)
            .field("queued", &st.waiting)
            .finish()
    }
}

/// RAII permit for a [`Resource`]; dropping it releases the permit.
pub struct ResourceGuard {
    state: Rc<RefCell<ResourceState>>,
}

impl Drop for ResourceGuard {
    fn drop(&mut self) {
        self.state.borrow_mut().release();
    }
}

impl fmt::Debug for ResourceGuard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ResourceGuard")
    }
}

/// Future returned by [`Resource::acquire`].
pub struct Acquire {
    resource: Resource,
    /// Index of this future's waiter slot, once queued.
    waiter: Option<u32>,
}

impl Future for Acquire {
    type Output = ResourceGuard;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<ResourceGuard> {
        let mut st = self.resource.state.borrow_mut();
        if let Some(i) = self.waiter {
            match st.slots[i as usize].state {
                WaitState::Granted => {
                    st.free.push(i); // consumed; drop must not re-release
                    st.acquires += 1;
                    drop(st);
                    self.waiter = None;
                    Poll::Ready(ResourceGuard {
                        state: Rc::clone(&self.resource.state),
                    })
                }
                WaitState::Waiting => {
                    st.slots[i as usize].waker = Some(cx.waker().clone());
                    Poll::Pending
                }
                WaitState::Cancelled => unreachable!("polling a cancelled acquire"),
            }
        } else {
            if st.queue.is_empty() && st.available > 0 {
                st.available -= 1;
                st.acquires += 1;
                return Poll::Ready(ResourceGuard {
                    state: Rc::clone(&self.resource.state),
                });
            }
            st.waits += 1;
            let i = st.alloc_slot(cx.waker().clone());
            st.queue.push_back(i);
            st.waiting += 1;
            drop(st);
            self.waiter = Some(i);
            Poll::Pending
        }
    }
}

impl Drop for Acquire {
    fn drop(&mut self) {
        if let Some(i) = self.waiter.take() {
            let mut st = self.resource.state.borrow_mut();
            match st.slots[i as usize].state {
                // Still queued: mark for `release` to skip and recycle.
                WaitState::Waiting => {
                    st.slots[i as usize].state = WaitState::Cancelled;
                    st.waiting -= 1;
                }
                WaitState::Granted => {
                    // We were handed a permit but never observed it: give
                    // it back so it is not leaked.
                    st.free.push(i);
                    st.release();
                }
                WaitState::Cancelled => unreachable!("dropping a consumed acquire twice"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sim, SimTime};
    use std::cell::RefCell as StdRefCell;

    #[test]
    fn uncontended_acquire_is_immediate() {
        let sim = Sim::new();
        let r = Resource::new(2);
        let s = sim.clone();
        let r2 = r.clone();
        sim.spawn(async move {
            let _a = r2.acquire().await;
            let _b = r2.acquire().await;
            assert_eq!(s.now(), SimTime::ZERO);
        });
        sim.run().unwrap();
        assert_eq!(r.available(), 2);
        assert_eq!(r.total_acquires(), 2);
        assert_eq!(r.total_waits(), 0);
    }

    #[test]
    fn capacity_one_serializes_holders() {
        let sim = Sim::new();
        let r = Resource::new(1);
        let finish = Rc::new(StdRefCell::new(Vec::new()));
        for i in 0..4u32 {
            let s = sim.clone();
            let r = r.clone();
            let finish = Rc::clone(&finish);
            sim.spawn(async move {
                let _g = r.acquire().await;
                s.sleep(SimTime::from_micros(10)).await;
                finish.borrow_mut().push((i, s.now()));
            });
        }
        let report = sim.run().unwrap();
        assert_eq!(report.end_time, SimTime::from_micros(40));
        // FIFO: tasks finish in spawn order at 10, 20, 30, 40 µs.
        let got = finish.borrow().clone();
        for (idx, (i, t)) in got.iter().enumerate() {
            assert_eq!(*i as usize, idx);
            assert_eq!(*t, SimTime::from_micros(10 * (idx as u64 + 1)));
        }
        assert_eq!(r.total_waits(), 3);
    }

    #[test]
    fn capacity_n_allows_n_concurrent() {
        let sim = Sim::new();
        let r = Resource::new(3);
        for _ in 0..6 {
            let s = sim.clone();
            let r = r.clone();
            sim.spawn(async move {
                let _g = r.acquire().await;
                s.sleep(SimTime::from_micros(10)).await;
            });
        }
        let report = sim.run().unwrap();
        // Two batches of three.
        assert_eq!(report.end_time, SimTime::from_micros(20));
    }

    #[test]
    fn try_acquire_respects_queue() {
        let sim = Sim::new();
        let r = Resource::new(1);
        let g = r.try_acquire().unwrap();
        assert!(r.try_acquire().is_none());
        drop(g);
        assert!(r.try_acquire().is_some());
        drop(sim);
    }

    #[test]
    fn guard_drop_wakes_next_waiter() {
        let sim = Sim::new();
        let r = Resource::new(1);
        let s1 = sim.clone();
        let r1 = r.clone();
        sim.spawn(async move {
            let g = r1.acquire().await;
            s1.sleep(SimTime::from_micros(5)).await;
            drop(g);
        });
        let s2 = sim.clone();
        let r2 = r.clone();
        let h = sim.spawn(async move {
            let _g = r2.acquire().await;
            s2.now()
        });
        sim.run().unwrap();
        assert_eq!(h.try_result().unwrap(), SimTime::from_micros(5));
    }

    #[test]
    fn dropping_waiting_acquire_does_not_stall_queue() {
        let sim = Sim::new();
        let r = Resource::new(1);
        // Holder keeps the permit for 10 µs.
        {
            let s = sim.clone();
            let r = r.clone();
            sim.spawn(async move {
                let _g = r.acquire().await;
                s.sleep(SimTime::from_micros(10)).await;
            });
        }
        // This waiter gives up (drops the acquire future) at 5 µs via select-
        // like structure: we emulate by polling manually inside a task.
        {
            let s = sim.clone();
            let r = r.clone();
            sim.spawn(async move {
                let acq = r.acquire();
                // Poll it once so it queues, then drop it.
                futures_poll_once(acq).await;
                s.sleep(SimTime::from_micros(1)).await;
            });
        }
        // Third task must still get the permit at t=10.
        let s = sim.clone();
        let r3 = r.clone();
        let h = sim.spawn(async move {
            // Let the other two queue first.
            s.sleep(SimTime::from_nanos(1)).await;
            let _g = r3.acquire().await;
            s.now()
        });
        sim.run().unwrap();
        assert_eq!(h.try_result().unwrap(), SimTime::from_micros(10));
    }

    /// Polls a future exactly once, then drops it.
    async fn futures_poll_once<F: Future + Unpin>(mut f: F) {
        use std::pin::Pin;
        use std::task::Poll;
        std::future::poll_fn(move |cx| {
            let _ = Pin::new(&mut f).poll(cx);
            Poll::Ready(())
        })
        .await;
    }

    #[test]
    fn queue_len_counts_waiters_through_grants_and_cancels() {
        let sim = Sim::new();
        let r = Resource::new(1);
        let held = r.try_acquire().expect("free");
        let noop = std::task::Waker::noop();
        let mut cx = Context::from_waker(noop);
        let mut acqs: Vec<_> = (0..4).map(|_| Box::pin(r.acquire())).collect();
        for a in &mut acqs {
            assert!(a.as_mut().poll(&mut cx).is_pending());
        }
        assert_eq!(r.queue_len(), 4);
        // Cancel the second and the last while they wait.
        drop(acqs.remove(3));
        drop(acqs.remove(1));
        assert_eq!(r.queue_len(), 2);
        // The release skips nothing it should not: the first waiter gets
        // the permit and leaves the queue.
        drop(held);
        assert_eq!(r.queue_len(), 1);
        let g = match acqs[0].as_mut().poll(&mut cx) {
            Poll::Ready(g) => g,
            Poll::Pending => panic!("granted waiter still pending"),
        };
        // Its release skips the cancelled second waiter and grants the
        // third.
        drop(g);
        assert_eq!((r.queue_len(), r.available()), (0, 0));
        // A granted waiter dropped before it observed the permit gives it
        // back.
        drop(acqs.remove(1));
        assert_eq!((r.queue_len(), r.available()), (0, 1));
        drop(sim);
    }

    #[test]
    #[should_panic(expected = "capacity must be nonzero")]
    fn zero_capacity_panics() {
        let _ = Resource::new(0);
    }

    #[test]
    fn stats_count_waits() {
        let sim = Sim::new();
        let r = Resource::new(1);
        for _ in 0..3 {
            let s = sim.clone();
            let r = r.clone();
            sim.spawn(async move {
                let _g = r.acquire().await;
                s.sleep(SimTime::from_micros(1)).await;
            });
        }
        sim.run().unwrap();
        assert_eq!(r.total_acquires(), 3);
        assert_eq!(r.total_waits(), 2);
    }
}
