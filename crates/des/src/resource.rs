//! FIFO counting semaphore for modeling contention points.
//!
//! The simulator has two: the SSD's command-queue slots (a [`Resource`]
//! with `queue_depth` permits) and each channel of a network segment (one
//! permit). Waiters are served in strict FIFO order, so requests enter
//! service in submission order.
//!
//! A waiter carries a request value, and the resource's [`GrantHook`]
//! runs on it in the poll that grants the permit. The default hook,
//! [`PlainWake`], carries nothing and wakes the grantee; a network
//! segment's hook fixes the packet's wire time and arms the grantee's
//! timer for its end instead (see `fcache_net`).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::future::Future;
use std::mem;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// What a [`Resource`] does with a waiter's request when it grants the
/// waiter a permit.
///
/// [`grant`](GrantHook::grant) runs once per grant, in FIFO order, in the
/// poll that grants: the acquirer's own poll when a permit is free, or
/// the releasing poll when the permit is handed to the head waiter. It
/// returns the outcome the grantee's acquire resolves with, and whether
/// it armed the grantee with [`Sim::wake_at`](crate::Sim::wake_at). An
/// armed grantee is not woken; arming is exact only when the acquire is
/// the grantee task's one pending await. `wake_at` refuses the running
/// task, so an immediate grant is never armed.
pub trait GrantHook {
    /// What a waiter carries.
    type Request;
    /// What the grantee receives with its permit.
    type Outcome;

    /// Grants a permit to the waiter of `req`, whose task `waker` wakes.
    fn grant(&mut self, req: Self::Request, waker: &Waker) -> (Self::Outcome, bool);

    /// Takes back an arm of [`grant`](GrantHook::grant) whose grantee
    /// dropped its acquire before observing the permit (which passes on
    /// to the next waiter). Its task must then be woken as an unarmed
    /// grantee was; a hook that arms with `wake_at` calls
    /// [`Sim::disarm`](crate::Sim::disarm), which keeps the wake at the
    /// grant's place in the ready queue. The default wakes the task now.
    fn disarm(&mut self, waker: &Waker) {
        waker.wake_by_ref();
    }
}

/// The default [`GrantHook`]: no request, no outcome, and the grantee is
/// woken.
#[derive(Clone, Copy, Debug, Default)]
pub struct PlainWake;

impl GrantHook for PlainWake {
    type Request = ();
    type Outcome = ();

    fn grant(&mut self, (): (), _: &Waker) -> ((), bool) {
        ((), false)
    }
}

/// Internal wait-list entry state.
enum WaitState<H: GrantHook> {
    Waiting(H::Request),
    Granted(H::Outcome),
    /// Dropped while queued (a release skips and recycles it), or
    /// consumed.
    Cancelled,
}

/// One wait-list entry. Slots live in a slab inside [`ResourceState`] and
/// are recycled through a free list, so steady-state waiting allocates
/// nothing.
struct WaiterSlot<H: GrantHook> {
    state: WaitState<H>,
    /// The waiter's task while it waits, and while it is armed for a
    /// grant it has not observed yet.
    waker: Option<Waker>,
}

struct ResourceState<H: GrantHook> {
    capacity: usize,
    available: usize,
    /// FIFO of indices into `slots`; cancelled entries stay until a
    /// release skips them.
    queue: VecDeque<u32>,
    /// Entries of `queue` still waiting (not cancelled).
    waiting: usize,
    slots: Vec<WaiterSlot<H>>,
    free: Vec<u32>,
    hook: H,
}

impl<H: GrantHook> ResourceState<H> {
    fn alloc_slot(&mut self, req: H::Request, waker: Waker) -> u32 {
        let slot = WaiterSlot {
            state: WaitState::Waiting(req),
            waker: Some(waker),
        };
        if let Some(i) = self.free.pop() {
            self.slots[i as usize] = slot;
            i
        } else {
            self.slots.push(slot);
            (self.slots.len() - 1) as u32
        }
    }

    /// Returns one permit, handing it to the first live waiter if any:
    /// the hook runs on its request, and the waiter is woken unless the
    /// hook armed it.
    fn release(&mut self) {
        while let Some(i) = self.queue.pop_front() {
            let s = &mut self.slots[i as usize];
            match mem::replace(&mut s.state, WaitState::Cancelled) {
                WaitState::Cancelled => self.free.push(i),
                WaitState::Waiting(req) => {
                    let waker = s.waker.take().expect("queued waiter without a waker");
                    let (outcome, armed) = self.hook.grant(req, &waker);
                    s.state = WaitState::Granted(outcome);
                    self.waiting -= 1;
                    if armed {
                        s.waker = Some(waker);
                    } else {
                        waker.wake();
                    }
                    return;
                }
                WaitState::Granted(_) => unreachable!("granted waiter still queued"),
            }
        }
        self.available += 1;
        debug_assert!(
            self.available <= self.capacity,
            "released more than capacity"
        );
    }
}

/// A FIFO counting semaphore over simulated time, with a [`GrantHook`]
/// run on each grant.
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
pub struct Resource<H: GrantHook = PlainWake> {
    state: Rc<RefCell<ResourceState<H>>>,
}

impl<H: GrantHook> Clone for Resource<H> {
    fn clone(&self) -> Self {
        Self {
            state: Rc::clone(&self.state),
        }
    }
}

impl Resource {
    /// Creates a resource with `capacity` permits and the plain-wake
    /// hook.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        Self::with_hook(capacity, PlainWake)
    }

    /// Acquires one permit, waiting FIFO behind earlier requesters.
    pub fn acquire(&self) -> Acquire {
        self.acquire_with(())
    }
}

impl<H: GrantHook> Resource<H> {
    /// Creates a resource with `capacity` permits whose grants run
    /// `hook`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_hook(capacity: usize, hook: H) -> Self {
        assert!(capacity > 0, "resource capacity must be nonzero");
        Self {
            state: Rc::new(RefCell::new(ResourceState {
                capacity,
                available: capacity,
                queue: VecDeque::new(),
                waiting: 0,
                slots: Vec::new(),
                free: Vec::new(),
                hook,
            })),
        }
    }

    /// Acquires one permit for `req`, waiting FIFO behind earlier
    /// requesters; resolves with the permit and the hook's outcome.
    pub fn acquire_with(&self, req: H::Request) -> Acquire<H> {
        Acquire {
            resource: self.clone(),
            state: AcquireState::Start(req),
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
}

impl<H: GrantHook> fmt::Debug for Resource<H> {
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
pub struct ResourceGuard<H: GrantHook = PlainWake> {
    state: Rc<RefCell<ResourceState<H>>>,
}

impl<H: GrantHook> Drop for ResourceGuard<H> {
    fn drop(&mut self) {
        self.state.borrow_mut().release();
    }
}

impl<H: GrantHook> fmt::Debug for ResourceGuard<H> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ResourceGuard")
    }
}

/// Future returned by [`Resource::acquire`] and [`Resource::acquire_with`]:
/// resolves with the permit and the hook's outcome.
pub struct Acquire<H: GrantHook = PlainWake> {
    resource: Resource<H>,
    state: AcquireState<H::Request>,
}

enum AcquireState<R> {
    /// Not yet polled.
    Start(R),
    /// Queued as this waiter slot.
    Queued(u32),
    /// Resolved.
    Done,
}

// Nothing in an `Acquire` is pinned: its request is moved out by value.
impl<H: GrantHook> Unpin for Acquire<H> {}

impl<H: GrantHook> Future for Acquire<H> {
    type Output = (ResourceGuard<H>, H::Outcome);

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let mut st = this.resource.state.borrow_mut();
        let st = &mut *st;
        let outcome = match mem::replace(&mut this.state, AcquireState::Done) {
            AcquireState::Queued(i) => {
                let s = &mut st.slots[i as usize];
                if let WaitState::Waiting(_) = s.state {
                    if !s.waker.as_ref().is_some_and(|w| w.will_wake(cx.waker())) {
                        s.waker = Some(cx.waker().clone());
                    }
                    this.state = AcquireState::Queued(i);
                    return Poll::Pending;
                }
                let WaitState::Granted(outcome) = mem::replace(&mut s.state, WaitState::Cancelled)
                else {
                    unreachable!("polling a cancelled acquire")
                };
                s.waker = None;
                st.free.push(i);
                outcome
            }
            AcquireState::Start(req) if st.queue.is_empty() && st.available > 0 => {
                st.available -= 1;
                let (outcome, armed) = st.hook.grant(req, cx.waker());
                debug_assert!(!armed, "an immediate grant armed its own acquirer");
                outcome
            }
            AcquireState::Start(req) => {
                let i = st.alloc_slot(req, cx.waker().clone());
                st.queue.push_back(i);
                st.waiting += 1;
                this.state = AcquireState::Queued(i);
                return Poll::Pending;
            }
            AcquireState::Done => panic!("acquire polled after completion"),
        };
        let guard = ResourceGuard {
            state: Rc::clone(&this.resource.state),
        };
        Poll::Ready((guard, outcome))
    }
}

impl<H: GrantHook> Drop for Acquire<H> {
    fn drop(&mut self) {
        if let AcquireState::Queued(i) = self.state {
            let mut st = self.resource.state.borrow_mut();
            let st = &mut *st;
            let s = &mut st.slots[i as usize];
            match mem::replace(&mut s.state, WaitState::Cancelled) {
                // Still queued: left for `release` to skip and recycle.
                WaitState::Waiting(_) => {
                    s.waker = None;
                    st.waiting -= 1;
                }
                // Handed a permit but never observed it: pass it on, so
                // it is not leaked, and wake an armed grantee now rather
                // than at the end of a hold it no longer has.
                WaitState::Granted(_) => {
                    let armed = s.waker.take();
                    st.free.push(i);
                    if let Some(w) = armed {
                        st.hook.disarm(&w);
                    }
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

    /// Polls `f` once with a waker that does nothing.
    fn poll_once<F: Future + Unpin>(f: &mut F) -> Poll<F::Output> {
        Pin::new(f).poll(&mut Context::from_waker(Waker::noop()))
    }

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
    fn acquire_respects_queue() {
        let r = Resource::new(1);
        let (g, ()) = match poll_once(&mut r.acquire()) {
            Poll::Ready(granted) => granted,
            Poll::Pending => panic!("free permit not granted"),
        };
        let mut queued = r.acquire();
        assert!(poll_once(&mut queued).is_pending());
        // The release hands the permit to the queued waiter, so a later
        // acquire queues behind it.
        drop(g);
        let mut late = r.acquire();
        assert!(poll_once(&mut late).is_pending());
        assert!(poll_once(&mut queued).is_ready());
        assert!(poll_once(&mut late).is_ready());
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
        std::future::poll_fn(move |cx| {
            let _ = Pin::new(&mut f).poll(cx);
            Poll::Ready(())
        })
        .await;
    }

    #[test]
    fn queue_len_counts_waiters_through_grants_and_cancels() {
        let r = Resource::new(1);
        let Poll::Ready((held, ())) = poll_once(&mut r.acquire()) else {
            panic!("free permit not granted");
        };
        let mut acqs: Vec<_> = (0..4).map(|_| r.acquire()).collect();
        for a in &mut acqs {
            assert!(poll_once(a).is_pending());
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
        let Poll::Ready((g, ())) = poll_once(&mut acqs[0]) else {
            panic!("granted waiter still pending");
        };
        // Its release skips the cancelled second waiter and grants the
        // third.
        drop(g);
        assert_eq!((r.queue_len(), r.available()), (0, 0));
        // A granted waiter dropped before it observed the permit gives it
        // back.
        drop(acqs.remove(1));
        assert_eq!((r.queue_len(), r.available()), (0, 1));
    }

    #[test]
    #[should_panic(expected = "capacity must be nonzero")]
    fn zero_capacity_panics() {
        let _ = Resource::new(0);
    }

    /// A grant: the waiter's tag, when the hook ran, and whether it armed
    /// the grantee.
    type Logged = (u32, SimTime, bool);

    /// A hook that logs each grant and, when `arm_for` is set, arms the
    /// grantee for that long after the grant.
    struct LogHook {
        sim: Sim,
        arm_for: Option<SimTime>,
        log: Rc<StdRefCell<Vec<Logged>>>,
    }

    impl GrantHook for LogHook {
        type Request = u32;
        type Outcome = SimTime;

        fn grant(&mut self, tag: u32, waker: &Waker) -> (SimTime, bool) {
            let now = self.sim.now();
            let armed = self
                .arm_for
                .is_some_and(|d| self.sim.wake_at(waker, now + d));
            self.log.borrow_mut().push((tag, now, armed));
            (now, armed)
        }

        fn disarm(&mut self, waker: &Waker) {
            self.sim.disarm(waker);
        }
    }

    fn logged(
        sim: &Sim,
        arm_for: Option<SimTime>,
    ) -> (Resource<LogHook>, Rc<StdRefCell<Vec<Logged>>>) {
        let log = Rc::new(StdRefCell::new(Vec::new()));
        let hook = LogHook {
            sim: sim.clone(),
            arm_for,
            log: Rc::clone(&log),
        };
        (Resource::with_hook(1, hook), log)
    }

    #[test]
    fn the_hook_runs_once_per_grant_in_fifo_order_at_the_release_instant() {
        let sim = Sim::new();
        let (r, log) = logged(&sim, None);
        let resolved = Rc::new(StdRefCell::new(Vec::new()));
        for tag in 0..4u32 {
            let (s, r, resolved) = (sim.clone(), r.clone(), Rc::clone(&resolved));
            sim.spawn(async move {
                // Later tags ask later, so FIFO order is tag order.
                s.sleep(SimTime::from_nanos(u64::from(tag))).await;
                let (_held, granted_at) = r.acquire_with(tag).await;
                resolved.borrow_mut().push((tag, granted_at, s.now()));
                s.sleep(SimTime::from_micros(10)).await;
            });
        }
        sim.run().unwrap();
        let us = SimTime::from_micros;
        // The first grant is immediate; each later one runs when the
        // holder before it releases, every 10 µs.
        assert_eq!(
            *log.borrow(),
            [
                (0, us(0), false),
                (1, us(10), false),
                (2, us(20), false),
                (3, us(30), false)
            ]
        );
        // Each grantee resolves with its own outcome, at its grant.
        assert_eq!(
            *resolved.borrow(),
            [
                (0, us(0), us(0)),
                (1, us(10), us(10)),
                (2, us(20), us(20)),
                (3, us(30), us(30))
            ]
        );
    }

    #[test]
    fn a_cancelled_waiter_is_skipped_without_running_the_hook() {
        let sim = Sim::new();
        let (r, log) = logged(&sim, None);
        let Poll::Ready((held, _)) = poll_once(&mut r.acquire_with(0)) else {
            panic!("free permit not granted");
        };
        let mut waiters: Vec<_> = (1..4).map(|tag| r.acquire_with(tag)).collect();
        for w in &mut waiters {
            assert!(poll_once(w).is_pending());
        }
        drop(waiters.remove(1));
        drop(held);
        let Poll::Ready((g, _)) = poll_once(&mut waiters[0]) else {
            panic!("granted waiter still pending");
        };
        drop(g);
        let tags: Vec<u32> = log.borrow().iter().map(|&(tag, ..)| tag).collect();
        assert_eq!(tags, [0, 1, 3]);
    }

    #[test]
    fn an_armed_grantee_dropped_before_its_poll_passes_the_permit_on() {
        let sim = Sim::new();
        let ns = SimTime::from_nanos;
        let (r, log) = logged(&sim, Some(ns(10)));
        // Tag 0 holds the permit until 5.
        let (s, r0) = (sim.clone(), r.clone());
        sim.spawn(async move {
            let _held = r0.acquire_with(0).await;
            s.sleep(ns(5)).await;
        });
        // Tag 1 queues through a cell that another task can empty.
        let cell = Rc::new(StdRefCell::new(Some(r.acquire_with(1))));
        let (s, c) = (sim.clone(), Rc::clone(&cell));
        let dropped = sim.spawn(async move {
            std::future::poll_fn(|cx| match &mut *c.borrow_mut() {
                Some(acq) => Pin::new(acq).poll(cx).map(drop),
                None => Poll::Ready(()),
            })
            .await;
            s.now()
        });
        // Tag 2 queues behind it.
        let (s, r2) = (sim.clone(), r.clone());
        let h = sim.spawn(async move {
            let (_held, granted_at) = r2.acquire_with(2).await;
            (granted_at, s.now())
        });
        // At 5, after tag 0's release armed tag 1, drop tag 1's acquire.
        let s = sim.clone();
        sim.spawn(async move {
            s.sleep(ns(5)).await;
            drop(cell.borrow_mut().take());
        });
        sim.run().unwrap();
        assert_eq!(
            *log.borrow(),
            [(0, ns(0), false), (1, ns(5), true), (2, ns(5), true)]
        );
        // Tag 2 was granted at 5 and armed for 15.
        assert_eq!(h.try_result(), Some((ns(5), ns(15))));
        // Tag 1's task was disarmed: woken at 5, where its grant queued
        // it, not at the end of the hold it gave up.
        assert_eq!(dropped.try_result(), Some(ns(5)));
    }
}
