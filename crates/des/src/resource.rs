//! FIFO counting semaphore for modeling contention points.
//!
//! The simulator has two: the SSD's command-queue slots (a [`Resource`]
//! with `queue_depth` permits) and each channel of a network segment (one
//! permit). Waiters are served in strict FIFO order, so requests enter
//! service in submission order.
//!
//! A waiter carries a request value, and the resource's [`GrantHook`]
//! runs on it once per grant, at the grantee's place: where a plain wake
//! would have polled the grantee, as the grantee. There the hook may arm
//! the grantee's timer for the end of its hold instead of having it
//! polled ([`GrantPlace::sleep_until`]). The default hook, [`PlainWake`],
//! carries nothing and has the grantee polled; a network segment's hook
//! draws the packet's fault effect and arms the end of its wire time, and
//! the SSD queue's hook draws a command's service time and arms its end
//! (see `fcache_net` and `fcache::devsvc`).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::future::Future;
use std::mem;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use crate::executor::Sleep;
use crate::{Sim, SimTime};

/// What a [`Resource`] does with a waiter's request when it grants the
/// waiter a permit.
///
/// [`grant`](GrantHook::grant) runs once per grant, in FIFO grant order
/// per resource, always as the grantee ([`Sim::current_tag`] reads the
/// grantee's tag):
/// - for a free permit, in the acquirer's own poll;
/// - for a permit a release hands to the head waiter, at the grantee's
///   place in the ready queue, where the wake the release queued would
///   have polled it: the run loop runs the hook there, or just before the
///   grantee's poll when something else polls it first;
/// - for a handed permit whose grantee cannot take a place (polled with a
///   foreign waker, running, or holding another place entry, such as a
///   grant still waiting), in the poll that sees the permit: the release
///   wakes it.
///
/// So the hook does what the grantee's poll would have done on seeing its
/// permit, at the same point of the run. It must not touch its own
/// resource.
pub trait GrantHook: 'static {
    /// What a waiter carries.
    type Request: 'static;
    /// What the grantee receives with its permit.
    type Outcome: 'static;

    /// Grants a permit to the waiter of `req` at `place`.
    fn grant(&mut self, req: Self::Request, place: &mut GrantPlace<'_>) -> Self::Outcome;
}

/// Where a [`GrantHook`] runs, and what it may do to its grantee there.
pub struct GrantPlace<'a> {
    sim: &'a Sim,
    /// Whether the run loop reached the grantee's ready-queue entry and
    /// may register its timer there instead of polling it.
    armable: bool,
    armed: Option<SimTime>,
}

impl<'a> GrantPlace<'a> {
    pub(crate) fn new(sim: &'a Sim, armable: bool) -> Self {
        Self {
            sim,
            armable,
            armed: None,
        }
    }

    /// The simulation the grant runs in.
    pub fn sim(&self) -> &'a Sim {
        self.sim
    }

    /// The sleep until `until` that ends the grantee's hold, for the
    /// grantee to await as soon as it sees its permit.
    ///
    /// When the run loop is at the grantee's ready-queue entry and `until`
    /// is after now, the grantee is *armed*: the loop registers its timer
    /// for `until` here, with the sequence number the grantee's own sleep
    /// would have drawn in the poll this replaces, and does not poll it
    /// (PERF.md invariant 17). That is exact only when the acquire is the
    /// grantee task's one pending await. Otherwise (a free permit, a
    /// grantee polled before its entry, a deadline not after now, or a
    /// second call) the sleep is plain, and the grantee's poll starts it.
    pub fn sleep_until(&mut self, until: SimTime) -> Sleep {
        let arm = self.armable && self.armed.is_none() && until > self.sim.now();
        if arm {
            self.armed = Some(until);
        }
        Sleep::new(self.sim.clone(), until, arm)
    }

    /// The deadline the hook armed, if it did.
    pub(crate) fn armed(&self) -> Option<SimTime> {
        self.armed
    }
}

/// The default [`GrantHook`]: no request, no outcome, and the grantee is
/// polled.
#[derive(Clone, Copy, Debug, Default)]
pub struct PlainWake;

impl GrantHook for PlainWake {
    type Request = ();
    type Outcome = ();

    fn grant(&mut self, (): (), _: &mut GrantPlace<'_>) {}
}

/// Internal wait-list entry state.
enum WaitState<H: GrantHook> {
    Waiting(H::Request),
    /// Handed a permit by a release, which queued a grant entry that runs
    /// the hook.
    Handed(H::Request),
    /// Handed a permit by a release that could not queue a grant entry:
    /// the hook runs in the poll that sees the permit.
    Woken(H::Request),
    Granted(H::Outcome),
    /// Done with while its grant entry is still queued: the entry recycles
    /// the slot.
    Orphaned,
    /// Dropped while queued (a release skips and recycles it), or
    /// consumed.
    Cancelled,
}

/// One wait-list entry. Slots live in a slab inside [`ResourceState`] and
/// are recycled through a free list, so steady-state waiting allocates
/// nothing.
struct WaiterSlot<H: GrantHook> {
    state: WaitState<H>,
    /// The waiter's task while it waits.
    waker: Option<Waker>,
}

struct ResourceState<H: GrantHook> {
    sim: Sim,
    capacity: usize,
    available: usize,
    /// FIFO of indices into `slots`; cancelled entries stay until a
    /// release skips them.
    queue: VecDeque<u32>,
    /// Entries of `queue` still waiting (not cancelled).
    waiting: usize,
    slots: Vec<WaiterSlot<H>>,
    free: Vec<u32>,
    /// Grants whose hook armed the grantee.
    armed: u64,
    hook: H,
}

/// A resource as the run loop sees it: the hook of a grant it handed over
/// runs through this, at the grantee's place.
pub(crate) trait HandedGrants {
    /// Runs the hook of the grant entry queued for waiter slot `waiter`;
    /// a waiter done with by then only has its slot recycled.
    fn run_grant(&self, waiter: u32, place: &mut GrantPlace<'_>);
}

impl<H: GrantHook> HandedGrants for RefCell<ResourceState<H>> {
    fn run_grant(&self, waiter: u32, place: &mut GrantPlace<'_>) {
        let mut st = self.borrow_mut();
        let st = &mut *st;
        match mem::replace(&mut st.slots[waiter as usize].state, WaitState::Cancelled) {
            WaitState::Handed(req) => {
                let outcome = st.hook.grant(req, place);
                st.slots[waiter as usize].state = WaitState::Granted(outcome);
                if place.armed().is_some() {
                    st.armed += 1;
                }
            }
            // The acquire went away (and passed the permit on) or saw the
            // permit elsewhere first.
            WaitState::Orphaned => st.free.push(waiter),
            _ => unreachable!("a grant entry for a waiter not handed a permit"),
        }
    }
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

    /// Runs the hook on a grant in the grantee's own poll, where nothing
    /// can be armed.
    fn grant_in_poll(&mut self, req: H::Request) -> H::Outcome {
        self.hook.grant(req, &mut GrantPlace::new(&self.sim, false))
    }
}

/// Returns one permit of `state`, handing it to the first live waiter if
/// any: the waiter's task gets a grant entry at this place in the ready
/// queue, where the run loop runs the hook. A waiter whose task cannot
/// take one (a foreign waker, or a task that already holds a place
/// entry) is woken instead, and its hook runs in the poll that sees the
/// permit.
fn release<H: GrantHook>(state: &Rc<RefCell<ResourceState<H>>>) {
    let mut st = state.borrow_mut();
    let st = &mut *st;
    while let Some(i) = st.queue.pop_front() {
        let s = &mut st.slots[i as usize];
        match mem::replace(&mut s.state, WaitState::Cancelled) {
            WaitState::Cancelled => st.free.push(i),
            WaitState::Waiting(req) => {
                st.waiting -= 1;
                let waker = s.waker.take().expect("queued waiter without a waker");
                let runner: Rc<dyn HandedGrants> = state.clone();
                s.state = if st.sim.queue_grant(&waker, runner, i) {
                    WaitState::Handed(req)
                } else {
                    waker.wake();
                    WaitState::Woken(req)
                };
                return;
            }
            _ => unreachable!("granted waiter still queued"),
        }
    }
    st.available += 1;
    debug_assert!(st.available <= st.capacity, "released more than capacity");
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
/// let wire = Resource::new(&sim, 1);
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
    /// Creates a resource of `sim` with `capacity` permits and the
    /// plain-wake hook.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(sim: &Sim, capacity: usize) -> Self {
        Self::with_hook(sim, capacity, PlainWake)
    }

    /// Acquires one permit, waiting FIFO behind earlier requesters.
    pub fn acquire(&self) -> Acquire {
        self.acquire_with(())
    }
}

impl<H: GrantHook> Resource<H> {
    /// Creates a resource of `sim` with `capacity` permits whose grants
    /// run `hook`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_hook(sim: &Sim, capacity: usize, hook: H) -> Self {
        assert!(capacity > 0, "resource capacity must be nonzero");
        Self {
            state: Rc::new(RefCell::new(ResourceState {
                sim: sim.clone(),
                capacity,
                available: capacity,
                queue: VecDeque::new(),
                waiting: 0,
                slots: Vec::new(),
                free: Vec::new(),
                armed: 0,
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

    /// Grants so far whose hook armed the grantee, each a poll the
    /// grantee did not take.
    pub fn armed_grants(&self) -> u64 {
        self.state.borrow().armed
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
        release(&self.state);
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
                match mem::replace(&mut s.state, WaitState::Cancelled) {
                    WaitState::Waiting(req) => {
                        s.state = WaitState::Waiting(req);
                        if !s.waker.as_ref().is_some_and(|w| w.will_wake(cx.waker())) {
                            s.waker = Some(cx.waker().clone());
                        }
                        this.state = AcquireState::Queued(i);
                        return Poll::Pending;
                    }
                    WaitState::Granted(outcome) => {
                        st.free.push(i);
                        outcome
                    }
                    // Woken without a grant entry: the hook runs here.
                    WaitState::Woken(req) => {
                        st.free.push(i);
                        st.grant_in_poll(req)
                    }
                    // Polled from another task than the one whose grant
                    // entry is queued: the hook runs here, and the entry
                    // only recycles the slot.
                    WaitState::Handed(req) => {
                        s.state = WaitState::Orphaned;
                        st.grant_in_poll(req)
                    }
                    WaitState::Orphaned | WaitState::Cancelled => {
                        unreachable!("polling a consumed acquire")
                    }
                }
            }
            AcquireState::Start(req) if st.queue.is_empty() && st.available > 0 => {
                st.available -= 1;
                st.grant_in_poll(req)
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
            let s = &mut st.slots[i as usize];
            s.waker = None;
            match mem::replace(&mut s.state, WaitState::Cancelled) {
                // Still queued: left for `release` to skip and recycle.
                WaitState::Waiting(_) => {
                    st.waiting -= 1;
                    return;
                }
                // Handed a permit it never saw: pass it on, so it is not
                // leaked. A grant entry still queued for this waiter runs
                // no hook, recycles the slot and polls the task at its
                // place.
                WaitState::Handed(_) => s.state = WaitState::Orphaned,
                // A grantee the hook armed keeps its timer, which polls it
                // at the end of the hold it gave up.
                WaitState::Woken(_) | WaitState::Granted(_) => st.free.push(i),
                WaitState::Orphaned | WaitState::Cancelled => {
                    unreachable!("dropping a consumed acquire")
                }
            }
            drop(st);
            release(&self.resource.state);
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
        let r = Resource::new(&sim, 2);
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
        let r = Resource::new(&sim, 1);
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
        let r = Resource::new(&sim, 3);
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
        let sim = Sim::new();
        let r = Resource::new(&sim, 1);
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
        let r = Resource::new(&sim, 1);
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
        let r = Resource::new(&sim, 1);
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
        let sim = Sim::new();
        let r = Resource::new(&sim, 1);
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
        let _ = Resource::new(&Sim::new(), 0);
    }

    /// A grant: the waiter's tag, when the hook ran, and whether it armed
    /// the grantee.
    type Logged = (u32, SimTime, bool);

    /// A hook that logs each grant and, when `hold` is set, ends the
    /// grantee's hold that long after the grant.
    struct LogHook {
        hold: Option<SimTime>,
        log: Rc<StdRefCell<Vec<Logged>>>,
    }

    impl GrantHook for LogHook {
        type Request = u32;
        /// When the hook ran, and the hold's sleep.
        type Outcome = (SimTime, Option<Sleep>);

        fn grant(&mut self, tag: u32, place: &mut GrantPlace<'_>) -> (SimTime, Option<Sleep>) {
            let now = place.sim().now();
            let hold = self.hold.map(|d| place.sleep_until(now + d));
            self.log
                .borrow_mut()
                .push((tag, now, place.armed().is_some()));
            (now, hold)
        }
    }

    fn logged(
        sim: &Sim,
        hold: Option<SimTime>,
    ) -> (Resource<LogHook>, Rc<StdRefCell<Vec<Logged>>>) {
        let log = Rc::new(StdRefCell::new(Vec::new()));
        let hook = LogHook {
            hold,
            log: Rc::clone(&log),
        };
        (Resource::with_hook(sim, 1, hook), log)
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
                let (_held, (granted_at, _)) = r.acquire_with(tag).await;
                resolved.borrow_mut().push((tag, granted_at, s.now()));
                s.sleep(SimTime::from_micros(10)).await;
            });
        }
        sim.run().unwrap();
        let us = SimTime::from_micros;
        // The first grant is immediate; each later one runs at the
        // grantee's place, at the instant the holder before it releases,
        // every 10 µs.
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
        assert_eq!(r.armed_grants(), 0);
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
        // A waiter polled by hand has no place in a ready queue: its hook
        // runs in the poll that sees the permit.
        assert!(poll_once(&mut waiters[1]).is_ready());
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
            let (_held, (granted_at, hold)) = r2.acquire_with(2).await;
            hold.expect("a hold").await;
            (granted_at, s.now())
        });
        // At 5, after tag 0's release handed tag 1 the permit but before
        // tag 1's place, drop tag 1's acquire.
        let s = sim.clone();
        sim.spawn(async move {
            s.sleep(ns(5)).await;
            drop(cell.borrow_mut().take());
        });
        sim.run().unwrap();
        // Tag 1's hook never ran; the permit passed on to tag 2, whose
        // hook armed it at its place for 15.
        assert_eq!(*log.borrow(), [(0, ns(0), false), (2, ns(5), true)]);
        assert_eq!(h.try_result(), Some((ns(5), ns(15))));
        // Tag 1's task was polled at 5, where its grant entry queued it.
        assert_eq!(dropped.try_result(), Some(ns(5)));
        assert_eq!(r.armed_grants(), 1);
    }

    #[test]
    fn a_handed_acquire_polled_from_another_task_runs_its_hook_there() {
        let sim = Sim::new();
        let ns = SimTime::from_nanos;
        let (r, log) = logged(&sim, None);
        // Tag 0 holds the permit until 5.
        let (s, r0) = (sim.clone(), r.clone());
        sim.spawn(async move {
            let _held = r0.acquire_with(0).await;
            s.sleep(ns(5)).await;
        });
        // Task A queues tag 1 with its own waker, then leaves the acquire
        // to task B, which wakes at 5 ahead of A's grant entry.
        let cell = Rc::new(StdRefCell::new(None));
        let (s, c, r1) = (sim.clone(), Rc::clone(&cell), r.clone());
        sim.spawn(async move {
            let mut acq = r1.acquire_with(1);
            std::future::poll_fn(|cx| {
                assert!(Pin::new(&mut acq).poll(cx).is_pending());
                Poll::Ready(())
            })
            .await;
            *c.borrow_mut() = Some(acq);
            s.sleep(ns(10)).await;
        });
        let s = sim.clone();
        let b = sim.spawn(async move {
            s.sleep(ns(5)).await;
            let acq = cell.borrow_mut().take().expect("left by A");
            let (_held, (granted_at, _)) = acq.await;
            (granted_at, s.now())
        });
        sim.run().unwrap();
        assert_eq!(b.try_result(), Some((ns(5), ns(5))));
        assert_eq!(*log.borrow(), [(0, ns(0), false), (1, ns(5), false)]);
        // A's grant entry recycled the slot: a new waiter reuses it.
        assert_eq!((r.available(), r.queue_len()), (1, 0));
        let Poll::Ready((held, _)) = poll_once(&mut r.acquire_with(2)) else {
            panic!("free permit not granted");
        };
        let mut next = r.acquire_with(3);
        assert!(poll_once(&mut next).is_pending());
        assert_eq!(r.state.borrow().slots.len(), 1);
        drop(held);
        assert!(poll_once(&mut next).is_ready());
    }
}
