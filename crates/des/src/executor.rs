//! The deterministic task executor and simulated clock.
//!
//! Tasks are ordinary Rust `Future`s polled by a single-threaded run loop.
//! The loop alternates two steps: drain the FIFO ready queue, then advance
//! the clock to the earliest pending timer and wake the sleepers registered
//! there. The simulation finishes when every non-daemon task has completed;
//! daemon tasks (e.g. periodic writeback syncers, which loop forever) do not
//! keep the simulation alive.
//!
//! A sleep whose wake is provably the loop's next event resumes inline:
//! when the polled task sleeps, nothing else is runnable, and no timer is
//! due at or before its deadline, the loop's next move would be to advance
//! the clock to that deadline and poll this task again. [`Sleep`] makes
//! that move itself — it sets the clock and completes in the same poll —
//! so no timer is registered and the task is not parked and re-polled.
//! Every task still runs at the same simulated instants in the same
//! order; only the poll count ([`RunReport::events`]) drops. The exact
//! conditions are on [`Sleep`] (and PERF.md invariant 16).
//!
//! Some of a task's work can be done at its *place* in the ready queue,
//! where its poll would have run, without polling it: a *place entry*
//! stands there, and the run loop does that work through a small side
//! table of kinded records (`Sim::fire_place`). Four kinds exist:
//! - an armed spawn ([`Sim::spawn_at`]) registers the new task's first
//!   timer;
//! - a grant entry, queued by a [`crate::Resource`] that hands a released
//!   permit to a waiter, runs the resource's [`crate::GrantHook`] as the
//!   task; a hook that knows the grantee's hold time *arms* it, and the
//!   loop registers the end-of-hold timer;
//! - an idle tick ([`Sim::idle_ticks`]) checks the task's predicate and,
//!   while it finds no work, registers the next tick;
//! - a step ([`Sim::stepped`]) runs the next legs of a task's
//!   [`StepMachine`], pinned in the task's future, as the task: it arms
//!   the timer of the next step and keeps its record, parks the task as
//!   a resource waiter whose grant entry comes to that record, or has the
//!   task polled.
//!
//! Each timer takes the sequence number the task's own sleep would have
//! drawn at that place, so the poll that would only have registered it
//! is gone and nothing else moves (PERF.md invariant 17).
//!
//! Each task carries one tag word ([`Sim::tag_current`]), read during its
//! polls as [`Sim::current_tag`] and counted per poll by its class
//! ([`Sim::polls_by_tag`]).

use std::alloc::Layout;
use std::cell::{Cell, RefCell, UnsafeCell};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;
use std::future::Future;
use std::marker::PhantomPinned;
use std::mem::ManuallyDrop;
use std::pin::Pin;
use std::ptr::NonNull;
use std::rc::Rc;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};

use crate::resource::{GrantPlace, HandedGrants};
use crate::sync::{oneshot, OneshotReceiver};
use crate::time::SimTime;

/// Identifier of a spawned task: slot index in the low 32 bits, generation
/// in the high 32 bits (so a stale waker cannot poll a recycled slot).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) struct TaskId(u64);

impl TaskId {
    fn new(slot: u32, generation: u32) -> Self {
        Self(((generation as u64) << 32) | slot as u64)
    }

    fn slot(self) -> usize {
        (self.0 & 0xffff_ffff) as usize
    }

    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }

    /// The ready-queue or timer entry of the task's place entry: the id
    /// with [`PLACE`] set in its slot half.
    fn at_place(self) -> Self {
        Self(self.0 | PLACE)
    }

    fn is_place(self) -> bool {
        self.0 & PLACE != 0
    }

    fn unmarked(self) -> Self {
        Self(self.0 & !PLACE)
    }
}

/// Marks a place entry. Slot indices stay far below 2^31.
const PLACE: u64 = 1 << 31;

/// No task: a marked slot index no task has.
const NO_TASK: TaskId = TaskId(u64::MAX);

/// Number of task tag classes: a tag's class is `tag % TAG_CLASSES`, and
/// [`Sim::polls_by_tag`] and [`Sim::armed_by_tag`] count per class. The
/// bits above the class are the tagger's own.
pub const TAG_CLASSES: usize = 16;

/// A value of an erased type in a block from the thread-local layout pool
/// (`pool::palloc`/`pool::pfree`): `Box<dyn …>` semantics without the
/// global allocator in steady state. The block never moves, so a future
/// stored in it stays pinned. Spawning used to `Box::pin` every task
/// future; in flush-heavy simulations that was the dominant allocator
/// traffic (the engine spawns a ~1 KiB writeback state machine per dirty
/// block).
struct Pooled {
    ptr: NonNull<u8>,
    /// Drops the payload in place *and* returns the block to the pool.
    drop_fn: unsafe fn(NonNull<u8>),
}

impl Pooled {
    fn new<T: 'static>(value: T) -> Self {
        unsafe fn drop_impl<T>(p: NonNull<u8>) {
            // SAFETY: `p` holds a valid, initialized `T`, from `palloc`
            // unless `T` is zero-sized.
            unsafe {
                std::ptr::drop_in_place(p.cast::<T>().as_ptr());
                if std::mem::size_of::<T>() > 0 {
                    crate::pool::pfree(p, Layout::new::<T>());
                }
            }
        }
        let ptr = if std::mem::size_of::<T>() == 0 {
            NonNull::dangling()
        } else {
            crate::pool::palloc(Layout::new::<T>())
        };
        // SAFETY: a fresh block of `T`'s layout (or, for a zero-sized
        // `T`, a dangling aligned pointer, which a write of it may use).
        unsafe { ptr.cast::<T>().as_ptr().write(value) };
        Self {
            ptr,
            drop_fn: drop_impl::<T>,
        }
    }
}

impl Drop for Pooled {
    fn drop(&mut self) {
        // SAFETY: payload is valid until this first and only drop.
        unsafe { (self.drop_fn)(self.ptr) };
    }
}

/// A pooled, pinned, type-erased task future: `Pin<Box<dyn Future>>`
/// semantics over a [`Pooled`] block.
struct TaskFuture {
    block: Pooled,
    poll_fn: unsafe fn(NonNull<u8>, &mut Context<'_>) -> Poll<()>,
}

impl TaskFuture {
    fn new<F>(future: F) -> Self
    where
        F: Future<Output = ()> + 'static,
    {
        unsafe fn poll_impl<F: Future<Output = ()>>(
            p: NonNull<u8>,
            cx: &mut Context<'_>,
        ) -> Poll<()> {
            // SAFETY: `p` holds a valid `F` that never moves (pooled
            // block, released only on drop), so pinning it is sound.
            unsafe { Pin::new_unchecked(&mut *p.cast::<F>().as_ptr()).poll(cx) }
        }
        Self {
            block: Pooled::new(future),
            poll_fn: poll_impl::<F>,
        }
    }
}

/// A pooled, type-erased idle predicate of [`Sim::idle_ticks`]:
/// `Box<dyn Fn() -> bool>` semantics over a [`Pooled`] block.
struct IdlePred {
    block: Pooled,
    call_fn: unsafe fn(NonNull<u8>) -> bool,
}

impl IdlePred {
    fn new<P: Fn() -> bool + 'static>(idle: P) -> Self {
        unsafe fn call_impl<P: Fn() -> bool>(p: NonNull<u8>) -> bool {
            // SAFETY: `p` holds a valid `P` until the block is dropped.
            unsafe { (*p.cast::<P>().as_ptr())() }
        }
        Self {
            block: Pooled::new(idle),
            call_fn: call_impl::<P>,
        }
    }

    fn is_idle(&self) -> bool {
        // SAFETY: `call_fn` was built for the type stored in `block`.
        unsafe { (self.call_fn)(self.block.ptr) }
    }
}

/// The run loop's record of a task parked in [`IdleTicks`], read at each
/// of its ticks.
struct IdleTick {
    period: SimTime,
    /// Deadline of the pending tick's timer.
    next: SimTime,
    idle: IdlePred,
}

/// A grant handed to a task: the resource that runs its hook, and the
/// waiter slot.
struct PendingGrant {
    resource: Rc<dyn HandedGrants>,
    waiter: u32,
}

/// A pinned [`Stepped`] machine, type-erased: the pointer and the
/// function that runs it at its task's place.
#[derive(Clone, Copy)]
struct StepFn {
    ptr: NonNull<()>,
    run: unsafe fn(NonNull<()>, &mut Context<'_>) -> StepDone,
}

/// What a step run at its task's place asks of the run loop.
enum StepDone {
    /// Register a timer for this deadline that runs the next step.
    Arm(SimTime),
    /// Nothing: the task waits as a resource waiter, whose grant entry
    /// comes to this record.
    Park,
    /// Poll the task.
    Poll,
}

/// What a place entry does, read from its task's record.
enum Work {
    /// Take the record and do its work ([`Sim::enter`]).
    Enter(Place),
    /// Run the grant that joined a step record, which stays.
    StepGrant(PendingGrant, StepFn),
    /// Run the step due now.
    Step(StepFn),
}

/// The run loop's record of a task whose [`Stepped`] machine waits
/// between polls.
struct StepRec {
    step: StepFn,
    /// Deadline of the timer that runs the next step; none while the
    /// task waits as a resource waiter.
    due: Option<SimTime>,
    /// A grant handed to that waiter, run first at the record's entry.
    grant: Option<PendingGrant>,
}

/// The work a place entry does instead of polling its task.
enum Place {
    /// An armed spawn: register the task's first timer, for this deadline.
    Armed(SimTime),
    /// A grant handed to the task: run the resource's hook as the task.
    Grant(PendingGrant),
    /// A task parked in idle ticks: check its predicate at each tick.
    Idle(IdleTick),
    /// A task awaiting a [`Stepped`] machine: run its next step.
    Step(StepRec),
}

/// The place records of the tasks that hold one, in a slab whose entries
/// are recycled: few tasks hold one at once, so it stays small however
/// many tasks the simulation has.
#[derive(Default)]
struct Places {
    records: Vec<Option<Place>>,
    free: Vec<u32>,
}

impl Places {
    fn with_capacity(n: usize) -> Self {
        Self {
            records: Vec::with_capacity(n),
            free: Vec::with_capacity(n),
        }
    }

    fn insert(&mut self, place: Place) -> u32 {
        match self.free.pop() {
            Some(i) => {
                self.records[i as usize] = Some(place);
                i
            }
            None => {
                self.records.push(Some(place));
                (self.records.len() - 1) as u32
            }
        }
    }

    /// The record at `i`; none for [`NO_PLACE`].
    fn get_mut(&mut self, i: u32) -> Option<&mut Place> {
        self.records.get_mut(i as usize)?.as_mut()
    }

    /// Whether the record at `i` is an idle ticker's.
    fn is_idle(&self, i: u32) -> bool {
        matches!(self.records.get(i as usize), Some(Some(Place::Idle(_))))
    }

    /// The step record at `i`, when it runs the machine at `ptr`.
    fn step_of(&mut self, i: u32, ptr: NonNull<()>) -> Option<&mut StepRec> {
        match self.get_mut(i)? {
            Place::Step(s) if s.step.ptr == ptr => Some(s),
            _ => None,
        }
    }

    fn take(&mut self, i: u32) -> Place {
        self.free.push(i);
        self.records[i as usize]
            .take()
            .expect("a slot's place index names a record")
    }
}

/// [`Slot::place`] of a task that holds no place record.
const NO_PLACE: u32 = u32::MAX;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum SlotState {
    /// No task; `generation` is the next to assign and `waker` (if any) is
    /// the previous task's block, kept for rebinding.
    Free,
    /// A parked task waiting to be polled.
    Parked,
    /// The task is currently being polled. The future stays in the slot
    /// (it is heap-pinned, so the slot vector may grow under it), but no
    /// one else may touch it.
    Running,
}

/// One task slot. A struct rather than an enum so `poll_task` can run the
/// future *in place* — flipping `state` and copying out the two raw
/// pointers — instead of shuffling a large enum payload out and back on
/// every poll.
struct Slot {
    state: SlotState,
    daemon: bool,
    /// Index of the task's record in [`SimInner::places`], or
    /// [`NO_PLACE`].
    place: u32,
    /// The task's tag ([`Sim::tag_current`]); 0 until the task sets one.
    tag: u32,
    /// Current generation while Parked/Running; next to assign while Free.
    generation: u32,
    future: Option<TaskFuture>,
    waker: Option<Waker>,
}

/// FIFO ready queue shared with wakers.
///
/// The executor is single-threaded, but `std::task::Waker` requires
/// `Send + Sync`. Taking a mutex on every push/pop put a lock acquisition
/// (and its fence) on the hottest path of the simulator, even though it is
/// never contended in practice. Instead the queue records the thread that
/// created the simulation and keeps a plain `VecDeque` for that thread;
/// only a waker that fires from a *different* thread (possible if a task
/// output's waker escapes, e.g. through a panic-unwind payload) falls back
/// to a mutex-protected side queue, drained by the owner before each pop.
///
/// Safety argument: `local` is touched only after verifying the caller's
/// [`thread_token`] matches `owner`, so at most one thread at a time ever
/// holds a reference into it (token addresses are unique among live
/// threads); cross-thread pushes go exclusively through `remote`. A token
/// address can recur only after the owner thread exits — at which point the
/// owner no longer touches `local`, and the TLS block's reuse through the
/// allocator orders the old accesses before the new thread's.
struct ReadyQueue {
    owner: usize,
    local: UnsafeCell<VecDeque<TaskId>>,
    remote: Mutex<Vec<TaskId>>,
    has_remote: AtomicBool,
}

thread_local! {
    /// Identity anchor: the address of this thread-local is unique per live
    /// thread, giving a thread-identity check that is one TLS address
    /// computation instead of `thread::current()`'s `Arc<Thread>` clone —
    /// `ReadyQueue::push` runs on every waker wake.
    static THREAD_TOKEN: u8 = const { 0 };
}

fn thread_token() -> usize {
    THREAD_TOKEN.with(|t| t as *const u8 as usize)
}

// SAFETY: `local` is only accessed from `owner` (checked at runtime);
// everything else is `Sync` on its own.
unsafe impl Send for ReadyQueue {}
unsafe impl Sync for ReadyQueue {}

impl ReadyQueue {
    fn new() -> Self {
        Self {
            owner: thread_token(),
            local: UnsafeCell::new(VecDeque::with_capacity(256)),
            remote: Mutex::new(Vec::new()),
            has_remote: AtomicBool::new(false),
        }
    }

    fn push(&self, id: TaskId) {
        if thread_token() == self.owner {
            // SAFETY: we are the owner thread; no other thread touches
            // `local` (see type-level comment).
            unsafe { (*self.local.get()).push_back(id) };
        } else {
            self.remote.lock().expect("ready queue poisoned").push(id);
            self.has_remote.store(true, Ordering::Release);
        }
    }

    /// Push from the executor itself (spawn, timer fire). `Sim` is `!Send`,
    /// so these call sites are always on the owner thread and can skip the
    /// thread-id check that `push` pays for waker-originated wakes.
    fn push_owner(&self, id: TaskId) {
        debug_assert_eq!(thread_token(), self.owner);
        // SAFETY: owner thread only, as asserted above.
        unsafe { (*self.local.get()).push_back(id) };
    }

    /// True when no task is waiting to be polled, local or remote. Must be
    /// called from the owner thread; enforced with a debug assertion.
    fn is_empty(&self) -> bool {
        debug_assert_eq!(
            thread_token(),
            self.owner,
            "ReadyQueue::is_empty from non-owner thread"
        );
        // SAFETY: owner thread only, as asserted above; the shared borrow
        // ends before this returns, so no `&mut` from `push`/`pop` overlaps.
        !self.has_remote.load(Ordering::Acquire) && unsafe { (*self.local.get()).is_empty() }
    }

    /// Pops the next ready task. Must be called from the owner thread (the
    /// run loop); enforced with a debug assertion.
    fn pop(&self) -> Option<TaskId> {
        debug_assert_eq!(
            thread_token(),
            self.owner,
            "ReadyQueue::pop from non-owner thread"
        );
        // SAFETY: owner thread only, as asserted above.
        let local = unsafe { &mut *self.local.get() };
        // A plain load keeps the uncontended hot path free of atomic
        // read-modify-writes; the swap runs only when a remote wake
        // actually happened.
        if self.has_remote.load(Ordering::Acquire) && self.has_remote.swap(false, Ordering::Acquire)
        {
            local.extend(self.remote.lock().expect("ready queue poisoned").drain(..));
        }
        local.pop_front()
    }
}

/// Refcounted waker payload: "wake task `id` by pushing it on `ready`".
///
/// Hand-rolled instead of `Arc<W> → Waker` so a retired task's block can be
/// reused in place: when a slot is recycled and the old block's refcount is
/// 1 (no outstanding clones in timers, channels, or resource queues — the
/// common case), the new task just rewrites `id` instead of allocating.
/// Stale clones from an earlier generation keep their old `id` bits, so
/// their wakes still fail the generation check exactly as before.
#[repr(C)]
struct WakerBlock {
    refs: AtomicUsize,
    /// `TaskId` bits; atomic because a clone on a foreign thread may read
    /// it while the owner thread is long past this generation.
    id: AtomicU64,
    ready: ManuallyDrop<Arc<ReadyQueue>>,
}

static WAKER_VTABLE: RawWakerVTable =
    RawWakerVTable::new(wb_clone, wb_wake, wb_wake_by_ref, wb_drop);

unsafe fn wb_clone(p: *const ()) -> RawWaker {
    // SAFETY: `p` came from `new_task_waker`'s block and is kept alive by the
    // refcount this clone participates in.
    unsafe { &*(p as *const WakerBlock) }
        .refs
        .fetch_add(1, Ordering::Relaxed);
    RawWaker::new(p, &WAKER_VTABLE)
}

unsafe fn wb_wake_by_ref(p: *const ()) {
    // SAFETY: as in `wb_clone`.
    let b = unsafe { &*(p as *const WakerBlock) };
    b.ready.push(TaskId(b.id.load(Ordering::Relaxed)));
}

unsafe fn wb_wake(p: *const ()) {
    // SAFETY: consuming wake = wake by ref, then drop our reference.
    unsafe {
        wb_wake_by_ref(p);
        wb_drop(p);
    }
}

unsafe fn wb_drop(p: *const ()) {
    // SAFETY: matches one reference created by `new_task_waker`/`wb_clone`.
    let b = unsafe { &*(p as *const WakerBlock) };
    if b.refs.fetch_sub(1, Ordering::Release) == 1 {
        fence(Ordering::Acquire);
        let block = p as *mut WakerBlock;
        // SAFETY: last reference: release the queue handle, then return
        // the block (from `palloc` in `new_task_waker`) to the pool.
        unsafe {
            ManuallyDrop::drop(&mut (*block).ready);
            crate::pool::pfree(
                NonNull::new_unchecked(block.cast()),
                Layout::new::<WakerBlock>(),
            );
        }
    }
}

/// Builds a slot waker. The block comes from the thread's layout pool, so
/// the slots of a new simulation reuse the blocks an earlier one released
/// at shutdown instead of allocating one per slot.
fn new_task_waker(id: TaskId, ready: Arc<ReadyQueue>) -> Waker {
    let block = crate::pool::palloc(Layout::new::<WakerBlock>()).cast::<WakerBlock>();
    // SAFETY: fresh block of `WakerBlock`'s layout.
    unsafe {
        block.as_ptr().write(WakerBlock {
            refs: AtomicUsize::new(1),
            id: AtomicU64::new(id.0),
            ready: ManuallyDrop::new(ready),
        });
    }
    // SAFETY: vtable functions uphold the RawWaker contract over `block`.
    unsafe { Waker::from_raw(RawWaker::new(block.as_ptr() as *const (), &WAKER_VTABLE)) }
}

/// Rebinds `waker` (a slot waker built by [`new_task_waker`]) to a new
/// task id if no clones are outstanding. Returns false when clones exist,
/// in which case the caller must allocate a fresh block (the stale block
/// keeps its old id and dies when its clones do).
fn try_rebind_waker(waker: &Waker, id: TaskId) -> bool {
    // SAFETY: slot wakers always come from `new_task_waker`.
    let b = unsafe { &*(waker.data() as *const WakerBlock) };
    // Acquire pairs with the Release decrement in `wb_drop`, so everything
    // a foreign clone did with the block happened-before this rebind.
    if b.refs.load(Ordering::Acquire) == 1 {
        b.id.store(id.0, Ordering::Relaxed);
        true
    } else {
        false
    }
}

/// A timer registration: wake the sleeper once the clock reaches `deadline`.
///
/// The common case — a task awaiting `Sim::sleep` directly or through
/// combinators that pass the task waker through unchanged — is recognized
/// at registration time (the context waker's data pointer matches the
/// waker of the task currently being polled) and stored as bare [`TaskId`]
/// bits. Firing it is a plain ready-queue push: no `Waker` clone at
/// registration, no atomic refcount traffic, no dynamic dispatch. Foreign
/// wakers (tests polling by hand, adapters that wrap the waker) keep the
/// general clone-and-wake path through a boxed `Waker`.
///
/// The representation is packed to 24 bytes — heap sift-up/down moves
/// entries around constantly, and this is the run loop's hottest data
/// structure. `seq_kind` is `(registration_seq << 1) | is_foreign`, which
/// is monotone in registration order, so ordering by `(deadline,
/// seq_kind)` preserves the documented deadline-then-registration order.
struct TimerEntry {
    deadline: SimTime,
    seq_kind: u64,
    /// `TaskId` bits, or a `Box<Waker>` raw pointer when the foreign bit
    /// of `seq_kind` is set (null once fired).
    payload: u64,
}

impl TimerEntry {
    fn task(deadline: SimTime, seq: u64, id: TaskId) -> Self {
        Self {
            deadline,
            seq_kind: seq << 1,
            payload: id.0,
        }
    }

    fn foreign(deadline: SimTime, seq: u64, waker: Waker) -> Self {
        Self {
            deadline,
            seq_kind: (seq << 1) | 1,
            payload: Box::into_raw(Box::new(waker)) as u64,
        }
    }

    fn is_task(&self) -> bool {
        self.seq_kind & 1 == 0
    }

    /// For a task entry, the id to wake.
    fn task_id(&self) -> TaskId {
        debug_assert!(self.is_task());
        TaskId(self.payload)
    }

    /// For a foreign entry, takes ownership of the boxed waker.
    fn take_foreign(&mut self) -> Waker {
        debug_assert!(!self.is_task() && self.payload != 0);
        let b = self.payload as *mut Waker;
        self.payload = 0;
        // SAFETY: set from `Box::into_raw` in `foreign`, taken only once.
        *unsafe { Box::from_raw(b) }
    }
}

impl Drop for TimerEntry {
    fn drop(&mut self) {
        if !self.is_task() && self.payload != 0 {
            // SAFETY: as in `take_foreign`; entry dropped without firing.
            drop(unsafe { Box::from_raw(self.payload as *mut Waker) });
        }
    }
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline && self.seq_kind == other.seq_kind
    }
}

impl Eq for TimerEntry {}

impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deadline, self.seq_kind).cmp(&(other.deadline, other.seq_kind))
    }
}

struct SimInner {
    now: Cell<SimTime>,
    timers: RefCell<BinaryHeap<Reverse<TimerEntry>>>,
    ready: Arc<ReadyQueue>,
    slots: RefCell<Vec<Slot>>,
    free_slots: RefCell<Vec<u32>>,
    live_tasks: Cell<usize>,
    timer_seq: Cell<u64>,
    /// Polls so far, by the polled task's tag class.
    polls: [Cell<u64>; TAG_CLASSES],
    /// Place entries so far that registered a timer instead of a poll,
    /// by the task's tag class.
    armed: [Cell<u64>; TAG_CLASSES],
    /// Steps so far that ran at their task's place and did not end in a
    /// poll; each also counts in `armed`.
    placed_steps: Cell<u64>,
    /// Place records, one per task at most. Kept beside the slots so a
    /// slot stays small.
    places: RefCell<Places>,
    /// The task currently inside `poll_task`, with its waker's data
    /// pointer so `register_timer` can detect "the context waker IS this
    /// task's waker" without comparing vtables. Cleared on poll exit so a
    /// stale pointer can never match a later registration.
    current_poll: Cell<Option<CurrentPoll>>,
    /// The active `run_until` limit: a sleep may not run ahead past it.
    limit: Cell<SimTime>,
    /// Test-only switch for inline run-ahead, so tests can compare a run
    /// against the plain park-and-wake schedule.
    #[cfg(test)]
    run_ahead: Cell<bool>,
}

/// What the run loop knows of the task it is polling.
#[derive(Clone, Copy)]
struct CurrentPoll {
    id: TaskId,
    waker_data: *const (),
    tag: u32,
}

/// Sets the current-poll record back to what it was when dropped, even if
/// the poll or hook in between panics, so a dangling waker data pointer
/// can never match a later registration.
struct RestorePoll<'a>(&'a Cell<Option<CurrentPoll>>, Option<CurrentPoll>);

impl Drop for RestorePoll<'_> {
    fn drop(&mut self) {
        self.0.set(self.1);
    }
}

thread_local! {
    /// Multi-child combinators ([`crate::completion::WaitAll`]) currently
    /// on this thread's poll stack. Such a combinator keeps polling later
    /// children with the same context after an earlier one returns
    /// `Pending`, so a clock moved by one child's sleep would leak into
    /// the next child's deadline: inside one, no sleep runs ahead.
    static RUN_AHEAD_BARRIERS: Cell<u32> = const { Cell::new(0) };
}

/// Bars inline run-ahead on this thread while alive. Held by a combinator
/// for the duration of each poll that steps several children with one
/// context.
pub(crate) struct RunAheadBarrier(());

impl RunAheadBarrier {
    pub(crate) fn enter() -> Self {
        RUN_AHEAD_BARRIERS.with(|d| d.set(d.get() + 1));
        Self(())
    }
}

impl Drop for RunAheadBarrier {
    fn drop(&mut self) {
        RUN_AHEAD_BARRIERS.with(|d| d.set(d.get() - 1));
    }
}

/// Handle to a simulation: clock, spawner, and run loop.
///
/// `Sim` is a cheap `Rc` clone; tasks capture clones to sleep and spawn.
/// Call [`Sim::run`] after spawning the initial tasks.
#[derive(Clone)]
pub struct Sim {
    inner: Rc<SimInner>,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// Creates a fresh simulation with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        // Pre-size the timer heap, the task slab and the place table
        // beside it: simulations register thousands of timers and tasks,
        // and growth reallocations would land mid-run on the hot path.
        // Every task waiting in a step machine holds a place record: a
        // one-host run's write-through flushes keep hundreds of them.
        Self {
            inner: Rc::new(SimInner {
                now: Cell::new(SimTime::ZERO),
                timers: RefCell::new(BinaryHeap::with_capacity(1024)),
                ready: Arc::new(ReadyQueue::new()),
                slots: RefCell::new(Vec::with_capacity(256)),
                free_slots: RefCell::new(Vec::with_capacity(256)),
                live_tasks: Cell::new(0),
                timer_seq: Cell::new(0),
                polls: Default::default(),
                armed: Default::default(),
                placed_steps: Cell::new(0),
                places: RefCell::new(Places::with_capacity(1024)),
                current_poll: Cell::new(None),
                limit: Cell::new(SimTime::ZERO),
                #[cfg(test)]
                run_ahead: Cell::new(true),
            }),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.inner.now.get()
    }

    /// Total task polls performed so far (a cheap event-count metric). A
    /// sleep that resumes inline happens inside a poll and adds none.
    pub fn events_processed(&self) -> u64 {
        self.inner.polls.iter().map(Cell::get).sum()
    }

    /// Polls so far by tag class (`tag % TAG_CLASSES`; untagged is 0),
    /// summing to [`Sim::events_processed`]. A poll counts under the tag
    /// its task holds when the poll returns, the tagging poll included.
    pub fn polls_by_tag(&self) -> [u64; TAG_CLASSES] {
        std::array::from_fn(|c| self.inner.polls[c].get())
    }

    /// Place entries so far that did a task's work instead of polling
    /// it, by the task's tag class: armed spawns ([`Sim::spawn_at`]),
    /// grants whose hook armed the grantee
    /// ([`crate::GrantPlace::sleep_until`]), idle ticks re-armed
    /// ([`Sim::idle_ticks`]) and placed steps ([`Sim::placed_steps`]).
    /// Each is a poll the task did not take, and not a poll:
    /// [`Sim::events_processed`] does not count them. An armed spawn has
    /// not run yet, so it counts as untagged.
    pub fn armed_by_tag(&self) -> [u64; TAG_CLASSES] {
        std::array::from_fn(|c| self.inner.armed[c].get())
    }

    /// Steps of [`Stepped`] machines so far that ran at their task's
    /// place and ended in a timer or a resource wait, not a poll. Each
    /// also counts in [`Sim::armed_by_tag`].
    pub fn placed_steps(&self) -> u64 {
        self.inner.placed_steps.get()
    }

    fn count_armed(&self, tag: u32) {
        let armed = &self.inner.armed[tag as usize % TAG_CLASSES];
        armed.set(armed.get() + 1);
    }

    /// The tag of the task being polled; 0 outside any poll and for a
    /// task that has not tagged itself.
    ///
    /// Whatever runs inside a poll reads the polled task's tag. A
    /// [`crate::GrantHook::grant`] runs as its grantee, so it reads the
    /// grantee's tag.
    pub fn current_tag(&self) -> u32 {
        self.inner.current_poll.get().map_or(0, |p| p.tag)
    }

    /// Sets the polled task's tag, from this poll on; does nothing outside
    /// a poll. Tags are never inherited: a task starts untagged and tags
    /// itself, typically first thing. A tag changes nothing the simulation
    /// does.
    pub fn tag_current(&self, tag: u32) {
        let Some(mut current) = self.inner.current_poll.get() else {
            return;
        };
        self.inner.slots.borrow_mut()[current.id.slot()].tag = tag;
        current.tag = tag;
        self.inner.current_poll.set(Some(current));
    }

    /// Number of live (incomplete) non-daemon tasks.
    pub fn live_tasks(&self) -> usize {
        self.inner.live_tasks.get()
    }

    /// Spawns a task; the simulation runs until all non-daemon tasks finish.
    ///
    /// Returns a [`JoinHandle`] that can be awaited inside the simulation or
    /// queried with [`JoinHandle::try_result`] after [`Sim::run`] returns.
    pub fn spawn<F>(&self, future: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        self.spawn_inner(future, false, SimTime::ZERO)
    }

    /// Spawns a daemon task: it runs like any other task but does not keep
    /// the simulation alive (used for periodic syncer threads that loop
    /// forever).
    pub fn spawn_daemon<F>(&self, future: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        self.spawn_inner(future, true, SimTime::ZERO)
    }

    /// Spawns a task whose first poll would only start a sleep until
    /// `deadline`: the same as spawning `async { sim.sleep_until(deadline)
    /// .await; future.await }`, minus that first poll. The task is queued
    /// armed, where a spawn queues it; when the run loop reaches the entry
    /// it registers the task's timer for `deadline` there, with the
    /// sequence number the first poll's sleep would have drawn, and
    /// `future` is first polled when that timer fires. A `deadline` not
    /// after now spawns the task plainly.
    pub fn spawn_at<F>(&self, deadline: SimTime, future: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        self.spawn_inner(future, false, deadline)
    }

    /// [`Sim::spawn_at`] for a daemon task ([`Sim::spawn_daemon`]).
    pub fn spawn_daemon_at<F>(&self, deadline: SimTime, future: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        self.spawn_inner(future, true, deadline)
    }

    /// Spawns `future`, armed for `at` when that is after now.
    fn spawn_inner<F>(&self, future: F, daemon: bool, at: SimTime) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        let (tx, rx) = oneshot();
        let wrapped = TaskFuture::new(async move {
            let out = future.await;
            // The receiver may have been dropped; that's fine.
            let _ = tx.send(out);
        });

        let mut slots = self.inner.slots.borrow_mut();
        let slot_idx = match self.inner.free_slots.borrow_mut().pop() {
            Some(idx) => {
                debug_assert_eq!(slots[idx as usize].state, SlotState::Free);
                idx
            }
            None => {
                slots.push(Slot {
                    state: SlotState::Free,
                    daemon: false,
                    place: NO_PLACE,
                    tag: 0,
                    generation: 0,
                    future: None,
                    waker: None,
                });
                (slots.len() - 1) as u32
            }
        };
        let slot = &mut slots[slot_idx as usize];
        let generation = slot.generation;
        let id = TaskId::new(slot_idx, generation);
        match &slot.waker {
            Some(w) if try_rebind_waker(w, id) => {}
            _ => slot.waker = Some(new_task_waker(id, Arc::clone(&self.inner.ready))),
        }
        slot.state = SlotState::Parked;
        slot.daemon = daemon;
        slot.tag = 0;
        slot.future = Some(wrapped);
        let armed = at > self.now();
        slot.place = if armed {
            self.inner.places.borrow_mut().insert(Place::Armed(at))
        } else {
            NO_PLACE
        };
        drop(slots);

        if !daemon {
            self.inner.live_tasks.set(self.inner.live_tasks.get() + 1);
        }
        self.inner
            .ready
            .push_owner(if armed { id.at_place() } else { id });
        JoinHandle { rx }
    }

    /// Returns a future that completes once the clock has advanced by `d`.
    pub fn sleep(&self, d: SimTime) -> Sleep {
        let deadline = self.now().checked_add(d).expect("simulated clock overflow");
        Sleep::new(self.clone(), deadline, false)
    }

    /// Returns a future that completes when the clock reaches `deadline`
    /// (immediately if it already has).
    pub fn sleep_until(&self, deadline: SimTime) -> Sleep {
        Sleep::new(self.clone(), deadline, false)
    }

    /// Registers `waker` to fire at `deadline`.
    ///
    /// When `waker` is the waker of the task currently being polled (the
    /// overwhelmingly common case: a task awaiting a sleep, possibly through
    /// pass-the-context-through combinators), only its [`TaskId`] is stored
    /// — no clone, no refcount. Anything else is cloned and woken
    /// dynamically, exactly as before.
    pub(crate) fn register_timer(&self, deadline: SimTime, waker: &Waker) {
        match self.polled_by(waker) {
            Some(id) => self.register_task_timer(deadline, id),
            None => {
                let seq = self.next_timer_seq();
                let entry = TimerEntry::foreign(deadline, seq, waker.clone());
                self.inner.timers.borrow_mut().push(Reverse(entry));
            }
        }
    }

    /// The polled task, when `waker` is its own waker.
    fn polled_by(&self, waker: &Waker) -> Option<TaskId> {
        let p = self.inner.current_poll.get()?;
        std::ptr::eq(p.waker_data, waker.data()).then_some(p.id)
    }

    fn register_task_timer(&self, deadline: SimTime, id: TaskId) {
        let seq = self.next_timer_seq();
        let entry = TimerEntry::task(deadline, seq, id);
        self.inner.timers.borrow_mut().push(Reverse(entry));
    }

    fn next_timer_seq(&self) -> u64 {
        let seq = self.inner.timer_seq.get();
        self.inner.timer_seq.set(seq + 1);
        seq
    }

    /// Queues the grant of waiter slot `waiter` of `resource` for the task
    /// of `waker`: a place entry at this place in the ready queue, where a
    /// wake would have gone. The run loop runs the resource's hook there
    /// ([`Sim::fire_place`]), or just before the task's poll if something
    /// else polls it first.
    ///
    /// A task whose [`Stepped`] machine waits as this waiter keeps its
    /// step record: the grant joins it, and the loop runs the hook at the
    /// entry and the machine's next step when the hold it arms ends.
    ///
    /// Returns false and queues nothing when `waker` is not a task waker
    /// of this simulation, its task is not parked (running, finished, or
    /// a stale generation), or the task already holds another place
    /// record; the caller then wakes the task, and the hook runs in its
    /// poll.
    pub(crate) fn queue_grant(
        &self,
        waker: &Waker,
        resource: Rc<dyn HandedGrants>,
        waiter: u32,
    ) -> bool {
        let Some(id) = self.task_of(waker) else {
            return false;
        };
        // Borrowed while `shutdown` drops task futures: no task is parked
        // then.
        let Ok(mut slots) = self.inner.slots.try_borrow_mut() else {
            return false;
        };
        match slots.get_mut(id.slot()) {
            Some(slot) if slot.state == SlotState::Parked && slot.generation == id.generation() => {
                let grant = PendingGrant { resource, waiter };
                let mut places = self.inner.places.borrow_mut();
                match places.get_mut(slot.place) {
                    None => slot.place = places.insert(Place::Grant(grant)),
                    Some(Place::Step(s)) if s.due.is_none() && s.grant.is_none() => {
                        s.grant = Some(grant);
                    }
                    Some(_) => return false,
                }
            }
            _ => return false,
        }
        drop(slots);
        self.inner.ready.push_owner(id.at_place());
        true
    }

    /// The task `waker` wakes, when it is a task waker of this
    /// simulation.
    fn task_of(&self, waker: &Waker) -> Option<TaskId> {
        if !std::ptr::eq(waker.vtable(), &WAKER_VTABLE) {
            return None;
        }
        // SAFETY: every waker with this vtable was built by
        // `new_task_waker` over a live `WakerBlock` (the waker holds a
        // reference to it).
        let b = unsafe { &*(waker.data() as *const WakerBlock) };
        Arc::ptr_eq(&b.ready, &self.inner.ready).then(|| TaskId(b.id.load(Ordering::Relaxed)))
    }

    /// Does the work of `record` as the task `current`: returns the
    /// deadline of the timer it asks for, which only a place entry
    /// (`armable`) allows a grant hook to arm. A step record's only work
    /// here is its grant: the machine's step runs in the poll.
    fn enter(&self, record: Place, current: CurrentPoll, armable: bool) -> Option<SimTime> {
        match record {
            Place::Armed(deadline) => Some(deadline),
            Place::Grant(grant) => self.as_task(current, |_| {
                let mut place = GrantPlace::new(self, armable);
                grant.resource.run_grant(grant.waiter, &mut place);
                place.armed()
            }),
            // A tick that found work: the wait is over, and `IdleTicks`
            // finds its record gone.
            Place::Idle(_) => None,
            Place::Step(s) => s
                .grant
                .and_then(|grant| self.enter(Place::Grant(grant), current, armable)),
        }
    }

    /// Runs `f` as the task `current`, with its context: what runs reads
    /// the task's tag, and a sleep or an acquire it polls registers the
    /// task's own waker.
    fn as_task<R>(&self, current: CurrentPoll, f: impl FnOnce(&mut Context<'_>) -> R) -> R {
        let prev = self.inner.current_poll.replace(Some(current));
        let _restore = RestorePoll(&self.inner.current_poll, prev);
        // A borrowed view of the slot's waker: same block, no refcount
        // traffic, never dropped (the slot keeps the owning reference).
        // SAFETY: the data pointer is that of the task's slot waker, which
        // outlives the call: a parked or running slot keeps it.
        let waker = ManuallyDrop::new(unsafe {
            Waker::from_raw(RawWaker::new(current.waker_data, &WAKER_VTABLE))
        });
        f(&mut Context::from_waker(&waker))
    }

    /// Handles a place entry, where the task's poll would have run. An
    /// idle tick due now checks the predicate and, while it holds, keeps
    /// the record and registers the next tick. A step record stays while
    /// its machine runs: its grant runs first, armable, and a step due now
    /// runs as the task, marked running, and either arms the timer of the
    /// next step, parks the task as a resource waiter, or has it polled.
    /// Any other record is taken and entered ([`Sim::enter`]); a timer it
    /// asks for is registered instead of a poll. Every timer takes the
    /// sequence number the task's own sleep would have drawn here. An
    /// entry whose record an earlier poll took, a step not due now, or the
    /// tick of a dropped [`IdleTicks`] is a plain wake, as the timer of a
    /// dropped sleep is.
    fn fire_place(&self, id: TaskId) {
        let (place, current) = {
            let slots = self.inner.slots.borrow();
            match slots.get(id.slot()) {
                Some(slot)
                    if slot.state == SlotState::Parked && slot.generation == id.generation() =>
                {
                    let waker = slot.waker.as_ref().expect("parked slot without waker");
                    let current = CurrentPoll {
                        id,
                        waker_data: waker.data(),
                        tag: slot.tag,
                    };
                    (slot.place, current)
                }
                // Stale: the task finished or the simulation shut down.
                _ => return,
            }
        };
        let now = self.now();
        let work = {
            let mut places = self.inner.places.borrow_mut();
            match places.get_mut(place) {
                Some(Place::Idle(t)) if t.next == now && t.idle.is_idle() => {
                    t.next = now + t.period;
                    self.register_task_timer(t.next, id.at_place());
                    self.count_armed(current.tag);
                    return;
                }
                Some(Place::Idle(t)) if t.next != now => None,
                Some(Place::Step(s)) => match s.grant.take() {
                    Some(grant) => Some(Work::StepGrant(grant, s.step)),
                    None if s.due == Some(now) => Some(Work::Step(s.step)),
                    None => None,
                },
                Some(_) => Some(Work::Enter(places.take(place))),
                None => None,
            }
        };
        match work {
            None => self.poll_task(id),
            Some(Work::Enter(record)) => {
                self.inner.slots.borrow_mut()[id.slot()].place = NO_PLACE;
                match self.enter(record, current, true) {
                    Some(deadline) => {
                        self.register_task_timer(deadline, id);
                        self.count_armed(current.tag);
                    }
                    None => self.poll_task(id),
                }
            }
            // The hold a step record's grant arms ends in the next step.
            Some(Work::StepGrant(grant, step)) => {
                match self.enter(Place::Grant(grant), current, true) {
                    Some(deadline) => {
                        self.count_armed(current.tag);
                        self.arm_step(id, place, step, deadline);
                    }
                    None => self.poll_task(id),
                }
            }
            Some(Work::Step(step)) => {
                self.set_state(id, SlotState::Running);
                // SAFETY: a step record names a live, pinned `Stepped`
                // (its drop removes the record), run only here, while its
                // task is parked between polls, and marked running so
                // that nothing polls the task or frees its future.
                let done = self.as_task(current, |cx| unsafe { (step.run)(step.ptr, cx) });
                self.set_state(id, SlotState::Parked);
                match done {
                    StepDone::Arm(deadline) => {
                        self.count_step(current.tag);
                        self.arm_step(id, place, step, deadline);
                    }
                    StepDone::Park => {
                        self.count_step(current.tag);
                        if let Some(s) = self.inner.places.borrow_mut().step_of(place, step.ptr) {
                            s.due = None;
                        }
                    }
                    StepDone::Poll => self.poll_task(id),
                }
            }
        }
    }

    /// Sets the state of the parked task `id`.
    fn set_state(&self, id: TaskId, state: SlotState) {
        self.inner.slots.borrow_mut()[id.slot()].state = state;
    }

    /// Counts a step that ran at its task's place without a poll.
    fn count_step(&self, tag: u32) {
        self.count_armed(tag);
        let steps = &self.inner.placed_steps;
        steps.set(steps.get() + 1);
    }

    /// Registers the timer of the next step of `step`, for `deadline`,
    /// when the task's record at `place` still runs it.
    fn arm_step(&self, id: TaskId, place: u32, step: StepFn, deadline: SimTime) {
        if let Some(s) = self.inner.places.borrow_mut().step_of(place, step.ptr) {
            s.due = Some(deadline);
            self.register_task_timer(deadline, id.at_place());
        }
    }

    /// Whether `task` is parked in idle ticks that have not found work.
    fn idle_pending(&self, task: TaskId) -> bool {
        let slots = self.inner.slots.borrow();
        slots.get(task.slot()).is_some_and(|s| {
            s.generation == task.generation() && self.inner.places.borrow().is_idle(s.place)
        })
    }

    /// Drops the idle-tick record of `task`, if it has one.
    fn cancel_idle(&self, task: TaskId) {
        // Borrowed while `shutdown` drops task futures, after it dropped
        // every record.
        let (Ok(mut slots), Ok(mut places)) = (
            self.inner.slots.try_borrow_mut(),
            self.inner.places.try_borrow_mut(),
        ) else {
            return;
        };
        let Some(slot) = slots
            .get_mut(task.slot())
            .filter(|s| s.generation == task.generation())
        else {
            return;
        };
        if !places.is_idle(slot.place) {
            return;
        }
        let record = places.take(std::mem::replace(&mut slot.place, NO_PLACE));
        drop((slots, places));
        drop(record);
    }

    /// The polled task, when `waker` is its own waker and no multi-child
    /// combinator is stepping children with it: a timer marked for that
    /// task then resumes exactly the await that registered it.
    fn own_task(&self, waker: &Waker) -> Option<TaskId> {
        self.polled_by(waker)
            .filter(|_| RUN_AHEAD_BARRIERS.with(Cell::get) == 0)
    }

    /// Returns a future that waits `period` at a time until a wait ends
    /// with `idle` false: the loop
    /// `loop { sim.sleep(period).await; if !idle() { break } }`, except
    /// that a tick that finds the task idle is not a poll. The run loop
    /// checks `idle` where the task's poll would have run and, while it
    /// holds, registers the next tick's timer there, with the sequence
    /// number the task's own sleep would have drawn (PERF.md invariant
    /// 17). [`Sim::armed_by_tag`] counts those ticks.
    ///
    /// `idle` must be pure: a read of state, called at those places
    /// instead of inside the task. Like an armed grant, the ticks must be
    /// the task's one pending await, since an idle tick skips the task's
    /// whole poll. Polled with a waker other than the task's own,
    /// or inside [`crate::CompletionSet::wait_all`], the future runs the
    /// plain loop instead.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn idle_ticks<P: Fn() -> bool + 'static>(&self, period: SimTime, idle: P) -> IdleTicks<P> {
        assert!(period > SimTime::ZERO, "idle ticks need a nonzero period");
        IdleTicks {
            sim: self.clone(),
            period,
            state: Ticking::Start(idle),
        }
    }

    /// Inline run-ahead for a sleep until `deadline` polled with `waker`:
    /// if the wake is provably the run loop's next event, sets the clock
    /// to `deadline` and returns true, and the sleep completes in this
    /// poll. Otherwise the loop would park the task, find nothing ready,
    /// advance to `deadline` (the heap minimum, with no earlier-registered
    /// entry there), wake this task alone, and poll it again: the same
    /// state at the same instant, one poll later.
    fn run_ahead(&self, deadline: SimTime, waker: &Waker) -> bool {
        let inner = &*self.inner;
        #[cfg(test)]
        if !inner.run_ahead.get() {
            return false;
        }
        // Only the polled task's own waker is resumed by continuing this
        // poll (the identity check `register_timer` uses).
        if self.polled_by(waker).is_none()
            // The loop stops at the limit instead of advancing past it.
            || deadline > inner.limit.get()
            // With no live task left (a daemon polled after the last one
            // finished) the loop stops without advancing the clock.
            || inner.live_tasks.get() == 0
            // Every runnable task runs first, at the current instant.
            || !inner.ready.is_empty()
        {
            return false;
        }
        // A timer due earlier, or at `deadline` but registered earlier,
        // fires first.
        if matches!(inner.timers.borrow().peek(), Some(Reverse(e)) if e.deadline <= deadline) {
            return false;
        }
        if RUN_AHEAD_BARRIERS.with(Cell::get) > 0 {
            return false;
        }
        inner.now.set(deadline);
        true
    }

    /// Turns inline run-ahead off or on (on by default), so a test can
    /// check a run against the park-and-wake schedule.
    #[cfg(test)]
    pub(crate) fn set_run_ahead(&self, on: bool) {
        self.inner.run_ahead.set(on);
    }

    /// Polls one task by id; ignores stale or already-running ids.
    fn poll_task(&self, id: TaskId) {
        // Copy out the raw future pointers and the waker's data pointer,
        // then poll in place: the future payload is heap-pinned, so the
        // slot vector is free to grow (nested spawns) during the poll.
        let (fut_ptr, poll_fn, waker_data, daemon, tag, ahead) = {
            let mut slots = self.inner.slots.borrow_mut();
            let slot = match slots.get_mut(id.slot()) {
                Some(s) => s,
                None => return,
            };
            if slot.state != SlotState::Parked || slot.generation != id.generation() {
                // Stale wake (recycled slot or duplicate wake while
                // running): ignore.
                return;
            }
            slot.state = SlotState::Running;
            let ahead = if slot.place == NO_PLACE {
                None
            } else {
                self.take_ahead(&mut slot.place)
            };
            let f = slot.future.as_ref().expect("parked slot without future");
            let w = slot.waker.as_ref().expect("parked slot without waker");
            (
                f.block.ptr,
                f.poll_fn,
                w.data(),
                slot.daemon,
                slot.tag,
                ahead,
            )
        };

        let current = CurrentPoll {
            id,
            waker_data,
            tag,
        };
        if let Some(record) = ahead {
            // Polled ahead of its place entry, which becomes a plain wake:
            // the record's work is done first, as the task. The task is
            // polled now, so no hook arms, but an armed spawn's timer must
            // exist before the task looks for it.
            if let Some(deadline) = self.enter(record, current, false) {
                self.register_task_timer(deadline, id);
            }
        }
        // SAFETY: `fut_ptr` stays valid for the whole poll — only this
        // function and `shutdown` release task futures, `shutdown` skips
        // Running slots, and re-entrant polls of this task bail on the
        // Running state above.
        let done = self
            .as_task(current, |cx| unsafe { (poll_fn)(fut_ptr, cx) })
            .is_ready();

        let mut slots = self.inner.slots.borrow_mut();
        let slot = &mut slots[id.slot()];
        debug_assert!(
            slot.state == SlotState::Running && slot.generation == id.generation(),
            "slot changed while task was running"
        );
        // Counted under the tag the task holds now: a first poll that
        // tagged the task counts as the tagged task's.
        let polls = &self.inner.polls[slot.tag as usize % TAG_CLASSES];
        polls.set(polls.get() + 1);
        if done {
            slot.state = SlotState::Free;
            slot.generation = id.generation().wrapping_add(1);
            // Drop the future (returning its block to the pool) but keep
            // the waker: the next task spawned here can rebind it.
            slot.future = None;
            self.inner.free_slots.borrow_mut().push(id.slot() as u32);
            if !daemon {
                self.inner.live_tasks.set(self.inner.live_tasks.get() - 1);
            }
        } else {
            slot.state = SlotState::Parked;
        }
    }

    /// Takes the place record at `place` of a task about to be polled. An
    /// idle ticker's record stays: its ticks go on until one finds work.
    fn take_ahead(&self, place: &mut u32) -> Option<Place> {
        let mut places = self.inner.places.borrow_mut();
        if places.is_idle(*place) {
            return None;
        }
        Some(places.take(std::mem::replace(place, NO_PLACE)))
    }

    /// Runs the simulation until every non-daemon task completes.
    ///
    /// Returns a [`RunReport`] on success. Fails with [`RunError::Deadlock`]
    /// if live tasks remain but no timer or ready task can make progress
    /// (e.g. a cycle of resource waits).
    pub fn run(&self) -> Result<RunReport, RunError> {
        self.run_until(SimTime::MAX)
    }

    /// Runs until non-daemon tasks complete or the clock would pass `limit`.
    ///
    /// If the time limit stops the run, live tasks stay parked and a later
    /// `run_until` call with a larger limit resumes them.
    pub fn run_until(&self, limit: SimTime) -> Result<RunReport, RunError> {
        self.inner.limit.set(limit);
        loop {
            // Drain everything runnable at the current instant.
            while let Some(id) = self.inner.ready.pop() {
                if id.is_place() {
                    self.fire_place(id.unmarked());
                } else {
                    self.poll_task(id);
                }
            }

            if self.inner.live_tasks.get() == 0 {
                return Ok(self.report(false));
            }

            // Advance the clock to the earliest timer.
            let next_deadline = match self.inner.timers.borrow().peek() {
                Some(Reverse(e)) => e.deadline,
                None => {
                    return Err(RunError::Deadlock {
                        live_tasks: self.inner.live_tasks.get(),
                    })
                }
            };
            if next_deadline > limit {
                return Ok(self.report(true));
            }
            self.inner.now.set(next_deadline);

            // Fire every timer at this deadline, in registration order.
            // Task wakes are ready-queue pushes and cannot touch the timer
            // heap, so they run under one borrow; only a foreign waker
            // (arbitrary code, may re-register) forces the borrow open.
            loop {
                let mut timers = self.inner.timers.borrow_mut();
                match timers.peek() {
                    Some(Reverse(e)) if e.deadline == next_deadline => {
                        let Reverse(mut e) = timers.pop().expect("peeked entry vanished");
                        if e.is_task() {
                            // Registration (seq) order: this entry wakes
                            // first, then the contiguous run of task
                            // wakes behind it at the same deadline.
                            self.inner.ready.push_owner(e.task_id());
                            while let Some(Reverse(n)) = timers.peek() {
                                if n.deadline != next_deadline || !n.is_task() {
                                    break;
                                }
                                let Reverse(n) = timers.pop().expect("peeked entry vanished");
                                self.inner.ready.push_owner(n.task_id());
                            }
                        } else {
                            let w = e.take_foreign();
                            drop(timers);
                            w.wake();
                        }
                    }
                    _ => break,
                }
            }
        }
    }

    fn report(&self, hit_limit: bool) -> RunReport {
        RunReport {
            end_time: self.now(),
            events: self.events_processed(),
            live_tasks: self.inner.live_tasks.get(),
            hit_time_limit: hit_limit,
        }
    }

    /// Drops all remaining tasks (daemons and blocked tasks) and timers.
    ///
    /// Call after [`Sim::run`] to break `Rc` reference cycles between the
    /// executor and task futures that captured `Sim` clones.
    pub fn shutdown(&self) {
        self.inner.timers.borrow_mut().clear();
        // Idle predicates hold what they read (an engine host), and
        // waiting grants their resource: dropped here, unrun, before the
        // futures that made them.
        let places = std::mem::take(&mut *self.inner.places.borrow_mut());
        drop(places);
        let mut slots = self.inner.slots.borrow_mut();
        let any_running = slots.iter().any(|s| s.state == SlotState::Running);
        for slot in slots.iter_mut() {
            slot.place = NO_PLACE;
            if slot.state == SlotState::Parked {
                slot.state = SlotState::Free;
                slot.future = None;
                slot.waker = None;
            }
        }
        // A task calling `shutdown` from inside its own poll must not free
        // the slot vector out from under the in-flight poll; everything
        // else (futures, timers) is torn down either way.
        if !any_running {
            slots.clear();
            self.inner.free_slots.borrow_mut().clear();
        }
        self.inner.live_tasks.set(0);
    }
}

impl fmt::Debug for Sim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.now())
            .field("live_tasks", &self.inner.live_tasks.get())
            .finish()
    }
}

/// Outcome of [`Sim::run`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunReport {
    /// Clock value when the run stopped.
    pub end_time: SimTime,
    /// Total task polls performed: a cost of the simulation, not part of
    /// its behaviour. A sleep that resumes inline is not a poll.
    pub events: u64,
    /// Non-daemon tasks still alive (nonzero only when a time limit stopped
    /// the run).
    pub live_tasks: usize,
    /// True if the run stopped at the `run_until` limit.
    pub hit_time_limit: bool,
}

/// Failure mode of [`Sim::run`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunError {
    /// Live tasks remain but nothing can wake them.
    Deadlock {
        /// How many non-daemon tasks are stuck.
        live_tasks: usize,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Deadlock { live_tasks } => {
                write!(
                    f,
                    "simulation deadlock: {live_tasks} task(s) blocked with no pending events"
                )
            }
        }
    }
}

impl std::error::Error for RunError {}

/// Future returned by [`Sim::sleep`] / [`Sim::sleep_until`].
///
/// On its first poll a sleep resumes inline — moves the clock to its
/// deadline and completes at once, registering no timer — when its wake
/// would be the run loop's next event anyway:
/// - it is polled with the polled task's own waker;
/// - no task is ready (local or remote);
/// - every pending timer is due strictly after the deadline;
/// - the deadline is within the active [`Sim::run_until`] limit;
/// - a live task remains (the loop would otherwise stop, not advance);
/// - no multi-child combinator ([`crate::CompletionSet::wait_all`]) is
///   stepping children with this context.
///
/// Otherwise it registers a timer and parks, as any sleep did before.
///
/// A sleep that a grant hook armed ([`crate::GrantPlace::sleep_until`])
/// starts with its timer already registered, and only waits for it.
pub struct Sleep {
    sim: Sim,
    deadline: SimTime,
    registered: bool,
}

impl Sleep {
    /// A sleep until `deadline`, whose timer is already registered when
    /// `registered` is set.
    pub(crate) fn new(sim: Sim, deadline: SimTime, registered: bool) -> Self {
        Self {
            sim,
            deadline,
            registered,
        }
    }

    /// The instant the sleep ends.
    pub fn deadline(&self) -> SimTime {
        self.deadline
    }
}

impl Future for Sleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.sim.now() >= self.deadline {
            return Poll::Ready(());
        }
        if !self.registered {
            let deadline = self.deadline;
            if self.sim.run_ahead(deadline, cx.waker()) {
                return Poll::Ready(());
            }
            self.registered = true;
            self.sim.register_timer(deadline, cx.waker());
        }
        Poll::Pending
    }
}

/// Future returned by [`Sim::idle_ticks`].
pub struct IdleTicks<P> {
    sim: Sim,
    period: SimTime,
    state: Ticking<P>,
}

enum Ticking<P> {
    /// Not polled yet.
    Start(P),
    /// The run loop checks the predicate at each tick of this task.
    Parked(TaskId),
    /// Polled with a foreign waker or inside a multi-child combinator:
    /// the plain loop.
    Plain(P, Sleep),
    Done,
}

// Nothing in `IdleTicks` is pinned: the predicate is only called by
// reference, and `Sleep` is `Unpin`.
impl<P> Unpin for IdleTicks<P> {}

impl<P: Fn() -> bool + 'static> Future for IdleTicks<P> {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        let (sim, period) = (&this.sim, this.period);
        match std::mem::replace(&mut this.state, Ticking::Done) {
            Ticking::Start(idle) => {
                // The plain loop's first sleeps, as far as they run ahead
                // inline.
                let mut deadline = sim.now() + period;
                while sim.run_ahead(deadline, cx.waker()) {
                    if !idle() {
                        return Poll::Ready(());
                    }
                    deadline = sim.now() + period;
                }
                match sim.own_task(cx.waker()) {
                    Some(id) if !sim.idle_pending(id) => {
                        let tick = Place::Idle(IdleTick {
                            period,
                            next: deadline,
                            idle: IdlePred::new(idle),
                        });
                        let place = sim.inner.places.borrow_mut().insert(tick);
                        sim.inner.slots.borrow_mut()[id.slot()].place = place;
                        sim.register_task_timer(deadline, id.at_place());
                        this.state = Ticking::Parked(id);
                        Poll::Pending
                    }
                    _ => {
                        this.state = Ticking::Plain(idle, sim.sleep_until(deadline));
                        Pin::new(this).poll(cx)
                    }
                }
            }
            Ticking::Parked(id) => {
                if sim.idle_pending(id) {
                    this.state = Ticking::Parked(id);
                    return Poll::Pending;
                }
                Poll::Ready(())
            }
            Ticking::Plain(idle, mut sleep) => loop {
                if Pin::new(&mut sleep).poll(cx).is_pending() {
                    this.state = Ticking::Plain(idle, sleep);
                    return Poll::Pending;
                }
                if !idle() {
                    return Poll::Ready(());
                }
                sleep = sim.sleep(period);
            },
            Ticking::Done => panic!("idle ticks polled after completion"),
        }
    }
}

impl<P> Drop for IdleTicks<P> {
    fn drop(&mut self) {
        if let Ticking::Parked(id) = self.state {
            self.sim.cancel_idle(id);
        }
    }
}

/// What a [`StepMachine`] waits for after a step.
pub enum Next<T> {
    /// The end of this sleep; the machine steps again when it ends.
    Sleep(Sleep),
    /// A wake it registered with the task's waker (a queued
    /// [`crate::Resource`] acquire); the machine steps again once woken.
    Wake,
    /// Only at the task's place: the next leg must run in the task's poll.
    Poll,
    /// The machine is done.
    Ready(T),
}

/// A state machine of legs, each ending in a sleep or a resource wait,
/// whose steps the run loop may run at its task's place instead of
/// polling the task ([`Sim::stepped`]).
pub trait StepMachine: 'static {
    /// What the machine yields when done.
    type Output;

    /// Runs the machine's legs as far as they go now, as its task and with
    /// the task's context, and returns what it waits for next. A returned
    /// sleep that has already ended is stepped past at once.
    ///
    /// `at_place` is set when the run loop runs the step at the task's
    /// place. The machine then returns [`Next::Poll`] instead of running
    /// a leg that must be the task's poll, at least the one that finishes
    /// it: at a place it never returns [`Next::Ready`].
    fn step(&mut self, cx: &mut Context<'_>, at_place: bool) -> Next<Self::Output>;
}

/// Future returned by [`Sim::stepped`].
pub struct Stepped<M> {
    sim: Sim,
    machine: M,
    /// The sleep the machine waits for: its deadline, and whether a timer
    /// for it is registered.
    wait: Option<(SimTime, bool)>,
    /// The task whose step record runs this machine, if one may, or
    /// `NO_TASK`.
    placed: TaskId,
    /// A step record points at the machine.
    _pinned: PhantomPinned,
}

/// How far [`Stepped::advance`] got.
enum Advance<T> {
    /// To a sleep not yet over whose timer is not registered.
    Sleep(SimTime),
    /// To a wait whose wake or timer is registered.
    Wait,
    /// To a leg that must run in the task's poll.
    Poll,
    Ready(T),
}

impl Sim {
    /// Wraps `machine` as a future whose steps the run loop may run at
    /// its task's place (PERF.md invariant 17). Awaited in its task's own
    /// poll, it steps the machine there as far as it goes, running its
    /// sleeps ahead inline where invariant 16 allows. When the machine
    /// then waits for a sleep, the task keeps a *step record* and the loop
    /// registers the sleep's timer, with the sequence number the sleep
    /// would have drawn, marked for the task's place; when the timer
    /// fires, the loop runs the next step there, as the task, without
    /// polling it. That step may arm the next timer, keeping the record;
    /// park the task as a resource waiter, whose grant entry runs the
    /// resource's hook at the record and may arm the next step; or have
    /// the task polled. [`Sim::placed_steps`] counts the steps that did
    /// not end in a poll.
    ///
    /// Like an armed grant, the machine must be its task's one pending
    /// await, since a placed step skips the task's whole poll. Polled with
    /// a waker other than the task's own, inside
    /// [`crate::CompletionSet::wait_all`], or by a task that holds another
    /// place record, it steps the machine inside each poll instead, with
    /// plain sleeps; so does a task polled ahead of its record's entry.
    pub fn stepped<M: StepMachine>(&self, machine: M) -> Stepped<M> {
        Stepped {
            sim: self.clone(),
            machine,
            wait: None,
            placed: NO_TASK,
            _pinned: PhantomPinned,
        }
    }

    /// Gives the task `id`, polled now, a step record for `step`, with a
    /// timer for its next step at `due` if set. Returns false, and does
    /// nothing, when the task holds another record.
    fn place_step(&self, id: TaskId, step: StepFn, due: Option<SimTime>) -> bool {
        let mut slots = self.inner.slots.borrow_mut();
        let slot = &mut slots[id.slot()];
        if slot.place != NO_PLACE {
            return false;
        }
        let record = Place::Step(StepRec {
            step,
            due,
            grant: None,
        });
        slot.place = self.inner.places.borrow_mut().insert(record);
        if let Some(deadline) = due {
            self.register_task_timer(deadline, id.at_place());
        }
        true
    }

    /// Drops the step record of `task` that runs the machine at `ptr`, if
    /// it has one. A grant that joined it stays as a plain grant entry,
    /// which recycles its waiter slot.
    fn unplace_step(&self, task: TaskId, ptr: NonNull<()>) {
        // Borrowed while `shutdown` drops task futures, after it dropped
        // every record.
        let (Ok(mut slots), Ok(mut places)) = (
            self.inner.slots.try_borrow_mut(),
            self.inner.places.try_borrow_mut(),
        ) else {
            return;
        };
        let Some(slot) = slots
            .get_mut(task.slot())
            .filter(|s| s.generation == task.generation())
        else {
            return;
        };
        let Some(record) = places.step_of(slot.place, ptr) else {
            return;
        };
        match record.grant.take() {
            Some(grant) => {
                *places.get_mut(slot.place).expect("a step record") = Place::Grant(grant)
            }
            None => drop(places.take(std::mem::replace(&mut slot.place, NO_PLACE))),
        }
    }
}

impl<M: StepMachine> Stepped<M> {
    /// Steps the machine until it waits for something not over yet,
    /// running unregistered sleeps ahead inline where invariant 16 allows.
    fn advance(&mut self, cx: &mut Context<'_>, at_place: bool) -> Advance<M::Output> {
        loop {
            if let Some((deadline, registered)) = self.wait {
                if self.sim.now() < deadline {
                    if registered {
                        return Advance::Wait;
                    }
                    if !self.sim.run_ahead(deadline, cx.waker()) {
                        return Advance::Sleep(deadline);
                    }
                }
                self.wait = None;
            }
            match self.machine.step(cx, at_place) {
                Next::Sleep(s) => self.wait = Some((s.deadline, s.registered)),
                Next::Wake => return Advance::Wait,
                Next::Poll => return Advance::Poll,
                Next::Ready(out) => return Advance::Ready(out),
            }
        }
    }

    /// Gives the polled task a step record for this machine, due at `due`
    /// if set; false when it cannot take one.
    fn place(&mut self, cx: &Context<'_>, due: Option<SimTime>) -> bool {
        let Some(id) = self.sim.own_task(cx.waker()) else {
            return false;
        };
        let step = StepFn {
            ptr: NonNull::from(&mut *self).cast(),
            run: run_step::<M>,
        };
        if !self.sim.place_step(id, step, due) {
            return false;
        }
        self.placed = id;
        true
    }
}

/// Runs the step due of the `Stepped<M>` at `p`, at its task's place.
///
/// # Safety
///
/// `p` must point to a live, pinned `Stepped<M>` that nothing else
/// borrows.
unsafe fn run_step<M: StepMachine>(p: NonNull<()>, cx: &mut Context<'_>) -> StepDone {
    // SAFETY: as the caller promises.
    let this = unsafe { p.cast::<Stepped<M>>().as_mut() };
    match this.advance(cx, true) {
        Advance::Sleep(deadline) => {
            this.wait = Some((deadline, true));
            StepDone::Arm(deadline)
        }
        Advance::Wait => StepDone::Park,
        Advance::Poll => StepDone::Poll,
        Advance::Ready(_) => unreachable!("a step machine finishes in its task's poll"),
    }
}

impl<M: StepMachine> Future for Stepped<M> {
    type Output = M::Output;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<M::Output> {
        // SAFETY: nothing is moved out of the pinned value.
        let this = unsafe { self.get_unchecked_mut() };
        // The poll does the machine's work from here.
        this.unplace();
        match this.advance(cx, false) {
            Advance::Ready(out) => Poll::Ready(out),
            Advance::Sleep(deadline) => {
                this.wait = Some((deadline, true));
                if !this.place(cx, Some(deadline)) {
                    this.sim.register_timer(deadline, cx.waker());
                }
                Poll::Pending
            }
            Advance::Wait => {
                // A resource waiter: its grant entry may come to the
                // record. A registered timer needs none.
                if this.wait.is_none() {
                    this.place(cx, None);
                }
                Poll::Pending
            }
            Advance::Poll => unreachable!("a step machine runs every leg in its task's poll"),
        }
    }
}

impl<M> Stepped<M> {
    /// Drops this machine's step record, if it still has one.
    fn unplace(&mut self) {
        let id = std::mem::replace(&mut self.placed, NO_TASK);
        if id != NO_TASK {
            let ptr = NonNull::from(&mut *self).cast();
            self.sim.unplace_step(id, ptr);
        }
    }
}

impl<M> Drop for Stepped<M> {
    fn drop(&mut self) {
        self.unplace();
    }
}

/// Handle for retrieving a spawned task's output.
///
/// Await it inside the simulation, or call [`JoinHandle::try_result`] after
/// the run loop returns.
pub struct JoinHandle<T> {
    rx: OneshotReceiver<T>,
}

impl<T> JoinHandle<T> {
    /// Returns the task output if the task has completed, else `None`.
    pub fn try_result(self) -> Option<T> {
        self.rx.try_recv()
    }

    /// True once the task has completed.
    pub fn is_finished(&self) -> bool {
        self.rx.is_ready()
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        match Pin::new(&mut self.rx).poll(cx) {
            Poll::Ready(Ok(v)) => Poll::Ready(v),
            Poll::Ready(Err(_)) => panic!("joined task dropped without completing"),
            Poll::Pending => Poll::Pending,
        }
    }
}

/// Cooperatively yields once, letting every already-ready task run first.
///
/// # Examples
///
/// ```
/// use fcache_des::{executor::yield_now, Sim};
///
/// let sim = Sim::new();
/// sim.spawn(async {
///     yield_now().await;
/// });
/// sim.run().unwrap();
/// ```
pub fn yield_now() -> YieldNow {
    YieldNow { yielded: false }
}

/// Future returned by [`yield_now`].
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn clock_starts_at_zero_and_advances_via_sleep() {
        let sim = Sim::new();
        assert_eq!(sim.now(), SimTime::ZERO);
        let s = sim.clone();
        let h = sim.spawn(async move {
            s.sleep(SimTime::from_nanos(400)).await;
            s.now()
        });
        let report = sim.run().unwrap();
        assert_eq!(h.try_result().unwrap(), SimTime::from_nanos(400));
        assert_eq!(report.end_time, SimTime::from_nanos(400));
        assert!(!report.hit_time_limit);
    }

    #[test]
    fn zero_sleep_completes_immediately() {
        let sim = Sim::new();
        let s = sim.clone();
        let h = sim.spawn(async move {
            s.sleep(SimTime::ZERO).await;
            s.now()
        });
        sim.run().unwrap();
        assert_eq!(h.try_result().unwrap(), SimTime::ZERO);
    }

    #[test]
    fn parallel_sleeps_overlap_not_serialize() {
        let sim = Sim::new();
        for _ in 0..10 {
            let s = sim.clone();
            sim.spawn(async move {
                s.sleep(SimTime::from_micros(7)).await;
            });
        }
        let report = sim.run().unwrap();
        // Ten concurrent 7 µs sleeps finish at t = 7 µs, not 70 µs.
        assert_eq!(report.end_time, SimTime::from_micros(7));
    }

    #[test]
    fn timers_fire_in_deadline_then_registration_order() {
        let sim = Sim::new();
        let order = Rc::new(RefCell::new(Vec::new()));
        for (i, us) in [(0u32, 5u64), (1, 3), (2, 5), (3, 1)] {
            let s = sim.clone();
            let order = Rc::clone(&order);
            sim.spawn(async move {
                s.sleep(SimTime::from_micros(us)).await;
                order.borrow_mut().push(i);
            });
        }
        sim.run().unwrap();
        // Deadlines 1, 3, then the two 5 µs sleepers in spawn order.
        assert_eq!(*order.borrow(), vec![3, 1, 0, 2]);
    }

    #[test]
    fn spawned_tasks_can_spawn_more_tasks() {
        let sim = Sim::new();
        let s = sim.clone();
        let h = sim.spawn(async move {
            let inner = s.spawn(async { 21 });
            inner.await * 2
        });
        sim.run().unwrap();
        assert_eq!(h.try_result().unwrap(), 42);
    }

    #[test]
    fn daemon_does_not_keep_sim_alive() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.spawn_daemon(async move {
            loop {
                s.sleep(SimTime::from_secs(1)).await;
            }
        });
        let s2 = sim.clone();
        sim.spawn(async move {
            s2.sleep(SimTime::from_millis(1500)).await;
        });
        let report = sim.run().unwrap();
        // The daemon woke at t=1s but could not extend the run past the last
        // real task at t=1.5s.
        assert_eq!(report.end_time, SimTime::from_millis(1500));
        sim.shutdown();
    }

    #[test]
    fn daemon_work_interleaves_with_tasks() {
        let sim = Sim::new();
        let ticks = Rc::new(Cell::new(0u32));
        let s = sim.clone();
        let t = Rc::clone(&ticks);
        sim.spawn_daemon(async move {
            loop {
                s.sleep(SimTime::from_secs(1)).await;
                t.set(t.get() + 1);
            }
        });
        let s2 = sim.clone();
        sim.spawn(async move {
            s2.sleep(SimTime::from_millis(3500)).await;
        });
        sim.run().unwrap();
        assert_eq!(ticks.get(), 3);
        sim.shutdown();
    }

    #[test]
    fn run_until_stops_and_resumes() {
        let sim = Sim::new();
        let s = sim.clone();
        let h = sim.spawn(async move {
            s.sleep(SimTime::from_secs(10)).await;
            "done"
        });
        let r1 = sim.run_until(SimTime::from_secs(3)).unwrap();
        assert!(r1.hit_time_limit);
        assert_eq!(r1.live_tasks, 1);
        assert!(!h.is_finished());
        let r2 = sim.run().unwrap();
        assert_eq!(r2.end_time, SimTime::from_secs(10));
        assert_eq!(h.try_result().unwrap(), "done");
    }

    #[test]
    fn deadlock_is_detected() {
        let sim = Sim::new();
        sim.spawn(async {
            std::future::pending::<()>().await;
        });
        assert_eq!(sim.run(), Err(RunError::Deadlock { live_tasks: 1 }));
        sim.shutdown();
    }

    #[test]
    fn empty_sim_finishes_immediately() {
        let sim = Sim::new();
        let report = sim.run().unwrap();
        assert_eq!(report.end_time, SimTime::ZERO);
        assert_eq!(report.events, 0);
    }

    #[test]
    fn yield_now_round_robins_ready_tasks() {
        let sim = Sim::new();
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..3 {
            let order = Rc::clone(&order);
            sim.spawn(async move {
                order.borrow_mut().push((i, 0));
                yield_now().await;
                order.borrow_mut().push((i, 1));
            });
        }
        sim.run().unwrap();
        let got = order.borrow().clone();
        assert_eq!(got, vec![(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]);
    }

    #[test]
    fn many_tasks_slot_reuse() {
        let sim = Sim::new();
        // Spawn waves of short tasks so slots recycle across generations.
        let s = sim.clone();
        let h = sim.spawn(async move {
            let mut total = 0u64;
            for wave in 0..50u64 {
                let mut handles = Vec::new();
                for i in 0..20u64 {
                    let s2 = s.clone();
                    handles.push(s.spawn(async move {
                        s2.sleep(SimTime::from_nanos(i + 1)).await;
                        wave + i
                    }));
                }
                for h in handles {
                    total += h.await;
                }
            }
            total
        });
        sim.run().unwrap();
        let expect: u64 = (0..50u64)
            .map(|w| (0..20u64).map(|i| w + i).sum::<u64>())
            .sum();
        assert_eq!(h.try_result().unwrap(), expect);
    }

    #[test]
    fn determinism_identical_runs() {
        fn run_once() -> (SimTime, u64, Vec<u32>) {
            let sim = Sim::new();
            let order = Rc::new(RefCell::new(Vec::new()));
            for i in 0..8u32 {
                let s = sim.clone();
                let order = Rc::clone(&order);
                sim.spawn(async move {
                    for k in 0..5u64 {
                        s.sleep(SimTime::from_nanos((i as u64 * 37 + k * 11) % 23 + 1))
                            .await;
                    }
                    order.borrow_mut().push(i);
                });
            }
            let r = sim.run().unwrap();
            let o = order.borrow().clone();
            (r.end_time, r.events, o)
        }
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn cross_thread_wake_lands_in_remote_queue() {
        use std::sync::{Arc, Mutex};

        // A future that parks forever, handing its waker out.
        struct Park {
            stash: Arc<Mutex<Option<Waker>>>,
            done: Rc<Cell<bool>>,
        }
        impl Future for Park {
            type Output = ();
            fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
                if self.done.get() {
                    return Poll::Ready(());
                }
                *self.stash.lock().unwrap() = Some(cx.waker().clone());
                Poll::Pending
            }
        }

        let sim = Sim::new();
        let stash: Arc<Mutex<Option<Waker>>> = Arc::new(Mutex::new(None));
        let done = Rc::new(Cell::new(false));
        sim.spawn(Park {
            stash: Arc::clone(&stash),
            done: Rc::clone(&done),
        });
        // First run parks the task (deadlock: nothing can wake it yet).
        assert!(matches!(sim.run(), Err(RunError::Deadlock { .. })));
        // Wake from a foreign thread: must take the remote path, not touch
        // the owner-local queue.
        let waker = stash.lock().unwrap().take().expect("waker stashed");
        std::thread::spawn(move || waker.wake()).join().unwrap();
        done.set(true);
        sim.run().unwrap();
        sim.shutdown();
    }

    #[test]
    fn events_processed_counts_polls() {
        let sim = Sim::new();
        sim.spawn(async {});
        sim.run().unwrap();
        assert!(sim.events_processed() >= 1);
    }
}
