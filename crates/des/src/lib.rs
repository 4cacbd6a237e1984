//! Deterministic discrete-event simulation (DES) kernel.
//!
//! The paper's simulator "issues I/O requests from the trace as quickly as
//! possible given that each application thread can have only one I/O in
//! progress. I/O requests may stall at various points in the system; all
//! executions are fully interleaved." (§5). This crate provides exactly that
//! execution model as a tiny, deterministic, single-threaded async runtime
//! over *simulated* time:
//!
//! - [`Sim`] — the simulation handle: spawn tasks, read the clock, run.
//! - [`Sim::sleep`] — model a service latency (device access, wire time).
//! - [`Resource`] — a FIFO counting semaphore used to model contention
//!   points: the SSD's command-queue slots and each network channel. A
//!   [`GrantHook`] runs on the waiter's request at the grantee's place in
//!   the ready queue, as the grantee, and may arm it: when the hold's end
//!   is known there, the run loop registers the grantee's timer instead
//!   of polling it.
//! - [`Sim::spawn_at`] — a spawn whose first act would be a sleep: the
//!   run loop registers the new task's timer at its place instead of
//!   polling it.
//! - [`Sim::idle_ticks`] — a periodic wait that ends at the first tick
//!   with work: the run loop checks for work where the task's poll would
//!   have run and re-arms an idle tick without polling the task.
//!
//!   These three are one mechanism, the executor's *place entry*: work
//!   done at a task's place in the ready queue, through one side table,
//!   that registers the timer the task's own poll would have.
//!   [`Sim::armed_by_tag`] counts such entries by task class.
//! - [`oneshot`] and [`JoinHandle`] — completion signalling.
//! - [`Sim::tag_current`] — one tag word per task, read during its polls
//!   as [`Sim::current_tag`]; [`Sim::polls_by_tag`] counts polls by the
//!   tag's class.
//!
//! Determinism: the executor is single-threaded, the ready queue is FIFO,
//! timers fire in (deadline, registration order), and resources grant in
//! strict FIFO order. Two runs of the same program produce identical event
//! orders and identical clock readings. A sleep whose wake is provably the
//! next event resumes inline, within the poll that slept, and a place
//! entry registers a timer instead of polling a task that would only have
//! registered it; both save a poll and change no event order or clock
//! reading.
//!
//! # Examples
//!
//! ```
//! use fcache_des::{Sim, SimTime};
//!
//! let sim = Sim::new();
//! let s = sim.clone();
//! let h = sim.spawn(async move {
//!     s.sleep(SimTime::from_micros(5)).await;
//!     s.now()
//! });
//! sim.run().unwrap();
//! assert_eq!(h.try_result().unwrap(), SimTime::from_micros(5));
//! ```

pub mod completion;
pub mod executor;
mod pool;
pub mod resource;
pub mod sync;
pub mod time;

#[cfg(test)]
mod grant_place_tests;
#[cfg(test)]
mod idle_ticks_tests;
#[cfg(test)]
mod run_ahead_tests;
#[cfg(test)]
mod tag_tests;
// The module keeps its first name so its tests keep their names in the
// suite's output.
#[cfg(test)]
#[path = "armed_hand_over_tests.rs"]
mod wake_at_tests;

pub use completion::{CompletionSet, WaitAll};
pub use executor::{IdleTicks, JoinHandle, RunError, RunReport, Sim, TAG_CLASSES};
pub use resource::{GrantHook, GrantPlace, PlainWake, Resource, ResourceGuard};
pub use sync::{oneshot, OneshotReceiver, OneshotSender, RecvError};
pub use time::SimTime;
