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
//!   [`GrantHook`] runs on the waiter's request in the poll that grants
//!   it, and may arm the grantee instead of waking it.
//! - [`Sim::wake_at`] — hand a parked task a hold whose end is already
//!   known: the run loop registers its timer where the task sits in the
//!   ready queue, without polling it. [`Sim::spawn_at`] does the same for
//!   a new task whose first act would be a sleep.
//! - [`Sim::idle_ticks`] — a periodic wait that ends at the first tick
//!   with work: the run loop checks for work where the task's poll would
//!   have run and re-arms an idle tick without polling the task.
//! - [`oneshot`] and [`JoinHandle`] — completion signalling.
//!
//! Determinism: the executor is single-threaded, the ready queue is FIFO,
//! timers fire in (deadline, registration order), and resources grant in
//! strict FIFO order. Two runs of the same program produce identical event
//! orders and identical clock readings. A sleep whose wake is provably the
//! next event resumes inline, within the poll that slept, and an armed
//! wake registers a timer instead of polling a task that would only have
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
mod idle_ticks_tests;
#[cfg(test)]
mod run_ahead_tests;
#[cfg(test)]
mod wake_at_tests;

pub use completion::{CompletionSet, WaitAll};
pub use executor::{IdleTicks, JoinHandle, RunError, RunReport, Sim};
pub use resource::{GrantHook, PlainWake, Resource, ResourceGuard};
pub use sync::{oneshot, OneshotReceiver, OneshotSender, RecvError};
pub use time::SimTime;
