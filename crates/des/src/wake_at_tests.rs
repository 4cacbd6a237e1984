//! An armed hand-over ([`Sim::wake_at`]) must change nothing but the poll
//! count. A capacity-1 [`Resource`] models a wire whose grant hook either
//! arms the next queued sender for the end of its packet, or leaves it to
//! be woken and sleep for itself; random senders must observe the same
//! simulated times in the same global order both ways, in no more polls.

use std::cell::{Cell, RefCell};
use std::future::{poll_fn, Future};
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use proptest::prelude::*;

use crate::{GrantHook, Resource, Sim, SimTime};

fn ns(n: u64) -> SimTime {
    SimTime::from_nanos(n)
}

/// The wire's grant hook: arms a sender granted the wire for the end of
/// its packet, when `arm` is set and the executor accepts.
struct Hand {
    sim: Sim,
    arm: bool,
}

impl GrantHook for Hand {
    /// Packet time.
    type Request = u64;
    /// The instant the wire is held until, when the grant armed the
    /// sender; `None` when the sender sleeps for its packet itself.
    type Outcome = Option<SimTime>;

    fn grant(&mut self, t: u64, waker: &Waker) -> (Option<SimTime>, bool) {
        let until = self.sim.now() + ns(t);
        let armed = self.arm && self.sim.wake_at(waker, until);
        (armed.then_some(until), armed)
    }

    fn disarm(&mut self, waker: &Waker) {
        self.sim.disarm(waker);
    }
}

/// Sends a packet of wire time `t` on `wire`.
async fn send(sim: &Sim, wire: &Resource<Hand>, t: u64) {
    let (_held, armed) = wire.acquire_with(t).await;
    match armed {
        Some(until) => {
            poll_fn(|_| {
                if sim.now() < until {
                    Poll::Pending
                } else {
                    Poll::Ready(())
                }
            })
            .await
        }
        None => sim.sleep(ns(t)).await,
    }
}

#[derive(Clone, Copy, Debug)]
enum Step {
    Think(u64),
    /// Sends a packet of this wire time on wire 0 or 1.
    Send(bool, u64),
}

fn step() -> impl Strategy<Value = Step> {
    // Small times force same-instant hand-overs and same-deadline timers.
    prop_oneof![
        (0u64..4).prop_map(Step::Think),
        (any::<bool>(), 0u64..4).prop_map(|(w, t)| Step::Send(w, t)),
        (any::<bool>(), 0u64..4).prop_map(|(w, t)| Step::Send(w, t)),
    ]
}

fn program() -> impl Strategy<Value = Vec<Vec<Step>>> {
    collection::vec(collection::vec(step(), 1..8), 1..7)
}

/// Runs the senders; returns the `(task, ns)` log and the poll count.
fn execute(tasks: &[Vec<Step>], arm: bool) -> (Vec<(usize, u64)>, u64) {
    let sim = Sim::new();
    let wires: Rc<[Resource<Hand>; 2]> = Rc::new([0, 1].map(|_| {
        let hook = Hand {
            sim: sim.clone(),
            arm,
        };
        Resource::with_hook(1, hook)
    }));
    let log = Rc::new(RefCell::new(Vec::new()));
    for (tag, steps) in tasks.iter().enumerate() {
        let (sim2, wires, log, steps) = (
            sim.clone(),
            Rc::clone(&wires),
            Rc::clone(&log),
            steps.clone(),
        );
        sim.spawn(async move {
            for s in steps {
                match s {
                    Step::Think(d) => sim2.sleep(ns(d)).await,
                    Step::Send(w, t) => send(&sim2, &wires[usize::from(w)], t).await,
                }
                log.borrow_mut().push((tag, sim2.now().as_nanos()));
            }
        });
    }
    let r = sim.run().expect("senders finish");
    let log = log.borrow().clone();
    (log, r.events)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]
    #[test]
    fn an_armed_hand_over_changes_only_the_poll_count(tasks in program()) {
        let (armed, armed_polls) = execute(&tasks, true);
        let (woken, woken_polls) = execute(&tasks, false);
        prop_assert_eq!(&armed, &woken, "logs differ for {:?}", tasks);
        prop_assert!(armed_polls <= woken_polls, "{armed_polls} > {woken_polls} polls for {tasks:?}");
    }
}

#[test]
fn a_queued_sender_is_not_polled_to_start_its_packet() {
    // The thinker's timer at 7 keeps the woken sender's sleep from
    // running ahead, so the woken hand-over costs a poll.
    let tasks = vec![
        vec![Step::Send(false, 5)],
        vec![Step::Send(false, 5)],
        vec![Step::Think(7)],
    ];
    let (armed, armed_polls) = execute(&tasks, true);
    let (woken, woken_polls) = execute(&tasks, false);
    assert_eq!(armed, [(0, 5), (2, 7), (1, 10)]);
    assert_eq!(armed, woken);
    // Woken: the second sender is polled to queue, on the grant, and at
    // 10. Armed: the grant is a timer registration, not a poll.
    assert_eq!((armed_polls, woken_polls), (6, 7));
}

/// A future that hands its task's waker out and stays pending until
/// `done` is set.
struct Park {
    stash: Rc<RefCell<Option<Waker>>>,
    done: Rc<Cell<bool>>,
}

impl Future for Park {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.done.get() {
            return Poll::Ready(());
        }
        *self.stash.borrow_mut() = Some(cx.waker().clone());
        Poll::Pending
    }
}

/// A task parked on a [`Park`]: its waker's stash, its done flag, and
/// the instant it resumed.
struct Parked {
    stash: Rc<RefCell<Option<Waker>>>,
    done: Rc<Cell<bool>>,
    resumed: Rc<Cell<Option<SimTime>>>,
}

fn parked(sim: &Sim) -> Parked {
    let p = Parked {
        stash: Rc::new(RefCell::new(None)),
        done: Rc::new(Cell::new(false)),
        resumed: Rc::new(Cell::new(None)),
    };
    let park = Park {
        stash: Rc::clone(&p.stash),
        done: Rc::clone(&p.done),
    };
    let (s, r) = (sim.clone(), Rc::clone(&p.resumed));
    sim.spawn(async move {
        park.await;
        r.set(Some(s.now()));
    });
    p
}

#[test]
fn an_armed_task_resumes_at_its_deadline_without_a_poll_between() {
    let sim = Sim::new();
    let Parked {
        stash,
        done,
        resumed,
    } = parked(&sim);
    let (s, d) = (sim.clone(), Rc::clone(&done));
    sim.spawn(async move {
        s.sleep(ns(3)).await;
        let w = stash.borrow_mut().take().expect("parked");
        d.set(true);
        assert!(s.wake_at(&w, ns(10)));
    });
    let r = sim.run().unwrap();
    assert_eq!(resumed.get(), Some(ns(10)));
    // Parked task: its first poll and the poll at 10. Armer: one poll,
    // its sleep runs ahead.
    assert_eq!(r.events, 3);
}

#[test]
fn a_foreign_waker_is_not_armed() {
    let sim = Sim::new();
    assert!(!sim.wake_at(Waker::noop(), ns(5)));
    // A task waker of another simulation.
    let other = Sim::new();
    let Parked { stash, done, .. } = parked(&other);
    assert!(other.run().is_err(), "parked task deadlocks");
    let w = stash.borrow_mut().take().expect("parked");
    assert!(!sim.wake_at(&w, ns(5)));
    done.set(true);
    other.shutdown();
}

#[test]
fn a_task_that_is_not_parked_is_not_armed() {
    let sim = Sim::new();
    // Running: a task arming itself from inside its own poll.
    let s = sim.clone();
    let h = sim.spawn(async move {
        let own = poll_fn(|cx| Poll::Ready(cx.waker().clone())).await;
        s.wake_at(&own, ns(5))
    });
    // Finished: the waker of a task that has completed.
    let stash = Rc::new(RefCell::new(None));
    let st = Rc::clone(&stash);
    sim.spawn(async move {
        *st.borrow_mut() = Some(poll_fn(|cx| Poll::Ready(cx.waker().clone())).await);
    });
    sim.run().unwrap();
    assert_eq!(h.try_result(), Some(false));
    let w = stash.borrow_mut().take().expect("stashed");
    assert!(!sim.wake_at(&w, ns(5)));
}

#[test]
fn an_armed_task_is_not_armed_again() {
    let sim = Sim::new();
    let Parked {
        stash,
        done,
        resumed,
    } = parked(&sim);
    let (s, d) = (sim.clone(), Rc::clone(&done));
    let h = sim.spawn(async move {
        s.sleep(ns(1)).await;
        let w = stash.borrow_mut().take().expect("parked");
        d.set(true);
        (s.wake_at(&w, ns(10)), s.wake_at(&w, ns(4)))
    });
    sim.run().unwrap();
    assert_eq!(h.try_result(), Some((true, false)));
    assert_eq!(resumed.get(), Some(ns(10)));
}

#[test]
fn a_deadline_not_after_now_is_not_armed() {
    let sim = Sim::new();
    let Parked {
        stash,
        done,
        resumed,
    } = parked(&sim);
    let (s, d) = (sim.clone(), Rc::clone(&done));
    let h = sim.spawn(async move {
        s.sleep(ns(2)).await;
        let w = stash.borrow_mut().take().expect("parked");
        d.set(true);
        let armed = s.wake_at(&w, ns(2));
        w.wake();
        armed
    });
    sim.run().unwrap();
    assert_eq!(h.try_result(), Some(false));
    assert_eq!(resumed.get(), Some(ns(2)));
}

#[test]
fn a_task_polled_ahead_of_its_armed_entry_still_gets_its_timer() {
    // Armed at 1 for 10, then woken by another source while its armed
    // entry is still queued: the poll that wake causes finds the timer
    // registered, and the armed entry becomes a plain wake.
    let sim = Sim::new();
    let stash = Rc::new(RefCell::new(None));
    let polls = Rc::new(Cell::new(0u32));
    let (s, st, p) = (sim.clone(), Rc::clone(&stash), Rc::clone(&polls));
    let h = sim.spawn(async move {
        let until = ns(10);
        poll_fn(|cx| {
            p.set(p.get() + 1);
            if s.now() >= until {
                return Poll::Ready(());
            }
            *st.borrow_mut() = Some(cx.waker().clone());
            Poll::Pending
        })
        .await;
        s.now()
    });
    let s = sim.clone();
    sim.spawn(async move {
        s.sleep(ns(1)).await;
        let w = stash.borrow_mut().take().expect("parked");
        // A plain wake queued ahead of the armed entry.
        w.wake_by_ref();
        assert!(s.wake_at(&w, ns(10)));
    });
    sim.run().unwrap();
    assert_eq!(h.try_result(), Some(ns(10)));
    // First poll, the early wake, the armed entry as a plain wake, the
    // timer at 10.
    assert_eq!(polls.get(), 4);
}

#[test]
fn a_sleep_behind_an_armed_entry_does_not_run_ahead() {
    // The armed entry is still queued when the armer sleeps past the
    // armed deadline: running ahead would move the clock past the timer
    // the entry is about to register.
    let sim = Sim::new();
    let Parked {
        stash,
        done,
        resumed,
    } = parked(&sim);
    let (s, d, r) = (sim.clone(), Rc::clone(&done), Rc::clone(&resumed));
    let h = sim.spawn(async move {
        s.sleep(ns(1)).await;
        let w = stash.borrow_mut().take().expect("parked");
        d.set(true);
        assert!(s.wake_at(&w, ns(6)));
        s.sleep(ns(7)).await;
        (r.get(), s.now())
    });
    sim.run().unwrap();
    assert_eq!(h.try_result(), Some((Some(ns(6)), ns(8))));
}
