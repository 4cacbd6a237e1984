//! An armed hand-over must change nothing but the poll count. A
//! capacity-1 [`Resource`] models a wire whose grant hook, at the
//! grantee's place, either arms the next queued sender for the end of its
//! packet ([`GrantPlace::sleep_until`]), or leaves it to be polled and
//! sleep for itself; random senders must observe the same simulated times
//! in the same global order both ways, in no more polls. The unit tests
//! pin where a grant can and cannot be armed.

use std::cell::{Cell, RefCell};
use std::future::{poll_fn, Future};
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use proptest::prelude::*;

use crate::executor::Sleep;
use crate::{GrantHook, GrantPlace, Resource, Sim, SimTime};

fn ns(n: u64) -> SimTime {
    SimTime::from_nanos(n)
}

/// The wire's grant hook: holds a sender granted the wire for its packet
/// time, armed when `arm` is set and the place allows it. It logs whether
/// each grant armed.
struct Hand {
    arm: bool,
    armed: Rc<RefCell<Vec<bool>>>,
}

impl GrantHook for Hand {
    /// Packet time.
    type Request = u64;
    /// The sleep to the end of the packet.
    type Outcome = Sleep;

    fn grant(&mut self, t: u64, place: &mut GrantPlace<'_>) -> Sleep {
        let until = place.sim().now() + ns(t);
        let hold = if self.arm {
            place.sleep_until(until)
        } else {
            place.sim().sleep_until(until)
        };
        self.armed.borrow_mut().push(place.armed().is_some());
        hold
    }
}

fn wire(sim: &Sim, arm: bool) -> (Resource<Hand>, Rc<RefCell<Vec<bool>>>) {
    let armed = Rc::new(RefCell::new(Vec::new()));
    let hook = Hand {
        arm,
        armed: Rc::clone(&armed),
    };
    (Resource::with_hook(sim, 1, hook), armed)
}

/// Sends a packet of wire time `t` on `wire`.
async fn send(wire: &Resource<Hand>, t: u64) {
    let (_held, hold) = wire.acquire_with(t).await;
    hold.await;
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
    let wires: Rc<[Resource<Hand>; 2]> = Rc::new([0, 1].map(|_| wire(&sim, arm).0));
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
                    Step::Send(w, t) => send(&wires[usize::from(w)], t).await,
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
    // Woken: the second sender is polled to queue, at its place, and at
    // 10. Armed: its place is a timer registration, not a poll.
    assert_eq!((armed_polls, woken_polls), (6, 7));
}

/// Spawns a holder that takes `wire` at 0 and lets it go at `release`,
/// and a sender queued behind it with packet time `t`; returns the
/// instant the sender's packet ended.
fn hand_over(sim: &Sim, wire: &Resource<Hand>, release: u64, t: u64) -> Rc<Cell<Option<SimTime>>> {
    let (s, w) = (sim.clone(), wire.clone());
    sim.spawn(async move {
        let _held = w.acquire_with(0).await;
        s.sleep(ns(release)).await;
    });
    let ended = Rc::new(Cell::new(None));
    let (s, w, e) = (sim.clone(), wire.clone(), Rc::clone(&ended));
    sim.spawn(async move {
        send(&w, t).await;
        e.set(Some(s.now()));
    });
    ended
}

#[test]
fn an_armed_task_resumes_at_its_deadline_without_a_poll_between() {
    let sim = Sim::new();
    let (wire, armed) = wire(&sim, true);
    let ended = hand_over(&sim, &wire, 3, 7);
    let r = sim.run().unwrap();
    assert_eq!(ended.get(), Some(ns(10)));
    // The holder's immediate grant, then the sender's grant at its place.
    assert_eq!(*armed.borrow(), [false, true]);
    assert_eq!((wire.armed_grants(), sim.armed_by_tag()[0]), (1, 1));
    // Holder: its first poll and the release at 3. Sender: its first poll
    // and the poll at 10, none at its place.
    assert_eq!(r.events, 4);
}

#[test]
fn a_foreign_waker_is_not_armed() {
    // Polled by hand: no ready queue to hold a place.
    let sim = Sim::new();
    let (w, armed) = wire(&sim, true);
    let mut cx = Context::from_waker(Waker::noop());
    let Poll::Ready(held) = Pin::new(&mut w.acquire_with(0)).poll(&mut cx) else {
        panic!("free permit not granted");
    };
    let mut queued = w.acquire_with(4);
    assert!(Pin::new(&mut queued).poll(&mut cx).is_pending());
    drop(held);
    assert!(Pin::new(&mut queued).poll(&mut cx).is_ready());
    assert_eq!(*armed.borrow(), [false, false]);
    // A task waker of another simulation is woken on its own simulation,
    // not given a place in this one.
    let plain = Resource::new(&sim, 1);
    let Poll::Ready(held) = Pin::new(&mut plain.acquire()).poll(&mut cx) else {
        panic!("free permit not granted");
    };
    let other = Sim::new();
    let p = plain.clone();
    let h = other.spawn(async move { drop(p.acquire().await) });
    assert!(other.run().is_err(), "the waiter waits on a held permit");
    drop(held);
    other.run().unwrap();
    assert!(h.is_finished());
    assert_eq!(plain.available(), 1);
}

#[test]
fn a_task_that_is_not_parked_is_not_armed() {
    let sim = Sim::new();
    let (w, armed) = wire(&sim, true);
    // Running: a task whose release hands the permit to its own queued
    // acquire, which it then polls in the same poll.
    let (s, w1) = (sim.clone(), w.clone());
    let h = sim.spawn(async move {
        let (held, _) = w1.acquire_with(0).await;
        let mut mine = w1.acquire_with(4);
        poll_fn(|cx| {
            assert!(Pin::new(&mut mine).poll(cx).is_pending());
            Poll::Ready(())
        })
        .await;
        drop(held);
        let (_held, hold) = poll_fn(|cx| Pin::new(&mut mine).poll(cx)).await;
        hold.await;
        s.now()
    });
    sim.run().unwrap();
    assert_eq!(h.try_result(), Some(ns(4)));
    // Finished: an acquire queued by a task that has completed since.
    let stash = Rc::new(RefCell::new(None));
    let (st, w2) = (Rc::clone(&stash), w.clone());
    let held = sim.spawn(async move { w2.acquire_with(0).await });
    let w3 = w.clone();
    sim.spawn(async move {
        let mut acq = w3.acquire_with(4);
        poll_fn(|cx| {
            assert!(Pin::new(&mut acq).poll(cx).is_pending());
            Poll::Ready(())
        })
        .await;
        *st.borrow_mut() = Some(acq);
    });
    sim.run().unwrap();
    drop(held.try_result().expect("granted"));
    let mut acq = stash.borrow_mut().take().expect("stashed");
    assert!(Pin::new(&mut acq)
        .poll(&mut Context::from_waker(Waker::noop()))
        .is_ready());
    assert_eq!(*armed.borrow(), [false; 4]);
}

#[test]
fn an_armed_task_is_not_armed_again() {
    // One task granted two wires before its place: its first grant takes
    // the place and may arm; the second wakes it, and its hook runs in
    // that poll, unarmed.
    let sim = Sim::new();
    let (a, armed_a) = wire(&sim, true);
    let (b, armed_b) = wire(&sim, true);
    let (s, a1, b1) = (sim.clone(), a.clone(), b.clone());
    sim.spawn(async move {
        let held = (a1.acquire_with(0).await, b1.acquire_with(0).await);
        s.sleep(ns(1)).await;
        drop(held);
    });
    let (s, a2, b2) = (sim.clone(), a.clone(), b.clone());
    let h = sim.spawn(async move {
        let (mut x, mut y) = (a2.acquire_with(10), b2.acquire_with(4));
        let (mut gx, mut gy) = (None, None);
        poll_fn(|cx| {
            if gx.is_none() {
                gx = match Pin::new(&mut x).poll(cx) {
                    Poll::Ready(g) => Some(g),
                    Poll::Pending => None,
                };
            }
            if gy.is_none() {
                gy = match Pin::new(&mut y).poll(cx) {
                    Poll::Ready(g) => Some(g),
                    Poll::Pending => None,
                };
            }
            if gx.is_some() && gy.is_some() {
                Poll::Ready(())
            } else {
                Poll::Pending
            }
        })
        .await;
        let ((_gx, hx), (_gy, hy)) = (gx.unwrap(), gy.unwrap());
        hy.await;
        let mid = s.now();
        hx.await;
        (mid, s.now())
    });
    sim.run().unwrap();
    assert_eq!(h.try_result(), Some((ns(5), ns(11))));
    assert_eq!(*armed_a.borrow(), [false, true]);
    assert_eq!(*armed_b.borrow(), [false, false]);
}

#[test]
fn a_deadline_not_after_now_is_not_armed() {
    let sim = Sim::new();
    let (w, armed) = wire(&sim, true);
    let ended = hand_over(&sim, &w, 2, 0);
    let r = sim.run().unwrap();
    assert_eq!(ended.get(), Some(ns(2)));
    assert_eq!(*armed.borrow(), [false, false]);
    // The sender is polled at its place, and its hold ends in that poll.
    assert_eq!(r.events, 4);
}

#[test]
fn a_task_polled_ahead_of_its_armed_entry_still_gets_its_timer() {
    // Handed the wire at 1 for 9, and woken by another source whose wake
    // was queued ahead of the grant entry: the poll that wake causes runs
    // the hook first, unarmed, and the grant entry becomes a plain wake.
    let sim = Sim::new();
    let (w, armed) = wire(&sim, true);
    let stash = Rc::new(RefCell::new(None));
    let (s, w1, st) = (sim.clone(), w.clone(), Rc::clone(&stash));
    sim.spawn(async move {
        let _held = w1.acquire_with(0).await;
        s.sleep(ns(1)).await;
        let waker: Waker = st.borrow_mut().take().expect("parked");
        waker.wake();
    });
    let (s, w2, st) = (sim.clone(), w.clone(), Rc::clone(&stash));
    let h = sim.spawn(async move {
        let mut acq = w2.acquire_with(9);
        let (_held, hold) = poll_fn(|cx| {
            *st.borrow_mut() = Some(cx.waker().clone());
            Pin::new(&mut acq).poll(cx)
        })
        .await;
        hold.await;
        s.now()
    });
    let r = sim.run().unwrap();
    assert_eq!(h.try_result(), Some(ns(10)));
    assert_eq!(*armed.borrow(), [false, false]);
    // Holder: two polls. Sender: its first poll, the early wake (grant
    // and sleep), the grant entry as a plain wake, the timer at 10.
    assert_eq!(r.events, 6);
}

#[test]
fn a_sleep_behind_an_armed_entry_does_not_run_ahead() {
    // The grant entry is still queued when the releaser sleeps past the
    // hold's end: running ahead would move the clock past the timer the
    // entry is about to register.
    let sim = Sim::new();
    let (w, armed) = wire(&sim, true);
    let ended = Rc::new(Cell::new(None));
    let (s, w1, e) = (sim.clone(), w.clone(), Rc::clone(&ended));
    let h = sim.spawn(async move {
        let held = w1.acquire_with(0).await;
        s.sleep(ns(1)).await;
        drop(held);
        s.sleep(ns(7)).await;
        (e.get(), s.now())
    });
    let (s, w2, e) = (sim.clone(), w.clone(), Rc::clone(&ended));
    sim.spawn(async move {
        send(&w2, 5).await;
        e.set(Some(s.now()));
    });
    sim.run().unwrap();
    assert_eq!(h.try_result(), Some((Some(ns(6)), ns(8))));
    assert_eq!(*armed.borrow(), [false, true]);
}
