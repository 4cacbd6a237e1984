//! Placed steps ([`Sim::stepped`]) must change nothing but the poll
//! count. A [`StepMachine`] stands for a backend exchange: it holds a
//! capacity-1 [`Resource`] whose hook arms the holder for its hold, at the
//! hold's end lets it go and draws a step sleep from a shared model, and
//! at that sleep's end holds the resource again. Random programs run it
//! stepped and as the plain code it stands for, with inline run-ahead on
//! and off: every run must log the same `(task, time, draw index)` draws
//! and `(task, time)` visits, the same limited-run report and end time,
//! in no more polls. The unit tests pin each fallback.

use std::cell::{Cell, RefCell};
use std::future::{poll_fn, Future};
use std::pin::Pin;
use std::rc::Rc;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

use proptest::prelude::*;

use crate::executor::{yield_now, Sleep};
use crate::resource::Acquire;
use crate::{
    CompletionSet, GrantHook, GrantPlace, Next, Resource, ResourceGuard, Sim, SimTime, StepMachine,
    Stepped,
};

type Boxed = Pin<Box<dyn Future<Output = ()>>>;

fn ns(n: u64) -> SimTime {
    SimTime::from_nanos(n)
}

/// A draw: the drawing task's tag, the instant, and the draw's index.
type Drawn = (u32, u64, usize);

/// A grant hook that arms the holder for the end of its hold, where the
/// place allows it.
struct Hand;

impl GrantHook for Hand {
    /// Hold time.
    type Request = u64;
    type Outcome = Sleep;

    fn grant(&mut self, d: u64, place: &mut GrantPlace<'_>) -> Sleep {
        place.sleep_until(place.sim().now() + ns(d))
    }
}

/// Shared state of one run.
struct World {
    sim: Sim,
    res: Resource<Hand>,
    /// Step sleep `i` takes `times[i % len]`.
    times: Vec<u64>,
    draws: RefCell<Vec<Drawn>>,
    log: RefCell<Vec<(u32, u64)>>,
}

impl World {
    fn new(sim: &Sim, times: &[u64]) -> Rc<Self> {
        Rc::new(Self {
            sim: sim.clone(),
            res: Resource::with_hook(sim, 1, Hand),
            times: times.to_vec(),
            draws: RefCell::new(Vec::new()),
            log: RefCell::new(Vec::new()),
        })
    }

    fn draw(&self) -> SimTime {
        let mut draws = self.draws.borrow_mut();
        let i = draws.len();
        draws.push((self.sim.current_tag(), self.sim.now().as_nanos(), i));
        ns(self.times[i % self.times.len()])
    }

    fn note(&self) {
        let visit = (self.sim.current_tag(), self.sim.now().as_nanos());
        self.log.borrow_mut().push(visit);
    }

    /// The plain code an [`Exchange`] stands for.
    async fn plain(&self, first: u64, second: u64) {
        let (held, hold) = self.res.acquire_with(first).await;
        hold.await;
        drop(held);
        self.sim.sleep(self.draw()).await;
        let (held, hold) = self.res.acquire_with(second).await;
        hold.await;
        drop(held);
    }
}

/// Two holds of the world's resource with a drawn step sleep between.
struct Exchange {
    w: Rc<World>,
    holds: [u64; 2],
    leg: Leg,
}

enum Leg {
    Start,
    Queued(Acquire<Hand>, usize),
    Held(ResourceGuard<Hand>, usize),
    Drawn,
    Done,
}

impl Exchange {
    fn new(w: &Rc<World>, first: u64, second: u64) -> Stepped<Self> {
        w.sim.stepped(Self {
            w: Rc::clone(w),
            holds: [first, second],
            leg: Leg::Start,
        })
    }
}

impl StepMachine for Exchange {
    type Output = ();

    fn step(&mut self, cx: &mut Context<'_>, at_place: bool) -> Next<()> {
        loop {
            self.leg = match std::mem::replace(&mut self.leg, Leg::Done) {
                Leg::Start => Leg::Queued(self.w.res.acquire_with(self.holds[0]), 0),
                Leg::Queued(mut acquire, k) => match Pin::new(&mut acquire).poll(cx) {
                    Poll::Pending => {
                        self.leg = Leg::Queued(acquire, k);
                        return Next::Wake;
                    }
                    Poll::Ready((held, hold)) => {
                        self.leg = Leg::Held(held, k);
                        return Next::Sleep(hold);
                    }
                },
                Leg::Held(held, 0) => {
                    drop(held);
                    self.leg = Leg::Drawn;
                    return Next::Sleep(self.w.sim.sleep(self.w.draw()));
                }
                Leg::Drawn => Leg::Queued(self.w.res.acquire_with(self.holds[1]), 1),
                leg @ Leg::Held(..) if at_place => {
                    self.leg = leg;
                    return Next::Poll;
                }
                Leg::Held(..) => return Next::Ready(()),
                Leg::Done => panic!("stepped after it finished"),
            };
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum Step {
    Think(u64),
    Exchange(u64, u64),
    Yield,
}

fn step() -> impl Strategy<Value = Step> {
    // Small times force same-instant releases, grants, draws and timers.
    prop_oneof![
        (0u64..4).prop_map(Step::Think),
        (0u64..4, 0u64..4).prop_map(|(a, b)| Step::Exchange(a, b)),
        (0u64..4, 0u64..4).prop_map(|(a, b)| Step::Exchange(a, b)),
        Just(Step::Yield),
    ]
}

/// A program: the tasks' steps, the step-sleep times, and an optional
/// first `run_until` limit before the full run.
type Program = (Vec<Vec<Step>>, Vec<u64>, Option<u64>);

fn program() -> impl Strategy<Value = Program> {
    (
        collection::vec(collection::vec(step(), 1..6), 1..6),
        collection::vec(0u64..5, 1..6),
        (any::<bool>(), 0u64..30),
    )
        .prop_map(|(tasks, times, (limited, limit))| (tasks, times, limited.then_some(limit)))
}

/// Everything a run exposes except its cost.
#[derive(Debug, PartialEq)]
struct Observed {
    draws: Vec<Drawn>,
    log: Vec<(u32, u64)>,
    /// `(end_time, live_tasks, hit_time_limit)` of the limited run.
    limited: Option<(SimTime, usize, bool)>,
    end_time: SimTime,
}

/// The cost of a run.
#[derive(Debug)]
struct Cost {
    polls: u64,
    placed: u64,
}

fn execute((tasks, times, limit): &Program, stepped: bool, run_ahead: bool) -> (Observed, Cost) {
    let sim = Sim::new();
    sim.set_run_ahead(run_ahead);
    let w = World::new(&sim, times);
    for (i, steps) in tasks.iter().enumerate() {
        let (w, steps) = (Rc::clone(&w), steps.clone());
        sim.spawn(async move {
            w.sim.tag_current(i as u32 + 1);
            for s in steps {
                match s {
                    Step::Think(d) => w.sim.sleep(ns(d)).await,
                    Step::Exchange(a, b) if stepped => Exchange::new(&w, a, b).await,
                    Step::Exchange(a, b) => w.plain(a, b).await,
                    Step::Yield => yield_now().await,
                }
                w.note();
            }
        });
    }
    let limited = limit.map(|l| sim.run_until(ns(l)).expect("limited run"));
    let r = sim.run().expect("program runs to completion");
    let observed = Observed {
        draws: w.draws.borrow().clone(),
        log: w.log.borrow().clone(),
        limited: limited.map(|l| (l.end_time, l.live_tasks, l.hit_time_limit)),
        end_time: r.end_time,
    };
    let cost = Cost {
        polls: r.events,
        placed: sim.placed_steps(),
    };
    (observed, cost)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]
    #[test]
    fn place_steps_change_only_the_poll_count(p in program()) {
        for run_ahead in [true, false] {
            let (want, plain) = execute(&p, false, run_ahead);
            let (got, cost) = execute(&p, true, run_ahead);
            prop_assert_eq!(&got, &want, "run_ahead={} {:?}", run_ahead, p);
            prop_assert_eq!(plain.placed, 0);
            prop_assert!(cost.polls <= plain.polls, "{cost:?} > {plain:?} for {p:?}");
            if !run_ahead {
                // Each placed step is the poll the plain code took there.
                prop_assert_eq!(cost.polls + cost.placed, plain.polls, "{:?}", p);
            }
        }
    }
}

#[test]
fn the_middle_steps_of_a_queued_exchange_are_not_polls() {
    // Task 1 holds the resource until 5, draws, and queues at 6 behind
    // task 2, which was handed the resource at 5, armed for 3. Each hold's
    // end and each draw's end runs at its task's place; task 1's second
    // hold takes no time, and task 2's last hold ends at 12.
    let p: Program = (
        vec![vec![Step::Exchange(5, 0)], vec![Step::Exchange(3, 2)]],
        vec![1, 2],
        None,
    );
    // With run-ahead on, task 2's second hold runs ahead at its draw's end
    // to 12, where the task is polled: that step was not placed.
    for (run_ahead, placed) in [(true, 3), (false, 4)] {
        let (want, plain) = execute(&p, false, run_ahead);
        let (got, cost) = execute(&p, true, run_ahead);
        assert_eq!(got, want);
        assert_eq!(got.draws, [(1, 5, 0), (2, 8, 1)]);
        assert_eq!(got.log, [(1, 8), (2, 12)]);
        assert_eq!(cost.placed, placed, "run_ahead={run_ahead}");
        assert_eq!(cost.polls + placed, plain.polls, "run_ahead={run_ahead}");
    }
}

/// Runs one exchange of holds `(2, 5)` with step sleeps of 3 in task 2,
/// queued behind task 1's hold of the resource until 4, through `wrap`,
/// which may spawn helpers first; returns the draws, task 2's end, and
/// the run's polls and placed steps.
fn behind_a_holder(
    stepped: bool,
    wrap: impl FnOnce(Rc<World>, Boxed) -> Boxed,
) -> (Vec<Drawn>, Option<SimTime>, u64, u64) {
    let sim = Sim::new();
    let w = World::new(&sim, &[3]);
    let w2 = Rc::clone(&w);
    let body: Boxed = if stepped {
        Box::pin(Exchange::new(&w, 2, 5))
    } else {
        Box::pin(async move { w2.plain(2, 5).await })
    };
    let body = wrap(Rc::clone(&w), body);
    let w1 = Rc::clone(&w);
    sim.spawn(async move {
        w1.sim.tag_current(1);
        let (_held, hold) = w1.res.acquire_with(4).await;
        hold.await;
    });
    let s = sim.clone();
    let ended = sim.spawn(async move {
        s.tag_current(2);
        body.await;
        s.now()
    });
    let r = sim.run().expect("runs");
    let draws = w.draws.borrow().clone();
    (draws, ended.try_result(), r.events, sim.placed_steps())
}

#[test]
fn a_task_polled_ahead_of_its_grant_runs_the_leg_in_its_poll() {
    // Task 3 wakes task 2 at 4, ahead of task 1's release there, which
    // hands task 2 the resource: the poll the wake causes runs the hook,
    // unarmed, and steps the machine in the poll; the grant entry behind
    // it is a plain wake, and the machine goes on in polls, as the plain
    // code does.
    let run = |stepped| {
        behind_a_holder(stepped, |w, mut body| {
            let stash: Rc<RefCell<Option<Waker>>> = Rc::new(RefCell::new(None));
            let (s, waker) = (w.sim.clone(), Rc::clone(&stash));
            w.sim.spawn(async move {
                s.tag_current(3);
                s.sleep(ns(4)).await;
                waker.borrow_mut().take().expect("stashed").wake();
            });
            Box::pin(poll_fn(move |cx| {
                if stash.borrow().is_none() {
                    *stash.borrow_mut() = Some(cx.waker().clone());
                }
                body.as_mut().poll(cx)
            }))
        })
    };
    let got = run(true);
    let want = run(false);
    assert_eq!(got.0, [(2, 6, 0)]);
    assert_eq!(got.1, Some(ns(14)));
    assert_eq!((got.0, got.1, got.2), (want.0, want.1, want.2));
    assert_eq!(got.3, 0, "no step is placed");
}

/// Wakes the task whose waker it holds: a waker that is not the task's
/// own.
struct Forward(Waker);

impl Wake for Forward {
    fn wake(self: Arc<Self>) {
        self.0.wake_by_ref();
    }
}

#[test]
fn a_foreign_waker_steps_in_the_poll() {
    let run = |stepped| {
        behind_a_holder(stepped, |_, mut body| {
            Box::pin(poll_fn(move |cx| {
                let waker = Waker::from(Arc::new(Forward(cx.waker().clone())));
                body.as_mut().poll(&mut Context::from_waker(&waker))
            }))
        })
    };
    let got = run(true);
    let want = run(false);
    assert_eq!((&got.0, got.1), (&want.0, want.1));
    assert_eq!(got.0, [(2, 6, 0)]);
    assert_eq!(got.1, Some(ns(14)));
    assert_eq!(got.3, 0, "no step is placed");
    assert!(got.2 <= want.2);
}

#[test]
fn a_machine_inside_wait_all_steps_in_the_poll() {
    let run = |stepped| {
        behind_a_holder(stepped, |w, body| {
            Box::pin(async move {
                let mut set = CompletionSet::<Boxed>::new();
                set.submit(body);
                let s = w.sim.clone();
                set.submit(Box::pin(async move { s.sleep(ns(1)).await }));
                set.wait_all(|f, cx| f.as_mut().poll(cx)).await;
            })
        })
    };
    let got = run(true);
    let want = run(false);
    assert_eq!((&got.0, got.1), (&want.0, want.1));
    assert_eq!(got.1, Some(ns(14)));
    assert_eq!(got.3, 0, "no step is placed");
}

#[test]
fn a_machine_dropped_mid_leg_runs_no_further_step() {
    // Task 2's machine is armed to the end of its first hold at 6 when
    // task 3 drops it at 5: the resource goes back, nothing is drawn, and
    // the stale timer at 6 polls task 2 once.
    let sim = Sim::new();
    let w = World::new(&sim, &[3]);
    let cell: Rc<RefCell<Option<Boxed>>> = Rc::new(RefCell::new(None));
    let (s, c) = (sim.clone(), Rc::clone(&cell));
    let w2 = Rc::clone(&w);
    let task = sim.spawn(async move {
        s.tag_current(2);
        *c.borrow_mut() = Some(Box::pin(Exchange::new(&w2, 6, 1)));
        poll_fn(|cx| match &mut *c.borrow_mut() {
            Some(f) => f.as_mut().poll(cx),
            None => Poll::Ready(()),
        })
        .await;
        s.now()
    });
    let s = sim.clone();
    sim.spawn(async move {
        s.sleep(ns(5)).await;
        drop(cell.borrow_mut().take());
    });
    let r = sim.run().unwrap();
    assert!(w.draws.borrow().is_empty());
    assert_eq!(task.try_result(), Some(ns(6)));
    assert_eq!((w.res.available(), sim.placed_steps()), (1, 0));
    // Task 2: its first poll and the stale timer's plain wake. Task 3:
    // one poll, whose sleep runs ahead to 5.
    assert_eq!(r.events, 3);
}

#[test]
fn a_machine_dropped_with_its_grant_queued_passes_the_resource_on() {
    // Task 2's machine waits behind task 1's hold until 4. Task 3, woken
    // at 4 before task 1's release, drops it: the release at 4 hands task
    // 2 the resource and queues its grant at the step record, which the
    // drop turns into a plain grant entry; that entry recycles the waiter
    // slot, and task 4, queued behind, gets the resource.
    let sim = Sim::new();
    let w = World::new(&sim, &[3]);
    let w1 = Rc::clone(&w);
    sim.spawn(async move {
        let (_held, hold) = w1.res.acquire_with(4).await;
        hold.await;
    });
    let cell: Rc<RefCell<Option<Boxed>>> = Rc::new(RefCell::new(None));
    let (c, w2) = (Rc::clone(&cell), Rc::clone(&w));
    sim.spawn(async move {
        *c.borrow_mut() = Some(Box::pin(Exchange::new(&w2, 2, 1)));
        poll_fn(|cx| match &mut *c.borrow_mut() {
            Some(f) => f.as_mut().poll(cx),
            None => Poll::Ready(()),
        })
        .await;
    });
    let (s, w4) = (sim.clone(), Rc::clone(&w));
    let next = sim.spawn(async move {
        let (_held, hold) = w4.res.acquire_with(3).await;
        hold.await;
        s.now()
    });
    let s = sim.clone();
    let dropped = Rc::new(Cell::new(false));
    let d = Rc::clone(&dropped);
    sim.spawn(async move {
        s.sleep(ns(4)).await;
        // Task 1's release at 4 has run: its timer was registered first.
        drop(cell.borrow_mut().take());
        d.set(true);
    });
    sim.run().unwrap();
    assert!(dropped.get());
    assert!(w.draws.borrow().is_empty());
    assert_eq!(next.try_result(), Some(ns(7)));
    assert_eq!(w.res.available(), 1);
    // The recycled waiter slot is reused: one more waiter takes no new one.
    let Poll::Ready((held, _)) =
        Pin::new(&mut w.res.acquire_with(1)).poll(&mut Context::from_waker(Waker::noop()))
    else {
        panic!("free permit not granted");
    };
    drop(held);
}

#[test]
fn shutdown_drops_a_pending_step() {
    // Stopped at 3 with task 2's step due at 5: shutdown drops the step
    // record before the machine, which then has nothing to unplace.
    let sim = Sim::new();
    let w = World::new(&sim, &[3]);
    let w2 = Rc::clone(&w);
    let finished = Rc::new(Cell::new(false));
    let f = Rc::clone(&finished);
    sim.spawn(async move {
        Exchange::new(&w2, 5, 1).await;
        f.set(true);
    });
    let r = sim.run_until(ns(3)).unwrap();
    assert!(r.hit_time_limit);
    assert_eq!(
        Rc::strong_count(&w),
        3,
        "the task and its machine hold the world"
    );
    sim.shutdown();
    assert_eq!(Rc::strong_count(&w), 1, "shutdown dropped both");
    assert_eq!(w.res.available(), 1);
    sim.run().unwrap();
    assert!(!finished.get());
    assert!(w.draws.borrow().is_empty());
}
