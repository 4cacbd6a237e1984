//! Idle re-arms ([`Sim::idle_ticks`]), armed spawns ([`Sim::spawn_at`])
//! and armed grants ([`GrantPlace::sleep_until`]) must change nothing but
//! the poll count, alone or together, though their records share one
//! table. Random programs run with each primitive, with all three, and
//! with the plain code they stand for, with inline run-ahead on and off:
//! every run must log the same `(task, time)` visits in the same global
//! order, and the primitives may only lower the polls.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::Poll;

use proptest::prelude::*;

use crate::executor::{yield_now, Sleep};
use crate::{CompletionSet, GrantHook, GrantPlace, Resource, Sim, SimTime};

type Boxed = Pin<Box<dyn Future<Output = ()>>>;

fn ns(n: u64) -> SimTime {
    SimTime::from_nanos(n)
}

/// One step of a random task program.
#[derive(Debug)]
enum Step {
    Sleep(u64),
    /// Gives ticker `k` (modulo the number of tickers) one unit of work.
    Dirty(usize),
    /// Holds the shared capacity-1 resource across a sleep.
    Hold(u64),
    Yield,
    /// Spawns a child that starts with a sleep of this length, then runs
    /// its own steps; a daemon child does not keep the run alive.
    SpawnAt {
        delay: u64,
        daemon: bool,
        steps: Rc<Vec<Step>>,
    },
}

fn leaf_step() -> impl Strategy<Value = Step> {
    // Small times force ticks, dirtying and timers at the same instants.
    prop_oneof![
        (0u64..6).prop_map(Step::Sleep),
        (0usize..4).prop_map(Step::Dirty),
        (0usize..4).prop_map(Step::Dirty),
        (0u64..4).prop_map(Step::Hold),
        Just(()).prop_map(|()| Step::Yield),
    ]
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        leaf_step(),
        leaf_step(),
        (0u64..8, any::<bool>(), collection::vec(leaf_step(), 0..4)).prop_map(
            |(delay, daemon, steps)| Step::SpawnAt {
                delay,
                daemon,
                steps: Rc::new(steps),
            }
        ),
    ]
}

/// A program: live tasks; tickers `(period, work time)` that wait for
/// work in idle ticks, log, take all of it and spend the work time on
/// it; and an optional first `run_until` limit before the full run.
#[derive(Debug)]
struct Program {
    tasks: Vec<Rc<Vec<Step>>>,
    tickers: Vec<(u64, u64)>,
    limit: Option<u64>,
}

fn program() -> impl Strategy<Value = Program> {
    (
        collection::vec(collection::vec(step(), 0..8), 1..5),
        collection::vec((1u64..5, 0u64..4), 1..4),
        (any::<bool>(), 0u64..40),
    )
        .prop_map(|(tasks, tickers, (limited, limit))| Program {
            tasks: tasks.into_iter().map(Rc::new).collect(),
            tickers,
            limit: limited.then_some(limit),
        })
}

/// How a run executes: which primitives replace their plain code, and
/// whether sleeps run ahead inline.
#[derive(Clone, Copy, Debug)]
struct Mode {
    run_ahead: bool,
    idle_ticks: bool,
    spawn_at: bool,
}

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

/// Shared state of one run; every visit logs `(task, now)`.
#[derive(Clone)]
struct World {
    sim: Sim,
    mode: Mode,
    res: Rc<Resource>,
    /// When set, holds take this resource instead, whose hook arms them.
    armed: Option<Rc<Resource<Hand>>>,
    work: Rc<Vec<Cell<u32>>>,
    log: Rc<RefCell<Vec<(u32, u64)>>>,
    next_tag: Rc<Cell<u32>>,
}

impl World {
    fn tag(&self) -> u32 {
        let t = self.next_tag.get();
        self.next_tag.set(t + 1);
        t
    }

    fn note(&self, tag: u32) {
        self.log.borrow_mut().push((tag, self.sim.now().as_nanos()));
    }

    /// Waits in ticks of `period` until ticker `k` has work.
    async fn wait_for_work(&self, k: usize, period: u64) {
        let work = Rc::clone(&self.work);
        let idle = move || work[k].get() == 0;
        if self.mode.idle_ticks {
            self.sim.idle_ticks(ns(period), idle).await;
        } else {
            loop {
                self.sim.sleep(ns(period)).await;
                if !idle() {
                    break;
                }
            }
        }
    }

    /// Spawns `body` to start at `deadline`.
    fn spawn_at(&self, deadline: SimTime, daemon: bool, body: Boxed) {
        match (self.mode.spawn_at, daemon) {
            (true, false) => drop(self.sim.spawn_at(deadline, body)),
            (true, true) => drop(self.sim.spawn_daemon_at(deadline, body)),
            (false, _) => {
                let sim = self.sim.clone();
                let body = async move {
                    sim.sleep_until(deadline).await;
                    body.await;
                };
                if daemon {
                    self.sim.spawn_daemon(body);
                } else {
                    self.sim.spawn(body);
                }
            }
        }
    }
}

fn run_steps(w: World, tag: u32, steps: Rc<Vec<Step>>) -> Boxed {
    Box::pin(async move {
        for step in steps.iter() {
            match step {
                Step::Sleep(d) => w.sim.sleep(ns(*d)).await,
                Step::Dirty(k) => {
                    let c = &w.work[k % w.work.len()];
                    c.set(c.get() + 1);
                }
                Step::Hold(d) => match &w.armed {
                    Some(res) => {
                        let (_held, hold) = res.acquire_with(*d).await;
                        hold.await;
                    }
                    None => {
                        let _held = w.res.acquire().await;
                        w.sim.sleep(ns(*d)).await;
                    }
                },
                Step::Yield => yield_now().await,
                Step::SpawnAt {
                    delay,
                    daemon,
                    steps,
                } => {
                    let child = w.tag();
                    let deadline = w.sim.now() + ns(*delay);
                    let (w2, steps) = (w.clone(), Rc::clone(steps));
                    let body = Box::pin(async move {
                        w2.note(child);
                        run_steps(w2.clone(), child, steps).await;
                    });
                    w.spawn_at(deadline, *daemon, body);
                }
            }
            w.note(tag);
        }
    })
}

/// Everything a run exposes except its cost.
#[derive(Debug, PartialEq)]
struct Observed {
    log: Vec<(u32, u64)>,
    /// `(end_time, live_tasks, hit_time_limit)` of the limited run.
    limited: Option<(SimTime, usize, bool)>,
    end_time: SimTime,
}

/// The cost of a run: polls, and place entries that registered a timer
/// instead of a poll.
#[derive(Debug)]
struct Cost {
    polls: u64,
    rearms: u64,
}

fn execute(p: &Program, mode: Mode) -> (Observed, Cost) {
    execute_armed(p, mode, false)
}

/// [`execute`], with the holds armed at their grants when `arm` is set.
fn execute_armed(p: &Program, mode: Mode, arm: bool) -> (Observed, Cost) {
    let sim = Sim::new();
    sim.set_run_ahead(mode.run_ahead);
    let w = World {
        sim: sim.clone(),
        mode,
        res: Rc::new(Resource::new(&sim, 1)),
        armed: arm.then(|| Rc::new(Resource::with_hook(&sim, 1, Hand))),
        work: Rc::new(p.tickers.iter().map(|_| Cell::new(0)).collect()),
        log: Rc::new(RefCell::new(Vec::new())),
        next_tag: Rc::new(Cell::new(0)),
    };
    for (k, &(period, busy)) in p.tickers.iter().enumerate() {
        let (w, tag) = (w.clone(), w.tag());
        sim.spawn_daemon(async move {
            loop {
                w.wait_for_work(k, period).await;
                w.note(tag);
                w.work[k].set(0);
                w.sim.sleep(ns(busy)).await;
                w.note(tag);
            }
        });
    }
    for steps in &p.tasks {
        let tag = w.tag();
        sim.spawn(run_steps(w.clone(), tag, Rc::clone(steps)));
    }
    let limited = p
        .limit
        .map(|limit| sim.run_until(ns(limit)).expect("limited run"));
    let r = sim.run().expect("program runs to completion");
    let log = w.log.borrow().clone();
    let cost = Cost {
        polls: r.events,
        rearms: sim.armed_by_tag()[0],
    };
    sim.shutdown();
    let observed = Observed {
        log,
        limited: limited.map(|l| (l.end_time, l.live_tasks, l.hit_time_limit)),
        end_time: r.end_time,
    };
    (observed, cost)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]
    #[test]
    fn idle_ticks_change_only_the_poll_count(p in program()) {
        for run_ahead in [true, false] {
            let plain = Mode { run_ahead, idle_ticks: false, spawn_at: false };
            let (want, plain_cost) = execute(&p, plain);
            let (got, cost) = execute(&p, Mode { idle_ticks: true, ..plain });
            prop_assert_eq!(&got, &want, "run_ahead={} {:?}", run_ahead, p);
            prop_assert!(cost.polls <= plain_cost.polls, "{cost:?} > {plain_cost:?} for {p:?}");
            prop_assert_eq!(plain_cost.rearms, 0);
        }
    }

    #[test]
    fn spawn_at_changes_only_the_poll_count(p in program()) {
        for run_ahead in [true, false] {
            let plain = Mode { run_ahead, idle_ticks: false, spawn_at: false };
            let (want, plain_cost) = execute(&p, plain);
            let (got, cost) = execute(&p, Mode { spawn_at: true, ..plain });
            prop_assert_eq!(&got, &want, "run_ahead={} {:?}", run_ahead, p);
            prop_assert!(cost.polls <= plain_cost.polls, "{cost:?} > {plain_cost:?} for {p:?}");
        }
    }

    #[test]
    fn place_entries_together_change_only_the_poll_count(p in program()) {
        for run_ahead in [true, false] {
            let plain = Mode { run_ahead, idle_ticks: false, spawn_at: false };
            let (want, plain_cost) = execute(&p, plain);
            let all = Mode { idle_ticks: true, spawn_at: true, ..plain };
            let (got, cost) = execute_armed(&p, all, true);
            prop_assert_eq!(&got, &want, "run_ahead={} {:?}", run_ahead, p);
            prop_assert!(cost.polls <= plain_cost.polls, "{cost:?} > {plain_cost:?} for {p:?}");
            prop_assert_eq!(plain_cost.rearms, 0);
        }
    }

    #[test]
    fn an_always_idle_daemon_costs_one_poll(period in 1u64..50, horizon in 0u64..5_000, run_ahead in any::<bool>()) {
        let sim = Sim::new();
        sim.set_run_ahead(run_ahead);
        let polls = Rc::new(Cell::new(0u32));
        let (s, p) = (sim.clone(), Rc::clone(&polls));
        let mut ticks = Box::pin(async move {
            s.idle_ticks(ns(period), || true).await;
            unreachable!("an always idle daemon never finds work");
        });
        sim.spawn_daemon(std::future::poll_fn(move |cx| {
            p.set(p.get() + 1);
            ticks.as_mut().poll(cx)
        }));
        let s = sim.clone();
        sim.spawn(async move {
            // Two sleeps, so the task parks with the daemon's tick pending.
            s.sleep(ns(horizon / 2)).await;
            s.sleep(ns(horizon - horizon / 2)).await;
        });
        let r = sim.run().expect("runs");
        prop_assert_eq!(r.end_time, ns(horizon));
        prop_assert_eq!(polls.get(), 1, "period {} horizon {}", period, horizon);
        // Each tick up to the horizon was re-armed without a poll, or
        // ran ahead inside the daemon's one poll.
        let rearms = sim.armed_by_tag()[0];
        prop_assert!(rearms <= horizon / period);
        if !run_ahead {
            prop_assert_eq!(rearms, horizon / period);
        }
        sim.shutdown();
    }
}

#[test]
fn a_ticker_that_finds_work_is_polled_once_at_that_tick() {
    let sim = Sim::new();
    let work = Rc::new(Cell::new(false));
    let (s, wk) = (sim.clone(), Rc::clone(&work));
    let h = sim.spawn_daemon(async move {
        let w = Rc::clone(&wk);
        s.idle_ticks(ns(10), move || !w.get()).await;
        s.now()
    });
    let (s, wk) = (sim.clone(), Rc::clone(&work));
    sim.spawn(async move {
        s.sleep(ns(35)).await;
        wk.set(true);
        s.sleep(ns(20)).await;
    });
    let r = sim.run().unwrap();
    assert_eq!(h.try_result(), Some(ns(40)));
    // Ticks at 10, 20 and 30 found nothing.
    assert_eq!(sim.armed_by_tag()[0], 3);
    // Daemon: its first poll and the tick at 40. Task: its first poll
    // and its wakes at 35 and 55.
    assert_eq!(r.events, 5);
    sim.shutdown();
}

#[test]
fn shutdown_drops_the_predicate_of_a_parked_ticker() {
    let sim = Sim::new();
    let held = Rc::new(());
    let (s, h) = (sim.clone(), Rc::clone(&held));
    sim.spawn_daemon(async move {
        s.idle_ticks(ns(5), move || Rc::strong_count(&h) > 0).await;
    });
    let s = sim.clone();
    sim.spawn(async move { s.sleep(ns(12)).await });
    sim.run().unwrap();
    assert_eq!(Rc::strong_count(&held), 2, "the parked ticker holds it");
    sim.shutdown();
    assert_eq!(Rc::strong_count(&held), 1, "shutdown dropped it");
}

#[test]
fn ticks_inside_wait_all_run_the_plain_loop() {
    let sim = Sim::new();
    let work = Rc::new(Cell::new(false));
    let (s, wk) = (sim.clone(), Rc::clone(&work));
    let h = sim.spawn(async move {
        let mut set = CompletionSet::<Boxed>::new();
        let (s2, w) = (s.clone(), Rc::clone(&wk));
        set.submit(Box::pin(async move {
            s2.idle_ticks(ns(4), move || !w.get()).await;
        }));
        let (s2, w) = (s.clone(), Rc::clone(&wk));
        set.submit(Box::pin(async move {
            s2.sleep(ns(9)).await;
            w.set(true);
        }));
        set.wait_all(|f, cx| f.as_mut().poll(cx)).await;
        s.now()
    });
    sim.run().unwrap();
    // Ticks at 4 and 8 were idle; the one at 12 found the work.
    assert_eq!(h.try_result(), Some(ns(12)));
    assert_eq!(sim.armed_by_tag()[0], 0, "no tick was re-armed by the loop");
}

#[test]
fn a_spawn_at_a_past_deadline_starts_at_once() {
    let sim = Sim::new();
    let s = sim.clone();
    let h = sim.spawn(async move {
        s.sleep(ns(7)).await;
        let s2 = s.clone();
        s.spawn_at(ns(3), async move { s2.now() }).await
    });
    sim.run().unwrap();
    assert_eq!(h.try_result(), Some(ns(7)));
}

#[test]
fn an_armed_spawn_is_first_polled_at_its_deadline() {
    let sim = Sim::new();
    let polls = Rc::new(Cell::new(0u32));
    let (s, p) = (sim.clone(), Rc::clone(&polls));
    let h = sim.spawn_at(
        ns(20),
        std::future::poll_fn(move |_| {
            p.set(p.get() + 1);
            Poll::Ready(s.now())
        }),
    );
    // A second task keeps the ready queue busy at 0, so neither form
    // could run ahead.
    sim.spawn(async {});
    let r = sim.run().unwrap();
    assert_eq!(h.try_result(), Some(ns(20)));
    assert_eq!((polls.get(), r.events), (1, 2));
}

#[test]
fn an_armed_daemon_does_not_keep_the_run_alive() {
    let sim = Sim::new();
    let fired = Rc::new(Cell::new(false));
    let f = Rc::clone(&fired);
    sim.spawn_daemon_at(ns(50), async move { f.set(true) });
    let s = sim.clone();
    sim.spawn(async move { s.sleep(ns(10)).await });
    let r = sim.run().unwrap();
    assert_eq!(r.end_time, ns(10));
    assert!(!fired.get());
    sim.shutdown();
}

#[test]
fn a_dropped_tickers_tick_that_meets_a_grant_keeps_every_time() {
    // The task parks idle ticks (a tick due at 10), drops them, and
    // queues for the resource, which the holder lets go at 10. At 10 the
    // old tick's entry stands ahead of the grant's in the ready queue.
    let sim = Sim::new();
    let res = Resource::with_hook(&sim, 1, Hand);
    let (s, r) = (sim.clone(), res.clone());
    let holder = sim.spawn(async move {
        let (_held, hold) = r.acquire_with(10).await;
        hold.await;
        s.now()
    });
    let (s, r) = (sim.clone(), res.clone());
    let called = Rc::new(Cell::new(0u32));
    let c = Rc::clone(&called);
    let task = sim.spawn(async move {
        let mut ticks = Box::pin(s.idle_ticks(ns(10), move || {
            c.set(c.get() + 1);
            true
        }));
        std::future::poll_fn(|cx| {
            assert!(ticks.as_mut().poll(cx).is_pending(), "parked");
            Poll::Ready(())
        })
        .await;
        drop(ticks);
        let (_held, hold) = r.acquire_with(5).await;
        let granted = s.now();
        hold.await;
        (granted, s.now())
    });
    let r = sim.run().unwrap();
    assert_eq!(holder.try_result(), Some(ns(10)));
    assert_eq!(task.try_result(), Some((ns(10), ns(15))));
    assert_eq!(r.end_time, ns(15));
    assert_eq!(
        called.get(),
        0,
        "a dropped ticker's predicate is not called"
    );
    // Polling the task at the old tick, ahead of its grant entry, took
    // six polls; the tick's entry may instead run the grant there, armed,
    // which takes five.
    assert!(r.events <= 6, "{} polls", r.events);
    sim.shutdown();
}

#[test]
fn a_dropped_tickers_tick_does_not_end_a_later_wait() {
    // The daemon parks ticks of 10, drops them, and waits in ticks of 7.
    // The dropped tick at 10 meets the later ticker's record, due at 14.
    let sim = Sim::new();
    let work = Rc::new(Cell::new(false));
    let (s, w) = (sim.clone(), Rc::clone(&work));
    let h = sim.spawn_daemon(async move {
        let mut old = Box::pin(s.idle_ticks(ns(10), || true));
        std::future::poll_fn(|cx| {
            assert!(old.as_mut().poll(cx).is_pending(), "parked");
            Poll::Ready(())
        })
        .await;
        drop(old);
        s.idle_ticks(ns(7), move || !w.get()).await;
        s.now()
    });
    let (s, w) = (sim.clone(), Rc::clone(&work));
    sim.spawn(async move {
        s.sleep(ns(12)).await;
        w.set(true);
        s.sleep(ns(10)).await;
    });
    let r = sim.run().unwrap();
    // Idle at 7; the work set at 12 is found by the tick at 14.
    assert_eq!(h.try_result(), Some(ns(14)));
    assert_eq!(sim.armed_by_tag()[0], 1);
    // Daemon: its first poll, the dropped tick's plain wake at 10 and the
    // tick at 14. Task: its first poll and its wakes at 12 and 22.
    assert!(r.events <= 6, "{} polls", r.events);
    sim.shutdown();
}
