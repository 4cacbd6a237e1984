//! Inline run-ahead must change nothing but the poll count: random task
//! programs observe the same simulated times in the same order, and end
//! at the same time, with run-ahead on and off.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;

use proptest::prelude::*;

use crate::executor::yield_now;
use crate::{oneshot, CompletionSet, Resource, Sim, SimTime};

type Boxed = Pin<Box<dyn Future<Output = ()>>>;

fn ns(n: u64) -> SimTime {
    SimTime::from_nanos(n)
}

/// One step of a random task program.
#[derive(Debug)]
enum Step {
    Sleep(u64),
    /// Overlapped entries in one completion set: each optionally holds
    /// the shared capacity-1 resource across its first sleep, then sleeps
    /// again.
    WaitAll(Vec<(u64, u64, bool)>),
    /// Holds the shared capacity-1 resource across a sleep.
    Hold(u64),
    Yield,
    /// Spawns a sender that sleeps, then sends on a oneshot this task
    /// awaits.
    Oneshot(u64),
    /// Spawns a child running its own steps, joined or left running.
    Spawn {
        steps: Rc<Vec<Step>>,
        join: bool,
    },
}

fn leaf_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u64..40).prop_map(Step::Sleep),
        collection::vec((0u64..30, 0u64..30, any::<bool>()), 0..4).prop_map(Step::WaitAll),
        (0u64..20).prop_map(Step::Hold),
        Just(()).prop_map(|()| Step::Yield),
        (0u64..30).prop_map(Step::Oneshot),
    ]
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        leaf_step(),
        leaf_step(),
        (collection::vec(leaf_step(), 0..4), any::<bool>()).prop_map(|(steps, join)| {
            Step::Spawn {
                steps: Rc::new(steps),
                join,
            }
        }),
    ]
}

/// Shared state of one program run; every step logs `(task, now)`.
#[derive(Clone)]
struct World {
    sim: Sim,
    res: Rc<Resource>,
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
}

fn run_steps(w: World, tag: u32, steps: Rc<Vec<Step>>) -> Boxed {
    Box::pin(async move {
        for step in steps.iter() {
            match step {
                Step::Sleep(d) => w.sim.sleep(ns(*d)).await,
                Step::WaitAll(entries) => {
                    let mut set = CompletionSet::<Boxed>::new();
                    for &(a, b, hold) in entries {
                        let w = w.clone();
                        set.submit(Box::pin(async move {
                            if hold {
                                let _held = w.res.acquire().await;
                                w.sim.sleep(ns(a)).await;
                            } else {
                                w.sim.sleep(ns(a)).await;
                            }
                            w.sim.sleep(ns(b)).await;
                        }));
                    }
                    set.wait_all(|f, cx| f.as_mut().poll(cx)).await;
                }
                Step::Hold(d) => {
                    let _held = w.res.acquire().await;
                    w.sim.sleep(ns(*d)).await;
                }
                Step::Yield => yield_now().await,
                Step::Oneshot(d) => {
                    let (tx, rx) = oneshot();
                    let sender = w.tag();
                    let (w2, d) = (w.clone(), *d);
                    w.sim.spawn(async move {
                        w2.sim.sleep(ns(d)).await;
                        w2.note(sender);
                        let _ = tx.send(());
                    });
                    rx.await.expect("sender completes");
                }
                Step::Spawn { steps, join } => {
                    let child = w.tag();
                    let h = w.sim.spawn(run_steps(w.clone(), child, Rc::clone(steps)));
                    if *join {
                        h.await;
                    }
                }
            }
            w.note(tag);
        }
    })
}

/// A program: live tasks, daemons `(period, steps)` that repeat forever,
/// and an optional first `run_until` limit before the full run.
#[derive(Debug)]
struct Program {
    tasks: Vec<Rc<Vec<Step>>>,
    daemons: Vec<(u64, Rc<Vec<Step>>)>,
    limit: Option<u64>,
}

fn program() -> impl Strategy<Value = Program> {
    (
        collection::vec(collection::vec(step(), 0..6), 1..5),
        collection::vec((1u64..60, collection::vec(leaf_step(), 0..3)), 0..3),
        (any::<bool>(), 0u64..150),
    )
        .prop_map(|(tasks, daemons, (limited, limit))| Program {
            tasks: tasks.into_iter().map(Rc::new).collect(),
            daemons: daemons
                .into_iter()
                .map(|(period, steps)| (period, Rc::new(steps)))
                .collect(),
            limit: limited.then_some(limit),
        })
}

/// Rounds a daemon runs before parking for good: enough to outlast the
/// live tasks of nearly every program, even at a 1 ns period.
const DAEMON_ROUNDS: u32 = 10_000;

/// Everything a run exposes except its poll counts.
#[derive(Debug, PartialEq)]
struct Observed {
    log: Vec<(u32, u64)>,
    /// `(end_time, live_tasks, hit_time_limit)` of the limited run.
    limited: Option<(SimTime, usize, bool)>,
    end_time: SimTime,
}

/// Runs `p` from scratch; returns what it observed and the polls of the
/// limited run (if any) and of the whole run.
fn execute(p: &Program, run_ahead: bool) -> (Observed, Option<u64>, u64) {
    let sim = Sim::new();
    sim.set_run_ahead(run_ahead);
    let w = World {
        sim: sim.clone(),
        res: Rc::new(Resource::new(&sim, 1)),
        log: Rc::new(RefCell::new(Vec::new())),
        next_tag: Rc::new(Cell::new(0)),
    };
    for (period, steps) in &p.daemons {
        let (w, tag, period, steps) = (w.clone(), w.tag(), *period, Rc::clone(steps));
        // Bounded, so an executor that let a daemon advance the clock on
        // its own fails the comparison instead of spinning forever.
        sim.spawn_daemon(async move {
            for _ in 0..DAEMON_ROUNDS {
                w.sim.sleep(ns(period)).await;
                w.note(tag);
                run_steps(w.clone(), tag, Rc::clone(&steps)).await;
            }
            std::future::pending::<()>().await;
        });
    }
    for steps in &p.tasks {
        let tag = w.tag();
        sim.spawn(run_steps(w.clone(), tag, Rc::clone(steps)));
    }
    let limited = p.limit.map(|limit| {
        let r = sim.run_until(ns(limit)).expect("limited run");
        assert!(sim.now() <= ns(limit), "clock passed the run_until limit");
        r
    });
    let r = sim.run().expect("program runs to completion");
    let log = w.log.borrow().clone();
    sim.shutdown();
    (
        Observed {
            log,
            limited: limited.map(|l| (l.end_time, l.live_tasks, l.hit_time_limit)),
            end_time: r.end_time,
        },
        limited.map(|l| l.events),
        r.events,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]
    #[test]
    fn run_ahead_changes_only_the_poll_count(p in program()) {
        let (on, on_limited, on_polls) = execute(&p, true);
        let (off, off_limited, off_polls) = execute(&p, false);
        prop_assert_eq!(&on, &off, "observations differ for {:?}", p);
        prop_assert!(on_polls <= off_polls, "{on_polls} > {off_polls} polls for {p:?}");
        if let (Some(a), Some(b)) = (on_limited, off_limited) {
            prop_assert!(a <= b, "limited run: {a} > {b} polls for {p:?}");
        }
    }
}

#[test]
fn a_lone_sleeper_resumes_inline() {
    for (run_ahead, polls) in [(true, 1), (false, 11)] {
        let sim = Sim::new();
        sim.set_run_ahead(run_ahead);
        let s = sim.clone();
        sim.spawn(async move {
            for _ in 0..10 {
                s.sleep(ns(3)).await;
            }
        });
        let r = sim.run().unwrap();
        assert_eq!(
            (r.end_time, r.events),
            (ns(30), polls),
            "run_ahead={run_ahead}"
        );
    }
}

#[test]
fn a_daemon_alone_after_the_last_task_does_not_move_the_end_time() {
    let sim = Sim::new();
    let ticks = Rc::new(Cell::new(0u32));
    let s = sim.clone();
    sim.spawn(async move {
        s.sleep(SimTime::from_secs(1)).await;
    });
    // Wakes with the task at 1 s, after it (registered later), and is
    // then the only thing left: the loop stops rather than advance to 2 s.
    let (s, t) = (sim.clone(), Rc::clone(&ticks));
    sim.spawn_daemon(async move {
        for _ in 0..3 {
            s.sleep(SimTime::from_secs(1)).await;
            t.set(t.get() + 1);
        }
        std::future::pending::<()>().await;
    });
    let r = sim.run().unwrap();
    assert_eq!(r.end_time, SimTime::from_secs(1));
    assert_eq!(ticks.get(), 1);
    sim.shutdown();
}

#[test]
fn run_until_never_moves_the_clock_past_its_limit() {
    let sim = Sim::new();
    let s = sim.clone();
    let h = sim.spawn(async move {
        s.sleep(SimTime::from_secs(3)).await;
        let at_three = s.now();
        s.sleep(SimTime::from_secs(5)).await;
        (at_three, s.now())
    });
    let r1 = sim.run_until(SimTime::from_secs(4)).unwrap();
    assert!(r1.hit_time_limit);
    assert_eq!(r1.end_time, SimTime::from_secs(3));
    assert_eq!(sim.now(), SimTime::from_secs(3));
    let r2 = sim.run().unwrap();
    assert_eq!(r2.end_time, SimTime::from_secs(8));
    assert_eq!(
        h.try_result().unwrap(),
        (SimTime::from_secs(3), SimTime::from_secs(8))
    );
}

#[test]
fn an_earlier_registered_timer_at_the_same_deadline_wakes_first() {
    let sim = Sim::new();
    let order = Rc::new(RefCell::new(Vec::new()));
    for name in ["first", "second"] {
        let (s, order) = (sim.clone(), Rc::clone(&order));
        // "second" is polled with an empty ready queue and only "first"'s
        // timer pending, at its own deadline: it must not overtake it.
        sim.spawn(async move {
            s.sleep(ns(5)).await;
            order.borrow_mut().push(name);
        });
    }
    sim.run().unwrap();
    assert_eq!(*order.borrow(), ["first", "second"]);
}

#[test]
fn a_sleep_polled_with_a_foreign_waker_parks() {
    use std::task::{Context, Waker};

    let sim = Sim::new();
    let s = sim.clone();
    let h = sim.spawn(async move {
        let mut sleep = std::pin::pin!(s.sleep(ns(5)));
        // The timer wakes that waker, not this task: continuing this poll
        // would not be what the loop does next.
        let mut cx = Context::from_waker(Waker::noop());
        assert!(sleep.as_mut().poll(&mut cx).is_pending());
        let parked_at = s.now();
        s.sleep(ns(7)).await;
        (parked_at, s.now())
    });
    sim.run().unwrap();
    assert_eq!(h.try_result().unwrap(), (SimTime::ZERO, ns(7)));
}

#[test]
fn a_ready_task_runs_before_a_sleeper_resumes() {
    let sim = Sim::new();
    let log = Rc::new(RefCell::new(Vec::new()));
    let (s, l) = (sim.clone(), Rc::clone(&log));
    // Polled first, with the second task still in the ready queue.
    sim.spawn(async move {
        s.sleep(ns(5)).await;
        l.borrow_mut().push(("sleeper", s.now()));
    });
    let (s, l) = (sim.clone(), Rc::clone(&log));
    sim.spawn(async move {
        l.borrow_mut().push(("ready", s.now()));
    });
    sim.run().unwrap();
    assert_eq!(
        *log.borrow(),
        [("ready", SimTime::ZERO), ("sleeper", ns(5))]
    );
}
