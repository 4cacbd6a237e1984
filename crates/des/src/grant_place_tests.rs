//! A grant hook runs at the grantee's place, as the grantee: where the
//! wake a release queues would have polled it. A depth-`k` [`Resource`]
//! models an SSD command queue whose hook draws a single command's
//! service time from a shared model and arms its end, while a batch's
//! commands draw in their task's poll. Every draw must land at the same
//! instant, in the same global order, under the same task as when every
//! command draws in its own poll, in no more polls. That rules out a draw
//! at the release: a slot freed at the same instant can be taken by a new
//! command with an immediate grant, which draws between the release and
//! the grantee's place.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use proptest::prelude::*;

use crate::executor::Sleep;
use crate::resource::Acquire;
use crate::{CompletionSet, GrantHook, GrantPlace, Resource, ResourceGuard, Sim, SimTime};

fn ns(n: u64) -> SimTime {
    SimTime::from_nanos(n)
}

/// A draw: the drawing task's tag, the instant, and the draw's index.
type Drawn = (u32, u64, usize);

/// The shared service-time model: draw `i` takes `times[i % len]`.
struct Model {
    times: Vec<u64>,
    log: RefCell<Vec<Drawn>>,
}

impl Model {
    fn new(times: Vec<u64>) -> Rc<Self> {
        Rc::new(Self {
            times,
            log: RefCell::new(Vec::new()),
        })
    }

    fn draw(&self, sim: &Sim) -> SimTime {
        let mut log = self.log.borrow_mut();
        let i = log.len();
        log.push((sim.current_tag(), sim.now().as_nanos(), i));
        ns(self.times[i % self.times.len()])
    }
}

/// The queue's hook: a single command draws at its grant when `at_grant`
/// is set; otherwise, and for a batch's commands, the grantee draws in
/// its own poll.
struct Ncq {
    model: Rc<Model>,
    at_grant: bool,
}

impl GrantHook for Ncq {
    /// Whether the command is a single one.
    type Request = bool;
    /// The single command's sleep to the end of its service, when drawn.
    type Outcome = Option<Sleep>;

    fn grant(&mut self, single: bool, place: &mut GrantPlace<'_>) -> Option<Sleep> {
        if !(single && self.at_grant) {
            return None;
        }
        let sim = place.sim();
        let t = self.model.draw(sim);
        Some(place.sleep_until(sim.now() + t))
    }
}

#[derive(Clone, Debug)]
enum Step {
    Think(u64),
    Single,
    /// This many commands stepped together, as `devsvc` steps a batch.
    Batch(usize),
}

/// One command of a batch.
enum Cmd {
    New,
    Queued(Acquire<Ncq>),
    InService {
        _slot: ResourceGuard<Ncq>,
        sleep: Sleep,
    },
    Done,
}

struct World {
    sim: Sim,
    queue: Resource<Ncq>,
    model: Rc<Model>,
    /// `(task, ns)` per completed step.
    done: RefCell<Vec<(u32, u64)>>,
}

impl World {
    async fn single(&self) {
        let (_slot, service) = self.queue.acquire_with(true).await;
        match service {
            Some(service) => service.await,
            None => self.sim.sleep(self.model.draw(&self.sim)).await,
        }
    }

    fn step(&self, cmd: &mut Cmd, cx: &mut Context<'_>) -> Poll<()> {
        if let Cmd::New = cmd {
            *cmd = Cmd::Queued(self.queue.acquire_with(false));
        }
        if let Cmd::Queued(acquire) = cmd {
            let Poll::Ready((slot, _)) = Pin::new(acquire).poll(cx) else {
                return Poll::Pending;
            };
            let t = self.model.draw(&self.sim);
            *cmd = Cmd::InService {
                _slot: slot,
                sleep: self.sim.sleep(t),
            };
        }
        if let Cmd::InService { sleep, .. } = cmd {
            if Pin::new(sleep).poll(cx).is_pending() {
                return Poll::Pending;
            }
        }
        *cmd = Cmd::Done;
        Poll::Ready(())
    }

    async fn batch(&self, n: usize) {
        let mut set = CompletionSet::new();
        for _ in 0..n {
            set.submit(Cmd::New);
        }
        set.wait_all(|cmd, cx| self.step(cmd, cx)).await;
    }
}

/// What one run shows: the draws, the completed steps, the polls, and
/// the armed entries.
#[derive(Debug, PartialEq)]
struct Outcome {
    draws: Vec<Drawn>,
    done: Vec<(u32, u64)>,
    polls: u64,
    armed: u64,
}

fn execute(
    tasks: &[Vec<Step>],
    depth: usize,
    times: &[u64],
    at_grant: bool,
    run_ahead: bool,
) -> Outcome {
    let sim = Sim::new();
    sim.set_run_ahead(run_ahead);
    let model = Model::new(times.to_vec());
    let queue = Resource::with_hook(
        &sim,
        depth,
        Ncq {
            model: Rc::clone(&model),
            at_grant,
        },
    );
    let w = Rc::new(World {
        sim: sim.clone(),
        queue,
        model,
        done: RefCell::new(Vec::new()),
    });
    for (i, steps) in tasks.iter().enumerate() {
        let (w, steps) = (Rc::clone(&w), steps.clone());
        let tag = i as u32 + 1;
        sim.spawn(async move {
            w.sim.tag_current(tag);
            for s in steps {
                match s {
                    Step::Think(d) => w.sim.sleep(ns(d)).await,
                    Step::Single => w.single().await,
                    Step::Batch(n) => w.batch(n).await,
                }
                w.done.borrow_mut().push((tag, w.sim.now().as_nanos()));
            }
        });
    }
    let r = sim.run().expect("commands finish");
    let draws = w.model.log.borrow().clone();
    let done = w.done.borrow().clone();
    Outcome {
        draws,
        done,
        polls: r.events,
        armed: sim.armed_by_tag().iter().sum(),
    }
}

fn step() -> impl Strategy<Value = Step> {
    // Small times force same-instant releases, grants and timers.
    prop_oneof![
        (0u64..3).prop_map(Step::Think),
        Just(Step::Single),
        Just(Step::Single),
        (2usize..4).prop_map(Step::Batch),
    ]
}

fn program() -> impl Strategy<Value = (Vec<Vec<Step>>, usize, Vec<u64>)> {
    (
        collection::vec(collection::vec(step(), 1..6), 1..7),
        1usize..4,
        collection::vec(0u64..4, 1..9),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]
    #[test]
    fn grants_draw_where_the_grantees_poll_would_have(
        (tasks, depth, times) in program()
    ) {
        let mut seen = None;
        for run_ahead in [true, false] {
            let hooked = execute(&tasks, depth, &times, true, run_ahead);
            let plain = execute(&tasks, depth, &times, false, run_ahead);
            prop_assert_eq!(&hooked.draws, &plain.draws, "draws differ for {:?}", (&tasks, depth, &times));
            prop_assert_eq!(&hooked.done, &plain.done, "steps differ for {:?}", (&tasks, depth, &times));
            prop_assert_eq!(plain.armed, 0);
            prop_assert!(hooked.polls <= plain.polls, "{} > {} polls for {:?}", hooked.polls, plain.polls, (&tasks, depth, &times));
            if !run_ahead {
                // Without inline run-ahead every armed grant saves the poll
                // that would have drawn and started the sleep.
                prop_assert_eq!(hooked.polls + hooked.armed, plain.polls);
            }
            // Run-ahead changes no draw or step either.
            match &seen {
                None => seen = Some((hooked.draws, hooked.done)),
                Some((draws, done)) => {
                    prop_assert_eq!(draws, &hooked.draws);
                    prop_assert_eq!(done, &hooked.done);
                }
            }
        }
    }
}

#[test]
fn a_same_instant_immediate_grant_draws_before_the_grantee() {
    // Depth 2. A and B take both slots at 0 for 5; W queues behind them;
    // N wakes at 5. At 5, A's release hands its slot to W, B's release
    // finds no waiter and frees its slot, and N takes that slot at once,
    // all before W's place: N draws first, as it would if W drew in its
    // own poll.
    let (a, b, w, n) = (1, 2, 3, 4);
    let tasks = vec![
        vec![Step::Single],
        vec![Step::Single],
        vec![Step::Single],
        vec![Step::Think(5), Step::Single],
    ];
    let times = [5, 5, 3, 3];
    for run_ahead in [true, false] {
        let hooked = execute(&tasks, 2, &times, true, run_ahead);
        let plain = execute(&tasks, 2, &times, false, run_ahead);
        assert_eq!(hooked.draws, [(a, 0, 0), (b, 0, 1), (n, 5, 2), (w, 5, 3)]);
        assert_eq!(hooked.draws, plain.draws);
        assert_eq!(hooked.done, plain.done);
        // W alone was armed, and took one poll fewer.
        assert_eq!((hooked.armed, hooked.polls + 1), (1, plain.polls));
    }
}

#[test]
fn a_zero_time_draw_polls_the_grantee() {
    // W's draw at its place takes 0: the sleep it would start ends in
    // that same poll, so W is polled there, not armed.
    let tasks = vec![vec![Step::Single], vec![Step::Single]];
    let hooked = execute(&tasks, 1, &[2, 0], true, true);
    let plain = execute(&tasks, 1, &[2, 0], false, true);
    assert_eq!(hooked.draws, [(1, 0, 0), (2, 2, 1)]);
    assert_eq!(hooked.done, [(1, 2), (2, 2)]);
    assert_eq!(hooked, Outcome { armed: 0, ..plain });
}

#[test]
fn a_grantee_dropped_before_its_place_passes_the_permit_on() {
    let sim = Sim::new();
    let model = Model::new(vec![4]);
    let queue = Resource::with_hook(
        &sim,
        1,
        Ncq {
            model: Rc::clone(&model),
            at_grant: true,
        },
    );
    // Task 1 holds the slot until 4.
    let (s, q) = (sim.clone(), queue.clone());
    sim.spawn(async move {
        s.tag_current(1);
        let (_slot, service) = q.acquire_with(true).await;
        service.expect("drawn").await;
    });
    // Task 2 queues through a cell that task 4 empties at 4, after task
    // 1's release handed it the slot but before its place.
    let cell = Rc::new(RefCell::new(Some(queue.acquire_with(true))));
    let (s, c) = (sim.clone(), Rc::clone(&cell));
    let dropped = sim.spawn(async move {
        s.tag_current(2);
        std::future::poll_fn(|cx| match &mut *c.borrow_mut() {
            Some(acq) => Pin::new(acq).poll(cx).map(drop),
            None => Poll::Ready(()),
        })
        .await;
        s.now()
    });
    // Task 3 queues behind it.
    let (s, q) = (sim.clone(), queue.clone());
    let next = sim.spawn(async move {
        s.tag_current(3);
        let (_slot, service) = q.acquire_with(true).await;
        service.expect("drawn").await;
        s.now()
    });
    let s = sim.clone();
    sim.spawn(async move {
        s.sleep(ns(4)).await;
        drop(cell.borrow_mut().take());
    });
    sim.run().unwrap();
    // Task 2 never drew; task 3 drew at 4, at its place, and was armed.
    assert_eq!(*model.log.borrow(), [(1, 0, 0), (3, 4, 1)]);
    assert_eq!(dropped.try_result(), Some(ns(4)));
    assert_eq!(next.try_result(), Some(ns(8)));
    assert_eq!((queue.armed_grants(), sim.armed_by_tag()[3]), (1, 1));
    assert_eq!(queue.available(), 1);
}

#[test]
fn shutdown_drops_a_pending_grant_without_running_its_hook() {
    let sim = Sim::new();
    let model = Model::new(vec![4]);
    let queue = Resource::with_hook(
        &sim,
        1,
        Ncq {
            model: Rc::clone(&model),
            at_grant: true,
        },
    );
    // A slot held by hand, and a task queued behind it.
    let Poll::Ready((held, None)) =
        Pin::new(&mut queue.acquire_with(false)).poll(&mut Context::from_waker(Waker::noop()))
    else {
        panic!("free slot not granted");
    };
    let q = queue.clone();
    let finished = Rc::new(Cell::new(false));
    let f = Rc::clone(&finished);
    sim.spawn(async move {
        let (_slot, service) = q.acquire_with(true).await;
        service.expect("drawn").await;
        f.set(true);
    });
    assert!(sim.run().is_err(), "the task waits on a held slot");
    // Released outside any poll: the task's grant waits at its place.
    drop(held);
    sim.shutdown();
    assert!(model.log.borrow().is_empty());
    // The dropped task passed its slot on, and its stale entry runs
    // nothing.
    assert_eq!(queue.available(), 1);
    sim.run().unwrap();
    assert!(model.log.borrow().is_empty());
    assert!(!finished.get());
}
