//! Task tags ([`Sim::tag_current`]) label a task's polls and change
//! nothing else: a tag is read only inside its own task's polls, a child
//! starts untagged, an armed spawn or an armed grant keeps its task's
//! tag, a grant hook reads the tag of the grantee it runs as, and every
//! poll and armed entry counts under exactly one class.

use std::cell::RefCell;
use std::rc::Rc;

use crate::executor::Sleep;
use crate::{GrantHook, GrantPlace, Resource, Sim, SimTime, TAG_CLASSES};

fn ns(n: u64) -> SimTime {
    SimTime::from_nanos(n)
}

/// What each task saw: `(task, current_tag)` per step, in run order.
type Log = Rc<RefCell<Vec<(char, u32)>>>;

fn assert_classes_sum_to_polls(sim: &Sim) {
    let by_tag = sim.polls_by_tag();
    assert_eq!(by_tag.iter().sum::<u64>(), sim.events_processed());
}

/// Three tasks step through sleeps that sometimes run ahead inline and
/// sometimes park: two tag themselves, one does not. Each reads its own
/// tag at every step, and nothing outside a poll reads one.
fn interleaved(run_ahead: bool) -> (Vec<(char, u32)>, [u64; TAG_CLASSES]) {
    let sim = Sim::new();
    sim.set_run_ahead(run_ahead);
    let log: Log = Rc::default();
    for (name, tag, step) in [('a', 0x21, 3), ('b', 0x32, 5), ('c', 0, 7)] {
        let (s, log) = (sim.clone(), Rc::clone(&log));
        sim.spawn(async move {
            if tag != 0 {
                s.tag_current(tag);
            }
            for _ in 0..4 {
                log.borrow_mut().push((name, s.current_tag()));
                s.sleep(ns(step)).await;
            }
            log.borrow_mut().push((name, s.current_tag()));
        });
    }
    assert_eq!(sim.current_tag(), 0, "no poll before the run");
    sim.run().unwrap();
    assert_eq!(sim.current_tag(), 0, "no poll after the run");
    assert_classes_sum_to_polls(&sim);
    let seen = log.borrow().clone();
    (seen, sim.polls_by_tag())
}

#[test]
fn a_tag_is_read_only_in_its_own_polls() {
    let (plain, plain_polls) = interleaved(false);
    let (ahead, ahead_polls) = interleaved(true);
    for (name, tag) in &plain {
        let own = match name {
            'a' => 0x21,
            'b' => 0x32,
            _ => 0,
        };
        assert_eq!(*tag, own, "task {name} read another task's tag");
    }
    // Run-ahead resumes sleeps inside the same poll: the same steps see
    // the same tags, in fewer polls, each still under its own class.
    assert_eq!(plain, ahead);
    assert!(ahead_polls.iter().sum::<u64>() < plain_polls.iter().sum::<u64>());
    for polls in [plain_polls, ahead_polls] {
        assert!(polls[0x21 % TAG_CLASSES] > 0 && polls[0x32 % TAG_CLASSES] > 0);
        assert!(polls[0] > 0, "the untagged task counts under class 0");
    }
}

#[test]
fn a_child_starts_untagged_and_the_tagging_poll_counts_as_tagged() {
    let sim = Sim::new();
    let log: Log = Rc::default();
    let (s, l) = (sim.clone(), Rc::clone(&log));
    sim.spawn(async move {
        s.tag_current(7);
        let (s2, l2) = (s.clone(), Rc::clone(&l));
        let child = s.spawn(async move {
            l2.borrow_mut().push(('c', s2.current_tag()));
            s2.tag_current(9);
            s2.sleep(ns(4)).await;
            l2.borrow_mut().push(('c', s2.current_tag()));
        });
        child.await;
        l.borrow_mut().push(('p', s.current_tag()));
    });
    sim.run().unwrap();
    assert_eq!(*log.borrow(), vec![('c', 0), ('c', 9), ('p', 7)]);
    // Parent: its first poll and the poll its child's completion woke.
    // Child: one poll, tagged in it (its sleep runs ahead inline), so no
    // poll counts as untagged.
    let polls = sim.polls_by_tag();
    assert_eq!((polls[7], polls[9], polls[0]), (2, 1, 0));
    assert_classes_sum_to_polls(&sim);
}

/// A wire whose grant hook records the tag it runs under and arms the
/// grantee for the end of its hold.
struct Hand {
    seen: Log,
}

impl GrantHook for Hand {
    /// Hold time.
    type Request = u64;
    /// The sleep to the end of the hold.
    type Outcome = Sleep;

    fn grant(&mut self, t: u64, place: &mut GrantPlace<'_>) -> Sleep {
        let sim = place.sim();
        self.seen.borrow_mut().push(('h', sim.current_tag()));
        place.sleep_until(sim.now() + ns(t))
    }
}

#[test]
fn armed_tasks_keep_their_tag_and_a_grant_hook_reads_the_grantees() {
    let sim = Sim::new();
    let log: Log = Rc::default();
    let wire = Resource::with_hook(
        &sim,
        1,
        Hand {
            seen: Rc::clone(&log),
        },
    );
    // The releaser holds the wire first, then lets it go.
    let (s, l, w) = (sim.clone(), Rc::clone(&log), wire.clone());
    sim.spawn(async move {
        s.tag_current(3);
        let (held, hold) = w.acquire_with(5).await;
        hold.await;
        drop(held);
        l.borrow_mut().push(('r', s.current_tag()));
    });
    // The grantee queues behind it and is armed at its place.
    let (s, l, w) = (sim.clone(), Rc::clone(&log), wire.clone());
    sim.spawn(async move {
        s.tag_current(6);
        let (_held, hold) = w.acquire_with(4).await;
        hold.await;
        l.borrow_mut().push(('g', s.current_tag()));
    });
    // An armed spawn: first polled at its deadline, keeping the tag it
    // sets there across a later sleep.
    let (s, l) = (sim.clone(), Rc::clone(&log));
    sim.spawn_at(ns(2), async move {
        s.tag_current(11);
        l.borrow_mut().push(('s', s.current_tag()));
        s.sleep(ns(20)).await;
        l.borrow_mut().push(('s', s.current_tag()));
    });
    sim.run().unwrap();
    assert_eq!(
        *log.borrow(),
        vec![
            ('h', 3), // the releaser's own immediate grant
            ('s', 11),
            ('r', 3),
            ('h', 6), // the grantee's grant, at its place, as the grantee
            ('g', 6),
            ('s', 11),
        ]
    );
    assert_classes_sum_to_polls(&sim);
    // The grantee's armed grant and the untagged armed spawn.
    let armed = sim.armed_by_tag();
    assert_eq!((armed[6], armed[0], armed.iter().sum::<u64>()), (1, 1, 2));
}
