//! Segment contention and accounting, including the fault seam: FIFO
//! convoys on the half-duplex wire, direction overlap on `new_duplex`,
//! `SegmentStats` conservation under mixed traffic, and `try_transfer`
//! behavior across outage / slowdown / error-rate windows.

use fcache_des::{Sim, SimTime};
use fcache_net::{Direction, NetConfig, Segment, SegmentStats};
use fcache_types::FaultPlan;

const BLOCK: u64 = 4096;

fn block_time(cfg: &NetConfig) -> SimTime {
    cfg.packet_time(BLOCK)
}

#[test]
fn mixed_direction_traffic_convoys_on_half_duplex_but_overlaps_on_duplex() {
    // Four packets each way. Half-duplex: all eight serialize on the one
    // channel. Full-duplex: the two directions proceed independently, so
    // the makespan halves exactly.
    let run = |duplex: bool| {
        let sim = Sim::new();
        let cfg = NetConfig::default();
        let seg = if duplex {
            Segment::new_duplex(sim.clone(), cfg)
        } else {
            Segment::new(sim.clone(), cfg)
        };
        for dir in [Direction::ToServer, Direction::FromServer] {
            for _ in 0..4 {
                let seg = seg.clone();
                sim.spawn(async move {
                    seg.transfer(dir, BLOCK).await;
                });
            }
        }
        let end = sim.run().unwrap().end_time;
        (end, seg.stats())
    };
    let (half_end, half_stats) = run(false);
    let (full_end, full_stats) = run(true);

    let t = block_time(&NetConfig::default());
    assert_eq!(half_end, t.times(8), "8 packets share one channel");
    assert_eq!(full_end, t.times(4), "4 packets per direction, overlapped");

    // Same traffic, same counters, regardless of channel topology.
    for s in [half_stats, full_stats] {
        assert_eq!(s.packets, 8);
        assert_eq!(s.payload_bytes, 8 * BLOCK);
        assert_eq!(s.busy, t.times(8), "busy sums wire time, not makespan");
    }
}

#[test]
fn stats_conserve_packets_and_bytes_under_contention() {
    let sim = Sim::new();
    let seg = Segment::new(sim.clone(), NetConfig::default());
    // Command packets (0 bytes) interleaved with payload packets of
    // varying size: totals must come out exact.
    let sizes = [0u64, BLOCK, 0, 2 * BLOCK, 8 * BLOCK, 0, BLOCK];
    for &bytes in &sizes {
        let seg = seg.clone();
        sim.spawn(async move {
            seg.transfer(Direction::ToServer, bytes).await;
        });
    }
    sim.run().unwrap();
    let s = seg.stats();
    assert_eq!(s.packets, sizes.len() as u64);
    assert_eq!(s.payload_bytes, sizes.iter().sum::<u64>());
    let want_busy = sizes.iter().fold(SimTime::ZERO, |acc, &b| {
        acc + NetConfig::default().packet_time(b)
    });
    assert_eq!(s.busy, want_busy);

    seg.reset_stats();
    assert_eq!(seg.stats(), SegmentStats::default());
}

/// Resolves a spec's net schedules onto a segment (time scale 1).
fn seg_with_faults(sim: &Sim, spec: &str, seed: u64) -> Segment {
    let set = FaultPlan::parse(spec)
        .expect("valid spec")
        .resolve_sharded(seed, 1, 1)
        .expect("no shard clauses");
    Segment::new(sim.clone(), NetConfig::default()).with_faults(
        set.net_to_server,
        set.net_from_server,
        seed,
    )
}

#[test]
fn try_transfer_without_faults_matches_transfer() {
    let sim = Sim::new();
    let plain = Segment::new(sim.clone(), NetConfig::default());
    let seamed = seg_with_faults(&sim, "", 7); // empty plan: no windows
    for seg in [plain.clone(), seamed.clone()] {
        sim.spawn(async move {
            seg.try_transfer(Direction::ToServer, BLOCK).await.unwrap();
        });
    }
    sim.run().unwrap();
    assert_eq!(plain.stats(), seamed.stats());
}

#[test]
fn outage_window_drops_packets_without_charging_the_wire() {
    let sim = Sim::new();
    // Outage on the uplink only, covering all of sim time used here.
    let seg = seg_with_faults(&sim, "net-up:outage@0s-10s", 3);
    let s2 = seg.clone();
    let h = sim.spawn(async move {
        let up = s2.try_transfer(Direction::ToServer, BLOCK).await;
        let down = s2.try_transfer(Direction::FromServer, BLOCK).await;
        (up.is_err(), down.is_ok())
    });
    sim.run().unwrap();
    let (up_failed, down_ok) = h.try_result().unwrap();
    assert!(up_failed, "uplink packet inside the outage must fail");
    assert!(down_ok, "downlink is not in the plan");
    // The dropped packet consumed no wire time and left no counters.
    let st = seg.stats();
    assert_eq!(st.packets, 1);
    assert_eq!(st.payload_bytes, BLOCK);
    assert_eq!(st.busy, block_time(&NetConfig::default()));
}

#[test]
fn slow_window_inflates_wire_time_by_the_factor() {
    let sim = Sim::new();
    let seg = seg_with_faults(&sim, "net:slowx4@0s-10s", 3);
    let s2 = seg.clone();
    let sim2 = sim.clone();
    let h = sim.spawn(async move {
        s2.try_transfer(Direction::ToServer, BLOCK).await.unwrap();
        sim2.now()
    });
    sim.run().unwrap();
    let t = block_time(&NetConfig::default());
    assert_eq!(h.try_result().unwrap(), t.scale(4.0));
    assert_eq!(seg.stats().busy, t.scale(4.0), "stats record inflated time");
}

#[test]
fn error_rate_draws_are_seed_deterministic() {
    // p=0.5 over many packets: some fail, some pass, and the exact
    // pass/fail pattern is a pure function of the seed.
    let run = |seed: u64| {
        let sim = Sim::new();
        let seg = seg_with_faults(&sim, "net-up:err0.5@0s-1000s", seed);
        let s2 = seg.clone();
        let h = sim.spawn(async move {
            let mut pattern = Vec::new();
            for _ in 0..64 {
                pattern.push(s2.try_transfer(Direction::ToServer, 0).await.is_ok());
            }
            pattern
        });
        sim.run().unwrap();
        (h.try_result().unwrap(), seg.stats())
    };
    let (a, stats_a) = run(11);
    let (b, stats_b) = run(11);
    let (c, _) = run(12);
    assert_eq!(a, b, "same seed, same pass/fail pattern");
    assert_eq!(stats_a, stats_b);
    assert_ne!(a, c, "different seed must eventually diverge");
    let ok = a.iter().filter(|&&x| x).count();
    assert!(
        ok > 0 && ok < 64,
        "p=0.5 over 64 packets: both outcomes seen"
    );
    assert_eq!(stats_a.packets as usize, ok, "only carried packets count");
}

#[test]
fn a_full_duplex_grantee_draws_after_the_other_channel_at_its_instant() {
    // The two channels of a full-duplex segment share one fault RNG. At
    // the instant H's uplink packet ends, H hands the uplink to the
    // queued T, and U (woken by its timer right after H) starts a
    // downlink packet. T is polled after U, so U must take the earlier
    // variate, as it would if T drew in its own poll: a hand-over that
    // drew for T at once would swap them.
    let variates = |seed: u64| {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        [0; 3].map(|_| rng.gen_range(0.0f64..1.0) >= 0.5)
    };
    // A seed where H's packet passes and the next two draws differ.
    let seed = (0..)
        .find(|&s| matches!(variates(s), [true, a, b] if a != b))
        .unwrap();
    let [_, first, second] = variates(seed);

    let sim = Sim::new();
    let set = FaultPlan::parse("net:err0.5@0s-1000s")
        .unwrap()
        .resolve_sharded(seed, 1, 1)
        .unwrap();
    let seg = Segment::new_duplex(sim.clone(), NetConfig::default()).with_faults(
        set.net_to_server,
        set.net_from_server,
        seed,
    );
    let t = block_time(&NetConfig::default());
    let s = seg.clone();
    let h = sim.spawn(async move { s.try_transfer(Direction::ToServer, BLOCK).await.is_ok() });
    let s = seg.clone();
    let granted =
        sim.spawn(async move { s.try_transfer(Direction::ToServer, BLOCK).await.is_ok() });
    let (s, sim2) = (seg.clone(), sim.clone());
    let other = sim.spawn(async move {
        sim2.sleep(t).await;
        s.try_transfer(Direction::FromServer, BLOCK).await.is_ok()
    });
    sim.run().unwrap();
    assert_eq!(h.try_result(), Some(true));
    assert_eq!(other.try_result(), Some(first), "the downlink draws first");
    assert_eq!(
        granted.try_result(),
        Some(second),
        "the grantee draws second"
    );
}

#[test]
fn a_hand_over_draws_from_the_grantees_own_schedule() {
    // Fault schedules belong to a handle: a clone made before
    // `with_faults` shares the wire but has none. When its packet hands
    // the wire to a queued packet of the faulted handle, the grantee
    // still meets its own outage.
    let sim = Sim::new();
    let plain = Segment::new(sim.clone(), NetConfig::default());
    let set = FaultPlan::parse("net:outage@0s-10s")
        .unwrap()
        .resolve_sharded(1, 1, 1)
        .unwrap();
    let faulted = plain
        .clone()
        .with_faults(set.net_to_server, set.net_from_server, 1);
    let p = plain.clone();
    sim.spawn(async move { p.transfer(Direction::ToServer, BLOCK).await });
    let f = faulted.clone();
    let dropped =
        sim.spawn(async move { f.try_transfer(Direction::ToServer, BLOCK).await.is_err() });
    sim.run().unwrap();
    assert_eq!(
        dropped.try_result(),
        Some(true),
        "the grantee's outage holds"
    );
    assert_eq!(
        plain.stats().packets,
        1,
        "only the unfaulted packet is carried"
    );
}
