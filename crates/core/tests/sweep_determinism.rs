//! Sweeps (parallel fan-out, any [`Workload`] kind) must be observably
//! identical to the serial loop: each simulation is single-threaded and
//! deterministic, so fanning jobs out over worker threads — or swapping a
//! resident trace for a per-job regenerated stream or a chunked file
//! replay — may change only wall-clock time and memory, never results.

use fcache::{
    run_source, run_trace, Architecture, FlashTiming, MemorySink, Scenario, SimConfig, Sweep,
    Workbench, Workload, WorkloadSpec,
};
use fcache_device::SsdConfig;
use fcache_types::{ByteSize, FaultPlan, SliceSource};

/// A sweep of one job per configuration, labeled `#<index>`, each
/// replaying its own `workload()`.
fn sweep_over<'a>(cfgs: &[SimConfig], workload: impl Fn() -> Workload<'a>) -> Sweep<'a> {
    cfgs.iter()
        .enumerate()
        .fold(Sweep::new(), |sweep, (i, cfg)| {
            sweep.scenario(format!("#{i}"), Scenario::new(cfg.clone(), workload()))
        })
}

fn sweep_configs() -> Vec<SimConfig> {
    vec![
        SimConfig {
            flash_size: ByteSize::ZERO,
            ..SimConfig::baseline()
        },
        SimConfig::baseline(),
        SimConfig {
            arch: Architecture::Lookaside,
            ..SimConfig::baseline()
        },
        SimConfig {
            arch: Architecture::Unified,
            ..SimConfig::baseline()
        },
    ]
}

#[test]
fn parallel_sweep_reports_are_bit_identical_to_serial() {
    let wb = Workbench::new(4096, 42);
    let trace = wb.make_trace(&WorkloadSpec::baseline_60g());
    let cfgs: Vec<SimConfig> = sweep_configs()
        .into_iter()
        .map(|c| c.scaled_down(4096))
        .collect();

    let serial: Vec<String> = cfgs
        .iter()
        .map(|cfg| format!("{:?}", run_trace(cfg, &trace).expect("serial run")))
        .collect();

    // Force real fan-out even on single-core CI machines, and repeat so a
    // racy slot assignment would have chances to surface.
    for round in 0..3 {
        let parallel = sweep_over(&cfgs, || Workload::trace(&trace))
            .threads(4)
            .reports()
            .expect("parallel run");
        assert_eq!(parallel.len(), serial.len());
        for (i, report) in parallel.into_iter().enumerate() {
            let got = format!("{report:?}");
            assert_eq!(
                got, serial[i],
                "round {round}: job {i} diverged between parallel and serial"
            );
        }
    }
}

#[test]
fn sweep_preserves_job_order_not_completion_order() {
    // Jobs of very different lengths: big trace first, tiny trace last.
    // If results were stored by completion order the cheap jobs would
    // finish first and land in the wrong slots.
    let wb = Workbench::new(4096, 7);
    let big = wb.make_trace(&WorkloadSpec::baseline_80g());
    let small = wb.make_trace(&WorkloadSpec {
        working_set: ByteSize::gib(5),
        seed: 5,
        ..WorkloadSpec::default()
    });
    let cfg = SimConfig::baseline().scaled_down(4096);
    let mut sweep = Sweep::new().threads(4);
    for (i, trace) in [&big, &small, &big, &small].into_iter().enumerate() {
        sweep = sweep.scenario(
            format!("job{i}"),
            Scenario::new(cfg.clone(), Workload::trace(trace)),
        );
    }
    let blocks: Vec<u64> = sweep
        .reports()
        .expect("run")
        .into_iter()
        .map(|r| r.metrics.read_blocks + r.metrics.write_blocks)
        .collect();
    assert_eq!(blocks[0], blocks[2], "same job, same slot, same result");
    assert_eq!(blocks[1], blocks[3]);
    assert!(
        blocks[0] > blocks[1],
        "80 GiB trace must move more blocks than the 5 GiB trace"
    );
}

#[test]
fn sweep_results_match_streamed_replay_of_the_same_trace() {
    // The parallel sweep replays the shared trace through per-thread
    // cursors; feeding the same trace through the chunked stream path must
    // land on the same reports, so sweeps and streamed replays are
    // interchangeable evidence.
    let wb = Workbench::new(4096, 42);
    let trace = wb.make_trace(&WorkloadSpec::baseline_60g());
    let cfgs: Vec<SimConfig> = sweep_configs()
        .into_iter()
        .map(|c| c.scaled_down(4096))
        .collect();
    let swept = sweep_over(&cfgs, || Workload::trace(&trace))
        .threads(4)
        .reports()
        .expect("sweep run");
    for (cfg, swept) in cfgs.iter().zip(swept) {
        let mut src = SliceSource::new(&trace);
        let streamed = run_source(cfg, &mut src).expect("streamed run");
        assert_eq!(
            format!("{swept:?}"),
            format!("{streamed:?}"),
            "sweep and streamed replay diverged for {:?}/{}",
            cfg.arch,
            cfg.flash_size,
        );
    }
}

fn ssd_sweep_configs() -> Vec<SimConfig> {
    // Queue-aware device timing across all three architectures plus a
    // narrow-queue variant (heavy backpressure exercises the waiter path).
    let mut cfgs: Vec<SimConfig> = [
        Architecture::Naive,
        Architecture::Lookaside,
        Architecture::Unified,
    ]
    .into_iter()
    .map(|arch| SimConfig {
        arch,
        flash_timing: FlashTiming::Ssd(SsdConfig::auto()),
        device_window: 1000,
        ..SimConfig::baseline()
    })
    .collect();
    cfgs.push(SimConfig {
        flash_timing: FlashTiming::Ssd(SsdConfig {
            queue_depth: 1,
            ..SsdConfig::auto()
        }),
        ..SimConfig::baseline()
    });
    cfgs
}

#[test]
fn ssd_timing_is_deterministic_across_parallel_serial_and_repeat_runs() {
    // The queue-aware device draws service times from per-host RNGs; the
    // whole pipeline must stay bit-identical serial vs the `Sweep`
    // fan-out, and across repeated runs of the same seed (windows
    // included — they ride in the report Debug output).
    let wb = Workbench::new(4096, 42);
    let trace = wb.make_trace(&WorkloadSpec::baseline_60g());
    let cfgs: Vec<SimConfig> = ssd_sweep_configs()
        .into_iter()
        .map(|c| c.scaled_down(4096))
        .collect();

    let serial: Vec<String> = cfgs
        .iter()
        .map(|cfg| format!("{:?}", run_trace(cfg, &trace).expect("serial ssd run")))
        .collect();
    // The device actually engaged (otherwise this test pins nothing).
    assert!(
        serial.iter().all(|s| !s.contains("reads: 0, writes: 0")),
        "ssd sweep must service device ops"
    );

    // Repeated serial runs: same seed, same reports.
    for (cfg, want) in cfgs.iter().zip(&serial) {
        let again = format!("{:?}", run_trace(cfg, &trace).expect("repeat ssd run"));
        assert_eq!(&again, want, "repeat run diverged for {:?}", cfg.arch);
    }

    // Parallel fan-out through the builder: bit-identical to the serial
    // loop, thrice.
    for round in 0..3 {
        let parallel = sweep_over(&cfgs, || Workload::trace(&trace))
            .threads(4)
            .reports()
            .expect("parallel ssd run");
        for (i, report) in parallel.into_iter().enumerate() {
            assert_eq!(
                format!("{report:?}"),
                serial[i],
                "round {round}: ssd job {i} diverged between parallel and serial"
            );
        }
    }

    // And the streamed feed agrees with the cursor feed under ssd timing.
    for (cfg, want) in cfgs.iter().zip(&serial) {
        let mut src = SliceSource::new(&trace);
        let streamed = format!("{:?}", run_source(cfg, &mut src).expect("streamed ssd run"));
        assert_eq!(&streamed, want, "streamed diverged for {:?}", cfg.arch);
    }
}

#[test]
fn workbench_sweep_matches_serial_scenario_runs() {
    // Paper-scale configurations through `Workbench::scenario` (scaled and
    // streamed by the workbench) in one parallel sweep land on the same
    // reports as serial runs of the scaled configs over the materialized
    // trace.
    let wb = Workbench::new(8192, 11);
    let spec = WorkloadSpec {
        working_set: ByteSize::gib(20),
        seed: 20,
        ..WorkloadSpec::default()
    };
    let trace = wb.make_trace(&spec);
    let cfgs = sweep_configs();
    let swept = cfgs
        .iter()
        .enumerate()
        .fold(Sweep::new().threads(4), |sweep, (i, cfg)| {
            sweep.scenario(format!("#{i}"), wb.scenario(cfg, &spec))
        })
        .reports()
        .expect("sweep");
    assert_eq!(swept.len(), cfgs.len());
    for (cfg, got) in cfgs.iter().zip(swept) {
        let want = Scenario::new(cfg.clone().scaled_down(wb.scale()), Workload::trace(&trace))
            .run()
            .expect("serial");
        assert_eq!(
            format!("{got:?}"),
            format!("{want:?}"),
            "workbench sweep diverged for {:?}",
            cfg.arch
        );
    }
}

/// A 16-point configuration grid (2 architectures × 4 flash sizes × 2 RAM
/// sizes) at paper scale, under the given device-timing mode.
fn grid16(timing: &FlashTiming) -> Vec<SimConfig> {
    let mut cfgs = Vec::new();
    for arch in [Architecture::Naive, Architecture::Unified] {
        for flash_gib in [0u64, 16, 32, 64] {
            for ram_gib in [4u64, 8] {
                cfgs.push(SimConfig {
                    arch,
                    flash_size: ByteSize::gib(flash_gib),
                    ram_size: ByteSize::gib(ram_gib),
                    flash_timing: timing.clone(),
                    ..SimConfig::baseline()
                });
            }
        }
    }
    cfgs
}

#[test]
fn streamed_workload_sweeps_are_bit_identical_to_materialized_sweeps() {
    // The ROADMAP "fully streamed sweeps" acceptance: a 16-config sweep
    // whose jobs each regenerate their own `TraceStream` (never holding
    // the full trace resident) must produce reports bit-identical —
    // including event counts — to the same sweep over one materialized
    // trace, across ≥2 seeds and both `flash_timing` modes.
    for seed in [42u64, 1301] {
        for timing in [FlashTiming::Flat, FlashTiming::Ssd(SsdConfig::auto())] {
            let wb = Workbench::new(4096, seed);
            let spec = WorkloadSpec {
                working_set: ByteSize::gib(10),
                seed: seed ^ 0x5eed,
                ..WorkloadSpec::default()
            };
            let cfgs: Vec<SimConfig> = grid16(&timing)
                .into_iter()
                .map(|c| c.scaled_down(wb.scale()))
                .collect();
            assert_eq!(cfgs.len(), 16);

            let trace = wb.make_trace(&spec);
            let materialized = sweep_over(&cfgs, || Workload::trace(&trace))
                .threads(4)
                .reports()
                .expect("materialized job");

            assert!(
                wb.workload(&spec).is_streamed(),
                "workbench workloads regenerate per job"
            );
            let streamed = sweep_over(&cfgs, || wb.workload(&spec))
                .threads(4)
                .reports()
                .expect("streamed job");

            assert_eq!(materialized.len(), 16);
            assert_eq!(streamed.len(), 16);
            for (i, (m, s)) in materialized.into_iter().zip(streamed).enumerate() {
                assert_eq!(
                    format!("{s:?}"),
                    format!("{m:?}"),
                    "streamed sweep diverged from materialized for job {i} (seed {seed}, {timing:?})",
                );
            }
        }
    }
}

#[test]
fn file_workload_sweeps_are_bit_identical_to_materialized_sweeps() {
    let wb = Workbench::new(4096, 17);
    let spec = WorkloadSpec {
        working_set: ByteSize::gib(10),
        seed: 23,
        ..WorkloadSpec::default()
    };
    let trace = wb.make_trace(&spec);
    let path = std::env::temp_dir().join("fcache_sweep_file_workload.bin");
    let mut buf = Vec::new();
    trace.encode(&mut buf).expect("encode");
    std::fs::write(&path, &buf).expect("write archive");

    let cfgs: Vec<SimConfig> = sweep_configs()
        .into_iter()
        .map(|c| c.scaled_down(wb.scale()))
        .collect();
    let materialized = sweep_over(&cfgs, || Workload::trace(&trace))
        .threads(1)
        .reports()
        .expect("materialized job");
    let filed = sweep_over(&cfgs, || Workload::file(&path))
        .threads(4)
        .reports();
    let _ = std::fs::remove_file(&path);

    for (i, (m, f)) in materialized
        .iter()
        .zip(filed.expect("file job"))
        .enumerate()
    {
        assert_eq!(
            format!("{f:?}"),
            format!("{m:?}"),
            "file-workload sweep diverged for job {i}",
        );
    }
}

/// Fault plans spanning every target and kind, across architectures and
/// degraded policies (queue is the default; failfast adds the give-up
/// paths to the determinism surface).
fn faulted_configs() -> Vec<SimConfig> {
    let plan = |spec: &str| FaultPlan::parse(spec).expect("valid spec");
    let mut failfast = SimConfig {
        arch: Architecture::Unified,
        fault_plan: plan("filer:outage@40s-60s;net:err0.2@20s-80s"),
        ..SimConfig::baseline()
    };
    failfast.degraded = fcache::DegradedPolicy::FailFast;
    vec![
        SimConfig {
            fault_plan: plan("filer:outage@40s-60s"),
            ..SimConfig::baseline()
        },
        failfast,
        SimConfig {
            arch: Architecture::Lookaside,
            fault_plan: plan("net-up:slowx4@10s-30s;filer:err0.1@~3x5s/30s"),
            ..SimConfig::baseline()
        },
        SimConfig {
            flash_timing: FlashTiming::Ssd(SsdConfig::auto()),
            fault_plan: plan("device:slowx8@10s-50s;filer:outage@60s-70s"),
            ..SimConfig::baseline()
        },
        // Sharded remote tier: a mid-run shard outage with failover and
        // recovery re-replication, hedged reads racing replicas...
        SimConfig {
            shards: 4,
            replicas: 2,
            hedge: Some(fcache_device::SimTime::from_micros(150)),
            fault_plan: plan("shard1:outage@40s-60s"),
            ..SimConfig::baseline()
        },
        // ...and a whole-tier shard fault mixed with a flaky network.
        SimConfig {
            arch: Architecture::Unified,
            shards: 2,
            replicas: 2,
            fault_plan: plan("shard*:slowx4@20s-40s;net:err0.2@50s-80s"),
            ..SimConfig::baseline()
        },
    ]
}

#[test]
fn faulted_sweeps_are_bit_identical_serial_parallel_and_streamed() {
    // Fault handling draws from seeded RNGs and parks tasks on the sim
    // clock, so it must stay inside the determinism envelope: a faulted
    // job produces one report, no matter how the sweep is driven.
    let wb = Workbench::new(4096, 42);
    let trace = wb.make_trace(&WorkloadSpec::baseline_60g());
    let cfgs: Vec<SimConfig> = faulted_configs()
        .into_iter()
        .map(|c| c.scaled_down(4096))
        .collect();

    let serial: Vec<String> = cfgs
        .iter()
        .map(|cfg| format!("{:?}", run_trace(cfg, &trace).expect("serial faulted run")))
        .collect();
    // The faults actually engaged (otherwise this pins nothing): no
    // report carries an idle robustness section in its Debug output.
    let idle = format!("{:?}", fcache::RobustnessStats::default());
    for (cfg, s) in cfgs.iter().zip(&serial) {
        assert!(
            !s.contains(&idle),
            "fault plan {:?} never engaged",
            cfg.fault_plan.describe()
        );
    }

    for round in 0..3 {
        let parallel = sweep_over(&cfgs, || Workload::trace(&trace))
            .threads(4)
            .reports()
            .expect("parallel faulted run");
        for (i, report) in parallel.into_iter().enumerate() {
            assert_eq!(
                format!("{report:?}"),
                serial[i],
                "round {round}: faulted job {i} diverged between parallel and serial"
            );
        }
    }

    for (cfg, want) in cfgs.iter().zip(&serial) {
        let mut src = SliceSource::new(&trace);
        let streamed = format!(
            "{:?}",
            run_source(cfg, &mut src).expect("streamed faulted run")
        );
        assert_eq!(
            &streamed,
            want,
            "streamed faulted run diverged for {:?}",
            cfg.fault_plan.describe()
        );
    }
}

#[test]
fn result_sink_spills_every_report_exactly_once() {
    // Every finished job's row goes to the caller's sink, once, in
    // completion order; each report is the bit-identical report a serial
    // `Scenario::run` of the same job returns.
    let wb = Workbench::new(4096, 42);
    let trace = wb.make_trace(&WorkloadSpec::baseline_60g());
    let cfgs: Vec<SimConfig> = sweep_configs()
        .into_iter()
        .map(|c| c.scaled_down(wb.scale()))
        .collect();
    let want: Vec<String> = cfgs
        .iter()
        .map(|cfg| {
            let report = Scenario::new(cfg.clone(), Workload::trace(&trace)).run();
            format!("{:?}", report.expect("serial run"))
        })
        .collect();

    let mut sink = MemorySink::new();
    let results = sweep_over(&cfgs, || Workload::trace(&trace))
        .threads(4)
        .run(&mut sink);
    assert_eq!(results.workers(), 4);
    assert!(results.sink_error().is_none());
    assert!(results.iter().all(|item| item.is_ok()));

    let mut delivered = vec![0usize; cfgs.len()];
    for row in sink.rows() {
        delivered[row.index] += 1;
    }
    assert!(
        delivered.iter().all(|&n| n == 1),
        "each job index must arrive exactly once: {delivered:?}"
    );
    for row in sink.into_rows() {
        assert_eq!(
            format!("{:?}", row.report),
            want[row.index],
            "sink row {} diverged from the serial run",
            row.label
        );
    }
}
