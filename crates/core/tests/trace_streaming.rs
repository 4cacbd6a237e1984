//! The zero-copy trace pipeline must be *observationally invisible*: the
//! cursor-fed materialized path, the streamed generation path, and the
//! chunked file-replay path all feed the engine the same per-thread op
//! sequences, so their [`fcache::SimReport`]s must be bit-identical (the
//! whole report, compared through `Debug`, including event counts).

use fcache::{
    run_source, run_trace, Architecture, Scenario, SimConfig, SimError, Workbench, Workload,
    WorkloadSpec,
};
use fcache_types::{
    ByteReader, ByteSize, SliceSource, TraceMeta, TraceOp, TraceReader, TraceSource,
};

fn configs() -> Vec<SimConfig> {
    vec![
        SimConfig::baseline(),
        SimConfig {
            arch: Architecture::Lookaside,
            ..SimConfig::baseline()
        },
        SimConfig {
            arch: Architecture::Unified,
            ..SimConfig::baseline()
        },
        SimConfig {
            flash_size: ByteSize::ZERO,
            ..SimConfig::baseline()
        },
    ]
}

#[test]
fn slice_source_reports_are_bit_identical_to_cursor_replay() {
    let wb = Workbench::new(4096, 42);
    let trace = wb.make_trace(&WorkloadSpec::baseline_60g());
    for cfg in configs() {
        let cfg = cfg.scaled_down(4096);
        let want = format!("{:?}", run_trace(&cfg, &trace).expect("cursor replay"));
        let mut src = SliceSource::new(&trace);
        let got = format!("{:?}", run_source(&cfg, &mut src).expect("streamed replay"));
        assert_eq!(got, want, "streamed diverged for {:?}", cfg.arch);
    }
}

#[test]
fn streamed_generation_matches_materialized_generation() {
    let wb = Workbench::new(4096, 7);
    let spec = WorkloadSpec {
        working_set: ByteSize::gib(40),
        seed: 19,
        ..WorkloadSpec::default()
    };
    for cfg in configs() {
        let want = format!("{:?}", wb.run(&cfg, &spec).expect("materialized"));
        let got = format!("{:?}", wb.scenario(&cfg, &spec).run().expect("streamed"));
        assert_eq!(got, want, "generation stream diverged for {:?}", cfg.arch);
    }
}

#[test]
fn streamed_generation_matches_with_skipped_warmup() {
    let wb = Workbench::new(4096, 7);
    let spec = WorkloadSpec {
        working_set: ByteSize::gib(40),
        skip_warmup: true,
        seed: 23,
        ..WorkloadSpec::default()
    };
    let cfg = SimConfig::baseline();
    let want = format!("{:?}", wb.run(&cfg, &spec).expect("materialized"));
    let got = format!("{:?}", wb.scenario(&cfg, &spec).run().expect("streamed"));
    assert_eq!(got, want);
}

#[test]
fn chunked_file_replay_matches_cursor_replay() {
    let wb = Workbench::new(4096, 11);
    let trace = wb.make_trace(&WorkloadSpec {
        working_set: ByteSize::gib(20),
        seed: 20,
        ..WorkloadSpec::default()
    });
    let mut archive = Vec::new();
    trace.encode(&mut archive).expect("encode");

    for cfg in configs() {
        let cfg = cfg.scaled_down(4096);
        let want = format!("{:?}", run_trace(&cfg, &trace).expect("cursor replay"));
        let mut reader = TraceReader::new(archive.as_slice()).expect("header");
        let got = format!("{:?}", run_source(&cfg, &mut reader).expect("file replay"));
        assert_eq!(got, want, "file replay diverged for {:?}", cfg.arch);
    }
}

#[test]
fn mapped_byte_replay_matches_cursor_replay() {
    // The zero-copy fast path: a `ByteReader` over the raw archive image
    // (what `Workload::file` builds over an `Mmap`) forks per-slot
    // cursors instead of feeding chunk queues. Same report, bit for bit.
    let wb = Workbench::new(4096, 17);
    let trace = wb.make_trace(&WorkloadSpec {
        working_set: ByteSize::gib(20),
        seed: 41,
        ..WorkloadSpec::default()
    });
    let mut archive = Vec::new();
    trace.encode(&mut archive).expect("encode");

    for cfg in configs() {
        let cfg = cfg.scaled_down(4096);
        let want = format!("{:?}", run_trace(&cfg, &trace).expect("cursor replay"));
        let mut reader = ByteReader::new(&archive).expect("header");
        let got = format!(
            "{:?}",
            run_source(&cfg, &mut reader).expect("mapped replay")
        );
        assert_eq!(got, want, "byte replay diverged for {:?}", cfg.arch);
    }
}

#[test]
fn slot_skewed_archive_replays_identically_through_the_spill() {
    // A pathologically skewed layout: every one of host 0's ops precedes
    // every one of host 1's. The chunk-fed path must buffer host 0's whole
    // backlog while host 1's early pulls drive refills — far past the
    // resident cap, so the disk spill engages. The report must still be
    // bit-identical to cursor replay (and to the forked byte replay).
    let mut trace = fcache_types::Trace::new(TraceMeta {
        hosts: 2,
        threads_per_host: 1,
        ..TraceMeta::default()
    });
    let mk = |host: u16, i: u32| {
        TraceOp::new(
            fcache_types::HostId(host),
            fcache_types::ThreadId(0),
            if i.is_multiple_of(4) {
                fcache_types::OpKind::Write
            } else {
                fcache_types::OpKind::Read
            },
            fcache_types::FileId(i % 16),
            i.wrapping_mul(31) % 5000,
            1 + i % 3,
            false,
        )
    };
    for i in 0..20_000 {
        trace.ops.push(mk(0, i));
    }
    for i in 0..400 {
        trace.ops.push(mk(1, i));
    }
    let mut archive = Vec::new();
    trace.encode(&mut archive).expect("encode");

    let cfg = SimConfig {
        ram_size: ByteSize::kib(256),
        flash_size: ByteSize::mib(1),
        ..SimConfig::baseline()
    };
    let want = format!("{:?}", run_trace(&cfg, &trace).expect("cursor replay"));
    let mut reader = TraceReader::new(archive.as_slice()).expect("header");
    let got = format!(
        "{:?}",
        run_source(&cfg, &mut reader).expect("chunk-fed replay")
    );
    assert_eq!(got, want, "spill-backed chunk replay diverged");
    let mut bytes = ByteReader::new(&archive).expect("header");
    let forked = format!("{:?}", run_source(&cfg, &mut bytes).expect("forked replay"));
    assert_eq!(forked, want, "forked byte replay diverged");
}

#[test]
fn multi_host_streams_stay_identical() {
    // Two hosts sharing a working set: peer invalidations make replay
    // order across hosts observable, so any feed-order slip would show.
    let wb = Workbench::new(4096, 13);
    let spec = WorkloadSpec {
        working_set: ByteSize::gib(20),
        hosts: 2,
        ws_count: 1,
        seed: 31,
        ..WorkloadSpec::default()
    };
    let trace = wb.make_trace(&spec);
    let scaled = SimConfig::baseline().scaled_down(4096);
    let want = format!("{:?}", run_trace(&scaled, &trace).expect("cursor"));
    let mut src = SliceSource::new(&trace);
    let got = format!("{:?}", run_source(&scaled, &mut src).expect("stream"));
    assert_eq!(got, want);
    // And the generated stream (paper-scale entry point) agrees too.
    let cfg = SimConfig::baseline();
    let materialized = format!("{:?}", wb.run(&cfg, &spec).expect("materialized"));
    let streamed = format!("{:?}", wb.scenario(&cfg, &spec).run().expect("generated"));
    assert_eq!(streamed, materialized);
}

#[test]
fn scenario_workload_kinds_are_bit_identical() {
    // The three `Workload` constructors are one surface over the three
    // replay paths this suite pins pairwise; a `Scenario` must be
    // indifferent to which one it is handed.
    let wb = Workbench::new(4096, 29);
    let spec = WorkloadSpec {
        working_set: ByteSize::gib(20),
        seed: 37,
        ..WorkloadSpec::default()
    };
    let trace = wb.make_trace(&spec);
    let path = std::env::temp_dir().join("fcache_scenario_workloads.bin");
    let mut buf = Vec::new();
    trace.encode(&mut buf).expect("encode");
    std::fs::write(&path, &buf).expect("write archive");

    for cfg in configs() {
        let cfg = cfg.scaled_down(4096);
        let want = format!(
            "{:?}",
            Scenario::new(cfg.clone(), Workload::trace(&trace))
                .run()
                .expect("trace workload")
        );
        let streamed = Scenario::new(cfg.clone(), wb.workload(&spec))
            .run()
            .expect("streamed workload");
        assert_eq!(
            format!("{streamed:?}"),
            want,
            "streamed workload diverged for {:?}",
            cfg.arch
        );
        let filed = Scenario::new(cfg.clone(), Workload::file(&path))
            .run()
            .expect("file workload");
        assert_eq!(
            format!("{filed:?}"),
            want,
            "file workload diverged for {:?}",
            cfg.arch
        );
    }
    let _ = std::fs::remove_file(&path);
}

/// A source whose ops exceed the host grid its metadata promises.
struct LyingSource {
    meta: TraceMeta,
    sent: bool,
}

impl TraceSource for LyingSource {
    fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    fn next_chunk(&mut self, out: &mut Vec<TraceOp>, _max: usize) -> std::io::Result<usize> {
        if self.sent {
            return Ok(0);
        }
        self.sent = true;
        out.push(TraceOp::new(
            fcache_types::HostId(5), // outside the 1-host grid
            fcache_types::ThreadId(0),
            fcache_types::OpKind::Read,
            fcache_types::FileId(0),
            0,
            1,
            false,
        ));
        Ok(1)
    }
}

#[test]
fn op_outside_meta_grid_is_a_source_error() {
    let mut src = LyingSource {
        meta: TraceMeta {
            hosts: 1,
            threads_per_host: 1,
            ..TraceMeta::default()
        },
        sent: false,
    };
    let err = run_source(&SimConfig::baseline(), &mut src).unwrap_err();
    assert!(matches!(err, SimError::Source(_)), "got {err:?}");
}
