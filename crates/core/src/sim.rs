//! Building and running a complete simulation from a configuration and a
//! trace.
//!
//! [`run_trace`] (an in-memory [`Trace`]) and [`run_source`] (any
//! [`TraceSource`]) share one replay loop: one task per `(host, thread)`
//! slot, spawned in slot order, each pulling its thread's ops in trace
//! order from a cursor. There are two cursor kinds:
//!
//! - **indexed**: a random-access source (an in-memory trace, a mapped
//!   `FCTRACE1` archive) forks one cursor per slot over a shared slot
//!   index, 4 bytes per op, so each thread reads only its own records in
//!   place;
//! - **demuxed**: a sequential source (streamed generation, buffered
//!   `FCTRACE1` reads) is pulled in bounded chunks through one shared
//!   feed that fans ops into per-slot queues, so replay memory is
//!   O(chunk) plus transient inter-thread skew — independent of trace
//!   length.
//!
//! Both kinds produce bit-identical [`SimReport`]s (asserted by
//! `tests/trace_streaming.rs`).

use std::cell::{Cell, RefCell};
use std::io;
use std::rc::Rc;

use fcache_cache::{BlockCache, Medium, UnifiedCache};
use fcache_des::{RunError, Sim, SimTime};
use fcache_device::IoLog;
use fcache_filer::{Filer, FilerConfig};
use fcache_net::{Segment, SegmentStats};
use fcache_remote::{shard_filer_config, shard_net_config, Router, ShardedStore};
use fcache_types::{
    mix64, FxHashSet, HostId, ResolvedFaultSet, SliceSource, SlotCursor, Trace, TraceMeta, TraceOp,
    TraceSource, BLOCK_SIZE, OUTSIDE_GRID, TRACE_CHUNK_OPS,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::arch::Architecture;
use crate::config::{SimConfig, TABLE1_FILER, TABLE1_NET};
use crate::devsvc::DeviceService;
use crate::engine::{self, execute_op};
use crate::flush::{self, FlushQueue, Tier};
use crate::host::{HostCtx, RemoteCtx, RunHosts, TaskClass};
use crate::metrics::Metrics;
use crate::report::SimReport;
use crate::robust::{DegradedPolicy, FaultCtx, RobustnessState, OP_TIMEOUT, RETRY_BASE};
use crate::spill::SpillQueue;
use crate::telemetry::{SpanStream, TelemetryCtx, TelemetryStats};

/// Error from a simulation run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// The discrete-event core found blocked tasks with no pending events.
    Deadlock {
        /// Number of stuck tasks.
        live_tasks: usize,
    },
    /// The trace source failed mid-stream.
    Source(SourceError),
    /// The run panicked. Produced only by [`crate::Sweep`], which catches
    /// per-job panics so one hostile job cannot abort a whole sweep; the
    /// payload is the panic message.
    Panic(String),
    /// An operation failed under fault injection while the degraded policy
    /// was [`crate::DegradedPolicy::Strict`] — the run refuses to report
    /// degraded results. The payload is the first offending fault clause
    /// (e.g. `filer:outage@40s-60s`), so a sweep error names the injection
    /// that sank the job.
    Faulted {
        /// The fault clause behind the first failed operation.
        clause: String,
    },
    /// The configuration cannot be run; the payload names the cause (the
    /// field [`SimConfig::validate`] refused, or a `trace_out` path that
    /// cannot be created).
    Config(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock { live_tasks } => {
                write!(f, "simulation deadlocked with {live_tasks} task(s) blocked")
            }
            SimError::Source(e) => write!(f, "trace source failed: {e}"),
            SimError::Panic(msg) => write!(f, "simulation panicked: {msg}"),
            SimError::Faulted { clause } => {
                write!(
                    f,
                    "operation failed under injected fault ({clause}) with strict degraded policy"
                )
            }
            SimError::Config(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Why a trace source failed a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SourceError {
    /// An I/O error or a corrupt record.
    Unreadable(String),
    /// An op outside the host/thread grid the source's metadata promised
    /// ([`fcache_types::OUTSIDE_GRID`]). The records decode; only the
    /// metadata understates them.
    OutsideGrid(String),
}

impl From<&io::Error> for SourceError {
    fn from(e: &io::Error) -> Self {
        if e.kind() == OUTSIDE_GRID {
            SourceError::OutsideGrid(e.to_string())
        } else {
            SourceError::Unreadable(e.to_string())
        }
    }
}

impl std::fmt::Display for SourceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SourceError::Unreadable(msg) | SourceError::OutsideGrid(msg) => f.write_str(msg),
        }
    }
}

impl From<RunError> for SimError {
    fn from(e: RunError) -> Self {
        match e {
            RunError::Deadlock { live_tasks } => SimError::Deadlock { live_tasks },
        }
    }
}

/// Everything a run shares: the executor, the hosts, and the
/// global sinks that become the report.
struct SimParts {
    sim: Sim,
    cfg: Rc<SimConfig>,
    hosts: Vec<Rc<HostCtx>>,
    /// The run's whole-backend schedules and robustness counters (empty
    /// schedules and zero counters on a fault-free run).
    fault: Rc<RobustnessState>,
    /// The backend: `cfg.shards` filers behind a router (1×1 for the
    /// paper's single filer).
    store: Rc<ShardedStore>,
}

/// Builds the executor and one [`HostCtx`] per host of the
/// `(hosts, threads per host)` grid (no tasks yet), or fails with
/// [`SimError::Config`] naming the field [`SimConfig::validate`] refuses
/// or the path it cannot create.
fn build_parts(config: &SimConfig, (n_hosts, n_threads): (u16, u16)) -> Result<SimParts, SimError> {
    config
        .validate()
        .map_err(|e| SimError::Config(e.to_string()))?;
    let cfg = Rc::new(config.clone());
    let sim = Sim::new();

    // Resolve the fault plan once per run: paper-scale windows divide by
    // `time_scale` (like syncer periods) and stochastic episodes expand
    // against the run seed, so the same configuration always injects the
    // same faults. An empty plan resolves to empty schedules, which take
    // no draw and add no task, sleep or poll (PERF.md invariant 10).
    //
    // `shard<k>`/`shard*` clauses land on per-shard schedules, and filer
    // clauses fan out to every shard.
    let set = cfg
        .fault_plan
        .resolve_sharded(cfg.seed, cfg.time_scale, cfg.shards)
        .map_err(SimError::Config)?;
    let fault = Rc::new(RobustnessState::new(&set));
    let ResolvedFaultSet {
        net_to_server,
        net_from_server,
        device,
        shards,
        ..
    } = set;

    let warmup_over = Rc::new(Cell::new(false));

    // The backend: one filer per shard (each with its own content-hash
    // luck and fault schedule) behind a shared router. Shard 0 runs on the
    // base seeds — here the filer's draw and fault-RNG seeds, below each
    // host's segment fault seed — so the default 1×1 store is the single
    // filer of the pre-remote engine, bit for bit (PERF.md invariant 11).
    // The base draw seed mixes in the run seed so distinct configurations
    // decorrelate.
    let filer_cfg = FilerConfig {
        fast_read_rate: cfg.prefetch,
        seed: TABLE1_FILER.seed ^ cfg.seed.rotate_left(17),
        ..TABLE1_FILER
    };
    let filers: Vec<Filer> = shards
        .into_iter()
        .zip(0..)
        .map(|(sched, k)| {
            Filer::new(sim.clone(), shard_filer_config(filer_cfg, k)).with_faults(
                sched,
                mix64(cfg.seed ^ (u64::from(k) << 16) ^ 0xf11e_fa17_0000_0001),
            )
        })
        .collect();
    let store = Rc::new(ShardedStore::new(
        Router::new(cfg.shards, cfg.replicas),
        filers,
    ));

    // Telemetry: one span stream per run (shared by every host, so rows
    // land in global completion order) and a per-host collector. Built
    // only when engaged, so the default run wires exactly the
    // pre-telemetry object graph (PERF.md invariant 12).
    let span_stream: Option<Rc<SpanStream>> = match &cfg.trace_out {
        Some(path) => Some(Rc::new(SpanStream::create(path).map_err(|e| {
            SimError::Config(format!("trace_out {}: {e}", path.display()))
        })?)),
        None => None,
    };
    let telemetry_window_ns = cfg.telemetry_windows.map(|w| cfg.scaled_time(w).as_nanos());

    // Network fan-in: hosts share wires in groups of `fanin`. Each group's
    // first host (its *leader*, `i % fanin == 0`) creates the segments —
    // fault seeds keyed by the leader's index — and the rest of the group
    // clones the handles (clones share the channel and the counters). At
    // fan-in 1 every host is its own leader, so this is literally the
    // pre-fleet per-host wiring, seeds included (PERF.md invariant 13).
    let fanin = cfg.net_fanin();
    let hedge_ns = cfg.hedge.map(|d| cfg.scaled_time(d).as_nanos());
    let mut group_segments: Vec<Segment> = Vec::new();
    let mut hosts: Vec<Rc<HostCtx>> = Vec::with_capacity(usize::from(n_hosts));
    let run = Rc::new(RunHosts::new(
        usize::from(n_hosts),
        cfg.ram_blocks() + cfg.flash_blocks(),
    ));
    // Appends to a disabled log are no-ops, so every host shares one.
    let no_iolog = IoLog::disabled();
    for i in 0..n_hosts {
        // This host's view of the backend: one segment per shard
        // (shared across the fan-in group), with a small deterministic
        // latency skew per shard.
        if i % fanin == 0 {
            group_segments = (0..cfg.shards)
                .map(|k| {
                    let net = shard_net_config(TABLE1_NET, k);
                    let seg = if cfg.duplex_network {
                        Segment::new_duplex(sim.clone(), net)
                    } else {
                        Segment::new(sim.clone(), net)
                    };
                    seg.with_faults(
                        net_to_server.clone(),
                        net_from_server.clone(),
                        mix64(
                            cfg.seed
                                ^ (u64::from(i) << 32)
                                ^ (u64::from(k) << 16)
                                ^ 0x5e97_fa17_0000_0002,
                        ),
                    )
                })
                .collect();
        }
        let unified = (cfg.arch == Architecture::Unified)
            .then(|| RefCell::new(UnifiedCache::new(cfg.ram_blocks(), cfg.flash_blocks())));
        let iolog = if cfg.log_flash_io {
            IoLog::new()
        } else {
            no_iolog.clone()
        };
        let telemetry = cfg.telemetry_engaged().then(|| {
            Rc::new(TelemetryCtx::new(
                telemetry_window_ns,
                span_stream.clone(),
                n_threads,
            ))
        });
        let dev = DeviceService::with_telemetry(
            sim.clone(),
            &cfg,
            HostId(i),
            iolog.clone(),
            telemetry.clone(),
        )
        .with_faults(
            device.clone(),
            mix64(cfg.seed ^ (u64::from(i) << 32) ^ 0xde71_fa17_0000_0003),
        );
        hosts.push(Rc::new(HostCtx {
            id: HostId(i),
            sim: sim.clone(),
            cfg: Rc::clone(&cfg),
            ram: RefCell::new(BlockCache::with_policy(
                if cfg.arch == Architecture::Unified {
                    0
                } else {
                    cfg.ram_blocks()
                },
                cfg.replacement,
            )),
            flash: RefCell::new(BlockCache::with_policy(
                if cfg.arch == Architecture::Unified {
                    0
                } else {
                    cfg.flash_blocks()
                },
                cfg.replacement,
            )),
            unified,
            metrics: Metrics::new(),
            iolog,
            dev,
            ram_flush_pending: RefCell::new(FxHashSet::default()),
            flash_flush_pending: RefCell::new(FxHashSet::default()),
            run: Rc::clone(&run),
            warmup_over: Rc::clone(&warmup_over),
            flushq: FlushQueue::new(),
            fault: FaultCtx {
                op_timeout: cfg.scaled_time(OP_TIMEOUT),
                retry_base: cfg.scaled_time(RETRY_BASE),
                rng: RefCell::new(SmallRng::seed_from_u64(mix64(
                    cfg.seed ^ (u64::from(i) << 32) ^ 0x0b0f_fa17_0000_0004,
                ))),
                state: Rc::clone(&fault),
            },
            remote: RemoteCtx {
                store: Rc::clone(&store),
                segments: group_segments.clone(),
                hedge_ns,
            },
            telemetry,
        }));
    }
    run.set_hosts(&hosts);

    Ok(SimParts {
        sim,
        cfg,
        hosts,
        fault,
        store,
    })
}

/// Spawns the periodic syncer daemons and the optional clock pin. Called
/// after the per-thread replay tasks.
fn spawn_daemons(parts: &SimParts) {
    let SimParts {
        sim, cfg, hosts, ..
    } = parts;
    // The tiers that can hold dirty blocks, RAM first. The lookaside flash
    // never does, and neither does a tier with no capacity, so neither
    // gets a syncer.
    let tiers: &[Tier] = match cfg.arch {
        Architecture::Naive => &[Tier::Ram, Tier::Flash],
        Architecture::Lookaside => &[Tier::Ram],
        Architecture::Unified => &[Tier::Unified(Medium::Ram), Tier::Unified(Medium::Flash)],
    };
    for h in hosts {
        for &tier in tiers {
            let has_blocks = match tier.medium() {
                Medium::Ram => h.has_ram(),
                Medium::Flash => h.has_flash(),
            };
            if let Some(period) = cfg.scaled_period(tier.policy(cfg)).filter(|_| has_blocks) {
                sim.spawn_daemon(engine::syncer(Rc::clone(h), tier, period));
            }
        }
    }

    // Recovery-drain probes: at the close of every filer outage, measure
    // the flush backlog that piled up while write-through was degraded and
    // time how long it takes to drain. Daemons, so they never extend the
    // run past the workload; an empty filer schedule has no outage, so
    // fault-free runs spawn none.
    let outages = parts.fault.filer.outage_spans();
    for h in hosts {
        for &(_, end_ns) in &outages {
            let h = Rc::clone(h);
            let state = Rc::clone(&parts.fault);
            let s = sim.clone();
            sim.spawn_daemon_at(SimTime::from_nanos(end_ns), async move {
                TaskClass::BacklogProbe.tag(&s);
                let depth = h.flushq.backlog();
                if depth > 0 {
                    let t0 = s.now();
                    flush::wait_drained(&h).await;
                    state.note_drain(depth as u64, s.now() - t0);
                }
            });
        }
    }

    // Recovery re-replication: when a failed shard returns, copy every
    // block whose acknowledged write it missed back from a surviving
    // replica. Backend-to-backend traffic — it pays filer service time on
    // both ends but no client segment time — fanned over a bounded number
    // of repair streams (a sequential drain cannot outpace a large
    // backlog before the run ends; a fleet rebuilds in parallel but
    // bounds the streams to protect foreground traffic). One pass per
    // (shard, outage span), so a copy whose only source is itself still
    // down is requeued for the next pass. At replication 1 no other copy
    // exists to copy from (a write with its one replica down parks
    // instead), so no recovery daemon is spawned.
    const REPAIR_STREAMS: usize = 16;
    if cfg.replicas > 1 {
        let store = &parts.store;
        for k in 0..store.router().shards() {
            for (_, end_ns) in store.faults(k).outage_spans() {
                let store = Rc::clone(store);
                let s = sim.clone();
                sim.spawn_daemon_at(SimTime::from_nanos(end_ns), async move {
                    let queue = Rc::new(RefCell::new(store.take_under_replicated(k)));
                    let drain = |store: Rc<ShardedStore>,
                                 s: Sim,
                                 queue: Rc<RefCell<Vec<fcache_types::BlockAddr>>>,
                                 class: TaskClass| async move {
                        class.tag(&s);
                        loop {
                            // Scope the borrow: `while let` would hold the
                            // RefMut across the awaits below.
                            let popped = queue.borrow_mut().pop();
                            let Some(addr) = popped else { break };
                            let now = s.now().as_nanos();
                            let src = store
                                .router()
                                .replica_set(addr)
                                .find(|&r| r != k && store.live_at(r, now));
                            match src {
                                Some(src) => {
                                    store.filer(src).read_blocks(&[addr]).await;
                                    store.filer(k).write(1).await;
                                    store.note_re_replicated(BLOCK_SIZE, s.now().as_nanos());
                                }
                                // No live source right now: leave the copy
                                // for the next recovery pass.
                                None => store.requeue_under_replicated(k, addr),
                            }
                        }
                    };
                    for _ in 1..REPAIR_STREAMS {
                        let (store, queue) = (Rc::clone(&store), Rc::clone(&queue));
                        s.spawn_daemon(drain(store, s.clone(), queue, TaskClass::ReReplication));
                    }
                    drain(store, s.clone(), queue, TaskClass::ShardRecovery).await;
                });
            }
        }
    }

    // Optionally pin the clock past the trace so periodic syncers can run.
    if let Some(t) = cfg.min_runtime {
        sim.spawn_at(t, async {});
    }
}

/// Runs the simulation, aggregates the report, and shuts the executor down
/// (breaking task↔executor `Rc` cycles) before surfacing any run error.
fn run_and_collect(parts: &SimParts) -> Result<SimReport, SimError> {
    let SimParts {
        sim,
        cfg,
        hosts,
        fault,
        store,
    } = parts;
    let run = sim.run().map_err(SimError::from);

    // Segment counters are shared across a fan-in group, so summing every
    // host's handle would multiply-count shared wires: only group leaders
    // contribute (at fan-in 1, everyone — the pre-fleet accounting).
    let fanin = cfg.net_fanin();
    fn add_seg(net: &mut SegmentStats, s: SegmentStats) {
        net.packets += s.packets;
        net.payload_bytes += s.payload_bytes;
        net.busy += s.busy;
        net.queue_wait += s.queue_wait;
        net.queue_waits += s.queue_waits;
    }

    // Aggregate before shutdown (shutdown drops the host tasks).
    let mut report = SimReport {
        end_time: sim.now(),
        events: sim.events_processed(),
        robustness: fault.snapshot(sim.now()),
        ..SimReport::default()
    };
    // Each host recorded into its own sink; the fold (counters plus
    // bucket-wise histograms) is exact, so it equals one shared sink. A
    // fleet cell also reports the per-host rows behind its percentiles.
    let mut per_host = Vec::with_capacity(cfg.fleet.map_or(0, |_| hosts.len()));
    for (i, h) in hosts.iter().enumerate() {
        let s = h.metrics.snapshot();
        report.metrics = report.metrics.merged(&s);
        if let Some(topo) = cfg.fleet {
            per_host.push(crate::report::HostLoadStats {
                host: topo.host_base + i as u32,
                read_ops: s.read_ops,
                write_ops: s.write_ops,
                read_latency_ns: s.read_latency.as_nanos(),
                write_latency_ns: s.write_latency.as_nanos(),
            });
        }
        let (queued, retries) = h.dev.fault_counts();
        report.robustness.queued_ops += queued;
        report.robustness.retries += retries;
        report.ram += *h.ram.borrow().stats();
        report.flash += *h.flash.borrow().stats();
        if let Some(u) = &h.unified {
            report.unified += *u.borrow().stats();
        }
        if i % usize::from(fanin) == 0 {
            for seg in &h.remote.segments {
                add_seg(&mut report.net, seg.stats());
            }
        }
        report.device += h.dev.stats();
        if let Some(w) = h.dev.take_windows() {
            // Each host numbers its windows from I/O 0; rebase every
            // appended series past the previous host's end so the combined
            // sequence tiles contiguously (hosts append in host-id order).
            let windows = report.device_windows.get_or_insert_with(Vec::new);
            let offset = windows
                .last()
                .map(|l| l.start_io + l.reads + l.writes)
                .unwrap_or(0);
            windows.extend(w.into_iter().map(|mut s| {
                s.start_io += offset;
                s
            }));
        }
    }
    if cfg.log_flash_io {
        let mut log = Vec::new();
        for h in hosts {
            log.extend(h.iolog.take());
        }
        report.flash_iolog = Some(log);
    }
    // Filer service counters are the sum over the shards; only runs that
    // engage the remote tier carry the per-shard `shard` section.
    let end_ns = report.end_time.as_nanos();
    let mut per_shard = Vec::with_capacity(usize::from(store.router().shards()));
    for k in 0..store.router().shards() {
        let fs = store.shard_stats(k);
        report.filer.fast_reads += fs.fast_reads;
        report.filer.slow_reads += fs.slow_reads;
        report.filer.writes += fs.writes;
        per_shard.push(crate::report::ShardServiceStats {
            fast_reads: fs.fast_reads,
            slow_reads: fs.slow_reads,
            writes: fs.writes,
            outage_ns: store.faults(k).outage_overlap(end_ns),
        });
    }
    if cfg.remote_engaged() {
        report.shard = crate::report::ShardStats {
            shards: store.router().shards(),
            replicas: store.router().replicas(),
            hedge_ns: hosts.first().and_then(|h| h.remote.hedge_ns).unwrap_or(0),
            per_shard,
            remote: store.stats(end_ns),
        };
    }
    if hosts.iter().any(|h| h.telemetry.is_some()) {
        let mut telem = TelemetryStats::default();
        for h in hosts {
            if let Some(t) = &h.telemetry {
                t.fold_into(&mut telem);
            }
        }
        // Per-window shard availability is global (one fault schedule per
        // shard), filled once at collection rather than summed per host.
        if telem.window_ns > 0 && cfg.remote_engaged() {
            let spans: Vec<Vec<(u64, u64)>> = (0..store.router().shards())
                .map(|k| store.faults(k).outage_spans())
                .collect();
            for w in &mut telem.windows {
                let (lo, hi) = (w.start_ns, w.end_ns);
                w.shard_live_ns = spans
                    .iter()
                    .map(|outages| {
                        let down: u64 = outages
                            .iter()
                            .map(|&(s, e)| e.min(hi).saturating_sub(s.max(lo)))
                            .sum();
                        (hi - lo).saturating_sub(down)
                    })
                    .collect();
            }
        }
        report.telemetry = telem;
        // Final flush: every host shares one stream, flush it once.
        if let Some(stream) = hosts
            .iter()
            .find_map(|h| h.telemetry.as_ref().and_then(|t| t.stream()))
        {
            stream.finish();
        }
    }
    if let Some(topo) = cfg.fleet {
        report.fleet = crate::report::FleetStats {
            topology: Some(topo),
            per_host,
        };
    }

    sim.shutdown();
    run?;
    if cfg.degraded == DegradedPolicy::Strict {
        if let Some(clause) = fault.first_fail() {
            return Err(SimError::Faulted { clause });
        }
    }
    Ok(report)
}

/// Runs `trace` under `config`, returning the aggregated report.
///
/// This is the crate's main entry point. The run is fully deterministic:
/// the same configuration and trace always produce the same report. The
/// trace is shared, not copied: replay indexes it by `(host, thread)`
/// slot once (4 bytes per op) and every thread cursor reads the caller's
/// buffer in place (sweeps replaying one trace across many configurations
/// share a single copy).
///
/// The host/thread grid is the trace's metadata widened to cover every
/// op's host and thread, so a trace whose header understates its ids
/// still replays.
///
/// # Examples
///
/// ```
/// use fcache::{run_trace, SimConfig};
/// use fcache_fsmodel::{FsModel, FsModelConfig};
/// use fcache_trace::{generate, TraceGenConfig};
/// use fcache_types::ByteSize;
///
/// let model = FsModel::generate(FsModelConfig {
///     total_bytes: ByteSize::mib(32),
///     seed: 1,
///     ..FsModelConfig::default()
/// });
/// let trace = generate(&model, TraceGenConfig {
///     working_set: ByteSize::mib(2),
///     seed: 2,
///     ..TraceGenConfig::default()
/// });
/// let cfg = SimConfig {
///     ram_size: ByteSize::kib(512),
///     flash_size: ByteSize::mib(4),
///     ..SimConfig::default()
/// };
/// let report = run_trace(&cfg, &trace).unwrap();
/// assert!(report.metrics.read_ops > 0);
/// ```
pub fn run_trace(config: &SimConfig, trace: &Trace) -> Result<SimReport, SimError> {
    let (mut hosts, mut threads) = trace.meta.grid();
    for op in &trace.ops {
        hosts = hosts.max(op.host().0 + 1);
        threads = threads.max(op.thread().0 + 1);
    }
    let meta = TraceMeta {
        hosts,
        threads_per_host: threads,
        ..trace.meta.clone()
    };
    replay(config, &mut SliceSource::with_meta(meta, &trace.ops))
}

/// Replays a streamed [`TraceSource`] under `config`.
///
/// A random-access source ([`TraceSource::fork_slot`] returns a cursor)
/// hands every replay thread its own cursor. A sequential one is pulled in
/// bounded chunks ([`TRACE_CHUNK_OPS`]) and demuxed into per-thread
/// queues, so replay memory is O(chunk + inter-thread skew) regardless of
/// trace length — a generated multi-gigabyte workload or an archived
/// `FCTRACE1` file replays without ever being resident. Either way the
/// report is bit-identical to materializing the same ops and calling
/// [`run_trace`].
///
/// The host/thread grid comes from [`TraceSource::meta`]; an op outside
/// that grid fails the run with [`SourceError::OutsideGrid`], and a
/// corrupt record with [`SourceError::Unreadable`].
pub fn run_source<S: TraceSource>(
    config: &SimConfig,
    source: &mut S,
) -> Result<SimReport, SimError> {
    replay(config, source)
}

/// The shared chunk feed of a sequential source: one queue per slot,
/// refilled from the source on demand. The queues are [`SpillQueue`]s, so
/// inter-thread skew past a bounded resident window overflows to disk
/// instead of growing replay memory — O(chunk) per slot unconditionally,
/// even for a trace whose slots are laid out back to back.
struct Feed {
    source: &'static mut dyn TraceSource,
    queues: Vec<SpillQueue>,
    chunk: Vec<TraceOp>,
    done: bool,
    /// The first failure; every slot returns it once its queue is empty.
    error: Option<io::Error>,
}

impl Feed {
    /// Pops the next op for `slot`, pulling chunks from the source until
    /// the slot has one or the stream ends. Refills cost zero simulated
    /// time, matching the materialized path where all ops exist up front.
    fn next_for(&mut self, slot: usize) -> io::Result<Option<TraceOp>> {
        loop {
            match self.queues[slot].pop() {
                Ok(Some(op)) => return Ok(Some(op)),
                Ok(None) => {}
                // Spilled backlog that cannot be read back is gone; fail
                // the run rather than silently dropping ops.
                Err(e) => {
                    self.error.get_or_insert_with(|| {
                        io::Error::new(e.kind(), format!("spilled op backlog lost: {e}"))
                    });
                }
            }
            if let Some(e) = &self.error {
                return Err(io::Error::new(e.kind(), e.to_string()));
            }
            if self.done {
                return Ok(None);
            }
            self.refill();
        }
    }

    fn refill(&mut self) {
        self.chunk.clear();
        match self.source.next_chunk(&mut self.chunk, TRACE_CHUNK_OPS) {
            Ok(0) => self.done = true,
            Ok(_) => {
                let meta = self.source.meta();
                for op in self.chunk.drain(..) {
                    match meta.slot_of(&op) {
                        Ok(slot) => self.queues[slot].push(op),
                        Err(e) => {
                            self.error = Some(e);
                            return;
                        }
                    }
                }
            }
            Err(e) => self.error = Some(e),
        }
    }
}

/// One slot's supply of ops: a cursor forked from a random-access source,
/// or the slot's queue in the shared [`Feed`] of a sequential one (an `Rc`
/// clone, so a many-slot fleet cell allocates nothing per slot).
enum Cursor {
    Forked(Box<dyn SlotCursor>),
    Fed(Rc<RefCell<Feed>>, usize),
}

impl Cursor {
    fn next(&mut self) -> io::Result<Option<TraceOp>> {
        match self {
            Cursor::Forked(cursor) => cursor.next(),
            Cursor::Fed(feed, slot) => feed.borrow_mut().next_for(*slot),
        }
    }
}

/// The one replay loop behind [`run_trace`] and [`run_source`]: one task
/// per `(host, thread)` slot of the source's grid, spawned in slot order
/// before the daemons, each pulling its ops from a [`Cursor`].
///
/// Every task has one shape — a synchronous `next()`, then one
/// `execute_op` await per op — so both cursor kinds poll identically and
/// produce bit-identical reports, executor event counts included (pinned
/// by `tests/trace_streaming.rs`). Per-slot order is all replay needs:
/// "each application thread can have only one I/O in progress" (§5). The
/// first cursor error fails the run with [`SimError::Source`].
fn replay(config: &SimConfig, source: &mut dyn TraceSource) -> Result<SimReport, SimError> {
    replay_on(&build_parts(config, source.meta().grid())?, source)
}

/// [`replay`] on parts built for the source's grid.
fn replay_on(parts: &SimParts, source: &mut dyn TraceSource) -> Result<SimReport, SimError> {
    let (n_hosts, n_threads) = source.meta().grid();
    let n_slots = usize::from(n_hosts) * usize::from(n_threads);
    // SAFETY: the executor requires `'static` tasks, but the cursors and
    // the feed borrow `source`. Erasing that borrow is sound because the
    // erased reference is only used while `Sim::run` executes inside this
    // call: every task is completed during the run or dropped by
    // `Sim::shutdown` in `run_and_collect` before this function returns,
    // and a task that is never polled again never touches it (even if a
    // panic leaks the executor, leaked tasks are never polled).
    #[allow(unsafe_code)]
    let source = unsafe {
        std::mem::transmute::<&mut (dyn TraceSource + '_), &'static mut dyn TraceSource>(source)
    };
    let mut cursors = Vec::with_capacity(n_slots);
    if source.fork_slot(0, 0).is_some() {
        let source: &'static dyn TraceSource = source;
        for slot in 0..n_slots {
            let (host, thread) = (slot / usize::from(n_threads), slot % usize::from(n_threads));
            let cursor = source
                .fork_slot(host as u16, thread as u16)
                .expect("a forkable source forks every slot");
            cursors.push(Cursor::Forked(cursor));
        }
    } else {
        let feed = Rc::new(RefCell::new(Feed {
            source,
            queues: (0..n_slots).map(|_| SpillQueue::new()).collect(),
            chunk: Vec::with_capacity(TRACE_CHUNK_OPS),
            done: false,
            error: None,
        }));
        cursors.extend((0..n_slots).map(|slot| Cursor::Fed(Rc::clone(&feed), slot)));
    }

    let error: Rc<RefCell<Option<SourceError>>> = Rc::default();
    for (slot, mut cursor) in cursors.into_iter().enumerate() {
        let host = Rc::clone(&parts.hosts[slot / usize::from(n_threads)]);
        let thread = (slot % usize::from(n_threads)) as u16;
        let error = Rc::clone(&error);
        parts.sim.spawn(async move {
            TaskClass::tag_op_thread(&host.sim, thread);
            loop {
                // Pull before awaiting: the feed's `RefCell` borrow must
                // not span the engine's await.
                let next = cursor.next();
                match next {
                    Ok(Some(op)) => {
                        execute_op(&host, &op).await;
                    }
                    Ok(None) => break,
                    Err(e) => {
                        // The first failing slot wins (deterministic:
                        // tasks run in a deterministic order).
                        error.borrow_mut().get_or_insert_with(|| (&e).into());
                        break;
                    }
                }
            }
        });
    }

    spawn_daemons(parts);
    let report = run_and_collect(parts);
    if let Some(e) = error.borrow_mut().take() {
        return Err(SimError::Source(e));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Workbench, WorkloadSpec};
    use fcache_des::TAG_CLASSES;
    use fcache_types::{BlockAddr, FaultPlan, FileId};

    /// Polls per task class of one run of the paper-scale `cfg`, at 1/4096
    /// scale, over the baseline workload; they sum to the run's polls.
    fn polls_by_class(cfg: SimConfig) -> [u64; TAG_CLASSES] {
        let trace = Workbench::new(4096, 42).make_trace(&WorkloadSpec::baseline_60g());
        let mut source = SliceSource::with_meta(trace.meta.clone(), &trace.ops);
        let parts = build_parts(&cfg.scaled_down(4096), source.meta().grid()).expect("builds");
        let report = replay_on(&parts, &mut source).expect("runs");
        let polls = parts.sim.polls_by_tag();
        assert_eq!(polls.iter().sum::<u64>(), report.events);
        polls
    }

    #[test]
    fn every_poll_counts_under_its_task_class() {
        use TaskClass::*;
        let plain = polls_by_class(SimConfig::baseline());
        // Replicas, a hedge and outages spawn the classes a plain run
        // cannot.
        let remote = polls_by_class(SimConfig {
            shards: 4,
            replicas: 2,
            hedge: Some(SimTime::from_micros(200)),
            fault_plan: FaultPlan::parse("shard1:outage@700s-800s;filer:outage@900s-920s")
                .expect("spec"),
            ..SimConfig::baseline()
        });
        // Every engine task tags itself.
        assert_eq!((plain[0], remote[0]), (0, 0));
        for class in [OpThread, FlushWorker, FlushKeeper, Syncer, SyncerFlush] {
            assert!(plain[class as usize] > 0, "{class:?}");
        }
        for class in [
            ReplicaLeg,
            HedgePrimary,
            HedgeSecond,
            BacklogProbe,
            ShardRecovery,
            ReReplication,
        ] {
            assert_eq!(plain[class as usize], 0, "{class:?} in a plain run");
            assert!(remote[class as usize] > 0, "{class:?}");
        }
    }

    /// Replays perfbench's `hosts32-ssd-writes` configuration at `seed`,
    /// scaled down by `scale` instead of perfbench's 256 (32 hosts, each
    /// with its own 10 GB working set, 1 GB RAM and 8 GB flash, half
    /// writes, SSD timing, streamed): the run's polls, its place entries
    /// that did a task's work instead of a poll, the armed NCQ grants
    /// among them, and its placed steps.
    fn hosts32(scale: u64, seed: u64) -> (u64, u64, u64, u64) {
        use crate::FlashTiming;
        use fcache_device::SsdConfig;
        use fcache_types::ByteSize;
        let cfg = SimConfig {
            seed,
            ram_size: ByteSize::gib(1),
            flash_size: ByteSize::gib(8),
            flash_timing: FlashTiming::Ssd(SsdConfig::auto()),
            ..SimConfig::baseline()
        }
        .scaled_down(scale);
        let spec = WorkloadSpec {
            working_set: ByteSize::gib(10),
            write_fraction: 0.5,
            hosts: 32,
            ws_count: 32,
            seed,
            ..WorkloadSpec::default()
        };
        let wb = Workbench::new(scale, seed);
        let mut source = wb.make_stream(&spec);
        let parts = build_parts(&cfg, source.meta().grid()).expect("builds");
        let report = replay_on(&parts, &mut source).expect("runs");
        let ncq: u64 = parts.hosts.iter().map(|h| h.dev.armed_grants()).sum();
        let armed = parts.sim.armed_by_tag().iter().sum();
        (report.events, armed, ncq, parts.sim.placed_steps())
    }

    #[test]
    fn hosts32_sheds_one_poll_per_armed_ncq_grant() {
        // The run's polls and place entries while every queued SSD command
        // was polled at its grant to draw its service and start its sleep,
        // and every exchange's middle legs were polls: the same run with
        // the NCQ hook's sleep left unarmed and no step record placed.
        const POLLED: u64 = 412_466;
        const OTHER_ENTRIES: u64 = 112_310;
        let (polls, armed, ncq, steps) = hosts32(4096, 1);
        assert_eq!((ncq, steps), (14_651, 89_916));
        assert_eq!(polls, POLLED - ncq - steps);
        // The wires' armed grants, armed spawns and idle re-arms count
        // there too, as many as before.
        assert_eq!(armed, OTHER_ENTRIES + ncq + steps);
    }

    /// Shard `k`'s filer draw seed in a `shards`-shard run seeded `run_seed`.
    fn shard_seed(run_seed: u64, shards: u16, k: u16) -> u64 {
        let cfg = SimConfig {
            seed: run_seed,
            shards,
            ..SimConfig::default()
        };
        build_parts(&cfg, (1, 1))
            .expect("builds")
            .store
            .filer(k)
            .config()
            .seed
    }

    #[test]
    fn shard_seeds_follow_the_run_seed_and_shard_zero_is_the_plain_filer() {
        for run_seed in [1u64, 42, 0xdead_beef] {
            // The seed the single filer has always drawn from.
            let plain = TABLE1_FILER.seed ^ run_seed.rotate_left(17);
            assert_eq!(shard_seed(run_seed, 1, 0), plain);
            assert_eq!(shard_seed(run_seed, 2, 0), plain);
        }
        assert_ne!(shard_seed(1, 2, 1), shard_seed(42, 2, 1));
        assert_ne!(shard_seed(42, 2, 1), shard_seed(0xdead_beef, 2, 1));
    }

    #[test]
    fn a_one_host_run_builds_no_sharer_filter() {
        let cfg = SimConfig::default();
        let one = build_parts(&cfg, (1, 1)).expect("builds");
        assert!(one.hosts[0].run.sharers().is_none());
        assert_eq!(
            one.hosts[0].invalidate_peers(BlockAddr::new(FileId(0), 0)),
            0
        );
        let two = build_parts(&cfg, (2, 1)).expect("builds");
        assert!(two.hosts[1].run.sharers().is_some());
    }
}
