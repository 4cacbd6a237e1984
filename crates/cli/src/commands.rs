//! Subcommand implementations.

use std::error::Error;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;

use fcache::{
    chrome_trace, read_rows, read_span_rows, Architecture, DecodedRow, DegradedPolicy, FlashTiming,
    HistogramSnapshot, JsonlSink, LatencyHistogram, MemorySink, ResultSink, Scenario, SimConfig,
    SpanRow, Sweep, Workbench, Workload, WorkloadSpec, WritebackPolicy, REPORT_SCHEMA,
};
use fcache_device::{SimTime, SsdConfig};
use fcache_fleet::{worker_part_path, Fleet, FleetSpec, FleetSummary};
use fcache_types::{stream_stats, ByteSize, FaultPlan, Phase, TraceReader, TraceSource};

use crate::args::{ArgError, Flags};

type CmdResult = Result<(), Box<dyn Error>>;

const USAGE: &str = "\
fcsim — client-side flash-cache simulator (USENIX ATC '13 reproduction)

USAGE:
  fcsim run [flags]          run one configuration against a generated workload
  fcsim sweep [flags]        run a config sweep in parallel (see SWEEP FLAGS)
  fcsim fleet [flags]        run a fleet of hosts as cells on a shared backend
                             and merge fleet-level percentiles (see FLEET
                             FLAGS); --procs P fans the cells out across P
                             worker OS processes
  fcsim report FILE          summarize a JSONL results file written by
                             `sweep --out` (schema check + metrics table)
  fcsim table1               print the Table 1 timing parameters
  fcsim gen-trace [flags]    generate a trace file (--out required)
  fcsim trace FILE           analyze a span stream written by --trace-out:
                             per-phase totals/percentiles and the top N
                             slowest ops (--top N, default 10); --export-chrome
                             OUT writes Chrome trace-event JSON (load it in
                             chrome://tracing or https://ui.perfetto.dev)
  fcsim trace-stats --in F   summarize a trace file (streamed, O(chunk) memory)
  fcsim trace-dump --in F    print trace records as text (--limit N, default 20)
  fcsim replay [flags]       run a configuration against a trace file (--in),
                             streamed through chunked reads
  fcsim help                 this text

SWEEP FLAGS (in addition to the common/workload flags):
  --arch-list a,b,...              architectures to sweep     [naive]
  --flash-list S1,S2,...           flash sizes to sweep       [0,32G,64G,128G]
  --threads N                      worker threads (0 = auto)  [0]
  --jobs N                         alias for --threads
  --streamed                       regenerate the workload per job instead of
                                   sharing one materialized trace: sweep
                                   memory drops to O(chunk x jobs)
  --serial                         run serially (baseline for timing)
  --out FILE                       stream each finished job to FILE as one
                                   schema-versioned JSON row per line,
                                   flushed per row (durable results)
  --resume                         with --out: skip jobs whose rows are
                                   already in FILE (tolerates the torn last
                                   line a killed run leaves) and append the
                                   rest — the final row set matches an
                                   uninterrupted run

FLEET FLAGS (in addition to the common/workload flags):
  --hosts N                        total fleet hosts          [1000]
  --cell-hosts N                   hosts per cell — one cell is one
                                   deterministic DES job and one result
                                   row                        [100]
  --fanin N                        hosts sharing each half-duplex uplink
                                   (queuing on the shared wire) [4]
  --procs P                        worker OS processes; cells are dealt
                                   round-robin across workers [1]
  --threads N                      worker threads per process (0 = auto) [0]
  --out FILE                       merged per-cell rows; worker K streams to
                                   FILE.K and the coordinator merges the
                                   parts in cell order. The merged FILE is
                                   byte-identical for any --procs P.
  --resume                         with --out: finish only the cells missing
                                   from surviving FILE.K parts, then remerge
  --worker K                       internal: run as worker K of --procs
                                   (the coordinator spawns these)
  Fleet runs default to --scale 4096; per-cell seeds and workloads are
  derived from --seed, so results do not depend on --procs or --threads.

COMMON FLAGS (run / replay):
  --arch naive|lookaside|unified   cache architecture        [naive]
  --ram SIZE                       RAM cache size            [8G]
  --flash SIZE                     flash cache size          [64G]
  --ram-policy s|a|pN|n            RAM writeback policy      [p1]
  --flash-policy s|a|pN|n          flash writeback policy    [a]
  --prefetch RATE                  filer fast-read rate      [0.9]
  --persistent                     persistent (recoverable) flash metadata
  --duplex                         full-duplex network segments
  --flash-timing flat|ssd          flash device timing model [flat]
  --ssd-capacity SIZE              SSD device capacity       [auto: flash-sized]
  --ssd-read-base MICROS           SSD base read service time  [52]
  --ssd-write-base MICROS          SSD mean write service time [21]
  --scale N                        divide all byte sizes by N [64]
  --seed N                         RNG seed                  [42]
  --fault SPEC                     inject faults (run / sweep / replay):
                                   clauses `target:kind@window` joined by `;`
                                   with target filer|net|net-up|net-down|device
                                   |shard<k>|shard*, kind outage|slowx<f>|err<p>,
                                   window <start>-<end> (paper-scale, e.g.
                                   40s-60s) or ~<count>x<len>/<gap> episodes
  --degraded queue|failfast|strict reads that hit a filer outage: park until
                                   recovery, fail fast, or fail the run [queue]
  --shards K                       shard the remote tier across K filers [1]
  --replicas R                     replicate each block on R shards (reads
                                   serve from any live replica, writes ack
                                   all live replicas)              [1]
  --hedge MICROS                   hedge remote reads: race a second replica
                                   if the first is silent for MICROS
                                   (requires --replicas >= 2)   [off]
  --windows DUR                    collect unified telemetry windows of DUR
                                   (paper-scale, e.g. 10s): hit rate, dirty
                                   ratio, queue depth, retries, degraded
                                   time, per-shard availability     [off]
  --trace-out FILE                 stream one JSON span per measured op to
                                   FILE (per-phase latency attribution;
                                   analyze with `fcsim trace`). In a sweep
                                   each job writes FILE.<index>     [off]

  `--flash-timing ssd` services every flash op through a bounded NCQ-style
  queue in front of the behavioral SSD model (FTL map-cache locality, fill
  and wear penalties) instead of the flat Table 1 latencies; the --ssd-*
  overrides require it.

WORKLOAD FLAGS (run / gen-trace):
  --ws SIZE                        working-set size (paper scale) [80G]
  --write-pct P                    write percentage          [30]
  --hosts N                        number of hosts           [1]
  --ws-count N                     distinct working sets     [1]
  --skip-warmup                    drop the warmup half (crash-at-start)

Sizes accept 4096, 256K, 8G, 1.5G forms. At --scale N every byte size
(model, working set, caches) is divided by N; latencies are unchanged, so
curve shapes match paper scale (hit rates depend only on size ratios).";

/// Dispatches a command line.
pub fn dispatch(argv: &[String]) -> CmdResult {
    match argv.first().map(|s| s.as_str()) {
        None | Some("help") | Some("--help") | Some("-h") => {
            println!("{USAGE}");
            Ok(())
        }
        Some("run") => cmd_run(&argv[1..]),
        Some("sweep") => cmd_sweep(&argv[1..]),
        Some("fleet") => cmd_fleet(&argv[1..]),
        Some("report") => cmd_report(&argv[1..]),
        Some("table1") => cmd_table1(),
        Some("gen-trace") => cmd_gen_trace(&argv[1..]),
        Some("trace") => cmd_trace(&argv[1..]),
        Some("trace-stats") => cmd_trace_stats(&argv[1..]),
        Some("trace-dump") => cmd_trace_dump(&argv[1..]),
        Some("replay") => cmd_replay(&argv[1..]),
        Some(other) => Err(Box::new(ArgError(format!(
            "unknown command {other:?}; try `fcsim help`"
        )))),
    }
}

const CFG_FLAGS: &[&str] = &[
    "arch",
    "ram",
    "flash",
    "ram-policy",
    "flash-policy",
    "prefetch",
    "scale",
    "seed",
    "ws",
    "write-pct",
    "hosts",
    "ws-count",
    "in",
    "out",
    "limit",
    "arch-list",
    "flash-list",
    "jobs",
    "threads",
    "flash-timing",
    "ssd-capacity",
    "ssd-read-base",
    "ssd-write-base",
    "fault",
    "degraded",
    "shards",
    "replicas",
    "hedge",
    "windows",
    "trace-out",
    "cell-hosts",
    "fanin",
    "procs",
    "worker",
];
const CFG_BOOLS: &[&str] = &[
    "persistent",
    "duplex",
    "skip-warmup",
    "serial",
    "streamed",
    "resume",
];

fn config_from(flags: &Flags) -> Result<SimConfig, ArgError> {
    let mut cfg = SimConfig::baseline();
    cfg.arch = flags.get_parsed("arch", Architecture::Naive)?;
    cfg.ram_size = flags.get_parsed("ram", ByteSize::gib(8))?;
    cfg.flash_size = flags.get_parsed("flash", ByteSize::gib(64))?;
    cfg.ram_policy = flags.get_parsed("ram-policy", WritebackPolicy::Periodic(1))?;
    cfg.flash_policy = flags.get_parsed("flash-policy", WritebackPolicy::AsyncWriteThrough)?;
    let prefetch: f64 = flags.get_parsed("prefetch", 0.9)?;
    if !(0.0..=1.0).contains(&prefetch) {
        return Err(ArgError("--prefetch must be in [0,1]".into()));
    }
    cfg.filer.fast_read_rate = prefetch;
    cfg.flash_model.persistent = flags.has("persistent");
    cfg.duplex_network = flags.has("duplex");
    cfg.seed = flags.get_parsed("seed", 42u64)?;
    cfg.flash_timing = flash_timing_from(flags)?;
    if let Some(spec) = flags.get("fault") {
        cfg.fault_plan = FaultPlan::parse(spec).map_err(|e| ArgError(format!("--fault: {e}")))?;
    }
    if let Some(label) = flags.get("degraded") {
        cfg.robustness.degraded =
            DegradedPolicy::parse(label).map_err(|e| ArgError(format!("--degraded: {e}")))?;
    }
    cfg.shards = flags.get_parsed("shards", 1u16)?;
    if cfg.shards == 0 {
        return Err(ArgError("--shards must be at least 1".into()));
    }
    // An out-of-range shard clause would only surface as a panic deep in
    // the run; catch it here as an ordinary flag error.
    for clause in &cfg.fault_plan.clauses {
        if let fcache_types::FaultTarget::Shard(Some(k)) = clause.target {
            if k >= cfg.shards {
                return Err(ArgError(format!(
                    "--fault: clause targets shard{k} but --shards is {}",
                    cfg.shards
                )));
            }
        }
    }
    cfg.replicas = flags.get_parsed("replicas", 1u16)?;
    if cfg.replicas == 0 || cfg.replicas > cfg.shards {
        return Err(ArgError(format!(
            "--replicas must be in 1..={} (one per distinct shard), got {}",
            cfg.shards, cfg.replicas
        )));
    }
    if let Some(raw) = flags.get("hedge") {
        if cfg.replicas < 2 {
            return Err(ArgError(
                "--hedge requires --replicas >= 2 (a hedge needs a second replica)".into(),
            ));
        }
        let us: f64 = raw
            .parse()
            .map_err(|e| ArgError(format!("invalid value for --hedge: {e}")))?;
        if !us.is_finite() || us <= 0.0 {
            return Err(ArgError("--hedge must be positive microseconds".into()));
        }
        cfg.hedge = Some(SimTime::from_nanos((us * 1000.0).round() as u64));
    }
    if let Some(raw) = flags.get("windows") {
        let ns =
            fcache_types::parse_time_ns(raw).map_err(|e| ArgError(format!("--windows: {e}")))?;
        if ns == 0 {
            return Err(ArgError("--windows must be a positive duration".into()));
        }
        cfg.telemetry_windows = Some(SimTime::from_nanos(ns));
    }
    if let Some(path) = flags.get("trace-out") {
        cfg.trace_out = Some(path.into());
    }
    Ok(cfg)
}

/// Parses the device timing selector and its `--ssd-*` overrides.
fn flash_timing_from(flags: &Flags) -> Result<FlashTiming, ArgError> {
    let mode = flags.get("flash-timing").unwrap_or("flat");
    let overrides = ["ssd-capacity", "ssd-read-base", "ssd-write-base"];
    match mode {
        "flat" => {
            if let Some(given) = overrides.iter().find(|f| flags.get(f).is_some()) {
                return Err(ArgError(format!("--{given} requires --flash-timing ssd")));
            }
            Ok(FlashTiming::Flat)
        }
        "ssd" => {
            let mut sc = SsdConfig::auto();
            if let Some(raw) = flags.get("ssd-capacity") {
                let size: ByteSize = raw
                    .parse()
                    .map_err(|e| ArgError(format!("invalid value for --ssd-capacity: {e}")))?;
                if size.blocks() == 0 {
                    return Err(ArgError(
                        "--ssd-capacity must be at least one 4K block".into(),
                    ));
                }
                // Fit, don't just set: the FTL region size and map-cache
                // coverage must follow the device size or locality behavior
                // silently disappears for small devices.
                sc = sc.fit_capacity(size.blocks());
            }
            for (flag, slot) in [
                ("ssd-read-base", &mut sc.read_base),
                ("ssd-write-base", &mut sc.write_base),
            ] {
                if let Some(raw) = flags.get(flag) {
                    let us: f64 = raw
                        .parse()
                        .map_err(|e| ArgError(format!("invalid value for --{flag}: {e}")))?;
                    if !us.is_finite() || us <= 0.0 {
                        return Err(ArgError(format!("--{flag} must be positive microseconds")));
                    }
                    *slot = SimTime::from_nanos((us * 1000.0).round() as u64);
                }
            }
            Ok(FlashTiming::Ssd(sc))
        }
        other => Err(ArgError(format!(
            "--flash-timing must be flat or ssd, got {other:?}"
        ))),
    }
}

/// The `--scale` divisor of every byte size, `default` when absent. Zero
/// is refused here, naming the flag, rather than left to panic deep in
/// the model.
fn scale_from(flags: &Flags, default: u64) -> Result<u64, ArgError> {
    match flags.get_parsed("scale", default)? {
        0 => Err(ArgError("--scale must be at least 1".into())),
        scale => Ok(scale),
    }
}

fn spec_from(flags: &Flags) -> Result<WorkloadSpec, ArgError> {
    let write_pct: u32 = flags.get_parsed("write-pct", 30u32)?;
    if write_pct > 100 {
        return Err(ArgError("--write-pct must be 0..=100".into()));
    }
    Ok(WorkloadSpec {
        working_set: flags.get_parsed("ws", ByteSize::gib(80))?,
        write_fraction: f64::from(write_pct) / 100.0,
        hosts: flags.get_parsed("hosts", 1u16)?,
        ws_count: flags.get_parsed("ws-count", 1usize)?,
        skip_warmup: flags.has("skip-warmup"),
        seed: flags.get_parsed("seed", 42u64)?,
    })
}

fn cmd_run(args: &[String]) -> CmdResult {
    let flags = Flags::parse(args, CFG_FLAGS, CFG_BOOLS)?;
    let scale = scale_from(&flags, 64)?;
    let cfg = config_from(&flags)?;
    let spec = spec_from(&flags)?;
    let wb = Workbench::new(scale, cfg.seed);
    eprintln!(
        "model: {} files / {} bytes at 1/{scale} scale; ws {} (scaled {})",
        wb.model().file_count(),
        wb.model().total_bytes(),
        spec.working_set,
        spec.working_set.scaled_down(scale),
    );
    eprintln!("flash timing: {}", cfg.flash_timing.describe());
    if cfg.remote_engaged() {
        eprintln!(
            "remote tier: {} shard(s) x {} replica(s){}",
            cfg.shards,
            cfg.replicas,
            match cfg.hedge {
                Some(d) => format!(", hedged reads after {d}"),
                None => ", no hedging".into(),
            }
        );
    }
    if !cfg.fault_plan.is_empty() {
        eprintln!(
            "fault plan: {} (degraded: {})",
            cfg.fault_plan.describe(),
            cfg.robustness.degraded.label()
        );
    }
    // One scenario over a streamed workload: generation feeds the
    // simulator in bounded chunks, so run memory is O(cache + chunk)
    // regardless of the trace volume.
    let t0 = std::time::Instant::now();
    let report = wb.scenario(&cfg, &spec).run()?;
    let wall = t0.elapsed().as_secs_f64();
    print!("{report}");
    println!(
        "read latency       {:.1} us/block",
        report.read_latency_us()
    );
    println!(
        "write latency      {:.2} us/block",
        report.write_latency_us()
    );
    // The simulator's own cost goes to stderr, keeping stdout the report
    // that `fcsim replay` prints for the same ops. The stream is
    // regenerated to count its ops, outside the timed run.
    let mut stream = wb.make_stream(&spec);
    let ops = std::iter::from_fn(|| stream.next_op()).count() as u64;
    if wall > 0.0 {
        eprintln!("{}", throughput_line("run", ops, wall, report.events));
    }
    Ok(())
}

/// One line of a run's own cost: trace ops per wall second, wall time,
/// and executor polls, in total and per trace op (warmup included).
fn throughput_line(what: &str, ops: u64, wall_s: f64, polls: u64) -> String {
    format!(
        "{:<19}{:.0} ops/s ({ops} ops in {:.1} ms wall, {polls} polls, {:.2} polls/op)",
        format!("{what} throughput"),
        ops as f64 / wall_s,
        wall_s * 1e3,
        polls as f64 / ops.max(1) as f64,
    )
}

fn ensure_unique<T: PartialEq + std::fmt::Display>(list: &[T], flag: &str) -> Result<(), ArgError> {
    for (i, v) in list.iter().enumerate() {
        if list[..i].contains(v) {
            return Err(ArgError(format!("--{flag} contains duplicate {v}")));
        }
    }
    Ok(())
}

fn parse_list<T: std::str::FromStr>(raw: &str, what: &str) -> Result<Vec<T>, ArgError>
where
    T::Err: std::fmt::Display,
{
    raw.split(',')
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.trim()
                .parse::<T>()
                .map_err(|e| ArgError(format!("invalid {what} {s:?}: {e}")))
        })
        .collect()
}

/// Runs a (architecture × flash size) sweep against one generated workload
/// through the [`Sweep`] builder: a shared materialized trace by default,
/// or per-job regenerated streams with `--streamed`.
fn cmd_sweep(args: &[String]) -> CmdResult {
    let flags = Flags::parse(args, CFG_FLAGS, CFG_BOOLS)?;
    let scale = scale_from(&flags, 64)?;
    let base = config_from(&flags)?;
    let spec = spec_from(&flags)?;
    let archs: Vec<Architecture> = parse_list(
        flags
            .get("arch-list")
            .or_else(|| flags.get("arch"))
            .unwrap_or("naive"),
        "architecture",
    )?;
    // A bare --flash narrows the sweep to that one size; --flash-list wins
    // when both are given.
    let flash_sizes: Vec<ByteSize> = parse_list(
        flags
            .get("flash-list")
            .or_else(|| flags.get("flash"))
            .unwrap_or("0,32G,64G,128G"),
        "size",
    )?;
    if archs.is_empty() || flash_sizes.is_empty() {
        return Err(Box::new(ArgError(
            "--arch-list / --flash-list must name at least one value".into(),
        )));
    }
    // Duplicate axis entries would produce duplicate job labels, which
    // break label-keyed results (resume refuses them with a library
    // assert); reject them here as ordinary flag errors.
    ensure_unique(&archs, "arch-list")?;
    ensure_unique(&flash_sizes, "flash-list")?;
    // --threads is the builder-facing name; --jobs stays as an alias.
    let threads: usize = match flags.get("threads") {
        Some(_) => flags.get_parsed("threads", 0usize)?,
        None => flags.get_parsed("jobs", 0usize)?,
    };
    let workers = if flags.has("serial") { 1 } else { threads };

    let wb = Workbench::new(scale, base.seed);
    let mut cfgs: Vec<SimConfig> = Vec::new();
    let mut labels: Vec<(Architecture, ByteSize)> = Vec::new();
    for arch in &archs {
        for fs in &flash_sizes {
            cfgs.push(
                SimConfig {
                    arch: *arch,
                    flash_size: *fs,
                    ..base.clone()
                }
                .scaled_down(scale),
            );
            labels.push((*arch, *fs));
        }
    }
    // A shared --trace-out path would interleave every job's span rows in
    // one file; give each job its own stream, suffixed by job index.
    if let Some(base_path) = &base.trace_out {
        for (i, cfg) in cfgs.iter_mut().enumerate() {
            cfg.trace_out = Some(format!("{}.{i}", base_path.display()).into());
        }
    }

    let out = flags.get("out");
    if flags.has("resume") && out.is_none() {
        return Err(Box::new(ArgError("--resume requires --out FILE".into())));
    }
    let jobs = cfgs.len();

    // Job labels carry the full workload identity (ws/write-pct/seed,
    // plus hosts/cold when off-baseline), not just arch/flash: resume
    // matches rows by label, and a label that omitted the workload would
    // let a results file from a different --ws/--seed satisfy this sweep
    // with stale rows.
    let spec_label = spec.label();
    let job_labels: Vec<String> = labels
        .iter()
        .map(|(arch, fs)| format!("{}/{} {spec_label}", arch.name(), fs))
        .collect();

    // Every finished job streams through a sink: a durable JSONL file
    // (--out; flushed per row, so a killed sweep resumes with --resume) or
    // an in-memory collector. Reports are never held as a vector. The
    // sinks are opened before the workload, both for borrow ordering and
    // so a fully-resumed sweep never pays for trace generation.
    let mut memory = MemorySink::new();
    let (mut jsonl, resumed) = match out {
        // One decode pass: JsonlSink::resume truncates any torn tail and
        // returns the surviving rows, which Sweep::resume checks against
        // this sweep's jobs below.
        Some(path) if flags.has("resume") => {
            let (sink, rows) = JsonlSink::resume(path)?;
            (Some(sink), rows)
        }
        Some(path) => (Some(JsonlSink::create(path)?), Vec::new()),
        None => (None, Vec::new()),
    };

    // The workload axis: one shared materialized trace (zero-copy across
    // jobs, O(trace) resident) or a per-job regenerated stream
    // (O(chunk × jobs) resident — nothing is ever materialized). A fully
    // resumed sweep runs nothing, so it takes the lazy streamed form and
    // skips trace generation entirely. Sweep::resume accepts one row per
    // job at most, so a file that passes it with `jobs` rows has them all.
    let all_resumed = resumed.len() == jobs;
    let trace;
    let workload = if flags.has("streamed") || all_resumed {
        wb.workload(&spec)
    } else {
        trace = wb.make_trace(&spec);
        Workload::trace(&trace)
    };
    let described = workload.describe();

    let t0 = std::time::Instant::now();
    let mut sweep = Sweep::over(workload).threads(workers);
    for (label, cfg) in job_labels.iter().zip(cfgs.iter()) {
        sweep = sweep.config(label.clone(), cfg.clone());
    }
    // A file from different flags is an error, not a silent pile of stale
    // rows.
    let path = out.unwrap_or_default();
    let sweep = sweep
        .resume(path, &resumed)
        .map_err(|e| format!("{e} — use a new --out file"))?;
    // Diagnostics go to stderr like the timing footer, keeping stdout a
    // clean one-header table for scripts.
    if !resumed.is_empty() {
        eprintln!(
            "# resuming: {} of {jobs} rows already in {path}",
            resumed.len()
        );
    }
    if all_resumed {
        eprintln!("# workload: all jobs resumed; nothing to generate or run");
    } else {
        eprintln!("# workload: {described}");
    }
    let sink: &mut dyn ResultSink = match &mut jsonl {
        Some(sink) => sink,
        None => &mut memory,
    };
    let results = sweep.sink(sink).run();
    let wall = t0.elapsed();
    // A failing job names its config (index + label) instead of
    // unwinding through a positional unwrap.
    if let Some(err) = results.first_error() {
        return Err(Box::new(err));
    }
    if let Some(err) = results.sink_error() {
        return Err(format!("results sink failed: {err}").into());
    }
    let skipped = results.skipped();

    // The printed table reads from the same rows the sink received — for
    // --out, decoded back from the file (so what you see is exactly what
    // the durable artifact holds, resumed rows included).
    let mut rows: Vec<DecodedRow> = match out {
        Some(path) => read_rows(path)?,
        None => memory
            .into_rows()
            .into_iter()
            .map(|r| DecodedRow {
                index: r.index,
                label: r.label,
                config: fcache::results::config_to_json(&r.config),
                report: r.report,
            })
            .collect(),
    };
    rows.sort_by_key(|r| r.index);
    print_rows_table(&rows);
    if let Some(path) = out {
        eprintln!("# {} rows in {path} (schema {REPORT_SCHEMA})", rows.len());
    }
    eprintln!(
        "# {} configs in {:.2}s ({}{})",
        jobs,
        wall.as_secs_f64(),
        if workers == 1 {
            "serial".to_string()
        } else {
            format!(
                "parallel, {} workers",
                if workers == 0 {
                    std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(1)
                } else {
                    workers
                }
                .min(jobs.max(1))
            )
        },
        if skipped > 0 {
            format!("; {skipped} resumed, {} run", jobs - skipped)
        } else {
            String::new()
        }
    );
    Ok(())
}

/// Runs a fleet of hosts as deterministic cells against a shared backend,
/// optionally fanned out across worker OS processes.
///
/// Three modes share one entry point:
/// - no `--out`: run every cell in this process and print the summary;
/// - `--out` (coordinator): run the cells (in-process at `--procs 1`,
///   else by spawning `--worker K` children of this same binary), then
///   merge the per-worker part files into the canonical cell-ordered
///   FILE — byte-identical for any process count;
/// - `--out --worker K` (internal): run worker K's cells into FILE.K.
fn cmd_fleet(args: &[String]) -> CmdResult {
    let flags = Flags::parse(args, CFG_FLAGS, CFG_BOOLS)?;
    // Paper-scale fleets are huge; default deeper scaling than run/sweep.
    let scale = scale_from(&flags, 4096)?;
    let base = config_from(&flags)?;
    // In a fleet, --hosts is the fleet size; the per-cell host count in
    // the workload template is derived by the plan, so reuse spec_from's
    // parse and override the default.
    let template = spec_from(&flags)?;
    let hosts: u32 = match flags.get("hosts") {
        Some(_) => u32::from(template.hosts),
        None => 1000,
    };
    let cell_hosts: u16 = flags.get_parsed("cell-hosts", 100u16)?;
    let fanin: u16 = flags.get_parsed("fanin", 4u16)?;
    for (flag, v) in [
        ("hosts", u64::from(hosts)),
        ("cell-hosts", u64::from(cell_hosts)),
        ("fanin", u64::from(fanin)),
    ] {
        if v == 0 {
            return Err(Box::new(ArgError(format!("--{flag} must be at least 1"))));
        }
    }
    let procs: u32 = flags.get_parsed("procs", 1u32)?;
    if procs == 0 {
        return Err(Box::new(ArgError("--procs must be at least 1".into())));
    }
    let threads: usize = match flags.get("threads") {
        Some(_) => flags.get_parsed("threads", 0usize)?,
        None => flags.get_parsed("jobs", 0usize)?,
    };
    let out = flags.get("out");
    if flags.has("resume") && out.is_none() {
        return Err(Box::new(ArgError("--resume requires --out FILE".into())));
    }

    let fleet = Fleet::new(
        base,
        FleetSpec {
            hosts,
            cell_hosts,
            hosts_per_segment: fanin,
            workload: template,
            scale,
        },
    )
    .threads(threads);
    let plan = fleet.plan();

    // Worker mode: run this worker's cells into the part file and exit.
    if flags.get("worker").is_some() {
        let worker: u32 = flags.get_parsed("worker", 0u32)?;
        if worker >= procs {
            return Err(Box::new(ArgError(format!(
                "--worker {worker} must be below --procs {procs}"
            ))));
        }
        let out = out.ok_or_else(|| ArgError("--worker requires --out FILE".into()))?;
        let r = fleet.run_worker(Path::new(out), procs, worker, flags.has("resume"))?;
        eprintln!(
            "# worker {worker}/{procs}: {} cells ({} run, {} resumed) -> {}",
            r.cells,
            r.completed,
            r.resumed,
            worker_part_path(Path::new(out), worker).display()
        );
        return Ok(());
    }

    eprintln!(
        "# fleet: {hosts} hosts in {} cells of <= {cell_hosts} (fan-in {fanin}), scale 1/{scale}",
        plan.cells()
    );
    let t0 = std::time::Instant::now();
    let Some(path) = out else {
        if procs > 1 {
            return Err(Box::new(ArgError(
                "--procs > 1 requires --out FILE (workers stream rows to FILE.<k>)".into(),
            )));
        }
        let summary = fleet.run()?.summary();
        print!("{summary}");
        eprintln!(
            "# {} cells in {:.2}s (1 process)",
            plan.cells(),
            t0.elapsed().as_secs_f64()
        );
        return Ok(());
    };

    if procs == 1 {
        // Same part-file + merge path as the multi-process form, so the
        // durable FILE is identical however many workers produced it.
        let r = fleet.run_worker(Path::new(path), 1, 0, flags.has("resume"))?;
        if r.resumed > 0 {
            eprintln!(
                "# resuming: {} of {} cells already done",
                r.resumed, r.cells
            );
        }
    } else {
        // Coordinator: re-invoke this binary once per worker with the
        // original flags plus `--worker K`. A failed or killed worker
        // fails the whole run *without* merging — its part file keeps
        // every row it flushed, so `--resume` finishes the remainder.
        let exe = std::env::current_exe()?;
        let mut children = Vec::new();
        for k in 0..procs {
            let child = std::process::Command::new(&exe)
                .arg("fleet")
                .args(args)
                .arg("--worker")
                .arg(k.to_string())
                .spawn()?;
            children.push((k, child));
        }
        let mut failed = Vec::new();
        for (k, mut child) in children {
            if !child.wait()?.success() {
                failed.push(k.to_string());
            }
        }
        if !failed.is_empty() {
            return Err(format!(
                "fleet worker(s) {} failed; completed cells are preserved in the part \
                 files — rerun with --resume to finish the rest",
                failed.join(", ")
            )
            .into());
        }
    }
    let rows = fleet.merge_parts(Path::new(path), procs)?;
    let wall = t0.elapsed();
    print!("{}", FleetSummary::from_rows(&rows));
    eprintln!("# {} rows in {path} (schema {REPORT_SCHEMA})", rows.len());
    eprintln!(
        "# {} cells in {:.2}s ({procs} process(es))",
        plan.cells(),
        wall.as_secs_f64()
    );
    Ok(())
}

/// Renders decoded result rows as the standard metrics table.
fn print_rows_table(rows: &[DecodedRow]) {
    let label_w = rows
        .iter()
        .map(|r| r.label.len())
        .chain(["label".len()])
        .max()
        .unwrap_or(5);
    println!(
        "{:>label_w$}  {:>9}  {:>9}  {:>7}  {:>7}",
        "label", "read_us", "write_us", "ram%", "flash%"
    );
    for row in rows {
        let r = &row.report;
        println!(
            "{:>label_w$}  {:>9.1}  {:>9.2}  {:>7.1}  {:>7.1}",
            row.label,
            r.read_latency_us(),
            r.write_latency_us(),
            100.0 * r.ram_hit_rate(),
            100.0 * r.flash_hit_rate_of_all_reads(),
        );
    }
}

/// Summarizes a JSONL results file: schema check, row count, metrics
/// table. The strict decode means a corrupt or drifted file fails loudly
/// here rather than feeding silent garbage into a comparison.
fn cmd_report(args: &[String]) -> CmdResult {
    // Accept `fcsim report results.jsonl` or `--in results.jsonl`.
    let (path, rest): (Option<&str>, &[String]) = match args.first() {
        Some(first) if !first.starts_with("--") => (Some(first.as_str()), &args[1..]),
        _ => (None, args),
    };
    let flags = Flags::parse(rest, &["in"], &[])?;
    let path = path
        .or_else(|| flags.get("in"))
        .ok_or_else(|| ArgError("usage: fcsim report FILE".into()))?;
    let mut rows = read_rows(path)?;
    if rows.is_empty() {
        return Err(Box::new(ArgError(format!("{path}: no result rows"))));
    }
    rows.sort_by_key(|r| r.index);
    println!("# {path}: {} rows, schema {REPORT_SCHEMA}", rows.len());
    print_rows_table(&rows);
    let total_reads: u64 = rows.iter().map(|r| r.report.metrics.read_ops).sum();
    let total_writes: u64 = rows.iter().map(|r| r.report.metrics.write_ops).sum();
    let device_ops: u64 = rows.iter().map(|r| r.report.device.ops()).sum();
    println!("# totals: {total_reads} read ops, {total_writes} write ops across all rows");
    if device_ops > 0 {
        println!("# device: {device_ops} serviced ops (ssd timing rows present)");
    }
    let faulted = rows
        .iter()
        .filter(|r| r.report.robustness.engaged())
        .count();
    if faulted > 0 {
        let sum = |f: fn(&fcache::RobustnessStats) -> u64| -> u64 {
            rows.iter().map(|r| f(&r.report.robustness)).sum()
        };
        let degraded = SimTime::from_nanos(sum(|r| r.degraded_time.as_nanos()));
        println!(
            "# robustness: {faulted} faulted rows; {} retries, {} timeouts, {} failed / {} \
             queued ops, {} buffered writes, {degraded} degraded",
            sum(|r| r.retries),
            sum(|r| r.timeouts),
            sum(|r| r.failed_ops),
            sum(|r| r.queued_ops),
            sum(|r| r.buffered_writes),
        );
    }
    let sharded = rows.iter().filter(|r| r.report.shard.engaged()).count();
    if sharded > 0 {
        let sum = |f: fn(&fcache::RemoteStats) -> u64| -> u64 {
            rows.iter().map(|r| f(&r.report.shard.remote)).sum()
        };
        println!(
            "# shards: {sharded} sharded rows; {} failovers, {} hedges launched / {} won / {} \
             cancelled, {} blocks re-replicated",
            sum(|r| r.failovers),
            sum(|r| r.hedges_launched),
            sum(|r| r.hedges_won),
            sum(|r| r.hedges_cancelled),
            sum(|r| r.re_replicated_blocks),
        );
    }
    // Aggregate latency distribution across every row, merged bucket-wise
    // so the percentiles are those of the pooled sample population (the
    // same fold the fleet summary uses), not an average of per-row
    // percentiles.
    let merge = |f: fn(&fcache::MetricsSnapshot) -> &HistogramSnapshot| -> HistogramSnapshot {
        rows.iter().fold(HistogramSnapshot::default(), |acc, r| {
            acc.merged(f(&r.report.metrics))
        })
    };
    let (reads, writes) = (merge(|m| &m.read_hist), merge(|m| &m.write_hist));
    if reads.count() > 0 || writes.count() > 0 {
        let fmt = |h: HistogramSnapshot| {
            let (p50, p95, p99) = h.p50_p95_p99_us();
            format!("p50/p95/p99 {p50:.0}/{p95:.0}/{p99:.0} us")
        };
        println!(
            "# latency: read {} ({} ops), write {} ({} ops), pooled across {} rows",
            fmt(reads),
            reads.count(),
            fmt(writes),
            writes.count(),
            rows.len(),
        );
    }
    Ok(())
}

fn cmd_table1() -> CmdResult {
    print!("{}", SimConfig::baseline().timing_table());
    Ok(())
}

fn cmd_gen_trace(args: &[String]) -> CmdResult {
    let flags = Flags::parse(args, CFG_FLAGS, CFG_BOOLS)?;
    let out = flags
        .get("out")
        .ok_or_else(|| ArgError("--out FILE is required".into()))?;
    let scale = scale_from(&flags, 64)?;
    let spec = spec_from(&flags)?;
    let wb = Workbench::new(scale, flags.get_parsed("seed", 42u64)?);
    let trace = wb.make_trace(&spec);
    let mut w = BufWriter::new(File::create(out)?);
    trace.encode(&mut w)?;
    let s = trace.stats();
    eprintln!("wrote {} ops / {} blocks to {out}", s.ops, s.blocks);
    Ok(())
}

/// Analyzes a span stream written by `--trace-out`: per-phase latency
/// totals and per-op percentiles, the top N slowest ops with their phase
/// breakdown, and an optional Chrome trace-event export for
/// chrome://tracing / Perfetto.
fn cmd_trace(args: &[String]) -> CmdResult {
    // Accept `fcsim trace spans.jsonl` or `--in spans.jsonl`.
    let (path, rest): (Option<&str>, &[String]) = match args.first() {
        Some(first) if !first.starts_with("--") => (Some(first.as_str()), &args[1..]),
        _ => (None, args),
    };
    let flags = Flags::parse(rest, &["in", "top", "export-chrome"], &[])?;
    let path = path.or_else(|| flags.get("in")).ok_or_else(|| {
        ArgError("usage: fcsim trace FILE [--top N] [--export-chrome OUT]".into())
    })?;
    let top: usize = flags.get_parsed("top", 10usize)?;
    let rows = read_span_rows(std::path::Path::new(path))?;
    if rows.is_empty() {
        return Err(Box::new(ArgError(format!("{path}: no span rows"))));
    }
    let total_ns: u64 = rows.iter().map(SpanRow::latency_ns).sum();
    let hosts = {
        let mut hosts: Vec<u64> = rows.iter().map(|r| r.host).collect();
        hosts.sort_unstable();
        hosts.dedup();
        hosts.len()
    };
    println!(
        "# {path}: {} spans over {} host(s), {} total latency",
        rows.len(),
        hosts,
        SimTime::from_nanos(total_ns),
    );
    // Attribution is exact by construction (unattributed awaits accrue to
    // the last-entered phase): a violation means the file was edited or
    // came from a foreign writer.
    let violations = rows
        .iter()
        .filter(|r| r.phase_sum() != r.latency_ns())
        .count();
    if violations > 0 {
        println!("# WARNING: {violations} spans whose phase sum != latency");
    }
    println!(
        "{:<14} {:>12} {:>9} {:>7} {:>10} {:>10} {:>10}",
        "phase", "total", "ops", "share", "p50_us", "p95_us", "p99_us"
    );
    for p in Phase::ALL {
        let hist = LatencyHistogram::new();
        let mut total = 0u64;
        let mut ops = 0u64;
        for r in &rows {
            let ns = r.phases[p.index()];
            if ns > 0 {
                hist.record(SimTime::from_nanos(ns));
                total += ns;
                ops += 1;
            }
        }
        if ops == 0 {
            continue;
        }
        let (p50, p95, p99) = hist.snapshot().p50_p95_p99_us();
        println!(
            "{:<14} {:>12} {:>9} {:>6.1}% {:>10.1} {:>10.1} {:>10.1}",
            p.label(),
            SimTime::from_nanos(total).to_string(),
            ops,
            100.0 * total as f64 / total_ns.max(1) as f64,
            p50,
            p95,
            p99,
        );
    }
    let mut order: Vec<&SpanRow> = rows.iter().collect();
    order.sort_by_key(|r| std::cmp::Reverse((r.latency_ns(), r.op)));
    println!("# top {} slowest ops:", top.min(order.len()));
    for r in order.iter().take(top) {
        let mut breakdown = String::new();
        for p in Phase::ALL {
            let ns = r.phases[p.index()];
            if ns > 0 {
                if !breakdown.is_empty() {
                    breakdown.push_str(", ");
                }
                breakdown.push_str(p.label());
                breakdown.push(' ');
                breakdown.push_str(&SimTime::from_nanos(ns).to_string());
            }
        }
        println!(
            "  op {:>6} host {} {:<5} {:>4} blocks  {:>10}  ({breakdown})",
            r.op,
            r.host,
            r.kind_label(),
            r.blocks,
            SimTime::from_nanos(r.latency_ns()).to_string(),
        );
    }
    if let Some(out) = flags.get("export-chrome") {
        let mut text = String::new();
        chrome_trace(&rows).encode(&mut text);
        std::fs::write(out, text)?;
        eprintln!("# wrote Chrome trace-event JSON to {out} (chrome://tracing or ui.perfetto.dev)");
    }
    Ok(())
}

fn open_trace(flags: &Flags) -> Result<TraceReader<BufReader<File>>, Box<dyn Error>> {
    let path = flags
        .get("in")
        .ok_or_else(|| ArgError("--in FILE is required".into()))?;
    Ok(TraceReader::new(BufReader::new(File::open(path)?))?)
}

fn cmd_trace_stats(args: &[String]) -> CmdResult {
    let flags = Flags::parse(args, CFG_FLAGS, CFG_BOOLS)?;
    let path = flags
        .get("in")
        .ok_or_else(|| ArgError("--in FILE is required".into()))?;
    // Stream the file in bounded chunks: stats over an arbitrarily large
    // archive without ever materializing its ops.
    let t0 = std::time::Instant::now();
    let (_, s, peak) = stream_stats(BufReader::new(File::open(path)?))?;
    let wall = t0.elapsed().as_secs_f64();
    println!("ops                {}", s.ops);
    println!("blocks             {}", s.blocks);
    println!("bytes              {}", s.bytes);
    println!("write fraction     {:.1}%", 100.0 * s.write_fraction());
    println!(
        "warmup fraction    {:.1}% (by bytes)",
        100.0 * s.warmup_fraction()
    );
    println!("hosts              {}", s.max_host + 1);
    println!("threads/host       {}", s.max_thread + 1);
    println!("peak op buffer     {peak} bytes (streamed decode)");
    if wall > 0.0 {
        println!(
            "decode throughput  {:.0} ops/s ({:.1} ms wall)",
            s.ops as f64 / wall,
            wall * 1e3
        );
    }
    Ok(())
}

fn cmd_trace_dump(args: &[String]) -> CmdResult {
    let flags = Flags::parse(args, CFG_FLAGS, CFG_BOOLS)?;
    let mut reader = open_trace(&flags)?;
    let limit: usize = flags.get_parsed("limit", 20usize)?;
    let total = reader.remaining();
    let meta = reader.meta().clone();
    println!(
        "# {} ops; hosts={} threads/host={} ws={} write%={} seed={}",
        total, meta.hosts, meta.threads_per_host, meta.working_set_bytes, meta.write_pct, meta.seed
    );
    // Only the records to print are ever decoded.
    let mut head = Vec::new();
    reader.next_chunk(&mut head, limit)?;
    for op in &head {
        println!("{op}");
    }
    if total as usize > limit {
        println!("... ({} more)", total as usize - limit);
    }
    Ok(())
}

fn cmd_replay(args: &[String]) -> CmdResult {
    let flags = Flags::parse(args, CFG_FLAGS, CFG_BOOLS)?;
    let scale = scale_from(&flags, 64)?;
    let cfg = config_from(&flags)?.scaled_down(scale);
    let path = flags
        .get("in")
        .ok_or_else(|| ArgError("--in FILE is required".into()))?;
    // Surface a missing/unreadable/corrupt archive directly — validating
    // the FCTRACE1 header here keeps the replay fallback below for what
    // it is meant for (archives whose header understates their op ids).
    let total_ops = TraceReader::new(BufReader::new(
        File::open(path).map_err(|e| ArgError(format!("--in {path}: {e}")))?,
    ))
    .map_err(|e| ArgError(format!("--in {path}: {e}")))?
    .remaining();
    // A scenario over a file workload: the archive is memory-mapped and
    // replayed through per-slot cursors when the platform allows (falling
    // back to chunked buffered reads), so resident op memory is
    // O(TRACE_CHUNK_OPS), not O(trace) — paper-scale archives replay on
    // small machines.
    let t0 = std::time::Instant::now();
    let report = match Scenario::new(cfg.clone(), Workload::file(path)).run() {
        Ok(report) => report,
        Err(fcache::SimError::Source(fcache::SourceError::OutsideGrid(msg))) => {
            // Streamed replay sizes the host/thread grid from the file
            // header; an archive whose header understates its op ids (the
            // encoder never validated this) still replays the slow way,
            // where the grid is widened from the ops themselves.
            eprintln!("# streamed replay unavailable ({msg}); falling back to full decode");
            let mut r = BufReader::new(File::open(path)?);
            let trace = fcache_types::Trace::decode(&mut r)?;
            let scenario = Scenario::new(cfg, Workload::trace(&trace));
            scenario.run()?
        }
        Err(e) => return Err(e.into()),
    };
    let wall = t0.elapsed().as_secs_f64();
    print!("{report}");
    println!(
        "read latency       {:.1} us/block",
        report.read_latency_us()
    );
    println!(
        "write latency      {:.2} us/block",
        report.write_latency_us()
    );
    if wall > 0.0 {
        println!(
            "{}",
            throughput_line("replay", total_ops, wall, report.events)
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn help_and_table1_succeed() {
        assert!(dispatch(&argv(&["help"])).is_ok());
        assert!(dispatch(&argv(&["table1"])).is_ok());
        assert!(dispatch(&argv(&[])).is_ok());
    }

    #[test]
    fn throughput_line_reports_polls_per_op() {
        assert_eq!(
            throughput_line("replay", 4000, 0.5, 76_000),
            "replay throughput  8000 ops/s (4000 ops in 500.0 ms wall, 76000 polls, 19.00 polls/op)"
        );
        assert!(
            throughput_line("run", 4000, 0.5, 76_000).starts_with("run throughput     8000 ops/s")
        );
    }

    #[test]
    fn a_zero_scale_is_an_error_naming_the_flag() {
        for cmd in [
            &["run"][..],
            &["sweep"],
            &["fleet"],
            &["replay", "--in", "unread.bin"],
            &["gen-trace", "--out", "unwritten.bin"],
        ] {
            let mut args = argv(cmd);
            args.extend(argv(&["--scale", "0"]));
            let err = dispatch(&args).expect_err("--scale 0 accepted");
            assert!(err.to_string().contains("--scale"), "{cmd:?}: {err}");
        }
    }

    #[test]
    fn unknown_command_fails() {
        assert!(dispatch(&argv(&["frobnicate"])).is_err());
    }

    #[test]
    fn config_parsing_applies_flags() {
        let flags = Flags::parse(
            &argv(&[
                "--arch",
                "unified",
                "--ram",
                "1G",
                "--flash",
                "16G",
                "--ram-policy",
                "s",
                "--flash-policy",
                "p5",
                "--prefetch",
                "0.8",
                "--persistent",
            ]),
            CFG_FLAGS,
            CFG_BOOLS,
        )
        .unwrap();
        let cfg = config_from(&flags).unwrap();
        assert_eq!(cfg.arch, Architecture::Unified);
        assert_eq!(cfg.ram_size, ByteSize::gib(1));
        assert_eq!(cfg.flash_size, ByteSize::gib(16));
        assert_eq!(cfg.ram_policy, WritebackPolicy::WriteThrough);
        assert_eq!(cfg.flash_policy, WritebackPolicy::Periodic(5));
        assert!((cfg.filer.fast_read_rate - 0.8).abs() < 1e-9);
        assert!(cfg.flash_model.persistent);
    }

    #[test]
    fn flash_timing_flags_select_and_tune_the_ssd_model() {
        let flags = Flags::parse(
            &argv(&[
                "--flash-timing",
                "ssd",
                "--ssd-capacity",
                "1G",
                "--ssd-read-base",
                "60",
                "--ssd-write-base",
                "18.5",
            ]),
            CFG_FLAGS,
            CFG_BOOLS,
        )
        .unwrap();
        let cfg = config_from(&flags).unwrap();
        let FlashTiming::Ssd(sc) = cfg.flash_timing else {
            panic!("expected ssd timing, got {:?}", cfg.flash_timing);
        };
        assert_eq!(sc.capacity_blocks, (1u64 << 30) / 4096);
        assert_eq!(sc.read_base, SimTime::from_micros(60));
        assert_eq!(sc.write_base, SimTime::from_nanos(18_500));
        // The FTL locality parameters were fitted to the 1 GiB device
        // (262144 blocks → regions shrunk until ≥1024 of them exist).
        let fitted = SsdConfig::auto().fit_capacity((1u64 << 30) / 4096);
        assert_eq!(sc.region_shift, fitted.region_shift);
        assert_eq!(sc.map_cache_slots, fitted.map_cache_slots);
        assert!(
            sc.capacity_blocks >> sc.region_shift >= 1024,
            "explicitly sized device must keep enough regions for locality"
        );
        // Defaults: flat, with the auto-capacity sentinel when ssd is bare.
        let bare = Flags::parse(&argv(&[]), CFG_FLAGS, CFG_BOOLS).unwrap();
        assert_eq!(config_from(&bare).unwrap().flash_timing, FlashTiming::Flat);
        let auto = Flags::parse(&argv(&["--flash-timing", "ssd"]), CFG_FLAGS, CFG_BOOLS).unwrap();
        let FlashTiming::Ssd(sc) = config_from(&auto).unwrap().flash_timing else {
            panic!("expected ssd timing");
        };
        assert_eq!(sc.capacity_blocks, 0, "bare ssd keeps the auto sentinel");
    }

    #[test]
    fn flash_timing_flags_reject_bad_input() {
        for bad in [
            &["--flash-timing", "warp"][..],
            &["--ssd-capacity", "1G"][..], // override without ssd mode
            &["--flash-timing", "ssd", "--ssd-read-base", "-3"][..],
            &["--flash-timing", "ssd", "--ssd-read-base", "fast"][..],
            &["--flash-timing", "ssd", "--ssd-capacity", "1K"][..], // < 1 block
        ] {
            let flags = Flags::parse(&argv(bad), CFG_FLAGS, CFG_BOOLS).unwrap();
            assert!(config_from(&flags).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn end_to_end_ssd_run_and_sweep() {
        dispatch(&argv(&[
            "run",
            "--scale",
            "16384",
            "--ws",
            "16G",
            "--seed",
            "7",
            "--flash-timing",
            "ssd",
        ]))
        .unwrap();
        dispatch(&argv(&[
            "sweep",
            "--scale",
            "16384",
            "--ws",
            "16G",
            "--seed",
            "9",
            "--flash-list",
            "0,16G",
            "--flash-timing",
            "ssd",
            "--ssd-read-base",
            "40",
        ]))
        .unwrap();
    }

    #[test]
    fn fault_flags_parse_and_reject() {
        let flags = Flags::parse(
            &argv(&["--fault", "filer:outage@40s-60s", "--degraded", "failfast"]),
            CFG_FLAGS,
            CFG_BOOLS,
        )
        .unwrap();
        let cfg = config_from(&flags).unwrap();
        assert_eq!(cfg.fault_plan.clauses.len(), 1);
        assert_eq!(cfg.robustness.degraded, DegradedPolicy::FailFast);
        // The default is fault-free with the queueing policy.
        let bare = Flags::parse(&argv(&[]), CFG_FLAGS, CFG_BOOLS).unwrap();
        let cfg = config_from(&bare).unwrap();
        assert!(cfg.fault_plan.is_empty());
        assert_eq!(cfg.robustness.degraded, DegradedPolicy::Queue);
        for bad in [
            &["--fault", "filer:outage"][..],         // missing window
            &["--fault", "gremlin:outage@1s-2s"][..], // unknown target
            &["--fault", "filer:slowx0@1s-2s"][..],   // non-positive factor
            &["--degraded", "panic"][..],             // unknown policy
        ] {
            let flags = Flags::parse(&argv(bad), CFG_FLAGS, CFG_BOOLS).unwrap();
            assert!(config_from(&flags).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn shard_flags_parse_and_reject() {
        let flags = Flags::parse(
            &argv(&["--shards", "4", "--replicas", "2", "--hedge", "150"]),
            CFG_FLAGS,
            CFG_BOOLS,
        )
        .unwrap();
        let cfg = config_from(&flags).unwrap();
        assert_eq!(cfg.shards, 4);
        assert_eq!(cfg.replicas, 2);
        assert_eq!(cfg.hedge, Some(SimTime::from_micros(150)));
        assert!(cfg.remote_engaged());
        // Defaults: single shard, single replica, no hedge — disengaged.
        let bare = Flags::parse(&argv(&[]), CFG_FLAGS, CFG_BOOLS).unwrap();
        let cfg = config_from(&bare).unwrap();
        assert_eq!((cfg.shards, cfg.replicas, cfg.hedge), (1, 1, None));
        assert!(!cfg.remote_engaged());
        for bad in [
            &["--shards", "0"][..],                    // no shards at all
            &["--replicas", "2"][..],                  // replicas > shards
            &["--shards", "4", "--replicas", "0"][..], // no replicas
            &["--shards", "2", "--replicas", "3"][..], // replicas > shards
            &["--hedge", "100"][..],                   // hedge without replicas
            &["--shards", "2", "--replicas", "2", "--hedge", "-5"][..],
            &["--shards", "2", "--replicas", "2", "--hedge", "soon"][..],
            &["--fault", "shard9:outage@1s-2s", "--shards", "2"][..], // out of range
            &["--fault", "shard0:outage@1s-2s"][..], // shard clause, 1 shard... fine
        ] {
            let flags = Flags::parse(&argv(bad), CFG_FLAGS, CFG_BOOLS).unwrap();
            let cfg = config_from(&flags);
            // `shard0` against the default single shard is legal (it
            // targets the only shard); every other case is a flag error.
            if bad == ["--fault", "shard0:outage@1s-2s"] {
                assert!(cfg.is_ok(), "rejected {bad:?}: {cfg:?}");
            } else {
                assert!(cfg.is_err(), "accepted {bad:?}");
            }
        }
    }

    #[test]
    fn end_to_end_sharded_run_with_failover() {
        dispatch(&argv(&[
            "run",
            "--scale",
            "16384",
            "--ws",
            "16G",
            "--seed",
            "7",
            "--shards",
            "4",
            "--replicas",
            "2",
            "--hedge",
            "200",
            "--fault",
            "shard1:outage@40s-60s",
        ]))
        .unwrap();
    }

    #[test]
    fn strict_degraded_run_fails_naming_the_clause() {
        // Satellite: `--degraded strict` must fail the run (main maps the
        // Err to exit code 1) with the offending clause in the message.
        let err = dispatch(&argv(&[
            "run",
            "--scale",
            "16384",
            "--ws",
            "16G",
            "--seed",
            "7",
            "--shards",
            "2",
            "--fault",
            "shard0:outage@40s-60s",
            "--degraded",
            "strict",
        ]))
        .expect_err("strict policy must fail the run");
        let msg = err.to_string();
        assert!(msg.contains("shard0:outage"), "names the clause: {msg}");
        assert!(msg.contains("strict degraded policy"), "{msg}");
    }

    #[test]
    fn end_to_end_faulted_run() {
        dispatch(&argv(&[
            "run",
            "--scale",
            "16384",
            "--ws",
            "16G",
            "--seed",
            "7",
            "--fault",
            "filer:outage@40s-60s",
        ]))
        .unwrap();
    }

    #[test]
    fn spec_parsing_validates_ranges() {
        let ok = Flags::parse(
            &argv(&["--ws", "60G", "--write-pct", "50"]),
            CFG_FLAGS,
            CFG_BOOLS,
        )
        .unwrap();
        let spec = spec_from(&ok).unwrap();
        assert_eq!(spec.working_set, ByteSize::gib(60));
        assert!((spec.write_fraction - 0.5).abs() < 1e-9);

        let bad = Flags::parse(&argv(&["--write-pct", "120"]), CFG_FLAGS, CFG_BOOLS).unwrap();
        assert!(spec_from(&bad).is_err());
    }

    #[test]
    fn sweep_runs_parallel_and_serial() {
        for extra in [
            &["--serial"][..],
            &["--jobs", "2"][..],
            &["--threads", "2"][..],
            &["--streamed"][..],
            &["--streamed", "--threads", "2"][..],
        ] {
            let mut args = argv(&[
                "sweep",
                "--scale",
                "16384",
                "--ws",
                "16G",
                "--seed",
                "9",
                "--arch-list",
                "naive,unified",
                "--flash-list",
                "0,16G",
            ]);
            args.extend(argv(extra));
            dispatch(&args).unwrap();
        }
    }

    #[test]
    fn sweep_rejects_bad_lists() {
        assert!(dispatch(&argv(&["sweep", "--arch-list", "bogus"])).is_err());
        assert!(dispatch(&argv(&["sweep", "--flash-list", "1Q"])).is_err());
    }

    #[test]
    fn sweep_out_writes_rows_report_reads_them_and_resume_skips() {
        let path = std::env::temp_dir().join("fcsim_test_results.jsonl");
        let path_s = path.to_str().unwrap().to_string();
        let sweep_args = |extra: &[&str]| {
            let mut a = argv(&[
                "sweep",
                "--scale",
                "16384",
                "--ws",
                "16G",
                "--seed",
                "9",
                "--arch-list",
                "naive,unified",
                "--flash-list",
                "0,16G",
                "--out",
                &path_s,
            ]);
            a.extend(argv(extra));
            a
        };
        dispatch(&sweep_args(&[])).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 4, "one row per job:\n{text}");
        assert!(text.lines().all(|l| l.contains("\"schema\":1")));
        // Labels carry the workload identity, not just arch/flash.
        assert!(
            text.contains("\"label\":\"unified/16G ws=16G wr=30% seed=9\""),
            "{text}"
        );

        // The report subcommand decodes the file (both arg forms).
        dispatch(&argv(&["report", &path_s])).unwrap();
        dispatch(&argv(&["report", "--in", &path_s])).unwrap();

        // A complete file resumes to a no-op: the bytes are untouched.
        dispatch(&sweep_args(&["--resume"])).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);

        // Truncate to one complete row plus a torn half-row; resume
        // restores the full row set.
        let lines: Vec<&str> = text.lines().collect();
        std::fs::write(
            &path,
            format!("{}\n{}", lines[0], &lines[1][..lines[1].len() / 2]),
        )
        .unwrap();
        dispatch(&sweep_args(&["--resume"])).unwrap();
        let resumed = std::fs::read_to_string(&path).unwrap();
        let mut want: Vec<&str> = text.lines().collect();
        let mut got: Vec<&str> = resumed.lines().collect();
        want.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, want, "resumed row set must match the full run");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sweep_resume_requires_out() {
        assert!(dispatch(&argv(&["sweep", "--resume"])).is_err());
    }

    #[test]
    fn fleet_out_merges_cells_and_worker_parts_reproduce_it() {
        let dir = std::env::temp_dir();
        let single = dir.join("fcsim_test_fleet_single.jsonl");
        let multi = dir.join("fcsim_test_fleet_multi.jsonl");
        let single_s = single.to_str().unwrap().to_string();
        let multi_s = multi.to_str().unwrap().to_string();
        let fleet_args = |extra: &[&str]| {
            let mut a = argv(&[
                "fleet",
                "--scale",
                "16384",
                "--ws",
                "16G",
                "--seed",
                "9",
                "--hosts",
                "12",
                "--cell-hosts",
                "4",
                "--fanin",
                "2",
            ]);
            a.extend(argv(extra));
            a
        };

        // One process, durable output: one row per cell, merged in cell
        // order through the same part-file path multi-process runs use.
        dispatch(&fleet_args(&["--out", &single_s])).unwrap();
        let text = std::fs::read_to_string(&single).unwrap();
        assert_eq!(text.lines().count(), 3, "one row per cell:\n{text}");
        assert!(text.lines().all(|l| l.contains("\"schema\":1")));
        assert!(text.contains("\"label\":\"cell 0/3 hosts 0..4\""), "{text}");
        assert!(text.contains("\"fleet_cells\":3"), "{text}");

        // The report subcommand reads fleet rows like any results file
        // (and now carries the pooled `# latency:` aggregate).
        dispatch(&argv(&["report", &single_s])).unwrap();

        // A complete fleet resumes to a no-op: the bytes are untouched.
        dispatch(&fleet_args(&["--out", &single_s, "--resume"])).unwrap();
        assert_eq!(std::fs::read_to_string(&single).unwrap(), text);

        // Worker mode (run in-process here; the coordinator spawns these
        // as child processes): two workers split the cells, and merging
        // their parts yields the byte-identical single-process file.
        dispatch(&fleet_args(&[
            "--out", &multi_s, "--procs", "2", "--worker", "0",
        ]))
        .unwrap();
        dispatch(&fleet_args(&[
            "--out", &multi_s, "--procs", "2", "--worker", "1",
        ]))
        .unwrap();
        let base = SimConfig {
            seed: 9,
            ..SimConfig::baseline()
        };
        let fleet = fcache_fleet::Fleet::new(
            base,
            fcache_fleet::FleetSpec {
                hosts: 12,
                cell_hosts: 4,
                hosts_per_segment: 2,
                workload: WorkloadSpec {
                    working_set: ByteSize::gib(16),
                    seed: 9,
                    ..WorkloadSpec::default()
                },
                scale: 16384,
            },
        );
        let rows = fleet.merge_parts(&multi, 2).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(
            std::fs::read_to_string(&multi).unwrap(),
            text,
            "2-process merged file must be byte-identical to the 1-process file"
        );
        for p in [&single, &multi] {
            let _ = std::fs::remove_file(p);
        }
        for k in 0..2 {
            let _ = std::fs::remove_file(worker_part_path(&single, k));
            let _ = std::fs::remove_file(worker_part_path(&multi, k));
        }
    }

    #[test]
    fn fleet_rejects_bad_flags() {
        for bad in [
            &["fleet", "--procs", "0"][..],
            &["fleet", "--fanin", "0"][..],
            &["fleet", "--cell-hosts", "0"][..],
            &["fleet", "--hosts", "0"][..],
            &["fleet", "--resume"][..],
            &["fleet", "--procs", "2"][..], // multi-process needs --out
            &["fleet", "--worker", "0"][..], // worker needs --out
            &["fleet", "--worker", "2", "--procs", "2", "--out", "x"][..],
        ] {
            assert!(dispatch(&argv(bad)).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn sweep_resume_refuses_a_file_from_different_flags() {
        let path = std::env::temp_dir().join("fcsim_test_resume_mismatch.jsonl");
        let path_s = path.to_str().unwrap().to_string();
        let run = |extra: &[&str]| {
            let mut a = argv(&[
                "sweep",
                "--scale",
                "16384",
                "--arch-list",
                "naive",
                "--flash-list",
                "16G",
                "--out",
                &path_s,
            ]);
            a.extend(argv(extra));
            dispatch(&a)
        };
        run(&["--ws", "16G", "--seed", "9"]).unwrap();
        // Different workload (ws or seed): the file's rows are not part
        // of this sweep — stale results must not satisfy a new query.
        let err = run(&["--ws", "24G", "--seed", "9", "--resume"]).unwrap_err();
        assert!(err.to_string().contains("not part of this sweep"), "{err}");
        let err = run(&["--ws", "16G", "--seed", "8", "--resume"]).unwrap_err();
        assert!(err.to_string().contains("not part of this sweep"), "{err}");
        // Same labels but a different configuration knob (--ram): caught
        // by the serialized-config cross-check.
        let err = run(&["--ws", "16G", "--seed", "9", "--ram", "1G", "--resume"]).unwrap_err();
        assert!(err.to_string().contains("different configuration"), "{err}");
        // Identical flags still resume cleanly (no-op on a complete file).
        let before = std::fs::read_to_string(&path).unwrap();
        run(&["--ws", "16G", "--seed", "9", "--resume"]).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), before);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn report_rejects_missing_and_corrupt_files() {
        assert!(dispatch(&argv(&["report"])).is_err());
        assert!(dispatch(&argv(&["report", "/nonexistent/rows.jsonl"])).is_err());
        let path = std::env::temp_dir().join("fcsim_test_corrupt.jsonl");
        std::fs::write(&path, "not json\n").unwrap();
        assert!(dispatch(&argv(&["report", path.to_str().unwrap()])).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn end_to_end_tiny_run() {
        // A very small scale keeps this test fast.
        dispatch(&argv(&[
            "run", "--scale", "16384", "--ws", "16G", "--seed", "7",
        ]))
        .unwrap();
    }

    #[test]
    fn trace_file_roundtrip() {
        let dir = std::env::temp_dir();
        let path = dir.join("fcsim_test_trace.bin");
        let path_s = path.to_str().unwrap();
        dispatch(&argv(&[
            "gen-trace",
            "--out",
            path_s,
            "--scale",
            "16384",
            "--ws",
            "16G",
            "--seed",
            "3",
        ]))
        .unwrap();
        dispatch(&argv(&["trace-stats", "--in", path_s])).unwrap();
        dispatch(&argv(&["trace-dump", "--in", path_s, "--limit", "5"])).unwrap();
        dispatch(&argv(&["replay", "--in", path_s, "--scale", "16384"])).unwrap();
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn span_stream_roundtrip_through_trace_analyzer() {
        // run --trace-out writes a span stream; `fcsim trace` analyzes it
        // and --export-chrome re-encodes it for chrome://tracing.
        let dir = std::env::temp_dir();
        let spans = dir.join("fcsim_test_spans.jsonl");
        let chrome = dir.join("fcsim_test_spans_chrome.json");
        let spans_s = spans.to_str().unwrap();
        dispatch(&argv(&[
            "run",
            "--scale",
            "16384",
            "--ws",
            "16G",
            "--seed",
            "7",
            "--windows",
            "10s",
            "--trace-out",
            spans_s,
        ]))
        .unwrap();
        let rows = read_span_rows(&spans).unwrap();
        assert!(!rows.is_empty(), "the run must have produced spans");
        assert!(
            rows.iter().all(|r| r.phase_sum() == r.latency_ns()),
            "phase attribution must be exact"
        );
        dispatch(&argv(&["trace", spans_s, "--top", "3"])).unwrap();
        dispatch(&argv(&[
            "trace",
            "--in",
            spans_s,
            "--export-chrome",
            chrome.to_str().unwrap(),
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&chrome).unwrap();
        assert!(text.starts_with("{\"traceEvents\":["), "{text}");
        // Bad inputs: no file, missing file, not a span stream.
        assert!(dispatch(&argv(&["trace"])).is_err());
        assert!(dispatch(&argv(&["trace", "/nonexistent/spans.jsonl"])).is_err());
        let corrupt = dir.join("fcsim_test_spans_corrupt.jsonl");
        std::fs::write(&corrupt, "not json\n").unwrap();
        assert!(dispatch(&argv(&["trace", corrupt.to_str().unwrap()])).is_err());
        for p in [&spans, &chrome, &corrupt] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn replay_accepts_archive_with_understated_meta() {
        // Older builds could write headers whose host/thread counts
        // understate the op ids; replay must fall back to the widening
        // full-decode path instead of rejecting the archive.
        use fcache_types::{FileId, HostId, OpKind, ThreadId, Trace, TraceMeta, TraceOp};
        let mut trace = Trace::new(TraceMeta {
            hosts: 1, // lies: ops below use host 1 (= 2 hosts)
            threads_per_host: 1,
            ..TraceMeta::default()
        });
        for host in 0..2u16 {
            trace.ops.push(TraceOp::new(
                HostId(host),
                ThreadId(0),
                OpKind::Read,
                FileId(1),
                0,
                4,
                false,
            ));
        }
        let path = std::env::temp_dir().join("fcsim_test_lying_meta.bin");
        let mut w = BufWriter::new(File::create(&path).unwrap());
        trace.encode(&mut w).unwrap();
        drop(w);
        dispatch(&argv(&[
            "replay",
            "--in",
            path.to_str().unwrap(),
            "--scale",
            "16384",
        ]))
        .unwrap();
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn replay_fails_at_once_on_a_corrupt_record() {
        // Only an understated grid falls back to a full decode. A corrupt
        // record fails the streamed run itself: the error is the run's
        // `SimError`, not the full decode's `io::Error`.
        use fcache::{SimError, SourceError};
        use fcache_types::{FileId, HostId, OpKind, ThreadId, Trace, TraceMeta, TraceOp};
        let mut trace = Trace::new(TraceMeta {
            hosts: 1,
            threads_per_host: 1,
            ..TraceMeta::default()
        });
        for block in 0..6 {
            trace.ops.push(TraceOp::new(
                HostId(0),
                ThreadId(0),
                OpKind::Read,
                FileId(1),
                block * 4,
                4,
                false,
            ));
        }
        let mut bytes = Vec::new();
        trace.encode(&mut bytes).unwrap();
        // Zero the block count, the last 4 bytes of each 20-byte record,
        // of the fourth of six records.
        let end = bytes.len() - 2 * 20;
        bytes[end - 4..end].fill(0);
        let path = std::env::temp_dir().join("fcsim_test_corrupt_record.bin");
        std::fs::write(&path, &bytes).unwrap();
        let err = dispatch(&argv(&[
            "replay",
            "--in",
            path.to_str().unwrap(),
            "--scale",
            "16384",
        ]))
        .unwrap_err();
        let _ = std::fs::remove_file(path);
        assert!(
            matches!(
                err.downcast_ref::<SimError>(),
                Some(SimError::Source(SourceError::Unreadable(_)))
            ),
            "{err:?}"
        );
    }
}
