//! The two kinds of benchmark run: the untraced run that measures the
//! end-to-end metrics, and the traced run that measures the per-layer
//! metrics.

use std::path::Path;
use std::time::{Duration, Instant};

use crate::alloc;
use crate::checks::{self, Tally};
use crate::layers;
use crate::metrics::Values;
use crate::spans::Spans;
use crate::workload::{Bench, Kind, Run, Sizing};

/// The untraced run sets up at least `MIN_SETUPS` times and for at least
/// `SETUP_TIME`; `setup_s` is the median. Set-ups take milliseconds, so
/// many of them make the median steady.
const MIN_SETUPS: usize = 7;
const SETUP_TIME: Duration = Duration::from_secs(1);

/// Fewest measured runs, however long each takes.
const MIN_RUNS: usize = 3;

/// What a benchmark run found.
#[derive(Default)]
pub struct Outcome {
    pub tally: Tally,
    pub values: Values,
    /// `report_digest` of the first measured run.
    pub digest: u64,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.attempted > 0
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Runs the workload once and checks every job. Problems with the run as
/// a whole — what `whole` finds, and for the fleet the merged-rows checks
/// — fail every job of the run.
fn run_checked(
    bench: &Bench,
    traced: bool,
    spans: &Spans,
    label: &str,
    tally: &mut Tally,
    whole: impl FnOnce(&Run) -> Vec<String>,
) -> Option<Run> {
    let run = match bench.run(traced, spans) {
        Ok(run) => run,
        Err(e) => {
            tally.broken(label, bench.expect.len() as u64, e);
            return None;
        }
    };
    let mut whole = whole(&run);
    if bench.kind == Kind::Fleet1kShardOutage {
        whole.extend(checks::check_fleet(
            &run.reports,
            bench.expect.len(),
            bench.sizing.fleet_hosts,
        ));
    }
    for (i, (report, expect)) in run.reports.iter().zip(&bench.expect).enumerate() {
        let mut problems = checks::check_job(report, expect);
        problems.extend(whole.iter().cloned());
        tally.job(&format!("{label} job {i}"), problems);
    }
    Some(run)
}

/// The untraced run: sets up repeatedly, then replays the workload for
/// `seconds` of host time (at least `MIN_RUNS` times). `sim_ops_per_s` is
/// the ops of all replays over their summed wall time: host speed on a
/// shared machine drifts over seconds, and the whole window averages that
/// drift better than a median of replays. `setup_s` and `allocs_per_op`
/// are medians.
pub fn measure(kind: Kind, sizing: Sizing, seed: u64, seconds: f64, work: &Path) -> Outcome {
    let spans = Spans::new(false, kind.name(), seed);
    let mut out = Outcome::default();

    let mut setups = Vec::new();
    let mut bench = None;
    let t0 = Instant::now();
    while setups.len() < MIN_SETUPS || t0.elapsed() < SETUP_TIME {
        // Drop the previous set-up first, so memory holds one at a time.
        drop(bench.take());
        match Bench::setup(kind, sizing, seed, work, &spans) {
            Ok(b) => {
                setups.push(b.times.total.as_secs_f64());
                bench = Some(b);
            }
            Err(e) => {
                out.tally.broken("setup", 1, e.to_string());
                return out;
            }
        }
    }
    let bench = bench.expect("at least one set-up ran");
    let ops = bench.total_ops() as f64;

    // Every run must repeat the first one's digest and poll count exactly.
    let mut walls = Vec::new();
    let mut allocs = Vec::new();
    let mut first: Option<(u64, u64)> = None;
    let t0 = Instant::now();
    while walls.len() < MIN_RUNS || t0.elapsed().as_secs_f64() < seconds {
        let label = format!("run {}", walls.len());
        let repeat = |run: &Run| {
            let seen = (checks::digest(&run.reports), run.events());
            if *first.get_or_insert(seen) == seen {
                Vec::new()
            } else {
                vec!["report digest or events differ from run 0".to_string()]
            }
        };
        let Some(run) = run_checked(&bench, false, &spans, &label, &mut out.tally, repeat) else {
            break;
        };
        walls.push(run.wall.as_secs_f64());
        allocs.push(run.allocs as f64 / ops);
    }
    let (digest, events) = first.unwrap_or_default();

    // The mapped-archive replay must equal replaying the resident trace.
    if let (Kind::BaselineReplay, Some(trace)) = (kind, &bench.trace) {
        let scenario =
            fcache::Scenario::new(bench.scaled_config(false), fcache::Workload::trace(trace));
        match scenario.run() {
            Ok(r) => {
                let mut problems = checks::check_job(&r, &bench.expect[0]);
                if checks::digest(std::slice::from_ref(&r)) != digest || r.events != events {
                    problems.push("Workload::trace replay differs from the mapped archive".into());
                }
                out.tally.job("trace replay", problems);
            }
            Err(e) => out.tally.broken("trace replay", 1, e.to_string()),
        }
    }

    out.digest = digest;
    let v = &mut out.values;
    v.set("setup_s", median(setups));
    v.set(
        "sim_ops_per_s",
        ops * walls.len() as f64 / walls.iter().sum::<f64>(),
    );
    v.set("peak_rss_mib", alloc::peak_rss_mib().unwrap_or(0.0));
    v.set("events_per_op", events as f64 / ops);
    v.set("allocs_per_op", median(allocs));
    out
}

/// The traced run: sets up once and runs the workload untraced and with
/// engine telemetry on, twice each, interleaved, with a span around every
/// call into a layer; then drives layers in isolation. Spans go to
/// `spans_out` when the run ends.
pub fn trace(kind: Kind, sizing: Sizing, seed: u64, work: &Path, spans_out: &Path) -> Outcome {
    let spans = Spans::new(true, kind.name(), seed);
    let mut out = Outcome::default();
    let bench = match Bench::setup(kind, sizing, seed, work, &spans) {
        Ok(b) => b,
        Err(e) => {
            out.tally.broken("setup", 1, e.to_string());
            return out;
        }
    };

    let mut plain: Vec<Run> = Vec::new();
    let mut traced: Vec<Run> = Vec::new();
    for round in 0..2 {
        for on in [false, true] {
            let label = format!("{} run {round}", if on { "traced" } else { "untraced" });
            let no_extra = |_: &Run| Vec::new();
            if let Some(run) = run_checked(&bench, on, &spans, &label, &mut out.tally, no_extra) {
                if on { &mut traced } else { &mut plain }.push(run);
            }
        }
    }
    let (Some(untraced), Some(with_telemetry)) = (plain.first(), traced.first()) else {
        return out;
    };
    for (i, (t, u)) in with_telemetry
        .reports
        .iter()
        .zip(&untraced.reports)
        .enumerate()
    {
        out.tally.job(
            &format!("traced vs untraced job {i}"),
            checks::check_traced(t, u),
        );
    }

    let best = |runs: &[Run]| runs.iter().map(|r| r.wall).min().unwrap_or(Duration::ZERO);
    let (wall_plain, wall_traced) = (best(&plain), best(&traced));
    let events = untraced.events();
    out.digest = checks::digest(&untraced.reports);

    let v = &mut out.values;
    v.set("fsmodel.build_s", bench.times.model.as_secs_f64());
    v.set(
        "des.host_ns_per_event",
        wall_plain.as_secs_f64() * 1e9 / events.max(1) as f64,
    );
    v.set("core.run_s", wall_plain.as_secs_f64());
    v.set(
        "telemetry.overhead_frac",
        wall_traced.as_secs_f64() / wall_plain.as_secs_f64() - 1.0,
    );
    v.set("fleet.run_worker_s", untraced.run_worker.as_secs_f64());
    v.set("fleet.merge_s", untraced.merge.as_secs_f64());
    layers::from_reports(v, &untraced.reports);
    layers::telemetry(v, &with_telemetry.reports);
    layers::results(v, &spans, &untraced.reports);

    // Isolated layer drives over one job's trace.
    let trace = bench.probe_trace();
    let cfg = bench.probe_config();
    layers::generate(v, &spans, &bench);
    let archive = work.join("probe.fctrace");
    layers::encode(v, &spans, &trace, &archive);
    let map = std::fs::File::open(&archive)
        .and_then(|f| fcache_mmap::Mmap::map(&f))
        .expect("the probe archive maps");
    layers::feed(v, &spans, &map);
    layers::cache(v, &spans, &trace, &cfg);
    layers::devsvc(v, &spans, &trace, &cfg);

    v.set(
        "bench.failed_job_frac",
        out.tally.failed as f64 / out.tally.attempted.max(1) as f64,
    );
    if let Err(e) = spans.write_jsonl(spans_out) {
        eprintln!("could not write spans to {}: {e}", spans_out.display());
    }
    out
}
