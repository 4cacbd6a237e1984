//! The simulator's benchmark: end-to-end and per-layer metrics for three
//! workloads, each run in its own process.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--work-dir DIR]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace
//! 1` is the separate traced run that measures the per-layer metrics and
//! writes its spans to `DIR/spans-<workload>-seed<n>.jsonl`. Either run
//! checks the simulated output, prints `report_digest`, and ends with one
//! JSON result line. The exit code is 0 only when every check passed.

mod alloc;
mod bench;
mod checks;
mod layers;
mod metrics;
mod spans;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use workload::Kind;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work_dir = PathBuf::from(".bench_build/perfbench");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                kind = Some(Kind::parse(name).ok_or_else(|| {
                    let names: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
                    format!("unknown workload {name:?}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                })
            }
            "--work-dir" => work_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        work_dir,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let name = args.kind.name();
    let scratch = args.work_dir.join(format!("{name}-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    let sizing = args.kind.sizing();
    let (outcome, registry) = if args.trace {
        let spans_out = args
            .work_dir
            .join(format!("spans-{name}-seed{}.jsonl", args.seed));
        let o = bench::trace(args.kind, sizing, args.seed, &scratch, &spans_out);
        (o, metrics::PER_LAYER)
    } else {
        let o = bench::measure(args.kind, sizing, args.seed, args.seconds, &scratch);
        (o, metrics::END_TO_END)
    };
    if let Err(e) = std::fs::remove_dir_all(&scratch) {
        eprintln!("perfbench: cannot remove {}: {e}", scratch.display());
    }

    for e in &outcome.tally.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let missing: Vec<_> = registry
        .iter()
        .filter(|s| !outcome.values.get(s.name).is_some_and(f64::is_finite))
        .map(|s| s.name)
        .collect();
    if !missing.is_empty() {
        eprintln!("perfbench: no value for {}", missing.join(", "));
    }
    let correct = outcome.correct() && missing.is_empty();
    println!(
        "report_digest {name} seed={} {:016x}",
        args.seed, outcome.digest
    );
    println!(
        "{}",
        metrics::result_line(
            correct,
            outcome.tally.attempted.max(1),
            outcome.tally.failed,
            registry,
            &outcome.values
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("perfbench-test-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    /// Every named metric is emitted, finite, for every workload, and the
    /// checks pass on small inputs.
    #[test]
    fn every_metric_is_emitted_for_every_workload() {
        for kind in Kind::ALL {
            let dir = scratch(kind.name());
            let sizing = kind.test_sizing();
            let untraced = bench::measure(kind, sizing, 5, 0.0, &dir);
            let traced = bench::trace(kind, sizing, 5, &dir, &dir.join("spans.jsonl"));
            for (outcome, registry) in [(&untraced, END_TO_END), (&traced, PER_LAYER)] {
                assert!(
                    outcome.correct(),
                    "{}: {:?}",
                    kind.name(),
                    outcome.tally.errors
                );
                for s in registry {
                    let v = outcome.values.get(s.name);
                    assert!(
                        v.is_some_and(f64::is_finite),
                        "{}: {} = {v:?}",
                        kind.name(),
                        s.name
                    );
                }
            }
            let spans = std::fs::read_to_string(dir.join("spans.jsonl")).expect("spans written");
            assert!(spans.contains("\"parent\":"), "{spans}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// `events_per_op` and `report_digest` repeat exactly across two
    /// in-process runs of one workload and seed, and move with the seed.
    #[test]
    fn events_and_digest_repeat_across_runs() {
        let kind = Kind::Hosts32SsdWrites;
        let dir = scratch("repeat");
        let run = |seed| bench::measure(kind, kind.test_sizing(), seed, 0.0, &dir);
        let (a, b, c) = (run(9), run(9), run(10));
        assert!(a.correct() && b.correct(), "{:?}", a.tally.errors);
        assert_eq!(a.digest, b.digest);
        let polls = |o: &bench::Outcome| o.values.get("events_per_op").map(f64::to_bits);
        assert!(polls(&a).is_some());
        assert_eq!(polls(&a), polls(&b));
        assert_ne!(a.digest, c.digest);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `BENCHMARK.json` at the repository root declares exactly the
    /// metrics and workloads this binary emits.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let json = fcache_types::Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            json.get(key)
                .and_then(|v| v.as_arr())
                .expect(key)
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(|n| n.as_str())
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        let registry =
            |r: &[metrics::Spec]| -> Vec<String> { r.iter().map(|s| s.name.to_string()).collect() };
        assert_eq!(names("end_to_end"), registry(END_TO_END));
        assert_eq!(names("per_layer"), registry(PER_LAYER));
        let workloads: Vec<String> = Kind::ALL.iter().map(|k| k.name().to_string()).collect();
        assert_eq!(names("workloads"), workloads);
        for key in ["end_to_end", "per_layer"] {
            for m in json.get(key).and_then(|v| v.as_arr()).expect(key) {
                let name = m.get("name").and_then(|n| n.as_str()).expect("name");
                let spec = END_TO_END
                    .iter()
                    .chain(PER_LAYER)
                    .find(|s| s.name == name)
                    .expect("declared");
                assert_eq!(
                    m.get("unit").and_then(|u| u.as_str()),
                    Some(spec.unit),
                    "{name}"
                );
                assert_eq!(
                    m.get("better").and_then(|u| u.as_str()),
                    Some(spec.better.label()),
                    "{name}"
                );
            }
        }
    }

    #[test]
    fn args_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload baseline-replay --seed 3 --seconds 2 --trace 1",
        ))
        .expect("valid");
        assert_eq!((a.kind, a.seed, a.trace), (Kind::BaselineReplay, 3, true));
        for bad in [
            "--workload nope --seed 3 --seconds 2 --trace 0",
            "--workload baseline-replay --seconds 2 --trace 0",
            "--workload baseline-replay --seed 3 --seconds 2 --trace 2",
            "--workload baseline-replay --seed 3 --seconds -1 --trace 0",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
