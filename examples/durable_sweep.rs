//! Durable, resumable sweeps: the structured results pipeline end to end.
//!
//! Runs a 12-job config × workload grid twice:
//!
//! 1. straight through, streaming every finished job to a JSONL results
//!    file (one schema-versioned row per line, flushed per row);
//! 2. simulating a crash — the file is truncated to a few complete rows
//!    plus a torn half-line — and resumed: finished jobs are skipped,
//!    the torn tail is dropped, and only the missing jobs run.
//!
//! The resumed file's row set is identical to the uninterrupted run's.
//! Inspect either with `fcsim report <file>`.
//!
//! Run with: `cargo run --release --example durable_sweep`

use fcache::{read_rows, JsonlSink, SimConfig, Sweep, Workbench, WorkloadSpec};
use fcache_types::ByteSize;

/// The 4-config × 3-workload grid both passes run: one labeled scenario
/// per cell, `<config>/<workload>`, config-major.
fn grid<'a>(wb: &'a Workbench, specs: &[WorkloadSpec]) -> Sweep<'a> {
    let mut sweep = Sweep::new();
    for (label, flash) in [
        ("noflash", ByteSize::ZERO),
        ("8G", ByteSize::gib(8)),
        ("16G", ByteSize::gib(16)),
        ("32G", ByteSize::gib(32)),
    ] {
        let cfg = SimConfig {
            flash_size: flash,
            ..SimConfig::baseline()
        };
        for spec in specs {
            let job = format!("{label}/{}", spec.label());
            sweep = sweep.scenario(job, wb.scenario(&cfg, spec));
        }
    }
    sweep
}

fn main() {
    let scale = 16384; // tiny scale so the example runs in seconds
    let wb = Workbench::new(scale, 42);
    let path = std::env::temp_dir().join("durable_sweep_results.jsonl");

    let specs: Vec<WorkloadSpec> = [0.1f64, 0.3, 0.5]
        .into_iter()
        .map(|wf| WorkloadSpec {
            working_set: ByteSize::gib(16),
            write_fraction: wf,
            seed: 7 + (wf * 10.0) as u64,
            ..WorkloadSpec::default()
        })
        .collect();

    // Pass 1: the uninterrupted run.
    let mut sink = JsonlSink::create(&path).expect("create results file");
    let results = grid(&wb, &specs).run(&mut sink);
    assert!(results.first_error().is_none() && results.sink_error().is_none());
    drop(sink);
    let full = std::fs::read_to_string(&path).expect("read");
    println!(
        "full run: {} jobs -> {} rows in {}",
        results.len(),
        full.lines().count(),
        path.display()
    );

    // Simulate a kill: keep 4 complete rows and half of the fifth line.
    let lines: Vec<&str> = full.lines().collect();
    let torn = lines[4];
    let partial = lines[..4]
        .iter()
        .map(|l| format!("{l}\n"))
        .collect::<String>()
        + &torn[..torn.len() / 2];
    std::fs::write(&path, partial).expect("truncate");
    println!("simulated crash: 4 complete rows + a torn fifth line");

    // Pass 2: resume. JsonlSink::resume drops the torn tail, appends, and
    // returns the rows already present; Sweep::resume checks each is one
    // of this grid's jobs and skips it.
    let (mut sink, seen) = JsonlSink::resume(&path).expect("resume results file");
    let results = grid(&wb, &specs)
        .resume(&path, &seen)
        .expect("rows belong to this grid")
        .run(&mut sink);
    assert!(results.first_error().is_none() && results.sink_error().is_none());
    drop(sink);
    println!(
        "resumed: {} rows kept, {} jobs skipped, {} run",
        seen.len(),
        results.skipped(),
        results.len() - results.skipped()
    );

    // The row *set* matches the uninterrupted run exactly (order differs:
    // surviving rows keep their place, new rows append in completion
    // order).
    let resumed = std::fs::read_to_string(&path).expect("read");
    let mut a: Vec<&str> = full.lines().collect();
    let mut b: Vec<&str> = resumed.lines().collect();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b, "resumed row set must match the uninterrupted run");
    println!("row sets identical ✓");

    // Rows decode back to exact reports — print the grid from the file.
    let mut rows = read_rows(&path).expect("decode");
    rows.sort_by_key(|r| r.index);
    println!("\n{:>22}  {:>9}  {:>7}", "label", "read_us", "flash%");
    for row in &rows {
        println!(
            "{:>22}  {:>9.1}  {:>7.1}",
            row.label,
            row.report.read_latency_us(),
            100.0 * row.report.flash_hit_rate_of_all_reads()
        );
    }
    let _ = std::fs::remove_file(&path);
}
