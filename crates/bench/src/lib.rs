//! Shared harness for the paper-figure benchmarks.
//!
//! Every table and figure in the paper's evaluation (§7) has a bench
//! target in `benches/` that regenerates it: a workload sweep, the
//! configurations under comparison, and a printed table with the same rows
//! or series the paper reports. Each bench also writes a gnuplot-ready
//! `.dat` file under `target/paper-figures/`.
//!
//! Scale: benches default to a per-figure scale factor chosen so the whole
//! suite finishes in minutes; set `FCACHE_SCALE` to override (e.g.
//! `FCACHE_SCALE=64 cargo bench --bench fig4_flash_vs_none`, or `1` for
//! paper scale if you have the time and memory). See DESIGN.md §4 for why
//! linear scaling preserves curve shapes.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

pub use fcache::{
    read_rows, run_source, run_trace, sink_fn, Architecture, DecodedRow, FlashTiming, JsonlSink,
    MemorySink, ResultRow, ResultSink, Scenario, SimConfig, SimReport, Sweep, SweepResults,
    TeeSink, Workbench, Workload, WorkloadSpec, WritebackPolicy, REPORT_SCHEMA,
};
pub use fcache_types::{ByteSize, Json, Trace, TraceReader, TraceSource};

/// Runs a set of paper-scale configurations against one trace through the
/// [`Sweep`] fan-out, unwrapping each report.
///
/// This is the figure harnesses' inner loop: every figure compares several
/// configurations over the same workload, and the configurations are
/// independent — exactly the shape a `Sweep` fans out. Results come back
/// in `cfgs` order and are bit-identical to serial runs of each configuration.
///
/// # Panics
///
/// Panics if any simulation fails, naming the failing configuration's
/// sweep label (a figure cannot be produced from a partial sweep).
pub fn run_configs(wb: &Workbench, cfgs: &[SimConfig], trace: &Trace) -> Vec<SimReport> {
    wb.sweep(cfgs, Workload::trace(trace))
        .run()
        .expect_reports("figure sweep")
}

/// The sink plumbing shared by the figure harnesses: streams every
/// finished job's row to `<name>.jsonl` under [`figures_dir`] (durable,
/// schema-versioned, flushed per row) while extracting the two scalars the
/// figures plot — `(read_latency_us, write_latency_us)` — into a
/// job-indexed slot table. No report vector is ever materialized.
///
/// Sweep sink deliveries are serialized, so no lock is needed around the
/// slots.
pub struct FigSink {
    jsonl: JsonlSink,
    slots: Vec<Option<(f64, f64)>>,
}

impl FigSink {
    /// Creates the sink for a figure with `jobs` sweep jobs, writing
    /// `<name>.jsonl` under the figures directory.
    ///
    /// # Panics
    ///
    /// Panics if the results file cannot be created (a figure without its
    /// durable rows is not worth running).
    pub fn new(name: &str, jobs: usize) -> Self {
        let path = figures_dir().join(format!("{name}.jsonl"));
        Self {
            jsonl: JsonlSink::create(&path)
                .unwrap_or_else(|e| panic!("create {}: {e}", path.display())),
            slots: vec![None; jobs],
        }
    }

    /// Checks the sweep outcome and returns the per-job scalars in job
    /// order.
    ///
    /// # Panics
    ///
    /// Panics — naming `what` and the job — if any job failed, the sink
    /// errored, or a slot was never delivered (a figure cannot be
    /// produced from a partial sweep).
    pub fn finish(self, results: &SweepResults, what: &str) -> Vec<(f64, f64)> {
        if let Some(err) = results.first_error() {
            panic!("{what}: {err}");
        }
        if let Some(err) = results.sink_error() {
            panic!("{what} results sink: {err}");
        }
        self.slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| slot.unwrap_or_else(|| panic!("{what}: job {i} never delivered")))
            .collect()
    }
}

impl ResultSink for FigSink {
    fn on_row(&mut self, row: ResultRow) -> std::io::Result<()> {
        let r = &row.report;
        let slot = (row.index, (r.read_latency_us(), r.write_latency_us()));
        self.jsonl.on_row(row)?;
        self.slots[slot.0] = Some(slot.1);
        eprint!(".");
        Ok(())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.jsonl.flush()
    }
}

/// Reads the scale-factor override, falling back to the figure's default.
pub fn scale_from_env(default: u64) -> u64 {
    match std::env::var("FCACHE_SCALE") {
        Ok(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("ignoring unparsable FCACHE_SCALE={v:?}; using 1/{default}");
            default
        }),
        Err(_) => default,
    }
}

/// Output directory for `.dat` series files.
pub fn figures_dir() -> PathBuf {
    let base = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let dir = PathBuf::from(base).join("paper-figures");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// A printable, saveable results table (one paper figure/table).
pub struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: &str, columns: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends one row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Appends a free-form note printed under the table.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                w[i] = w[i].max(cell.len());
            }
        }
        w
    }

    /// Renders the table as text.
    pub fn render(&self) -> String {
        let w = self.widths();
        let mut out = String::new();
        let _ = writeln!(out, "=== {} ===", self.title);
        for (i, c) in self.columns.iter().enumerate() {
            let _ = write!(out, "{:>width$}  ", c, width = w[i]);
        }
        let _ = writeln!(out);
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                let _ = write!(out, "{:>width$}  ", cell, width = w[i]);
            }
            let _ = writeln!(out);
        }
        for n in &self.notes {
            let _ = writeln!(out, "# {n}");
        }
        out
    }

    /// Prints to stdout and writes `<name>.dat` under the figures dir.
    pub fn emit(&self, name: &str) {
        print!("{}", self.render());
        let mut dat = String::new();
        let _ = writeln!(dat, "# {}", self.title);
        let _ = writeln!(dat, "# {}", self.columns.join("\t"));
        for row in &self.rows {
            let _ = writeln!(dat, "{}", row.join("\t"));
        }
        let path = figures_dir().join(format!("{name}.dat"));
        if let Err(e) = fs::write(&path, dat) {
            eprintln!("could not write {}: {e}", path.display());
        } else {
            println!("# series written to {}", path.display());
        }
    }
}

/// Formats a float cell.
pub fn f(v: f64) -> String {
    format!("{v:.1}")
}

/// Formats a float cell with two decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Prints the standard bench header.
pub fn header(figure: &str, scale: u64, what: &str) {
    println!();
    println!("############################################################");
    println!("# {figure}: {what}");
    println!("# scale 1/{scale} (set FCACHE_SCALE to override; 1 = paper scale)");
    println!("############################################################");
}

/// Emits a PASS/WARN shape check line (benches report, they do not panic).
pub fn shape_check(name: &str, ok: bool, detail: String) {
    let status = if ok { "PASS" } else { "WARN" };
    println!("# shape[{status}] {name}: {detail}");
}

/// The working-set sweep used by Figures 4, 5, 10, and 12 (paper-scale
/// GiB values: "working set sizes, ranging from 5 GB to 640 GB", §7.2).
pub const WS_SWEEP_GIB: [u64; 10] = [5, 10, 20, 40, 60, 80, 120, 160, 320, 640];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["a", "long-col"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["300".into(), "4".into()]);
        t.note("a note");
        let s = t.render();
        assert!(s.contains("=== demo ==="));
        assert!(s.contains("# a note"));
        assert!(s.lines().count() >= 5);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn row_arity_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn scale_default_when_unset() {
        std::env::remove_var("FCACHE_SCALE");
        assert_eq!(scale_from_env(512), 512);
    }
}
