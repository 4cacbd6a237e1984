//! The paper's evaluation as one table of figures.
//!
//! [`FIGURES`] has one [`Figure`] per table, figure or study: Table 1 and
//! Figures 1–12 of §6–§7 (module `paper`), plus the ablations,
//! extensions, fault and FTL studies (module `studies`). An entry holds
//! - its name (the bench argument and the `.jsonl` file name), header and
//!   default scale, plus the smaller scale its tier-1 test runs at;
//! - `grid`: its paper-scale [`Job`]s (label, [`SimConfig`],
//!   [`WorkloadSpec`]);
//! - `extract`: the tables, notes and claims it draws from the finished
//!   reports.
//!
//! [`run_figure`] is the one way to run a figure. At an explicit scale it
//! runs the whole grid as one [`Sweep`] through `FigSink`, then the
//! extraction. Figures whose work is not a plain sweep (Table 1's
//! printout, Figure 1's offline SSD replays, the FTL replays) have an
//! empty or one-job grid and do the rest in `extract`.
//!
//! Two programs run the table:
//! - `cargo bench --bench figures [-- NAME...]` prints every figure, or the
//!   named ones, at its default scale (`FCACHE_SCALE` overrides it). It
//!   writes `.dat` series and `.jsonl` rows under `target/paper-figures/`
//!   and reports each printed claim as a `# shape[PASS]` or
//!   `# shape[WARN]` line; it never panics on a claim.
//! - `tests/figures.rs` runs every figure at its `test_scale` and asserts
//!   each claim whose [`Scope`] is not [`Scope::Bench`].
//!
//! **Adding a figure:** write a grid and an extract function next to the
//! others, add an entry to [`FIGURES`], and add its name to the list in
//! `tests/figures.rs` (a test there fails until you do).
//!
//! **Adding a claim:** call `Page::claim` in the figure's extract
//! function with the predicate, its bound and a detail string. Pick the
//! scope by where it holds: [`Scope::Both`] if it holds at the test scale
//! too, [`Scope::Bench`] if only at the bench scale.
//!
//! **Scale** is linear: every byte quantity (file-server model, working
//! set, RAM, flash) is divided by the factor, while latencies, the 4 KB
//! block and all ratios stay. Hit rates depend only on size ratios and
//! latencies are per-block constants, so curve shapes survive; 1 is paper
//! scale.

use std::cell::OnceCell;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

pub use fcache::{
    run_source, run_trace, Architecture, FlashTiming, Scenario, SimConfig, Sweep, Workbench,
    Workload, WorkloadSpec,
};
use fcache::{JsonlSink, ResultRow, ResultSink, SimReport, SweepResults};

mod paper;
mod studies;

/// One entry of the evaluation: what to run and what to report.
pub struct Figure {
    /// Bench argument and `.jsonl` file name, e.g. `fig4_flash_vs_none`.
    pub name: &'static str,
    /// Header line, e.g. `Figure 4: read latency vs working-set size …`.
    pub header: &'static str,
    /// Default bench scale factor.
    pub scale: u64,
    /// Scale factor of the tier-1 test.
    pub test_scale: u64,
    /// The paper-scale jobs, run as one sweep.
    pub grid: fn(&Lab) -> Vec<Job>,
    /// Tables, notes and claims drawn from the finished runs.
    pub extract: fn(&Runs, &mut Page),
}

/// Every table, figure and study, in bench order.
pub static FIGURES: &[Figure] = &[
    Figure {
        name: "table1_timing",
        header: "Table 1: timing model parameters",
        scale: 1,
        test_scale: 1,
        grid: no_jobs,
        extract: paper::table1,
    },
    Figure {
        name: "fig1_ssd_latency",
        header: "Figure 1: SSD read/write latency vs cumulative I/Os (10k-I/O windows)",
        scale: 256,
        test_scale: 1024,
        grid: paper::fig1_grid,
        extract: paper::fig1,
    },
    Figure {
        name: "fig1_inline",
        header: "Figure 1 (inline): device-service latency bands from a simulated run \
                 (no offline replay)",
        scale: 256,
        test_scale: 1024,
        grid: paper::fig1_inline_grid,
        extract: paper::fig1_inline,
    },
    Figure {
        name: "fig2_policy_surface",
        header: "Figure 2: 49 policy combinations × 3 architectures (80 GB WS)",
        scale: 1024,
        test_scale: 8192,
        grid: paper::fig2_grid,
        extract: paper::fig2,
    },
    Figure {
        name: "fig3_effective_size",
        header: "Figure 3: effective cache size vs cache-medium latency",
        scale: 1024,
        test_scale: 8192,
        grid: paper::fig3_grid,
        extract: paper::fig3,
    },
    Figure {
        name: "fig4_flash_vs_none",
        header: "Figure 4: read latency vs working-set size across flash sizes",
        scale: 1024,
        test_scale: 8192,
        grid: paper::fig4_grid,
        extract: paper::fig4,
    },
    Figure {
        name: "fig5_prefetch",
        header: "Figure 5: read latency for 80% vs 95% filer prefetch rates",
        scale: 1024,
        test_scale: 8192,
        grid: paper::fig5_grid,
        extract: paper::fig5,
    },
    Figure {
        name: "fig6_small_ram",
        header: "Figure 6: latency vs RAM cache size (policies a and p1)",
        scale: 64,
        test_scale: 4096,
        grid: paper::fig6_grid,
        extract: paper::fig6,
    },
    Figure {
        name: "fig7_small_ram_small_ws",
        header: "Figure 7: tiny RAM with a RAM-sized (5 GB) workload",
        scale: 64,
        test_scale: 1024,
        grid: paper::fig7_grid,
        extract: paper::fig7,
    },
    Figure {
        name: "fig8_write_ratio",
        header: "Figure 8: latency vs write percentage",
        scale: 1024,
        test_scale: 4096,
        grid: paper::fig8_grid,
        extract: paper::fig8,
    },
    Figure {
        name: "fig9_flash_timing",
        header: "Figure 9: read latency vs flash read time (writes proportional)",
        scale: 1024,
        test_scale: 4096,
        grid: paper::fig9_grid,
        extract: paper::fig9,
    },
    Figure {
        name: "fig10_persistence",
        header: "Figure 10: persistence: warmed vs not-warmed vs no flash",
        scale: 1024,
        test_scale: 8192,
        grid: paper::fig10_grid,
        extract: paper::fig10,
    },
    Figure {
        name: "fig11_inval_write_pct",
        header: "Figure 11: invalidations and read latency vs write percentage (2 hosts)",
        scale: 1024,
        test_scale: 8192,
        grid: paper::fig11_grid,
        extract: paper::fig11,
    },
    Figure {
        name: "fig12_inval_ws",
        header: "Figure 12: invalidations and read latency vs working-set size (2 hosts)",
        scale: 1024,
        test_scale: 8192,
        grid: paper::fig12_grid,
        extract: paper::fig12,
    },
    Figure {
        name: "ablations",
        header: "Ablations: sensitivity of the baseline to modeling choices",
        scale: 1024,
        test_scale: 4096,
        grid: studies::ablations_grid,
        extract: studies::ablations,
    },
    Figure {
        name: "extensions",
        header: "Extensions: host scaling and fine syncer-period sweep",
        scale: 1024,
        test_scale: 4096,
        grid: studies::extensions_grid,
        extract: studies::extensions,
    },
    Figure {
        name: "fault_outage",
        header: "Fault outage: 7 RAM policies × 3 architectures, healthy vs 200 s filer \
                 outage (80 GB WS)",
        scale: 1024,
        test_scale: 8192,
        grid: studies::fault_outage_grid,
        extract: studies::fault_outage,
    },
    Figure {
        name: "fault_shard",
        header: "Fault shard: 7 RAM policies × 3 architectures, 4-shard/replication-2 tier, \
                 healthy vs 150 s shard outage (80 GB WS)",
        scale: 1024,
        test_scale: 8192,
        grid: studies::fault_shard_grid,
        extract: studies::fault_shard,
    },
    Figure {
        name: "ftl_lifetime",
        header: "FTL lifetime: write amplification of the cache workload (future work §8)",
        scale: 512,
        test_scale: 2048,
        grid: studies::ftl_grid,
        extract: studies::ftl_lifetime,
    },
];

fn no_jobs(_: &Lab) -> Vec<Job> {
    Vec::new()
}

/// Looks a figure up by name.
pub fn figure(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.name == name)
}

/// The scale a figure runs at and its file-server model, built on first
/// use (Table 1 runs nothing and never builds one).
pub struct Lab {
    /// The scale factor in force.
    pub scale: u64,
    wb: OnceCell<Workbench>,
}

impl Lab {
    /// The scaled workbench every figure uses (model seed 42).
    pub fn wb(&self) -> &Workbench {
        self.wb.get_or_init(|| Workbench::new(self.scale, 42))
    }
}

/// One sweep job at paper scale; [`run_figure`] scales it down.
pub struct Job {
    /// The job's row label.
    pub label: String,
    /// Paper-scale configuration.
    pub cfg: SimConfig,
    /// Paper-scale workload, streamed per job.
    pub spec: WorkloadSpec,
}

impl Job {
    /// A labeled job.
    pub fn new(label: impl Into<String>, cfg: SimConfig, spec: &WorkloadSpec) -> Self {
        Self {
            label: label.into(),
            cfg,
            spec: spec.clone(),
        }
    }
}

/// A figure's finished grid: the reports in job order.
pub struct Runs {
    /// The scale and workbench the grid ran on.
    pub lab: Lab,
    /// The jobs, as the grid built them.
    pub jobs: Vec<Job>,
    /// One report per job.
    pub reports: Vec<SimReport>,
}

impl Runs {
    /// Runs one job outside the grid: a repeat of a grid job, or a
    /// reference run that is not one of the figure's rows.
    ///
    /// # Panics
    ///
    /// Panics, naming the job, if it fails.
    pub fn run(&self, job: &Job) -> SimReport {
        let scenario = self.lab.wb().scenario(&job.cfg, &job.spec);
        scenario
            .run()
            .unwrap_or_else(|e| panic!("{}: {e}", job.label))
    }
}

/// Where a claim is checked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scope {
    /// Printed by the bench and asserted by the tier-1 test.
    Both,
    /// Printed by the bench only: it holds at the bench scale but not at
    /// the test scale, or it is a known deviation from the paper.
    Bench,
    /// Asserted by the tier-1 test only. These claims have no shape line
    /// in the bench output.
    Test,
}

/// One claim's verdict.
#[derive(Clone, Debug)]
pub struct Claim {
    /// What the paper claims.
    pub name: String,
    /// Where the claim is checked.
    pub scope: Scope,
    /// Whether the predicate held.
    pub holds: bool,
    /// The measured values behind the verdict.
    pub detail: String,
}

/// A figure's rendered output: text for stdout plus every claim's verdict.
pub struct Page {
    dir: Option<PathBuf>,
    jsonl: Option<PathBuf>,
    text: String,
    claims: Vec<Claim>,
}

impl Page {
    /// The text the bench prints.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Every claim, in extraction order.
    pub fn claims(&self) -> &[Claim] {
        &self.claims
    }

    /// The file the figure's rows went to, if any.
    pub fn jsonl(&self) -> Option<PathBuf> {
        self.jsonl.clone()
    }

    /// Appends one line of text.
    pub(crate) fn line(&mut self, s: impl AsRef<str>) {
        let _ = writeln!(self.text, "{}", s.as_ref());
    }

    /// Renders a table and, with an output directory, writes it as
    /// `<dat>.dat` there.
    pub(crate) fn table(&mut self, t: &Table, dat: &str) {
        self.text.push_str(&t.render());
        let Some(dir) = &self.dir else { return };
        let path = dir.join(format!("{dat}.dat"));
        if let Err(e) = fs::write(&path, t.dat()) {
            eprintln!("could not write {}: {e}", path.display());
        } else {
            self.line(format!("# series written to {}", path.display()));
        }
    }

    /// Records a claim; the bench prints it as a shape line unless its
    /// scope is [`Scope::Test`].
    pub(crate) fn claim(
        &mut self,
        scope: Scope,
        name: impl Into<String>,
        holds: bool,
        detail: String,
    ) {
        let name = name.into();
        if scope != Scope::Test {
            let status = if holds { "PASS" } else { "WARN" };
            self.line(format!("# shape[{status}] {name}: {detail}"));
        }
        self.claims.push(Claim {
            name,
            scope,
            holds,
            detail,
        });
    }
}

/// Runs `fig` at `scale`: its grid as one sweep, then its extraction.
///
/// With `dir`, every finished row streams to `<dir>/<name>.jsonl` and every
/// table is also written to `<dir>/<table>.dat`; without it nothing is
/// written.
///
/// # Panics
///
/// Panics if a job fails or a results file cannot be written: a figure
/// cannot be drawn from a partial sweep.
pub fn run_figure(fig: &Figure, scale: u64, dir: Option<&Path>) -> Page {
    let lab = Lab {
        scale,
        wb: OnceCell::new(),
    };
    let jsonl = dir.map(|d| d.join(format!("{}.jsonl", fig.name)));
    let mut page = Page {
        dir: dir.map(Path::to_path_buf),
        jsonl: jsonl.clone(),
        text: String::new(),
        claims: Vec::new(),
    };
    page.line("");
    page.line("############################################################");
    page.line(format!("# {}", fig.header));
    page.line(format!(
        "# scale 1/{scale} (set FCACHE_SCALE to override; 1 = paper scale)"
    ));
    page.line("############################################################");

    let jobs = (fig.grid)(&lab);
    let mut reports = Vec::new();
    if !jobs.is_empty() {
        let wb = lab.wb();
        let mut sink = FigSink::new(jsonl.as_deref(), jobs.len());
        let sweep = jobs.iter().fold(Sweep::new(), |sweep, job| {
            sweep.scenario(job.label.clone(), wb.scenario(&job.cfg, &job.spec))
        });
        let results = sweep.run(&mut sink);
        eprintln!();
        reports = sink.finish(&results, fig.name);
    }
    let runs = Runs { lab, jobs, reports };
    (fig.extract)(&runs, &mut page);
    page
}

/// The sink every figure sweep runs through: keeps each finished job's
/// report in its job slot and, given a path, also streams the row to a
/// durable, schema-versioned JSONL file (flushed per row).
///
/// Sweep sink deliveries are serialized, so no lock is needed around the
/// slots.
struct FigSink {
    jsonl: Option<JsonlSink>,
    slots: Vec<Option<SimReport>>,
}

impl FigSink {
    /// Creates the sink for a sweep of `jobs` jobs, writing rows to `jsonl`
    /// if given.
    ///
    /// # Panics
    ///
    /// Panics if the results file cannot be created (a figure without its
    /// durable rows is not worth running).
    fn new(jsonl: Option<&Path>, jobs: usize) -> Self {
        Self {
            jsonl: jsonl.map(|path| {
                JsonlSink::create(path).unwrap_or_else(|e| panic!("create {}: {e}", path.display()))
            }),
            slots: vec![None; jobs],
        }
    }

    /// Checks the sweep outcome and returns the reports in job order.
    ///
    /// # Panics
    ///
    /// Panics — naming `what` and the job — if any job failed, the sink
    /// errored, or a slot was never delivered.
    fn finish(self, results: &SweepResults, what: &str) -> Vec<SimReport> {
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
        let (index, report) = (row.index, row.report.clone());
        if let Some(jsonl) = &mut self.jsonl {
            jsonl.on_row(row)?;
        }
        self.slots[index] = Some(report);
        eprint!(".");
        Ok(())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.jsonl.as_mut().map_or(Ok(()), JsonlSink::flush)
    }
}

/// Parses an `FCACHE_SCALE` value: unset means `default`, and so does
/// anything but a positive integer (with a warning).
pub fn parse_scale(value: Option<&str>, default: u64) -> u64 {
    let Some(v) = value else { return default };
    match v.parse() {
        Ok(n) if n > 0 => n,
        _ => {
            eprintln!("ignoring FCACHE_SCALE={v:?} (not a positive integer); using 1/{default}");
            default
        }
    }
}

/// Reads the `FCACHE_SCALE` override, falling back to `default`.
pub fn scale_from_env(default: u64) -> u64 {
    parse_scale(std::env::var("FCACHE_SCALE").ok().as_deref(), default)
}

/// Output directory for `.dat` series and `.jsonl` rows:
/// `$CARGO_TARGET_DIR/paper-figures`, or `target/paper-figures`.
pub fn figures_dir() -> PathBuf {
    let base = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let dir = PathBuf::from(base).join("paper-figures");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// A printable, saveable results table (one paper figure/table).
pub(crate) struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub(crate) fn new(title: &str, columns: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends one row (stringified cells).
    pub(crate) fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Appends a free-form note printed under the table.
    pub(crate) fn note(&mut self, s: impl Into<String>) {
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
    pub(crate) fn render(&self) -> String {
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

    /// The gnuplot-ready series: title, tab-separated header and rows.
    fn dat(&self) -> String {
        let mut dat = String::new();
        let _ = writeln!(dat, "# {}", self.title);
        let _ = writeln!(dat, "# {}", self.columns.join("\t"));
        for row in &self.rows {
            let _ = writeln!(dat, "{}", row.join("\t"));
        }
        dat
    }
}

/// Formats a float cell.
pub(crate) fn f(v: f64) -> String {
    format!("{v:.1}")
}

/// Formats a float cell with two decimals.
pub(crate) fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Mean of a series (0 for an empty one).
pub(crate) fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// The working-set sweep used by Figures 3, 4, 5, 10 and 12 (paper-scale
/// GiB values: "working set sizes, ranging from 5 GB to 640 GB", §7.2).
pub(crate) const WS_SWEEP_GIB: [u64; 10] = [5, 10, 20, 40, 60, 80, 120, 160, 320, 640];

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
        assert_eq!(parse_scale(None, 512), 512);
        assert_eq!(parse_scale(Some("64"), 512), 64);
    }

    #[test]
    fn scale_zero_or_garbage_falls_back_to_default() {
        for bad in ["0", "-4", "1k", ""] {
            assert_eq!(parse_scale(Some(bad), 512), 512, "{bad:?}");
        }
    }

    #[test]
    fn figure_names_are_unique() {
        for (i, fig) in FIGURES.iter().enumerate() {
            assert!(
                FIGURES[..i].iter().all(|g| g.name != fig.name),
                "{}",
                fig.name
            );
        }
    }
}
