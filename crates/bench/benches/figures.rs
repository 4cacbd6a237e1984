//! Every table, figure and study of the paper's evaluation, from the
//! [`FIGURES`] table.
//!
//! `cargo bench --bench figures` runs them all; name some to run only
//! those, e.g. `cargo bench --bench figures -- fig4_flash_vs_none`. Each
//! runs at its default scale unless `FCACHE_SCALE` is set, prints its
//! tables and `# shape[PASS|WARN]` claim lines, and writes `.dat` series
//! and `.jsonl` rows under `target/paper-figures/` (or
//! `$CARGO_TARGET_DIR/paper-figures/`).

use std::process::ExitCode;

use fcache_bench::{figure, figures_dir, run_figure, scale_from_env, FIGURES};

fn main() -> ExitCode {
    // `cargo bench` passes `--bench`; every other argument names a figure.
    let names: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with('-'))
        .collect();
    let mut figs = Vec::new();
    for name in &names {
        match figure(name) {
            Some(fig) => figs.push(fig),
            None => {
                let known: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
                eprintln!("unknown figure {name:?}; known: {}", known.join(", "));
                return ExitCode::FAILURE;
            }
        }
    }
    if figs.is_empty() {
        figs.extend(FIGURES);
    }
    let dir = figures_dir();
    for fig in figs {
        let page = run_figure(fig, scale_from_env(fig.scale), Some(&dir));
        print!("{}", page.text());
    }
    ExitCode::SUCCESS
}
