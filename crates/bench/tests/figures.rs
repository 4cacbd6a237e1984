//! Every figure of the evaluation at its test scale: each claim not marked
//! bench-only must hold. One test per figure, so they run in parallel and
//! a failure names its figure.

use fcache_bench::{figure, run_figure, Scope, FIGURES};

/// Runs `name` at its `test_scale`, writing no files, and asserts its
/// claims.
fn check(name: &str) {
    let fig = figure(name).unwrap_or_else(|| panic!("no figure {name:?}"));
    let page = run_figure(fig, fig.test_scale, None);
    let failed: Vec<String> = page
        .claims()
        .iter()
        .filter(|c| c.scope != Scope::Bench && !c.holds)
        .map(|c| format!("{}: {}", c.name, c.detail))
        .collect();
    assert!(
        failed.is_empty(),
        "{name} at 1/{}: {} claim(s) failed:\n{}",
        fig.test_scale,
        failed.len(),
        failed.join("\n")
    );
}

macro_rules! figure_tests {
    ($($name:ident)*) => {
        $(
            #[test]
            fn $name() {
                check(stringify!($name));
            }
        )*

        #[test]
        fn every_figure_has_a_test() {
            let tested = [$(stringify!($name)),*];
            for fig in FIGURES {
                assert!(tested.contains(&fig.name), "no test for figure {}", fig.name);
            }
        }
    };
}

figure_tests! {
    table1_timing
    fig1_ssd_latency
    fig1_inline
    fig2_policy_surface
    fig3_effective_size
    fig4_flash_vs_none
    fig5_prefetch
    fig6_small_ram
    fig7_small_ram_small_ws
    fig8_write_ratio
    fig9_flash_timing
    fig10_persistence
    fig11_inval_write_pct
    fig12_inval_ws
    ablations
    extensions
    fault_outage
    fault_shard
    ftl_lifetime
}
