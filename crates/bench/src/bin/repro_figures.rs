//! Regenerate every figure of the paper (text renderings), and with a
//! third argument dump machine-readable figure data for external plotting.
//!
//! Usage: `repro-figures [fast|paper|full] [fig1|fig2|...|fig7|all] [CSV_DIR|-]`

use bench_harness::repro::{repro_main, Artifact};
use omptune_core::GroupBy;

const FIGURES: [Artifact; 7] = [
    ("fig1", |r| r.figure_violin("alignment")),
    ("fig2", |r| r.figure_heatmap(GroupBy::Application)),
    ("fig3", |r| r.figure_heatmap(GroupBy::Architecture)),
    ("fig4", |r| r.figure_heatmap(GroupBy::ArchApplication)),
    ("fig5", |r| r.figure_violin("bt")),
    ("fig6", |r| r.figure_violin("health")),
    ("fig7", |r| r.figure_violin("rsbench")),
];

fn main() -> std::process::ExitCode {
    repro_main("repro-figures", &FIGURES, true)
}
