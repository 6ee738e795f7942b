//! Regenerate every table of the paper.
//!
//! Usage: `repro-tables [fast|paper|full] [table1|table2|...|q1|q4|all]`

use bench_harness::repro::{repro_main, Artifact};

const TABLES: [Artifact; 10] = [
    ("table1", |r| r.table1()),
    ("table2", |r| r.table2()),
    ("table3", |r| r.table3()),
    ("table4", |r| r.table4()),
    ("table5", |r| r.table5()),
    ("table6", |r| r.table6()),
    ("table7", |r| r.table7()),
    ("q1", |r| r.q1()),
    ("q2", |r| r.q2("xsbench")),
    ("q4", |r| r.q4()),
];

fn main() -> std::process::ExitCode {
    repro_main("repro-tables", &TABLES, false)
}
