//! Doc lint: a repository path the prose cites in backticks must exist.
//! The docs outlive the files they describe — a crate folded into
//! another, a test renamed — and nothing else notices.

use std::path::Path;

const DOCS: [&str; 4] = ["README.md", "DESIGN.md", "EXPERIMENTS.md", "src/lib.rs"];
const ROOTS: [&str; 5] = ["crates/", "tests/", "scripts/", "benchmark/", "vendor/"];

/// The path a backticked span cites, if it starts with one: the span up
/// to its first `:` or space (a line number, a `::item` or command-line
/// options may follow), unless that is a pattern (`crates/*/src`).
fn cited_path(span: &str) -> Option<&str> {
    let path = span.split([':', ' ']).next()?;
    let plain = !path.contains(['*', '<', '…', '{', '$']);
    (plain && ROOTS.iter().any(|root| path.starts_with(root))).then_some(path)
}

#[test]
fn every_backticked_repo_path_in_the_docs_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut missing = Vec::new();
    let mut checked = 0;
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).unwrap();
        for (n, line) in text.lines().enumerate() {
            // Odd pieces of a line split on backticks are its code spans.
            for path in line.split('`').skip(1).step_by(2).filter_map(cited_path) {
                checked += 1;
                if !root.join(path).exists() {
                    missing.push(format!("{doc}:{}: `{path}`", n + 1));
                }
            }
        }
    }
    assert!(checked > 20, "the scan found only {checked} paths");
    assert!(
        missing.is_empty(),
        "cited but absent:\n{}",
        missing.join("\n")
    );
}

#[test]
fn spans_that_are_not_one_plain_path_are_skipped() {
    assert_eq!(
        cited_path("crates/sweep/src/collect.rs"),
        Some("crates/sweep/src/collect.rs")
    );
    assert_eq!(
        cited_path("tests/artifact_golden.rs::tiny_run"),
        Some("tests/artifact_golden.rs")
    );
    assert_eq!(
        cited_path("scripts/verify.sh:67"),
        Some("scripts/verify.sh")
    );
    assert_eq!(cited_path("vendor/"), Some("vendor/"));
    assert_eq!(
        cited_path("benchmark/run.sh --smoke"),
        Some("benchmark/run.sh")
    );
    for skipped in [
        "crates/*/src",
        "cargo test -p sweep",
        "src/lib.rs",
        "tests/<name>.rs",
    ] {
        assert_eq!(cited_path(skipped), None, "{skipped}");
    }
}
