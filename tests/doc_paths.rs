//! Doc lint: a repository path the prose cites in backticks must exist,
//! a `--bench NAME` must be a bench target, a `BENCH_*.json` a committed
//! baseline, a `--flag` given to one of the ten tools a literal in
//! that tool's source, and a `crate::item` path under a workspace crate
//! an item that crate's source defines. The docs outlive the files and
//! items they describe — a crate folded into another, a test renamed, a
//! bench deleted, a function inlined — and nothing else notices.

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

/// The bench target a backticked command runs (`… --bench NAME …`) and
/// the baseline file a span names (`BENCH_sweep.json`, not the patterns
/// `BENCH_*.json` / `BENCH_<name>.json`).
fn cited_bench(span: &str) -> (Option<&str>, Option<&str>) {
    let mut words = span.split(' ');
    let target = words.by_ref().find(|w| *w == "--bench").and(words.next());
    let plain =
        |w: &&str| w.starts_with("BENCH_") && w.ends_with(".json") && !w.contains(['*', '<', '=']);
    (target, span.split(' ').find(plain))
}

/// The source file of the tool `word` names (bare, or ending a path such
/// as `target/release/collect`), if it names one of the ten: a crate
/// with a `main.rs`, or a `sweep` / `bench-harness` `src/bin` file.
fn tool_source(word: &str) -> Option<String> {
    let tool = word.rsplit('/').next()?;
    let file = tool.replace('-', "_");
    let candidates = [
        format!("crates/{tool}/src/main.rs"),
        format!("crates/sweep/src/bin/{file}.rs"),
        format!("crates/bench/src/bin/{file}.rs"),
    ];
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    candidates.into_iter().find(|path| root.join(path).exists())
}

/// The source of the tool a backticked command runs and the `--flag`s it
/// gives it, up to a pipe. The tool is the command's first word; a
/// `cargo …` command names it before ` -- ` and gives it what follows
/// (`--release`, `--bin`, `--test` are cargo's).
fn cited_flags(span: &str) -> Option<(String, Vec<&str>)> {
    let (tool, given) = match span.strip_prefix("cargo ") {
        Some(cargo) => cargo.split_once(" -- ")?,
        None => span.split_once(' ')?,
    };
    let source = tool.split(' ').find_map(tool_source)?;
    let flags = given
        .split(' ')
        .take_while(|w| *w != "|")
        .filter(|w| w.len() > 2 && w.starts_with("--"));
    Some((source, flags.collect()))
}

/// The workspace crates under `crates/`, by the name code calls them
/// (`omptune-core` is `omptune_core`), each with the text of its `src/`.
fn workspace_crates() -> Vec<(String, String)> {
    fn read_tree(dir: &Path, text: &mut String) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                read_tree(&path, text);
            } else if path.extension().is_some_and(|e| e == "rs") {
                text.push_str(&std::fs::read_to_string(&path).unwrap());
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut crates = Vec::new();
    for entry in std::fs::read_dir(root.join("crates")).unwrap() {
        let dir = entry.unwrap().path();
        let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).unwrap();
        let name = manifest
            .lines()
            .find_map(|l| l.strip_prefix("name = \""))
            .and_then(|rest| rest.split('"').next())
            .unwrap();
        let mut text = String::new();
        read_tree(&dir.join("src"), &mut text);
        crates.push((name.replace('-', "_"), text));
    }
    crates
}

/// The crate a span starts with (`simrt::plan::RegionPlan::price(..)`)
/// and the item names its path goes through, with a closing `{A, B}`
/// group (`bench_harness::{Series, BenchDoc}`) read as two more names.
fn cited_items(span: &str) -> Option<(&str, Vec<&str>)> {
    let (krate, rest) = span.split_once("::")?;
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    if krate.is_empty() || !krate.chars().all(ident) {
        return None;
    }
    let end = rest
        .find(|c: char| !ident(c) && c != ':')
        .unwrap_or(rest.len());
    let mut names: Vec<&str> = rest[..end].split("::").filter(|n| !n.is_empty()).collect();
    if let Some(group) = rest[end..].strip_prefix('{') {
        let group = group.split('}').next().unwrap_or("");
        names.extend(group.split(',').map(str::trim).filter(|n| !n.is_empty()));
    }
    Some((krate, names))
}

/// Whether `src` defines `name`, by text: an item keyword right before
/// it (`pub(crate) fn name`), or an indented line that starts with it
/// the way an enum variant does (`Name,`, `Name(…`, `Name {`).
fn defines(src: &str, name: &str) -> bool {
    const KEYWORDS: [&str; 8] = [
        "fn", "struct", "enum", "trait", "mod", "const", "static", "type",
    ];
    src.lines().any(|line| {
        let words: Vec<&str> = line
            .split(|c: char| !(c.is_alphanumeric() || c == '_'))
            .filter(|w| !w.is_empty())
            .collect();
        let item = words
            .windows(2)
            .any(|w| KEYWORDS.contains(&w[0]) && w[1] == name);
        let variant = line.starts_with(char::is_whitespace)
            && line.trim_start().strip_prefix(name).is_some_and(|rest| {
                rest.trim_start().is_empty() || rest.trim_start().starts_with([',', '(', '{'])
            });
        item || variant
    })
}

/// `visit(doc, line number, span)` for every backticked span of every doc:
/// the odd pieces of a line split on backticks are its code spans.
fn for_each_span(mut visit: impl FnMut(&str, usize, &str)) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).unwrap();
        for (n, line) in text.lines().enumerate() {
            for span in line.split('`').skip(1).step_by(2) {
                visit(doc, n + 1, span);
            }
        }
    }
}

#[test]
fn every_backticked_repo_path_in_the_docs_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut missing = Vec::new();
    let mut checked = 0;
    for_each_span(|doc, line, span| {
        if let Some(path) = cited_path(span) {
            checked += 1;
            if !root.join(path).exists() {
                missing.push(format!("{doc}:{line}: `{path}`"));
            }
        }
    });
    assert!(checked > 20, "the scan found only {checked} paths");
    assert!(
        missing.is_empty(),
        "cited but absent:\n{}",
        missing.join("\n")
    );
}

#[test]
fn every_cited_bench_is_a_target_and_every_baseline_is_committed() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let manifest = std::fs::read_to_string(root.join("crates/bench/Cargo.toml")).unwrap();
    let targets: Vec<&str> = manifest
        .split("[[bench]]")
        .skip(1)
        .filter_map(|table| table.split('"').nth(1))
        .collect();
    assert_eq!(targets.len(), 5, "{targets:?}");
    let mut missing = Vec::new();
    let mut checked = 0;
    for_each_span(|doc, line, span| {
        let (target, baseline) = cited_bench(span);
        checked += target.is_some() as usize + baseline.is_some() as usize;
        if target.is_some_and(|t| !targets.contains(&t)) {
            missing.push(format!("{doc}:{line}: `--bench {}`", target.unwrap()));
        }
        if baseline.is_some_and(|b| !root.join(b).exists()) {
            missing.push(format!("{doc}:{line}: `{}`", baseline.unwrap()));
        }
    });
    assert!(checked > 10, "the scan found only {checked} citations");
    assert!(
        missing.is_empty(),
        "cited but absent:\n{}",
        missing.join("\n")
    );
}

#[test]
fn every_flag_a_doc_gives_a_tool_is_one_the_tool_reads() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut unread = Vec::new();
    let mut checked = 0;
    for_each_span(|doc, line, span| {
        let Some((source, flags)) = cited_flags(span) else {
            return;
        };
        let text = std::fs::read_to_string(root.join(&source)).unwrap();
        for flag in flags {
            checked += 1;
            if !text.contains(&format!("\"{flag}\"")) {
                unread.push(format!("{doc}:{line}: `{flag}` is not in {source}"));
            }
        }
    });
    assert!(checked > 10, "the scan found only {checked} flags");
    assert!(unread.is_empty(), "{}", unread.join("\n"));
}

#[test]
fn every_crate_item_a_doc_cites_is_defined_in_that_crate() {
    let crates = workspace_crates();
    assert!(crates.len() > 10, "found only {} crates", crates.len());
    let mut undefined = Vec::new();
    let mut checked = 0;
    for_each_span(|doc, line, span| {
        let Some((krate, names)) = cited_items(span) else {
            return;
        };
        let Some((_, src)) = crates.iter().find(|(name, _)| name == krate) else {
            return;
        };
        for name in names {
            checked += 1;
            if !defines(src, name) {
                undefined.push(format!(
                    "{doc}:{line}: `{name}` in `{span}` is not in {krate}"
                ));
            }
        }
    });
    assert!(checked > 50, "the scan found only {checked} items");
    assert!(undefined.is_empty(), "{}", undefined.join("\n"));
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
    assert_eq!(
        cited_bench("BENCH_OUT=x.json cargo bench -p bench-harness --bench export_tail"),
        (Some("export_tail"), None)
    );
    assert_eq!(
        cited_bench("BENCH_sweep.json"),
        (None, Some("BENCH_sweep.json"))
    );
    assert_eq!(cited_bench("BENCH_<name>.json"), (None, None));
    assert_eq!(cited_bench("BENCH_OUT"), (None, None));
    let piped =
        "cargo run --release -p sweep --bin collect -- tiny out --workers 2 | tail --lines 3";
    let collect = (
        "crates/sweep/src/bin/collect.rs".to_string(),
        vec!["--workers"],
    );
    assert_eq!(cited_flags(piped), Some(collect));
    let bare = "target/release/collect tiny out --workers 2";
    assert_eq!(cited_flags(bare), cited_flags(piped));
    for cargos in [
        "cargo test -p ompfuzz --release --test determinism",
        "cargo bench -p bench-harness --bench x",
        "--trace",
    ] {
        assert_eq!(cited_flags(cargos), None, "{cargos}");
    }
    let fuzz = "cargo run -p ompfuzz --bin ompfuzz -- run --seed 1 --json";
    assert_eq!(cited_flags(fuzz).unwrap().1, ["--seed", "--json"]);
    assert_eq!(
        cited_items("simrt::plan::RegionPlan::price(..)"),
        Some(("simrt", vec!["plan", "RegionPlan", "price"]))
    );
    assert_eq!(
        cited_items("bench_harness::{Series, BenchDoc}"),
        Some(("bench_harness", vec!["Series", "BenchDoc"]))
    );
    for other in ["crates/sweep/src/collect.rs", "<arch>::x", "a b::c"] {
        assert_eq!(cited_items(other), None, "{other}");
    }
    let src = "pub(crate) fn plan() {}\nenum Kind {\n    Loop,\n    Tasks(u8),\n}\n";
    for name in ["plan", "Kind", "Loop", "Tasks"] {
        assert!(defines(src, name), "{name}");
    }
    for name in ["loop_class", "Loo", "u8"] {
        assert!(!defines(src, name), "{name}");
    }
}
