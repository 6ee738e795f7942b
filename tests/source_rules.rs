//! Source lint: the "written once" rules a grep can hold. Each names the
//! one file a thing may live in; the next pasted copy fails here, not in
//! review.

use std::path::Path;

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap()
}

/// `text` up to its test module.
fn non_test(text: &str) -> &str {
    text.split("\n#[cfg(test)]").next().unwrap()
}

/// Push `(repo-relative path, text)` of every `.rs` file under `dir`.
fn walk(dir: &Path, root: &Path, out: &mut Vec<(String, String)>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            walk(&path, root, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path.strip_prefix(root).unwrap().to_str().unwrap();
            out.push((rel.to_string(), read(&path)));
        }
    }
}

/// `(repo-relative path, text)` of every `.rs` file under `crates/*/src`.
fn crate_sources() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut out = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).unwrap() {
        walk(&krate.unwrap().path().join("src"), root, &mut out);
    }
    assert!(out.len() > 80, "the walk found only {} sources", out.len());
    out
}

/// One variable table: outside test modules, a swept variable's name is a
/// string literal in `crates/core/src/variable.rs` and nowhere else.
#[test]
fn a_variable_name_is_spelled_in_the_variable_table_only() {
    let spells = |text: &str| non_test(text).contains("\"KMP_FORCE_REDUCTION\"");
    let sources = crate_sources();
    let named: Vec<&str> = sources
        .iter()
        .filter_map(|(path, text)| spells(text).then_some(path.as_str()))
        .collect();
    assert_eq!(named, ["crates/core/src/variable.rs"]);
}

/// One table of the paper's numbers: outside test modules and comments,
/// three of them (Table II's A64FX samples, the NQueens and XSBench maxima)
/// are written in `crates/core/src/paper.rs` and nowhere else under
/// `crates/*/src` or `examples/`.
#[test]
fn a_paper_number_is_written_in_the_paper_table_only() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = crate_sources();
    walk(&root.join("examples"), root, &mut sources);
    let numbers = ["2.602", "4.851", "53_822"];
    let mut written = std::collections::BTreeSet::new();
    for (path, text) in &sources {
        for line in non_test(text)
            .lines()
            .filter(|l| !l.trim_start().starts_with("//"))
        {
            let found = numbers.iter().filter(|n| line.contains(*n));
            written.extend(found.map(|n| (path, *n)));
        }
    }
    let home = "crates/core/src/paper.rs".to_string();
    let want: std::collections::BTreeSet<_> = numbers.iter().map(|n| (&home, *n)).collect();
    assert_eq!(written, want);
}

/// One float path: the JSON sink writes an `f64`'s digits itself
/// (`vendor/serde_json/src/number.rs`); `core::fmt` is only the reference
/// `tests/serde_stream.rs` holds it to. One collection run: the binary is
/// a command line, a monitor and stderr around `sweep::collect::run` — it
/// sweeps, cleans, folds, writes series, exports and registers nothing
/// itself, and has no switch for the influence pair.
#[test]
fn the_json_sink_and_the_collect_binary_hold_no_second_copy() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let sink = read(&root.join("vendor/serde_json/src/lib.rs"));
    assert!(!sink.contains("format_args!(\"{x"));
    let binary = read(&root.join("crates/sweep/src/bin/collect.rs"));
    let gone =
        "sweep_arch_scheduled clean( push_arch _series( write_artifacts .append( --no-influence";
    for gone in gone.split(' ') {
        assert!(!binary.contains(gone), "collect.rs contains {gone:?}");
    }
}

/// One front end: a process exits through `omptune_core::cli::run`, which
/// also owns the four exit codes; `bench-diff` adds its own two by name.
#[test]
fn exit_codes_and_process_exit_live_in_the_cli_module() {
    let mut strays = Vec::new();
    let own = ["const EXIT_REGRESSION: u8", "const EXIT_BAD_INPUT: u8"];
    for (path, text) in crate_sources() {
        for (n, line) in text.lines().enumerate() {
            let stray = line.contains("process::exit") || line.contains("const EXIT_");
            let allowed = path == "crates/core/src/cli.rs"
                || path.ends_with("bench_diff.rs") && own.iter().any(|c| line.contains(c));
            if stray && !allowed {
                strays.push(format!("{path}:{}: {}", n + 1, line.trim()));
            }
        }
    }
    assert!(strays.is_empty(), "{}", strays.join("\n"));
}

/// Two dead Cargo edges, kept so `benchmark/Cargo.lock` does not move
/// yet: outside test modules nothing under `crates/workloads/src` names
/// `ompfuzz` and nothing under `crates/sweep/src` names `omplint`, so
/// either edge drops with no change to code.
#[test]
fn the_crates_name_no_dependency_they_keep_only_for_the_lockfile() {
    let dead = [
        ("crates/workloads/src/", "ompfuzz"),
        ("crates/sweep/src/", "omplint"),
    ];
    let mut named = Vec::new();
    for (path, text) in crate_sources() {
        for (dir, dep) in dead {
            if path.starts_with(dir) && non_test(&text).contains(dep) {
                named.push(format!("{path} names {dep}"));
            }
        }
    }
    assert!(named.is_empty(), "{}", named.join("\n"));
}

/// One SVG writer: outside test modules, an `<svg` literal is written in
/// `crates/ompprof/src/flame.rs` and nowhere else under `crates/*/src`.
#[test]
fn svg_is_drawn_by_the_flame_module_only() {
    let sources = crate_sources();
    let drawers: Vec<&str> = sources
        .iter()
        .filter(|(_, text)| non_test(text).contains("<svg"))
        .map(|(path, _)| path.as_str())
        .collect();
    assert_eq!(drawers, ["crates/ompprof/src/flame.rs"]);
}

/// One build: no crate manifest has a `[features]` table and no source
/// outside test modules compiles code in or out by a feature
/// (`cfg(feature …)`, `cfg(not(feature …))`), so every build runs what
/// the tests run.
#[test]
fn no_crate_has_cargo_features() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut found = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).unwrap() {
        let manifest = krate.unwrap().path().join("Cargo.toml");
        if read(&manifest).lines().any(|l| l.trim() == "[features]") {
            found.push(format!("{} has a [features] table", manifest.display()));
        }
    }
    for (path, text) in crate_sources() {
        let code = non_test(&text);
        if code.contains("cfg(feature") || code.contains("(feature = ") {
            found.push(format!("{path} compiles by a feature"));
        }
    }
    assert!(found.is_empty(), "{}", found.join("\n"));
}
