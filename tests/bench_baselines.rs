//! Every committed `BENCH_*.json` is a document `bench-diff` can gate: it
//! parses through the one reader (`sweep::BenchCore::from_bench_json`),
//! names its bench, and every `<key>_reps` array is non-empty, finite,
//! positive and beside the scalar `<key>` it repeats. A hand-edited or
//! truncated baseline fails here, not as exit 3 deep inside verify.sh.

use std::path::Path;

#[test]
fn every_committed_baseline_parses_and_carries_its_reps() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut baselines: Vec<String> = std::fs::read_dir(root)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .collect();
    baselines.sort();
    assert_eq!(
        baselines,
        [
            "BENCH_checker.json",
            "BENCH_export.json",
            "BENCH_profile.json",
            "BENCH_runtime.json",
            "BENCH_sweep.json"
        ],
        "one baseline per bench target"
    );
    for name in baselines {
        let text = std::fs::read_to_string(root.join(&name)).unwrap();
        assert!(
            text.contains("\"bench\": \""),
            "{name} does not name its bench"
        );
        let core = omptune::data::BenchCore::from_bench_json(&name, &text)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(!core.reps.is_empty(), "{name} publishes no repetitions");
        for (key, _) in &core.reps {
            let series = key
                .strip_suffix("_reps")
                .unwrap_or_else(|| panic!("{name}: array `{key}` is not a `_reps` series"));
            let value = core
                .scalar(series)
                .unwrap_or_else(|| panic!("{name}: `{key}` has no scalar `{series}`"));
            let reps = core.reps_of(series).expect("found above");
            let sane = |x: f64| x.is_finite() && x > 0.0;
            assert!(!reps.is_empty(), "{name}: `{key}` is empty");
            assert!(
                sane(value) && reps.iter().all(|&x| sane(x)),
                "{name}: `{series}` = {value}, reps {reps:?}"
            );
        }
    }
}
