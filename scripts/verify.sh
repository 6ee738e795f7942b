#!/usr/bin/env bash
# Repository verification gate: build, tests, formatting, lints.
#
# Usage: scripts/verify.sh
#
# Run from anywhere; the script cd's to the repo root. Fails fast on the
# first broken step so CI output points at the culprit.

set -euo pipefail
cd "$(dirname "$0")/.."

step() {
    echo
    echo "==> $*"
    "$@"
}
need() { # need FILE PATTERN MESSAGE — some line of FILE matches PATTERN
    grep -q -- "$2" "$1" || {
        echo "verify: $3" >&2
        exit 1
    }
}

step cargo build --release --workspace
step cargo test --workspace -q

# The simrt lib tests share process-global telemetry; a test that races a
# session shows up as an intermittent failure, so one green run proves
# little. Twenty consecutive runs (~1 s) must all pass.
echo
echo "==> simrt lib tests, 20 consecutive runs"
for i in $(seq 20); do
    cargo test -p simrt --lib -q >/dev/null 2>&1 || {
        echo "verify: simrt lib tests failed on run $i of 20" >&2
        cargo test -p simrt --lib -q
        exit 1
    }
done
echo "20 of 20 passed"
step cargo fmt --all --check
step cargo clippy --workspace --all-targets -- -D warnings

# One variable table: outside test modules, a swept variable's name is a
# string literal in crates/core/src/variable.rs and nowhere else under
# crates/*/src — the next pasted per-variable table fails here, not in review.
named="$(find crates/*/src -name '*.rs' -exec awk 'FNR == 1 { test = 0 }
    /^#\[cfg\(test\)\]/ { test = 1 }
    !test && /"KMP_FORCE_REDUCTION"/ && !seen[FILENAME]++ { print FILENAME }' {} +)"
[ "$named" = crates/core/src/variable.rs ] || {
    echo "verify: \"KMP_FORCE_REDUCTION\" is spelled outside the variable table: $named" >&2
    exit 1
}
# One float path: the JSON sink writes an f64's digits itself
# (vendor/serde_json/src/number.rs) and core::fmt is only the reference the
# tests hold it to — over every binade here, over random, artifact-like and
# tie inputs in tier-1. The `{x}` it replaced must not come back beside it.
! grep -qF 'format_args!("{x' vendor/serde_json/src/lib.rs || {
    echo 'verify: vendor/serde_json/src/lib.rs formats an f64 through format_args!("{x…")' >&2
    exit 1
}
step cargo test -q --test serde_stream float_text -- --ignored
# One collection run: the binary is a command line, a monitor and stderr
# around sweep::collect::run — it sweeps, cleans, folds, writes series,
# exports and registers nothing itself (sweep::series names the series),
# and has no switch for the influence pair.
for gone in sweep_arch_scheduled 'clean(' push_arch '_series(' write_artifacts '.append(' \
    '--no-influence'; do
    ! grep -qF -e "$gone" crates/sweep/src/bin/collect.rs || {
        echo "verify: crates/sweep/src/bin/collect.rs contains '$gone'" >&2
        exit 1
    }
done
step cargo bench -p bench-harness --bench telemetry_overhead
step cargo run --release -p sweep --bin omptel-report -- --self-check

# The runs the CLI legs below compare: a cold and a warm `collect tiny`
# off one cache (their byte-identity with each other, with a half-warm and
# a damaged cache and across workers 4/2/1 is tier-1's
# tests/collect_pipeline.rs, in-process), then a traced, a monitored and a
# perturbed one. All five record into $coherence_dir/.ompobs, the out-dir
# sibling default.
echo
echo "==> collect tiny: cold, then warm off the same cache"
coherence_dir="$(mktemp -d)"
collect_pid=""
cleanup() {
    [ -n "$collect_pid" ] && kill "$collect_pid" 2>/dev/null || true
    rm -rf "$coherence_dir"
}
trap cleanup EXIT
collect_tiny() { # collect_tiny RUN OPTIONS... — `collect tiny` into $coherence_dir/RUN
    local run="$1"
    shift
    cargo run --release -p sweep --bin collect -- tiny "$coherence_dir/$run" "$@" 2>/dev/null
}
collect_tiny cold --workers 4 --cache-dir "$coherence_dir/cache"
collect_tiny warm --workers 2 --cache-dir "$coherence_dir/cache"

# Trace validation: a live traced collect run must (a) leave the
# provenance byte-identical to the untraced runs above, and (b) export a
# structurally valid trace — spans well-nested per thread, every
# cross-worker flow resolved, drop count reported by trace-check.
echo
echo "==> flight-recorder trace validation (live traced collect)"
collect_tiny traced --workers 4 --cache-dir "$coherence_dir/trace-cache" \
    --trace "$coherence_dir/traced/trace.json"
cmp "$coherence_dir/cold/provenance.jsonl" "$coherence_dir/traced/provenance.jsonl" || {
    echo "verify: traced sweep provenance diverged from untraced sweep" >&2
    exit 1
}
echo "traced and untraced provenance byte-identical"
step cargo run --release -p sweep --bin trace-check -- \
    "$coherence_dir/traced/trace.json"

# Live monitor: a monitored collect run must serve valid Prometheus
# /metrics, /healthz, the /sweep JSON (including the ring-buffer and
# watchdog telemetry counters), and the streaming /influence ranking
# while the sweep is running, and still produce byte-identical
# provenance to the unmonitored runs.
echo
echo "==> live monitor gate (/metrics, /healthz, /sweep, /influence, /energy while sweeping)"
http_get() { # http_get HOST:PORT PATH — plain HTTP/1.0 over /dev/tcp
    local host="${1%:*}" port="${1##*:}"
    exec 3<>"/dev/tcp/$host/$port"
    printf 'GET %s HTTP/1.0\r\n\r\n' "$2" >&3
    cat <&3
    exec 3<&- 3>&-
}
collect_tiny monitored --workers 2 --cache-dir "$coherence_dir/mon-cache" \
    --monitor 127.0.0.1:0 &
collect_pid=$!
addr=""
for _ in $(seq 1 1000); do
    if [ -s "$coherence_dir/monitored/monitor.addr" ]; then
        # First line is the address; later lines are sidecar context
        # (the registry directory), so no whole-file parse here.
        addr="$(head -n1 "$coherence_dir/monitored/monitor.addr" | tr -d '[:space:]')"
        break
    fi
    sleep 0.01
done
[ -n "$addr" ] || { echo "verify: monitor.addr never appeared" >&2; exit 1; }
# Connect to every route at once, while the sweep is running: the
# monitor answers every connection queued before it shuts down, so it
# does not matter how few accept polls (one per 10 ms) a ~100 ms tiny
# sweep leaves it. Only a connection attempted after the run is over
# can fail, and it fails as refused — say so, route by route.
routes=(metrics healthz sweep runs influence energy)
scrape_pids=()
for route in "${routes[@]}"; do
    http_get "$addr" "/$route" >"$coherence_dir/scrape.$route" &
    scrape_pids+=($!)
done
for i in "${!routes[@]}"; do
    wait "${scrape_pids[$i]}" || {
        echo "verify: monitor exited before /${routes[$i]} could be scraped" >&2
        exit 1
    }
done
need "$coherence_dir/scrape.metrics" '^# TYPE omptel_regions_total counter' \
    "/metrics is not valid Prometheus exposition"
need "$coherence_dir/scrape.metrics" '^omptel_sweep_total ' \
    "/metrics is missing the sweep progress gauges"
need "$coherence_dir/scrape.metrics" '^omptel_sweep_energy_joules ' \
    "/metrics is missing the modeled-energy gauges"
need "$coherence_dir/scrape.healthz" '^ok$' "/healthz did not answer ok"
need "$coherence_dir/scrape.sweep" '"scope"' "/sweep JSON is missing the scope field"
need "$coherence_dir/scrape.sweep" '"omptel_ring_dropped_total"' \
    "/sweep JSON is missing the ring drop counter"
need "$coherence_dir/scrape.sweep" '"watchdog"' "/sweep JSON is missing the watchdog counters"
need "$coherence_dir/scrape.sweep" '"priced_batches"' \
    "/sweep JSON is missing the warm-engine counters"
need "$coherence_dir/scrape.runs" '"records"' "/runs is not serving the run-registry listing"
need "$coherence_dir/scrape.influence" '"influence"' \
    "/influence is not serving the streaming ranking"
need "$coherence_dir/scrape.influence" '"OMP_PROC_BIND"' \
    "/influence ranking is missing the env features"
# Per-arch joules only appear as architectures complete, so mid-run we
# only require the document shape.
need "$coherence_dir/scrape.energy" '"schema":"ompwatt-energy-v1"' \
    "/energy is not serving the energy exposition"
need "$coherence_dir/scrape.energy" '"arches":\[' "/energy document is missing the arches array"
echo "live /metrics, /healthz, /sweep, /influence, /energy, /runs all answered mid-run"
wait "$collect_pid"
collect_pid=""
need "$coherence_dir/monitored/monitor.addr" '^registry ' \
    "monitor.addr sidecar is missing the registry line"
cmp "$coherence_dir/cold/provenance.jsonl" "$coherence_dir/monitored/provenance.jsonl" || {
    echo "verify: monitored sweep provenance diverged from unmonitored sweep" >&2
    exit 1
}
echo "monitored and unmonitored provenance byte-identical"

# Drift sentinel self-comparison: the cold and warm runs above share a
# seed, so their per-stratum virtual-time and energy series must be
# identical — ompobs drift has to say OK (exit 0; 4 would mean drift).
step cargo run --release -q -p ompobs -- \
    drift "$coherence_dir/cold" "$coherence_dir/warm"

# Longitudinal observatory gate: the four collect runs above share one
# registry and, same tree + same seed, one content address (asserted
# run by run in tests/collect_pipeline.rs), so the change-point sentinel
# must say OK over that history, and a deliberately perturbed fifth run
# (+10% virtual time on one architecture) must flip it to exit 4 with
# blame naming the perturbed slice.
echo
echo "==> longitudinal observatory gate (registry, sentinel, blame, report)"
expect_exit() { # expect_exit CODE WHAT CMD... — 0 clean, 4 moved, else broken
    local want="$1" what="$2" rc=0
    shift 2
    "$@" || rc=$?
    [ "$rc" -eq "$want" ] || {
        echo "verify: $what: ompobs exited $rc, expected $want" >&2
        exit 1
    }
}
obs_dir="$coherence_dir/.ompobs"
cargo run --release -q -p ompobs -- list --dir "$obs_dir"
expect_exit 0 "sentinel over the identical-run history" \
    cargo run --release -q -p ompobs -- sentinel --dir "$obs_dir"
[ -s "$obs_dir/history.json" ] || {
    echo "verify: sentinel did not write history.json" >&2
    exit 1
}
collect_tiny perturbed --workers 2 --cache-dir "$coherence_dir/cache" \
    --perturb skylake:1.10
expect_exit 4 "sentinel over the +10% skylake perturbation" \
    cargo run --release -q -p ompobs -- sentinel --dir "$obs_dir"
# The two-run comparison must see the same fault from the runs' tsdb/
# rings alone: cold vs perturbed is DRIFT (exit 4), not OK and not an
# error.
expect_exit 4 "drift of cold vs the +10% skylake perturbation" \
    cargo run --release -q -p ompobs -- \
    drift "$coherence_dir/cold" "$coherence_dir/perturbed"
[ -s "$coherence_dir/perturbed/drift.json" ] || {
    echo "verify: ompobs drift did not write drift.json beside the newer run" >&2
    exit 1
}
blame_out="$(cargo run --release -q -p ompobs -- blame --dir "$obs_dir")"
echo "$blame_out"
need <(echo "$blame_out") 'top regressed slice: skylake/' \
    "blame did not name the perturbed skylake slice"
cargo run --release -q -p ompobs -- report --dir "$obs_dir"
need <(head -1 "$obs_dir/report.html") '<!DOCTYPE html>' "report.html is missing the HTML prologue"
need <(tail -1 "$obs_dir/report.html") '</html>' "report.html is truncated"
need "$obs_dir/report.html" 'CHANGE-POINT' "report.html lost the change-point verdict"
echo "sentinel clean on identical history, change-point + drift + blame on the perturbed run, dashboard well-formed"

# Bench regression gates: a bench's fresh numbers must stay within the
# noise band of its committed baseline. sweep_warmcold first.
bench_gate() { # bench_gate BENCH BASELINE — run BENCH, then diff it against ./BASELINE
    echo
    echo "==> bench regression gate ($1 vs committed $2)"
    BENCH_OUT="$coherence_dir/$2" OMPOBS_DIR="$obs_dir" cargo bench -p bench-harness --bench "$1"
    step cargo run --release -p bench-harness --bin bench-diff -- \
        --baseline "$2" "$coherence_dir/$2" --band 2.0
}
bench_gate sweep_warmcold BENCH_sweep.json

# ompprof smoke: attribute a strided CG/Milan sweep and cross-check the
# top attributed variable against the logistic-regression influence
# ranking (exit 4 would mean they disagree); then render the
# best-vs-worst differential flame graphs and confirm the paper's
# 143.57x CG/Milan gap survives, the folded stacks parse (every line
# ends in an integer sample count), and the SVGs are well-formed.
echo
echo "==> ompprof smoke (attribution vs logreg, 143.57x gap, flame graphs)"
step cargo run --release -p ompprof -- attribute milan cg --check \
    --out "$coherence_dir/profile.json"
need "$coherence_dir/profile.json" '"schema": "ompprof-attribution-v2"' \
    "profile.json is missing the attribution schema marker"
need "$coherence_dir/profile.json" '"energy_ranking"' \
    "profile.json is missing the energy-spread ranking"
# A dataset is outside input: one sample with an alignment no
# architecture sweeps must end in exit 1 naming the sample, not a panic.
mkdir -p "$coherence_dir/foreign"
sed '0,/"align_alloc":256/s//"align_alloc":1024/' \
    "$coherence_dir/cold/raw_batches.json" >"$coherence_dir/foreign/raw_batches.json"
rc=0
cargo run --release -q -p ompprof -- attribute --data "$coherence_dir/foreign" \
    --out "$coherence_dir/foreign/profile.json" 2>"$coherence_dir/foreign.err" || rc=$?
[ "$rc" -eq 1 ] && grep -q 'sample config_index [0-9]*: .*align=1024' "$coherence_dir/foreign.err" || {
    echo "verify: ompprof attribute --data over a 1024-byte alignment exited $rc; expected 1 and the sample named" >&2
    exit 1
}
echo "foreign alignment in a dataset: exit 1, sample named"
diff_out="$(cargo run --release -q -p ompprof -- diff milan cg \
    --out-dir "$coherence_dir/flame")"
echo "$diff_out"
need <(echo "$diff_out") '143\.57x' "ompprof diff lost the paper's 143.57x CG/Milan gap"
for f in best worst; do
    awk 'NF < 2 || $NF !~ /^[0-9]+$/ { bad = 1 } END { exit bad }' \
        "$coherence_dir/flame/$f.folded" || {
        echo "verify: flame/$f.folded is not valid folded-stack format" >&2
        exit 1
    }
done
for svg in flame_best flame_worst flame_diff flame_energy_diff; do
    need <(head -1 "$coherence_dir/flame/$svg.svg") '^<?xml' \
        "flame/$svg.svg is missing the XML prologue"
    need <(tail -1 "$coherence_dir/flame/$svg.svg") '</svg>' "flame/$svg.svg is truncated"
done
echo "attribution agrees with logreg; folded stacks and flame SVGs well-formed"

# Energy disagreement gate: the headline ompwatt claim — at least one
# architecture's energy-optimal configuration differs from its
# time-optimal one — must hold (exit 4 from --check means it vanished),
# and the artifacts EXPERIMENTS.md and CI reference must be well-formed.
echo
echo "==> energy disagreement gate (ompwatt report --check)"
step cargo run --release -p ompwatt -- report cg --scope 200 --workers 4 \
    --out-dir "$coherence_dir/ompwatt" --check
need "$coherence_dir/ompwatt/disagreement.md" 'DISAGREE' \
    "disagreement.md lists no disagreeing architecture"
need <(head -1 "$coherence_dir/ompwatt/energy_heatmap.svg") '^<?xml' \
    "energy_heatmap.svg is missing the XML prologue"
need <(tail -1 "$coherence_dir/ompwatt/energy_heatmap.svg") '</svg>' \
    "energy_heatmap.svg is truncated"
need "$coherence_dir/ompwatt/ompwatt.json" '"schema": "ompwatt-report-v1"' \
    "ompwatt.json is missing the report schema marker"
echo "energy-vs-time disagreement holds; ompwatt artifacts well-formed"

# Schedule-space certification smoke: 25 generated programs x 64
# perturbed schedules (1600 pairs), every trace through the
# happens-before checker and the differential harness. Exit 4 means the
# campaign found a real schedule violation; any other failure is an
# internal error — both block, with distinct diagnostics.
echo
echo "==> schedule-space certification smoke (ompfuzz certify, 25x64)"
if cargo run --release -q -p ompfuzz -- certify --seeds 25 --schedules 64 \
    --budget-s 300 --out "$coherence_dir/certification.json"; then
    :
else
    rc=$?
    if [ "$rc" -eq 4 ]; then
        echo "verify: certification campaign found schedule violations (exit 4)" >&2
    else
        echo "verify: ompfuzz certify failed internally (exit $rc)" >&2
    fi
    exit 1
fi
pairs="$(grep -o '"pairs": *[0-9]*' "$coherence_dir/certification.json" | grep -o '[0-9]*')"
[ "${pairs:-0}" -ge 1000 ] || {
    echo "verify: certification covered only ${pairs:-0} (program, schedule) pairs (< 1000)" >&2
    exit 1
}
echo "certification clean over $pairs (program, schedule) pairs"

# Generator determinism must also hold under release codegen (the CI
# smoke above runs release): same seed, byte-identical artifacts.
step cargo test -p ompfuzz --release --test determinism -q

# Checker throughput gate: trace replay rate through check_trace must
# stay within the noise band of the committed baseline — the campaign
# above is checker-bound, so a replay regression shrinks CI coverage.
bench_gate checker_throughput BENCH_checker.json

# Attribution throughput gate: folding speed and the live-influence
# sweep overhead (<= 1.05x, asserted inside the bench) must stay within
# the noise band of the committed baseline.
bench_gate attribution_throughput BENCH_profile.json

# Export tail gate: write_raw_json, provenance build + write and tsdb
# append + flush per sample — the layers a warm `collect` consists of —
# and read_raw_json, which the analysis tools start with, must stay
# within the noise band of the committed baseline.
bench_gate export_tail BENCH_export.json

# Pipeline benchmark smoke: one pass per workload at the tiny scope, every
# output checked and every result line validated against BENCHMARK.json —
# the benchmark must keep building and running against the current tree.
step env CARGO_TARGET_DIR="$PWD/target" bash benchmark/run.sh --smoke \
    --out "$coherence_dir/bench_smoke"

echo
echo "verify: all gates passed"
