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
# One series namer: `collect` names and writes no series itself — that
# is sweep::series' two writers — and has no switch for the influence pair.
for gone in 'tsdb.append' '--no-influence'; do
    ! grep -qF -e "$gone" crates/sweep/src/bin/collect.rs || {
        echo "verify: crates/sweep/src/bin/collect.rs contains '$gone'" >&2
        exit 1
    }
done
step cargo bench -p bench-harness --bench telemetry_overhead
step cargo run --release -p sweep --bin omptel-report -- --self-check

# Cache coherence: a cold sweep and a warm replay from the sample cache
# must produce byte-identical provenance, even at different worker counts.
echo
echo "==> sweep cache coherence (cold vs warm provenance)"
coherence_dir="$(mktemp -d)"
collect_pid=""
cleanup() {
    [ -n "$collect_pid" ] && kill "$collect_pid" 2>/dev/null || true
    rm -rf "$coherence_dir"
}
trap cleanup EXIT
same_as_cold() { # same_as_cold RUN WHAT
    for f in provenance.jsonl samples.csv raw_batches.json; do
        cmp "$coherence_dir/cold/$f" "$coherence_dir/$1/$f" || {
            echo "verify: $2: $f diverged from the cold sweep" >&2
            exit 1
        }
    done
}
cargo run --release -p sweep --bin collect -- tiny "$coherence_dir/cold" \
    --workers 4 --cache-dir "$coherence_dir/cache" 2>/dev/null
cargo run --release -p sweep --bin collect -- tiny "$coherence_dir/warm" \
    --workers 2 --cache-dir "$coherence_dir/cache" 2>/dev/null
# The artifact tail writes provenance on a second thread at these worker
# counts and after the other files at workers 1 (the legs below): all
# three data files must come out the same.
same_as_cold warm "warm sweep"
# The byte-identity above must include the modeled joules: every
# provenance record carries its closed energy breakdown, so the cmp
# gates energy reproducibility too — but only if the fields are there.
grep -q '"total_j"' "$coherence_dir/cold/provenance.jsonl" || {
    echo "verify: provenance records carry no energy breakdown (total_j missing)" >&2
    exit 1
}
echo "cold and warm provenance byte-identical (modeled joules included)"

# A half-warm cache: with a64fx/ removed from a copy, a64fx recomputes
# and the other two replay. The recorded hit rate is per architecture —
# the cache handle's counters are cumulative over the run, and a rate
# built from them would read 900/1485 and 1875/2460.
echo
echo "==> per-architecture cache-hit series over a half-warm cache"
cp -r "$coherence_dir/cache" "$coherence_dir/cache-mixed"
rm -r "$coherence_dir/cache-mixed/a64fx"
cargo run --release -p sweep --bin collect -- tiny "$coherence_dir/mixed" \
    --workers 2 --cache-dir "$coherence_dir/cache-mixed" 2>/dev/null
same_as_cold mixed "sweep over a half-warm cache"
series_out="$(cargo run --release -q -p ompobs -- series "$coherence_dir/mixed")"
for want in "a64fx/rate/cache_hit 0.0000" "skylake/rate/cache_hit 1.0000" \
    "milan/rate/cache_hit 1.0000"; do
    awk -v s="${want% *}" -v m="${want#* }" '$1 == s && $NF == m { ok = 1 } END { exit !ok }' \
        <<<"$series_out" || {
        echo "verify: expected '$want' from ompobs series, got:" >&2
        grep 'rate/cache_hit' <<<"$series_out" >&2
        exit 1
    }
done
echo "a64fx 0.0000, skylake 1.0000, milan 1.0000"

# The same cache at a third worker count, sound and then damaged: with
# byte 3 of every batch header flipped nothing may answer, so the run
# recomputes everything (and rewrites the files) — and must still agree.
echo
echo "==> sample cache at workers 1: warm, then over damaged batch headers"
cargo run --release -p sweep --bin collect -- tiny "$coherence_dir/warm1" \
    --workers 1 --cache-dir "$coherence_dir/cache" 2>/dev/null
same_as_cold warm1 "warm sweep at workers 1"
echo "warm cache answers byte-identically (workers 4, 2, 1 all agree)"
bins="$(find "$coherence_dir/cache" -name '*.bin')"
[ -n "$bins" ] || { echo "verify: the cache holds no .bin batch files" >&2; exit 1; }
others="$(find "$coherence_dir/cache" -type f ! -name '*.bin')"
[ -z "$others" ] || {
    echo "verify: the cache holds more than <arch>/<stem>.bin files:" >&2
    echo "$others" >&2
    exit 1
}
for bin in $bins; do
    # Byte 3 of the magic is 'S' (0x53); its complement is 0xac.
    printf '\254' | dd of="$bin" bs=1 seek=3 conv=notrunc status=none
done
cargo run --release -p sweep --bin collect -- tiny "$coherence_dir/damaged" \
    --workers 1 --cache-dir "$coherence_dir/cache" 2>"$coherence_dir/damaged.err"
grep -q '^sample cache at .*: 0 hits, ' "$coherence_dir/damaged.err" || {
    echo "verify: a cache with every batch header damaged still answered lookups" >&2
    exit 1
}
same_as_cold damaged "sweep over damaged batch headers"
echo "damaged batch headers recompute byte-identically"

# Trace validation: a live traced collect run must (a) leave the
# provenance byte-identical to the untraced runs above, and (b) export a
# structurally valid trace — spans well-nested per thread, every
# cross-worker flow resolved, drop count reported by trace-check.
echo
echo "==> flight-recorder trace validation (live traced collect)"
cargo run --release -p sweep --bin collect -- tiny "$coherence_dir/traced" \
    --workers 4 --cache-dir "$coherence_dir/trace-cache" \
    --trace "$coherence_dir/traced/trace.json" 2>/dev/null
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
cargo run --release -p sweep --bin collect -- tiny "$coherence_dir/monitored" \
    --workers 2 --cache-dir "$coherence_dir/mon-cache" \
    --monitor 127.0.0.1:0 2>/dev/null &
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
metrics="$(cat "$coherence_dir/scrape.metrics")"
healthz="$(cat "$coherence_dir/scrape.healthz")"
sweep_json="$(cat "$coherence_dir/scrape.sweep")"
runs_json="$(cat "$coherence_dir/scrape.runs")"
influence_json="$(cat "$coherence_dir/scrape.influence")"
energy_json="$(cat "$coherence_dir/scrape.energy")"
grep -q '^# TYPE omptel_regions_total counter' <<<"$metrics" || {
    echo "verify: /metrics is not valid Prometheus exposition" >&2
    exit 1
}
grep -q '^omptel_sweep_total ' <<<"$metrics" || {
    echo "verify: /metrics is missing the sweep progress gauges" >&2
    exit 1
}
grep -q '^omptel_sweep_energy_joules ' <<<"$metrics" || {
    echo "verify: /metrics is missing the modeled-energy gauges" >&2
    exit 1
}
grep -q '^ok$' <<<"$healthz" || {
    echo "verify: /healthz did not answer ok" >&2
    exit 1
}
grep -q '"scope"' <<<"$sweep_json" || {
    echo "verify: /sweep JSON is missing the scope field" >&2
    exit 1
}
grep -q '"omptel_ring_dropped_total"' <<<"$sweep_json" || {
    echo "verify: /sweep JSON is missing the ring drop counter" >&2
    exit 1
}
grep -q '"watchdog"' <<<"$sweep_json" || {
    echo "verify: /sweep JSON is missing the watchdog counters" >&2
    exit 1
}
grep -q '"priced_batches"' <<<"$sweep_json" || {
    echo "verify: /sweep JSON is missing the warm-engine counters" >&2
    exit 1
}
grep -q '"records"' <<<"$runs_json" || {
    echo "verify: /runs is not serving the run-registry listing" >&2
    exit 1
}
grep -q '"influence"' <<<"$influence_json" || {
    echo "verify: /influence is not serving the streaming ranking" >&2
    exit 1
}
grep -q '"OMP_PROC_BIND"' <<<"$influence_json" || {
    echo "verify: /influence ranking is missing the env features" >&2
    exit 1
}
# Per-arch joules only appear as architectures complete, so mid-run we
# only require the document shape; the ring-series check below gates
# the recorded values after the run finishes.
grep -q '"schema":"ompwatt-energy-v1"' <<<"$energy_json" || {
    echo "verify: /energy is not serving the energy exposition" >&2
    exit 1
}
grep -q '"arches":\[' <<<"$energy_json" || {
    echo "verify: /energy document is missing the arches array" >&2
    exit 1
}
echo "live /metrics, /healthz, /sweep, /influence, /energy, /runs all answered mid-run"
wait "$collect_pid"
collect_pid=""
grep -q '^registry ' "$coherence_dir/monitored/monitor.addr" || {
    echo "verify: monitor.addr sidecar is missing the registry line" >&2
    exit 1
}
cmp "$coherence_dir/cold/provenance.jsonl" "$coherence_dir/monitored/provenance.jsonl" || {
    echo "verify: monitored sweep provenance diverged from unmonitored sweep" >&2
    exit 1
}
echo "monitored and unmonitored provenance byte-identical"
# The completed run must have recorded joules ring series alongside the
# virtual-time ones (one stratified series per arch, plus the per-arch
# totals the observatory trends).
ls "$coherence_dir/monitored/tsdb/"*@energy@*.omts >/dev/null 2>&1 || {
    echo "verify: collect wrote no energy ring series to tsdb/" >&2
    exit 1
}
echo "energy ring series recorded in tsdb/ alongside virtual time"

# Drift sentinel self-comparison: the cold and warm runs above share a
# seed, so their per-stratum virtual-time and energy series must be
# identical — ompobs drift has to say OK (exit 0; 4 would mean drift).
step cargo run --release -q -p ompobs -- \
    drift "$coherence_dir/cold" "$coherence_dir/warm"

# Longitudinal observatory gate: the seven collect runs above all share
# one registry ($coherence_dir/.ompobs, the out-dir sibling default).
# Same tree + same seed means every record must carry the same content
# address regardless of worker count, the change-point sentinel must
# say OK over that history, and a deliberately perturbed eighth run
# (+10% virtual time on one architecture) must flip the sentinel to
# exit 4 with blame naming the perturbed slice.
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
list_out="$(cargo run --release -q -p ompobs -- list --dir "$obs_dir")"
echo "$list_out"
collect_rows="$(awk '$3 == "collect"' <<<"$list_out" | wc -l)"
[ "$collect_rows" -ge 7 ] || {
    echo "verify: registry holds only $collect_rows collect record(s), expected the 7 runs above" >&2
    exit 1
}
unique_hashes="$(awk '$3 == "collect" { print $5 }' <<<"$list_out" | sort -u | wc -l)"
[ "$unique_hashes" -eq 1 ] || {
    echo "verify: identical sweeps produced $unique_hashes distinct content addresses (workers 4/2/1 must agree byte-for-byte)" >&2
    exit 1
}
echo "content addresses identical across workers 4, 2, 1 (and traced/monitored)"
expect_exit 0 "sentinel over the identical-run history" \
    cargo run --release -q -p ompobs -- sentinel --dir "$obs_dir"
[ -s "$obs_dir/history.json" ] || {
    echo "verify: sentinel did not write history.json" >&2
    exit 1
}
cargo run --release -p sweep --bin collect -- tiny "$coherence_dir/perturbed" \
    --workers 2 --cache-dir "$coherence_dir/cache" \
    --perturb skylake:1.10 2>/dev/null
# That unmonitored run's record carries the scheduler counters of its
# manifest and none of the session-gated engine counters, which read a
# closed gate there and were always zero.
last_record="$(tail -n1 "$obs_dir/registry.jsonl")"
grep -q '"plan_misses"' <<<"$last_record" && ! grep -q '"priced_batches"' <<<"$last_record" || {
    echo "verify: the last registry record's counters are not the six scheduler counters" >&2
    exit 1
}
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
grep -q 'top regressed slice: skylake/' <<<"$blame_out" || {
    echo "verify: blame did not name the perturbed skylake slice" >&2
    exit 1
}
cargo run --release -q -p ompobs -- report --dir "$obs_dir"
head -1 "$obs_dir/report.html" | grep -q '<!DOCTYPE html>' || {
    echo "verify: report.html is missing the HTML prologue" >&2
    exit 1
}
tail -1 "$obs_dir/report.html" | grep -q '</html>' || {
    echo "verify: report.html is truncated" >&2
    exit 1
}
grep -q 'CHANGE-POINT' "$obs_dir/report.html" || {
    echo "verify: report.html lost the change-point verdict" >&2
    exit 1
}
echo "sentinel clean on identical history, change-point + drift + blame on the perturbed run, dashboard well-formed"

# Bench regression gate: fresh sweep_warmcold numbers must stay within
# the noise band of the committed baseline.
echo
echo "==> bench regression gate (sweep_warmcold vs committed baseline)"
BENCH_OUT="$coherence_dir/bench_sweep.json" OMPOBS_DIR="$obs_dir" \
    cargo bench -p bench-harness --bench sweep_warmcold
step cargo run --release -p bench-harness --bin bench-diff -- \
    --baseline BENCH_sweep.json "$coherence_dir/bench_sweep.json" --band 2.0

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
grep -q '"schema": "ompprof-attribution-v2"' "$coherence_dir/profile.json" || {
    echo "verify: profile.json is missing the attribution schema marker" >&2
    exit 1
}
grep -q '"energy_ranking"' "$coherence_dir/profile.json" || {
    echo "verify: profile.json is missing the energy-spread ranking" >&2
    exit 1
}
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
grep -q '143\.57x' <<<"$diff_out" || {
    echo "verify: ompprof diff lost the paper's 143.57x CG/Milan gap" >&2
    exit 1
}
for f in best worst; do
    awk 'NF < 2 || $NF !~ /^[0-9]+$/ { bad = 1 } END { exit bad }' \
        "$coherence_dir/flame/$f.folded" || {
        echo "verify: flame/$f.folded is not valid folded-stack format" >&2
        exit 1
    }
done
for svg in flame_best flame_worst flame_diff flame_energy_diff; do
    head -1 "$coherence_dir/flame/$svg.svg" | grep -q '^<?xml' || {
        echo "verify: flame/$svg.svg is missing the XML prologue" >&2
        exit 1
    }
    tail -1 "$coherence_dir/flame/$svg.svg" | grep -q '</svg>' || {
        echo "verify: flame/$svg.svg is truncated" >&2
        exit 1
    }
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
grep -q 'DISAGREE' "$coherence_dir/ompwatt/disagreement.md" || {
    echo "verify: disagreement.md lists no disagreeing architecture" >&2
    exit 1
}
head -1 "$coherence_dir/ompwatt/energy_heatmap.svg" | grep -q '^<?xml' || {
    echo "verify: energy_heatmap.svg is missing the XML prologue" >&2
    exit 1
}
tail -1 "$coherence_dir/ompwatt/energy_heatmap.svg" | grep -q '</svg>' || {
    echo "verify: energy_heatmap.svg is truncated" >&2
    exit 1
}
grep -q '"schema": "ompwatt-report-v1"' "$coherence_dir/ompwatt/ompwatt.json" || {
    echo "verify: ompwatt.json is missing the report schema marker" >&2
    exit 1
}
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
echo
echo "==> checker throughput gate (checker_throughput vs committed baseline)"
BENCH_OUT="$coherence_dir/bench_checker.json" OMPOBS_DIR="$obs_dir" \
    cargo bench -p bench-harness --bench checker_throughput
step cargo run --release -p bench-harness --bin bench-diff -- \
    --baseline BENCH_checker.json "$coherence_dir/bench_checker.json" --band 2.0

# Attribution throughput gate: folding speed and the live-influence
# sweep overhead (<= 1.05x, asserted inside the bench) must stay within
# the noise band of the committed baseline.
echo
echo "==> attribution throughput gate (attribution_throughput vs committed baseline)"
BENCH_OUT="$coherence_dir/bench_profile.json" OMPOBS_DIR="$obs_dir" \
    cargo bench -p bench-harness --bench attribution_throughput
step cargo run --release -p bench-harness --bin bench-diff -- \
    --baseline BENCH_profile.json "$coherence_dir/bench_profile.json" --band 2.0

# Export tail gate: write_raw_json, provenance build + write and tsdb
# append + flush per sample — the layers a warm `collect` consists of —
# and read_raw_json, which the analysis tools start with, must stay
# within the noise band of the committed baseline.
echo
echo "==> export tail gate (export_tail vs committed baseline)"
BENCH_OUT="$coherence_dir/bench_export.json" OMPOBS_DIR="$obs_dir" \
    cargo bench -p bench-harness --bench export_tail
step cargo run --release -p bench-harness --bin bench-diff -- \
    --baseline BENCH_export.json "$coherence_dir/bench_export.json" --band 2.0

# Pipeline benchmark smoke: one pass per workload at the tiny scope, every
# output checked and every result line validated against BENCHMARK.json —
# the benchmark must keep building and running against the current tree.
step env CARGO_TARGET_DIR="$PWD/target" bash benchmark/run.sh --smoke \
    --out "$coherence_dir/bench_smoke"

echo
echo "verify: all gates passed"
