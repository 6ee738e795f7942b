#!/usr/bin/env bash
# Repository verification gate: build, tests, formatting, lints, then the
# CLI, live-monitor and bench legs. Usage: scripts/verify.sh, from anywhere;
# fails fast on the first broken step so CI output points at the culprit.

set -euo pipefail
cd "$(dirname "$0")/.."

banner() {
    echo
    echo "==> $*"
}
step() {
    banner "$*"
    "$@"
}
need() { # need FILE PATTERN MESSAGE — some line of FILE matches PATTERN
    grep -q -- "$2" "$1" || {
        echo "verify: $3" >&2
        exit 1
    }
}
expect_exit() { # expect_exit CODE WHAT CMD... — the tools' 0 clean, 4 findings, 1 error, 2 usage
    local want="$1" what="$2" rc=0
    shift 2
    "$@" || rc=$?
    [ "$rc" -eq "$want" ] || {
        echo "verify: $what: exited $rc, expected $want" >&2
        exit 1
    }
}

step cargo build --release --workspace
step cargo test --workspace -q

# The simrt lib tests share process-global telemetry; a test that races a
# session shows up as an intermittent failure, so one green run proves
# little. Twenty consecutive runs (~1 s) must all pass.
banner "simrt lib tests, 20 consecutive runs"
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

# The "written once" source rules (one variable table, one float path, one
# collection run, one exit path) are tier-1's tests/source_rules.rs, run by
# the workspace tests above. The JSON sink's own f64 text is held to
# core::fmt over random, artifact-like and tie inputs there; over every
# binade here. That every simulated configuration's time sinks close to
# its virtual total, and that master binding on CG/Milan is named
# barrier/imbalance wait, is tier-1's tests/model_sanity.rs.
step cargo test -q --test serde_stream float_text -- --ignored

# The runs the CLI legs below compare: a cold and a warm `collect tiny`
# off one cache (their byte-identity with each other, with a half-warm and
# a damaged cache and across workers 4/2/1 is tier-1's
# tests/collect_pipeline.rs, in-process), then a traced, a monitored and a
# perturbed one. All five record into $coherence_dir/.ompobs, the out-dir
# sibling default.
banner "collect tiny: cold, then warm off the same cache"
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
same_provenance() { # same_provenance RUN — RUN's provenance is byte-identical to the cold run's
    cmp "$coherence_dir/cold/provenance.jsonl" "$coherence_dir/$1/provenance.jsonl" || {
        echo "verify: $1 sweep provenance diverged from the plain sweep" >&2
        exit 1
    }
    echo "$1 and plain provenance byte-identical"
}
current_cache() { # current_cache DIR — DIR holds batch files, each an OMPSCB03 container
    local bins=0 bin
    while IFS= read -r -d '' bin; do
        bins=$((bins + 1))
        [ "$(head -c 8 "$bin")" = OMPSCB03 ] || {
            echo "verify: $bin does not start with OMPSCB03" >&2
            exit 1
        }
    done < <(find "$1" -name '*.bin' -print0)
    [ "$bins" -gt 0 ] || { echo "verify: no batch files under $1" >&2; exit 1; }
    echo "$bins batch files under $1, every one OMPSCB03"
}
collect_tiny cold --workers 4 --cache-dir "$coherence_dir/cache"
collect_tiny warm --workers 2 --cache-dir "$coherence_dir/cache"
current_cache "$coherence_dir/cache"

# Trace validation: a live traced collect run must (a) leave the
# provenance byte-identical to the untraced runs above, and (b) export a
# structurally valid trace — spans well-nested per thread, every
# cross-worker flow resolved, drop count reported by trace-check — whose
# span table has a row for the samples.
banner "flight-recorder trace validation (live traced collect)"
collect_tiny traced --workers 4 --cache-dir "$coherence_dir/trace-cache" \
    --trace "$coherence_dir/traced/trace.json"
same_provenance traced
current_cache "$coherence_dir/trace-cache"
cargo run --release -p sweep --bin trace-check -- "$coherence_dir/traced/trace.json" |
    tee "$coherence_dir/trace-check.txt"
need "$coherence_dir/trace-check.txt" '^  sample ' "trace-check printed no sample row"

# Live monitor: a monitored collect run must answer both routes below
# while the sweep is running, and still produce byte-identical provenance
# to the unmonitored runs.
banner "live monitor gate (/metrics, /healthz while sweeping)"
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
        addr="$(tr -d '[:space:]' <"$coherence_dir/monitored/monitor.addr")"
        break
    fi
    sleep 0.01
done
[ -n "$addr" ] || { echo "verify: monitor.addr never appeared" >&2; exit 1; }
# Connect to both routes at once, while the sweep is running: the monitor
# answers every connection queued before it shuts down, however few accept
# polls (one per 10 ms) a ~100 ms tiny sweep leaves it. Only a connection
# attempted after the run is over can fail, as refused — say so by route.
routes=(metrics healthz)
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
while IFS='|' read -r route pattern what; do
    need "$coherence_dir/scrape.$route" "$pattern" "/$route $what"
done <<'ROUTES'
metrics|^# TYPE omptel_regions_total counter|is not valid Prometheus exposition
metrics|^omptel_sweep_total |is missing the sweep progress gauges
metrics|^omptel_sweep_energy_joules |is missing the modeled-energy gauges
metrics|^omptel_ring_dropped_total |is missing the ring drop counter
metrics|^omptel_priced_batches_total |is missing the warm-engine counters
metrics|^omptel_influence_virt_omp_proc_bind |is missing the streaming influence ranking
healthz|^ok$|did not answer ok
ROUTES
echo "live /metrics and /healthz answered mid-run"
wait "$collect_pid"
collect_pid=""
same_provenance monitored
current_cache "$coherence_dir/mon-cache"

# Drift sentinel self-comparison: the cold and warm runs above share a
# seed, so their per-stratum virtual-time and energy series must be
# identical — ompobs drift has to say OK (exit 0; 4 would mean drift).
step cargo run --release -q -p ompobs -- drift "$coherence_dir/cold" "$coherence_dir/warm"

# Longitudinal observatory gate: the four collect runs above share one
# registry and, same tree + same seed, one content address (asserted
# run by run in tests/collect_pipeline.rs), so the change-point sentinel
# must say OK over that history, and a deliberately perturbed fifth run
# (+10% virtual time on one architecture) must flip it to exit 4 with
# blame naming the perturbed slice.
banner "longitudinal observatory gate (registry, sentinel, drift, blame)"
obs_dir="$coherence_dir/.ompobs"
cargo run --release -q -p ompobs -- list --dir "$obs_dir"
expect_exit 0 "sentinel over the identical-run history" \
    cargo run --release -q -p ompobs -- sentinel --dir "$obs_dir"
need "$obs_dir/history.json" . "sentinel did not write history.json"
collect_tiny perturbed --workers 2 --cache-dir "$coherence_dir/cache" --perturb skylake:1.10
expect_exit 4 "sentinel over the +10% skylake perturbation" \
    cargo run --release -q -p ompobs -- sentinel --dir "$obs_dir"
need "$obs_dir/history.json" '"change": true' \
    "history.json lost the change-point verdict"
# The two-run comparison must see the same fault from the runs' datasets
# alone: cold vs perturbed is DRIFT (exit 4), not OK, not an error.
expect_exit 4 "drift of cold vs the +10% skylake perturbation" \
    cargo run --release -q -p ompobs -- \
    drift "$coherence_dir/cold" "$coherence_dir/perturbed"
need "$coherence_dir/perturbed/drift.json" . \
    "ompobs drift did not write drift.json beside the newer run"
blame_out="$(cargo run --release -q -p ompobs -- blame --dir "$obs_dir")"
echo "$blame_out"
need <(echo "$blame_out") 'top regressed slice: skylake/' \
    "blame did not name the perturbed skylake slice"
echo "sentinel clean on identical history, change-point + drift + blame on the perturbed run"

# ompprof smoke: the top attributed variable of a strided CG/Milan sweep
# must agree with the logistic-regression influence ranking (--check:
# exit 4 if not), and `diff` must still print the recorded 142.76x time
# gap, the samples' 49.36x energy gap and the worst side's top sink.
# The artifacts' shape (schema markers, folded-stack lines, SVG prologue
# and epilogue) is held by ompprof's, ompwatt's and ompobs's own tests.
banner "ompprof smoke (attribution vs logreg, foreign dataset, 142.76x time and 49.36x energy gap)"
step cargo run --release -p ompprof -- attribute milan cg --check \
    --out "$coherence_dir/profile.json"
# A dataset is outside input: one sample with an alignment no
# architecture sweeps must end in exit 1 naming the sample, not a panic.
mkdir -p "$coherence_dir/foreign"
sed '0,/"align_alloc":256/s//"align_alloc":1024/' \
    "$coherence_dir/cold/raw_batches.json" >"$coherence_dir/foreign/raw_batches.json"
attribute_foreign() {
    cargo run --release -q -p ompprof -- attribute --data "$coherence_dir/foreign" \
        --out "$coherence_dir/foreign/profile.json" 2>"$coherence_dir/foreign.err"
}
expect_exit 1 "ompprof attribute --data over a 1024-byte alignment" attribute_foreign
need "$coherence_dir/foreign.err" 'sample config_index [0-9]*: .*align=1024' \
    "ompprof attribute --data did not name the sample with the foreign alignment"
echo "foreign alignment in a dataset: exit 1, sample named"
data_out="$(cargo run --release -q -p ompprof -- attribute --data "$coherence_dir/cold" --out "$coherence_dir/data-profile.json")"
need <(echo "$data_out") ' over all/all$' "ompprof attribute --data did not name the slice it folded"
need "$coherence_dir/data-profile.json" "\"samples\": $(wc -l <"$coherence_dir/cold/provenance.jsonl")," \
    "ompprof attribute --data did not fold one sample per provenance line"
diff_out="$(cargo run --release -q -p ompprof -- diff milan cg \
    --out-dir "$coherence_dir/flame")"
echo "$diff_out"
need <(echo "$diff_out") '142\.76x' "ompprof diff lost the recorded 142.76x CG/Milan gap"
need <(echo "$diff_out") '49\.36x modeled-energy gap' \
    "ompprof diff lost the samples' 49.36x CG/Milan energy gap"
need <(echo "$diff_out") 'worst config dominated by barrier/imbalance wait' \
    "ompprof diff no longer names barrier/imbalance wait as the worst side's top sink"

# Energy disagreement gate: the headline ompwatt claim — at least one
# architecture's energy-optimal configuration differs from its
# time-optimal one — must hold (exit 4 from --check means it vanished).
step cargo run --release -p ompwatt -- report cg --scope 200 --workers 4 \
    --out-dir "$coherence_dir/ompwatt" --check

# Schedule-space certification smoke: 25 generated programs x 64
# perturbed schedules (1600 pairs), every trace through the
# happens-before checker and the differential harness.
banner "schedule-space certification smoke (ompfuzz certify, 25x64)"
expect_exit 0 "ompfuzz certify (4 = schedule violations found, else internal)" \
    cargo run --release -q -p ompfuzz -- certify --seeds 25 --schedules 64 \
    --budget-s 300 --out "$coherence_dir/certification.json"
need "$coherence_dir/certification.json" '"pairs": *[0-9]\{4,\}' \
    "certification covered fewer than 1000 (program, schedule) pairs"

# Generator determinism must also hold under release codegen (the CI
# smoke above runs release): same seed, byte-identical artifacts.
step cargo test -p ompfuzz --release --test determinism -q

# Bench regression gates: every bench publishes one rep-array document;
# each of its series must stay within the noise band of the committed
# baseline (bench-diff: 2.0x band, then Wilcoxon over the reps). Keys
# without reps are informational; the per-sample counts behind the
# observer series are tier-1's tests/observer_counts.rs.
gates=(
    # sweeps, warm >= 5x cold (asserted), one recorder span and one registry fold
    sweep_warmcold:BENCH_sweep.json
    # the certification campaign above is checker-bound: a slower replay shrinks CI coverage
    checker_throughput:BENCH_checker.json
    # folding speed, one live-influence observe, the Figs. 2-4 fits
    attribution_throughput:BENCH_profile.json
    # the layers a warm `collect` consists of, and read_raw_json, which analysis starts with
    export_tail:BENCH_export.json
    # the real runtime's barrier/reduction/wait/schedule choices and what observing it costs,
    # on one team sized to the host (its parallelism, capped at 4)
    runtime_ablation:BENCH_runtime.json
)
for gate in "${gates[@]}"; do
    bench="${gate%%:*}" baseline="${gate##*:}"
    banner "bench regression gate ($bench vs committed $baseline)"
    BENCH_OUT="$coherence_dir/$baseline" OMPOBS_DIR="$obs_dir" \
        cargo bench -p bench-harness --bench "$bench"
    step cargo run --release -p bench-harness --bin bench-diff -- \
        --baseline "$baseline" "$coherence_dir/$baseline" --band 2.0
done

# Pipeline benchmark smoke: one pass per workload at the tiny scope, every
# output checked and every result line validated against BENCHMARK.json —
# the benchmark must keep building and running against the current tree.
step env CARGO_TARGET_DIR="$PWD/target" bash benchmark/run.sh --smoke \
    --out "$coherence_dir/bench_smoke"

banner "verify: all gates passed"
