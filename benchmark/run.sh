#!/usr/bin/env bash
# The one command of the omptune pipeline benchmark (see README.md).
#
#   benchmark/run.sh                       the whole suite, then the traced run
#   benchmark/run.sh --workload NAME --seed S --seconds N --trace 0|1
#                                          one run; its result is the last line
#   benchmark/run.sh --aa | --smoke | --help
#
# Builds the four binaries the workloads spawn and the harness, then hands
# every argument to the harness. Both builds land in one target directory:
# $CARGO_TARGET_DIR when set, benchmark/target otherwise.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
case "$CARGO_TARGET_DIR" in
  /*) ;;
  *) CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;;
esac

# Build chatter goes to standard error: standard output carries the result.
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
  -p sweep -p bench-harness -p ompprof \
  --bin collect --bin repro-tables --bin repro-figures --bin ompprof >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

exec "$CARGO_TARGET_DIR/release/omptune-benchmark" \
  --root "$root" --bin-dir "$CARGO_TARGET_DIR/release" "$@"
