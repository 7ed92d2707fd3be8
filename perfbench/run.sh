#!/usr/bin/env bash
# Builds the perfbench harness and cmd/sdserve from this checkout, then
# runs the harness, passing every argument through:
#
#   bash perfbench/run.sh --workload cold_fleet --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under the output
# directory ($CARGO_TARGET_DIR, default .bench_build, relative to the
# checkout root): the Go build cache, both binaries, and the fleet's
# journals and logs.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false

(cd "$root" && go build -o "$out/sdserve" ./cmd/sdserve) >&2
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2

cd "$root"
exec "$out/perfbench" -sdserve "$out/sdserve" -run-dir "$out/run" "$@"
