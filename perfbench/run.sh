#!/usr/bin/env bash
# Builds snaptask-server and the benchmark from source, then runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# repository root ($CARGO_TARGET_DIR names that directory when set).
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOTOOLCHAIN=local GOPATH=$out/gopath
mkdir -p "$out/bin" "$GOTMPDIR"
go build -o "$out/bin/snaptask-server" ./cmd/snaptask-server
go -C perfbench build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" -server-bin "$out/bin/snaptask-server" -work "$out/work" "$@"
