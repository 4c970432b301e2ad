#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload h6-adv-sat --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare base.txt head.txt
#
# Everything the build writes (Go build cache, temporary files, the binary)
# stays under the build directory inside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/perfbench" ]]; then
	echo "perfbench: run from the repository root (no go.mod here)" >&2
	exit 2
fi
build=${CARGO_TARGET_DIR:-.bench_build}
[[ $build = /* ]] || build="$root/$build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
# The go command keeps its settings and telemetry counters under the user
# configuration directory; point it into the build directory too.
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
