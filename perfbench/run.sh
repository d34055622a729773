#!/usr/bin/env bash
# Builds treegiond and the perfbench binary from this checkout, then runs
# the benchmark. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload suite|stress|serve --seed N --seconds S --trace 0|1
#
# Build outputs, the Go build cache and run state stay inside the checkout,
# under $CARGO_TARGET_DIR (default .bench_build). Build logs go to standard
# error; the result is the last line of standard output.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"

if ! grep -qx 'module treegion' go.mod 2>/dev/null || [ ! -d cmd/treegiond ] || [ ! -d internal ]; then
	echo "perfbench: $root is not a treegion checkout (need go.mod, cmd/treegiond and internal/)" >&2
	exit 2
fi

build=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build/bin" "$build/gocache" "$build/gotmp" "$build/home" "$build/work"
build=$(cd "$build" && pwd)
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/home/go"
export GOMODCACHE="$build/home/go/mod" HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off GOTELEMETRY=off GOWORK=off

go build -o "$build/bin/treegiond" ./cmd/treegiond >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2

exec "$build/bin/perfbench" -daemon "$build/bin/treegiond" -workdir "$build/work" "$@"
