#!/usr/bin/env bash
# Builds the synts binary and the benchmark from this checkout, then runs
# one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload batch-all --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and the children's working directory
# all live under $CARGO_TARGET_DIR (default .bench_build), so nothing is
# written outside the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
# Without the program's sources there is nothing to build or measure:
# fail before any tool is started.
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/synts" ]; then
	echo "perfbench: $root holds no synts sources (go.mod, cmd/synts)" >&2
	exit 1
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gotmp" "$build/config/go/telemetry"

export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0
# With telemetry on, the go command starts a detached child that outlives
# the build; switched off, every build process has ended when go returns.
echo off >"$build/config/go/telemetry/mode"

(cd "$root" && go build -o "$build/synts" ./cmd/synts) >&2
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -synts "$build/synts" -work-dir "$build/run" "$@"
