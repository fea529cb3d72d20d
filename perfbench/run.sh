#!/usr/bin/env bash
# Builds perfbench from the sources of the flagsim checkout it is run
# from, then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload run-gen-cold --seed 1 --seconds 30 --trace 0
#
# Build outputs (binary, Go build cache) go to .bench_build/ in the
# checkout; nothing is written outside it.
set -euo pipefail

top=$(pwd)
if [[ ! -f "$top/go.mod" || ! -d "$top/internal/server" || ! -f "$top/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a flagsim checkout (go.mod, internal/, perfbench/)" >&2
	exit 2
fi
build="$top/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$top/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
