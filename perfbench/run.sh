#!/usr/bin/env bash
# Builds the benchmark harness and the gddr-serve gateway from this
# checkout into .bench_build/, then runs the harness with the given
# arguments. The Go build cache, temporary files and the go command's
# local telemetry (under XDG_CONFIG_HOME) stay in .bench_build/ too, so
# nothing outside the checkout is written. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload train --seed 1 --seconds 20 --trace 0
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a gddr checkout (go.mod and perfbench/go.mod)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0
go build -o "$out/gddr-serve" ./cmd/gddr-serve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -serve-bin "$out/gddr-serve" -workdir "$out" "$@"
