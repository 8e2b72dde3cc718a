#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload fleet-steady --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, the journal directory and span dumps
# all stay under .bench_build in the current directory.
set -euo pipefail

out="${PWD}/.bench_build"
mkdir -p "${out}/tmp"
export GOCACHE="${out}/gocache"
export GOPATH="${out}/gopath"
export XDG_CONFIG_HOME="${out}/config"
export GOTMPDIR="${out}/tmp"
export TMPDIR="${out}/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly
export CGO_ENABLED=0

go -C perfbench build -o "${out}/perfbench" .
exec "${out}/perfbench" -out "${out}" "$@"
