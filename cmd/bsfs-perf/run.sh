#!/usr/bin/env bash
# Builds bsfs-perf inside the checkout and runs it with the arguments
# given (see README.md). Run from the repository root:
#
#   bash cmd/bsfs-perf/run.sh --workload tcp-files --seed 1 --seconds 12 --trace 0
#
# The benchmark is a module of its own (go.mod beside this file) that
# imports the repository's packages through a replace directive.
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the go command's temporary files and
# its configuration directory included. Telemetry is switched off in that
# configuration directory before the go command first runs: in its
# default mode the go command leaves a detached child behind to tidy its
# counter files, which outlives a build that fails at once.
set -euo pipefail
out=$PWD/.bench_build
mkdir -p "$out/tmp" "$out/config/go/telemetry"
echo off >"$out/config/go/telemetry/mode"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOPATH=$out/gopath GOPROXY=off
go build -C cmd/bsfs-perf -o "$out/bsfs-perf" .
exec "$out/bsfs-perf" -scratch "$out/run" "$@"
