#!/bin/sh
# Builds the slmob benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#	bash bench/run.sh --workload paper-day --seed 1 --seconds 20 --trace 0
#
# Everything the build writes stays under .bench_build/ in the current
# directory: the Go build cache, the module cache, the go command's own
# configuration and telemetry files, its scratch files, and the binary.
# The module has no external dependencies, so the build never needs the
# network.
set -eu
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= \
	go -C bench build -o "$out/slmob-bench" .
exec "$out/slmob-bench" "$@"
