#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. Everything the build and the run write stays inside the
# checkout: the go caches and the binary under .bench_build/, results,
# traces and scratch files under bench/out/.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
# The go command's telemetry would start a detached uploader child on its
# first use of a fresh config directory; that child outlives this script.
# Mode "off" keeps the go command from starting it.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
if [ ! -f go.mod ]; then
	echo "bench/run.sh: no go.mod beside bench/: the program under test is not in this checkout" >&2
	exit 2
fi
go build -o "$build/tdb-bench" ./bench
exec "$build/tdb-bench" "$@"
