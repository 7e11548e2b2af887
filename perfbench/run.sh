#!/usr/bin/env bash
# Builds scaltoold and the perfbench harness from this checkout's source,
# then runs the harness with the given arguments. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload analyze-warm --seed 1 --seconds 30 --trace 0
#
# Every build artefact, Go cache and temporary file stays under
# .bench_build/ in the checkout. Without the repository's sources the builds
# fail and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/home"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export XDG_CACHE_HOME="$build/home/.cache"
export GOTOOLCHAIN=local
export GOENV=off
export GOFLAGS=

# With telemetry on (the default is "local"), every go command forks a
# detached sidecar that outlives this script. Turning it off in the
# checkout-local config directory keeps the go commands from starting it.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$build/bin/" ./cmd/scaltoold
(cd perfbench && go build -o "$build/bin/perfbench" .)

exec "$build/bin/perfbench" -bin "$build/bin" -tmp "$build/tmp" "$@"
