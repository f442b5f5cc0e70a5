#!/usr/bin/env bash
# Builds rwrd and the benchmark from this checkout, then runs one benchmark
# run: bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run it from the repository root. Build outputs, the Go build cache and the
# generated graph stay under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config/go/telemetry"
# Keep every file the go command writes (build cache, module cache, temp
# files, the user config directory) inside the checkout, and never reach
# for the network. Telemetry is off: in its default "local" mode the go
# command forks a detached sidecar that outlives the build.
printf 'off\n' >"$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local
go build -o "$out/rwrd" ./cmd/rwrd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -rwrd "$out/rwrd" -work "$out" "$@"
