#!/usr/bin/env bash
# Builds perfbench from this checkout and runs it with the given flags,
# e.g. bash perfbench/run.sh --workload sim-bulk-aead --seed 1 --seconds 10 --trace 0
# Run it from the repository root. The Go build cache, the go command's
# own config and telemetry, the binary and span dumps all stay under
# .bench_build in that root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
