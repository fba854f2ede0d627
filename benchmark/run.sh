#!/usr/bin/env bash
# Driver entry point: build the harness and the daemon under test inside
# the checkout (.bench_build/: Go's build cache, its scratch space and its
# telemetry counters included), then run the harness with the driver's
# arguments. Everything read or written stays under the directory this
# script's parent sits in. Pure-Go builds: cgo would hand linking to gcc,
# which writes under /tmp.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/work" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-buildvcs=false CGO_ENABLED=0
go build -o "$out/bin/artemis-bench" ./benchmark/cmd/artemis-bench
exec "$out/bin/artemis-bench" -bin-dir "$out/bin" -work "$out/work" "$@"
