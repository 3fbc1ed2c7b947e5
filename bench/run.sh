#!/usr/bin/env bash
# Builds the wsync benchmark from the sources of the checkout it sits in
# and runs it with the given arguments, e.g.
#
#   bash bench/run.sh --workload engine-dense --seed 3 --seconds 20 --trace 0
#
# Everything the build writes (compiler cache, temporary files, the Go
# configuration and telemetry directory, the binary, spans of traced runs)
# goes under .bench_build/ at the root of the checkout. Without the wsync
# sources next to bench/ the build fails and the script exits non-zero
# without printing a result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C "$root/bench" build -o "$out/wsyncbench" .
cd "$root"
exec "$out/wsyncbench" "$@"
