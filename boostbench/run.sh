#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, e.g.
#
#   bash boostbench/run.sh --workload cold_asm --seed 1 --seconds 30 --trace 0
#
# Run it from the root of the repository. The Go build cache, the binary
# and trace files all stay under .bench_build/ in that root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
export XDG_CONFIG_HOME="$out/config" GOENV=off
(cd "$root/boostbench" && go build -o "$out/boostbench" .)
exec "$out/boostbench" "$@"
