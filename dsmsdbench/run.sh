#!/usr/bin/env bash
# Builds the dsmsd benchmark from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash dsmsdbench/run.sh --workload fanout-http --seed 1 --seconds 10 --trace 0
#   bash dsmsdbench/run.sh steady --runs 10 --seconds 25
#
# Every build product, cache and span file stays under .bench_build in the
# checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off GOFLAGS=-mod=mod GOTOOLCHAIN=local
(cd "$root/dsmsdbench" && go build -o "$out/dsmsdbench" .) >&2
exec "$out/dsmsdbench" "$@"
