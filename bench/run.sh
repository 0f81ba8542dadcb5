#!/usr/bin/env bash
# Entry point of the benchmark (BENCHMARK.json's command): builds the bench
# binary from source into .bench_build/ under the current directory — the
# root of a checkout — and runs it with the given arguments. The Go build
# cache lives there too, so a run reads and writes only inside the checkout.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$(dirname "$0")" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
