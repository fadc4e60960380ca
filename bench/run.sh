#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build and the
# run leave behind (Go build cache, link scratch, binary, data, results) stays
# under bench/out, so the benchmark reads and writes only inside its checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
out="$PWD/out"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOTOOLCHAIN=local GOENV=off
go build -o "$out/palaemon-bench" .
cd ..
exec bench/out/palaemon-bench "$@"
