#!/usr/bin/env bash
# Builds the benchmark driver and the genasm-serve binary from the sources
# of the checkout it runs in, then makes one benchmark run:
#
#   bash perfbench/run.sh --workload map-short --seed 1 --seconds 10 --trace 0
#
# Run it from the root of a checkout. Everything the build and the run
# write (Go build cache, binaries, the reference FASTA the server loads)
# stays under .bench_build in that checkout.
set -euo pipefail

root="$(pwd)"
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/home" "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export XDG_CACHE_HOME="$build/home/.cache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0

(
	cd "$bench"
	go build -o "$build/perfbench" .
	go build -o "$build/genasm-serve" genasm/cmd/genasm-serve
) >&2

exec "$build/perfbench" -serve-bin "$build/genasm-serve" -workdir "$build/tmp" "$@"
