#!/usr/bin/env bash
# Builds the benchmark driver and the two programs under test from the
# checkout this script sits in, then runs the driver with the given
# arguments. Everything the build and the run write lands under
# .bench_build/ in that checkout (Go's build cache included), so a run
# touches nothing outside it.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ] || [ ! -d cmd/odrserver ] || [ ! -d cmd/odrcoord ]; then
	echo "bench: $root is not a checkout of the repo (no go.mod, cmd/odrserver, cmd/odrcoord)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/home"
HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false \
	go build -o "$build/bin/" ./bench ./cmd/odrserver ./cmd/odrcoord

exec "$build/bin/bench" "$@"
