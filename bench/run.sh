#!/bin/sh
# Builds and runs the repository benchmark. Run it from the repository root:
#
#   sh bench/run.sh --workload plan-build --seed 1 --seconds 30 --trace 0
#   sh bench/run.sh -compare 'base/*.json' 'change/*.json'
#
# Everything the build and the run write (the Go build cache, the binaries,
# daemon logs, temporary files) goes under .bench_build/ in the current
# directory, and the Go toolchain is kept offline.
set -eu
if [ ! -f go.mod ] || [ ! -d cmd/hottilesd ] || [ ! -d cmd/spmmsim ]; then
	echo "bench/run.sh: run from the repository root: no go.mod or cmd/ here" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd bench && go build -o "$out/bin/bench" .)
exec "$out/bin/bench" -root "$PWD" "$@"
