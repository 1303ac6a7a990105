#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload median-big-shards --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the checkout. The Go build cache, the binary and
# the run records (reports, spans, digests) stay inside the checkout, under
# .bench_build/perfbench. See perfbench/README.md.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "run.sh: run from the root of a checkout (go.mod and perfbench/go.mod)" >&2
	exit 1
fi
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
