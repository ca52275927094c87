#!/usr/bin/env bash
# Builds mvdbd and the benchmark from the checkout it is run in, then runs
# the benchmark with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload read_scan --seed 1 --seconds 8 --trace 0
#   bash perfbench/run.sh --steady 5 --workloads read_span,write_mixed
#
# Everything it builds or writes stays under $CARGO_TARGET_DIR (default
# .bench_build): binaries, the Go build cache, WAL directories, the cached
# reference index, traces and runs.jsonl.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d cmd/mvdbd ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root (go.mod, cmd/mvdbd and perfbench/ must be here)" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -o "$out/mvdbd" ./cmd/mvdbd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --mvdbd "$out/mvdbd" --build-dir "$out" "$@"
