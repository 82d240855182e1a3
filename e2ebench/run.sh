#!/usr/bin/env bash
# Builds redisgraph-server and the e2ebench load generator from this
# checkout, then runs one benchmark workload. Run from the repository root:
#
#   bash e2ebench/run.sh --workload point-lookup --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and span files stay under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/redisgraph-server || ! -d internal || ! -f e2ebench/go.mod ]]; then
	echo "e2ebench: run from the root of a redisgraph checkout (server sources not found)" >&2
	exit 2
fi
out="$PWD/.bench_build/e2ebench"
mkdir -p "$out/tmp"
# Everything the build writes stays in the checkout; nothing is fetched.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off CGO_ENABLED=0
go build -o "$out/redisgraph-server" ./cmd/redisgraph-server
(cd e2ebench && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" -server "$out/redisgraph-server" -spans "$out/spans.jsonl" "$@"
