#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (go caches there
# too, so the run reads and writes only inside the checkout) and runs it
# with the given flags. Run from the repository root:
#
#   bash perfbench/run.sh --workload tm-rw --seed 1 --seconds 10 --trace 0
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
