#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags,
# e.g. `bash benchmark/run.sh --workload batch --seed 1 --seconds 15 --trace 0`.
# Run from the repository root. The build cache, the binary and trace
# output stay under .bench_build/ (or $CARGO_TARGET_DIR when set), so
# nothing is written outside the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod ]]; then
	echo "benchmark: no go.mod at $root; run from a full checkout" >&2
	exit 1
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off
export XDG_CONFIG_HOME="$out/config"

(cd benchmark && go build -o "$out/kshot-benchmark" .)
exec "$out/kshot-benchmark" "$@"
