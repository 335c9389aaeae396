#!/usr/bin/env bash
# Builds the memnet benchmark from the sources of the checkout it is run
# from and executes it with the given arguments:
#
#   bash perfbench/run.sh --workload figures --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binary, trace files) goes under .bench_build/ there.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"

# Keep the toolchain's caches and settings inside the checkout, and never
# let it fetch a toolchain or module.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off

commit=unknown
if top=$(git -C "$root" rev-parse --show-toplevel 2>/dev/null) && [ "$top" = "$root" ]; then
	commit=$(git -C "$root" rev-parse HEAD)
	git -C "$root" diff --quiet HEAD -- 2>/dev/null || commit="$commit+dirty"
fi
export PERFBENCH_COMMIT="$commit"

(cd "$here" && go build -buildvcs=false -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" --out-dir "$out" "$@"
