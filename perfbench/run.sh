#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the given
# arguments. Run from the repository root:
#
#	bash perfbench/run.sh --workload paths --seed 1 --seconds 20 --trace 0
#
# Every build artifact (binary, Go build cache, Go config dir) lands in
# .bench_build/ under the current directory, so nothing outside the
# checkout is read back or written. Build output goes to stderr; the last
# line of stdout is the benchmark's JSON result.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
