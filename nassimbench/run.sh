#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark, e.g.
#
#   bash nassimbench/run.sh --workload onboard --seed 1 --seconds 25 --trace 0
#
# The Go build cache, temporary files and the binary stay under
# .nassimbench/ in the current directory.
set -euo pipefail
out="$PWD/.nassimbench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
# The commit is stamped only when the current directory is a git
# checkout's root; an exported tree reports "unknown".
commit=unknown
if [ "$(git rev-parse --show-toplevel 2>/dev/null)" = "$PWD" ]; then
	commit=$(git describe --always --dirty --abbrev=40)
fi
(cd nassimbench && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/nassimbench" .) >&2
exec "$out/nassimbench" "$@"
