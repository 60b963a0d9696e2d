#!/usr/bin/env bash
# Builds the serving benchmark from the checkout's own sources and runs
# it. Run from the repository root, for example:
#
#   bash _servebench/run.sh --workload crowd-vod --seed 1 --seconds 20 --trace 0
#   bash _servebench/run.sh --ladder --seed 1
#
# Every build artefact (binary, Go build cache, the go tool's scratch
# files) stays under .bench_build in the checkout.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "servebench: no sperke sources next to $here; run from a full checkout" >&2
	exit 3
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" \
	GOENV=off GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off GOPROXY=off
(cd "$here" && go build -o "$out/servebench" .)
exec "$out/servebench" "$@"
