#!/usr/bin/env bash
# Builds the armnet benchmark from source and runs it. Run it from the
# repository root; every build and run artifact stays under
# .bench_build/ (or $CARGO_TARGET_DIR when set) in that directory:
#
#   bash perfbench/run.sh --workload campus-dense --seed 1 --seconds 25 --trace 0
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp" "$out/home"

# The go command and its tools write caches, temporary files and local
# telemetry counters; keep all of them inside the build directory.
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -workdir "$out" "$@"
