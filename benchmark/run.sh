#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness from source into
# .bench_build/ (inside the checkout, git-ignored) and execs it with the
# driver's arguments. Everything the Go toolchain writes — build cache,
# module cache — is pointed inside the checkout too.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
bin="$out/vdwall"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOFLAGS=-mod=mod
export GOTOOLCHAIN=local
export GOPROXY=off
export CGO_ENABLED=0

# Rebuild only when a source file is newer than the binary: a no-op link
# still costs a second, and the driver invokes this ~90 times.
if [ ! -x "$bin" ] || [ -n "$(find "$here/.." -name .bench_build -prune -o \( -name '*.go' -o -name go.mod \) -newer "$bin" -print -quit)" ]; then
	mkdir -p "$out"
	(cd "$here" && go build -o "$bin" .) >&2
fi
exec "$bin" "$@"
