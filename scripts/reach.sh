#!/usr/bin/env bash
# Reach ledger (ROADMAP item 6, "evidence, not taste"): what code does
# anything run? Statement coverage of the whole root module
# (-coverpkg=./...) is taken on two sides:
#   tier-1  go test ./...
#   CLI     the vdbench experiments CI runs (-exp all; -exp chaos -seed 7
#           -chaos-runs 20; -exp slo; -exp shardscale), each writing its
#           perf-trajectory points with -bench-json as CI does, every example, a
#           default vdsim, a vdsim adapting under all four policy rules, a
#           vdsim firing every scripted event and a two-shard vdsim, each
#           built with -cover and run under GOCOVERDIR
# It prints the statement share of each side and of their union, then the
# functions neither side reaches, then the functions only tests reach: the
# candidates for deletion, or for a test that says why they exist.
#
# Not measured: scripts/live_smoke.sh. vdnode's roles (the TCP transport,
# introspection, the aggregator) are reached on the tier-1 side, by
# cmd/vdnode's tests, which run them in one process over loopback TCP.
# vdnode and promlint run once with -h, so that their statements count in
# the total; nothing that run reaches counts as reached.
#
# Paths that only a race of timers or goroutines takes (for example
# replication's handleResumeReq, a joiner asking to resume a transfer) can
# move between the lists from one run to the next with no change to the
# code, so one function moving is not evidence by itself.
#
# Usage: scripts/reach.sh
#
# Profiles live in a temporary directory, removed on exit. A failing test or
# run is reported and its coverage still counts.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/bin" "$tmp/test" "$tmp/cli" "$tmp/meta" "$tmp/bench"

echo "reach: tier-1 (go test ./...)" >&2
go test -count=1 -cover -coverpkg=./... ./... -args -test.gocoverdir="$tmp/test" >"$tmp/test.log" 2>&1 ||
	{ grep -E '^(--- FAIL|FAIL)' "$tmp/test.log" >&2 || true; echo "reach: go test failed; its coverage still counts" >&2; }

echo "reach: CLI runs" >&2
for p in ./cmd/*/ ./examples/*/; do
	go build -cover -coverpkg=./... -o "$tmp/bin/$(basename "$p")" "$p"
done
run() {
	(cd "$tmp" && GOCOVERDIR="$tmp/cli" "$tmp/bin/$1" "${@:2}") >>"$tmp/cli.log" 2>&1 ||
		echo "reach: $* exited non-zero; its coverage still counts" >&2
}
run vdbench -exp all -bench-json "$tmp/bench"
run vdbench -exp chaos -seed 7 -chaos-runs 20 -bench-json "$tmp/bench"
run vdbench -exp slo -bench-json "$tmp/bench"
run vdbench -exp shardscale -bench-json "$tmp/bench"
run vdsim
run vdsim -style warm-passive -requests 300 -adapt rate=600:200,avail=0.995:5,bwcap=3:2,burn=2:0.25:3 -slo 'p99<10ms,avail>0.999:25ms'
run vdsim -style warm-passive -requests 300 -switch-to active -switch-at 60 -crash-primary-at 120 -grow-at 180 -retire-at 240 -chaos drop=0.05,dup=0.05:7 -chaos-for 300ms
run vdsim -shards 2 -requests 200
for e in examples/*/; do
	run "$(basename "$e")"
done
for b in vdnode promlint; do
	GOCOVERDIR="$tmp/meta" "$tmp/bin/$b" -h </dev/null >/dev/null 2>&1 || true
done

# One text profile per side over the same blocks, those any binary links:
# the same package is instrumented in many binaries, and a block counts as
# reached when any of that side's reached it. A package no binary of a side
# links is unreached by that side, not absent from it.
for side in test cli meta; do
	go tool covdata textfmt -i="$tmp/$side" -o "$tmp/$side.raw"
done
awk -v dir="$tmp" '
	FNR == 1 { side = FILENAME; sub(/.*\//, "", side); sub(/\.raw$/, "", side); next }
	{ n[$1] = $2; if ($3 > 0) hit[side, $1] = 1 }
	END {
		split("test cli all", sides, " ")
		for (i in sides) print "mode: set" > (dir "/" sides[i] ".out")
		for (b in n) {
			t = (("test", b) in hit); c = (("cli", b) in hit)
			print b, n[b], t > (dir "/test.out")
			print b, n[b], c > (dir "/cli.out")
			print b, n[b], t || c > (dir "/all.out")
		}
	}' "$tmp/test.raw" "$tmp/cli.raw" "$tmp/meta.raw"

share() {
	awk 'NR > 1 { n += $2; if ($3) c += $2 } END { printf "%5.1f %%  (%d of %d statements)", 100 * c / n, c, n }' "$tmp/$1.out"
}
echo "statement share, root module"
printf '  %-7s %s\n' tier-1 "$(share test)" CLI "$(share cli)" union "$(share all)"

# funcs SIDE: "<file:line> <func> <reached 0/1>" per function, in one order
# for every side (the profiles hold the same blocks).
funcs() {
	go tool cover -func="$tmp/$1.out" |
		awk '$1 != "total:" { sub(/^versadep\//, "", $1); print $1, $2, ($3 == "0.0%") ? 0 : 1 }'
}
paste -d' ' <(funcs test) <(funcs cli) | awk '{ print $1, $2, $3, $6 }' >"$tmp/f"
echo
echo "functions reached by neither side ($(awk '!$3 && !$4' "$tmp/f" | wc -l))"
awk '!$3 && !$4 { printf "  %-56s %s\n", $1, $2 }' "$tmp/f"
echo
echo "functions reached only by tests ($(awk '$3 && !$4' "$tmp/f" | wc -l))"
awk '$3 && !$4 { printf "  %-56s %s\n", $1, $2 }' "$tmp/f"
