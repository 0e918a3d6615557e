#!/usr/bin/env bash
# Flake ledger for the two virtual-time paper reproductions that real-time
# interleaving can move (ROADMAP item 1): runs TestTable2ReproducesPaperPolicy
# and TestFig7ShapesMatchPaper N times on the working tree and N times on a
# git ref, alternating, and prints failures/N per test for each side — the
# comparison a PR that touches message timing pastes next to its numbers.
#
# It also keeps a determinism ledger (non-gating): in each pass each side
# runs `vdbench -exp fig3 -trace`, `-exp fig6` and `-exp table2` twice from
# one built binary with one seed, and the second table counts the passes
# whose two outputs were byte-identical. A run that is a function of its
# seed reads N/N.
# Usage: scripts/vtflake.sh [git-ref] [count]   (default: HEAD~1, 30)
#
# The ref is exported with `git archive` into a temporary directory (removed
# on exit), so nothing is registered in .git and an interrupted run leaves no
# stale worktree behind. Each side's test binary and vdbench are built once.
set -euo pipefail
cd "$(dirname "$0")/.."

ref=${1:-HEAD~1}
count=${2:-30}
tests="TestTable2ReproducesPaperPolicy TestFig7ShapesMatchPaper"
pkg=internal/experiment
exps=("fig3 -trace" "fig6" "table2")

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/ref"
git archive "$ref" | tar -x -C "$tmp/ref"

go test -c -o "$tmp/tree.test" "./$pkg"
go build -o "$tmp/tree.vdbench" ./cmd/vdbench
(cd "$tmp/ref" && go test -c -o "$tmp/ref.test" "./$pkg" && go build -o "$tmp/ref.vdbench" ./cmd/vdbench)
touch "$tmp/tree.same" "$tmp/ref.same"

# run SIDE DIR: one pass of both tests, output appended to SIDE's log, then
# one pass of the determinism ledger, each experiment that printed the same
# bytes twice appended to SIDE's .same list. The test binary runs from its
# package directory, as `go test` would run it.
run() {
	(cd "$2/$pkg" && "$tmp/$1.test" -test.run "^(${tests// /|})\$" -test.count=1 -test.timeout=10m) \
		>>"$tmp/$1.log" 2>&1 || true
	for e in "${exps[@]}"; do
		# shellcheck disable=SC2086 # $e is the experiment and its flags
		"$tmp/$1.vdbench" -seed 1 -exp $e >"$tmp/$1.out1" 2>&1 || true
		# shellcheck disable=SC2086
		"$tmp/$1.vdbench" -seed 1 -exp $e >"$tmp/$1.out2" 2>&1 || true
		if cmp -s "$tmp/$1.out1" "$tmp/$1.out2"; then
			echo "$e" >>"$tmp/$1.same"
		fi
	done
}

for i in $(seq "$count"); do
	if ((i % 2)); then
		run tree . && run ref "$tmp/ref"
	else
		run ref "$tmp/ref" && run tree .
	fi
	printf '.' >&2
done
echo >&2

printf '%-34s %12s %12s\n' "failures / $count" "tree" "$ref"
for t in $tests; do
	printf '%-34s %12s %12s\n' "$t" \
		"$(grep -c -- "^--- FAIL: $t " "$tmp/tree.log" || true)" \
		"$(grep -c -- "^--- FAIL: $t " "$tmp/ref.log" || true)"
done
echo
printf '%-34s %12s %12s\n' "identical twice / $count" "tree" "$ref"
for e in "${exps[@]}"; do
	printf '%-34s %12s %12s\n' "vdbench -exp $e" \
		"$(grep -cxF -- "$e" "$tmp/tree.same" || true)" \
		"$(grep -cxF -- "$e" "$tmp/ref.same" || true)"
done
