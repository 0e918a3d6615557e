#!/usr/bin/env bash
# LOC ledger: non-test Go lines of the root module, per top-level package
# and in total, so "net non-test LOC goes down" (ROADMAP item 6) is a number
# a PR can paste before and after. benchmark/ is its own module and is not
# counted.
# Usage: scripts/loc.sh [tree]            (default: the checkout it lives in)
#        scripts/loc.sh --against <ref>   per package: <ref> / this checkout / delta
#
# The ref is exported with `git archive` into a temporary directory (removed
# on exit), as vtflake.sh does: nothing is registered in .git.
set -euo pipefail

# count TREE: "<lines> <package>" per package, then "<lines> total".
count() {
	(cd "$1" && find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' -print0 |
		xargs -0 wc -l) |
		awk '$2 == "total" { next }
		     {
		       n = split($2, p, "/")  # ./internal/gcs/frame.go -> . internal gcs frame.go
		       if (n == 2) pkg = "."  # a file at the module root
		       else if (n > 3 && p[2] ~ /^(internal|cmd|examples)$/) pkg = p[2] "/" p[3]
		       else pkg = p[2]
		       lines[pkg] += $1; total += $1
		     }
		     END {
		       for (pkg in lines) printf "%d %s\n", lines[pkg], pkg | "sort -k2"
		       close("sort -k2")
		       printf "%d total\n", total
		     }'
}

here=$(cd "$(dirname "$0")/.." && pwd)
if [[ ${1:-} != --against ]]; then
	count "${1:-$here}" | awk '{ printf "%7d  %s%s\n", $1, $2, $2 == "total" ? " (root module, non-test)" : "" }'
	exit
fi

ref=${2:?usage: scripts/loc.sh --against <git-ref>}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
git -C "$here" archive "$ref" | tar -x -C "$tmp"
printf '%-24s %8s %8s %7s\n' package "$ref" tree delta
# Every package on either side, sorted, the total last.
{ count "$tmp" | sed 's/^/before /'; count "$here" | sed 's/^/after /'; } |
	awk '{ n[$1 " " $3] = $2; seen[$3] = 1 }
	     END {
	       for (pkg in seen)
	         printf "%d %-24s %8d %8d %+7d\n", pkg == "total", pkg,
	           n["before " pkg], n["after " pkg], n["after " pkg] - n["before " pkg]
	     }' |
	sort -k1,1n -k2,2 | cut -d' ' -f2-
