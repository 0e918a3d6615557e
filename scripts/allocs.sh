#!/usr/bin/env bash
# Allocation census of the request path: allocations per request by the
# function that made them (ROADMAP item 4's "call count × allocations per
# call"). It runs BenchmarkRequestPath (internal/replicator) with every
# allocation sampled, once for 200 requests and once for 2,200, and reports
# the difference per request, so set-up and warm-up cancel out. Rows under
# 0.05 per request are left out; the total counts them.
# Usage: scripts/allocs.sh                  this checkout
#        scripts/allocs.sh --against <ref>  per function: <ref> / this checkout / delta
#
# The ref is exported with `git archive` into a temporary directory (removed
# on exit), as loc.sh does: nothing is registered in .git. A ref older than
# the benchmark is measured with this checkout's copy of it.
set -euo pipefail

here=$(cd "$(dirname "$0")/.." && pwd)
bench_file=internal/replicator/request_path_test.go
benches=(simnet/active3 tcp/passive3)
small=200
big=2200
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# census TREE: "<bench> <allocations per request> <function>" per function.
census() {
	local dir
	dir=$(mktemp -d -p "$tmp")
	(cd "$1" && go test -c -o "$dir/replicator.test" ./internal/replicator)
	for bench in "${benches[@]}"; do
		for n in $small $big; do
			"$dir/replicator.test" -test.run '^$' -test.bench "RequestPath/$bench\$" -test.benchtime "${n}x" \
				-test.memprofilerate 1 -test.memprofile "$dir/$n.prof" >/dev/null
		done
		go tool pprof -sample_index=alloc_objects -top -nodecount=100000 -nodefraction=0 \
			-diff_base "$dir/$small.prof" "$dir/replicator.test" "$dir/$big.prof" 2>/dev/null |
			awk -v bench="$bench" -v n=$((big - small)) '
			  $2 ~ /%$/ && $1 ~ /^-?[0-9.e+]+$/ {  # flat flat% sum% cum cum% function
			    fn = $6; for (i = 7; i <= NF; i++) fn = fn " " $i
			    sub(/^versadep\/internal\//, "", fn)
			    if ($1 != 0) printf "%s %.4f %s\n", bench, $1 / n, fn
			  }'
	done
}

if [[ ${1:-} != --against ]]; then
	census "$here" | awk '
	  { bench = $1; v = $2; fn = $3; for (i = 4; i <= NF; i++) fn = fn " " $i
	    total[bench] += v; if (v >= 0.05 || v <= -0.05) printf "%s\t%.2f\t%s\n", bench, v, fn }
	  END { for (b in total) printf "%s\t%.2f\t(total)\n", b, total[b] }' |
		sort -t$'\t' -k1,1 -k2,2gr | awk -F'\t' '
		  $1 != last { printf "\nBenchmarkRequestPath/%s: allocations per request by function\n", $1; last = $1 }
		  { printf "%8s  %s\n", $2, $3 }'
	exit
fi

ref=${2:?usage: scripts/allocs.sh --against <git-ref>}
old=$tmp/ref
mkdir -p "$old"
git -C "$here" archive "$ref" | tar -x -C "$old"
[[ -f $old/$bench_file ]] || cp "$here/$bench_file" "$old/$bench_file"
{ census "$old" | sed 's/^/before /'; census "$here" | sed 's/^/after /'; } | awk '
  { side = $1; bench = $2; v = $3; fn = $4; for (i = 5; i <= NF; i++) fn = fn " " $i
    n[side, bench, fn] = v; seen[bench, fn] = 1; total[side, bench] += v }
  END {
    for (k in seen) {
      split(k, p, SUBSEP); b = n["before", p[1], p[2]]; a = n["after", p[1], p[2]]
      if (b >= 0.05 || a >= 0.05 || b <= -0.05 || a <= -0.05)
        printf "%s\t%.2f\t%.2f\t%+.2f\t%s\n", p[1], b, a, a - b, p[2]
    }
    for (k in total) if (index(k, "before")) {
      split(k, p, SUBSEP); b = total["before", p[2]]; a = total["after", p[2]]
      printf "%s\t%.2f\t%.2f\t%+.2f\t(total)\n", p[2], b, a, a - b
    }
  }' | sort -t$'\t' -k1,1 -k4,4g | awk -F'\t' -v ref="$ref" '
  $1 != last {
    printf "\nBenchmarkRequestPath/%s: allocations per request by function\n", $1
    printf "%8s %8s %8s  %s\n", ref, "tree", "delta", "function"; last = $1
  }
  { printf "%8s %8s %8s  %s\n", $2, $3, $4, $5 }'
