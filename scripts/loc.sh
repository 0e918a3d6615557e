#!/usr/bin/env bash
# LOC ledger: non-test Go lines of the root module, per top-level package
# and in total, so "net non-test LOC goes down" (ROADMAP item 5) is a number
# a PR can paste before and after. benchmark/ is its own module and is not
# counted. Usage: scripts/loc.sh [tree] (default: the checkout it lives in).
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' -print0 |
  xargs -0 wc -l |
  awk '$2 == "total" { next }
       {
         n = split($2, p, "/")  # ./internal/gcs/frame.go -> . internal gcs frame.go
         if (n == 2) pkg = "."  # a file at the module root
         else if (n > 3 && p[2] ~ /^(internal|cmd|examples)$/) pkg = p[2] "/" p[3]
         else pkg = p[2]
         lines[pkg] += $1; total += $1
       }
       END {
         for (pkg in lines) printf "%7d  %s\n", lines[pkg], pkg | "sort -k2"
         close("sort -k2")
         printf "%7d  total (root module, non-test)\n", total
       }'
