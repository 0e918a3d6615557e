#!/usr/bin/env bash
# Round-length ledger: does the cluster slow down as it runs? Runs one
# workload of the wall-clock benchmark (through the unchanged
# benchmark/run.sh, which builds it) with short rounds and with long ones
# and prints throughput_rps and rtt_p50_us side by side with their ratio.
# Per-request cost that grows with history shows as a ratio away from 1:
# before the dedup set became a bitmap, 3 s rounds of active3_simnet_c1 ran
# at about half the speed of 0.5 s rounds.
# Usage: scripts/soak.sh [workload] [short-seconds] [long-seconds]
#   (default: active3_simnet_c1 4 24 — eight rounds each, so 0.5 s and 3 s)
set -euo pipefail
cd "$(dirname "$0")/.."

workload=${1:-active3_simnet_c1}
short=${2:-4}
long=${3:-24}

# run SECONDS: the last line of the benchmark's output is one JSON object.
run() {
	bash benchmark/run.sh --workload "$workload" --seconds "$1" 2>/dev/null | tail -n 1 ||
		{ echo "soak: benchmark/run.sh --workload $workload --seconds $1 failed" >&2; exit 1; }
}
# value JSON NAME
value() {
	sed -n "s/.*\"$2\":{\"value\":\([0-9.eE+-]*\).*/\1/p" <<<"$1"
}

a=$(run "$short")
b=$(run "$long")
printf '%-16s %14s %14s %8s\n' "$workload" "${short} s / 8" "${long} s / 8" "ratio"
for m in throughput_rps rtt_p50_us; do
	x=$(value "$a" "$m")
	y=$(value "$b" "$m")
	printf '%-16s %14.1f %14.1f %8.2f\n' "$m" "$x" "$y" "$(awk -v x="$x" -v y="$y" 'BEGIN { print y / x }')"
done
