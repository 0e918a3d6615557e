#!/usr/bin/env bash
# Live-cluster smoke tests over real TCP.
#
# Scenario 1: three vdnode replicas, one client driving the replicated
# counter, and a kill -9 of the primary mid-run. Passes iff the client
# completes its full request cycle despite the crash — the end-to-end
# failover guarantee on the real transport rather than the simulated
# fabric.
#
# Scenario 2: a joiner receiving a large chunked state transfer is
# kill -9'd mid-stream, then restarted under the same name and port.
# Passes iff the restarted joiner is re-admitted, receives a fresh
# transfer (the leader aborts the orphaned cursor when the joiner drops
# from the view), and reports synced — liveness of the transfer path
# across a joiner crash, riding the transport's dial-retry reconnect —
# and the leader starts or resumes a transfer to the joiner at most once
# per view change it installs: a transfer moves only on membership
# events.
#
# Scenario 3: a two-shard deployment — two independent 3-replica groups
# behind the consistent-hash routing tier, two sharded clients spraying
# the object keyspace across both, an aggregator scraping one member of
# each shard with a per-shard label, and a kill -9 of one shard's
# primary mid-run. Passes iff both clients complete every request (the
# killed shard fails over, the other is undisturbed) and the
# aggregator's merged multi-shard exposition lints clean.
set -euo pipefail
cd "$(dirname "$0")/.."

REQUESTS=${REQUESTS:-400}
WORK=$(mktemp -d)
PIDS=()
cleanup() {
  for pid in "${PIDS[@]}"; do kill -9 "$pid" 2>/dev/null || true; done
  rm -rf "$WORK"
}
trap cleanup EXIT

go build -o "$WORK/vdnode" ./cmd/vdnode
go build -o "$WORK/promlint" ./cmd/promlint

PEERS="ra=127.0.0.1:7001,rb=127.0.0.1:7002,rc=127.0.0.1:7003"
# Every replica serves live introspection and self-grades a lenient SLO,
# so the smoke can validate the /metrics exposition format and the /slo
# evaluation on a real deployment, not just in unit tests.
OBS_SLO="p99<250ms,avail>0.9:2s"

"$WORK/vdnode" -role replica -name ra -bind 127.0.0.1:7001 -peers "$PEERS" \
  -introspect 127.0.0.1:7021 -slo "$OBS_SLO" >"$WORK/ra.log" 2>&1 &
RA=$!
PIDS+=("$RA")
sleep 1
"$WORK/vdnode" -role replica -name rb -bind 127.0.0.1:7002 -seeds ra -peers "$PEERS" \
  -introspect 127.0.0.1:7022 -slo "$OBS_SLO" >"$WORK/rb.log" 2>&1 &
PIDS+=("$!")
sleep 1
"$WORK/vdnode" -role replica -name rc -bind 127.0.0.1:7003 -seeds ra -peers "$PEERS" \
  -introspect 127.0.0.1:7023 -slo "$OBS_SLO" >"$WORK/rc.log" 2>&1 &
PIDS+=("$!")
sleep 1

"$WORK/vdnode" -role client -name c1 -bind 127.0.0.1:7010 -members ra,rb,rc \
  -peers "$PEERS" -requests "$REQUESTS" >"$WORK/client.log" 2>&1 &
CLIENT=$!
PIDS+=("$CLIENT")

# Kill the primary once the client is demonstrably mid-run.
for _ in $(seq 1 100); do
  grep -q "request 50 ->" "$WORK/client.log" && break
  sleep 0.1
done
kill -9 "$RA"
echo "smoke: killed primary ra (pid $RA) mid-run"

fail() {
  echo "--- client.log ---"
  cat "$WORK/client.log"
  for r in ra rb rc; do
    echo "--- $r.log (tail) ---"
    tail -20 "$WORK/$r.log"
  done
  exit 1
}

if ! wait "$CLIENT"; then
  echo "smoke: client exited with an error after the primary crash"
  fail
fi
if ! grep -q "done: $REQUESTS requests" "$WORK/client.log"; then
  echo "smoke: client never reported completing all $REQUESTS requests"
  fail
fi
echo "smoke: client completed all $REQUESTS requests across a primary crash"
grep -h "failover complete" "$WORK"/r?.log || true

# Exposition + SLO checks against a surviving replica: every /metrics
# line must parse as well-formed Prometheus text (malformed families fail
# the build), and /slo must serve an evaluated attainment.
curl -sf http://127.0.0.1:7022/metrics >"$WORK/rb-metrics.txt" || {
  echo "smoke: could not scrape rb's /metrics"; fail; }
"$WORK/promlint" "$WORK/rb-metrics.txt" || {
  echo "smoke: rb's /metrics exposition is malformed"; fail; }
grep -q "versadep_replication_failovers" "$WORK/rb-metrics.txt" || {
  echo "smoke: rb's /metrics is missing replication counters"; fail; }
grep -q "versadep_process_goroutines" "$WORK/rb-metrics.txt" || {
  echo "smoke: rb's /metrics is missing process self-gauges"; fail; }
curl -sf http://127.0.0.1:7022/slo >"$WORK/rb-slo.json" || {
  echo "smoke: could not fetch rb's /slo"; fail; }
grep -q '"attainment"' "$WORK/rb-slo.json" || {
  echo "smoke: rb's /slo has no attainment field"; fail; }
echo "smoke: rb's /metrics exposition validates and /slo evaluates"

# ---------------------------------------------------------------------------
# Scenario 2: joiner crash mid-transfer, restart, resume to synced.
# A fresh two-replica group carries 2 MB of state in 2 KB chunks so the
# joiner transfer spans real wall time on loopback.
for pid in "${PIDS[@]}"; do kill -9 "$pid" 2>/dev/null || true; done
wait 2>/dev/null || true
PIDS=()

# 32 MB of state in 2 KB chunks with a window of 1 makes the transfer
# ack-round-trip bound — real wall time even on loopback, so the kill
# below lands mid-stream. The chunk flood can delay heartbeats, so the
# failure detector is loosened to 2 s (the post-kill sleep below must
# exceed it so the dead joiner leaves the view before its replacement
# asks to join).
XPEERS="xa=127.0.0.1:7101,xb=127.0.0.1:7102,xj=127.0.0.1:7103"
XFER_FLAGS=(-state-bytes $((32 * 1024 * 1024)) -transfer-chunk 2048 -transfer-window 1
  -suspect-after 2s)

"$WORK/vdnode" -role replica -name xa -bind 127.0.0.1:7101 -peers "$XPEERS" \
  "${XFER_FLAGS[@]}" >"$WORK/xa.log" 2>&1 &
PIDS+=("$!")
sleep 1
"$WORK/vdnode" -role replica -name xb -bind 127.0.0.1:7102 -seeds xa -peers "$XPEERS" \
  "${XFER_FLAGS[@]}" >"$WORK/xb.log" 2>&1 &
PIDS+=("$!")
for _ in $(seq 1 300); do
  grep -q "transfer complete" "$WORK/xb.log" && break
  sleep 0.1
done

start_joiner() {
  # exec replaces the subshell so $! is the vdnode pid, not a wrapper.
  exec "$WORK/vdnode" -role replica -name xj -bind 127.0.0.1:7103 -seeds xa -peers "$XPEERS" \
    "${XFER_FLAGS[@]}" -dial-attempts 12 -dial-backoff 100ms "$@"
}
start_joiner >"$WORK/xj.log" 2>&1 &
XJ=$!
PIDS+=("$XJ")

xfail() {
  for r in xa xb xj xj2; do
    echo "--- $r.log (tail) ---"
    tail -20 "$WORK/$r.log" 2>/dev/null || true
  done
  exit 1
}

# Kill the joiner once the leader reports its transfer in flight (the
# joiner itself only logs milestones on chunk receipt).
started=false
for _ in $(seq 1 500); do
  if grep -q "transfer started with xj" "$WORK/xa.log"; then started=true; break; fi
  sleep 0.02
done
if ! $started; then
  echo "smoke: leader never reported a transfer to the joiner"
  xfail
fi
kill -9 "$XJ"
if grep -q "transfer complete with xa" "$WORK/xj.log"; then
  echo "smoke: transfer finished before the kill landed — not a mid-transfer crash"
  xfail
fi
echo "smoke: killed joiner xj mid-transfer"
sleep 4

# Same name, same port: the group must re-admit it and transfer again.
start_joiner >"$WORK/xj2.log" 2>&1 &
PIDS+=("$!")
synced=false
for _ in $(seq 1 600); do
  if grep -q "transfer complete with xa" "$WORK/xj2.log" && \
     grep -q "synced=true" "$WORK/xj2.log"; then synced=true; break; fi
  sleep 0.1
done
if ! $synced; then
  echo "smoke: restarted joiner never resumed to synced"
  xfail
fi
echo "smoke: restarted joiner re-admitted and synced after mid-transfer crash"
grep -h "transfer" "$WORK/xj2.log" | head -3 || true
if ! awk '/view change:/ { n = 0 } /transfer (started|resumed) with xj/ { if (++n > 1) bad = 1 } END { exit bad }' "$WORK/xa.log"; then
  echo "smoke: the leader started or resumed more than one transfer to xj in one view"
  grep -hE "view change:|transfer (started|resumed) with xj" "$WORK/xa.log"
  xfail
fi
echo "smoke: the leader started $(grep -cE 'transfer (started|resumed) with xj' "$WORK/xa.log") transfers to xj across $(grep -c 'view change:' "$WORK/xa.log") view changes"

# ---------------------------------------------------------------------------
# Scenario 3: two shards, sharded clients, primary kill in one shard.
for pid in "${PIDS[@]}"; do kill -9 "$pid" 2>/dev/null || true; done
wait 2>/dev/null || true
PIDS=()

# Loopback TCP clears ~3k req/s, so the request count must be high
# enough that the primary kill below genuinely lands mid-run.
SHARD_REQUESTS=${SHARD_REQUESTS:-2000}
SPEERS="sa=127.0.0.1:7201,sb=127.0.0.1:7202,sc=127.0.0.1:7203,ta=127.0.0.1:7204,tb=127.0.0.1:7205,tc=127.0.0.1:7206"
SHARD_MEMBERS="0:sa,sb,sc;1:ta,tb,tc"

start_shard_replica() { # name bind shard seeds extra...
  local name=$1 bind=$2 shard=$3 seeds=$4; shift 4
  local args=(-role replica -name "$name" -bind "$bind" -peers "$SPEERS" -shard "$shard")
  [ -n "$seeds" ] && args+=(-seeds "$seeds")
  "$WORK/vdnode" "${args[@]}" "$@" >"$WORK/$name.log" 2>&1 &
  PIDS+=("$!")
}

start_shard_replica sa 127.0.0.1:7201 0/2 ""
start_shard_replica ta 127.0.0.1:7204 1/2 ""
sleep 1
start_shard_replica sb 127.0.0.1:7202 0/2 sa -introspect 127.0.0.1:7221
start_shard_replica tb 127.0.0.1:7205 1/2 ta -introspect 127.0.0.1:7222
sleep 1
start_shard_replica sc 127.0.0.1:7203 0/2 sa
start_shard_replica tc 127.0.0.1:7206 1/2 ta
TA_PID=${PIDS[1]}
sleep 1

"$WORK/vdnode" -role aggregator -bind 127.0.0.1:7230 \
  -scrape "sb@0=http://127.0.0.1:7221,tb@1=http://127.0.0.1:7222" \
  -scrape-every 500ms >"$WORK/agg.log" 2>&1 &
PIDS+=("$!")

"$WORK/vdnode" -role client -name c1 -bind 127.0.0.1:7210 -peers "$SPEERS" \
  -shard-members "$SHARD_MEMBERS" -requests "$SHARD_REQUESTS" >"$WORK/c1.log" 2>&1 &
C1=$!
PIDS+=("$C1")
"$WORK/vdnode" -role client -name c2 -bind 127.0.0.1:7211 -peers "$SPEERS" \
  -shard-members "$SHARD_MEMBERS" -requests "$SHARD_REQUESTS" >"$WORK/c2.log" 2>&1 &
C2=$!
PIDS+=("$C2")

sfail() {
  for f in c1 c2 sa sb sc ta tb tc agg; do
    echo "--- $f.log (tail) ---"
    tail -20 "$WORK/$f.log" 2>/dev/null || true
  done
  exit 1
}

# Kill shard 1's primary once both clients are demonstrably mid-run.
for _ in $(seq 1 400); do
  grep -q "request 50 ->" "$WORK/c1.log" && grep -q "request 50 ->" "$WORK/c2.log" && break
  sleep 0.05
done
kill -9 "$TA_PID"
echo "smoke: killed shard 1's primary ta (pid $TA_PID) mid-run"
if grep -q "done: $SHARD_REQUESTS requests" "$WORK/c1.log" && \
   grep -q "done: $SHARD_REQUESTS requests" "$WORK/c2.log"; then
  echo "smoke: WARNING both clients finished before the kill landed — raise SHARD_REQUESTS"
fi

for c in "$C1" "$C2"; do
  if ! wait "$c"; then
    echo "smoke: a sharded client exited with an error after the shard-primary crash"
    sfail
  fi
done
for f in c1 c2; do
  if ! grep -q "done: $SHARD_REQUESTS requests" "$WORK/$f.log"; then
    echo "smoke: $f never reported completing all $SHARD_REQUESTS requests"
    sfail
  fi
done
echo "smoke: both sharded clients completed all $SHARD_REQUESTS requests across a shard-primary crash"

# The aggregator's merged multi-shard exposition must lint clean and
# carry the per-shard labels (both the replicas' own shard info gauges,
# scraped directly, and the aggregator's labeled up-gauges). The clients
# can outrun the first scrape tick, so poll until both shards report up
# and the merged replica counters have landed.
scraped=false
for _ in $(seq 1 50); do
  if curl -sf http://127.0.0.1:7230/metrics >"$WORK/agg-metrics.txt" 2>/dev/null &&
     grep -q 'versadep_shard_up{shard="0",node="sb"} 1' "$WORK/agg-metrics.txt" &&
     grep -q 'versadep_shard_up{shard="1",node="tb"} 1' "$WORK/agg-metrics.txt" &&
     grep -q 'versadep_gcs_view_changes' "$WORK/agg-metrics.txt"; then
    scraped=true; break
  fi
  sleep 0.2
done
if ! $scraped; then
  echo "smoke: aggregator never served a merged exposition with both shards up"
  sfail
fi
"$WORK/promlint" "$WORK/agg-metrics.txt" || {
  echo "smoke: the aggregator's merged exposition is malformed"; sfail; }
for port in 7221 7222; do
  curl -sf "http://127.0.0.1:$port/metrics" >"$WORK/shard-$port.txt" || {
    echo "smoke: could not scrape the shard replica on $port"; sfail; }
  "$WORK/promlint" "$WORK/shard-$port.txt" || {
    echo "smoke: shard replica exposition on $port is malformed"; sfail; }
done
grep -q 'versadep_shard_info{shard="0"} 1' "$WORK/shard-7221.txt" || {
  echo "smoke: sb does not expose its shard info gauge"; sfail; }
grep -q 'versadep_shard_info{shard="1"} 1' "$WORK/shard-7222.txt" || {
  echo "smoke: tb does not expose its shard info gauge"; sfail; }
echo "smoke: merged multi-shard exposition lints clean with per-shard labels"
