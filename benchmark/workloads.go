package main

import (
	"time"

	"versadep/internal/replication"
)

// rounds is how many fresh clusters one invocation builds per workload.
// The machine's speed is read before and after every round (calibrate.go),
// so the round count is also how often an invocation looks at the machine:
// when the time cap shrinks, each round's length shrinks, never the count.
const rounds = 8

// workloadSpec is one traffic mix over one cluster shape.
type workloadSpec struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json).
	Why string

	Style replication.Style
	// TCP selects loopback tcptransport endpoints instead of simnet.
	TCP bool
	// Conns is the number of client nodes (one endpoint each); InFlight is
	// the number of closed-loop callers sharing each one.
	Conns, InFlight int
	// OpenRate, when positive, replaces the closed loop with an open loop
	// issuing this many requests per second in total, split evenly over
	// Conns and timed from each request's due instant.
	OpenRate float64

	ReqBytes, ReplyBytes, StateBytes int
	CheckpointEvery                  int
	// Warmup is the fixed number of requests per connection issued before
	// the measured window, so set-up time scales with the code and not
	// with a timer.
	Warmup int
	// Failover runs crash/rejoin cycles during the measured window.
	Failover bool
}

// replicas is the group size of every workload (the paper's A(3)/P(3)).
const replicas = 3

// Client retry policy of every workload: the evaluation harness's own
// (internal/experiment buildEnv).
const (
	clientTimeout = 500 * time.Millisecond
	clientRetries = 20
)

// cycleSeconds is the target length of one crash/rejoin cycle on the
// failover workload: crash, one second later start a replacement, then
// long enough in steady state for the failure detector to learn the new
// member's heartbeat rhythm before the next crash.
const cycleSeconds = 3.0

var workloads = []workloadSpec{
	{
		Name:  "active3_simnet_c1",
		Why:   "3 active replicas, in-memory transport, 1 request in flight: RTT is the plain sum of serial per-message costs and goroutine hops (the paper's Fig. 3 micro-benchmark)",
		Style: replication.Active, Conns: 1, InFlight: 1,
		ReqBytes: 200, ReplyBytes: 160, StateBytes: 6144, CheckpointEvery: 5,
		Warmup: 2000,
	},
	{
		Name:  "passive3_tcp_c2x4",
		Why:   "3 warm-passive replicas over loopback TCP, 8 closed-loop callers: syscalls, sender queues, checkpoints and a sequencer queue do the work; the only workload where batching can show",
		Style: replication.WarmPassive, TCP: true, Conns: 2, InFlight: 4,
		ReqBytes: 200, ReplyBytes: 160, StateBytes: 6144, CheckpointEvery: 5,
		Warmup: 2000,
	},
	{
		Name:  "active3_simnet_4k_c2",
		Why:   "as active3_simnet_c1 with 4 KB request and reply on 2 connections: the same layers paid by the byte (copies, CRC seal, re-encoding, history retention) instead of by the message",
		Style: replication.Active, Conns: 2, InFlight: 1,
		ReqBytes: 4096, ReplyBytes: 4096, StateBytes: 6144, CheckpointEvery: 5,
		Warmup: 2000,
	},
	{
		Name:  "failover_passive3_simnet",
		Why:   "open loop at 500 req/s while the primary is crashed and replaced every few seconds: failure detection, view change, replay, client resend and state transfer, idle in the other three",
		Style: replication.WarmPassive, Conns: 2, OpenRate: 500,
		ReqBytes: 200, ReplyBytes: 160, StateBytes: 64 << 10, CheckpointEvery: 5,
		Warmup: 500, Failover: true,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}
