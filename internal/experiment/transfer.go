package experiment

// The state-transfer benchmark: one full (uninterrupted) joiner transfer
// versus one interrupted mid-stream and resumed from the last acked cursor.
// The pair quantifies what the resumable protocol buys — the bytes a
// restart would have re-sent — and feeds the per-PR perf trajectory
// (BENCH_state_transfer.json).

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"versadep/internal/replication"
	"versadep/internal/trace"
)

// StateTransferResult is the benchmark outcome. Byte counts are engine-level
// chunk payloads from the leader's transfer counters; times are wall-clock
// (the protocol's retry machinery runs in real time).
type StateTransferResult struct {
	// StateBytes is the checkpoint size transferred.
	StateBytes int `json:"state_bytes"`
	// ChunkBytes is the transfer chunk size used.
	ChunkBytes int `json:"chunk_bytes"`
	// FullBytes/FullMs: an uninterrupted joiner transfer.
	FullBytes int64   `json:"full_bytes"`
	FullMs    float64 `json:"full_ms"`
	// OutageMs is the scripted partition duration in the resumed run.
	OutageMs float64 `json:"outage_ms"`
	// ResumedTotalBytes/ResumedMs: the interrupted transfer end to end
	// (including chunks sent before and during the outage).
	ResumedTotalBytes int64   `json:"resumed_total_bytes"`
	ResumedMs         float64 `json:"resumed_ms"`
	// BytesAfterHeal is what the leader sent once the link healed — the
	// cost of finishing from the cursor. A restart would have paid
	// FullBytes here instead.
	BytesAfterHeal int64 `json:"bytes_after_heal"`
	// BytesSkipped is the prefix the resume did not re-send (the leader's
	// transfer_bytes_resumed counter delta).
	BytesSkipped int64 `json:"bytes_skipped"`
	// Resumes is how many times the leader rewound the window.
	Resumes int64 `json:"resumes"`
}

// RunStateTransfer measures a full versus a resumed joiner state transfer
// on the simulated fabric: boot a two-replica active group carrying
// o.StateBytes of state, grow it by one replica (the full run), then grow
// again with a scripted partition cutting the joiner off mid-transfer and
// healing after outage (the resumed run).
func RunStateTransfer(o Options) (*StateTransferResult, error) {
	if o.TransferChunkBytes <= 0 {
		o.TransferChunkBytes = 1024
	}
	if o.TransferRetryEvery <= 0 {
		o.TransferRetryEvery = 50 * time.Millisecond
	}
	g := o.gcsConfig()
	g.SuspectAfter = 10 * time.Second // outage must not trigger view exclusion
	o.GCS = &g
	outage := 300 * time.Millisecond

	// The observer partitions the benchmark's second joiner once the leader
	// has seen cutChunk chunks acked, from inside the engine callback so the
	// cut lands deterministically mid-transfer.
	var (
		mu     sync.Mutex
		target string
		netRef func(addr string)
		cut    = make(chan struct{}, 1)
	)
	chunks := (o.StateBytes + o.TransferChunkBytes - 1) / o.TransferChunkBytes
	cutChunk := chunks / 4
	if cutChunk < 1 {
		cutChunk = 1
	}
	observer := func(n replication.Notice) {
		if n.Kind != replication.NoticeTransfer {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		// Leader-side progress notices carry the joiner as Peer.
		if target != "" && n.Peer == target && n.Chunk >= cutChunk && n.Chunk < n.Chunks {
			netRef(target)
			target = ""
			cut <- struct{}{}
		}
	}

	s, err := NewScenario(o, replication.Active, 2, 0, observer)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	netRef = func(addr string) { s.net.Partition(addr, 2) }

	leader := s.group.Nodes()[0]
	sent := func() int64 {
		return leader.TraceSnapshot().Get(trace.SubReplication, "transfer_bytes_sent")
	}
	// A fresh engine reports synced until its join view arrives, so the
	// wait requires group membership first, then the post-transfer sync;
	// the transfer is over once the leader has the joiner's last ack too.
	waitSynced := func(addr string, members int) error {
		err := s.group.Await(30*time.Second, func(recs map[string]replication.Stats) bool {
			j := recs[addr]
			return j.Members == members && j.Synced && !recs[leader.Addr()].Transferring
		})
		if err != nil {
			return fmt.Errorf("experiment: joiner %s never synced: %w", addr, err)
		}
		return nil
	}
	// The bootstrap join (replica-b) also runs the chunked path; let it
	// finish before measuring.
	if err := waitSynced("replica-b", 2); err != nil {
		return nil, err
	}

	res := &StateTransferResult{
		StateBytes: o.StateBytes,
		ChunkBytes: o.TransferChunkBytes,
		OutageMs:   float64(outage.Milliseconds()),
	}

	// Full run: grow by one, no faults.
	base := sent()
	start := time.Now()
	addr, err := s.Grow()
	if err != nil {
		return nil, err
	}
	if err := waitSynced(addr, 3); err != nil {
		return nil, err
	}
	res.FullMs = float64(time.Since(start).Microseconds()) / 1000
	res.FullBytes = sent() - base

	// Resumed run: grow again; the observer cuts the link at cutChunk, we
	// heal after the outage, and the transfer finishes from the cursor.
	resumesBase := leader.TraceSnapshot().Get(trace.SubReplication, "transfer_resumes")
	skippedBase := leader.TraceSnapshot().Get(trace.SubReplication, "transfer_bytes_resumed")
	base = sent()
	// Grow names replicas deterministically; announce the target before
	// the join so the observer can cut its transfer.
	mu.Lock()
	target = replicaAddr(len(s.group.Nodes()))
	mu.Unlock()
	start = time.Now()
	addr, err = s.Grow()
	if err != nil {
		return nil, err
	}
	select {
	case <-cut:
	case <-time.After(30 * time.Second):
		return nil, fmt.Errorf("experiment: transfer never reached chunk %d", cutChunk)
	}
	time.Sleep(outage)
	healAt := sent()
	s.net.HealAddr(addr)
	if err := waitSynced(addr, 4); err != nil {
		return nil, err
	}
	res.ResumedMs = float64(time.Since(start).Microseconds()) / 1000
	res.ResumedTotalBytes = sent() - base
	res.BytesAfterHeal = sent() - healAt
	res.BytesSkipped = leader.TraceSnapshot().Get(trace.SubReplication, "transfer_bytes_resumed") - skippedBase
	res.Resumes = leader.TraceSnapshot().Get(trace.SubReplication, "transfer_resumes") - resumesBase
	return res, nil
}

// RenderStateTransfer formats the benchmark for the terminal.
func RenderStateTransfer(r *StateTransferResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "State transfer (%d B state, %d B chunks)\n", r.StateBytes, r.ChunkBytes)
	fmt.Fprintf(&b, "  full transfer:     %6d B sent in %7.1f ms\n", r.FullBytes, r.FullMs)
	fmt.Fprintf(&b, "  resumed transfer:  %6d B sent in %7.1f ms (%.0f ms outage)\n",
		r.ResumedTotalBytes, r.ResumedMs, r.OutageMs)
	fmt.Fprintf(&b, "  after heal:        %6d B re-sent; %d B skipped by the cursor (%d resumes)\n",
		r.BytesAfterHeal, r.BytesSkipped, r.Resumes)
	return b.String()
}
