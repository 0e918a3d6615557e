package replicator_test

import (
	"testing"
	"time"

	"versadep/internal/faults"
	"versadep/internal/simnet"
	"versadep/internal/trace"
	"versadep/internal/transport"
)

// TestTransferIdempotentUnderFullDuplication: with every frame on every
// link delivered twice, the chunked transfer protocol must stay exactly
// idempotent — duplicate KindStateChunk frames are absorbed by the joiner's
// chunk table, duplicate KindChunkAck frames never advance the leader's
// cursor twice, and duplicate KindResumeReq frames never rewind a flowing
// stream. The joiner converges byte-for-byte, and the leader's engine sends
// each chunk exactly once: duplication is pure network noise, not a trigger
// for resend storms.
func TestTransferIdempotentUnderFullDuplication(t *testing.T) {
	net := simnet.New(simnet.WithSeed(4177))
	defer net.Close()
	const pad = 32 << 10
	g := startTransferPair(t, net, pad)
	ra := g.ra

	base := ra.TraceSnapshot()
	baseSent := base.Get(trace.SubReplication, "transfer_bytes_sent")

	// Every frame on every link now arrives twice — join proposals,
	// sequenced traffic, chunks, acks and resume tokens alike.
	faults.SetLink("*", "*", transport.Rule{Dup: 1.0})(net)

	_, jApp := g.join(t, "rz", nil)
	g.waitSynced(t, "rz")
	g.waitEqualState(t, "rz", jApp, "joiner under full duplication")

	if dups := net.Stats().MessagesDuplicated; dups == 0 {
		t.Fatal("duplication fault never fired")
	}

	// No resend budget: the leader's engine makes one clean pass over the
	// state, and whatever the network duplicates stays below it.
	snap := ra.TraceSnapshot()
	sent := snap.Get(trace.SubReplication, "transfer_bytes_sent") - baseSent
	if state := int64(len(g.app.State())); sent != state {
		t.Fatalf("leader sent %d transfer bytes for a %d-byte state under duplication, want each chunk once", sent, state)
	}

	// The duplicated acks must not have double-completed the cursor.
	if got := snap.Get(trace.SubReplication, "transfer_completes") - base.Get(trace.SubReplication, "transfer_completes"); got != 1 {
		t.Fatalf("transfer_completes delta = %d, want exactly 1", got)
	}

	// And the group must still be healthy enough to make progress: clear
	// the fault and let the joiner participate in a fresh view.
	faults.SetLink("*", "*", transport.Rule{})(net)
	if err := g.WaitSize(3, 5*time.Second); err != nil {
		t.Fatal(err)
	}
}
