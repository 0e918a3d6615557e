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
// stream. The joiner converges byte-for-byte, and the leader sends each
// chunk essentially once: duplication is pure network noise, not a trigger
// for resend storms.
func TestTransferIdempotentUnderFullDuplication(t *testing.T) {
	net := simnet.New(simnet.WithSeed(4177))
	defer net.Close()
	const pad = 32 << 10
	ra, app := startTransferPair(t, net, pad)

	base := ra.TraceSnapshot()
	baseSent := base.Get(trace.SubReplication, "transfer_bytes_sent")
	baseResends := base.Get(trace.SubReplication, "transfer_chunk_resends")

	// Every frame on every link now arrives twice — join proposals,
	// sequenced traffic, chunks, acks and resume tokens alike.
	faults.SetLink("*", "*", transport.Rule{Dup: 1.0})(net)

	joiner, jApp := startJoiner(t, net, "rz", nil)
	waitSynced(t, joiner)
	waitEqualState(t, app, jApp, "joiner under full duplication")

	if dups := net.Stats().MessagesDuplicated; dups == 0 {
		t.Fatal("duplication fault never fired")
	}

	// Bounded resend budget: the leader's extra traffic must stay within a
	// small slack of one clean pass over the state (a stall-driven window
	// rewind or two is tolerable; re-sending the state wholesale is not).
	snap := ra.TraceSnapshot()
	sent := snap.Get(trace.SubReplication, "transfer_bytes_sent") - baseSent
	if sent > 2*pad {
		t.Fatalf("leader sent %d transfer bytes for a %d-byte state under duplication", sent, pad)
	}
	resends := snap.Get(trace.SubReplication, "transfer_chunk_resends") - baseResends
	if resends > 8 {
		t.Fatalf("%d chunk resends under pure duplication (want ~0: duplicates must not rewind the window)", resends)
	}

	// The duplicated acks must not have double-completed the cursor.
	if got := snap.Get(trace.SubReplication, "transfer_completes") - base.Get(trace.SubReplication, "transfer_completes"); got != 1 {
		t.Fatalf("transfer_completes delta = %d, want exactly 1", got)
	}

	// And the group must still be healthy enough to make progress: clear
	// the fault and let the joiner participate in a fresh view.
	faults.SetLink("*", "*", transport.Rule{})(net)
	waitViewSize(t, ra, 3)
	time.Sleep(50 * time.Millisecond)
}
