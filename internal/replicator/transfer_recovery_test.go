package replicator_test

// Transfer recovery across membership changes: the transfer moves only on
// view changes, so a leader that crashes, or a joiner that crashes and
// comes back under its old address, is recovered by the view change that
// follows, with no timer on either side.

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"versadep/internal/faults"
	"versadep/internal/gcs"
	"versadep/internal/replication"
	"versadep/internal/simnet"
	"versadep/internal/trace"
)

// cutAtChunk returns an observer that isolates addr once a transfer notice
// reaches chunk 16 of a longer transfer, and a channel closed when it has.
// The cut is a partition, made on the engine goroutine so it lands
// mid-transfer; the test crashes the isolated process afterwards.
func cutAtChunk(net *simnet.Network, addr string) (func(replication.Notice), <-chan struct{}) {
	var once sync.Once
	cut := make(chan struct{})
	return func(n replication.Notice) {
		if n.Kind == replication.NoticeTransfer && n.Chunk >= 16 && n.Chunk < n.Chunks {
			once.Do(func() {
				faults.Partition(addr, 2)(net)
				close(cut)
			})
		}
	}, cut
}

func awaitCut(t *testing.T, cut <-chan struct{}) {
	t.Helper()
	select {
	case <-cut:
	case <-time.After(10 * time.Second):
		t.Fatal("the transfer never reached chunk 16")
	}
}

// TestTransferLeaderCrashMidTransfer: in a three-member group the transfer
// leader crashes mid-transfer. The view change that removes it makes the
// joiner drop its partial state and ask the next member, which serves it a
// fresh transfer: the joiner ends synced from the new leader, holding the
// primary's exact state.
func TestTransferLeaderCrashMidTransfer(t *testing.T) {
	net := simnet.New(simnet.WithSeed(3331))
	defer net.Close()
	gc := gcs.DefaultConfig()
	g := startTransferGroup(t, net, 64<<10, &gc)
	rb := g.Nodes()[1]
	want := g.app.State()

	obs, cut := cutAtChunk(net, "ra")
	_, jApp := g.join(t, "rz", obs)
	awaitCut(t, cut)
	if synced := g.Nodes()[2].Engine().StatsSnapshot().Synced; synced {
		t.Fatal("the joiner synced before the leader was cut off")
	}
	net.Crash("ra")

	if err := g.Await(15*time.Second, func(recs map[string]replication.Stats) bool {
		z, b := recs["rz"], recs["rb"]
		return len(recs) == 2 && z.Synced && z.Members == 2 && !z.Transferring && !b.Transferring
	}); err != nil {
		t.Fatalf("the joiner never synced from the new leader: %v", err)
	}
	if got := rb.TraceSnapshot().Get(trace.SubReplication, "transfer_completes"); got != 1 {
		t.Errorf("rb completed %d transfers, want 1 (to rz)", got)
	}
	if got := jApp.State(); !bytes.Equal(got, want) {
		t.Fatalf("the joiner's state differs from the primary's (%d bytes, want %d)", len(got), len(want))
	}
}

// TestRestartedJoinerSyncsUnderItsOldAddress: a joiner crashes mid-transfer
// and, once the group has excluded it, a fresh process joins under the same
// address. The leader's cursor died with the view that removed the old
// process; the view that admits the new one starts a fresh transfer, and
// the group layer delivers it although the new process numbers its direct
// frames from 1 again.
func TestRestartedJoinerSyncsUnderItsOldAddress(t *testing.T) {
	net := simnet.New(simnet.WithSeed(3337))
	defer net.Close()
	gc := gcs.DefaultConfig()
	g := startTransferGroup(t, net, 64<<10, &gc)
	ra := g.ra

	obs, cut := cutAtChunk(net, "rz")
	old, _ := g.join(t, "rz", obs)
	awaitCut(t, cut)
	net.Crash("rz")
	faults.HealAddr("rz")(net)
	old.Stop()
	if err := g.WaitSize(2, 10*time.Second); err != nil {
		t.Fatalf("the crashed joiner was never excluded: %v", err)
	}
	startsBefore := ra.TraceSnapshot().Get(trace.SubReplication, "transfer_starts")

	_, jApp := g.join(t, "rz", nil)
	g.waitSynced(t, "rz")
	g.waitEqualState(t, "rz", jApp, "restarted joiner")
	if got := ra.TraceSnapshot().Get(trace.SubReplication, "transfer_starts") - startsBefore; got != 1 {
		t.Errorf("the leader started %d transfers to the restarted joiner, want 1", got)
	}
}
