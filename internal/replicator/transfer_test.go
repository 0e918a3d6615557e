package replicator_test

// Acceptance tests for the chunked, resumable joiner state transfer:
// partition mid-transfer + heal-and-resume, monotonic convergence across
// repeated interruptions, concurrent joiners under the policy controller,
// and a loss burst mid-transfer. Fault injection rides internal/faults;
// raised GCS suspicion timeouts keep short partitions below the failure
// detector so the tests exercise recovery within a view — the group
// layer's direct outbox re-sending lost chunks — not view exclusion.

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"versadep/internal/codec"
	"versadep/internal/faults"
	"versadep/internal/gcs"
	"versadep/internal/policy"
	"versadep/internal/replication"
	"versadep/internal/replicator"
	"versadep/internal/simnet"
	"versadep/internal/trace"
	"versadep/internal/transport"
	"versadep/internal/vtime"
)

// blobApp is a counterApp with a large opaque pad in its state, so a state
// transfer spans many chunks.
type blobApp struct {
	mu     sync.Mutex
	counts map[string]int64
	pad    []byte
}

func newBlobApp(padBytes int) *blobApp {
	pad := make([]byte, padBytes)
	for i := range pad {
		pad[i] = byte(i * 7)
	}
	return &blobApp{counts: make(map[string]int64), pad: pad}
}

func (a *blobApp) Invoke(op string, args []codec.Value) ([]codec.Value, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch op {
	case "add":
		a.counts[args[0].Str] += args[1].Int
		return []codec.Value{codec.Int(a.counts[args[0].Str])}, nil
	case "get":
		return []codec.Value{codec.Int(a.counts[args[0].Str])}, nil
	default:
		return nil, fmt.Errorf("unknown op %q", op)
	}
}

func (a *blobApp) State() []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	e := codec.NewEncoder(len(a.pad) + 32)
	e.PutBytes(a.pad)
	e.PutUint32(uint32(len(a.counts)))
	keys := make([]string, 0, len(a.counts))
	for k := range a.counts {
		keys = append(keys, k)
	}
	// Two keys at most in these tests; insertion sort keeps it dependency
	// free and deterministic.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	for _, k := range keys {
		e.PutString(k)
		e.PutInt64(a.counts[k])
	}
	return e.Bytes()
}

func (a *blobApp) Restore(state []byte) error {
	d := codec.NewDecoder(state)
	pad, err := d.BytesCopy()
	if err != nil {
		return err
	}
	n, err := d.Uint32()
	if err != nil {
		return err
	}
	counts := make(map[string]int64, n)
	for i := uint32(0); i < n; i++ {
		k, err := d.String()
		if err != nil {
			return err
		}
		v, err := d.Int64()
		if err != nil {
			return err
		}
		counts[k] = v
	}
	a.mu.Lock()
	a.pad, a.counts = pad, counts
	a.mu.Unlock()
	return nil
}

// patientGCS raises the failure-detector timeout so a scripted partition
// shorter than SuspectAfter exercises recovery within a view instead of
// view exclusion.
func patientGCS() *gcs.Config {
	g := gcs.DefaultConfig()
	g.SuspectAfter = 10 * time.Second
	return &g
}

// transferCfg is the engine config the transfer tests share: small chunks
// over a big state.
func transferCfg(app *blobApp, obs func(replication.Notice)) replication.Config {
	return replication.Config{
		Style:              replication.Active,
		State:              app,
		Observer:           obs,
		TransferChunkBytes: 1024,
	}
}

// xferGroup is the replica group of a transfer test: ra holds the state,
// and every other replica receives it through the chunked path at join.
type xferGroup struct {
	*replicator.Group
	net *simnet.Network
	gcs *gcs.Config // every replica's
	ra  *replicator.ReplicaNode
	app *blobApp // ra's state
}

// startTransferPair boots a two-node group (ra holds padBytes of state; rb
// receives it through the chunked path at join) whose failure detector
// outlasts the tests' partitions.
func startTransferPair(t *testing.T, net *simnet.Network, padBytes int) *xferGroup {
	t.Helper()
	return startTransferGroup(t, net, padBytes, patientGCS())
}

// startTransferGroup is startTransferPair on the GCS config gc.
func startTransferGroup(t *testing.T, net *simnet.Network, padBytes int, gc *gcs.Config) *xferGroup {
	t.Helper()
	g := &xferGroup{Group: replicator.NewGroup(replicator.SimFabric(net)), net: net, gcs: gc, app: newBlobApp(padBytes)}
	t.Cleanup(g.Close)
	g.ra = g.add(t, "ra", nil, g.app, nil)
	g.add(t, "rb", []string{"ra"}, newBlobApp(0), nil)
	g.waitSynced(t, "rb")
	return g
}

// add starts a replica holding app, joining through seeds.
func (g *xferGroup) add(t *testing.T, addr string, seeds []string, app *blobApp, obs func(replication.Notice)) *replicator.ReplicaNode {
	t.Helper()
	cfg := transferCfg(app, obs)
	cfg.Model = g.net.CostModel()
	node, err := g.Add(addr, seeds, replicator.ReplicaConfig{GCS: g.gcs, Replication: cfg, Trace: trace.New()})
	if err != nil {
		t.Fatal(err)
	}
	node.Register("Counter", app)
	return node
}

// join starts an empty replica at addr that joins through ra and rb.
func (g *xferGroup) join(t *testing.T, addr string, obs func(replication.Notice)) (*replicator.ReplicaNode, *blobApp) {
	t.Helper()
	app := newBlobApp(0)
	return g.add(t, addr, []string{"ra", "rb"}, app, obs), app
}

// waitSynced waits until the replica at addr is synced in a view of every
// live replica and no transfer is pending anywhere: the joiner holds its
// state, and the leader has had the joiner's last ack.
func (g *xferGroup) waitSynced(t *testing.T, addr string) {
	t.Helper()
	if err := g.Await(15*time.Second, func(recs map[string]replication.Stats) bool {
		if j, ok := recs[addr]; !ok || !j.Synced || j.Members != len(recs) {
			return false
		}
		for _, r := range recs {
			if r.Transferring {
				return false
			}
		}
		return true
	}); err != nil {
		t.Fatalf("%s never synced: %v", addr, err)
	}
}

// waitEqualState waits until the replica at addr has executed as far as ra,
// then requires its state, app, to be ra's byte for byte.
func (g *xferGroup) waitEqualState(t *testing.T, addr string, app *blobApp, what string) {
	t.Helper()
	if err := g.Await(10*time.Second, func(recs map[string]replication.Stats) bool {
		return recs[addr].Synced && recs[addr].Executed == recs["ra"].Executed
	}); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if want, got := g.app.State(), app.State(); !bytes.Equal(want, got) {
		t.Fatalf("%s: state differs (want %d bytes, got %d)", what, len(want), len(got))
	}
}

func TestTransferResumesAfterPartitionHeal(t *testing.T) {
	// The headline acceptance scenario: partition the joiner mid-transfer,
	// heal the link, and require the transfer to finish from the last acked
	// cursor — the bytes the leader sends after the heal must be strictly
	// less than the full checkpoint — with the joiner reaching Synced and a
	// state hash identical to the primary's.
	net := simnet.New(simnet.WithSeed(3301))
	defer net.Close()
	g := startTransferPair(t, net, 64<<10)
	ra, app := g.ra, g.app
	cl := startTestClient(t, net, "client", []string{"ra", "rb"})

	var vt vtime.Time
	for i := 1; i <= 4; i++ {
		out, err := cl.Invoke("Counter", "add", []interface{}{"x", 1}, vt)
		if err != nil {
			t.Fatal(err)
		}
		vt = out.DoneVT
	}
	stateSize := len(app.State())

	// The joiner partitions itself once it has acked 16 chunks (~16KB of
	// ~64KB): squarely mid-transfer, with most of the state still unsent.
	var cut sync.Once
	partitioned := make(chan struct{})
	obs := func(n replication.Notice) {
		if n.Kind == replication.NoticeTransfer && n.Chunk >= 16 && n.Chunk < n.Chunks {
			cut.Do(func() {
				faults.Partition("rz", 2)(net)
				close(partitioned)
			})
		}
	}
	joiner, jApp := g.join(t, "rz", obs)

	select {
	case <-partitioned:
	case <-time.After(10 * time.Second):
		t.Fatal("transfer never reached chunk 16")
	}
	// Let the outage outlast many of the group layer's resend intervals,
	// so what recovers the chunks is retransmission, not in-flight delivery.
	retxAtCut := retransmits(ra)
	time.Sleep(400 * time.Millisecond)
	if joiner.Engine().StatsSnapshot().Synced {
		t.Fatal("joiner synced while partitioned; the cut landed too late")
	}

	sentAtHeal := ra.TraceSnapshot().Get(trace.SubReplication, "transfer_bytes_sent")
	faults.HealAddr("rz")(net)

	// The wait ends once the leader has the ack for the last chunk too.
	g.waitSynced(t, "rz")
	snap := ra.TraceSnapshot()
	resentAfterHeal := snap.Get(trace.SubReplication, "transfer_bytes_sent") - sentAtHeal
	if resentAfterHeal <= 0 {
		t.Fatal("no bytes sent after heal; transfer finished before the partition?")
	}
	if resentAfterHeal >= int64(stateSize) {
		t.Fatalf("resume re-sent %d bytes, want strictly less than the %d-byte checkpoint",
			resentAfterHeal, stateSize)
	}
	if got := snap.Get(trace.SubReplication, "transfer_completes"); got < 2 {
		t.Fatalf("transfer_completes = %d, want >= 2 (rb at boot + rz)", got)
	}

	// Identical state hash: the joiner holds exactly the primary's bytes.
	g.waitEqualState(t, "rz", jApp, "joiner after resume")

	// The recovery was the group layer's: the leader's direct outbox
	// re-sent frames across the outage.
	if got := retransmits(ra) - retxAtCut; got <= 0 {
		t.Fatal("the leader's group layer re-sent nothing across the outage")
	}
}

// retransmits reads a replica's group-layer retransmission counter.
func retransmits(n *replicator.ReplicaNode) int64 {
	return n.TraceSnapshot().Get(trace.SubGCS, "retransmits")
}

func TestTransferMonotonicAcrossRepeatedInterruptions(t *testing.T) {
	// Companion acceptance test: interrupt the same transfer three times in
	// a row. The cursor must never move backwards — each heal continues at
	// or past the last acked chunk, under the same checkpoint serial — and
	// the joiner still converges to the primary's exact state.
	net := simnet.New(simnet.WithSeed(3307))
	defer net.Close()
	g := startTransferPair(t, net, 64<<10)
	ra := g.ra

	// The observer cuts the link synchronously as the cursor crosses each
	// threshold — polling from the test goroutine would race a transfer
	// that completes in milliseconds on a quiet fabric.
	jObs := &observerLog{}
	cutAt := []int{8, 24, 40}
	cuts := make(chan int, len(cutAt))
	idx := 0
	var obsMu sync.Mutex
	obs := func(n replication.Notice) {
		jObs.observe(n)
		obsMu.Lock()
		defer obsMu.Unlock()
		if idx < len(cutAt) && n.Kind == replication.NoticeTransfer &&
			n.Chunk >= cutAt[idx] && n.Chunk < n.Chunks {
			faults.Partition("rz", 2)(net)
			cuts <- idx
			idx++
		}
	}
	joiner, jApp := g.join(t, "rz", obs)

	for cycle := 0; cycle < len(cutAt); cycle++ {
		select {
		case <-cuts:
		case <-time.After(10 * time.Second):
			t.Fatalf("cut %d never fired", cycle)
		}
		retxAtCut := retransmits(ra)
		time.Sleep(250 * time.Millisecond) // outlast many resend intervals
		if joiner.Engine().StatsSnapshot().Synced {
			t.Fatalf("joiner synced during partition cycle %d", cycle)
		}
		if retransmits(ra) == retxAtCut {
			t.Fatalf("the leader's group layer re-sent nothing during partition cycle %d", cycle)
		}
		faults.HealAddr("rz")(net)
	}
	g.waitSynced(t, "rz")
	g.waitEqualState(t, "rz", jApp, "joiner after three interruptions")

	// Monotonic convergence: one serial end to end, cursor non-decreasing.
	serials := map[uint64]bool{}
	last := -1
	for _, n := range jObs.find(replication.NoticeTransfer) {
		serials[n.Serial] = true
		if n.Chunk < last {
			t.Fatalf("cursor moved backwards: %d after %d", n.Chunk, last)
		}
		last = n.Chunk
	}
	if len(serials) != 1 {
		t.Fatalf("transfer restarted under new serials %v, want one serial end to end", serials)
	}
}

func TestConcurrentJoinersUnderPolicyController(t *testing.T) {
	// Two replicas growing simultaneously under the policy controller: both
	// must sync, every span must close, and the two transfer cursors must
	// not cross-talk (distinct per-joiner transfer traces, both applied).
	net := simnet.New(simnet.WithSeed(3313))
	defer net.Close()
	g := startTransferPair(t, net, 16<<10)
	ra := g.ra

	var mu sync.Mutex
	var joiners []*replicator.ReplicaNode
	var apps []*blobApp
	spawned := 0
	spawn := func(seeds []string) error {
		mu.Lock()
		defer mu.Unlock()
		if spawned >= 2 {
			return nil // target reached; later steps are no-ops
		}
		addr := fmt.Sprintf("rx%d", spawned)
		spawned++
		japp := newBlobApp(0)
		joiners = append(joiners, g.add(t, addr, seeds, japp, nil))
		apps = append(apps, japp)
		return nil
	}

	ctrl := policy.New(policy.Config{
		Policies: []policy.Policy{fixedReplicas{4}},
		Sample:   ra.Sensors(),
		Actuator: &replicator.ElasticActuator{Node: ra, Spawn: spawn},
		Gate:     ra.PolicyGate(),
	})
	// Two back-to-back steps before either join lands: both transfers run
	// concurrently.
	ctrl.Step()
	ctrl.Step()
	mu.Lock()
	n := spawned
	mu.Unlock()
	if n != 2 {
		t.Fatalf("controller spawned %d joiners, want 2", n)
	}

	if err := g.WaitSize(4, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	js := append([]*replicator.ReplicaNode(nil), joiners...)
	as := append([]*blobApp(nil), apps...)
	mu.Unlock()
	for i, j := range js {
		g.waitSynced(t, j.Addr())
		g.waitEqualState(t, j.Addr(), as[i], j.Addr())
	}

	// Both transfers completed and their causal traces are distinct — one
	// "xfer:ra>rxN#serial" timeline per joiner, no shared cursor.
	snaps := []trace.Snapshot{ra.TraceSnapshot()}
	for _, j := range js {
		snaps = append(snaps, j.TraceSnapshot())
	}
	merged := trace.Merge(snaps...)
	traces := map[string]bool{}
	for _, s := range merged.Spans {
		if strings.HasPrefix(s.Trace, "xfer:") {
			traces[s.Trace] = true
		}
	}
	for _, j := range js {
		found := false
		for tr := range traces {
			if strings.HasPrefix(tr, "xfer:ra>"+j.Addr()+"#") {
				found = true
			}
		}
		if !found {
			t.Fatalf("no transfer trace for %s in %v", j.Addr(), traces)
		}
	}
	if merged.SpansOpen != 0 {
		t.Fatalf("%d spans still open after concurrent joins", merged.SpansOpen)
	}
	if got := ra.TraceSnapshot().Get(trace.SubReplication, "transfers_active"); got != 0 {
		t.Fatalf("transfers_active gauge = %d after completion", got)
	}
}

// fixedReplicas is a static replica-count policy for controller-driven
// grow tests.
type fixedReplicas struct{ want int }

func (fixedReplicas) Name() string { return "fixed-replicas" }
func (p fixedReplicas) Decide(sig policy.Signals) policy.Decision {
	if sig.Replicas == p.want || sig.Replicas == 0 {
		return policy.Decision{}
	}
	return policy.Decision{Replicas: p.want, Reason: "test"}
}

func TestTransferSurvivesLossBurst(t *testing.T) {
	// A scripted loss burst mid-transfer (every frame leader→joiner dropped
	// for 300ms): the leader's direct outbox re-sends what was lost, and the
	// transfer completes once the burst passes.
	net := simnet.New(simnet.WithSeed(3319))
	defer net.Close()
	g := startTransferPair(t, net, 32<<10)
	ra := g.ra

	var burst sync.Once
	fired := make(chan struct{})
	obs := func(n replication.Notice) {
		if n.Kind == replication.NoticeTransfer && n.Chunk >= 8 && n.Chunk < n.Chunks {
			burst.Do(func() {
				var loss faults.Schedule
				loss.At(0, "burst", faults.SetLink("ra", "rz", transport.Rule{Drop: 1})).
					At(300*time.Millisecond, "burst-over", faults.SetLink("ra", "rz", transport.Rule{}))
				faults.Run(net, &loss)
				close(fired)
			})
		}
	}
	_, jApp := g.join(t, "rz", obs)

	select {
	case <-fired:
	case <-time.After(10 * time.Second):
		t.Fatal("transfer never reached chunk 8")
	}
	g.waitSynced(t, "rz")
	g.waitEqualState(t, "rz", jApp, "joiner after loss burst")
	if got := ra.TraceSnapshot().Get(trace.SubReplication, "transfer_completes"); got < 2 {
		t.Fatalf("transfer_completes = %d", got)
	}
}
