package replicator_test

import (
	"runtime"
	"testing"

	"versadep/internal/alloctest"
	"versadep/internal/codec"
	"versadep/internal/replication"
	"versadep/internal/replicator"
	"versadep/internal/simnet"
	"versadep/internal/vtime"
)

// requestAllocBudget is what one request may allocate end to end, summed
// over the client and three active replicas: 24.1 in most runs when the
// budget was set (23.0 to 24.2 over six), plus a tenth for the timers and
// heartbeats that run beside the requests. The wall-clock benchmark reports
// the same quantity as allocs_per_req on active3_simnet_c1; this holds it in
// tier-1. While every decoder returned a record of its own — each received
// group frame, replication envelope, VIOP request and reply — the same test
// read 47.1 to 48.0; while every received group frame was also wrapped in a
// record of its own and every call onto a member's goroutine made a closure
// and a channel 57.3; with every layer copying the payload into a buffer of
// its own (the envelope, the client's frame, each replica's reply frame)
// 62; with a trace name formatted at every layer crossing and every address
// decoded afresh from every frame 157.
const requestAllocBudget = 27

// payloadBufferBudget is how many payload-sized buffers one 4 KB request
// and its 4 KB reply may allocate end to end through three active
// replicas: 6.6 to 6.7 when the budget was set, 9.2 to 9.8 while each
// replica copied the argument its servant is handed, 14.9 to 15.5 while
// every layer seam cost a copy (the allocator's size classes round a 4 KB
// buffer with its headers up, hence the fractions). The six left are the
// client's request, the sequencer's re-frame of it, the reply each of the
// three replicas encodes (its reply cache keeps a window onto that frame),
// and the copy of the result the client decodes. A servant's arguments
// are views of the delivered request (see orb.Servant).
const payloadBufferBudget = 7

// echoApp replies with its first argument.
type echoApp struct{}

func (echoApp) Invoke(_ string, args []codec.Value) ([]codec.Value, error) { return args[:1], nil }

// measureRequests drives warmup requests, then measured ones, and returns
// the allocations and heap bytes the whole process made per measured one.
func measureRequests(t *testing.T, cl *replicator.ClientNode, object, op string, args []codec.Value, warmup, measured int) (allocs, bytes float64) {
	t.Helper()
	var vt vtime.Time
	drive := func(n int) {
		for i := 0; i < n; i++ {
			out, err := cl.ORB().Invoke(object, op, args, vt)
			if err != nil {
				t.Fatalf("invoke: %v", err)
			}
			vt = out.DoneVT
		}
	}
	drive(warmup)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	drive(measured)
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(measured),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(measured)
}

// TestRequestAllocationBudget counts every allocation the process makes
// while one client drives 2,000 requests through three active replicas on
// the in-memory network, after 500 requests of warm-up (tables filled,
// queues and rings grown).
func TestRequestAllocationBudget(t *testing.T) {
	if alloctest.Race {
		t.Skip("the race detector allocates on its own account")
	}
	net := simnet.New(simnet.WithSeed(5))
	defer net.Close()
	c := startCluster(t, net, 3, replication.Active, 0, nil)
	cl := startTestClient(t, net, "c1", c.members())

	perReq, _ := measureRequests(t, cl, "Counter", "add", []codec.Value{codec.String("x"), codec.Int(1)}, 500, 2000)
	t.Logf("%.1f allocations per request", perReq)
	if perReq > requestAllocBudget {
		t.Errorf("%.1f allocations per request, budget %d", perReq, requestAllocBudget)
	}
}

// TestRequestPayloadBufferBudget counts the payload-sized buffers one
// request allocates end to end: the heap bytes a 4 KB echo costs beyond
// those of a 16 B one, in units of 4 KB. Each layer a message crosses
// writes its header around the payload instead of copying it, so the count
// is fixed by who must hold a copy, not by how many layers there are.
func TestRequestPayloadBufferBudget(t *testing.T) {
	if alloctest.Race {
		t.Skip("the race detector allocates on its own account")
	}
	net := simnet.New(simnet.WithSeed(5))
	defer net.Close()
	c := startCluster(t, net, 3, replication.Active, 0, nil)
	for _, node := range c.nodes {
		node.Register("Echo", echoApp{})
	}
	cl := startTestClient(t, net, "c1", c.members())

	const size = 4 << 10
	_, small := measureRequests(t, cl, "Echo", "echo", []codec.Value{codec.Bytes(make([]byte, 16))}, 200, 1000)
	_, large := measureRequests(t, cl, "Echo", "echo", []codec.Value{codec.Bytes(make([]byte, size))}, 200, 1000)
	buffers := (large - small) / size
	t.Logf("%.1f payload-sized buffers per request (%.0f B for a 4 KB echo, %.0f B for a 16 B one)", buffers, large, small)
	if buffers > payloadBufferBudget {
		t.Errorf("%.1f payload-sized buffers per request, budget %d", buffers, payloadBufferBudget)
	}
}
