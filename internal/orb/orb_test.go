package orb_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"versadep/internal/codec"
	"versadep/internal/orb"
	"versadep/internal/simnet"
	"versadep/internal/trace"
	"versadep/internal/transport"
	"versadep/internal/vtime"
)

// echoServant returns its arguments and counts invocations.
type echoServant struct {
	mu    sync.Mutex
	calls int
}

func (s *echoServant) Invoke(op string, args []codec.Value) ([]codec.Value, error) {
	s.mu.Lock()
	s.calls++
	s.mu.Unlock()
	switch op {
	case "echo":
		return args, nil
	case "fail":
		return nil, errors.New("deliberate failure")
	default:
		return nil, fmt.Errorf("unknown op %q", op)
	}
}

func (s *echoServant) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

// slowServant declares a custom execution cost.
type slowServant struct{ cost vtime.Duration }

func (s *slowServant) Invoke(string, []codec.Value) ([]codec.Value, error) {
	return []codec.Value{codec.String("done")}, nil
}

func (s *slowServant) ExecCost(string, []codec.Value) vtime.Duration { return s.cost }

func TestRequestRoundTrip(t *testing.T) {
	r := &orb.Request{
		ClientID:  "client-1",
		ReqID:     42,
		Object:    "Counter",
		Operation: "add",
		Args:      []codec.Value{codec.Int(3), codec.String("x")},
	}
	got, err := orb.DecodeRequest(orb.EncodeRequest(r))
	if err != nil {
		t.Fatal(err)
	}
	if got.ClientID != r.ClientID || got.ReqID != r.ReqID ||
		got.Object != r.Object || got.Operation != r.Operation {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Args) != 2 || !codec.Equal(got.Args[0], r.Args[0]) || !codec.Equal(got.Args[1], r.Args[1]) {
		t.Fatalf("args mismatch: %+v", got.Args)
	}
}

func TestReplyRoundTrip(t *testing.T) {
	r := &orb.Reply{
		ClientID: "c",
		ReqID:    7,
		Status:   orb.StatusOK,
		Results:  []codec.Value{codec.Float(2.5)},
	}
	got, err := orb.DecodeReply(orb.EncodeReply(r))
	if err != nil {
		t.Fatal(err)
	}
	if got.ReqID != 7 || got.Status != orb.StatusOK || len(got.Results) != 1 {
		t.Fatalf("reply mismatch: %+v", got)
	}
	cid, rid, err := orb.PeekReplyID(orb.EncodeReply(r))
	if err != nil || string(cid) != "c" || rid != 7 {
		t.Fatalf("peek = %q %d %v", cid, rid, err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := orb.DecodeRequest([]byte("not viop at all")); !errors.Is(err, orb.ErrBadMagic) {
		t.Fatalf("err = %v", err)
	}
	// A reply is not a request.
	rep := orb.EncodeReply(&orb.Reply{ClientID: "c", ReqID: 1, Status: orb.StatusOK})
	if _, err := orb.DecodeRequest(rep); !errors.Is(err, orb.ErrBadType) {
		t.Fatalf("err = %v", err)
	}
	req := orb.EncodeRequest(&orb.Request{ClientID: "c", ReqID: 1})
	for i := 0; i < len(req); i++ {
		if _, err := orb.DecodeRequest(req[:i]); err == nil {
			t.Fatalf("truncated request %d/%d decoded", i, len(req))
		}
	}
}

func TestPropertyRequestRoundTrip(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(args []reflect.Value, r *rand.Rand) {
			n := r.Intn(4)
			vals := make([]codec.Value, n)
			for i := range vals {
				vals[i] = codec.Int(int64(r.Uint64()))
			}
			args[0] = reflect.ValueOf(&orb.Request{
				ClientID:  fmt.Sprintf("c%d", r.Intn(100)),
				ReqID:     r.Uint64(),
				Object:    fmt.Sprintf("o%d", r.Intn(10)),
				Operation: fmt.Sprintf("op%d", r.Intn(10)),
				Args:      vals,
			})
		},
	}
	f := func(r *orb.Request) bool {
		got, err := orb.DecodeRequest(orb.EncodeRequest(r))
		if err != nil {
			return false
		}
		if got.ClientID != r.ClientID || got.ReqID != r.ReqID || len(got.Args) != len(r.Args) {
			return false
		}
		for i := range r.Args {
			if !codec.Equal(got.Args[i], r.Args[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestReplyEncodingDeterministic(t *testing.T) {
	r := &orb.Reply{
		ClientID: "c",
		ReqID:    9,
		Status:   orb.StatusOK,
		Results: []codec.Value{codec.Map(map[string]codec.Value{
			"b": codec.Int(2), "a": codec.Int(1), "c": codec.Int(3),
		})},
	}
	b1 := orb.EncodeReply(r)
	b2 := orb.EncodeReply(r)
	if !reflect.DeepEqual(b1, b2) {
		t.Fatal("reply encoding nondeterministic; voting would break")
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	var led vtime.Ledger
	led.Charge(vtime.ComponentORB, 100*vtime.Microsecond)
	led.Charge(vtime.ComponentGC, 300*vtime.Microsecond)
	env := &orb.Envelope{VT: vtime.Time(12345), Ledger: led, Bytes: []byte("payload")}
	got, err := orb.DecodeEnvelope(orb.EncodeEnvelope(env))
	if err != nil {
		t.Fatal(err)
	}
	if got.VT != env.VT || string(got.Bytes) != "payload" {
		t.Fatalf("envelope mismatch: %+v", got)
	}
	if got.Ledger.Of(vtime.ComponentGC) != 300*vtime.Microsecond {
		t.Fatalf("ledger lost: %v", got.Ledger.Of(vtime.ComponentGC))
	}
}

func TestAdapterInvocation(t *testing.T) {
	model := vtime.DefaultCostModel()
	a := orb.NewAdapter(model)
	servant := &echoServant{}
	a.Register("Echo", servant)

	var cpu vtime.Server
	req := orb.EncodeRequest(&orb.Request{
		ClientID: "c", ReqID: 1, Object: "Echo", Operation: "echo",
		Args: []codec.Value{codec.String("hi")},
	})
	res, err := a.HandleRequest(&cpu, req, transport.Room{}, 0, vtime.Ledger{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reply.Status != orb.StatusOK {
		t.Fatalf("status = %v (%s)", res.Reply.Status, res.Reply.ErrMsg)
	}
	if want := 2*model.ORBMarshal + model.AppProcess; res.DoneVT.Sub(0) != want {
		t.Fatalf("DoneVT = %v, want %v", res.DoneVT, want)
	}
	if res.Ledger.Of(vtime.ComponentORB) != 2*model.ORBMarshal {
		t.Fatalf("ORB charge = %v", res.Ledger.Of(vtime.ComponentORB))
	}
	if res.Ledger.Of(vtime.ComponentApp) != model.AppProcess {
		t.Fatalf("App charge = %v", res.Ledger.Of(vtime.ComponentApp))
	}
}

func TestAdapterExceptionAndMissingServant(t *testing.T) {
	a := orb.NewAdapter(vtime.DefaultCostModel())
	a.Register("Echo", &echoServant{})
	var cpu vtime.Server

	req := orb.EncodeRequest(&orb.Request{ClientID: "c", ReqID: 1, Object: "Echo", Operation: "fail"})
	res, err := a.HandleRequest(&cpu, req, transport.Room{}, 0, vtime.Ledger{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reply.Status != orb.StatusException || res.Reply.ErrMsg != "deliberate failure" {
		t.Fatalf("reply = %+v", res.Reply)
	}
	if _, err := orb.ResultsOrError("fail", &res.Reply); err == nil {
		t.Fatal("ResultsOrError did not map exception")
	}

	req = orb.EncodeRequest(&orb.Request{ClientID: "c", ReqID: 2, Object: "Ghost", Operation: "x"})
	res, err = a.HandleRequest(&cpu, req, transport.Room{}, 0, vtime.Ledger{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reply.Status != orb.StatusException {
		t.Fatalf("missing servant reply = %+v", res.Reply)
	}

	a.Unregister("Echo")
	req = orb.EncodeRequest(&orb.Request{ClientID: "c", ReqID: 3, Object: "Echo", Operation: "echo"})
	res, _ = a.HandleRequest(&cpu, req, transport.Room{}, 0, vtime.Ledger{})
	if res.Reply.Status != orb.StatusException {
		t.Fatal("unregistered servant still served")
	}
}

func TestAdapterCustomExecCost(t *testing.T) {
	model := vtime.DefaultCostModel()
	a := orb.NewAdapter(model)
	a.Register("Slow", &slowServant{cost: 5 * vtime.Millisecond})
	var cpu vtime.Server
	req := orb.EncodeRequest(&orb.Request{ClientID: "c", ReqID: 1, Object: "Slow", Operation: "work"})
	res, err := a.HandleRequest(&cpu, req, transport.Room{}, 0, vtime.Ledger{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Ledger.Of(vtime.ComponentApp); got != 5*vtime.Millisecond {
		t.Fatalf("App charge = %v", got)
	}
}

// testPair wires a baseline client and server over simnet.
func testPair(t *testing.T, net *simnet.Network, opts ...orb.ServerOption) (*orb.Client, *echoServant) {
	t.Helper()
	model := net.CostModel()

	sEP, err := net.Endpoint("server")
	if err != nil {
		t.Fatal(err)
	}
	sd := transport.NewDemux(sEP)
	adapter := orb.NewAdapter(model)
	servant := &echoServant{}
	adapter.Register("Echo", servant)
	var cpu vtime.Server
	srv := orb.NewServer(sd.Conn(transport.ProtoVIOP), adapter, &cpu, model, opts...)
	sd.Handle(transport.ProtoVIOP, srv.HandleTransport)
	sd.Start()
	t.Cleanup(func() { srv.Stop(); sd.Close() })

	cEP, err := net.Endpoint("client")
	if err != nil {
		t.Fatal(err)
	}
	cd := transport.NewDemux(cEP)
	wire := orb.NewDirectWire(cd.Conn(transport.ProtoVIOP), "server", model)
	cd.Handle(transport.ProtoVIOP, wire.HandleTransport)
	cd.Start()
	client := orb.NewClient("client", wire, model, orb.WithTimeout(200*time.Millisecond))
	t.Cleanup(func() { client.Close(); cd.Close() })
	return client, servant
}

func TestEndToEndInvocation(t *testing.T) {
	net := simnet.New(simnet.WithSeed(3))
	defer net.Close()
	client, servant := testPair(t, net)

	out, err := client.Invoke("Echo", "echo", []codec.Value{codec.Int(5)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 1 || out.Results[0].Int != 5 {
		t.Fatalf("results = %+v", out.Results)
	}
	if servant.count() != 1 {
		t.Fatalf("servant calls = %d", servant.count())
	}
	// Baseline RTT: 4 marshals + app + 2 wire hops; roughly 0.4-0.7ms.
	if rtt := out.RTT(); rtt < 400*vtime.Microsecond || rtt > 1000*vtime.Microsecond {
		t.Fatalf("baseline RTT = %v out of expected band", rtt)
	}
	if out.Ledger.Of(vtime.ComponentORB) <= 4*100*vtime.Microsecond {
		t.Fatalf("ORB ledger %v should include wire time", out.Ledger.Of(vtime.ComponentORB))
	}
	if out.Ledger.Of(vtime.ComponentReplicator) != 0 {
		t.Fatal("baseline charged replicator costs")
	}
}

func TestEndToEndRemoteException(t *testing.T) {
	net := simnet.New()
	defer net.Close()
	client, _ := testPair(t, net)
	_, err := client.Invoke("Echo", "fail", nil, 0)
	var re *orb.RemoteError
	if !errors.As(err, &re) || re.Msg != "deliberate failure" {
		t.Fatalf("err = %v", err)
	}
}

func TestServerInterceptChargesReplicator(t *testing.T) {
	net := simnet.New()
	defer net.Close()
	model := net.CostModel()
	client, _ := testPair(t, net, orb.WithServerIntercept(model.Intercept))
	out, err := client.Invoke("Echo", "echo", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Ledger.Of(vtime.ComponentReplicator); got != 2*model.Intercept {
		t.Fatalf("replicator charge = %v, want %v", got, 2*model.Intercept)
	}
}

func TestRetryOnLoss(t *testing.T) {
	net := simnet.New(simnet.WithSeed(5))
	defer net.Close()
	client, servant := testPair(t, net)

	// Drop the first attempt deterministically: 100% loss, then heal
	// after a moment.
	net.SetLink("client", "server", transport.Rule{Drop: 1.0})
	go func() {
		time.Sleep(100 * time.Millisecond)
		net.SetLink("client", "server", transport.Rule{})
	}()
	out, err := client.Invoke("Echo", "echo", []codec.Value{codec.Int(1)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 1 {
		t.Fatalf("results = %+v", out.Results)
	}
	if servant.count() != 1 {
		t.Fatalf("servant executed %d times", servant.count())
	}
}

func TestInvocationTimeout(t *testing.T) {
	net := simnet.New()
	defer net.Close()
	client, _ := testPair(t, net)
	net.SetLink("client", "server", transport.Rule{Drop: 1.0})
	start := time.Now()
	_, err := client.Invoke("Echo", "echo", nil, 0)
	if !errors.Is(err, orb.ErrTimeout) {
		t.Fatalf("err = %v", err)
	}
	if time.Since(start) < 400*time.Millisecond {
		t.Fatal("timed out before exhausting retries")
	}
}

// TestClientTraceCounters drives the traced client through a clean
// invocation, a lossy retry, and a full timeout, asserting the orb.*
// counters that the observability layer exposes.
func TestClientTraceCounters(t *testing.T) {
	net := simnet.New(simnet.WithSeed(5))
	defer net.Close()
	model := net.CostModel()
	rec := trace.New()

	sEP, err := net.Endpoint("server")
	if err != nil {
		t.Fatal(err)
	}
	sd := transport.NewDemux(sEP)
	adapter := orb.NewAdapter(model)
	adapter.Register("Echo", &echoServant{})
	var cpu vtime.Server
	srv := orb.NewServer(sd.Conn(transport.ProtoVIOP), adapter, &cpu, model,
		orb.WithServerTrace(rec))
	sd.Handle(transport.ProtoVIOP, srv.HandleTransport)
	sd.Start()
	defer func() { srv.Stop(); sd.Close() }()

	cEP, err := net.Endpoint("client")
	if err != nil {
		t.Fatal(err)
	}
	cd := transport.NewDemux(cEP)
	wire := orb.NewDirectWire(cd.Conn(transport.ProtoVIOP), "server", model)
	cd.Handle(transport.ProtoVIOP, wire.HandleTransport)
	cd.Start()
	client := orb.NewClient("client", wire, model,
		orb.WithTimeout(100*time.Millisecond), orb.WithRetries(2),
		orb.WithClientTrace(rec))
	defer func() { client.Close(); cd.Close() }()

	// Clean round trip: one invocation, no retransmits.
	if _, err := client.Invoke("Echo", "echo", nil, 0); err != nil {
		t.Fatal(err)
	}
	if got := rec.Value(trace.SubORB, "invocations"); got != 1 {
		t.Fatalf("invocations = %d, want 1", got)
	}
	if got := rec.Value(trace.SubORB, "retransmits"); got != 0 {
		t.Fatalf("retransmits = %d, want 0", got)
	}
	if got := rec.Value(trace.SubORB, "requests_served"); got != 1 {
		t.Fatalf("requests_served = %d, want 1", got)
	}

	// Lossy first attempt: the retry succeeds and is counted.
	net.SetLink("client", "server", transport.Rule{Drop: 1.0})
	go func() {
		time.Sleep(150 * time.Millisecond)
		net.SetLink("client", "server", transport.Rule{})
	}()
	if _, err := client.Invoke("Echo", "echo", nil, 0); err != nil {
		t.Fatal(err)
	}
	if got := rec.Value(trace.SubORB, "retransmits"); got == 0 {
		t.Fatal("retransmits counter did not advance across a lossy attempt")
	}

	// Permanent loss: the invocation times out and is counted.
	net.SetLink("client", "server", transport.Rule{Drop: 1.0})
	if _, err := client.Invoke("Echo", "echo", nil, 0); !errors.Is(err, orb.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if got := rec.Value(trace.SubORB, "timeouts"); got != 1 {
		t.Fatalf("timeouts = %d, want 1", got)
	}
}

func TestConcurrentInvocations(t *testing.T) {
	net := simnet.New(simnet.WithSeed(7))
	defer net.Close()
	client, servant := testPair(t, net)

	const n = 50
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err := client.Invoke("Echo", "echo", []codec.Value{codec.Int(int64(i))}, vtime.Time(i*1000))
			if err != nil {
				errs[i] = err
				return
			}
			if out.Results[0].Int != int64(i) {
				errs[i] = fmt.Errorf("reply mismatch: %d", out.Results[0].Int)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("invocation %d: %v", i, err)
		}
	}
	if servant.count() != n {
		t.Fatalf("servant calls = %d", servant.count())
	}
}

func TestServerQueueingGrowsLatency(t *testing.T) {
	// Two bursts arriving at the same virtual instant must queue on the
	// server CPU: the second completes later.
	net := simnet.New(simnet.WithSeed(9))
	defer net.Close()
	model := net.CostModel()
	model.JitterFrac = 0

	sEP, _ := net.Endpoint("server")
	sd := transport.NewDemux(sEP)
	adapter := orb.NewAdapter(model)
	adapter.Register("Slow", &slowServant{cost: 10 * vtime.Millisecond})
	var cpu vtime.Server
	srv := orb.NewServer(sd.Conn(transport.ProtoVIOP), adapter, &cpu, model)
	sd.Handle(transport.ProtoVIOP, srv.HandleTransport)
	sd.Start()
	defer func() { srv.Stop(); sd.Close() }()

	mk := func(name string) *orb.Client {
		ep, err := net.Endpoint(name)
		if err != nil {
			t.Fatal(err)
		}
		d := transport.NewDemux(ep)
		w := orb.NewDirectWire(d.Conn(transport.ProtoVIOP), "server", model)
		d.Handle(transport.ProtoVIOP, w.HandleTransport)
		d.Start()
		c := orb.NewClient(name, w, model)
		t.Cleanup(func() { c.Close(); d.Close() })
		return c
	}
	c1, c2 := mk("c1"), mk("c2")

	var wg sync.WaitGroup
	outs := make([]*orb.Outcome, 2)
	for i, c := range []*orb.Client{c1, c2} {
		wg.Add(1)
		go func(i int, c *orb.Client) {
			defer wg.Done()
			out, err := c.Invoke("Slow", "work", nil, 0)
			if err != nil {
				t.Errorf("invoke %d: %v", i, err)
				return
			}
			outs[i] = out
		}(i, c)
	}
	wg.Wait()
	if outs[0] == nil || outs[1] == nil {
		t.Fatal("missing outcomes")
	}
	fast, slow := outs[0].RTT(), outs[1].RTT()
	if fast > slow {
		fast, slow = slow, fast
	}
	if slow-fast < 8*vtime.Millisecond {
		t.Fatalf("no queueing visible: %v vs %v", fast, slow)
	}
}
