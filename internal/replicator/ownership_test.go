package replicator_test

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"testing"
	"time"

	"versadep/internal/alloctest"
	"versadep/internal/codec"
	"versadep/internal/orb"
	"versadep/internal/replication"
	"versadep/internal/replicator"
	"versadep/internal/simnet"
	"versadep/internal/transport"
	"versadep/internal/vtime"
)

// viewReader is a servant that keeps to the in-parameter contract (see
// orb.Servant) and checks it: it reads the blob it is handed during the
// call, keeps a copy, and asks isView whether the blob lies inside a frame
// somebody sent, that is, whether it was handed the delivered bytes
// themselves and no decoder copied them. Operation "read" answers with the
// blob's checksum; "refuse" reads the blob and raises an exception naming
// it.
type viewReader struct {
	isView func([]byte) bool
	mu     sync.Mutex
	seen   [][]byte // copies of the blobs, in execution order
	copies int      // blobs that were not views
}

func (s *viewReader) Invoke(op string, args []codec.Value) ([]codec.Value, error) {
	if len(args) != 1 || args[0].Kind != codec.KindBytes {
		return nil, fmt.Errorf("%s wants one blob", op)
	}
	blob := args[0].Byt
	sum := crc32.ChecksumIEEE(blob)
	view := s.isView(blob)
	s.mu.Lock()
	s.seen = append(s.seen, bytes.Clone(blob))
	if !view {
		s.copies++
	}
	s.mu.Unlock()
	switch op {
	case "read":
		return []codec.Value{codec.Uint(uint64(sum))}, nil
	case "refuse":
		return nil, fmt.Errorf("refused %d B with checksum %08x", len(blob), sum)
	default:
		return nil, fmt.Errorf("unknown op %q", op)
	}
}

// check fails t unless the servant read exactly want, in order, each blob
// where it arrived.
func (s *viewReader) check(t *testing.T, name string, want [][]byte) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.seen) != len(want) {
		t.Fatalf("%s executed %d requests, want %d", name, len(s.seen), len(want))
	}
	for i := range want {
		if !bytes.Equal(s.seen[i], want[i]) {
			t.Fatalf("%s, request %d: handed bytes with checksum %08x, client sent %08x",
				name, i, crc32.ChecksumIEEE(s.seen[i]), crc32.ChecksumIEEE(want[i]))
		}
	}
	if s.copies != 0 {
		t.Fatalf("%s was handed %d of its %d blobs as copies, not as views of a delivered frame", name, s.copies, len(want))
	}
}

// blobs returns n distinct 4 KB arguments.
func blobs(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, 4096)
		for j := range out[i] {
			out[i][j] = byte(i*31 + j)
		}
	}
	return out
}

// readAll invokes "read" on "Reader" with each blob in turn and checks the
// checksum the replying replica was handed, and that the client's own
// argument buffer was left alone.
func readAll(t *testing.T, cl *orb.Client, blobs [][]byte) {
	t.Helper()
	var vt vtime.Time
	for i, blob := range blobs {
		want := crc32.ChecksumIEEE(blob)
		out, err := cl.Invoke("Reader", "read", []codec.Value{codec.Bytes(blob)}, vt)
		if err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
		if got := uint32(out.Results[0].Uint); got != want {
			t.Fatalf("request %d: the replying servant was handed bytes with checksum %08x, client sent %08x", i, got, want)
		}
		if crc32.ChecksumIEEE(blob) != want {
			t.Fatalf("request %d: the client's own argument buffer was written to", i)
		}
		vt = out.DoneVT
	}
}

// TestServantArgumentsAreViews: a servant's byte arguments are read-only
// views of the request as it was delivered, on every path a request takes
// to a servant, and nothing writes to the bytes they share (run it with
// -race, which also reports a write to a buffer several replicas read).
// Every servant must be handed the bytes the client sent, each inside a
// frame some endpoint sent, and every frame sent must still be what it was
// when it was handed over.
func TestServantArgumentsAreViews(t *testing.T) {
	// Three active replicas on a fabric that hands one buffer to every
	// receiver, and corrupts, duplicates and reorders.
	t.Run("active", func(t *testing.T) {
		net := simnet.New(simnet.WithSeed(61))
		defer net.Close()
		c, apps, cl, logs := startReaders(t, net, replication.Active, 0, 150*time.Millisecond, 40)
		net.SetLink("*", "*", transport.Rule{Corrupt: 0.03, Dup: 0.10, Reorder: 0.10})
		sent := blobs(30)
		readAll(t, cl.ORB(), sent)

		c.await(t, 10*time.Second, replicator.CaughtUp)
		for i, app := range apps {
			app.check(t, fmt.Sprintf("replica %d", i), sent)
		}
		for i, l := range logs {
			l.checkUnwritten(t, fmt.Sprintf("endpoint %d", i))
		}
	})

	// A warm-passive primary crashes with requests logged at the backups
	// since its last checkpoint: the new primary replays them from its
	// log, which holds windows onto the frames they were delivered in.
	t.Run("warm-passive replay", func(t *testing.T) {
		net := simnet.New(simnet.WithSeed(67))
		defer net.Close()
		c, apps, cl, logs := startReaders(t, net, replication.WarmPassive, 4, 300*time.Millisecond, 10)
		sent := blobs(11)
		readAll(t, cl.ORB(), sent[:10])
		net.Crash(c.nodes[0].Addr())
		readAll(t, cl.ORB(), sent[10:])

		st := c.nodes[1].Engine().StatsSnapshot()
		if st.Role != replication.RolePrimary || st.Failovers != 1 {
			t.Fatalf("new primary stats: %+v", st)
		}
		apps[0].check(t, "crashed primary", sent[:10])
		// The new primary executed the requests since the last checkpoint
		// by replay, then the one sent after the crash.
		apps[1].mu.Lock()
		n := len(apps[1].seen)
		apps[1].mu.Unlock()
		if n < 2 {
			t.Fatalf("the new primary executed %d requests, want a replay before the request sent after the crash", n)
		}
		t.Logf("the new primary replayed %d logged requests", n-1)
		apps[1].check(t, "new primary", sent[len(sent)-n:])
		for i, l := range logs {
			l.checkUnwritten(t, fmt.Sprintf("endpoint %d", i))
		}
	})

	// The unreplicated baseline: orb.Server serves the envelope's bytes on
	// the goroutine that received them.
	t.Run("direct server", func(t *testing.T) {
		net := simnet.New(simnet.WithSeed(71))
		defer net.Close()
		model := net.CostModel()
		sEP, err := net.Endpoint("server")
		if err != nil {
			t.Fatal(err)
		}
		clientLog := loggedEndpoint(t, net, "client")
		app := &viewReader{isView: clientLog.holds}
		adapter := orb.NewAdapter(model)
		adapter.Register("Reader", app)
		var cpu vtime.Server
		sd := transport.NewDemux(sEP)
		srv := orb.NewServer(sd.Conn(transport.ProtoVIOP), adapter, &cpu, model)
		sd.Handle(transport.ProtoVIOP, srv.HandleTransport)
		sd.Start()
		t.Cleanup(func() { srv.Stop(); sd.Close() })
		cd := transport.NewDemux(clientLog)
		wire := orb.NewDirectWire(cd.Conn(transport.ProtoVIOP), "server", model)
		cd.Handle(transport.ProtoVIOP, wire.HandleTransport)
		cd.Start()
		cl := orb.NewClient("client", wire, model, orb.WithTimeout(200*time.Millisecond))
		t.Cleanup(func() { cl.Close(); cd.Close() })

		sent := blobs(10)
		readAll(t, cl, sent)
		app.check(t, "server", sent)
		clientLog.checkUnwritten(t, "client")
	})
}

// TestRemoteExceptionThroughGroup: a servant that reads its argument where
// it arrived and then raises an exception reaches the client of a
// replicated group as a *orb.RemoteError, which names the operation and
// carries the servant's message.
func TestRemoteExceptionThroughGroup(t *testing.T) {
	net := simnet.New(simnet.WithSeed(73))
	defer net.Close()
	c, apps, cl, _ := startReaders(t, net, replication.Active, 0, 300*time.Millisecond, 10)

	blob := blobs(1)[0]
	_, err := cl.ORB().Invoke("Reader", "refuse", []codec.Value{codec.Bytes(blob)}, 0)
	var re *orb.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v (%T), want a *orb.RemoteError", err, err)
	}
	msg := fmt.Sprintf("refused 4096 B with checksum %08x", crc32.ChecksumIEEE(blob))
	if want := "orb: remote exception in refuse: " + msg; err.Error() != want {
		t.Fatalf("err = %q, want %q", err.Error(), want)
	}
	if re.Op != "refuse" || re.Msg != msg {
		t.Fatalf("remote error %+v", re)
	}
	c.await(t, 10*time.Second, replicator.CaughtUp)
	for i, app := range apps {
		app.check(t, fmt.Sprintf("replica %d", i), [][]byte{blob})
	}
}

// startReaders starts three replicas of style with a viewReader registered
// as "Reader" at each, and a client of theirs, every endpoint behind a
// sentLog: a blob is a view if it lies inside a frame in one of the logs.
func startReaders(t *testing.T, net *simnet.Network, style replication.Style, ckptEvery int, timeout time.Duration, retries int) (*cluster, []*viewReader, *replicator.ClientNode, []*sentLog) {
	t.Helper()
	var logs []*sentLog
	c := startClusterVia(t, net, 3, style, ckptEvery, nil, logging(&logs))
	clientLog := loggedEndpoint(t, net, "client")
	logs = append(logs, clientLog)
	isView := func(b []byte) bool {
		for _, l := range logs {
			if l.holds(b) {
				return true
			}
		}
		return false
	}
	apps := make([]*viewReader, len(c.nodes))
	for i, node := range c.nodes {
		apps[i] = &viewReader{isView: isView}
		node.Register("Reader", apps[i])
	}
	cl := replicator.StartClient(clientLog, replicator.ClientConfig{
		Members: c.members(), Model: net.CostModel(), Timeout: timeout, Retries: retries,
	})
	t.Cleanup(cl.Stop)
	return c, apps, cl, logs
}

// loggedEndpoint opens addr on net behind a sentLog.
func loggedEndpoint(t *testing.T, net *simnet.Network, addr string) *sentLog {
	t.Helper()
	ep, err := net.Endpoint(addr)
	if err != nil {
		t.Fatal(err)
	}
	return &sentLog{MultiEndpoint: ep}
}

// sentLog wraps an endpoint and keeps every sealed frame sent through it,
// with the checksum it had when it was handed over.
type sentLog struct {
	transport.MultiEndpoint
	mu     sync.Mutex
	frames []loggedFrame
}

type loggedFrame struct {
	to    string
	frame []byte
	crc   uint32
}

func (l *sentLog) record(frame []byte, tos ...string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, to := range tos {
		l.frames = append(l.frames, loggedFrame{to, frame, crc32.ChecksumIEEE(frame)})
	}
}

func (l *sentLog) Send(to string, frame []byte, at vtime.Time) error {
	l.record(frame, to)
	return l.MultiEndpoint.Send(to, frame, at)
}

func (l *sentLog) SendMulticast(tos []string, frame []byte, at vtime.Time) error {
	l.record(frame, tos...)
	return l.MultiEndpoint.SendMulticast(tos, frame, at)
}

func (l *sentLog) SendControl(to string, frame []byte, at vtime.Time) error {
	l.record(frame, to)
	return l.MultiEndpoint.SendControl(to, frame, at)
}

// sent returns the distinct frames sent to to (a retransmission of a kept
// frame is the same frame) for which match returns true.
func (l *sentLog) sent(to string, match func(frame []byte) bool) [][]byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out [][]byte
	seen := map[*byte]bool{}
	for _, f := range l.frames {
		if f.to == to && !seen[&f.frame[0]] && match(f.frame) {
			seen[&f.frame[0]] = true
			out = append(out, f.frame)
		}
	}
	return out
}

// holds reports whether b lies inside a frame sent through l.
func (l *sentLog) holds(b []byte) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, f := range l.frames {
		if alloctest.Inside(f.frame, b) {
			return true
		}
	}
	return false
}

// checkUnwritten fails t unless every frame sent still has the checksum it
// had when it was handed over, and still verifies.
func (l *sentLog) checkUnwritten(t *testing.T, name string) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, f := range l.frames {
		if crc32.ChecksumIEEE(f.frame) != f.crc {
			t.Fatalf("%s: frame %d to %s was written to after it was sent", name, i, f.to)
		}
		if _, err := codec.VerifyChecksum(f.frame); err != nil {
			t.Fatalf("%s: frame %d to %s does not verify: %v", name, i, f.to, err)
		}
	}
}

// logging returns an endpoint wrapper that appends each wrapped endpoint's
// log to *logs.
func logging(logs *[]*sentLog) func(transport.MultiEndpoint) transport.MultiEndpoint {
	return func(ep transport.MultiEndpoint) transport.MultiEndpoint {
		l := &sentLog{MultiEndpoint: ep}
		*logs = append(*logs, l)
		return l
	}
}

// TestSecondSendsCopy exercises the second sends of a message whose first
// send spent the room around it (run it with -race): an ORB retry of a
// request, the reply-cache resend that retry provokes at the replicas, and
// the second backup's copy of a checkpoint. Each goes out in a fresh buffer
// of its own, so every frame anyone sent is still what it was when it was
// sent, and the first and second sends alike carry the very bytes a fresh
// encode of their message makes.
func TestSecondSendsCopy(t *testing.T) {
	t.Run("retry and reply resend", func(t *testing.T) {
		net := simnet.New(simnet.WithSeed(17))
		defer net.Close()
		var logs []*sentLog
		c := startClusterVia(t, net, 3, replication.Active, 0, nil, logging(&logs))
		ep, err := net.Endpoint("client")
		if err != nil {
			t.Fatal(err)
		}
		clientLog := &sentLog{MultiEndpoint: ep}
		cl := replicator.StartClient(clientLog, replicator.ClientConfig{
			Members: c.members(), Model: net.CostModel(), Timeout: 60 * time.Millisecond, Retries: 40,
		})
		t.Cleanup(cl.Stop)

		args := []codec.Value{codec.String("k"), codec.Int(1)}
		request := replication.WrapRequest(orb.EncodeRequest(&orb.Request{
			ClientID: "client", ReqID: 1, Object: "Counter", Operation: "add", Args: args}))
		reply := orb.EncodeReply(&orb.Reply{ClientID: "client", ReqID: 1, Status: orb.StatusOK,
			Results: []codec.Value{codec.Int(1)}})
		carries := func(msg []byte) func([]byte) bool {
			return func(frame []byte) bool { return bytes.Contains(frame, msg) }
		}

		// Replies are lost until the client has sent the request twice.
		net.SetLink("*", "client", transport.Rule{Drop: 1})
		done := make(chan error, 1)
		go func() {
			out, err := cl.ORB().Invoke("Counter", "add", args, 0)
			if err == nil && out.Reply.Results[0].Int != 1 {
				err = fmt.Errorf("counter reads %d, want 1", out.Reply.Results[0].Int)
			}
			done <- err
		}()
		// The retry reaches the replicas as a duplicate, which the replying
		// replicas answer from the reply cache.
		c.await(t, 10*time.Second, func(recs map[string]replication.Stats) bool {
			return recs["ra"].RepliesResent > 0
		})
		if n := len(clientLog.sent("ra", carries(request))); n < 2 {
			t.Fatalf("the request went out %d times, want a retry", n)
		}
		net.SetLink("*", "client", transport.Rule{})
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if n := len(logs[0].sent("client", carries(reply))); n < 2 {
			t.Fatalf("ra sent the reply %d times, want a resend from the cache", n)
		}
		for i, l := range append(logs, clientLog) {
			l.checkUnwritten(t, fmt.Sprintf("endpoint %d", i))
		}
	})

	t.Run("second backup's checkpoint", func(t *testing.T) {
		net := simnet.New(simnet.WithSeed(19))
		defer net.Close()
		var logs []*sentLog
		c := startClusterVia(t, net, 3, replication.WarmPassive, 1, nil, logging(&logs))
		cl := startTestClient(t, net, "client", c.members())

		const requests = 3
		app := newCounterApp()
		var vt vtime.Time
		for i := 1; i <= requests; i++ {
			args := []codec.Value{codec.String("k"), codec.Int(1)}
			out, err := cl.ORB().Invoke("Counter", "add", args, vt)
			if err != nil {
				t.Fatal(err)
			}
			vt = out.DoneVT
			_, _ = app.Invoke("add", args)
			state := app.State()
			// What the checkpoint carrying this state starts with: its
			// kind, an empty request, the state.
			head := replication.Encode(&replication.Msg{Kind: replication.KindState, State: state})[:1+4+4+len(state)]
			// Both backups have applied the checkpoint.
			c.await(t, 10*time.Second, func(recs map[string]replication.Stats) bool {
				return recs["rb"].Executed == recs["ra"].Executed && recs["rc"].Executed == recs["ra"].Executed
			})
			got := map[string][]byte{} // backup -> the message sent to it, and what follows
			for _, to := range c.members() {
				for _, f := range logs[0].sent(to, func(f []byte) bool { return bytes.Contains(f, head) }) {
					got[to] = f[bytes.Index(f, head):]
				}
			}
			if len(got) != 2 {
				t.Fatalf("checkpoint %d went to %d backups, want 2", i, len(got))
			}
			var first []byte
			for to, b := range got {
				m, err := replication.Decode(b)
				if err != nil {
					t.Fatalf("checkpoint %d to %s: %v", i, to, err)
				}
				fresh := replication.Encode(m)
				if !bytes.HasPrefix(b, fresh) {
					t.Fatalf("checkpoint %d to %s differs from a fresh encode of its message", i, to)
				}
				if first == nil {
					first = fresh
				} else if !bytes.Equal(fresh, first) {
					t.Fatalf("checkpoint %d: the backups were sent different messages", i)
				}
			}
		}
		for i, l := range logs {
			l.checkUnwritten(t, fmt.Sprintf("replica %d", i))
		}
	})
}
