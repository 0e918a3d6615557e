package replicator_test

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"sync"
	"testing"
	"time"

	"versadep/internal/codec"
	"versadep/internal/orb"
	"versadep/internal/replication"
	"versadep/internal/replicator"
	"versadep/internal/simnet"
	"versadep/internal/transport"
	"versadep/internal/vtime"
)

// scribbler is a servant that treats its arguments as its own memory: it
// records a checksum of the blob it was handed, then overwrites the blob.
// That is allowed — codec.Decoder.Value is where user code takes delivery
// of bytes it owns — and must stay invisible to every other holder of the
// request.
type scribbler struct {
	mu   sync.Mutex
	seen []uint32
}

func (s *scribbler) Invoke(op string, args []codec.Value) ([]codec.Value, error) {
	if op != "scribble" || len(args) != 1 {
		return nil, fmt.Errorf("scribble wants one blob")
	}
	blob := args[0].Byt
	sum := crc32.ChecksumIEEE(blob)
	for i := range blob {
		blob[i] = 0xEE
	}
	s.mu.Lock()
	s.seen = append(s.seen, sum)
	s.mu.Unlock()
	return []codec.Value{codec.Uint(uint64(sum))}, nil
}

func (s *scribbler) sums() []uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]uint32(nil), s.seen...)
}

// TestServantMayScribbleOnItsArguments runs three active replicas on a
// fabric that shares one request buffer between them (and corrupts,
// duplicates and reorders), with a servant that overwrites its 4 KB
// argument at every replica. Each replica must still have been handed the
// bytes the client sent — one replica's scribbling reaching another's
// delivery, or the client's retransmission buffer, is the bug this guards
// against; -race reports it even when the checksums happen to survive.
func TestServantMayScribbleOnItsArguments(t *testing.T) {
	net := simnet.New(simnet.WithSeed(61))
	defer net.Close()
	c := startCluster(t, net, 3, replication.Active, 0, nil)
	apps := make([]*scribbler, len(c.nodes))
	for i, node := range c.nodes {
		apps[i] = &scribbler{}
		node.Register("Scribbler", apps[i])
	}
	cl := startTestClient(t, net, "client", c.members(), func(cfg *replicator.ClientConfig) {
		cfg.Timeout = 150 * time.Millisecond
		cfg.Retries = 40
	})

	net.SetLink("*", "*", transport.Rule{Corrupt: 0.03, Dup: 0.10, Reorder: 0.10})

	const requests = 30
	want := make([]uint32, requests)
	var vt vtime.Time
	for i := range want {
		blob := make([]byte, 4096)
		for j := range blob {
			blob[j] = byte(i*31 + j)
		}
		want[i] = crc32.ChecksumIEEE(blob)
		out, err := cl.ORB().Invoke("Scribbler", "scribble", []codec.Value{codec.Bytes(blob)}, vt)
		if err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
		if got := uint32(out.Results[0].Uint); got != want[i] {
			t.Fatalf("request %d: the replying replica was handed bytes with checksum %08x, client sent %08x", i, got, want[i])
		}
		if crc32.ChecksumIEEE(blob) != want[i] {
			t.Fatalf("request %d: the client's own argument buffer was written to", i)
		}
		vt = out.DoneVT
	}

	deadline := time.Now().Add(10 * time.Second)
	for i, app := range apps {
		for len(app.sums()) < requests {
			if time.Now().After(deadline) {
				t.Fatalf("replica %d executed %d of %d requests", i, len(app.sums()), requests)
			}
			time.Sleep(5 * time.Millisecond)
		}
		got := app.sums()
		if len(got) != requests {
			t.Fatalf("replica %d executed %d requests, want %d", i, len(got), requests)
		}
		for r := range want {
			if got[r] != want[r] {
				t.Fatalf("replica %d, request %d: handed bytes with checksum %08x, client sent %08x", i, r, got[r], want[r])
			}
		}
	}
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
		waitFor(t, "ORB retry in a buffer of its own", func() bool { return len(clientLog.sent("ra", carries(request))) >= 2 })
		net.SetLink("*", "client", transport.Rule{})
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		waitFor(t, "reply-cache resend in a buffer of its own", func() bool {
			for _, l := range logs {
				if len(l.sent("client", carries(reply))) >= 2 {
					return true
				}
			}
			return false
		})
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
			got := map[string][]byte{} // backup -> the message sent to it, and what follows
			waitFor(t, fmt.Sprintf("checkpoint %d at both backups", i), func() bool {
				for _, l := range logs {
					for _, to := range c.members() {
						for _, f := range l.sent(to, func(f []byte) bool { return bytes.Contains(f, head) }) {
							got[to] = f[bytes.Index(f, head):]
						}
					}
				}
				return len(got) == 2
			})
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

// waitFor polls cond for up to ten seconds and fails t if it never holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("no %s within 10 s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
