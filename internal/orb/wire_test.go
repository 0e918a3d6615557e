package orb_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"versadep/internal/orb"
	"versadep/internal/transport"
	"versadep/internal/vtime"
)

// countConn is a transport.Conn that only counts data sends.
type countConn struct{ sends atomic.Int64 }

func (c *countConn) Addr() string                { return "client" }
func (c *countConn) Seal(m transport.Buf) []byte { return m.Bytes() }
func (c *countConn) Send(string, []byte, vtime.Time) error {
	c.sends.Add(1)
	return nil
}
func (c *countConn) SendMulticast([]string, []byte, vtime.Time) error { return nil }
func (c *countConn) SendControl(string, []byte, vtime.Time) error     { return nil }

// TestDirectWireSinkContract pins the ReplySink contract on the baseline
// wire: a reply before Bind is dropped, the up-call runs on the goroutine
// that called HandleTransport with no lock held (so it may re-enter Send),
// and a HandleTransport after Close is a no-op. Run with -race: Close races
// a receiving goroutine.
func TestDirectWireSinkContract(t *testing.T) {
	conn := &countConn{}
	w := orb.NewDirectWire(conn, "server", vtime.DefaultCostModel())
	reply := transport.Message{From: "server", To: "client",
		Payload: orb.EncodeEnvelope(&orb.Envelope{Bytes: []byte("reply")})}

	w.HandleTransport(reply) // unbound: dropped, no panic

	var delivered atomic.Int64
	w.Bind(func(wr orb.WireReply) {
		delivered.Add(1)
		if string(wr.Bytes) != "reply" {
			t.Errorf("sink got %q", wr.Bytes)
		}
		if err := w.Send(transport.CopyBuf(w.Room(), wr.Bytes), wr.VTime, wr.Ledger); err != nil {
			t.Errorf("Send from inside the sink: %v", err)
		}
	})
	w.HandleTransport(reply)
	if delivered.Load() != 1 || conn.sends.Load() != 1 {
		t.Fatalf("delivered %d, re-sent %d; want 1 and 1 by the time HandleTransport returns",
			delivered.Load(), conn.sends.Load())
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 1000; i++ {
			w.HandleTransport(reply)
		}
	}()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	before := delivered.Load()
	w.HandleTransport(reply)
	if delivered.Load() != before {
		t.Fatal("sink invoked by a HandleTransport that began after Close returned")
	}
}

// TestServerStopConcurrent: Stop from several goroutines at once neither
// panics nor deadlocks.
func TestServerStopConcurrent(t *testing.T) {
	model := vtime.DefaultCostModel()
	var cpu vtime.Server
	srv := orb.NewServer(&countConn{}, orb.NewAdapter(model), &cpu, model)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			srv.Stop()
		}()
	}
	wg.Wait()
}
