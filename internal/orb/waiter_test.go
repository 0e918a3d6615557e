package orb_test

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"versadep/internal/codec"
	"versadep/internal/orb"
	"versadep/internal/trace"
	"versadep/internal/transport"
	"versadep/internal/vtime"
)

// scriptWire is a Wire whose far end is the test: every Send is recorded
// with its wall-clock instant and handed to onSend, and reply delivers a
// reply for a request id into the client, from any goroutine, at any time.
type scriptWire struct {
	up     orb.Upcall
	onSend func(rid uint64, attempt int)

	mu        sync.Mutex
	sends     map[uint64][]time.Time
	delivered int
}

func (w *scriptWire) Room() transport.Room { return transport.Room{} }

func (w *scriptWire) Send(req transport.Buf, _ vtime.Time, _ vtime.Ledger) error {
	_, rid, err := orb.PeekRequestID(req.Bytes())
	if err != nil {
		return err
	}
	w.mu.Lock()
	w.sends[rid] = append(w.sends[rid], time.Now())
	attempt := len(w.sends[rid])
	w.mu.Unlock()
	w.onSend(rid, attempt)
	return nil
}

func (w *scriptWire) Bind(sink orb.ReplySink) { w.up.Bind(sink) }
func (w *scriptWire) Close() error            { w.up.Shut(); return nil }

func (w *scriptWire) reply(rid uint64) {
	w.mu.Lock()
	w.delivered++
	w.mu.Unlock()
	w.up.Deliver(orb.WireReply{Bytes: orb.EncodeReply(&orb.Reply{
		ClientID: "c", ReqID: rid, Status: orb.StatusOK, Results: []codec.Value{codec.Uint(rid)}})})
}

func newScriptClient(onSend func(w *scriptWire, rid uint64, attempt int), timeout time.Duration, retries int) (*orb.Client, *scriptWire, *trace.Recorder) {
	w := &scriptWire{sends: make(map[uint64][]time.Time)}
	w.onSend = func(rid uint64, attempt int) { onSend(w, rid, attempt) }
	rec := trace.New()
	c := orb.NewClient("c", w, vtime.DefaultCostModel(),
		orb.WithTimeout(timeout), orb.WithRetries(retries), orb.WithClientTrace(rec))
	return c, w, rec
}

// TestLateReplyIsADuplicate: the waiter an invocation gave up on is the one
// the next invocation gets, so a reply that arrives after the give-up must
// find nobody — it is counted in duplicate_replies and never handed to the
// next caller, whether it arrives between the two invocations or while the
// second is waiting for its own.
func TestLateReplyIsADuplicate(t *testing.T) {
	c, w, rec := newScriptClient(func(w *scriptWire, rid uint64, _ int) {
		if rid == 2 {
			w.reply(1) // the reply invocation 1 gave up on, ahead of the right one
			w.reply(2)
		}
	}, 20*time.Millisecond, 0)
	defer c.Close()

	if _, err := c.Invoke("Echo", "echo", nil, 0); !errors.Is(err, orb.ErrTimeout) {
		t.Fatalf("unanswered invocation: err = %v, want ErrTimeout", err)
	}
	w.reply(1)
	if got := rec.Value(trace.SubORB, "duplicate_replies"); got != 1 {
		t.Fatalf("duplicate_replies = %d after a reply to an abandoned invocation, want 1", got)
	}
	out, err := c.Invoke("Echo", "echo", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Reply.ReqID != 2 || out.Results[0].Uint != 2 {
		t.Fatalf("invocation 2 was handed the reply to request %d", out.Reply.ReqID)
	}
	if got := rec.Value(trace.SubORB, "duplicate_replies"); got != 2 {
		t.Fatalf("duplicate_replies = %d, want 2", got)
	}
}

// TestUnreadReplyDoesNotOutliveItsInvocation: an invocation can end with a
// reply still in its waiter's channel — here the wire delivers it and then
// fails the send. The next invocation inherits the waiter, gets no reply of
// its own, and must time out rather than return its predecessor's.
func TestUnreadReplyDoesNotOutliveItsInvocation(t *testing.T) {
	errWire := errors.New("wire down")
	w := &scriptWire{sends: make(map[uint64][]time.Time)}
	w.onSend = func(rid uint64, _ int) {
		if rid == 1 {
			w.reply(1)
		}
	}
	rec := trace.New()
	c := orb.NewClient("c", failFirst{w, errWire}, vtime.DefaultCostModel(),
		orb.WithTimeout(20*time.Millisecond), orb.WithRetries(0), orb.WithClientTrace(rec))
	defer c.Close()

	if _, err := c.Invoke("Echo", "echo", nil, 0); !errors.Is(err, errWire) {
		t.Fatalf("err = %v, want the wire's", err)
	}
	if out, err := c.Invoke("Echo", "echo", nil, 0); !errors.Is(err, orb.ErrTimeout) {
		t.Fatalf("invocation 2 returned %+v, %v; want ErrTimeout", out, err)
	}
	if got := rec.Value(trace.SubORB, "duplicate_replies"); got != 1 {
		t.Fatalf("duplicate_replies = %d, want the unread reply counted once", got)
	}
}

// failFirst fails the Send of request 1 after the wire has seen it.
type failFirst struct {
	*scriptWire
	err error
}

func (f failFirst) Send(req transport.Buf, vt vtime.Time, led vtime.Ledger) error {
	if err := f.scriptWire.Send(req, vt, led); err != nil {
		return err
	}
	if _, rid, _ := orb.PeekRequestID(req.Bytes()); rid == 1 {
		return f.err
	}
	return nil
}

// TestFiredTimerCannotWakeTheNextAttempt: a waiter's timer is re-armed from
// invocation to invocation, and under the timer rules this module builds
// with (go.mod says go 1.22) a timer that fires leaves a value in its
// channel that Stop does not take back. The case that matters is the timer
// firing after the reply has woken the invocation and before the invocation
// stops it. On one processor that order can be forced: the replying
// goroutine delivers half-way through the timeout and then keeps the
// processor until the timeout has passed, so the timer fires, into its
// channel's buffer, before the invocation runs again. Every invocation here
// goes through that; none may then retransmit early — two sends of a
// request are never less than the timeout apart, the first retransmission
// of the invocation that inherits the waiter included.
func TestFiredTimerCannotWakeTheNextAttempt(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const timeout = 4 * time.Millisecond
	const n = 40
	var pending sync.WaitGroup
	c, w, rec := newScriptClient(func(w *scriptWire, rid uint64, attempt int) {
		if rid%2 == 0 && attempt == 1 {
			return // every other request is answered on its second attempt
		}
		sent := time.Now()
		pending.Add(1)
		go func() {
			defer pending.Done()
			time.Sleep(timeout / 2)
			w.reply(rid)
			for time.Since(sent) < timeout+time.Millisecond {
			}
		}()
	}, timeout, 3)
	defer c.Close()

	for rid := uint64(1); rid <= n; rid++ {
		out, err := c.Invoke("Echo", "echo", nil, 0)
		if err != nil {
			t.Fatalf("invocation %d: %v", rid, err)
		}
		if out.Reply.ReqID != rid {
			t.Fatalf("invocation %d was handed the reply to request %d", rid, out.Reply.ReqID)
		}
	}
	pending.Wait()

	w.mu.Lock()
	defer w.mu.Unlock()
	for rid, at := range w.sends {
		for i := 1; i < len(at); i++ {
			if gap := at[i].Sub(at[i-1]); gap < timeout {
				t.Errorf("request %d: attempt %d sent %v after attempt %d, timeout %v", rid, i+1, gap, i, timeout)
			}
		}
	}
	// Every reply delivered is the one an invocation returned, or counted.
	if dups := int(rec.Value(trace.SubORB, "duplicate_replies")); w.delivered != n+dups {
		t.Errorf("%d replies delivered, %d returned by invocations, %d counted as duplicates", w.delivered, n, dups)
	}
}

// TestGoSendsBeforeReturning: Go returns only once its request is on the
// wire, so one goroutine's successive Go calls send in call order; each
// done then receives its own reply whatever order the replies come in, and
// a Go on a closed client reports ErrClosed without sending.
func TestGoSendsBeforeReturning(t *testing.T) {
	c, w, _ := newScriptClient(func(*scriptWire, uint64, int) {}, time.Second, 0)
	const n = 8
	var wg sync.WaitGroup
	got := make([]uint64, n+1)
	for rid := uint64(1); rid <= n; rid++ {
		wg.Add(1)
		c.Go("Echo", "echo", nil, vtime.Time(rid), func(out *orb.Outcome, err error) {
			defer wg.Done()
			if err != nil {
				t.Errorf("request %d: %v", rid, err)
				return
			}
			got[rid] = out.Results[0].Uint
		})
		w.mu.Lock()
		sent := len(w.sends)
		w.mu.Unlock()
		if sent != int(rid) {
			t.Fatalf("after Go of request %d the wire has seen %d requests", rid, sent)
		}
	}
	for rid := uint64(n); rid >= 1; rid-- {
		w.reply(rid)
	}
	wg.Wait()
	for rid := uint64(1); rid <= n; rid++ {
		if got[rid] != rid {
			t.Errorf("request %d was handed the reply to request %d", rid, got[rid])
		}
	}

	c.Close()
	var closedErr error
	c.Go("Echo", "echo", nil, 0, func(_ *orb.Outcome, err error) { closedErr = err })
	if !errors.Is(closedErr, orb.ErrClosed) {
		t.Fatalf("Go on a closed client: err = %v, want ErrClosed", closedErr)
	}
	if len(w.sends) != n {
		t.Fatalf("Go on a closed client sent: the wire has seen %d requests, want %d", len(w.sends), n)
	}
}
