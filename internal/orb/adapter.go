package orb

import (
	"fmt"
	"sync"

	"versadep/internal/codec"
	"versadep/internal/trace/span"
	"versadep/internal/transport"
	"versadep/internal/vtime"
)

// Adapter is the server-side object adapter: it owns the servant registry
// and turns encoded requests into encoded replies, charging ORB and
// application costs on the hosting process's virtual CPU.
//
// The adapter is transport-agnostic: the plain Server feeds it from a
// point-to-point connection, while the replication engine feeds it from the
// group's agreed stream. That split mirrors the paper's architecture, where
// the same CORBA servant is driven either directly or through the
// replicator.
type Adapter struct {
	model vtime.CostModel

	mu         sync.Mutex
	servants   map[string]Servant
	fallback   Servant
	routeCheck func(object string) error
	spans      *span.Recorder
	// names holds the client, object and operation names of the requests
	// decoded so far; a request is decoded under mu because of it.
	names codec.Names
}

// ObjectServant is optionally implemented by servants that serve many
// object references from one implementation (a keyed store behind a
// default servant, in CORBA terms). When the fallback servant implements
// it, the adapter passes the object reference through so the servant can
// key its state on it. Its arguments are read-only views, as Servant's are.
type ObjectServant interface {
	InvokeObject(object, op string, args []codec.Value) ([]codec.Value, error)
}

// SetSpans attaches a causal span recorder: every handled request then
// contributes orb_unmarshal / app_execute / orb_marshal spans to its
// request trace. Safe to leave unset (spans cost nothing when off).
func (a *Adapter) SetSpans(sp *span.Recorder) {
	a.mu.Lock()
	a.spans = sp
	a.mu.Unlock()
}

// NewAdapter creates an adapter charging costs from model.
func NewAdapter(model vtime.CostModel) *Adapter {
	return &Adapter{
		model:    model,
		servants: make(map[string]Servant),
	}
}

// Register binds a servant to an object name, replacing any previous
// binding.
func (a *Adapter) Register(object string, s Servant) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.servants[object] = s
}

// RegisterDefault installs a fallback servant that receives every request
// whose object has no explicit binding — the POA default-servant pattern,
// which is how a sharded store serves an open-ended object space without
// registering each reference.
func (a *Adapter) RegisterDefault(s Servant) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.fallback = s
}

// SetRouteCheck installs a pre-dispatch check invoked with each request's
// object reference; a non-nil error becomes a StatusException reply
// without touching any servant. The shard guard hooks in here to NAK
// requests routed under a stale shard map.
func (a *Adapter) SetRouteCheck(fn func(object string) error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.routeCheck = fn
}

// Unregister removes an object binding.
func (a *Adapter) Unregister(object string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	delete(a.servants, object)
}

// InvocationResult is the adapter's output for one request.
type InvocationResult struct {
	// Encoded is the encoded VIOP reply, with the room HandleRequest was
	// given around it.
	Encoded transport.Buf
	// Reply is the decoded form, for callers that need the contents. Its
	// results are the servant's, which may be views of the request's
	// bytes (an echoed argument): read them while the request is held.
	Reply Reply
	// DoneVT is the virtual completion instant on cpu.
	DoneVT vtime.Time
	// Ledger is the input ledger plus the ORB and application charges.
	Ledger vtime.Ledger
}

// HandleRequest decodes reqBytes, executes the target servant on cpu
// (virtual time; arriving at arriveVT), and returns the reply encoded
// inside room — what the layers that send it need around it.
// Decode/encode each charge an ORBMarshal crossing; servant execution
// charges its declared cost (or the model's AppProcess). The decoded
// request and the reply are values, not records: what serving allocates is
// the argument list the servant is handed (its bytes are views of
// reqBytes), whatever the servant allocates, and the reply's buffer.
func (a *Adapter) HandleRequest(cpu *vtime.Server, reqBytes []byte, room transport.Room, arriveVT vtime.Time, led vtime.Ledger) (InvocationResult, error) {
	var req Request
	a.mu.Lock()
	err := decodeRequest(reqBytes, &a.names, &req)
	sp := a.spans
	a.mu.Unlock()
	if err != nil {
		return InvocationResult{}, fmt.Errorf("orb: adapter decode: %w", err)
	}
	tkey := span.RequestKey(req.ClientID, req.ReqID)

	// Span durations equal the charged cost (end = completion on the
	// possibly-queued CPU, start = end - cost), so per-component span
	// sums reproduce the ledger's Figure 3 attribution exactly.
	vt := cpu.Execute(arriveVT, a.model.ORBMarshal)
	led.Charge(vtime.ComponentORB, a.model.ORBMarshal)
	sp.Add(tkey, "orb_unmarshal", span.CompORB, vt.Add(-a.model.ORBMarshal), vt)

	reply, execCost := a.execute(&req)
	vt = cpu.Execute(vt, execCost)
	led.Charge(vtime.ComponentApp, execCost)
	sp.Add(tkey, "app_execute", span.CompApp, vt.Add(-execCost), vt)

	vt = cpu.Execute(vt, a.model.ORBMarshal)
	led.Charge(vtime.ComponentORB, a.model.ORBMarshal)
	sp.Add(tkey, "orb_marshal", span.CompORB, vt.Add(-a.model.ORBMarshal), vt)

	return InvocationResult{
		Encoded: encodeReply(room, &reply),
		Reply:   reply,
		DoneVT:  vt,
		Ledger:  led,
	}, nil
}

// execute runs the servant, mapping errors to exception replies.
func (a *Adapter) execute(req *Request) (Reply, vtime.Duration) {
	a.mu.Lock()
	s := a.servants[req.Object]
	fallback := a.fallback
	check := a.routeCheck
	a.mu.Unlock()

	reply := Reply{ClientID: req.ClientID, ReqID: req.ReqID}
	if check != nil {
		if err := check(req.Object); err != nil {
			// A misrouted request must not reach any servant: the check
			// replaces dispatch entirely, and the cheap rejection charges
			// no application cost (only the ORB crossings around it).
			reply.Status = StatusException
			reply.ErrMsg = err.Error()
			return reply, 0
		}
	}
	if s == nil {
		s = fallback
	}
	if s == nil {
		reply.Status = StatusException
		reply.ErrMsg = fmt.Sprintf("no such servant %q", req.Object)
		return reply, a.model.AppProcess
	}
	cost := a.model.AppProcess
	if c, ok := s.(ExecCoster); ok {
		cost = c.ExecCost(req.Operation, req.Args)
	}
	var results []codec.Value
	var err error
	if os, ok := s.(ObjectServant); ok {
		results, err = os.InvokeObject(req.Object, req.Operation, req.Args)
	} else {
		results, err = s.Invoke(req.Operation, req.Args)
	}
	if err != nil {
		reply.Status = StatusException
		reply.ErrMsg = err.Error()
		return reply, cost
	}
	reply.Status = StatusOK
	reply.Results = results
	return reply, cost
}

// ResultsOrError converts a decoded reply into Go values, translating
// exceptions into *RemoteError.
func ResultsOrError(op string, r *Reply) ([]codec.Value, error) {
	if r.Status == StatusException {
		return nil, &RemoteError{Op: op, Msg: r.ErrMsg}
	}
	return r.Results, nil
}
