// Package replicator composes the paper's three-layer replicator stack
// (Figure 2) into runnable nodes:
//
//	┌───────────────────────────────┐
//	│ interface to application/ORB  │  internal/orb + internal/interceptor
//	├───────────────────────────────┤
//	│ tunable replication mechanisms│  internal/replication
//	├───────────────────────────────┤
//	│ interface to group comm.      │  internal/gcs
//	└───────────────────────────────┘
//
// A ReplicaNode is one replicated server process: group member + engine +
// object adapter on one transport endpoint. A ClientNode is one client
// process: ORB client over an interposed group wire. The knobs layer and
// the evaluation harness manipulate whole nodes (add/remove replicas,
// switch styles, crash processes).
package replicator

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"versadep/internal/codec"
	"versadep/internal/gcs"
	"versadep/internal/interceptor"
	"versadep/internal/orb"
	"versadep/internal/policy"
	"versadep/internal/replication"
	"versadep/internal/shard"
	"versadep/internal/trace"
	"versadep/internal/trace/span"
	"versadep/internal/transport"
	"versadep/internal/vtime"
)

// requestSpanKey returns the function that maps a GCS payload to its
// causal trace key in sp: the VIOP (client, request) identity unwrapped
// from a replication request envelope on the way in, or peeked from raw
// VIOP reply bytes on the way back (direct deliveries to clients). Payloads
// without a request identity — checkpoints, state transfers, switch and
// metrics traffic — map to the zero Key. This is injected into the gcs
// layer so it can attach spans without knowing the upper layers' encodings.
// Nothing is decoded into a string here: the client id stays a window onto
// the payload until the recorder, which knows it already, names it.
func requestSpanKey(sp *span.Recorder) func(payload []byte) span.Key {
	return func(payload []byte) span.Key {
		if viop, ok := replication.PeekRequestViop(payload); ok {
			if cid, rid, err := orb.PeekRequestID(viop); err == nil {
				return sp.InternRequestKey(cid, rid)
			}
			return span.Key{}
		}
		if cid, rid, err := orb.PeekReplyID(payload); err == nil {
			return sp.InternRequestKey(cid, rid)
		}
		return span.Key{}
	}
}

// ReplicaNode is a replicated server process.
type ReplicaNode struct {
	demux   *transport.Demux
	member  *gcs.Member
	adapter *orb.Adapter
	engine  *replication.Engine
	state   replication.Checkpointable
	trace   *trace.Recorder

	// faults accumulates crash departures observed in view changes (the
	// adaptation layer's fault-rate sensor).
	faults *policy.FaultMeter
	// ready closes once the node's fields are fully assembled; the
	// observer's self-retire goroutine waits on it before calling Leave.
	ready chan struct{}
	// retire ensures a retirement directive triggers at most one Leave.
	retire sync.Once
	// moved, when set, runs after every engine notice and once the node
	// has stopped: whenever its progress, or whether it is live, changes.
	moved func()
}

// ReplicaConfig bundles the per-replica configuration.
type ReplicaConfig struct {
	// Seeds are group members to join through; empty bootstraps a group.
	Seeds []string
	// GCS overrides the group-communication configuration (optional;
	// Seeds and Model are filled in from this config).
	GCS *gcs.Config
	// Replication is the engine configuration (style, checkpoints,
	// state, observer).
	Replication replication.Config
	// Trace receives the node's counters, events and causal spans across
	// every layer (GCS member + replication engine). When nil, the node
	// creates its own recorder without spans (trace.NewWithoutSpans);
	// either way it is reachable via ReplicaNode.Trace.
	Trace *trace.Recorder
}

// StartReplica launches a replica node on ep.
func StartReplica(ep transport.MultiEndpoint, cfg ReplicaConfig) *ReplicaNode {
	return startReplica(ep, cfg, nil)
}

// startReplica is StartReplica with a hook (ReplicaNode.moved).
func startReplica(ep transport.MultiEndpoint, cfg ReplicaConfig, moved func()) *ReplicaNode {
	d, rec := nodeDemux(ep, cfg.Trace)

	gcfg := gcs.DefaultConfig()
	if cfg.GCS != nil {
		gcfg = *cfg.GCS
	}
	gcfg.Seeds = cfg.Seeds
	gcfg.Model = cfg.Replication.Model
	if gcfg.Seed == 0 {
		gcfg.Seed = uint64(len(ep.Addr())) + 11
	}
	gcfg.Trace = rec
	gcfg.SpanKey = requestSpanKey(rec.Spans())
	cfg.Replication.Trace = rec

	// The node observes its own engine before the caller's observer:
	// crashes seen in view changes feed the fault meter, and a
	// retirement directive naming this replica makes the host leave the
	// group gracefully. The observer runs on the engine goroutine and
	// must not block, so Leave runs in a goroutine gated on full node
	// assembly.
	n := &ReplicaNode{demux: d, trace: rec, state: cfg.Replication.State,
		faults: policy.NewFaultMeter(0, 0), ready: make(chan struct{}), moved: moved}
	self := ep.Addr()
	inner := cfg.Replication.Observer
	cfg.Replication.Observer = func(nt replication.Notice) {
		switch nt.Kind {
		case replication.NoticeView:
			if nt.Crashed > 0 {
				n.faults.ObserveCrashes(nt.Crashed)
			}
		case replication.NoticeRetire:
			if nt.Peer == self {
				n.retire.Do(func() {
					go func() {
						<-n.ready
						n.Leave()
					}()
				})
			}
		}
		if inner != nil {
			inner(nt)
		}
		if moved != nil {
			moved()
		}
	}

	member := gcs.Open(d.Conn(transport.ProtoGCS), d.Conn(transport.ProtoGroupClient), gcfg)
	d.Handle(transport.ProtoGCS, member.HandleTransport)
	// Replicas also receive point-to-point traffic addressed to them as
	// direct-delivery targets (bulk checkpoint state from the primary).
	d.Handle(transport.ProtoGroupClient, member.HandleTransport)

	adapter := orb.NewAdapter(cfg.Replication.Model)
	adapter.SetSpans(rec.Spans())
	engine := replication.NewEngine(member, adapter, cfg.Replication)

	n.member, n.adapter, n.engine = member, adapter, engine
	close(n.ready)
	d.Start()
	return n
}

// Addr returns the node's transport address.
func (n *ReplicaNode) Addr() string { return n.demux.Addr() }

// Register binds a servant on the node's adapter.
func (n *ReplicaNode) Register(object string, s orb.Servant) {
	n.adapter.Register(object, s)
}

// RegisterDefault installs the adapter's fallback servant (see
// orb.Adapter.RegisterDefault).
func (n *ReplicaNode) RegisterDefault(s orb.Servant) {
	n.adapter.RegisterDefault(s)
}

// SetRouteCheck installs the adapter's pre-dispatch object check; the
// shard guard uses it to NAK requests routed under a stale shard map.
func (n *ReplicaNode) SetRouteCheck(fn func(object string) error) {
	n.adapter.SetRouteCheck(fn)
}

// Engine exposes the replication engine (knobs, stats, switches).
func (n *ReplicaNode) Engine() *replication.Engine { return n.engine }

// State exposes the application state the node replicates (the caller's
// ReplicaConfig.Replication.State).
func (n *ReplicaNode) State() replication.Checkpointable { return n.state }

// Member exposes the group-communication member.
func (n *ReplicaNode) Member() *gcs.Member { return n.member }

// Trace exposes the node's trace recorder.
func (n *ReplicaNode) Trace() *trace.Recorder { return n.trace }

// TraceSnapshot returns a consistent snapshot of the node's counters and
// recent events.
func (n *ReplicaNode) TraceSnapshot() trace.Snapshot { return n.trace.Snapshot() }

// Stop shuts the node's goroutines down (does not announce a leave; pair
// with a network crash to simulate process failure, or call Leave first
// for graceful removal).
func (n *ReplicaNode) Stop() {
	n.engine.Stop()
	n.member.Stop()
	n.finishStop()
}

// Leave gracefully removes the node from the group, then stops it.
func (n *ReplicaNode) Leave() {
	n.engine.Stop()
	n.member.Leave()
	n.finishStop()
}

// finishStop closes the node's transport and reports that it has gone.
func (n *ReplicaNode) finishStop() {
	_ = n.demux.Close()
	if n.moved != nil {
		n.moved()
	}
}

// ClientNode is one client process: an ORB client whose connection is
// interposed onto the server group — or, for sharded deployments, onto a
// router that fans out across every shard's group.
type ClientNode struct {
	demux  *transport.Demux
	client *orb.Client
	trace  *trace.Recorder
}

// ClientConfig bundles the per-client configuration.
type ClientConfig struct {
	// Members are the server-group address hints.
	Members []string
	// Model is the virtual-time cost model.
	Model vtime.CostModel
	// Filter selects reply filtering (default first-response).
	Filter interceptor.ReplyFilter
	// ExpectedReplies is the replica count for majority voting.
	ExpectedReplies int
	// Timeout is the per-attempt reply timeout (real time; default 500 ms).
	Timeout time.Duration
	// Retries bounds retransmissions per invocation (default 20).
	Retries int
	// Trace receives the client's counters (ORB retransmits/timeouts and
	// interceptor filter outcomes) and causal spans. When nil, the node
	// creates its own recorder without spans (trace.NewWithoutSpans).
	Trace *trace.Recorder
	// GroupID selects which shard's group this client speaks to when
	// several groups share the transport (see gcs.Config.GroupID). Zero —
	// the default — is the unsharded group.
	GroupID uint32
}

// StartClient launches a client node on ep.
func StartClient(ep transport.MultiEndpoint, cfg ClientConfig) *ClientNode {
	d, rec := nodeDemux(ep, cfg.Trace)
	wire := groupWire(d, rec, cfg.Members, cfg.GroupID, cfg.Model, cfg.Filter, cfg.ExpectedReplies)
	d.Handle(transport.ProtoGroupClient, wire.Group().HandleTransport)

	client := orb.NewClient(ep.Addr(), wire, cfg.Model, orbClientOptions(rec, cfg.Timeout, cfg.Retries)...)

	d.Start()
	return &ClientNode{demux: d, client: client, trace: rec}
}

// nodeDemux wraps a node's endpoint in its demux, reporting to rec as the
// node at ep's address. A node records spans only into a recorder its caller
// hands it: when rec is nil the node makes one without a span ring, so it
// keeps counters, events and histograms and does no span work at all.
func nodeDemux(ep transport.MultiEndpoint, rec *trace.Recorder) (*transport.Demux, *trace.Recorder) {
	if rec == nil {
		rec = trace.NewWithoutSpans()
	}
	rec.Spans().SetNode(ep.Addr())
	d := transport.NewDemux(ep)
	d.SetTrace(rec)
	return d, rec
}

// groupWire and orbClientOptions translate the zero-means-default fields
// shared by ClientConfig and ShardedClientConfig; groupWire opens a client's
// interposed wire to one group over d.
func groupWire(d *transport.Demux, rec *trace.Recorder, members []string, group uint32,
	model vtime.CostModel, filter interceptor.ReplyFilter, expected int) *interceptor.GroupWire {
	gcc := gcs.DefaultClientConfig(members)
	gcc.Model = model
	gcc.Spans = rec.Spans()
	gcc.SpanKey = requestSpanKey(rec.Spans())
	gcc.GroupID = group
	opts := []interceptor.GroupWireOption{interceptor.WithGroupTrace(rec)}
	if filter != 0 {
		opts = append(opts, interceptor.WithFilter(filter))
	}
	if expected > 0 {
		opts = append(opts, interceptor.WithExpectedReplies(expected))
	}
	return interceptor.NewGroupWire(d.Conn(transport.ProtoGCS), gcc, opts...)
}

// The reply timeout and retry budget of a client that names none: at ten
// seconds per invocation it rides out a failover, a view change and a state
// transfer, and still fails a run that is truly stuck.
const (
	defaultClientTimeout = 500 * time.Millisecond
	defaultClientRetries = 20
)

func orbClientOptions(rec *trace.Recorder, timeout time.Duration, retries int) []orb.ClientOption {
	if timeout <= 0 {
		timeout = defaultClientTimeout
	}
	if retries <= 0 {
		retries = defaultClientRetries
	}
	return []orb.ClientOption{orb.WithClientTrace(rec), orb.WithTimeout(timeout), orb.WithRetries(retries)}
}

// ShardedClientConfig bundles the configuration of a client that spans
// every shard of a sharded deployment.
type ShardedClientConfig struct {
	// Fetch returns the current shard map; the router calls it at start
	// and again whenever a stale-epoch NAK tells it the layout moved (in
	// process-per-node deployments this is an HTTP fetch from the
	// coordinator, in the harness a Coordinator.Snapshot closure).
	Fetch func() *shard.Map
	// Model is the virtual-time cost model.
	Model vtime.CostModel
	// Filter selects reply filtering per shard wire (default
	// first-response).
	Filter interceptor.ReplyFilter
	// ExpectedReplies is the per-shard replica count for majority voting.
	ExpectedReplies int
	// Timeout is the per-attempt reply timeout (real time; default 500 ms).
	Timeout time.Duration
	// Retries bounds retransmissions per invocation (default 20).
	Retries int
	// Trace receives the client's counters and causal spans across the
	// ORB, router and per-shard wires. When nil, the node creates its own
	// recorder without spans (trace.NewWithoutSpans).
	Trace *trace.Recorder
}

// StartShardedClient launches a client node whose ORB is routed across
// all shards: one transport endpoint, one ORB client, and underneath it a
// shard.Router holding a lazily dialed GroupWire per shard. All shards'
// reply traffic shares the endpoint's ProtoGroupClient stream; each
// shard's GroupClient keeps only the frames stamped with its group id.
func StartShardedClient(ep transport.MultiEndpoint, cfg ShardedClientConfig) *ClientNode {
	d, rec := nodeDemux(ep, cfg.Trace)

	// Inbound ProtoGroupClient messages fan out to every shard's group
	// client; the per-frame group id filter makes each keep only its own
	// shard's traffic, so no sender→shard registry is needed. The list is
	// published copy-on-write — written only when a shard is dialed — so the
	// receive path reads a snapshot without locking or allocating.
	var dialMu sync.Mutex
	var groupClients atomic.Pointer[[]*gcs.GroupClient]
	groupClients.Store(new([]*gcs.GroupClient))
	d.Handle(transport.ProtoGroupClient, func(msg transport.Message) {
		for _, gc := range *groupClients.Load() {
			gc.HandleTransport(msg)
		}
	})

	factory := func(g shard.Group) (orb.Wire, error) {
		wire := groupWire(d, rec, g.Members, uint32(g.ID), cfg.Model, cfg.Filter, cfg.ExpectedReplies)
		dialMu.Lock()
		next := append(append([]*gcs.GroupClient(nil), *groupClients.Load()...), wire.Group())
		groupClients.Store(&next)
		dialMu.Unlock()
		return wire, nil
	}
	router := shard.NewRouter(cfg.Fetch, factory, shard.WithRouterTrace(rec))

	client := orb.NewClient(ep.Addr(), router, cfg.Model, orbClientOptions(rec, cfg.Timeout, cfg.Retries)...)

	d.Start()
	return &ClientNode{demux: d, client: client, trace: rec}
}

// Addr returns the client's transport address.
func (c *ClientNode) Addr() string { return c.demux.Addr() }

// Invoke performs one replicated invocation at virtual time now,
// converting basic Go argument types to codec values.
func (c *ClientNode) Invoke(object, op string, args []interface{}, now vtime.Time) (*orb.Outcome, error) {
	vals, err := ToValues(args)
	if err != nil {
		return nil, err
	}
	return c.client.Invoke(object, op, vals, now)
}

// ORB exposes the underlying ORB client for typed invocations.
func (c *ClientNode) ORB() *orb.Client { return c.client }

// TraceSnapshot returns a consistent snapshot of the client's counters
// and recent events.
func (c *ClientNode) TraceSnapshot() trace.Snapshot { return c.trace.Snapshot() }

// Stop shuts the client node down.
func (c *ClientNode) Stop() {
	_ = c.client.Close()
	_ = c.demux.Close()
}

// ToValues converts basic Go values (bool, int/int64, uint64, float64,
// string, []byte, codec.Value) to codec values.
func ToValues(args []interface{}) ([]codec.Value, error) {
	out := make([]codec.Value, 0, len(args))
	for i, a := range args {
		switch v := a.(type) {
		case nil:
			out = append(out, codec.Null())
		case bool:
			out = append(out, codec.Bool(v))
		case int:
			out = append(out, codec.Int(int64(v)))
		case int64:
			out = append(out, codec.Int(v))
		case uint64:
			out = append(out, codec.Uint(v))
		case float64:
			out = append(out, codec.Float(v))
		case string:
			out = append(out, codec.String(v))
		case []byte:
			out = append(out, codec.Bytes(v))
		case codec.Value:
			out = append(out, v)
		default:
			return nil, fmt.Errorf("replicator: unsupported argument %d of type %T", i, a)
		}
	}
	return out, nil
}
