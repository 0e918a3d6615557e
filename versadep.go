// Package versadep is a Go implementation of versatile dependability: a
// replication middleware whose fault-tolerance/performance/resource
// trade-offs are tunable — before deployment and at runtime — through
// low-level knobs (replication style, number of replicas, checkpointing
// frequency) and high-level knobs (scalability, availability).
//
// It reproduces the system described in "Architecting and Implementing
// Versatile Dependability" (Dumitraş, Srivastava, Narasimhan; DSN 2004 —
// the MEAD project), including every substrate the paper builds on: a
// group-communication toolkit with Spread's four delivery guarantees and
// virtual-synchrony membership, a miniature ORB with a GIOP-like wire
// protocol, a transparent interception layer, active / warm-passive /
// cold-passive replication with the runtime style-switch protocol of the
// paper's Figure 5, and the knob/policy framework of its §4.3.
//
// The quickest way in:
//
//	sys := versadep.NewSystem()
//	defer sys.Close()
//
//	group, _ := sys.StartGroup("bank", 3, versadep.GroupConfig{
//		Style: versadep.WarmPassive,
//		NewApp: func() versadep.Application { return newBankApp() },
//	})
//	client, _ := sys.NewClient(group)
//	reply, _ := client.Invoke("Account", "deposit", "alice", 100)
//
//	group.SetStyle(versadep.Active) // the low-level knob, live
//
// Everything runs on an in-memory network fabric with fault injection;
// performance is accounted in deterministic virtual time calibrated to the
// paper's measured component costs (see internal/vtime). A TCP transport
// for live multi-process deployments is available through cmd/vdnode.
package versadep

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"versadep/internal/codec"
	"versadep/internal/interceptor"
	"versadep/internal/knobs"
	"versadep/internal/orb"
	"versadep/internal/replication"
	"versadep/internal/replicator"
	"versadep/internal/simnet"
	"versadep/internal/vtime"
)

// Style is a replication style (the paper's principal low-level knob).
type Style = replication.Style

// Replication styles.
const (
	// Active replication: every replica executes every request.
	Active = replication.Active
	// WarmPassive replication: a primary executes; backups apply
	// periodic checkpoints and replay logs at failover.
	WarmPassive = replication.WarmPassive
	// ColdPassive replication: backups stay cold; failover pays a
	// cold-start cost before restore and replay.
	ColdPassive = replication.ColdPassive
	// SemiActive replication (Delta-4 XPA leader-follower): every
	// replica executes, only the leader replies — active's instant
	// failover at passive-like reply bandwidth.
	SemiActive = replication.SemiActive
)

// Servant is a deterministic application object (see orb.Servant).
type Servant = orb.Servant

// Value is the dynamic argument/result type of invocations.
type Value = codec.Value

// Application is a replicated application: deterministic servant logic
// plus process-level state capture, the unit of replication in the paper
// (§3.1). Invoke and Restore share one rule for the bytes they are handed:
// a []byte argument, like a restored state, is a view of the delivered
// message — read it during the call, copy whatever is kept, never write to
// it (see Servant).
type Application interface {
	Servant
	replication.Checkpointable
}

// Errors.
var (
	// ErrClosed reports use of a closed system.
	ErrClosed = errors.New("versadep: system closed")
	// ErrUnknownGroup reports a client created for a foreign group.
	ErrUnknownGroup = errors.New("versadep: unknown group")
)

// System is a simulated deployment: an in-memory fabric hosting replica
// groups and clients.
type System struct {
	mu      sync.Mutex
	net     *simnet.Network
	model   vtime.CostModel
	seed    uint64
	groups  map[string]*Group
	clients int
	closed  bool
}

// SystemOption configures a System.
type SystemOption func(*System)

// WithCostModel overrides the calibrated virtual-time cost model.
func WithCostModel(m vtime.CostModel) SystemOption {
	return func(s *System) { s.model = m }
}

// WithSeed sets the deterministic randomness seed.
func WithSeed(seed uint64) SystemOption {
	return func(s *System) { s.seed = seed }
}

// NewSystem creates an empty deployment.
func NewSystem(opts ...SystemOption) *System {
	s := &System{
		model:  vtime.DefaultCostModel(),
		groups: make(map[string]*Group),
		seed:   1,
	}
	for _, o := range opts {
		o(s)
	}
	s.net = simnet.New(simnet.WithCostModel(s.model), simnet.WithSeed(s.seed))
	return s
}

// Close shuts the whole deployment down.
func (s *System) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	groups := make([]*Group, 0, len(s.groups))
	for _, g := range s.groups {
		groups = append(groups, g)
	}
	s.mu.Unlock()
	for _, g := range groups {
		g.grp.Close()
	}
	s.net.Close()
}

// GroupConfig parameterizes a replica group.
type GroupConfig struct {
	// Style is the initial replication style (default Active).
	Style Style
	// CheckpointEvery is the checkpointing frequency in requests for the
	// passive styles (default 5).
	CheckpointEvery int
	// NewApp constructs one application instance per replica. Required.
	NewApp func() Application
	// Objects maps object names to accessors on the application; when
	// empty the application is registered under "App".
	Objects []string
	// Observer, if set, receives replication-engine notices.
	Observer func(replication.Notice)
}

// Group is a running replica group.
type Group struct {
	sys  *System
	name string
	cfg  GroupConfig
	grp  *replicator.Group

	mu   sync.Mutex
	next int // numbers the replicas ever started
}

// StartGroup boots a replica group with n members.
func (s *System) StartGroup(name string, n int, cfg GroupConfig) (*Group, error) {
	if cfg.NewApp == nil {
		return nil, errors.New("versadep: GroupConfig.NewApp is required")
	}
	if n < 1 {
		return nil, errors.New("versadep: group needs at least one replica")
	}
	if cfg.Style == 0 {
		cfg.Style = Active
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 5
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if _, dup := s.groups[name]; dup {
		s.mu.Unlock()
		return nil, fmt.Errorf("versadep: group %q already exists", name)
	}
	g := &Group{sys: s, name: name, cfg: cfg, grp: replicator.NewGroup(replicator.SimFabric(s.net))}
	s.groups[name] = g
	s.mu.Unlock()

	for i := 0; i < n; i++ {
		if _, err := g.AddReplica(); err != nil {
			g.grp.Close()
			return nil, err
		}
	}
	return g, nil
}

// AddReplica grows the group by one member at runtime (the #replicas
// knob moving up); the joiner receives a state transfer automatically.
func (g *Group) AddReplica() (string, error) {
	g.mu.Lock()
	addr := fmt.Sprintf("%s/replica-%d", g.name, g.next)
	g.next++
	g.mu.Unlock()

	app := g.cfg.NewApp()
	node, err := g.grp.Add(addr, g.grp.Members(), replicator.ReplicaConfig{
		Replication: replication.Config{
			Style:           g.cfg.Style,
			CheckpointEvery: g.cfg.CheckpointEvery,
			Model:           g.sys.model,
			State:           app,
			Observer:        g.cfg.Observer,
		},
	})
	if err != nil {
		return "", err
	}
	objects := g.cfg.Objects
	if len(objects) == 0 {
		objects = []string{"App"}
	}
	for _, o := range objects {
		node.Register(o, app)
	}

	if err := g.grp.WaitSize(len(g.grp.Members()), 10*time.Second); err != nil {
		return "", fmt.Errorf("versadep: group %q: %w", g.name, err)
	}
	return addr, nil
}

// Members lists the group's live member addresses.
func (g *Group) Members() []string { return g.grp.Members() }

// SetStyle switches the group's replication style at runtime using the
// protocol of the paper's Figure 5. It returns immediately; the switch
// completes through the agreed stream.
func (g *Group) SetStyle(target Style) {
	if live := g.grp.Live(); len(live) > 0 {
		live[0].Engine().RequestSwitch(target, 0)
	}
}

// Style reports the current style at the first live replica.
func (g *Group) Style() Style {
	if live := g.grp.Live(); len(live) > 0 {
		return live[0].Engine().StatsSnapshot().Style
	}
	return 0
}

// SetCheckpointEvery retunes the checkpointing-frequency knob at runtime;
// the new value travels the group's agreed stream so every replica adopts
// it at the same point.
func (g *Group) SetCheckpointEvery(every int) {
	if live := g.grp.Live(); len(live) > 0 {
		live[0].Engine().SetCheckpointEvery(every, 0)
	}
}

// node returns the i-th replica ever started.
func (g *Group) node(i int) (*replicator.ReplicaNode, error) {
	nodes := g.grp.Nodes()
	if i < 0 || i >= len(nodes) {
		return nil, fmt.Errorf("versadep: no replica %d", i)
	}
	return nodes[i], nil
}

// RemoveReplica gracefully retires the i-th replica (the #replicas knob
// moving down): it announces a leave, the view reconfigures, and the
// process stops.
func (g *Group) RemoveReplica(i int) error {
	node, err := g.node(i)
	if err != nil {
		return err
	}
	return g.grp.Retire(node.Addr())
}

// Crash kills the i-th replica (process crash fault). The group's
// membership protocol detects it and fails over if needed.
func (g *Group) Crash(i int) error {
	node, err := g.node(i)
	if err != nil {
		return err
	}
	g.sys.net.Crash(node.Addr())
	return nil
}

// App returns the i-th replica's application instance (for state
// inspection in tests and examples).
func (g *Group) App(i int) Application {
	node, err := g.node(i)
	if err != nil {
		return nil
	}
	return node.State().(Application)
}

// Stats returns the i-th replica's engine statistics.
func (g *Group) Stats(i int) (replication.Stats, error) {
	node, err := g.node(i)
	if err != nil {
		return replication.Stats{}, err
	}
	return node.Engine().StatsSnapshot(), nil
}

// Client is a replication-transparent client of a group: its invocations
// travel the intercepted path (group-ordered requests, filtered replies)
// while the code looks like plain RPC.
type Client struct {
	node *replicator.ClientNode
	mu   sync.Mutex
	vt   vtime.Time
}

// ClientOption configures a client.
type ClientOption func(*replicator.ClientConfig)

// WithVoting enables majority voting over n expected replies.
func WithVoting(n int) ClientOption {
	return func(c *replicator.ClientConfig) {
		c.Filter = interceptor.FilterMajority
		c.ExpectedReplies = n
	}
}

// NewClient attaches a client to a group.
func (s *System) NewClient(g *Group, opts ...ClientOption) (*Client, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if s.groups[g.name] != g {
		s.mu.Unlock()
		return nil, ErrUnknownGroup
	}
	s.clients++
	id := s.clients
	s.mu.Unlock()

	cfg := replicator.ClientConfig{Members: g.Members(), Model: s.model}
	for _, o := range opts {
		o(&cfg)
	}
	node, err := g.grp.Client(fmt.Sprintf("%s/client-%d", g.name, id), cfg)
	if err != nil {
		return nil, err
	}
	return &Client{node: node}, nil
}

// Reply is the result of an invocation with its virtual timing.
type Reply struct {
	// Results are the returned values.
	Results []Value
	// RTT is the round-trip time in virtual time.
	RTT time.Duration
	// Breakdown holds the per-component virtual costs of the round trip.
	Breakdown vtime.Ledger
}

// Invoke calls an operation on the replicated application, advancing the
// client's virtual clock past the reply. Arguments may be bool, int,
// int64, uint64, float64, string, []byte or Value.
func (c *Client) Invoke(object, op string, args ...interface{}) (*Reply, error) {
	c.mu.Lock()
	vt := c.vt
	c.mu.Unlock()
	out, err := c.node.Invoke(object, op, args, vt)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if out.DoneVT.After(c.vt) {
		c.vt = out.DoneVT
	}
	c.mu.Unlock()
	return &Reply{Results: out.Results, RTT: out.RTT(), Breakdown: out.Ledger}, nil
}

// Close detaches the client.
func (c *Client) Close() { c.node.Stop() }

// ---- re-exported knob helpers ----

// Requirements are the §4.3 constraints for the scalability knob.
type Requirements = knobs.Requirements

// Measurement is an empirically evaluated configuration.
type Measurement = knobs.Measurement

// Config is a low-level knob setting (style, replicas, checkpoint
// frequency) in the paper's Table 2 notation.
type Config = knobs.LowLevel

// PolicyRow is one row of a computed scalability policy (Table 2).
type PolicyRow = knobs.PolicyRow

// PaperRequirements returns the paper's §4.3 requirements (7000 µs,
// 3 MB/s, p = 0.5).
func PaperRequirements() Requirements { return knobs.PaperRequirements() }

// ScalabilityPolicy computes the best configuration per client count —
// the high-level scalability knob of §4.3.
func ScalabilityPolicy(ms []Measurement, maxClients int, req Requirements) ([]PolicyRow, []int) {
	return knobs.ScalabilityPolicy(ms, maxClients, req)
}
