package experiment

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"versadep/internal/codec"
	"versadep/internal/gcs"
	"versadep/internal/orb"
	"versadep/internal/replication"
	"versadep/internal/replicator"
	"versadep/internal/shard"
	"versadep/internal/simnet"
	"versadep/internal/trace"
	"versadep/internal/trace/hist"
	"versadep/internal/vtime"
	"versadep/internal/workload"
)

// ShardCtlObject is the reserved control servant present on every sharded
// replica. Add-shard steps ride the ordinary invocation path through each
// shard's agreed stream, so every active replica of a shard applies them
// at the same point in its execution order — a guard flipped through a
// side channel would flip at different stream positions on different
// replicas and diverge their states.
const ShardCtlObject = "ShardCtl"

// shardCtl is the control servant: "prepare" installs a new shard map on
// the guard and returns the deterministically encoded counters of every
// key this shard loses under it; "seed" imports such an export into a new
// shard. Both are deterministic, as active replication requires.
type shardCtl struct {
	shardID int
	guard   *shard.Guard
	app     *workload.ShardApp
}

func (s *shardCtl) Invoke(op string, args []codec.Value) ([]codec.Value, error) {
	switch op {
	case "prepare":
		if len(args) < 1 || args[0].Kind != codec.KindBytes {
			return nil, fmt.Errorf("shardctl: prepare wants encoded map bytes")
		}
		m, err := shard.DecodeMap(args[0].Byt)
		if err != nil {
			return nil, err
		}
		// Export and guard flip happen inside one agreed-stream
		// invocation: no other request can interleave at any replica, so
		// the export is complete (covers every acked request on the moved
		// keys) and the flip is atomic with it.
		moved := s.app.ExportKeys(func(k string) bool {
			return m.Ring().Lookup(k) != s.shardID
		})
		s.guard.Update(m)
		return []codec.Value{codec.Bytes(moved)}, nil
	case "seed":
		if len(args) < 1 || args[0].Kind != codec.KindBytes {
			return nil, fmt.Errorf("shardctl: seed wants exported key bytes")
		}
		if err := s.app.ImportKeys(args[0].Byt); err != nil {
			return nil, err
		}
		return []codec.Value{codec.Int(1)}, nil
	default:
		return nil, fmt.Errorf("shardctl: unknown op %q", op)
	}
}

// shardedEnv is a running sharded system: one simulated fabric carrying N
// independent replica groups — each with its control client "ctl-<shard>" —
// a coordinator owning the shard map, and router-fronted workload clients.
type shardedEnv struct {
	net   *simnet.Network
	opts  Options
	coord *shard.Coordinator

	groups  []*replicator.Group      // indexed by shard id
	clients []*replicator.ClientNode // sharded (router) clients

	replicasPer int
}

// shardGCS builds the per-shard GCS override: a copy of the experiment's
// override (or the default) stamped with the shard's group id.
func shardGCS(o Options, groupID uint32) *gcs.Config {
	g := o.gcsConfig()
	g.GroupID = groupID
	return &g
}

// shardMembers names the n replicas of the given shard on the fabric.
func shardMembers(shardID, n int) []string {
	members := make([]string, n)
	for i := range members {
		members[i] = fmt.Sprintf("s%d-%c", shardID, 'a'+i)
	}
	return members
}

// bootShard starts one shard's replica group and its control client: each
// replica joins through the first and is waited into the view before the
// next starts. The guard starts under initial, which for runtime-added
// shards is already the post-add map.
func (e *shardedEnv) bootShard(shardID int, members []string, initial *shard.Map) error {
	g := replicator.NewGroup(replicator.SimFabric(e.net))
	e.groups = append(e.groups, g)
	var seeds []string
	for i, addr := range members {
		app := workload.NewShardApp(e.opts.StateBytes, e.opts.ExecCost, e.opts.ReplyBytes)
		guard := shard.NewGuard(shardID, initial)
		node, err := g.Add(addr, seeds, replicator.ReplicaConfig{
			GCS:   shardGCS(e.opts, uint32(shardID)),
			Trace: trace.New(),
			Replication: replication.Config{
				Style:              replication.Active,
				CheckpointEvery:    e.opts.CheckpointEvery,
				Model:              e.opts.Model,
				State:              app,
				TransferChunkBytes: e.opts.TransferChunkBytes,
				TransferRetryEvery: e.opts.TransferRetryEvery,
			},
		})
		if err != nil {
			return err
		}
		node.RegisterDefault(app)
		node.Register(ShardCtlObject, &shardCtl{shardID: shardID, guard: guard, app: app})
		node.SetRouteCheck(func(object string) error {
			if object == ShardCtlObject {
				return nil
			}
			return guard.Check(object)
		})
		seeds = members[:1]
		if err := g.WaitSize(i+1, 10*time.Second); err != nil {
			return err
		}
	}
	_, err := g.Client(fmt.Sprintf("ctl-%d", shardID), replicator.ClientConfig{
		Members: members,
		Model:   e.opts.Model,
		GroupID: uint32(shardID),
		Trace:   trace.New(),
	})
	return err
}

// ctl returns the control client of the given shard.
func (e *shardedEnv) ctl(shardID int) *replicator.ClientNode {
	return e.groups[shardID].Clients()[0]
}

// buildShardedEnv boots a fabric with the given number of shards (each a
// replicasPer-way active group) and router-fronted clients.
func buildShardedEnv(o Options, shards, replicasPer, clients int) (*shardedEnv, error) {
	e := &shardedEnv{
		net:         simnet.New(simnet.WithCostModel(o.Model), simnet.WithSeed(o.Seed)),
		opts:        o,
		replicasPer: replicasPer,
	}

	groups := make([]shard.Group, shards)
	for s := range groups {
		groups[s] = shard.Group{ID: s, Members: shardMembers(s, replicasPer)}
	}
	initial := shard.NewMap(shard.DefaultVnodes, groups...)
	e.coord = shard.NewCoordinator(initial)

	for s := 0; s < shards; s++ {
		if err := e.bootShard(s, groups[s].Members, initial); err != nil {
			e.close()
			return nil, err
		}
	}

	for i := 0; i < clients; i++ {
		c, err := replicator.SimFabric(e.net).ShardedClient(fmt.Sprintf("client-%d", i+1),
			replicator.ShardedClientConfig{Fetch: e.coord.Snapshot, Model: o.Model, Trace: trace.New()})
		if err != nil {
			e.close()
			return nil, err
		}
		e.clients = append(e.clients, c)
	}
	return e, nil
}

// addShard grows the system by one shard at runtime: boot the new group
// under the post-add map, harvest each donor's moved key ranges through
// its agreed stream, seed them into the new shard's stream, then publish
// the new map. Requests acked before a donor's prepare are covered by its
// export; requests arriving after it are NAKed, and the client ORB's
// retransmission reaches the new owner once the router has refreshed its
// map, so no acked request is lost.
func (e *shardedEnv) addShard() (int, error) {
	newID := len(e.groups)
	members := shardMembers(newID, e.replicasPer)
	next := e.coord.Snapshot().WithShard(shard.Group{ID: newID, Members: members})
	if err := e.bootShard(newID, members, next); err != nil {
		return 0, err
	}

	nextBytes := next.Encode()
	for donor := 0; donor < newID; donor++ {
		out, err := e.ctl(donor).Invoke(ShardCtlObject, "prepare", []interface{}{nextBytes}, 0)
		if err != nil {
			return 0, fmt.Errorf("experiment: prepare shard %d: %w", donor, err)
		}
		if len(out.Results) < 1 || out.Results[0].Kind != codec.KindBytes {
			return 0, fmt.Errorf("experiment: prepare shard %d returned no export", donor)
		}
		if _, err := e.ctl(newID).Invoke(ShardCtlObject, "seed",
			[]interface{}{out.Results[0].Byt}, 0); err != nil {
			return 0, fmt.Errorf("experiment: seed shard %d: %w", newID, err)
		}
	}
	if err := e.coord.Publish(next); err != nil {
		return 0, err
	}
	return newID, nil
}

func (e *shardedEnv) close() {
	for _, c := range e.clients {
		c.Stop()
	}
	for _, g := range e.groups {
		g.Close()
	}
	e.net.Close()
}

// shardObjects names n workload object references spread over the ring.
func shardObjects(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("obj-%03d", i)
	}
	return out
}

// ---- scale-out benchmark ----

// ShardLoad is one shard's slice of a scale point.
type ShardLoad struct {
	Shard      int     `json:"shard"`
	Requests   int     `json:"requests"`
	MeanMicros float64 `json:"mean_us"`
	P99Micros  float64 `json:"p99_us"`
}

// ShardScalePoint is the aggregate result at one shard count.
type ShardScalePoint struct {
	Shards           int         `json:"shards"`
	ReplicasPerShard int         `json:"replicas_per_shard"`
	Requests         int         `json:"requests"`
	Errors           int         `json:"errors"`
	ThroughputRPS    float64     `json:"throughput_rps"`
	Speedup          float64     `json:"speedup_vs_1shard"`
	PerShard         []ShardLoad `json:"per_shard"`
}

// ShardScaleResult is the committed BENCH_shard.json artifact: the same
// open-loop workload over 1, 2 and 4 shards, demonstrating throughput
// scale-out past the single-sequencer ceiling.
type ShardScaleResult struct {
	Objects  int               `json:"objects"`
	Points   []ShardScalePoint `json:"points"`
	Speedup4 float64           `json:"speedup_4shard"`
	// Passed requires the 4-shard aggregate to clear 2.5x the 1-shard
	// ceiling — consistent-hash balance over the object set costs some of
	// the ideal 4x.
	Passed bool `json:"passed"`
}

// shardScaleObjects is the object-reference population the open-loop load
// spreads over; large enough that consistent hashing balances shares
// within a few percent.
const shardScaleObjects = 256

// RunShardPoint measures aggregate and per-shard behavior at one shard
// count under a saturating open-loop load.
func RunShardPoint(o Options, shards, replicasPer int) (ShardScalePoint, error) {
	e, err := buildShardedEnv(o, shards, replicasPer, 1)
	if err != nil {
		return ShardScalePoint{}, err
	}
	defer e.close()

	objects := shardObjects(shardScaleObjects)
	ring := e.coord.Snapshot().Ring()
	perShard := make(map[int]*hist.Histogram, shards)

	var lmu sync.Mutex
	ol := workload.OpenLoop{
		Client:       e.clients[0],
		Op:           "work",
		Objects:      objects,
		RequestBytes: o.RequestBytes,
		// A single saturating phase: arrivals scheduled far above even the
		// 4-shard aggregate capacity so completion is capacity-bound and
		// the measured throughput is the system's, not the schedule's.
		Phases:         []workload.Phase{{Rate: 50000, Requests: o.Requests}},
		MaxOutstanding: 64,
		OnReply: func(object string, _ vtime.Time, out *orb.Outcome) {
			s := ring.Lookup(object)
			lmu.Lock()
			h := perShard[s]
			if h == nil {
				h = &hist.Histogram{}
				perShard[s] = h
			}
			lmu.Unlock()
			h.Observe(int64(out.RTT()))
		},
	}
	res := ol.Run()

	point := ShardScalePoint{
		Shards:           shards,
		ReplicasPerShard: replicasPer,
		Requests:         res.Requests,
		Errors:           res.Errors,
		ThroughputRPS:    res.Throughput(),
	}
	ids := make([]int, 0, len(perShard))
	for s := range perShard {
		ids = append(ids, s)
	}
	sort.Ints(ids)
	for _, s := range ids {
		st := perShard[s].Snapshot()
		point.PerShard = append(point.PerShard, ShardLoad{
			Shard:      s,
			Requests:   int(st.Count),
			MeanMicros: vtime.Duration(st.Mean()).Seconds() * 1e6,
			P99Micros:  vtime.Duration(st.Quantile(0.99)).Seconds() * 1e6,
		})
	}
	return point, nil
}

// RunShardScale sweeps the open-loop workload over 1, 2 and 4 shards.
func RunShardScale(o Options) (*ShardScaleResult, error) {
	res := &ShardScaleResult{Objects: shardScaleObjects}
	for _, shards := range []int{1, 2, 4} {
		p, err := RunShardPoint(o, shards, 3)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, p)
	}
	base := res.Points[0].ThroughputRPS
	for i := range res.Points {
		if base > 0 {
			res.Points[i].Speedup = res.Points[i].ThroughputRPS / base
		}
	}
	res.Speedup4 = res.Points[len(res.Points)-1].Speedup
	res.Passed = res.Speedup4 >= 2.5
	return res, nil
}

// RenderShardScale formats the sweep in the repo's table style.
func RenderShardScale(r *ShardScaleResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Shard scale-out: open-loop workload over %d objects\n", r.Objects)
	fmt.Fprintf(&b, "%-8s %-10s %-10s %-12s %-10s %s\n",
		"shards", "requests", "errors", "tput req/s", "speedup", "per-shard p99 (us)")
	for _, p := range r.Points {
		var p99s []string
		for _, s := range p.PerShard {
			p99s = append(p99s, fmt.Sprintf("s%d:%.0f", s.Shard, s.P99Micros))
		}
		fmt.Fprintf(&b, "%-8d %-10d %-10d %-12.1f %-10.2f %s\n",
			p.Shards, p.Requests, p.Errors, p.ThroughputRPS, p.Speedup,
			strings.Join(p99s, " "))
	}
	fmt.Fprintf(&b, "4-shard speedup %.2fx (pass >= 2.5x): %v\n", r.Speedup4, r.Passed)
	return b.String()
}

// ---- runtime add-shard invariant ----

// ShardGrowResult reports the add-shard-under-load invariant check.
type ShardGrowResult struct {
	// Acked is the number of acknowledged work requests across the run.
	Acked int `json:"acked"`
	// Observed is the sum of final counters over every object.
	Observed int `json:"observed"`
	// Mismatches lists objects whose final counter differs from the
	// number of acked requests for them (empty = invariant holds).
	Mismatches []string `json:"mismatches,omitempty"`
	// AddedShard is the id of the shard added mid-run.
	AddedShard int `json:"added_shard"`
	// MovedToNew counts objects the new shard owns after the move.
	MovedToNew int `json:"moved_to_new"`
}

// RunShardGrow drives load while a shard is added mid-run, then audits
// every object's counter against the acked request count: acked-then-
// moved work must survive the move (carried by the donor's export) and
// NAK-then-rerouted work must execute exactly once at the new owner.
func RunShardGrow(o Options, shards int) (*ShardGrowResult, error) {
	e, err := buildShardedEnv(o, shards, 2, 1)
	if err != nil {
		return nil, err
	}
	defer e.close()

	objects := shardObjects(64)
	acked := make(map[string]int, len(objects))
	var lmu sync.Mutex

	half := o.Requests / 2
	drive := func(n int, startVT vtime.Time) *workload.Result {
		ol := workload.OpenLoop{
			Client:         e.clients[0],
			Op:             "work",
			Objects:        objects,
			RequestBytes:   o.RequestBytes,
			Phases:         []workload.Phase{{Rate: 1000, Requests: n}},
			MaxOutstanding: 32,
			StartVT:        startVT,
			OnReply: func(object string, _ vtime.Time, _ *orb.Outcome) {
				lmu.Lock()
				acked[object]++
				lmu.Unlock()
			},
		}
		return ol.Run()
	}

	// First half of the load against the original layout.
	r1 := drive(half, 0)
	if r1.Errors > 0 {
		return nil, fmt.Errorf("experiment: %d errors before add-shard", r1.Errors)
	}

	newID, err := e.addShard()
	if err != nil {
		return nil, err
	}

	// Second half after the move: routed under the new map (the router
	// refreshes on the first stale NAK it hits; the NAKed request's next
	// ORB attempt goes to the new owner).
	r2 := drive(half, r1.EndVT)
	if r2.Errors > 0 {
		return nil, fmt.Errorf("experiment: %d errors after add-shard", r2.Errors)
	}

	res := &ShardGrowResult{AddedShard: newID}
	ring := e.coord.Snapshot().Ring()
	// Audit through the router: reads follow the same routing as writes.
	for _, obj := range objects {
		if ring.Lookup(obj) == newID {
			res.MovedToNew++
		}
		out, err := e.clients[0].Invoke(obj, "read", nil, r2.EndVT)
		if err != nil {
			return nil, fmt.Errorf("experiment: audit read %s: %w", obj, err)
		}
		got := int(out.Results[0].Int)
		res.Acked += acked[obj]
		res.Observed += got
		if got != acked[obj] {
			res.Mismatches = append(res.Mismatches,
				fmt.Sprintf("%s: acked %d, counter %d", obj, acked[obj], got))
		}
	}
	return res, nil
}
