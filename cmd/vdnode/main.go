// Command vdnode runs one versadep process on a real TCP network: a
// replica hosting a demo counter application, or a client driving it.
// This is the live-deployment counterpart of the simulated experiments —
// the same replicator stack over internal/transport/tcptransport.
//
// A three-replica group with one client, on one machine:
//
//	vdnode -role replica -name ra -bind 127.0.0.1:7001 \
//	       -peers "ra=127.0.0.1:7001,rb=127.0.0.1:7002,rc=127.0.0.1:7003"
//	vdnode -role replica -name rb -bind 127.0.0.1:7002 -seeds ra \
//	       -peers "ra=127.0.0.1:7001,rb=127.0.0.1:7002,rc=127.0.0.1:7003"
//	vdnode -role replica -name rc -bind 127.0.0.1:7003 -seeds ra \
//	       -peers "ra=127.0.0.1:7001,rb=127.0.0.1:7002,rc=127.0.0.1:7003"
//	vdnode -role client -name c1 -bind 127.0.0.1:7010 -members ra,rb,rc \
//	       -peers "ra=127.0.0.1:7001,rb=127.0.0.1:7002,rc=127.0.0.1:7003" \
//	       -requests 100
//
// Clients need not appear in the replicas' -peers registries: every frame
// advertises its sender's listening address, so replicas learn where to
// send replies. Kill any replica (including the primary) while the client
// runs: the group reconfigures and the client's requests keep completing.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"versadep/internal/cliflag"
	"versadep/internal/gcs"
	"versadep/internal/introspect"
	"versadep/internal/obsplane"
	"versadep/internal/policy"
	"versadep/internal/replication"
	"versadep/internal/replicator"
	"versadep/internal/shard"
	"versadep/internal/trace"
	"versadep/internal/transport"
	"versadep/internal/transport/tcptransport"
	"versadep/internal/vtime"
	"versadep/internal/workload"
)

// policyOpts bundles the autonomic-adaptation flags for the replica role.
type policyOpts struct {
	spec     string
	cooldown time.Duration
	every    time.Duration
	spawnCmd string
}

// replicaOpts bundles the state-transfer and transport tuning flags.
type replicaOpts struct {
	stateBytes    int
	transferChunk int
	transferWin   int
	dialAttempts  int
	dialBackoff   time.Duration
	suspectAfter  time.Duration
	detector      string
	chaos         string
	slo           string
	scrapeEvery   time.Duration
	shard         string
}

func main() {
	var (
		role     = flag.String("role", "replica", "replica or client")
		name     = flag.String("name", "", "this node's logical name")
		bind     = flag.String("bind", "", "host:port to listen on")
		peersStr = flag.String("peers", "", "comma-separated name=host:port registry")
		seedsStr = flag.String("seeds", "", "comma-separated seed names (replica role)")
		members  = flag.String("members", "", "comma-separated group member names (client role)")
		style    = flag.String("style", "active", "replication style (replica role)")
		requests = flag.Int("requests", 100, "requests to issue (client role)")
		traceDmp = flag.Bool("trace", false, "dump the trace-counter registry as JSON on exit")
		intro    = flag.String("introspect", "", "host:port for the live introspection endpoint (/metrics, /trace, /policy, /debug/pprof)")
		polSpec  = flag.String("policy", "", "autonomic policy stack in priority order, e.g. \"avail=0.995:5,rate=500:250\" (replica role; bwcap has no bandwidth to read here)")
		cooldown = flag.Duration("cooldown", 5*time.Second, "minimum time between actuations of the same knob (flap damping)")
		adaptEv  = flag.Duration("adapt-every", time.Second, "controller sampling period")
		spawnCmd = flag.String("spawn-cmd", "", "shell command launching one fresh replica (gets VDNODE_SEEDS in its environment); enables the grow knob")
		stateB   = flag.Int("state-bytes", 4096, "demo application state size (replica role; sets the joiner transfer volume)")
		xferChnk = flag.Int("transfer-chunk", 0, "joiner state-transfer chunk size in bytes (0 = engine default)")
		xferWin  = flag.Int("transfer-window", 0, "unacked chunks in flight per joiner transfer (0 = engine default)")
		dialAtt  = flag.Int("dial-attempts", 0, "transport dial attempts per send before dropping (0 = transport default)")
		dialBack = flag.Duration("dial-backoff", 0, "base backoff between dial attempts (0 = transport default)")
		suspect  = flag.Duration("suspect-after", 0, "failure-detector silence threshold (0 = group default; raise when large transfers may delay heartbeats)")
		detector = flag.String("detector", "", "failure detector: \"phi\" or \"phi:THRESH\" (accrual suspicion) or \"timeout\" (fixed silence window only); default = group default")
		chaosArg = flag.String("chaos", "", "perturb this node's outbound wire traffic with chaos faults, \"SPEC[:SEED]\" (e.g. \"drop=0.05,corrupt=0.02:7\"; see internal/faults/chaos)")
		sloSpec  = flag.String("slo", "", "SLO spec to evaluate over this node's own metrics, e.g. \"p99<50ms,avail>0.999:30s\"; serves /slo and feeds the policy controller's burn-rate signals")
		scrape   = flag.String("scrape", "", "aggregator role: comma-separated name=http://host:port introspection endpoints to scrape")
		scrapeEv = flag.Duration("scrape-every", time.Second, "observability sampling/scrape period (replica self-grading and aggregator role)")
		shardArg = flag.String("shard", "", "serve shard k of an N-shard deployment as \"k/N\" (replica role; stamps the group's frames with group id k and NAKs objects owned by other shards)")
		shardMem = flag.String("shard-members", "", "sharded client: semicolon-separated shard groups \"0:ra,rb,rc;1:sa,sb,sc\"; each request routes to the shard owning its object (client role)")
	)
	flag.Parse()
	pol := policyOpts{spec: *polSpec, cooldown: *cooldown, every: *adaptEv, spawnCmd: *spawnCmd}
	rep := replicaOpts{stateBytes: *stateB, transferChunk: *xferChnk, transferWin: *xferWin,
		dialAttempts: *dialAtt, dialBackoff: *dialBack, suspectAfter: *suspect,
		detector: *detector, chaos: *chaosArg,
		slo: *sloSpec, scrapeEvery: *scrapeEv, shard: *shardArg}
	if *role == "aggregator" {
		if err := runAggregator(*bind, *scrape, *sloSpec, *scrapeEv); err != nil {
			fmt.Fprintln(os.Stderr, "vdnode:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*role, *name, *bind, *peersStr, *seedsStr, *members, *shardMem, *style, *requests, *traceDmp, *intro, pol, rep); err != nil {
		fmt.Fprintln(os.Stderr, "vdnode:", err)
		os.Exit(1)
	}
}

func parsePeers(s string) (map[string]string, error) {
	peers := make(map[string]string)
	if s == "" {
		return peers, nil
	}
	for _, pair := range strings.Split(s, ",") {
		name, addr, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			return nil, fmt.Errorf("bad peer entry %q (want name=host:port)", pair)
		}
		peers[name] = addr
	}
	return peers, nil
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func run(role, name, bind, peersStr, seedsStr, membersStr, shardMembers, styleName string, requests int, traceDump bool, intro string, pol policyOpts, rep replicaOpts) error {
	if name == "" || bind == "" {
		return fmt.Errorf("-name and -bind are required")
	}
	peers, err := parsePeers(peersStr)
	if err != nil {
		return err
	}
	var tOpts []tcptransport.Option
	if rep.dialAttempts > 0 || rep.dialBackoff > 0 {
		rc := tcptransport.DefaultRetry()
		if rep.dialAttempts > 0 {
			rc.DialAttempts = rep.dialAttempts
		}
		if rep.dialBackoff > 0 {
			rc.BackoffBase = rep.dialBackoff
		}
		tOpts = append(tOpts, tcptransport.WithRetry(rc))
	}
	ep, err := tcptransport.Listen(name, bind, peers, tOpts...)
	if err != nil {
		return err
	}

	// The chaos spec's link rule applies to every outbound message of this
	// node; corruption is caught and dropped by the receivers' frame
	// checksums.
	var wire transport.MultiEndpoint = ep
	var cw *transport.RuleEndpoint
	if rep.chaos != "" {
		spec, seed, err := cliflag.Chaos(rep.chaos)
		if err != nil {
			_ = ep.Close()
			return err
		}
		cw = transport.ApplyRule(ep, spec.Rule, seed)
		wire = cw
		fmt.Printf("[%s] wire chaos on: %s (seed %d)\n", name, spec, seed)
	}

	switch role {
	case "replica":
		return runReplica(ep, wire, cw, splitList(seedsStr), styleName, traceDump, intro, pol, rep)
	case "client":
		return runClient(wire, splitList(membersStr), shardMembers, requests, traceDump, intro)
	default:
		_ = ep.Close()
		return fmt.Errorf("unknown role %q", role)
	}
}

// detectorGauges publishes the failure detector's live suspicion state on
// /metrics: each tracked peer's current phi level and a 0/1 flag per
// suspected peer. Scraping phi over time shows the detector adapt to the
// network's latency distribution (a spike raises phi briefly; a crash
// drives it through the threshold).
func detectorGauges(node *replicator.ReplicaNode) func() map[string]float64 {
	return func() map[string]float64 {
		g := make(map[string]float64)
		for peer, phi := range node.Member().PhiSnapshot() {
			g[fmt.Sprintf("versadep_detector_phi{peer=%q}", peer)] = phi
		}
		for _, peer := range node.Member().Suspects() {
			g[fmt.Sprintf("versadep_detector_suspect{peer=%q}", peer)] = 1
		}
		return g
	}
}

// wireGauges publishes the transport's wire-integrity counters — frames
// the CRC caught and dropped, dial/reconnect churn — plus, when chaos
// injection is on, how many outbound messages each fault class touched.
func wireGauges(ep *tcptransport.Endpoint, cw *transport.RuleEndpoint) func() map[string]float64 {
	return func() map[string]float64 {
		st := ep.Stats()
		g := map[string]float64{
			"versadep_transport_corrupt_frames": float64(st.CorruptFrames),
			"versadep_transport_dropped":        float64(st.Dropped),
			"versadep_transport_reconnects":     float64(st.Reconnects),
		}
		if cw != nil {
			cs := cw.Stats()
			g["versadep_chaos_injected_drops"] = float64(cs.MessagesDropped)
			g["versadep_chaos_injected_dups"] = float64(cs.MessagesDuplicated)
			g["versadep_chaos_injected_delays"] = float64(cs.MessagesDelayed)
			g["versadep_chaos_injected_corruptions"] = float64(cs.MessagesCorrupted)
		}
		return g
	}
}

// serveIntrospect starts the live observability endpoint when addr is
// nonempty, returning a cleanup func (a no-op when disabled).
func serveIntrospect(addr string, src introspect.Source, opts ...introspect.Option) (func(), error) {
	if addr == "" {
		return func() {}, nil
	}
	s, err := introspect.Start(addr, src, opts...)
	if err != nil {
		return nil, fmt.Errorf("introspect: %w", err)
	}
	fmt.Printf("introspection at http://%s/ (/metrics, /trace, /policy, /debug/pprof)\n", s.Addr())
	return func() { _ = s.Close() }, nil
}

// startController builds and starts the autonomic controller for a
// replica when a policy spec is given. The controller runs on every
// replica but is gated to actuate only while this node is the synced
// primary, so the group has exactly one closed loop at any time (and it
// migrates with the primary role on failover). When the replica grades
// itself against an SLO (-slo), the engine's attainment and burn-rate
// signals decorate the sensor sample so burn-driven policies (burn=…)
// can act on them.
func startController(node *replicator.ReplicaNode, pol policyOpts, slo *obsplane.Engine) (*policy.Controller, func(), error) {
	if pol.spec == "" {
		return nil, func() {}, nil
	}
	policies, err := cliflag.Policies(pol.spec)
	if err != nil {
		return nil, nil, err
	}
	act := &replicator.ElasticActuator{Node: node}
	if pol.spawnCmd != "" {
		cmd := pol.spawnCmd
		act.Spawn = func(seeds []string) error {
			c := exec.Command("/bin/sh", "-c", cmd)
			c.Env = append(os.Environ(), "VDNODE_SEEDS="+strings.Join(seeds, ","))
			c.Stdout, c.Stderr = os.Stdout, os.Stderr
			return c.Start()
		}
	}
	sample := node.Sensors()
	if slo != nil {
		sample = slo.Signals(sample)
	}
	ctrl := policy.New(policy.Config{
		Policies: policies,
		Sample:   sample,
		Actuator: act,
		Cooldown: pol.cooldown,
		Gate:     node.PolicyGate(),
		OnEntry: func(e policy.Entry) {
			if e.Err != "" {
				fmt.Printf("[%s] policy %s: %s %s FAILED: %s\n", node.Addr(), e.Policy, e.Knob, e.Action, e.Err)
				return
			}
			fmt.Printf("[%s] policy %s: %s — %s\n", node.Addr(), e.Policy, e.Action, e.Reason)
		},
	})
	stop := ctrl.Start(pol.every)
	fmt.Printf("[%s] autonomic controller on (%s), cooldown %v, sampling every %v\n",
		node.Addr(), pol.spec, pol.cooldown, pol.every)
	return ctrl, stop, nil
}

func runReplica(ep *tcptransport.Endpoint, wire transport.MultiEndpoint, cw *transport.RuleEndpoint, seeds []string, styleName string, traceDump bool, intro string, pol policyOpts, rep replicaOpts) error {
	style, err := replication.ParseStyle(styleName)
	if err != nil {
		return err
	}
	// Live mode keeps the virtual accounting inert but the protocol
	// identical; group timing must be looser than simulation defaults to
	// tolerate real-network scheduling.
	app := workload.NewBenchApp(rep.stateBytes, 0, 64)
	gcsCfg, err := cliflag.Detector(rep.detector, rep.suspectAfter)
	if err != nil {
		return err
	}
	// A sharded replica stamps its group's frames with the shard ID so
	// several groups can multiplex one transport; shard 0 keeps group id 0,
	// which encodes identically to the unsharded wire format.
	shardID, shardN, sharded, err := cliflag.Shard(rep.shard)
	if err != nil {
		return err
	}
	if sharded && shardID > 0 {
		if gcsCfg == nil {
			g := gcs.DefaultConfig()
			gcsCfg = &g
		}
		gcsCfg.GroupID = uint32(shardID)
	}
	node := replicator.StartReplica(wire, replicator.ReplicaConfig{
		Seeds: seeds,
		GCS:   gcsCfg,
		Trace: trace.New(), // served on /trace and dumped at exit
		Replication: replication.Config{
			Style:              style,
			CheckpointEvery:    5,
			Model:              vtime.DefaultCostModel(),
			State:              app,
			TransferChunkBytes: rep.transferChunk,
			TransferWindow:     rep.transferWin,
			Observer: func(n replication.Notice) {
				switch n.Kind {
				case replication.NoticeSwitchDone:
					fmt.Printf("[%s] switched to %s\n", n.Addr, n.Style)
				case replication.NoticeFailover:
					fmt.Printf("[%s] failover complete\n", n.Addr)
				case replication.NoticeCheckpoint:
					fmt.Printf("[%s] checkpoint\n", n.Addr)
				case replication.NoticeRetire:
					fmt.Printf("[%s] retirement directive for %s\n", n.Addr, n.Peer)
				case replication.NoticeView:
					fmt.Printf("[%s] view change: %d members (%d crashed)\n", n.Addr, n.Members, n.Crashed)
				case replication.NoticeTransfer:
					// Per-chunk progress notices are dropped; only the
					// transfer milestones land in the log.
					switch {
					case n.Resumed:
						fmt.Printf("[%s] transfer resumed with %s at chunk %d/%d (serial %d)\n",
							n.Addr, n.Peer, n.Chunk, n.Chunks, n.Serial)
					case n.Chunk == n.Chunks:
						fmt.Printf("[%s] transfer complete with %s: %d chunks (serial %d)\n",
							n.Addr, n.Peer, n.Chunks, n.Serial)
					case n.Chunk == 0:
						fmt.Printf("[%s] transfer started with %s: %d chunks (serial %d)\n",
							n.Addr, n.Peer, n.Chunks, n.Serial)
					}
				}
			},
		},
	})
	node.Register("Bench", app)
	if sharded {
		// The ring needs only the shard IDs (placement is a pure function
		// of IDs and vnodes), so every replica and every router derives the
		// same ownership from just "k/N" — no membership exchange needed.
		groups := make([]shard.Group, shardN)
		for i := range groups {
			groups[i] = shard.Group{ID: i}
		}
		guard := shard.NewGuard(shardID, shard.NewMap(shard.DefaultVnodes, groups...))
		node.RegisterDefault(app)
		node.SetRouteCheck(func(object string) error {
			if object == "Bench" {
				return nil // the unsharded demo object bypasses placement
			}
			return guard.Check(object)
		})
		fmt.Printf("[%s] serving shard %d of %d\n", ep.Addr(), shardID, shardN)
	}

	// Self-grading observability plane: an in-process aggregator samples
	// this node's own recorder on a ticker, and an SLO engine grades the
	// derived series. A replica sees its own turnaround, not the client
	// round trip, so the grade covers execution latency and served-request
	// volume; /slo serves the rolling evaluation.
	var sloEng *obsplane.Engine
	stopPlane := func() {}
	var introOpts []introspect.Option
	if rep.slo != "" {
		spec, width, err := cliflag.SLO(rep.slo)
		if err != nil {
			node.Leave()
			return err
		}
		agg := obsplane.NewAggregator(width, 512)
		agg.Attach(ep.Addr(), node.TraceSnapshot)
		sloEng = obsplane.NewEngine(agg.Store(), spec)
		sloEng.SetSeries(obsplane.SeriesExecMicros, obsplane.SeriesServed, obsplane.SeriesBad)
		stopPlane = agg.Start(rep.scrapeEvery)
		introOpts = append(introOpts,
			introspect.WithJSON("/slo", func() any { return sloEng.Status() }))
		fmt.Printf("[%s] SLO self-grading on (%s), sampling every %v\n", ep.Addr(), spec.Raw, rep.scrapeEvery)
	}
	defer stopPlane()

	ctrl, stopCtrl, err := startController(node, pol, sloEng)
	if err != nil {
		node.Leave()
		return err
	}
	defer stopCtrl()
	if ctrl != nil {
		introOpts = append(introOpts,
			introspect.WithJSON("/policy", func() any { return ctrl.Status() }))
	}
	introOpts = append(introOpts, introspect.WithGauges(detectorGauges(node)),
		introspect.WithGauges(wireGauges(ep, cw)))
	if sharded {
		// A constant info gauge labels every scrape of this node with its
		// shard, so the aggregator's merged exposition separates the groups.
		info := fmt.Sprintf("versadep_shard_info{shard=\"%d\"}", shardID)
		introOpts = append(introOpts, introspect.WithGauges(func() map[string]float64 {
			return map[string]float64{info: 1}
		}))
	}
	closeIntro, err := serveIntrospect(intro, node.TraceSnapshot, introOpts...)
	if err != nil {
		node.Leave()
		return err
	}
	defer closeIntro()
	fmt.Printf("[%s] replica up (%s) at %s, seeds=%v\n",
		ep.Addr(), style, ep.BoundAddr(), seeds)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	ticker := time.NewTicker(5 * time.Second)
	defer ticker.Stop()
	for {
		select {
		case <-sig:
			fmt.Printf("[%s] shutting down\n", ep.Addr())
			if traceDump {
				fmt.Printf("[%s] trace:\n%s\n", ep.Addr(), node.TraceSnapshot().JSON())
			}
			node.Leave()
			return nil
		case <-ticker.C:
			st := node.Engine().StatsSnapshot()
			v, err := node.Member().View()
			if err == gcs.ErrStopped {
				// A retirement directive made this replica leave the
				// group; the process is done.
				fmt.Printf("[%s] retired gracefully\n", ep.Addr())
				if traceDump {
					fmt.Printf("[%s] trace:\n%s\n", ep.Addr(), node.TraceSnapshot().JSON())
				}
				return nil
			}
			if err != nil {
				continue
			}
			fmt.Printf("[%s] view=%v style=%s role=%s synced=%v executed=%d logged=%d ckpts=%d\n",
				ep.Addr(), v.Members, st.Style, st.Role, st.Synced,
				st.RequestsExecuted, st.RequestsLogged, st.Checkpoints)
		}
	}
}

func runClient(wire transport.MultiEndpoint, members []string, shardMembers string, requests int, traceDump bool, intro string) error {
	var client *replicator.ClientNode
	sharded := shardMembers != ""
	if sharded {
		// The sharded client spans every group: one endpoint, one ORB, a
		// router underneath mapping each object to its shard's group. The
		// deployment is fixed from the flag, so the map never changes and
		// Fetch just returns the same epoch-1 layout.
		groups, err := cliflag.ShardMembers(shardMembers)
		if err != nil {
			_ = wire.Close()
			return err
		}
		m := shard.NewMap(shard.DefaultVnodes, groups...)
		client = replicator.StartShardedClient(wire, replicator.ShardedClientConfig{
			Fetch:   func() *shard.Map { return m },
			Model:   vtime.DefaultCostModel(),
			Timeout: 2 * time.Second,
			Retries: 10,
			Trace:   trace.New(),
		})
		fmt.Printf("sharded client over %d shards\n", len(groups))
	} else {
		if len(members) == 0 {
			_ = wire.Close()
			return fmt.Errorf("-members or -shard-members is required for the client role")
		}
		client = replicator.StartClient(wire, replicator.ClientConfig{
			Members: members,
			Model:   vtime.DefaultCostModel(),
			Timeout: 2 * time.Second,
			Retries: 10,
			Trace:   trace.New(),
		})
	}
	defer client.Stop()
	closeIntro, err := serveIntrospect(intro, client.TraceSnapshot)
	if err != nil {
		return err
	}
	defer closeIntro()

	start := time.Now()
	var last int64
	for i := 1; i <= requests; i++ {
		t0 := time.Now()
		object := "Bench"
		if sharded {
			// Spread the keyspace so the ring routes requests to every
			// shard; sharded replicas serve any object via their default
			// servant, gated by the placement guard.
			object = fmt.Sprintf("bench-%03d", i%64)
		}
		out, err := client.Invoke(object, "work", []interface{}{[]byte("x")}, 0)
		if err != nil {
			return fmt.Errorf("request %d: %w", i, err)
		}
		last = out.Results[0].Int
		if i%10 == 0 || i == requests {
			fmt.Printf("request %d -> counter=%d (%.2fms wall)\n",
				i, last, float64(time.Since(t0).Microseconds())/1000)
		}
	}
	elapsed := time.Since(start)
	fmt.Printf("done: %d requests in %v (%.1f req/s wall), final counter %d\n",
		requests, elapsed.Round(time.Millisecond),
		float64(requests)/elapsed.Seconds(), last)
	if traceDump {
		fmt.Printf("trace:\n%s\n", client.TraceSnapshot().JSON())
	}
	return nil
}

// runAggregator is the cluster observability role: it scrapes every
// target's introspection endpoint on a ticker (validating each /metrics
// exposition), merges the per-node snapshots, and serves the cluster
// view — merged /metrics and /trace, stitched cross-node request
// timelines on /timelines, scrape health on /aggregator, and (when -slo
// is set) the rolling SLO evaluation of the cluster-derived series on
// /slo.
func runAggregator(bind, scrape, sloSpec string, every time.Duration) error {
	if bind == "" {
		return fmt.Errorf("-bind is required for the aggregator role")
	}
	if scrape == "" {
		return fmt.Errorf("-scrape is required for the aggregator role (name=http://host:port,...)")
	}
	var spec obsplane.Spec
	width := int64(time.Second)
	if sloSpec != "" {
		var err error
		if spec, width, err = cliflag.SLO(sloSpec); err != nil {
			return err
		}
	}
	agg := obsplane.NewAggregator(width, 512)
	// Targets may carry a shard annotation ("name@shard=url"), labeling the
	// merged exposition per shard in a sharded deployment.
	shardOf := make(map[string]string)
	for _, pair := range strings.Split(scrape, ",") {
		name, url, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			return fmt.Errorf("bad scrape target %q (want name[@shard]=http://host:port)", pair)
		}
		if base, shard, ok := strings.Cut(name, "@"); ok {
			if shard == "" {
				return fmt.Errorf("bad scrape target %q (empty shard annotation)", pair)
			}
			name = base
			shardOf[name] = shard
		}
		agg.AddTarget(name, url)
	}
	stop := agg.Start(every)
	defer stop()

	opts := []introspect.Option{
		introspect.WithJSON("/timelines", func() any { return agg.Timelines() }),
		introspect.WithJSON("/aggregator", func() any { return agg.Status() }),
	}
	if len(shardOf) > 0 {
		// One up-gauge per annotated target: the merged exposition then
		// separates the shards by label, and a shard whose scrapes fail
		// shows up as versadep_shard_up 0 rather than silently vanishing.
		opts = append(opts, introspect.WithGauges(func() map[string]float64 {
			g := make(map[string]float64, len(shardOf))
			for _, t := range agg.Status().Targets {
				shard, ok := shardOf[t.Name]
				if !ok {
					continue
				}
				up := 0.0
				if t.LastError == "" && t.LastScrapeUnixNanos > 0 {
					up = 1
				}
				g[fmt.Sprintf("versadep_shard_up{shard=%q,node=%q}", shard, t.Name)] = up
			}
			return g
		}))
	}
	if sloSpec != "" {
		eng := obsplane.NewEngine(agg.Store(), spec)
		opts = append(opts, introspect.WithJSON("/slo", func() any { return eng.Status() }))
	}
	srv, err := introspect.Start(bind, agg.Merged, opts...)
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("aggregator at http://%s/ (/metrics, /trace, /timelines, /slo, /aggregator), scraping every %v\n",
		srv.Addr(), every)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("aggregator shutting down")
	return nil
}
