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
//
// Every structured flag is parsed by the package that owns its grammar
// while the command line is parsed, so a malformed one exits with status 2
// and the usage before any port is bound or any node is started.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"versadep/internal/faults/chaos"
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

// config is vdnode's command line, parsed.
type config struct {
	role, name, bind, intro, spawnCmd, policySpec  string
	peers                                          map[string]string
	seeds, members                                 []string
	style                                          replication.Style
	requests, stateBytes, xferChunk, xferWin       int
	dialAttempts, shardID, shardN                  int // shardN is 0 without -shard
	traceDump                                      bool
	cooldown, adaptEvery, dialBackoff, scrapeEvery time.Duration
	// gcs is the group defaults with -detector, -suspect-after and the
	// -shard group id folded in.
	gcs         gcs.Config
	policies    []policy.Policy
	chaos       *chaos.Spec
	chaosSeed   uint64
	slo         obsplane.Spec // Raw is "" without -slo
	scrape      []scrapeTarget
	shardGroups []shard.Group
	out         io.Writer // where the role prints its log lines: standard output
}

// scrapeTarget is one -scrape entry: "name[@shard]=url".
type scrapeTarget struct{ name, shard, url string }

// parseFlags reads vdnode's command line from args into a config. A
// malformed spec fails inside fs.Parse, which on flag.CommandLine prints
// the usage and exits with status 2. The error returned after fs.Parse is
// a missing or unknown role, style or required flag.
func parseFlags(fs *flag.FlagSet, args []string) (*config, error) {
	c := &config{peers: map[string]string{}, gcs: gcs.DefaultConfig(), out: os.Stdout}
	var suspect time.Duration
	fs.StringVar(&c.role, "role", "replica", "replica or client")
	fs.StringVar(&c.name, "name", "", "this node's logical name")
	fs.StringVar(&c.bind, "bind", "", "host:port to listen on")
	specFlag(fs, &c.peers, "peers", "comma-separated name=host:port registry", parsePeers)
	seeds := fs.String("seeds", "", "comma-separated seed names (replica role)")
	members := fs.String("members", "", "comma-separated group member names (client role)")
	style := fs.String("style", "active", "replication style (replica role)")
	fs.IntVar(&c.requests, "requests", 100, "requests to issue (client role)")
	fs.BoolVar(&c.traceDump, "trace", false, "dump the trace-counter registry as JSON on exit")
	fs.StringVar(&c.intro, "introspect", "", "host:port for the live introspection endpoint (/metrics, /trace, /policy, /debug/pprof)")
	specFlag(fs, &c.policies, "policy", "autonomic policy stack in priority order, e.g. \"avail=0.995:5,rate=500:250\" (replica role; bwcap has no bandwidth to read here)", func(s string) ([]policy.Policy, error) {
		c.policySpec = s
		return policy.ParseSpec(s)
	})
	fs.DurationVar(&c.cooldown, "cooldown", 5*time.Second, "minimum time between actuations of the same knob (flap damping)")
	fs.DurationVar(&c.adaptEvery, "adapt-every", time.Second, "controller sampling period")
	fs.StringVar(&c.spawnCmd, "spawn-cmd", "", "shell command launching one fresh replica (gets VDNODE_SEEDS in its environment); enables the grow knob")
	fs.IntVar(&c.stateBytes, "state-bytes", 4096, "demo application state size (replica role; sets the joiner transfer volume)")
	fs.IntVar(&c.xferChunk, "transfer-chunk", 0, "joiner state-transfer chunk size in bytes (0 = engine default)")
	fs.IntVar(&c.xferWin, "transfer-window", 0, "unacked chunks in flight per joiner transfer (0 = engine default)")
	fs.IntVar(&c.dialAttempts, "dial-attempts", 0, "transport dial attempts per send before dropping (0 = transport default)")
	fs.DurationVar(&c.dialBackoff, "dial-backoff", 0, "base backoff between dial attempts (0 = transport default)")
	fs.DurationVar(&suspect, "suspect-after", 0, "failure-detector silence threshold (0 = group default; raise when large transfers may delay heartbeats)")
	specFlag(fs, &c.gcs.PhiThreshold, "detector", "failure detector: \"phi\" or \"phi:THRESH\" (accrual suspicion) or \"timeout\" (fixed silence window only); default = group default", gcs.ParseDetector)
	specFlag(fs, &c.chaos, "chaos", "perturb this node's outbound wire traffic with chaos faults, \"SPEC[:SEED]\" (e.g. \"drop=0.05,corrupt=0.02:7\"; see internal/faults/chaos)", func(s string) (*chaos.Spec, error) {
		spec, seed, err := chaos.ParseSpec(s)
		c.chaosSeed = seed
		return &spec, err
	})
	specFlag(fs, &c.slo, "slo", "SLO spec to evaluate over this node's own metrics, e.g. \"p99<50ms,avail>0.999:30s\"; serves /slo and feeds the policy controller's burn-rate signals", obsplane.ParseSLO)
	specFlag(fs, &c.scrape, "scrape", "aggregator role: comma-separated name=http://host:port introspection endpoints to scrape", parseScrape)
	fs.DurationVar(&c.scrapeEvery, "scrape-every", time.Second, "observability sampling/scrape period (replica self-grading and aggregator role)")
	specFlag(fs, &c.shardN, "shard", "serve shard k of an N-shard deployment as \"k/N\" (replica role; stamps the group's frames with group id k and NAKs objects owned by other shards)", func(s string) (n int, err error) {
		c.shardID, n, err = parseShard(s)
		return n, err
	})
	specFlag(fs, &c.shardGroups, "shard-members", "sharded client: semicolon-separated shard groups \"0:ra,rb,rc;1:sa,sb,sc\"; each request routes to the shard owning its object (client role)", parseShardMembers)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	c.seeds, c.members = splitList(*seeds), splitList(*members)
	if suspect > 0 {
		c.gcs.SuspectAfter = suspect
	}
	// A sharded replica stamps its group's frames with the shard ID so
	// several groups can multiplex one transport; shard 0 keeps group id 0,
	// which encodes identically to the unsharded wire format.
	c.gcs.GroupID = uint32(c.shardID)

	var err error
	switch {
	case c.role == "aggregator":
		if c.bind == "" || c.scrape == nil {
			err = fmt.Errorf("-bind and -scrape are required for the aggregator role (-scrape name=http://host:port,...)")
		}
	case c.role != "replica" && c.role != "client":
		err = fmt.Errorf("unknown role %q", c.role)
	case c.name == "" || c.bind == "":
		err = fmt.Errorf("-name and -bind are required")
	case c.role == "replica":
		c.style, err = replication.ParseStyle(*style)
	case c.members == nil && c.shardGroups == nil:
		err = fmt.Errorf("-members or -shard-members is required for the client role")
	}
	return c, err
}

// specFlag defines a flag that parse reads into *dst. An empty value
// leaves the flag unset, as leaving it out does.
func specFlag[T any](fs *flag.FlagSet, dst *T, name, usage string, parse func(string) (T, error)) {
	fs.Func(name, usage, func(s string) (err error) {
		if s != "" {
			*dst, err = parse(s)
		}
		return err
	})
}

func parsePeers(s string) (map[string]string, error) {
	peers := make(map[string]string)
	for _, pair := range strings.Split(s, ",") {
		name, addr, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			return nil, fmt.Errorf("bad peer entry %q (want name=host:port)", pair)
		}
		peers[name] = addr
	}
	return peers, nil
}

// parseScrape reads -scrape's targets. A target may carry a shard
// annotation ("name@shard=url"), labeling the merged exposition per shard
// in a sharded deployment.
func parseScrape(s string) ([]scrapeTarget, error) {
	var targets []scrapeTarget
	for _, pair := range strings.Split(s, ",") {
		name, url, ok := strings.Cut(strings.TrimSpace(pair), "=")
		base, shard, sharded := strings.Cut(name, "@")
		if !ok || sharded && shard == "" {
			return nil, fmt.Errorf("bad scrape target %q (want name[@shard]=http://host:port)", pair)
		}
		targets = append(targets, scrapeTarget{name: base, shard: shard, url: url})
	}
	return targets, nil
}

// parseShard reads -shard's "k/N": this node serves shard k of an N-shard
// deployment.
func parseShard(s string) (k, n int, err error) {
	ks, ns, ok := strings.Cut(s, "/")
	k, errK := strconv.Atoi(strings.TrimSpace(ks))
	n, errN := strconv.Atoi(strings.TrimSpace(ns))
	if !ok || errK != nil || errN != nil || k < 0 || k >= n {
		return 0, 0, fmt.Errorf("want \"k/N\" with 0 <= k < N, got %q", s)
	}
	return k, n, nil
}

// parseShardMembers reads -shard-members, every shard's replica group:
// semicolon-separated "id:member,member,..." entries, e.g.
// "0:ra,rb,rc;1:sa,sb,sc". The groups feed a static shard.Map for a
// sharded client in a fixed deployment.
func parseShardMembers(s string) ([]shard.Group, error) {
	var groups []shard.Group
	for _, entry := range strings.Split(s, ";") {
		if entry = strings.TrimSpace(entry); entry == "" {
			continue
		}
		idStr, memberStr, ok := strings.Cut(entry, ":")
		id, err := strconv.Atoi(strings.TrimSpace(idStr))
		members := splitList(memberStr)
		if !ok || err != nil || id < 0 || len(members) == 0 ||
			slices.ContainsFunc(groups, func(g shard.Group) bool { return g.ID == id }) {
			return nil, fmt.Errorf("want a new shard id and its members, \"id:member,...\", got %q", entry)
		}
		groups = append(groups, shard.Group{ID: id, Members: members})
	}
	if len(groups) == 0 {
		return nil, fmt.Errorf("no shard groups in %q", s)
	}
	return groups, nil
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

func main() {
	c, err := parseFlags(flag.CommandLine, os.Args[1:])
	var r *role
	if err == nil {
		r, err = start(c)
	}
	if err == nil {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		select {
		case <-sig:
		case err = <-r.done:
		}
		r.stop()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "vdnode:", err)
		os.Exit(1)
	}
}

// A role is one running vdnode role. main runs one until a signal arrives
// or the role ends by itself; a test runs several in one process.
type role struct {
	addr, intro string                  // the bound listen and introspection addresses
	node        *replicator.ReplicaNode // the replica role's node
	// done yields once if the role ends by itself: a client after its
	// last request, a replica once retired. It is nil for the aggregator.
	done chan error
	stop func()
}

// start runs c's role: the aggregator serves its scrape of the cluster,
// and the replica and client roles listen on -bind, behind the -chaos rule
// when one is given.
func start(c *config) (*role, error) {
	if c.role == "aggregator" {
		return startAggregator(c)
	}
	retry := tcptransport.DefaultRetry()
	if c.dialAttempts > 0 {
		retry.DialAttempts = c.dialAttempts
	}
	if c.dialBackoff > 0 {
		retry.BackoffBase = c.dialBackoff
	}
	ep, err := tcptransport.Listen(c.name, c.bind, c.peers, tcptransport.WithRetry(retry))
	if err != nil {
		return nil, err
	}

	// The chaos spec's link rule applies to every outbound message of this
	// node; corruption is caught and dropped by the receivers' frame
	// checksums.
	var wire transport.MultiEndpoint = ep
	var cw *transport.RuleEndpoint
	if c.chaos != nil {
		cw = transport.ApplyRule(ep, c.chaos.Rule, c.chaosSeed)
		wire = cw
		fmt.Fprintf(c.out, "[%s] wire chaos on: %s (seed %d)\n", c.name, c.chaos, c.chaosSeed)
	}
	if c.role == "replica" {
		return startReplica(c, ep, wire, cw)
	}
	return startClient(c, ep, wire)
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

// wireGauges publishes the transport's wire counters — frames the CRC
// caught and dropped, dial/reconnect churn, and the writes and the frames
// they carried — plus, when chaos injection is on, how many outbound
// messages each fault class touched.
func wireGauges(ep *tcptransport.Endpoint, cw *transport.RuleEndpoint) func() map[string]float64 {
	return func() map[string]float64 {
		st := ep.Stats()
		g := map[string]float64{
			"versadep_transport_corrupt_frames": float64(st.CorruptFrames),
			"versadep_transport_dropped":        float64(st.Dropped),
			"versadep_transport_reconnects":     float64(st.Reconnects),
			"versadep_transport_writes":         float64(st.Writes),
			"versadep_transport_frames_sent":    float64(st.FramesSent),
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

// serveIntrospect starts the live observability endpoint when c.intro is
// nonempty, returning its bound address and a cleanup func (a no-op when
// disabled).
func serveIntrospect(c *config, src introspect.Source, opts ...introspect.Option) (string, func(), error) {
	if c.intro == "" {
		return "", func() {}, nil
	}
	s, err := introspect.Start(c.intro, src, opts...)
	if err != nil {
		return "", nil, fmt.Errorf("introspect: %w", err)
	}
	fmt.Fprintf(c.out, "introspection at http://%s/ (/metrics, /trace, /policy, /debug/pprof)\n", s.Addr())
	return s.Addr(), func() { _ = s.Close() }, nil
}

// startController builds and starts the autonomic controller for a
// replica when a policy spec is given. The controller runs on every
// replica but is gated to actuate only while this node is the synced
// primary, so the group has exactly one closed loop at any time (and it
// migrates with the primary role on failover). When the replica grades
// itself against an SLO (-slo), the engine's attainment and burn-rate
// signals decorate the sensor sample so burn-driven policies (burn=…)
// can act on them.
func startController(node *replicator.ReplicaNode, c *config, slo *obsplane.Engine) (*policy.Controller, func()) {
	if c.policies == nil {
		return nil, func() {}
	}
	act := &replicator.ElasticActuator{Node: node}
	if c.spawnCmd != "" {
		cmd := c.spawnCmd
		act.Spawn = func(seeds []string) error {
			p := exec.Command("/bin/sh", "-c", cmd)
			p.Env = append(os.Environ(), "VDNODE_SEEDS="+strings.Join(seeds, ","))
			p.Stdout, p.Stderr = os.Stdout, os.Stderr
			return p.Start()
		}
	}
	sample := node.Sensors()
	if slo != nil {
		sample = slo.Signals(sample)
	}
	ctrl := policy.New(policy.Config{
		Policies: c.policies,
		Sample:   sample,
		Actuator: act,
		Cooldown: c.cooldown,
		Gate:     node.PolicyGate(),
		OnEntry: func(e policy.Entry) {
			if e.Err != "" {
				fmt.Fprintf(c.out, "[%s] policy %s: %s %s FAILED: %s\n", node.Addr(), e.Policy, e.Knob, e.Action, e.Err)
				return
			}
			fmt.Fprintf(c.out, "[%s] policy %s: %s — %s\n", node.Addr(), e.Policy, e.Action, e.Reason)
		},
	})
	stop := ctrl.Start(c.adaptEvery)
	fmt.Fprintf(c.out, "[%s] autonomic controller on (%s), cooldown %v, sampling every %v\n",
		node.Addr(), c.policySpec, c.cooldown, c.adaptEvery)
	return ctrl, stop
}

// startReplica runs the replica role on ep: the demo counter replicated in
// c's style, its SLO self-grading, policy controller and introspection
// endpoint, and a status line every 5 s. Stopping it leaves the group.
func startReplica(c *config, ep *tcptransport.Endpoint, wire transport.MultiEndpoint, cw *transport.RuleEndpoint) (*role, error) {
	// Live mode keeps the virtual accounting inert but the protocol
	// identical; group timing must be looser than simulation defaults to
	// tolerate real-network scheduling.
	app := workload.NewBenchApp(c.stateBytes, 0, 64)
	node := replicator.StartReplica(wire, replicator.ReplicaConfig{
		Seeds: c.seeds,
		GCS:   &c.gcs,
		Trace: trace.New(), // served on /trace and dumped at exit
		Replication: replication.Config{
			Style:              c.style,
			CheckpointEvery:    5,
			Model:              vtime.DefaultCostModel(),
			State:              app,
			TransferChunkBytes: c.xferChunk,
			TransferWindow:     c.xferWin,
			Observer: func(n replication.Notice) {
				switch n.Kind {
				case replication.NoticeSwitchDone:
					fmt.Fprintf(c.out, "[%s] switched to %s\n", n.Addr, n.Style)
				case replication.NoticeFailover:
					fmt.Fprintf(c.out, "[%s] failover complete\n", n.Addr)
				case replication.NoticeCheckpoint:
					fmt.Fprintf(c.out, "[%s] checkpoint\n", n.Addr)
				case replication.NoticeRetire:
					fmt.Fprintf(c.out, "[%s] retirement directive for %s\n", n.Addr, n.Peer)
				case replication.NoticeView:
					fmt.Fprintf(c.out, "[%s] view change: %d members (%d crashed)\n", n.Addr, n.Members, n.Crashed)
				case replication.NoticeTransfer:
					// Per-chunk progress notices are dropped; only the
					// transfer milestones land in the log.
					switch {
					case n.Resumed:
						fmt.Fprintf(c.out, "[%s] transfer resumed with %s at chunk %d/%d (serial %d)\n",
							n.Addr, n.Peer, n.Chunk, n.Chunks, n.Serial)
					case n.Chunk == n.Chunks:
						fmt.Fprintf(c.out, "[%s] transfer complete with %s: %d chunks (serial %d)\n",
							n.Addr, n.Peer, n.Chunks, n.Serial)
					case n.Chunk == 0:
						fmt.Fprintf(c.out, "[%s] transfer started with %s: %d chunks (serial %d)\n",
							n.Addr, n.Peer, n.Chunks, n.Serial)
					}
				}
			},
		},
	})
	node.Register("Bench", app)
	if c.shardN > 0 {
		// The ring needs only the shard IDs (placement is a pure function
		// of IDs and vnodes), so every replica and every router derives the
		// same ownership from just "k/N" — no membership exchange needed.
		groups := make([]shard.Group, c.shardN)
		for i := range groups {
			groups[i] = shard.Group{ID: i}
		}
		guard := shard.NewGuard(c.shardID, shard.NewMap(shard.DefaultVnodes, groups...))
		node.RegisterDefault(app)
		node.SetRouteCheck(func(object string) error {
			if object == "Bench" {
				return nil // the unsharded demo object bypasses placement
			}
			return guard.Check(object)
		})
		fmt.Fprintf(c.out, "[%s] serving shard %d of %d\n", ep.Addr(), c.shardID, c.shardN)
	}

	// Self-grading observability plane: an in-process aggregator samples
	// this node's own recorder on a ticker, and an SLO engine grades the
	// derived series. A replica sees its own turnaround, not the client
	// round trip, so the grade covers execution latency and served-request
	// volume; /slo serves the rolling evaluation.
	var sloEng *obsplane.Engine
	stopPlane := func() {}
	var introOpts []introspect.Option
	if c.slo.Raw != "" {
		agg := obsplane.NewAggregator(c.slo.BucketWidth(), obsplane.SLORetain)
		agg.Attach(ep.Addr(), node.TraceSnapshot)
		sloEng = obsplane.NewEngine(agg.Store(), c.slo)
		sloEng.SetSeries(obsplane.SeriesExecMicros, obsplane.SeriesServed, obsplane.SeriesBad)
		stopPlane = agg.Start(c.scrapeEvery)
		introOpts = append(introOpts,
			introspect.WithJSON("/slo", func() any { return sloEng.Status() }))
		fmt.Fprintf(c.out, "[%s] SLO self-grading on (%s), sampling every %v\n", ep.Addr(), c.slo.Raw, c.scrapeEvery)
	}

	ctrl, stopCtrl := startController(node, c, sloEng)
	if ctrl != nil {
		introOpts = append(introOpts,
			introspect.WithJSON("/policy", func() any { return ctrl.Status() }))
	}
	introOpts = append(introOpts, introspect.WithGauges(detectorGauges(node)),
		introspect.WithGauges(wireGauges(ep, cw)))
	if c.shardN > 0 {
		// A constant info gauge labels every scrape of this node with its
		// shard, so the aggregator's merged exposition separates the groups.
		info := fmt.Sprintf("versadep_shard_info{shard=\"%d\"}", c.shardID)
		introOpts = append(introOpts, introspect.WithGauges(func() map[string]float64 {
			return map[string]float64{info: 1}
		}))
	}
	intro, closeIntro, err := serveIntrospect(c, node.TraceSnapshot, introOpts...)
	if err != nil {
		node.Leave()
		stopCtrl()
		stopPlane()
		return nil, err
	}
	fmt.Fprintf(c.out, "[%s] replica up (%s) at %s, seeds=%v\n",
		ep.Addr(), c.style, ep.BoundAddr(), c.seeds)

	dumpTrace := func() {
		if c.traceDump {
			fmt.Fprintf(c.out, "[%s] trace:\n%s\n", ep.Addr(), node.TraceSnapshot().JSON())
		}
	}
	r := &role{addr: ep.BoundAddr(), intro: intro, node: node, done: make(chan error, 1)}
	quit, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		ticker := time.NewTicker(5 * time.Second)
		defer ticker.Stop()
		for {
			select {
			case <-quit:
				return
			case <-ticker.C:
			}
			st := node.Engine().StatsSnapshot()
			v, err := node.Member().View()
			if err == gcs.ErrStopped {
				// A retirement directive made this replica leave the
				// group; the process is done.
				fmt.Fprintf(c.out, "[%s] retired gracefully\n", ep.Addr())
				dumpTrace()
				r.done <- nil
				return
			}
			if err == nil {
				fmt.Fprintf(c.out, "[%s] view=%v style=%s role=%s synced=%v executed=%d logged=%d ckpts=%d\n",
					ep.Addr(), v.Members, st.Style, st.Role, st.Synced,
					st.RequestsExecuted, st.RequestsLogged, st.Checkpoints)
			}
		}
	}()
	r.stop = func() {
		close(quit)
		<-exited
		if _, err := node.Member().View(); err != gcs.ErrStopped { // not retired
			fmt.Fprintf(c.out, "[%s] shutting down\n", ep.Addr())
			dumpTrace()
			node.Leave()
		}
		closeIntro()
		stopCtrl()
		stopPlane()
	}
	return r, nil
}

// startClient runs the client role on wire: c.requests invocations of the
// demo counter, one at a time, with a progress line every ten. Its done
// channel yields when the last returns, or the first fails.
func startClient(c *config, ep *tcptransport.Endpoint, wire transport.MultiEndpoint) (*role, error) {
	var client *replicator.ClientNode
	sharded := c.shardGroups != nil
	if sharded {
		// The sharded client spans every group: one endpoint, one ORB, a
		// router underneath mapping each object to its shard's group. The
		// deployment is fixed from the flag, so the map never changes and
		// Fetch just returns the same epoch-1 layout.
		m := shard.NewMap(shard.DefaultVnodes, c.shardGroups...)
		client = replicator.StartShardedClient(wire, replicator.ShardedClientConfig{
			Fetch:   func() *shard.Map { return m },
			Model:   vtime.DefaultCostModel(),
			Timeout: 2 * time.Second,
			Retries: 10,
			Trace:   trace.New(),
		})
		fmt.Fprintf(c.out, "sharded client over %d shards\n", len(c.shardGroups))
	} else {
		client = replicator.StartClient(wire, replicator.ClientConfig{
			Members: c.members,
			Model:   vtime.DefaultCostModel(),
			Timeout: 2 * time.Second,
			Retries: 10,
			Trace:   trace.New(),
		})
	}
	intro, closeIntro, err := serveIntrospect(c, client.TraceSnapshot)
	if err != nil {
		client.Stop()
		return nil, err
	}
	exited := make(chan struct{})
	r := &role{addr: ep.BoundAddr(), intro: intro, done: make(chan error, 1), stop: func() {
		closeIntro()
		client.Stop() // fails the request in flight
		<-exited
	}}
	go func() {
		defer close(exited)
		r.done <- runRequests(client, c, sharded)
	}()
	return r, nil
}

// runRequests drives the client role's c.requests requests.
func runRequests(client *replicator.ClientNode, c *config, sharded bool) error {
	requests := c.requests
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
			fmt.Fprintf(c.out, "request %d -> counter=%d (%.2fms wall)\n",
				i, last, float64(time.Since(t0).Microseconds())/1000)
		}
	}
	elapsed := time.Since(start)
	fmt.Fprintf(c.out, "done: %d requests in %v (%.1f req/s wall), final counter %d\n",
		requests, elapsed.Round(time.Millisecond),
		float64(requests)/elapsed.Seconds(), last)
	if c.traceDump {
		fmt.Fprintf(c.out, "trace:\n%s\n", client.TraceSnapshot().JSON())
	}
	return nil
}

// startAggregator runs the cluster observability role: it scrapes every
// target's introspection endpoint on a ticker (validating each /metrics
// exposition), merges the per-node snapshots, and serves the cluster
// view — merged /metrics and /trace, stitched cross-node request
// timelines on /timelines, scrape health on /aggregator, and (when -slo
// is set) the rolling SLO evaluation of the cluster-derived series on
// /slo.
func startAggregator(c *config) (*role, error) {
	width := int64(time.Second)
	if c.slo.Raw != "" {
		width = c.slo.BucketWidth()
	}
	agg := obsplane.NewAggregator(width, obsplane.SLORetain)
	shardOf := make(map[string]string)
	for _, t := range c.scrape {
		if t.shard != "" {
			shardOf[t.name] = t.shard
		}
		agg.AddTarget(t.name, t.url)
	}
	stop := agg.Start(c.scrapeEvery)

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
	if c.slo.Raw != "" {
		eng := obsplane.NewEngine(agg.Store(), c.slo)
		opts = append(opts, introspect.WithJSON("/slo", func() any { return eng.Status() }))
	}
	srv, err := introspect.Start(c.bind, agg.Merged, opts...)
	if err != nil {
		stop()
		return nil, err
	}
	fmt.Fprintf(c.out, "aggregator at http://%s/ (/metrics, /trace, /timelines, /slo, /aggregator), scraping every %v\n",
		srv.Addr(), c.scrapeEvery)
	return &role{addr: srv.Addr(), intro: srv.Addr(), stop: func() {
		fmt.Fprintln(c.out, "aggregator shutting down")
		_ = srv.Close()
		stop()
	}}, nil
}
