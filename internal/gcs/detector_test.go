package gcs_test

import (
	"fmt"
	"testing"
	"time"

	"versadep/internal/gcs"
	"versadep/internal/simnet"
	"versadep/internal/trace"
	"versadep/internal/transport"
)

// startNodeCfg is startNode with a caller-shaped config (detector settings,
// trace recorder).
func startNodeCfg(t *testing.T, net *simnet.Network, name string, seeds []string, shape func(*gcs.Config)) *node {
	t.Helper()
	ep, err := net.Endpoint(name)
	if err != nil {
		t.Fatal(err)
	}
	d := transport.NewDemux(ep)
	cfg := gcs.DefaultConfig()
	cfg.Seeds = seeds
	cfg.Seed = uint64(len(name)) + 7
	if shape != nil {
		shape(&cfg)
	}
	m := gcs.Open(d.Conn(transport.ProtoGCS), d.Conn(transport.ProtoGroupClient), cfg)
	d.Handle(transport.ProtoGCS, m.HandleTransport)
	d.Start()
	n := &node{name: name, demux: d, member: m, notify: make(chan struct{}, 1)}
	n.wg.Add(1)
	go n.collect()
	t.Cleanup(func() {
		m.Stop()
		n.wg.Wait()
	})
	return n
}

// startGroupCfg launches count members with a shared config shape and waits
// for convergence, returning the nodes and one trace recorder per node.
func startGroupCfg(t *testing.T, net *simnet.Network, count int, shape func(*gcs.Config)) ([]*node, []*trace.Recorder) {
	t.Helper()
	names := make([]string, count)
	for i := range names {
		names[i] = fmt.Sprintf("m%c", 'a'+i)
	}
	nodes := make([]*node, count)
	recs := make([]*trace.Recorder, count)
	for i := range names {
		recs[i] = trace.New()
		rec := recs[i]
		var seeds []string
		if i > 0 {
			seeds = []string{names[0]}
		}
		nodes[i] = startNodeCfg(t, net, names[i], seeds, func(c *gcs.Config) {
			if shape != nil {
				shape(c)
			}
			c.Trace = rec
		})
	}
	for _, n := range nodes {
		n.waitView(t, names, 5*time.Second)
	}
	return nodes, recs
}

func suspicions(recs []*trace.Recorder) int64 {
	var total int64
	for _, r := range recs {
		total += r.Value(trace.SubGCS, "heartbeat_misses")
	}
	return total
}

// TestAccrualRidesOutTransientBlip: a communication blip longer than the
// fixed SuspectAfter timeout but well inside the accrual threshold must not
// produce a suspicion or a view change — the scenario where the adaptive
// detector earns its keep over the fixed timeout (compare the test below).
func TestAccrualRidesOutTransientBlip(t *testing.T) {
	net := simnet.New()
	defer net.Close()
	nodes, recs := startGroupCfg(t, net, 3, nil) // accrual on by default

	// Calibrate: heartbeats flow every HBInterval, filling each detector's
	// inter-arrival window.
	time.Sleep(400 * time.Millisecond)
	before, err := nodes[0].member.View()
	if err != nil {
		t.Fatal(err)
	}

	// A 120ms total-silence blip: ~8x the heartbeat period, exceeding
	// SuspectAfter (90ms) but accruing only phi ~3.5 of the threshold 8.
	net.Partition("mc", 1)
	time.Sleep(120 * time.Millisecond)
	net.HealAddr("mc")
	time.Sleep(400 * time.Millisecond)

	if got := suspicions(recs); got != 0 {
		t.Fatalf("transient blip caused %d suspicions with accrual detection, want 0", got)
	}
	for _, n := range nodes {
		v, err := n.member.View()
		if err != nil {
			t.Fatalf("%s: %v", n.name, err)
		}
		if v.ID != before.ID || len(v.Members) != 3 {
			t.Fatalf("%s: view changed to %d %v after blip, want stable view %d", n.name, v.ID, v.Members, before.ID)
		}
		if s := n.member.Suspects(); len(s) != 0 {
			t.Fatalf("%s: suspects %v after heal, want none", n.name, s)
		}
	}
}

// TestFixedTimeoutFalseSuspectsOnBlip is the contrast case: with the
// accrual detector disabled the same blip trips the fixed timeout.
func TestFixedTimeoutFalseSuspectsOnBlip(t *testing.T) {
	net := simnet.New()
	defer net.Close()
	_, recs := startGroupCfg(t, net, 3, func(c *gcs.Config) { c.PhiThreshold = 0 })

	time.Sleep(400 * time.Millisecond)
	net.Partition("mc", 1)
	time.Sleep(120 * time.Millisecond)
	net.HealAddr("mc")

	deadline := time.Now().Add(2 * time.Second)
	for suspicions(recs) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("fixed-timeout detector never suspected through a 120ms blip")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAccrualDetectsCrashWithinBudget: adaptivity must not cost real
// detection — a genuinely crashed member accrues past the threshold and is
// excluded within a small multiple of the fixed timeout.
func TestAccrualDetectsCrashWithinBudget(t *testing.T) {
	net := simnet.New()
	defer net.Close()
	nodes, _ := startGroupCfg(t, net, 3, nil)

	time.Sleep(400 * time.Millisecond)
	start := time.Now()
	net.Crash("mc")

	// Phi reaches 8 after ~275ms of silence at the 15ms heartbeat rhythm;
	// allow generous scheduling slack but insist on sub-second detection.
	deadline := time.Now().Add(1200 * time.Millisecond)
	detected := false
	for !detected {
		for _, n := range nodes[:2] {
			for _, s := range n.member.Suspects() {
				if s == "mc" {
					detected = true
				}
			}
			// The view change pruning the suspect can land between polls;
			// exclusion is detection too.
			if v, err := n.member.View(); err == nil && !v.Contains("mc") {
				detected = true
			}
		}
		if detected {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("crash not suspected within 1.2s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if elapsed := time.Since(start); elapsed < 90*time.Millisecond {
		t.Fatalf("suspected after %v, inside the %v silence floor", elapsed, 90*time.Millisecond)
	}
	nodes[0].waitView(t, []string{"ma", "mb"}, 3*time.Second)
	nodes[1].waitView(t, []string{"ma", "mb"}, 3*time.Second)
}

// TestPhiSnapshotExposesSuspicion: the introspection surface reports per-
// peer phi, rising for a silent peer — what vdnode /metrics publishes.
func TestPhiSnapshotExposesSuspicion(t *testing.T) {
	net := simnet.New()
	defer net.Close()
	nodes, _ := startGroupCfg(t, net, 3, nil)

	time.Sleep(300 * time.Millisecond)
	snap := nodes[0].member.PhiSnapshot()
	if len(snap) < 2 {
		t.Fatalf("phi snapshot has %d peers, want >= 2: %v", len(snap), snap)
	}
	for peer, phi := range snap {
		if phi > 2 {
			t.Fatalf("healthy peer %s has phi %v, want low", peer, phi)
		}
	}

	net.Crash("mc")
	time.Sleep(200 * time.Millisecond)
	snap = nodes[0].member.PhiSnapshot()
	if snap["mc"] < 2 {
		t.Fatalf("crashed peer phi = %v after 200ms silence, want elevated", snap["mc"])
	}
}

// TestDetectorPhi checks the accrual threshold each -detector spec selects.
func TestDetectorPhi(t *testing.T) {
	for spec, want := range map[string]float64{
		"phi:8":   8,
		"phi:12":  12,
		"phi":     gcs.DefaultConfig().PhiThreshold,
		"timeout": 0, // accrual disabled
	} {
		if got, err := gcs.ParseDetector(spec); err != nil || got != want {
			t.Fatalf("ParseDetector(%q) = %v, %v; want %v", spec, got, err, want)
		}
	}
	for _, bad := range []string{"nope", "bogus", "phi:x", "phi:", "phi:0", "phi:-1"} {
		if _, err := gcs.ParseDetector(bad); err == nil {
			t.Fatalf("ParseDetector(%q) accepted a malformed spec", bad)
		}
	}
}
