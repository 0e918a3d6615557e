package cliflag

import (
	"testing"
	"time"

	"versadep/internal/gcs"
)

func TestDetector(t *testing.T) {
	if g, err := Detector("", 0); err != nil || g != nil {
		t.Fatalf("unset flags: got %v, %v; want nil, nil", g, err)
	}
	g, err := Detector("phi:12", 3*time.Second)
	if err != nil {
		t.Fatalf("phi:12: %v", err)
	}
	if g.PhiThreshold != 12 || g.SuspectAfter != 3*time.Second {
		t.Fatalf("phi:12 + 3s: got phi=%v suspect=%v", g.PhiThreshold, g.SuspectAfter)
	}
	if g, err := Detector("", 2*time.Second); err != nil || g == nil || g.SuspectAfter != 2*time.Second {
		t.Fatalf("suspect-after only: got %v, %v", g, err)
	}
	for _, bad := range []string{"bogus", "phi:x", "phi:"} {
		if _, err := Detector(bad, 0); err == nil {
			t.Fatalf("Detector(%q) accepted a malformed spec", bad)
		}
	}
}

// TestDetectorPhi checks the accrual threshold each -detector spec selects.
func TestDetectorPhi(t *testing.T) {
	if g, err := Detector("phi:8", 0); err != nil || g == nil || g.PhiThreshold != 8 {
		t.Fatalf("phi:8: got %v, %v", g, err)
	}
	if g, err := Detector("phi", 0); err != nil || g == nil || g.PhiThreshold != gcs.DefaultConfig().PhiThreshold {
		t.Fatalf("phi: got %v, %v (want the default threshold)", g, err)
	}
	if g, err := Detector("timeout", 0); err != nil || g == nil || g.PhiThreshold != 0 {
		t.Fatalf("timeout: got %v, %v (want accrual disabled)", g, err)
	}
	if _, err := Detector("nope", 0); err == nil {
		t.Fatal("malformed detector spec accepted")
	}
}

func TestChaosMalformed(t *testing.T) {
	if _, _, err := Chaos("drop=0.05:7"); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	for _, bad := range []string{"drop=", "drop=x", "nosuchfault=1", "drop=0.5:seed"} {
		if _, _, err := Chaos(bad); err == nil {
			t.Fatalf("Chaos(%q) accepted a malformed spec", bad)
		}
	}
}

func TestPoliciesMalformed(t *testing.T) {
	if _, err := Policies("avail=0.995:5"); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	for _, bad := range []string{"nosuchpolicy=1", "avail=", "avail=x:y"} {
		if _, err := Policies(bad); err == nil {
			t.Fatalf("Policies(%q) accepted a malformed spec", bad)
		}
	}
}

func TestSLO(t *testing.T) {
	s, width, err := SLO("p99<50ms,avail>0.999:30s")
	if err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if want := s.Window.Nanoseconds() / 5; width != want {
		t.Fatalf("width = %d, want %d (a fifth of the window)", width, want)
	}
	for _, bad := range []string{"p99<", "p99<x:30s", "avail>0.9"} {
		if _, _, err := SLO(bad); err == nil {
			t.Fatalf("SLO(%q) accepted a malformed spec", bad)
		}
	}
}

func TestShard(t *testing.T) {
	k, n, ok, err := Shard("2/4")
	if err != nil || !ok || k != 2 || n != 4 {
		t.Fatalf("Shard(2/4) = %d, %d, %v, %v", k, n, ok, err)
	}
	if _, _, ok, err := Shard(""); err != nil || ok {
		t.Fatalf("unset flag: ok=%v err=%v", ok, err)
	}
	for _, bad := range []string{"2", "x/4", "2/x", "2/0", "4/4", "-1/4", "2/-3"} {
		if _, _, _, err := Shard(bad); err == nil {
			t.Fatalf("Shard(%q) accepted a malformed spec", bad)
		}
	}
}

func TestShardMembers(t *testing.T) {
	groups, err := ShardMembers("0:ra,rb,rc;1:sa,sb,sc")
	if err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if len(groups) != 2 || groups[0].ID != 0 || groups[1].ID != 1 {
		t.Fatalf("groups = %+v", groups)
	}
	if len(groups[0].Members) != 3 || groups[0].Members[0] != "ra" {
		t.Fatalf("shard 0 members = %v", groups[0].Members)
	}
	if g, err := ShardMembers(""); err != nil || g != nil {
		t.Fatalf("unset flag: got %v, %v", g, err)
	}
	for _, bad := range []string{"0", "x:ra", "-1:ra", "0:", "0:ra;0:rb", ";"} {
		if _, err := ShardMembers(bad); err == nil {
			t.Fatalf("ShardMembers(%q) accepted a malformed spec", bad)
		}
	}
}
