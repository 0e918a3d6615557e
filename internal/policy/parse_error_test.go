package policy_test

import (
	"strings"
	"testing"

	"versadep/internal/policy"
)

// ParseSpec error paths, table-driven: each malformed entry must be
// rejected with a message that names the offending fragment, because the
// CLI prints these errors verbatim to the operator.
func TestParseSpecErrorPaths(t *testing.T) {
	cases := []struct {
		name    string
		spec    string
		wantSub string
	}{
		{"empty", "", "empty spec"},
		{"only separators", " , ,", "empty spec"},
		{"unknown policy", "turbo=1", "unknown policy"},
		{"missing equals", "rate", "bad spec entry"},
		{"rate missing low", "rate=500", "rate wants"},
		{"rate bad number", "rate=fast:slow", "bad number"},
		{"avail bad number", "avail=x", "bad number"},
		{"avail zero max replicas", "avail=0.99:0", "bad max replicas"},
		{"bwcap empty budget", "bwcap=", "bad number"},
		{"bwcap zero min replicas", "bwcap=3:0", "bad min replicas"},
		// linkretry is no longer a policy: the spec is refused by name.
		{"linkretry too many args", "linkretry=0.9:2:3:4", "unknown policy"},
		{"linkretry bad attempts", "linkretry=0.9:zero", "unknown policy"},
		{"burn bad calm", "burn=2:calm", "bad number"},
		{"burn zero max replicas", "burn=2:0.5:0", "bad max replicas"},
		{"valid then invalid", "avail=0.99,rate=1:x", "bad number"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := policy.ParseSpec(c.spec)
			if err == nil {
				t.Fatalf("ParseSpec(%q) accepted a malformed spec", c.spec)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Fatalf("ParseSpec(%q) error %q does not mention %q", c.spec, err, c.wantSub)
			}
		})
	}
}

// FuzzPolicySpec holds ParseSpec to its contract on any operator input: it
// never panics, an accepted spec yields one policy per non-empty entry, in
// order and of the rule the entry names, and an integer bound an entry
// gives is at least 1 (one it omits is left zero, for the default).
func FuzzPolicySpec(f *testing.F) {
	for _, seed := range []string{
		"avail=0.995:5,rate=600:200,bwcap=3:2,burn=2:0.25:3",
		"rate=500:250", "burn=2", "avail=0.99:0", "bwcap=", " , ,", "turbo=1",
		"burn=1:2:9223372036854775807", "avail=NaN:+3", "rate=1e400:-0",
	} {
		f.Add(seed)
	}
	rules := map[string]struct {
		policy string
		intPos int // the integer argument's count of arguments, 0 for none
	}{
		"rate":  {"rate-style", 0},
		"avail": {"availability-target", 2},
		"bwcap": {"resource-cap", 2},
		"burn":  {"budget-burn", 3},
	}
	f.Fuzz(func(t *testing.T, spec string) {
		ps, err := policy.ParseSpec(spec)
		if err != nil {
			return
		}
		var entries []string
		for _, e := range strings.Split(spec, ",") {
			if e = strings.TrimSpace(e); e != "" {
				entries = append(entries, e)
			}
		}
		if len(ps) != len(entries) {
			t.Fatalf("ParseSpec(%q) built %d policies from %d entries", spec, len(ps), len(entries))
		}
		for i, p := range ps {
			name, args, _ := strings.Cut(entries[i], "=")
			r := rules[name]
			if p.Name() != r.policy {
				t.Fatalf("entry %q built %s", entries[i], p.Name())
			}
			bound := 0
			switch p := p.(type) {
			case policy.AvailabilityTarget:
				bound = p.Knob.MaxReplicas
			case policy.ResourceCap:
				bound = p.MinReplicas
			case policy.BudgetBurn:
				bound = p.MaxReplicas
			}
			given := r.intPos > 0 && strings.Count(args, ":")+1 == r.intPos
			if given && bound < 1 || !given && bound != 0 {
				t.Fatalf("entry %q: integer bound %d", entries[i], bound)
			}
		}
	})
}

func TestPoliciesMalformed(t *testing.T) {
	if _, err := policy.ParseSpec("avail=0.995:5"); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	for _, bad := range []string{"nosuchpolicy=1", "avail=", "avail=x:y"} {
		if _, err := policy.ParseSpec(bad); err == nil {
			t.Fatalf("ParseSpec(%q) accepted a malformed spec", bad)
		}
	}
}
