package chaos

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"versadep/internal/simnet"
	"versadep/internal/transport"
	"versadep/internal/vtime"
)

func targets() Targets {
	return Targets{
		Replicas: []string{"replica-a", "replica-b", "replica-c", "replica-d"},
		Duration: time.Second,
	}
}

func TestPlanDeterministic(t *testing.T) {
	// The reproducibility contract: identical (spec, seed, targets) yield an
	// identical script — same step names at the same offsets, in the same
	// order.
	spec := DefaultSpec()
	a := spec.Plan(42, targets()).Steps()
	b := spec.Plan(42, targets()).Steps()
	if len(a) == 0 {
		t.Fatal("empty plan from DefaultSpec")
	}
	if len(a) != len(b) {
		t.Fatalf("plan lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].After != b[i].After {
			t.Fatalf("step %d differs: %q@%v vs %q@%v", i, a[i].Name, a[i].After, b[i].Name, b[i].After)
		}
	}
}

func TestPlanSeedsDiffer(t *testing.T) {
	spec := DefaultSpec()
	a := spec.Plan(1, targets()).Steps()
	b := spec.Plan(2, targets()).Steps()
	same := len(a) == len(b)
	if same {
		for i := range a {
			if a[i].Name != b[i].Name || a[i].After != b[i].After {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestPlanOrderedAndHealed(t *testing.T) {
	spec := DefaultSpec()
	steps := spec.Plan(7, targets()).Steps()
	for i := 1; i < len(steps); i++ {
		if steps[i].After < steps[i-1].After {
			t.Fatalf("steps out of order: %q@%v after %q@%v",
				steps[i].Name, steps[i].After, steps[i-1].Name, steps[i-1].After)
		}
	}
	last := steps[len(steps)-1]
	if last.Name != "chaos-heal-all" {
		t.Fatalf("final step %q, want chaos-heal-all", last.Name)
	}
	if last.After != time.Second {
		t.Fatalf("heal-all at %v, want campaign end", last.After)
	}
}

func TestPlanNeverCrashesAnchorOrMajority(t *testing.T) {
	spec := Spec{Crashes: 10}
	for seed := uint64(0); seed < 50; seed++ {
		steps := spec.Plan(seed, targets()).Steps()
		crashes := 0
		for _, st := range steps {
			if st.Name == "chaos-crash(replica-a)" {
				t.Fatalf("seed %d: plan crashes the anchor replica", seed)
			}
			if len(st.Name) > 11 && st.Name[:11] == "chaos-crash" {
				crashes++
			}
		}
		if crashes > 2 { // 4 replicas, at least 2 must survive
			t.Fatalf("seed %d: %d crashes scripted against 4 replicas", seed, crashes)
		}
	}
}

// parseCases are the accepted -chaos arguments; their specs also key the
// plan golden file.
var parseCases = []struct {
	arg  string
	want Spec
	seed uint64
}{
	{"all", DefaultSpec(), 1},
	{"", DefaultSpec(), 1},
	{"none", Spec{}, 1},
	{"all:77", DefaultSpec(), 77},
	{"drop=0.2,crash=2:9", Spec{Rule: transport.Rule{Drop: 0.2}, Crashes: 2}, 9},
	{"dup,reorder", Spec{Rule: transport.Rule{Dup: 0.10, Reorder: 0.10}}, 1},
	{"corrupt=0.5,delay=3", Spec{Rule: transport.Rule{Corrupt: 0.5, Delay: 3 * vtime.Millisecond}}, 1},
	{"partition=2", Spec{Partitions: 2}, 1},
}

// rejectedSpecs are arguments ParseSpec must refuse: malformed, or values
// a campaign cannot honour.
var rejectedSpecs = []string{
	"bogus", "drop=x", "all:notanumber", "crash=-1",
	"drop=NaN", "delay=1e300", "partition=inf", "drop=2", "crash=1.7",
	"dup=+Inf", "delay=-3", "partition=0.5", "corrupt=1.0001",
}

func TestParseSpec(t *testing.T) {
	for _, c := range parseCases {
		got, seed, err := ParseSpec(c.arg)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", c.arg, err)
		}
		if got != c.want || seed != c.seed {
			t.Fatalf("ParseSpec(%q) = %+v seed %d, want %+v seed %d", c.arg, got, seed, c.want, c.seed)
		}
	}
	for _, bad := range rejectedSpecs {
		if spec, _, err := ParseSpec(bad); err == nil {
			t.Fatalf("ParseSpec(%q) accepted as %q", bad, spec)
		}
	}
}

func TestSpecStringRoundTrips(t *testing.T) {
	for _, spec := range []Spec{
		DefaultSpec(), {},
		{Rule: transport.Rule{Drop: 0.25}, Partitions: 1},
		{Rule: transport.Rule{Delay: 5 * vtime.Millisecond}, Crashes: 2},
		{Rule: transport.Rule{Delay: 1<<62 + 7}},
	} {
		got, seed, err := ParseSpec(spec.String())
		if err != nil {
			t.Fatalf("round trip %q: %v", spec.String(), err)
		}
		if got != spec || seed != 1 {
			t.Fatalf("round trip %q = %+v, want %+v", spec.String(), got, spec)
		}
	}
}

// FuzzParseSpec: every argument ParseSpec accepts re-parses from its
// String() to the same spec.
func FuzzParseSpec(f *testing.F) {
	for _, c := range parseCases {
		f.Add(c.arg)
	}
	for _, bad := range rejectedSpecs {
		f.Add(bad)
	}
	f.Add("delay=0.0000015,drop=1e-3")
	f.Fuzz(func(t *testing.T, arg string) {
		spec, _, err := ParseSpec(arg)
		if err != nil {
			return
		}
		again, seed, err := ParseSpec(spec.String())
		if err != nil || again != spec || seed != 1 {
			t.Fatalf("%q parsed to %+v; its String() %q re-parsed to %+v seed %d (%v)", arg, spec, spec.String(), again, seed, err)
		}
	})
}

// goldenSpecs are the distinct specs of parseCases.
func goldenSpecs() []Spec {
	var out []Spec
	seen := map[Spec]bool{}
	for _, c := range parseCases {
		if !seen[c.want] {
			seen[c.want] = true
			out = append(out, c.want)
		}
	}
	return out
}

// TestPlanMatchesGolden: the schedule every spec and seed 0–99 expands to —
// step names and offsets — is pinned in testdata/plan_golden.txt, one line
// per (spec, seed). The file predates the link-rule vocabulary, so a plan
// that consumed the seed stream in another order would show here.
func TestPlanMatchesGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/plan_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	var got []string
	for _, spec := range goldenSpecs() {
		for seed := uint64(0); seed < 100; seed++ {
			line := fmt.Sprintf("%s %d", spec, seed)
			for _, st := range spec.Plan(seed, targets()).Steps() {
				line += fmt.Sprintf(" %s@%d", st.Name, int64(st.After))
			}
			got = append(got, line)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d plans, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("plan differs from golden:\n got  %s\n want %s", got[i], want[i])
		}
	}
}

// TestPlanRulesAreTheOpenWindows: after every step of a plan, the rule on
// an ordinary link is the union of the probability windows open at that
// instant, and the delay victim's outbound rule is that union plus the
// delay while its window is open.
func TestPlanRulesAreTheOpenWindows(t *testing.T) {
	for _, spec := range goldenSpecs() {
		for seed := uint64(0); seed < 100; seed++ {
			steps := spec.Plan(seed, targets()).Steps()
			victim := ""
			for _, st := range steps {
				if v, ok := strings.CutPrefix(st.Name, "chaos-delay-on("); ok {
					victim = strings.TrimSuffix(v, ")")
				}
			}
			net := simnet.New()
			open := map[string]bool{}
			for _, st := range steps {
				st.Do(net)
				name := strings.TrimPrefix(st.Name, "chaos-")
				class, rest, _ := strings.Cut(name, "-")
				switch {
				case name == "heal-all":
					open = map[string]bool{}
				case strings.HasPrefix(rest, "on"):
					open[class] = true
				case strings.HasPrefix(rest, "off"):
					open[class] = false
				}
				var fabric transport.Rule
				pick := func(class string, p float64) float64 {
					if open[class] {
						return p
					}
					return 0
				}
				fabric.Drop = pick("drop", spec.Drop)
				fabric.Dup = pick("dup", spec.Dup)
				fabric.Reorder = pick("reorder", spec.Reorder)
				fabric.Corrupt = pick("corrupt", spec.Corrupt)
				if got := net.Rule("x", "y"); got != fabric {
					t.Fatalf("%s seed %d after %s: rule on x->y %+v, want %+v", spec, seed, st.Name, got, fabric)
				}
				if victim == "" {
					continue
				}
				want := fabric
				if open["delay"] {
					want.Delay = spec.Delay
				}
				if got := net.Rule(victim, "x"); got != want {
					t.Fatalf("%s seed %d after %s: rule on %s->x %+v, want %+v", spec, seed, st.Name, victim, got, want)
				}
			}
			net.Close()
		}
	}
}

func TestChaosMalformed(t *testing.T) {
	if _, _, err := ParseSpec("drop=0.05:7"); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	for _, bad := range []string{"drop=", "drop=x", "nosuchfault=1", "drop=0.5:seed"} {
		if _, _, err := ParseSpec(bad); err == nil {
			t.Fatalf("ParseSpec(%q) accepted a malformed spec", bad)
		}
	}
}
