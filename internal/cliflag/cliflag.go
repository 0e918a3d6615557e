// Package cliflag holds the spec-flag parsing shared by the CLIs (vdnode,
// vdsim): failure-detector specs, chaos schedules, policy stacks, SLO
// specs and shard assignments. Each CLI used to hand-roll the same glue
// around the subsystem parsers (defaulting, width derivation, error
// wording); centralizing it keeps the two command lines accepting exactly
// the same dialect.
package cliflag

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"versadep/internal/faults/chaos"
	"versadep/internal/gcs"
	"versadep/internal/obsplane"
	"versadep/internal/policy"
	"versadep/internal/shard"
)

// Detector parses a -detector flag ("phi", "phi:THRESH", "timeout") and
// folds it with -suspect-after into a GCS config override. Returns nil
// when both are unset (use the group default).
func Detector(detector string, suspectAfter time.Duration) (*gcs.Config, error) {
	if detector == "" && suspectAfter <= 0 {
		return nil, nil
	}
	g := gcs.DefaultConfig()
	if suspectAfter > 0 {
		g.SuspectAfter = suspectAfter
	}
	if detector != "" {
		phi, err := gcs.ParseDetector(detector)
		if err != nil {
			return nil, fmt.Errorf("-detector: %w", err)
		}
		g.PhiThreshold = phi
	}
	return &g, nil
}

// Chaos parses a -chaos flag ("SPEC[:SEED]", e.g. "drop=0.05,corrupt=0.02:7").
func Chaos(arg string) (chaos.Spec, uint64, error) {
	spec, seed, err := chaos.ParseSpec(arg)
	if err != nil {
		return chaos.Spec{}, 0, fmt.Errorf("-chaos: %w", err)
	}
	return spec, seed, nil
}

// Policies parses a -policy / -adapt flag (comma-separated policy specs in
// priority order, e.g. "avail=0.995:5,rate=500:250").
func Policies(spec string) ([]policy.Policy, error) {
	ps, err := policy.ParseSpec(spec)
	if err != nil {
		return nil, fmt.Errorf("policy spec: %w", err)
	}
	return ps, nil
}

// SLO parses a -slo flag and derives the windowed store's bucket width:
// five buckets per SLO window, floored at one nanosecond so a degenerate
// window still buckets.
func SLO(spec string) (obsplane.Spec, int64, error) {
	s, err := obsplane.ParseSLO(spec)
	if err != nil {
		return obsplane.Spec{}, 0, fmt.Errorf("-slo: %w", err)
	}
	width := s.Window.Nanoseconds() / 5
	if width < 1 {
		width = 1
	}
	return s, width, nil
}

// Shard parses a -shard flag "k/N": this node serves shard k of an N-shard
// deployment. Returns ok=false when the flag is unset.
func Shard(arg string) (k, n int, ok bool, err error) {
	if arg == "" {
		return 0, 0, false, nil
	}
	slash := strings.IndexByte(arg, '/')
	if slash < 0 {
		return 0, 0, false, fmt.Errorf("-shard: want \"k/N\", got %q", arg)
	}
	k, err = strconv.Atoi(strings.TrimSpace(arg[:slash]))
	if err != nil {
		return 0, 0, false, fmt.Errorf("-shard: bad shard index in %q: %w", arg, err)
	}
	n, err = strconv.Atoi(strings.TrimSpace(arg[slash+1:]))
	if err != nil {
		return 0, 0, false, fmt.Errorf("-shard: bad shard count in %q: %w", arg, err)
	}
	if n <= 0 {
		return 0, 0, false, fmt.Errorf("-shard: shard count must be positive in %q", arg)
	}
	if k < 0 || k >= n {
		return 0, 0, false, fmt.Errorf("-shard: shard index %d out of range [0,%d) in %q", k, n, arg)
	}
	return k, n, true, nil
}

// ShardMembers parses a -shard-members flag naming every shard's replica
// group: semicolon-separated "id:member,member,..." entries, e.g.
// "0:ra,rb,rc;1:sa,sb,sc". The groups feed a static shard.Map for a
// sharded client in a fixed deployment.
func ShardMembers(arg string) ([]shard.Group, error) {
	if arg == "" {
		return nil, nil
	}
	seen := make(map[int]bool)
	var groups []shard.Group
	for _, entry := range strings.Split(arg, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		idStr, memberStr, ok := strings.Cut(entry, ":")
		if !ok {
			return nil, fmt.Errorf("-shard-members: want \"id:member,...\", got %q", entry)
		}
		id, err := strconv.Atoi(strings.TrimSpace(idStr))
		if err != nil {
			return nil, fmt.Errorf("-shard-members: bad shard id in %q: %w", entry, err)
		}
		if id < 0 {
			return nil, fmt.Errorf("-shard-members: negative shard id in %q", entry)
		}
		if seen[id] {
			return nil, fmt.Errorf("-shard-members: duplicate shard id %d", id)
		}
		seen[id] = true
		var members []string
		for _, m := range strings.Split(memberStr, ",") {
			if m = strings.TrimSpace(m); m != "" {
				members = append(members, m)
			}
		}
		if len(members) == 0 {
			return nil, fmt.Errorf("-shard-members: shard %d has no members", id)
		}
		groups = append(groups, shard.Group{ID: id, Members: members})
	}
	if len(groups) == 0 {
		return nil, fmt.Errorf("-shard-members: no shard groups in %q", arg)
	}
	return groups, nil
}
