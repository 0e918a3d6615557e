package transport

import (
	"hash/fnv"
	"sync"
	"time"

	"versadep/internal/vtime"
)

// Rule is what the network does to every message on one link — the
// per-message half of the paper's fault model (§3.1): transient
// communication faults and a performance fault. The zero Rule is a clean
// link. It is declared here once; the simulated fabric (simnet.SetLink), the
// fault scripts (faults.SetLink), the chaos campaigns (chaos.Spec) and the
// live wrapper (ApplyRule) all speak it.
//
// Link.Fate draws a message's fate from a rule, and both appliers act on
// that fate. They differ only where their clocks force it:
//
//   - Delay: the simulated fabric adds it to the message's virtual arrival
//     time; the live wrapper holds the message back for it in real time.
//   - Reorder: the fabric parks the message at the receiver and releases it
//     behind the next arrival, or as soon as the receiver's queue drains; on
//     a FIFO TCP link the live wrapper holds it back for up to maxHoldBack,
//     so frames sent after it overtake it.
type Rule struct {
	// Drop, Dup, Reorder and Corrupt are per-message probabilities in
	// [0,1]: the message is lost, delivered twice, displaced behind later
	// traffic, or delivered as a copy with one bit flipped.
	Drop, Dup, Reorder, Corrupt float64
	// Delay is added to every message on the link.
	Delay vtime.Duration
}

// maxHoldBack bounds the live wrapper's hold-back of a reordered message.
const maxHoldBack = 2 * time.Millisecond

// Fate is one message's draw from a Rule. A dropped message draws nothing
// else. Payload is what the receiver gets: when Corrupt, a damaged copy,
// the sender's buffer untouched. Jitter is a uniform sample in [0,1): where
// the message falls in the cost model's jitter band on the fabric, and how
// much of maxHoldBack a reordered message waits on the live wrapper.
type Fate struct {
	Drop, Dup, Reorder, Corrupt bool
	Payload                     []byte
	Delay                       vtime.Duration
	Jitter                      float64
}

// Link is the draw state of one ordered (from, to) link: a stream for data
// frames and one for control frames, each seeded from (seed, from, to)
// alone. A message's draws therefore depend only on how many messages of
// its own kind preceded it on its own link — not on which link sent first,
// on traffic elsewhere, or on control frames (which are uncounted and free
// on every virtual clock).
type Link struct {
	data, control *vtime.Rand
}

// NewLink returns the draw state of from→to under seed.
func NewLink(seed uint64, from, to string) Link {
	h := fnv.New64a()
	h.Write([]byte(from + "\x00" + to))
	r := vtime.NewRand(seed ^ h.Sum64())
	return Link{data: r.Fork(), control: r.Fork()}
}

// Fate draws one message's fate under r from the link's data or control
// stream: loss first, then the jitter sample, then a corrupted copy (a
// random bit of a random byte), duplication and displacement. A class whose
// probability is zero draws nothing.
func (l Link) Fate(r Rule, payload []byte, control bool) Fate {
	rng := l.data
	if control {
		rng = l.control
	}
	f := Fate{Payload: payload}
	if r.Drop > 0 && rng.Float64() < r.Drop {
		f.Drop = true
		return f
	}
	f.Delay = r.Delay
	f.Jitter = rng.Float64()
	if r.Corrupt > 0 && len(payload) > 0 && rng.Float64() < r.Corrupt {
		damaged := make([]byte, len(payload))
		copy(damaged, payload)
		damaged[rng.Intn(len(damaged))] ^= byte(1) << rng.Intn(8)
		f.Payload, f.Corrupt = damaged, true
	}
	f.Dup = r.Dup > 0 && rng.Float64() < r.Dup
	f.Reorder = r.Reorder > 0 && rng.Float64() < r.Reorder
	return f
}

// Count adds one message's fate to the fault counters.
func (s *Stats) Count(f Fate) {
	if f.Drop {
		s.MessagesDropped++
		return
	}
	if f.Corrupt {
		s.MessagesCorrupted++
	}
	if f.Dup {
		s.MessagesDuplicated++
	}
	if f.Reorder {
		s.MessagesReordered++
	}
	if f.Reorder || f.Delay > 0 {
		s.MessagesDelayed++
	}
}

// RuleEndpoint applies one Rule to every outbound message of a live
// endpoint, in real time, with the same per-link draws as the simulated
// fabric. Multicast becomes one send per destination, each with its own
// fate, as on the fabric. Corrupted copies are caught by the receivers'
// frame checksums.
type RuleEndpoint struct {
	MultiEndpoint
	rule Rule
	seed uint64

	mu    sync.Mutex
	links map[string]Link
	stats Stats
}

// ApplyRule wraps inner so that every message it sends meets rule,
// deterministically seeded.
func ApplyRule(inner MultiEndpoint, rule Rule, seed uint64) *RuleEndpoint {
	return &RuleEndpoint{MultiEndpoint: inner, rule: rule, seed: seed, links: make(map[string]Link)}
}

// Stats returns the injected-fault counters.
func (e *RuleEndpoint) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Send sends payload to one peer under the rule.
func (e *RuleEndpoint) Send(to string, payload []byte, sentAt vtime.Time) error {
	return e.send(to, payload, false, func(p []byte) error { return e.MultiEndpoint.Send(to, p, sentAt) })
}

// SendMulticast sends payload to each peer in tos under the rule.
func (e *RuleEndpoint) SendMulticast(tos []string, payload []byte, sentAt vtime.Time) error {
	for _, to := range tos {
		if err := e.Send(to, payload, sentAt); err != nil {
			return err
		}
	}
	return nil
}

// SendControl sends a control frame under the rule, drawn from the link's
// control stream.
func (e *RuleEndpoint) SendControl(to string, payload []byte, sentAt vtime.Time) error {
	return e.send(to, payload, true, func(p []byte) error { return e.MultiEndpoint.SendControl(to, p, sentAt) })
}

func (e *RuleEndpoint) send(to string, payload []byte, control bool, emit func([]byte) error) error {
	e.mu.Lock()
	l, ok := e.links[to]
	if !ok {
		l = NewLink(e.seed, e.Addr(), to)
		e.links[to] = l
	}
	f := l.Fate(e.rule, payload, control)
	e.stats.Count(f)
	e.mu.Unlock()
	if f.Drop {
		return nil // datagram semantics: a lost message reports success
	}
	deliver := func() error {
		err := emit(f.Payload)
		if err == nil && f.Dup {
			err = emit(f.Payload)
		}
		return err
	}
	hold := f.Delay
	if f.Reorder {
		hold += time.Duration(f.Jitter * float64(maxHoldBack))
	}
	if hold > 0 {
		time.AfterFunc(hold, func() { _ = deliver() })
		return nil
	}
	return deliver()
}
