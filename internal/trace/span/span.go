// Package span records causal, virtual-time spans: per-request timelines
// that reconstruct the paper's Figure 3 round-trip breakdown for a single
// invocation, and per-protocol-phase timelines (style switch, failover)
// matching its switching-delay measurements.
//
// A trace is a name shared by all spans of one causal activity —
// RequestTrace ties every layer's work for one client invocation together
// via the VIOP (client id, request id) pair that already rides the wire,
// so no new protocol metadata is needed. Each layer attaches completed
// spans whose duration equals exactly what that layer charged to the
// vtime.Ledger, which is what makes Breakdown agree with the ledger's
// per-component attribution.
//
// Recording and export name a trace differently. A layer records under a
// Key, a small value that costs nothing to build (RequestKey is the client
// id and the request id, unformatted), and the ring stores the key; the
// trace's string — Span.Trace, what RequestTrace returns, what Timeline
// and Breakdown select by — is formatted when a span leaves the recorder
// (Snapshot, End). So a call site records without a guard: there is no
// string to guard against building.
//
// The Recorder follows the same nil-safe discipline as trace.Counter: a
// nil *Recorder is inert and recording into one allocates nothing. That is
// what a node holds unless its caller composed spans (trace.New): a node
// left to make its own recorder gets one without a ring, so a call site
// that would peek a payload or format a name only for spans checks On
// first.
package span

import (
	"sort"
	"strconv"
	"sync"

	"versadep/internal/codec"
	"versadep/internal/vtime"
)

// Component names for Span.Comp. These deliberately equal the String()
// forms of vtime.Component so a span breakdown can be compared 1:1 with a
// ledger breakdown.
const (
	CompApp        = "Application"
	CompORB        = "ORB"
	CompGC         = "GroupCommunication"
	CompReplicator = "Replicator"
)

// Span is one timed step of a causal trace. Start and End are virtual
// times; spans with Start == End are markers (protocol milestones with no
// charged cost). Comp attributes the span's duration to a Figure 3
// component; spans with an empty Comp (roots, markers, bookkeeping) are
// excluded from Breakdown so they never double-count.
type Span struct {
	Trace string     `json:"trace"`
	Name  string     `json:"name"`
	Comp  string     `json:"comp,omitempty"`
	Node  string     `json:"node,omitempty"`
	Start vtime.Time `json:"start"`
	End   vtime.Time `json:"end"`
	Value int64      `json:"value,omitempty"`
	Note  string     `json:"note,omitempty"`
}

// Duration returns End - Start.
func (s Span) Duration() vtime.Duration { return s.End.Sub(s.Start) }

// DefaultCap is the span ring capacity used when New is given cap <= 0.
const DefaultCap = 4096

// Key names a trace at the recording site: the value Add, Annotate and
// Begin take. It is comparable, and building one allocates nothing; the
// zero Key names no trace. String gives the trace's exported name.
type Key struct {
	name string // the client id of a request trace, else the whole trace name
	id   uint64 // the request id of a request trace
	req  bool
}

// RequestKey is the key of one client invocation's trace, RequestTrace
// unformatted.
func RequestKey(clientID string, reqID uint64) Key {
	return Key{name: clientID, id: reqID, req: true}
}

// NameKey is the key of a trace named in full by the caller: the switch,
// failover, checkpoint and transfer traces, recorded a few times per
// protocol phase, keep their formatted names.
func NameKey(trace string) Key { return Key{name: trace} }

// IsZero reports whether k names no trace.
func (k Key) IsZero() bool { return k == Key{} }

// String returns the trace name spans recorded under k are exported with.
func (k Key) String() string {
	if k.req {
		return RequestTrace(k.name, k.id)
	}
	return k.name
}

// entry is a span as the ring and the open map hold it: Span with a Key
// where the trace name would be, so a slot is no larger than a Span and the
// name it would point to.
type entry struct {
	key              Key
	name, comp, node string
	start, end       vtime.Time
	value            int64
	note             string
}

func (e entry) export() Span {
	return Span{Trace: e.key.String(), Name: e.name, Comp: e.comp, Node: e.node,
		Start: e.start, End: e.end, Value: e.value, Note: e.note}
}

// Recorder keeps a bounded ring of finished spans plus a small map of
// still-open ones (Begin/End pairs for long-running protocol phases). All
// methods are safe on a nil receiver and safe for concurrent use.
type Recorder struct {
	mu    sync.Mutex
	node  string
	ring  []entry
	next  int
	count int
	open  map[string]entry
	// clients holds the client ids InternRequestKey has been shown.
	clients codec.Names
}

// New returns a Recorder retaining at most capacity finished spans
// (DefaultCap when capacity <= 0).
func New(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCap
	}
	return &Recorder{ring: make([]entry, capacity), open: make(map[string]entry)}
}

// On reports whether span recording is enabled. Recording needs no gate —
// every method is inert on a nil receiver — so this is for call sites that
// would do other work only spans need.
func (r *Recorder) On() bool { return r != nil }

// SetNode stamps every subsequently recorded span with the given node
// address, so merged cross-process snapshots stay attributable.
func (r *Recorder) SetNode(node string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.node = node
	r.mu.Unlock()
}

// InternRequestKey is RequestKey for a caller that holds the client id as
// bytes of a wire buffer (a peeked VIOP header): the id is materialised
// once per recorder, in a bounded table under the recorder's own lock (see
// codec.Names for the bound), and the key never aliases clientID. A nil
// recorder returns the zero Key and does no work.
func (r *Recorder) InternRequestKey(clientID []byte, reqID uint64) Key {
	if r == nil {
		return Key{}
	}
	r.mu.Lock()
	cid := r.clients.Intern(clientID)
	r.mu.Unlock()
	return RequestKey(cid, reqID)
}

func (r *Recorder) push(e entry) {
	e.node = r.node
	r.ring[r.next] = e
	r.next = (r.next + 1) % len(r.ring)
	r.count++
}

// Add records a finished span.
func (r *Recorder) Add(trace Key, name, comp string, start, end vtime.Time) {
	r.Annotate(trace, name, comp, start, end, 0, "")
}

// Annotate records a finished span with an attached value and note.
func (r *Recorder) Annotate(trace Key, name, comp string, start, end vtime.Time, value int64, note string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.push(entry{key: trace, name: name, comp: comp, start: start, end: end, value: value, note: note})
	r.mu.Unlock()
}

// Begin opens a span under key, to be finished later by End. An existing
// open span under the same key is replaced (last writer wins; protocol
// code uses distinct keys per concurrent phase).
func (r *Recorder) Begin(key string, trace Key, name, comp string, start vtime.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.open[key] = entry{key: trace, name: name, comp: comp, start: start}
	r.mu.Unlock()
}

// End closes the open span under key, records it with the given end time
// and note, and returns it. ok is false when no span is open under key —
// allowing a "close with annotation" site (e.g. a failover handler) to
// win the race against the normal close site without double-recording.
func (r *Recorder) End(key string, end vtime.Time, note string) (s Span, ok bool) {
	if r == nil {
		return Span{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.open[key]
	if !ok {
		return Span{}, false
	}
	delete(r.open, key)
	e.end = end
	e.note = note
	r.push(e)
	e.node = r.node
	return e.export(), true
}

// CloseOpen force-closes every open span at the given end time with the
// given note (e.g. "failover" when a crash interrupts in-flight phases)
// and returns how many were closed. Open spans must never leak: a trace
// that loses its closer is closed here with the reason annotated.
func (r *Recorder) CloseOpen(end vtime.Time, note string) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.open)
	keys := make([]string, 0, n)
	for k := range r.open {
		keys = append(keys, k)
	}
	sort.Strings(keys) // deterministic recording order
	for _, k := range keys {
		e := r.open[k]
		delete(r.open, k)
		e.end = end
		e.note = note
		r.push(e)
	}
	return n
}

// OpenCount returns the number of spans currently open (zero on nil).
func (r *Recorder) OpenCount() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.open)
}

// Snapshot returns the retained finished spans, oldest first, plus the
// number of spans dropped by the ring. This is where trace names are
// formatted.
func (r *Recorder) Snapshot() (spans []Span, dropped int) {
	if r == nil {
		return nil, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.count
	if n > len(r.ring) {
		dropped = n - len(r.ring)
		n = len(r.ring)
	}
	spans = make([]Span, 0, n)
	start := (r.next - n + len(r.ring)) % len(r.ring)
	for i := 0; i < n; i++ {
		spans = append(spans, r.ring[(start+i)%len(r.ring)].export())
	}
	return spans, dropped
}

// RequestTrace is the trace name of one client invocation, derived from
// the VIOP identity that already rides every request and reply frame. It
// is the exported form of RequestKey: layers record under the key, readers
// of a snapshot select by the name.
func RequestTrace(clientID string, reqID uint64) string {
	return "req:" + clientID + "#" + strconv.FormatUint(reqID, 10)
}

// SwitchTrace is the trace name of one runtime style switch, derived from
// the totally ordered sequence number of its SWITCH_START message
// (identical on every replica).
func SwitchTrace(seq uint64) string {
	return "switch:" + strconv.FormatUint(seq, 10)
}

// FailoverTrace is the trace name of the n-th failover handled by a node.
func FailoverTrace(node string, n uint64) string {
	return "failover:" + node + "#" + strconv.FormatUint(n, 10)
}

// CheckpointTrace is the trace name of one checkpoint, derived from the
// primary that took it and its serial.
func CheckpointTrace(node string, serial uint64) string {
	return "ckpt:" + node + "#" + strconv.FormatUint(serial, 10)
}

// TransferTrace is the trace name of one chunked joiner state transfer,
// derived from the state leader, the joiner, and the bookmark serial — the
// same on both ends, so merged snapshots show the capture, every resume,
// and the final apply on a single causal timeline.
func TransferTrace(leader, joiner string, serial uint64) string {
	return "xfer:" + leader + ">" + joiner + "#" + strconv.FormatUint(serial, 10)
}

// Timeline returns the spans of one trace in causal display order
// (ascending Start, ties broken by End then Name for determinism).
func Timeline(spans []Span, trace string) []Span {
	var out []Span
	for _, s := range spans {
		if s.Trace == trace {
			out = append(out, s)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start.Before(out[j].Start)
		}
		if out[i].End != out[j].End {
			return out[i].End.Before(out[j].End)
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Breakdown sums span durations per component for one trace — the
// per-request analogue of vtime.Ledger's Figure 3 attribution. Spans with
// an empty Comp (roots and markers) are excluded.
func Breakdown(spans []Span, trace string) map[string]vtime.Duration {
	out := make(map[string]vtime.Duration)
	for _, s := range spans {
		if s.Trace == trace && s.Comp != "" {
			out[s.Comp] += s.Duration()
		}
	}
	return out
}

// Traces returns the distinct trace keys present in spans, in first-seen
// order.
func Traces(spans []Span) []string {
	seen := make(map[string]bool)
	var out []string
	for _, s := range spans {
		if !seen[s.Trace] {
			seen[s.Trace] = true
			out = append(out, s.Trace)
		}
	}
	return out
}
