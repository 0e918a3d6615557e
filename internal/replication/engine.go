package replication

import (
	"errors"
	"sync"

	"versadep/internal/codec"
	"versadep/internal/gcs"
	"versadep/internal/monitor"
	"versadep/internal/orb"
	"versadep/internal/trace"
	"versadep/internal/trace/span"
	"versadep/internal/transport"
	"versadep/internal/vtime"
)

// Checkpointable is the application's state-capture interface. The paper
// replicates at the process level (§3.1): one State/Restore pair covers all
// servants the process hosts, so they recover as a unit.
type Checkpointable interface {
	// State returns a serialized snapshot of the full application state.
	// The engine marshals it into checkpoints and keeps it as a transfer
	// bookmark; the application must not write to it afterwards.
	State() []byte
	// Restore replaces the application state with a snapshot. state may
	// be a window onto a receive buffer: read it during the call, copy
	// whatever is kept, never write to it.
	Restore(state []byte) error
}

// Stats summarizes a replica's activity.
type Stats struct {
	RequestsExecuted int
	RequestsLogged   int
	RepliesResent    int
	Checkpoints      int
	Switches         int
	Failovers        int
	// Retirements counts graceful-retirement directives observed;
	// Handoffs counts primary promotions after a graceful departure
	// (unlike Failovers these are not faults).
	Retirements     int
	Handoffs        int
	LastSwitchDelay vtime.Duration
	Rate            float64
	// CheckpointEvery is the checkpointing frequency the group last agreed
	// on (see Config.CheckpointEvery).
	CheckpointEvery int

	// Progress: where the replica stands in the agreed stream. View and
	// Members are the installed view's id and size; Delivered is the seq
	// of the last agreed message or view handled; Executed that of the
	// last request the state reflects (at a backup, the last one an
	// applied checkpoint or transfer covers); Transferring reports a
	// transfer sent, received, or, unsynced, yet to ask for.
	Style        Style
	Role         Role
	Synced       bool
	View         uint64
	Members      int
	Delivered    uint64
	Executed     uint64
	Transferring bool
}

// Config parameterizes an Engine.
type Config struct {
	// Style is the initial replication style.
	Style Style
	// CheckpointEvery is the number of executed requests between
	// checkpoints in the passive styles (the paper's checkpointing
	// frequency knob). Zero disables periodic checkpoints.
	CheckpointEvery int
	// Model is the virtual-time cost model.
	Model vtime.CostModel
	// State is the application's checkpoint interface.
	State Checkpointable
	// Observer, if set, receives notices. It is called on the engine
	// goroutine and must not block.
	Observer func(Notice)
	// Trace, when non-nil, receives the engine's counters and events
	// (checkpoints, switch latency, failover replay length, reply-cache
	// activity). A nil recorder costs nothing on the hot paths.
	Trace *trace.Recorder
	// TransferChunkBytes is the chunk size joiner state transfers are
	// split into (default 4096).
	TransferChunkBytes int
	// TransferWindow bounds unacked chunks in flight per joiner
	// (default 4).
	TransferWindow int
}

// port is what the engine does to its group: it multicasts on the agreed
// stream and sends point-to-point, to members and to clients. *gcs.Member
// satisfies it; a test substitutes a recording port.
type port interface {
	Addr() string
	Multicast(payload []byte, lvl gcs.ServiceLevel, sentAt vtime.Time, led vtime.Ledger) error
	SendDirect(to string, payload transport.Buf, sentAt vtime.Time, led vtime.Ledger) error
	DirectRoom() transport.Room
}

// Engine is one replica's replication machinery: the middle layer of the
// paper's replicator stack. Events enter through step, on one goroutine;
// effects leave through its port.
type Engine struct {
	group   port
	addr    string // group.Addr(), fixed for the engine's life
	adapter *orb.Adapter
	cfg     Config
	cpu     vtime.Server

	cmds     chan func()
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}

	// trace counters (nil-safe no-ops when Config.Trace is unset).
	tr              *trace.Recorder
	cCheckpoints    *trace.Counter
	cCkptApplied    *trace.Counter
	cSwitchStarts   *trace.Counter
	cSwitchDones    *trace.Counter
	cSwitchDelay    *trace.Counter // last switch latency, µs
	cFailovers      *trace.Counter
	cFailoverReplay *trace.Counter // total requests replayed across failovers
	cCacheHits      *trace.Counter
	cCacheEvicts    *trace.Counter
	cDedupAssumed   *trace.Counter // duplicates by floor alone, nothing to resend
	cDedupEvicted   *trace.Counter // executed duplicates whose reply was evicted
	cOrphansPruned  *trace.Counter
	cPendingCkpts   *trace.Counter // high-water in-flight checkpoint halves
	cCrashes        *trace.Counter // non-graceful departures observed
	cRetirements    *trace.Counter
	// chunked-transfer counters: leader side…
	cXferStarts       *trace.Counter
	cXferResumes      *trace.Counter
	cXferCompletes    *trace.Counter
	cXferAborts       *trace.Counter
	cXferChunksSent   *trace.Counter
	cXferBytesSent    *trace.Counter
	cXferBytesResumed *trace.Counter // bytes a resume skipped re-sending
	cXferActive       *trace.Counter // gauge: transfers in flight
	// …and joiner side.
	cXferChunksRx *trace.Counter
	cXferBytesRx  *trace.Counter
	cXferApplied  *trace.Counter
	cXferPromotes *trace.Counter // total-failure self-promotions
	spans         *span.Recorder
	hExec         *trace.Histogram // per-request replica turnaround, µs

	// owned by the engine goroutine:
	style     Style
	view      gcs.View
	synced    bool
	switching *switchState

	log         []logEntry
	delivered   uint64 // stream position of the last delivered message
	lastExecSeq uint64 // stream position of the last executed request
	lastCkpt    *Msg   // retained state for cold-passive failover

	// clients holds, per client, the exact executed-request window and
	// the retained replies (dedup.go).
	clients map[string]*clientRecord
	// names holds the client ids, metric names and addresses met in decoded
	// envelopes and peeked VIOP headers, each made once.
	names codec.Names

	// retiring marks members whose graceful retirement was delivered on
	// the agreed stream but whose departure view has not installed yet;
	// their removal must not count as a crash.
	retiring map[string]bool

	ckptCounter int
	ckptSerial  uint64
	pending     map[ckptKey]*pendingCkpt // checkpoints with one half in
	arrivals    *monitor.RateMeter       // request send stamps, rateWindow deep
	stats       Stats
	noticed     Stats // the progress the last notice reported (see noteProgress)

	// chunked joiner state transfer (transfer.go): retained bookmark
	// checkpoints, per-joiner outgoing cursors, and this replica's own
	// incoming reassembly state. lastVT tracks the engine's latest
	// observed virtual time, at which Stop closes open transfer spans.
	bookmarks []*bookmark
	xfers     map[string]*outXfer
	rx        *inXfer
	lastVT    vtime.Time

	// viewJoiners marks members that joined in the latest view change
	// (unsynced until their transfer lands).
	viewJoiners map[string]bool
	// xferNaks collects, per current view, which members declared
	// themselves unsynced in answer to our resume requests (value: how
	// far their state reaches). See handleResumeNak.
	xferNaks map[string]uint64
}

// NewEngine starts a replica engine on member. The adapter carries the
// registered servants; cfg.State captures their collective state.
func NewEngine(member *gcs.Member, adapter *orb.Adapter, cfg Config) *Engine {
	e := newEngine(member, adapter, cfg)
	go e.run(member.Out())
	return e
}

// newEngine builds an engine on group without starting its goroutine:
// whoever owns it feeds step.
func newEngine(group port, adapter *orb.Adapter, cfg Config) *Engine {
	if cfg.Style == 0 {
		cfg.Style = Active
	}
	if cfg.TransferChunkBytes <= 0 {
		cfg.TransferChunkBytes = 4096
	}
	if cfg.TransferWindow <= 0 {
		cfg.TransferWindow = 4
	}
	e := &Engine{
		group:    group,
		addr:     group.Addr(),
		adapter:  adapter,
		cfg:      cfg,
		cmds:     make(chan func()),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		style:    cfg.Style,
		synced:   true, // bootstrap members are synced; joiners reset below
		clients:  make(map[string]*clientRecord),
		retiring: make(map[string]bool),
		pending:  make(map[ckptKey]*pendingCkpt),
		arrivals: monitor.NewRateMeter(rateWindow),
		xfers:    make(map[string]*outXfer),
		xferNaks: make(map[string]uint64),
	}
	e.initTrace(cfg.Trace)
	return e
}
func (e *Engine) initTrace(r *trace.Recorder) {
	e.tr = r
	e.cCheckpoints = r.Counter(trace.SubReplication, "checkpoints")
	e.cCkptApplied = r.Counter(trace.SubReplication, "checkpoints_applied")
	e.cSwitchStarts = r.Counter(trace.SubReplication, "switch_starts")
	e.cSwitchDones = r.Counter(trace.SubReplication, "switch_dones")
	e.cSwitchDelay = r.Counter(trace.SubReplication, "switch_last_delay_us")
	e.cFailovers = r.Counter(trace.SubReplication, "failovers")
	e.cFailoverReplay = r.Counter(trace.SubReplication, "failover_replay_len")
	e.cCacheHits = r.Counter(trace.SubReplication, "reply_cache_hits")
	e.cCacheEvicts = r.Counter(trace.SubReplication, "reply_cache_evictions")
	e.cDedupAssumed = r.Counter(trace.SubReplication, "dedup_assumed")
	e.cDedupEvicted = r.Counter(trace.SubReplication, "dedup_evicted")
	e.cOrphansPruned = r.Counter(trace.SubReplication, "ckpt_orphans_pruned")
	e.cPendingCkpts = r.Counter(trace.SubReplication, "pending_checkpoints")
	e.cCrashes = r.Counter(trace.SubReplication, "crashes_observed")
	e.cRetirements = r.Counter(trace.SubReplication, "retirements")
	e.cXferStarts = r.Counter(trace.SubReplication, "transfer_starts")
	e.cXferResumes = r.Counter(trace.SubReplication, "transfer_resumes")
	e.cXferCompletes = r.Counter(trace.SubReplication, "transfer_completes")
	e.cXferAborts = r.Counter(trace.SubReplication, "transfer_aborts")
	e.cXferChunksSent = r.Counter(trace.SubReplication, "transfer_chunks_sent")
	e.cXferBytesSent = r.Counter(trace.SubReplication, "transfer_bytes_sent")
	e.cXferBytesResumed = r.Counter(trace.SubReplication, "transfer_bytes_resumed")
	e.cXferActive = r.Counter(trace.SubReplication, "transfers_active")
	e.cXferChunksRx = r.Counter(trace.SubReplication, "transfer_chunks_received")
	e.cXferBytesRx = r.Counter(trace.SubReplication, "transfer_bytes_received")
	e.cXferApplied = r.Counter(trace.SubReplication, "transfers_applied")
	e.cXferPromotes = r.Counter(trace.SubReplication, "transfer_self_promotes")
	e.spans = r.Spans()
	e.hExec = r.Histogram(trace.SubReplication, "exec_us")
}

// Addr returns the replica's group address.
func (e *Engine) Addr() string { return e.addr }

// Stop shuts the engine down (the member keeps running; stop it
// separately or via the replicator node). Safe from several goroutines;
// every call returns only once the run goroutine has exited.
func (e *Engine) Stop() {
	e.stopOnce.Do(func() { close(e.stop) })
	<-e.done
}

// do runs fn on the protocol goroutine, reporting false once the engine
// has stopped. On the false path it first waits for the run goroutine to
// exit.
func (e *Engine) do(fn func()) bool {
	donec := make(chan struct{})
	select {
	case e.cmds <- func() { fn(); close(donec) }:
		<-donec
		return true
	case <-e.stop:
		<-e.done
		return false
	case <-e.done:
		return false
	}
}

// StatsSnapshot returns current statistics (the last ones, after Stop).
// Once the run goroutine has exited nothing else touches the state, so the
// snapshot is then read on the caller's goroutine.
func (e *Engine) StatsSnapshot() Stats {
	var s Stats
	if !e.do(func() { s = e.snapshot() }) {
		s = e.snapshot()
	}
	return s
}

func (e *Engine) snapshot() Stats {
	s := e.stats
	s.Rate = e.arrivals.Rate()
	s.CheckpointEvery = e.cfg.CheckpointEvery
	e.progress(&s)
	return s
}

// progress fills in where this replica stands (see Stats).
func (e *Engine) progress(s *Stats) {
	s.Style, s.Role, s.Synced = e.style, e.role(), e.synced
	s.View, s.Members = e.view.ID, len(e.view.Members)
	s.Delivered, s.Executed = e.delivered, e.lastExecSeq
	s.Transferring = e.transferPending()
}

// control runs build on the engine goroutine and multicasts the control
// message it returns, if any, on the agreed stream: every replica acts on
// it at the same position relative to client requests.
func (e *Engine) control(now vtime.Time, build func() (*Msg, error)) error {
	var err error
	ok := e.do(func() {
		var m *Msg
		if m, err = build(); m != nil {
			err = e.group.Multicast(Encode(m), gcs.Agreed, now, vtime.Ledger{})
		}
	})
	if !ok {
		return errors.New("replication: engine stopped")
	}
	return err
}

// run is the goroutine NewEngine starts: it feeds the member's deliveries
// to step and runs commands between them.
func (e *Engine) run(out <-chan gcs.Event) {
	defer close(e.done)
	defer e.stopTransfers()
	for {
		select {
		case <-e.stop:
			return
		case fn := <-e.cmds:
			fn()
		case ev, ok := <-out:
			if !ok {
				return
			}
			e.step(ev)
		}
	}
}

// step is the one entry for group events: it handles ev, then reports any
// progress no notice reported.
func (e *Engine) step(ev gcs.Event) {
	e.handleEvent(ev)
	e.noteProgress()
}

func (e *Engine) handleEvent(ev gcs.Event) {
	if e.lastVT.Before(ev.VTime) {
		e.lastVT = ev.VTime
	}
	switch ev.Kind {
	case gcs.EventView:
		e.delivered = ev.Seq
		e.handleView(ev)
	case gcs.EventDirect:
		var msg Msg
		if decode(ev.Payload, &e.names, &msg) != nil {
			return
		}
		switch msg.Kind {
		case KindState:
			e.addHalf(ev.Sender, &msg, ev.VTime)
		case KindStateChunk:
			e.handleStateChunk(ev, &msg)
		case KindChunkAck:
			e.handleChunkAck(ev, &msg)
		case KindResumeReq:
			e.handleResumeReq(ev, &msg)
		case KindResumeNak:
			e.handleResumeNak(ev, &msg)
		}
	case gcs.EventMessage:
		e.delivered = ev.Seq
		var msg Msg
		if decode(ev.Payload, &e.names, &msg) != nil {
			return
		}
		switch msg.Kind {
		case KindRequest:
			e.handleRequest(ev, &msg)
		case KindCheckpoint:
			e.handleCheckpoint(ev, &msg)
		case KindSwitch:
			e.handleSwitch(ev, &msg)
		case KindConfig:
			if msg.CheckpointEvery > 0 {
				e.cfg.CheckpointEvery = int(msg.CheckpointEvery)
			}
		case KindRetire:
			e.handleRetire(ev, &msg)
		}
	}
}
