package replication

import (
	"errors"
	"fmt"
	"sync"
	"time"

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

// NoticeKind discriminates engine notifications.
type NoticeKind uint8

// Notice kinds.
const (
	// NoticeSwitchStart fires when a switch message is delivered.
	NoticeSwitchStart NoticeKind = iota + 1
	// NoticeSwitchDone fires when the switch completes at this replica;
	// Delay is the virtual time the switch took.
	NoticeSwitchDone
	// NoticeCheckpoint fires when this replica multicasts a checkpoint.
	NoticeCheckpoint
	// NoticeFailover fires when this replica becomes primary after a
	// crash; Delay is the virtual replay/restore time.
	NoticeFailover
	// NoticeRequest fires after every request delivery (executed or
	// logged).
	NoticeRequest
	// NoticeRetire fires when a graceful-retirement directive is
	// delivered on the agreed stream; Peer names the retiring replica.
	// Every replica sees it — the named replica's host reacts by leaving
	// the group after the parting checkpoint (if any) is out.
	NoticeRetire
	// NoticeView fires on every installed view change. Members is the
	// new group size; Crashed counts members that disappeared without a
	// graceful leave or retirement — the adaptation layer's observed
	// fault-rate signal.
	NoticeView
	// NoticeTransfer fires as a chunked state transfer progresses: on the
	// leader when a transfer starts, resumes, or its acked cursor
	// advances; on the joiner as contiguous chunks arrive and when the
	// assembled state is applied. Peer names the other end; Serial, Chunk
	// and Chunks carry the cursor; Resumed marks cursor restorations.
	NoticeTransfer
)

// Notice is an engine observation delivered to the configured observer.
type Notice struct {
	Kind NoticeKind
	// Addr identifies the reporting replica.
	Addr     string
	VT       vtime.Time
	Delay    vtime.Duration
	Style    Style
	Executed bool
	// Peer is the retiring replica (NoticeRetire).
	Peer string
	// Members is the group size after a view change (NoticeView).
	Members int
	// Crashed counts non-graceful departures in a view change
	// (NoticeView).
	Crashed int
	// Serial is the transfer's bookmark serial (NoticeTransfer).
	Serial uint64
	// Chunk is the contiguous cursor position and Chunks the transfer's
	// total chunk count (NoticeTransfer); Chunk == Chunks on completion.
	Chunk, Chunks int
	// Resumed marks a cursor restored from a resume token or stall rewind
	// rather than a fresh start (NoticeTransfer).
	Resumed bool
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
	Style           Style
	Role            Role
	Synced          bool
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
	// TransferRetryEvery is the real-time cadence of the transfer retry
	// driver: stalled leaders rewind their send window to the acked
	// cursor, unsynced joiners re-offer their resume token (default
	// 120ms).
	TransferRetryEvery time.Duration
}

// cacheDepth is how many replies are retained per client for duplicate
// suppression.
const cacheDepth = 8

type logEntry struct {
	viop   []byte
	seq    uint64 // global agreed-stream sequence number
	sentVT vtime.Time
}

// ckptKey matches a checkpoint marker with its bulk state transfer.
type ckptKey struct {
	sender string
	serial uint64
}

// pendingMarker is a checkpoint marker awaiting its state bytes.
type pendingMarker struct {
	msg Msg
	vt  vtime.Time
}

type switchState struct {
	id      uint64
	target  Style
	startVT vtime.Time
	// awaitingFinal is true while a passive→active switch waits for the
	// primary's closing checkpoint (Figure 5, case 1).
	awaitingFinal bool
	// oldPrimary is the primary that owes the closing checkpoint.
	oldPrimary string
}

// Engine is one replica's replication machinery: the middle layer of the
// paper's replicator stack. It consumes the group member's event stream
// exclusively.
type Engine struct {
	member  *gcs.Member
	adapter *orb.Adapter
	cfg     Config
	cpu     vtime.Server

	cmds     chan func()
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}

	// final is the snapshot the run goroutine takes as it exits, so the
	// public getters keep answering truthfully after Stop instead of
	// silently returning zero values.
	finalMu sync.Mutex
	final   *finalState

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
	cXferChunkResends *trace.Counter
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

	// owned by the run goroutine:
	style     Style
	view      gcs.View
	prevView  gcs.View
	synced    bool
	switching *switchState

	log         []logEntry
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
	pendMarkers map[ckptKey]*pendingMarker
	pendStates  map[ckptKey]*Msg
	arrivals    *monitor.RateMeter // request send stamps, rateWindow deep
	stats       Stats

	// chunked joiner state transfer (transfer.go): retained bookmark
	// checkpoints, per-joiner outgoing cursors, and this replica's own
	// incoming reassembly state. lastVT tracks the engine's latest
	// observed virtual time so the real-time retry driver can stamp its
	// protocol sends.
	bookmarks []*bookmark
	xfers     map[string]*outXfer
	rx        *inXfer
	lastVT    vtime.Time
	retry     *time.Ticker // the retry driver; nil while no transfer is pending

	// viewJoiners marks members that joined in the latest view change
	// (unsynced until their transfer lands); xferNag rotates an unsynced
	// joiner's fresh resume requests across potential transfer leaders,
	// xferNagMiss counts unanswered requests to the current sender, and
	// xferLastNag paces requests to one per stall period.
	viewJoiners map[string]bool
	xferNag     int
	xferNagMiss int
	xferLastNag time.Time
	// xferNaks collects, per current view, which members declared
	// themselves unsynced in answer to our resume requests (value: how
	// far their state reaches). See handleResumeNak.
	xferNaks map[string]uint64
}

// NewEngine starts a replica engine on member. The adapter carries the
// registered servants; cfg.State captures their collective state.
func NewEngine(member *gcs.Member, adapter *orb.Adapter, cfg Config) *Engine {
	if cfg.Style == 0 {
		cfg.Style = Active
	}
	if cfg.TransferChunkBytes <= 0 {
		cfg.TransferChunkBytes = 4096
	}
	if cfg.TransferWindow <= 0 {
		cfg.TransferWindow = 4
	}
	if cfg.TransferRetryEvery <= 0 {
		cfg.TransferRetryEvery = 120 * time.Millisecond
	}
	e := &Engine{
		member:      member,
		adapter:     adapter,
		cfg:         cfg,
		cmds:        make(chan func()),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
		style:       cfg.Style,
		synced:      true, // bootstrap members are synced; joiners reset below
		clients:     make(map[string]*clientRecord),
		retiring:    make(map[string]bool),
		pendMarkers: make(map[ckptKey]*pendingMarker),
		pendStates:  make(map[ckptKey]*Msg),
		arrivals:    monitor.NewRateMeter(rateWindow),
		xfers:       make(map[string]*outXfer),
		xferNaks:    make(map[string]uint64),
	}
	e.initTrace(cfg.Trace)
	go e.run()
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
	e.cOrphansPruned = r.Counter(trace.SubReplication, "ckpt_orphans_pruned")
	e.cPendingCkpts = r.Counter(trace.SubReplication, "pending_checkpoints")
	e.cCrashes = r.Counter(trace.SubReplication, "crashes_observed")
	e.cRetirements = r.Counter(trace.SubReplication, "retirements")
	e.cXferStarts = r.Counter(trace.SubReplication, "transfer_starts")
	e.cXferResumes = r.Counter(trace.SubReplication, "transfer_resumes")
	e.cXferCompletes = r.Counter(trace.SubReplication, "transfer_completes")
	e.cXferAborts = r.Counter(trace.SubReplication, "transfer_aborts")
	e.cXferChunksSent = r.Counter(trace.SubReplication, "transfer_chunks_sent")
	e.cXferChunkResends = r.Counter(trace.SubReplication, "transfer_chunk_resends")
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

// finalState is the terminal getter snapshot (see Engine.final).
type finalState struct {
	stats     Stats
	style     Style
	role      Role
	ckptEvery int
}

// captureFinal snapshots getter-visible state; runs on the protocol
// goroutine as it exits.
func (e *Engine) captureFinal() {
	s := e.stats
	s.Rate = e.arrivals.Rate()
	s.Style = e.style
	s.Role = e.role()
	s.Synced = e.synced
	e.finalMu.Lock()
	e.final = &finalState{
		stats:     s,
		style:     e.style,
		role:      e.role(),
		ckptEvery: e.cfg.CheckpointEvery,
	}
	e.finalMu.Unlock()
}

// finalSnap returns the terminal snapshot; do() guarantees it is set
// before any getter falls back to it.
func (e *Engine) finalSnap() *finalState {
	e.finalMu.Lock()
	defer e.finalMu.Unlock()
	if e.final == nil {
		return &finalState{}
	}
	return e.final
}

// Addr returns the replica's group address.
func (e *Engine) Addr() string { return e.member.Addr() }

// Stop shuts the engine down (the member keeps running; stop it
// separately or via the replicator node). Safe from several goroutines;
// every call returns only once the run goroutine has exited.
func (e *Engine) Stop() {
	e.stopOnce.Do(func() { close(e.stop) })
	<-e.done
}

// do runs fn on the protocol goroutine, reporting false once the engine
// has stopped. On the false path it first waits for the run goroutine to
// exit, which guarantees the terminal snapshot is in place for the caller
// to fall back on.
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

// Style returns the current replication style (the last one, after Stop).
func (e *Engine) Style() Style {
	var s Style
	if e.do(func() { s = e.style }) {
		return s
	}
	return e.finalSnap().style
}

// Role returns this replica's current role (the last one, after Stop).
func (e *Engine) Role() Role {
	var r Role
	if e.do(func() { r = e.role() }) {
		return r
	}
	return e.finalSnap().role
}

// StatsSnapshot returns current statistics; after Stop it returns the
// final statistics rather than zeros.
func (e *Engine) StatsSnapshot() Stats {
	var s Stats
	ok := e.do(func() {
		s = e.stats
		s.Rate = e.arrivals.Rate()
		s.Style = e.style
		s.Role = e.role()
		s.Synced = e.synced
	})
	if ok {
		return s
	}
	return e.finalSnap().stats
}

// RequestSwitch initiates a style switch (the low-level replication-style
// knob, usable at runtime). The switch message travels the agreed stream;
// duplicates and no-op switches are discarded on delivery. A request made
// while a switch is in flight is dropped: the style it would compare
// against is about to change.
func (e *Engine) RequestSwitch(target Style, now vtime.Time) {
	e.do(func() {
		if e.style == target || e.switching != nil {
			return
		}
		msg := Encode(&Msg{Kind: KindSwitch, Style: target})
		_ = e.member.Multicast(msg, gcs.Agreed, now, vtime.Ledger{})
	})
}

// SetCheckpointEvery retunes the checkpointing-frequency knob at runtime.
// The new value travels the agreed stream, so every replica adopts it at
// the same position (and a failed-over primary checkpoints at the rate the
// group agreed on, not a stale local one).
func (e *Engine) SetCheckpointEvery(every int, now vtime.Time) {
	if every <= 0 {
		return
	}
	e.do(func() {
		msg := Encode(&Msg{Kind: KindConfig, CheckpointEvery: uint32(every)})
		_ = e.member.Multicast(msg, gcs.Agreed, now, vtime.Ledger{})
	})
}

// CheckpointEvery reports the current checkpointing frequency (the last
// agreed value, after Stop).
func (e *Engine) CheckpointEvery() int {
	var out int
	if e.do(func() { out = e.cfg.CheckpointEvery }) {
		return out
	}
	return e.finalSnap().ckptEvery
}

// RequestRetire turns the replica-count knob downward at runtime: a
// retirement directive for addr travels the agreed stream, so every
// replica (the victim included) observes it at the same position relative
// to client requests. A retiring primary takes a parting checkpoint
// before leaving, making the handoff cheap; the victim's host then leaves
// the group gracefully, and the resulting view change is not counted as a
// crash. Retiring the last replica is refused.
func (e *Engine) RequestRetire(addr string, now vtime.Time) error {
	var err error
	ok := e.do(func() {
		if !e.view.Contains(addr) {
			err = fmt.Errorf("replication: %s is not a group member", addr)
			return
		}
		if len(e.view.Members) <= 1 {
			err = errors.New("replication: cannot retire the last replica")
			return
		}
		msg := Encode(&Msg{Kind: KindRetire, Target: addr})
		err = e.member.Multicast(msg, gcs.Agreed, now, vtime.Ledger{})
	})
	if !ok {
		return errors.New("replication: engine stopped")
	}
	return err
}

// ---- run loop ----

func (e *Engine) run() {
	defer close(e.done)
	defer e.captureFinal()
	defer e.stopTransfers()
	// The transfer retry driver runs on real time, like the GCS liveness
	// machinery: virtual time only advances with protocol events, and a
	// partitioned transfer has none. Its ticker is armed only while a
	// transfer is pending; an idle replica's loop never wakes for it.
	defer e.armRetry(false)
	for {
		e.armRetry(e.transferPending())
		var retry <-chan time.Time // nil, and never ready, while disarmed
		if e.retry != nil {
			retry = e.retry.C
		}
		select {
		case <-e.stop:
			return
		case fn := <-e.cmds:
			fn()
		case <-retry:
			e.transferTick()
		case ev, ok := <-e.member.Out():
			if !ok {
				return
			}
			e.handleEvent(ev)
		}
	}
}

func (e *Engine) handleEvent(ev gcs.Event) {
	if e.lastVT.Before(ev.VTime) {
		e.lastVT = ev.VTime
	}
	switch ev.Kind {
	case gcs.EventView:
		e.handleView(ev)
	case gcs.EventDirect:
		var msg Msg
		if decode(ev.Payload, &e.names, &msg) != nil {
			return
		}
		switch msg.Kind {
		case KindState:
			held := msg // pendStates keeps it past this event: a copy
			e.pendStates[ckptKey{ev.Sender, msg.CkptSerial}] = &held
			e.notePendingCkpts()
			e.tryApplyCheckpoint(ev.Sender, msg.CkptSerial)
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

// role computes this replica's duty. Rank 0 of the view is the primary in
// the passive styles and the designated state leader (checkpoint source for
// joiners) in all styles.
func (e *Engine) role() Role {
	if e.view.Coordinator() == e.Addr() {
		return RolePrimary
	}
	return RoleBackup
}

func (e *Engine) isExecutor() bool {
	if !e.synced {
		return false
	}
	if e.style.AllExecute() {
		return true
	}
	return e.role() == RolePrimary
}

// repliesToClients reports whether this replica transmits replies: all
// replicas in active, the leader only in semi-active, the primary only in
// the passive styles. Non-replying executors still cache replies so they
// can serve retries after a leader crash.
func (e *Engine) repliesToClients() bool {
	if e.style == Active {
		return true
	}
	return e.role() == RolePrimary
}

// ---- view handling ----

func (e *Engine) handleView(ev gcs.Event) {
	prev := e.view
	e.view = ev.View
	e.prevView = prev

	// Classify departures before touching the retiring set: members that
	// announced a graceful leave (carried on the view frame) or whose
	// retirement directive was delivered on the agreed stream are
	// voluntary; everything else is a crash, the adaptation layer's
	// fault-rate signal.
	graceful := make(map[string]bool, len(ev.Left))
	for _, mm := range ev.Left {
		graceful[mm] = true
	}
	crashed := 0
	for _, mm := range prev.Members {
		if mm == e.Addr() || ev.View.Contains(mm) {
			continue
		}
		if e.retiring[mm] {
			graceful[mm] = true
		}
		if !graceful[mm] {
			crashed++
		}
		delete(e.retiring, mm)
	}
	if crashed > 0 {
		e.cCrashes.Add(int64(crashed))
		e.tr.Event(trace.SubReplication, "crash_observed", ev.VTime, int64(crashed))
	}

	// A checkpoint sender that crashed between its marker and its state
	// transfer leaves an orphaned half behind; the view change that
	// removes the sender is the point where it can never complete.
	for key := range e.pendMarkers {
		if !ev.View.Contains(key.sender) {
			delete(e.pendMarkers, key)
			e.cOrphansPruned.Inc()
		}
	}
	for key := range e.pendStates {
		if !ev.View.Contains(key.sender) {
			delete(e.pendStates, key)
			e.cOrphansPruned.Inc()
		}
	}
	e.notePendingCkpts()

	if ev.Joined && len(ev.View.Members) > 1 {
		// We joined a running group: wait for a state transfer. A partial
		// transfer from a previous membership is unsafe to finish —
		// deliveries may have been missed while we were out — so it is
		// discarded and the retry driver requests a fresh one.
		e.synced = false
		e.log = nil
		e.resetInXfer("rejoined")
	}

	leader := e.view.Coordinator() == e.Addr()

	// Joiners of this view change are unsynced by definition. Transfer
	// leadership goes to the lowest-ranked member that did NOT just join —
	// the coordinator itself may be a rejoining previous anchor whose rank
	// puts it first while it still has no state to serve.
	e.viewJoiners = make(map[string]bool)
	e.xferNag, e.xferNagMiss = 0, 0
	e.xferNaks = make(map[string]uint64)
	var joiners []string
	for _, m := range e.view.Members {
		if !prev.Contains(m) && prev.ID != 0 {
			e.viewJoiners[m] = true
			if m != e.Addr() {
				joiners = append(joiners, m)
			}
		}
	}
	xferLeader := false
	for _, m := range e.view.Members {
		if !e.viewJoiners[m] {
			xferLeader = m == e.Addr()
			break
		}
	}

	// Outgoing transfer cursors are only valid while this replica leads
	// transfers and the joiner stays in the view: a departed joiner may
	// miss deliveries and must restart from a fresh capture when it
	// returns, and a demoted leader's serial means nothing to its
	// successor.
	for _, x := range e.xfers {
		if !xferLeader {
			e.abortTransfer(x, ev.VTime, "demoted")
		} else if !e.view.Contains(x.peer) {
			e.abortTransfer(x, ev.VTime, "joiner left view")
		}
	}

	// Primary departure and we are next: a crash triggers the paper's
	// failover (cold restart, replay, counted as a fault); a graceful
	// retirement or leave is a handoff — the parting checkpoint covers
	// all but the tail of the log, and no fault is recorded.
	prevPrimary := prev.Coordinator()
	if leader && e.synced && e.style.IsPassive() &&
		prevPrimary != "" && prevPrimary != e.Addr() && !e.view.Contains(prevPrimary) {
		if graceful[prevPrimary] {
			e.handoff(ev.VTime)
		} else {
			e.failover(ev.VTime)
		}
	}

	// Mid-switch primary crash (Figure 5, case 1 crash branch): the
	// closing checkpoint will never come; every synced survivor replays
	// its outstanding log and goes active.
	if e.switching != nil && e.switching.awaitingFinal &&
		e.switching.oldPrimary != "" && !e.view.Contains(e.switching.oldPrimary) {
		sw := e.switching
		e.switching = nil
		// Close the switch span here with the reason annotated; the normal
		// close in notify finds nothing open and records no duplicate.
		e.spans.End("switch", ev.VTime, "failover")
		if e.synced {
			e.replayLog(ev.VTime)
		}
		e.style = sw.target
		e.stats.LastSwitchDelay = ev.VTime.Sub(sw.startVT)
		e.notify(Notice{Kind: NoticeSwitchDone, VT: ev.VTime, Delay: e.stats.LastSwitchDelay, Style: e.style})
	}

	// State transfer for joiners: the transfer leader captures a bookmark
	// checkpoint and streams it in resumable chunks to every new member
	// (one shared capture per view change).
	if xferLeader && e.synced {
		e.startTransfers(joiners, ev.VTime)
	}

	e.notify(Notice{Kind: NoticeView, VT: ev.VTime, Style: e.style,
		Members: len(e.view.Members), Crashed: crashed})
}

// handleRetire processes a graceful-retirement directive delivered on the
// agreed stream. Every replica marks the target so the upcoming view
// change is classified as voluntary, and a retiring primary takes a
// parting checkpoint covering exactly the requests ordered before the
// directive — its successor hands off instead of failing over.
func (e *Engine) handleRetire(ev gcs.Event, msg *Msg) {
	target := msg.Target
	if target == "" || e.retiring[target] || !e.view.Contains(target) {
		return
	}
	live := 0
	for _, mm := range e.view.Members {
		if !e.retiring[mm] {
			live++
		}
	}
	if live <= 1 {
		return // never retire the last working replica
	}
	e.retiring[target] = true
	e.stats.Retirements++
	e.cRetirements.Inc()
	e.tr.Event(trace.SubReplication, "retire", ev.VTime, 0)
	if target == e.Addr() && e.synced && e.style.IsPassive() && e.role() == RolePrimary {
		e.takeCheckpoint(ev.VTime, false, 0)
	}
	e.notify(Notice{Kind: NoticeRetire, VT: ev.VTime, Style: e.style,
		Peer: target, Members: len(e.view.Members)})
}

// handoff promotes this replica to primary after the previous primary
// departed gracefully: replay whatever its parting checkpoint did not
// cover. Unlike failover there is no fault — Failovers is untouched and
// no cold-start is paid (a graceful departure never strands a cold
// backup as the only survivor of a checkpointed state it lacks).
func (e *Engine) handoff(vt vtime.Time) {
	replayed := int64(len(e.log))
	vt = e.replayLog(vt)
	e.stats.Handoffs++
	e.tr.Event(trace.SubReplication, "handoff", vt, replayed)
}

// failover promotes this replica to primary: cold replicas pay the
// cold-start and restore costs first, then the logged requests since the
// last checkpoint are replayed (Figure 5's rollback).
func (e *Engine) failover(vt vtime.Time) {
	start := vt
	var fkey span.Key // the cold name is formatted only for a recorder
	if e.spans.On() {
		fkey = span.NameKey(span.FailoverTrace(e.Addr(), uint64(e.stats.Failovers)+1))
	}
	e.spans.Add(fkey, "crash_detect", "", start, start)
	if e.style == ColdPassive {
		vt = e.cpu.Execute(vt, e.cfg.Model.ColdStart)
		if e.lastCkpt != nil {
			vt = e.cpu.Execute(vt, vtime.Duration(len(e.lastCkpt.State))*e.cfg.Model.CheckpointPerByte)
			_ = e.cfg.State.Restore(e.lastCkpt.State)
			e.setCache(e.lastCkpt.Cache)
		}
		e.spans.Add(fkey, "cold_restart", span.CompReplicator, start, vt)
	}
	replayed := int64(len(e.log))
	replayStart := vt
	vt = e.replayLog(vt)
	e.spans.Annotate(fkey, "replay", span.CompReplicator, replayStart, vt, replayed, "")
	e.spans.Add(fkey, "failover", "", start, vt)
	e.stats.Failovers++
	e.cFailovers.Inc()
	e.cFailoverReplay.Add(replayed)
	e.tr.Event(trace.SubReplication, "failover", vt, replayed)
	e.notify(Notice{Kind: NoticeFailover, VT: vt, Delay: vt.Sub(start), Style: e.style})
}

// replayLog executes every logged request, caching and re-sending replies
// (duplicates are suppressed client-side). Returns the virtual completion
// time.
func (e *Engine) replayLog(vt vtime.Time) vtime.Time {
	entries := e.log
	e.log = nil
	for _, le := range entries {
		cid, rid, ok := e.peekRequest(le.viop)
		if !ok {
			continue
		}
		r := e.client(cid)
		if r.executed(rid) {
			if cached, ok := r.reply(rid); ok {
				// Component-less and noted "failover": the cross-node
				// stitcher uses the note to mark the request's timeline as
				// crossing a failover, and an empty Comp keeps the resend
				// out of the request's cost breakdown.
				e.spans.Annotate(span.RequestKey(cid, rid), "reply_resend", "", vt, vt, 0, "failover")
				_ = e.member.SendDirect(cid, e.resend(cached), vt, vtime.Ledger{})
				e.cCacheHits.Inc()
			}
			continue
		}
		start := vt
		vt = e.execute(le.viop, r, cid, rid, vt, vtime.Ledger{})
		e.spans.Annotate(span.RequestKey(cid, rid), "replayed", "", start, vt, 0, "failover")
		e.lastExecSeq = le.seq
	}
	return vt
}

// ---- request handling ----

func (e *Engine) handleRequest(ev gcs.Event, msg *Msg) {
	cid, rid, ok := e.peekRequest(msg.Viop)
	if !ok {
		return
	}
	e.arrivals.Record(ev.SentVT)

	executor := e.isExecutor()
	// During a passive→active switch window the old roles persist until
	// the closing checkpoint (the primary keeps serving; backups keep
	// logging).
	r := e.client(cid)
	if r.executed(rid) {
		// Duplicate (client retry): the replying executor resends the
		// cached reply.
		if executor && e.repliesToClients() {
			if cached, ok := r.reply(rid); ok {
				vt := e.cpu.Execute(ev.VTime, e.cfg.Model.Intercept)
				// Component-less: a resend carries no ledger charge, so
				// it must not count into the request's breakdown.
				e.spans.Annotate(span.RequestKey(cid, rid), "reply_resend", "", ev.VTime, vt, 0, "dedup")
				_ = e.member.SendDirect(cid, e.resend(cached), vt, ev.Ledger)
				e.stats.RepliesResent++
				e.cCacheHits.Inc()
			} else if rid <= r.floor {
				// Executed only by assumption, and nothing to resend: if the
				// request was in fact new, this is where it is lost.
				e.cDedupAssumed.Inc()
			}
		}
		return
	}

	if executor {
		led := ev.Ledger
		led.Charge(vtime.ComponentReplicator, e.cfg.Model.Intercept)
		vt := e.cpu.Execute(ev.VTime, e.cfg.Model.Intercept)
		e.spans.Add(span.RequestKey(cid, rid), "replicator_deliver", span.CompReplicator, vt.Add(-e.cfg.Model.Intercept), vt)
		vt = e.executeWithLedger(msg.Viop, r, cid, rid, vt, led)
		e.lastExecSeq = ev.Seq
		e.notify(Notice{Kind: NoticeRequest, VT: vt, Style: e.style, Executed: true})

		if e.style.IsPassive() && e.role() == RolePrimary &&
			e.cfg.CheckpointEvery > 0 && len(e.view.Members) > 1 {
			e.ckptCounter++
			if e.ckptCounter >= e.cfg.CheckpointEvery {
				e.takeCheckpoint(vt, false, 0)
			}
		}
	} else {
		// Backups and unsynced joiners log; a joiner's log is replayed
		// against the checkpoint it is waiting for.
		// Marker (zero duration, no component): shows up in the request
		// timeline as the backup's logging point without affecting the
		// breakdown.
		e.spans.Add(span.RequestKey(cid, rid), "request_logged", "", ev.VTime, ev.VTime)
		e.log = append(e.log, logEntry{viop: msg.Viop, seq: ev.Seq, sentVT: ev.SentVT})
		e.stats.RequestsLogged++
		e.notify(Notice{Kind: NoticeRequest, VT: ev.VTime, Style: e.style, Executed: false})
	}
}

// executeWithLedger runs one request through the adapter, caches the
// reply, and transmits it if this replica is the replying one.
func (e *Engine) executeWithLedger(viop []byte, r *clientRecord, cid string, rid uint64, vt vtime.Time, led vtime.Ledger) vtime.Time {
	in := vt
	res, err := e.adapter.HandleRequest(&e.cpu, viop, e.member.DirectRoom(), vt, led)
	if err != nil {
		return vt
	}
	vt = e.cpu.Execute(res.DoneVT, e.cfg.Model.Intercept)
	outLed := res.Ledger
	outLed.Charge(vtime.ComponentReplicator, e.cfg.Model.Intercept)
	e.spans.Add(span.RequestKey(cid, rid), "replicator_reply", span.CompReplicator, vt.Add(-e.cfg.Model.Intercept), vt)
	e.hExec.Observe(int64(vt.Sub(in)) / int64(vtime.Microsecond))
	r.mark(rid)
	// The cache keeps a window onto the reply's frame; sending the reply
	// again is resend's copy.
	if r.store(rid, res.Encoded.Bytes()) {
		e.cCacheEvicts.Inc()
	}
	e.stats.RequestsExecuted++
	if e.repliesToClients() {
		_ = e.member.SendDirect(cid, res.Encoded, vt, outLed)
	}
	return vt
}

// resend returns a cached reply in a fresh buffer: the room around the
// cached bytes was spent when the reply was first sent.
func (e *Engine) resend(cached []byte) transport.Buf {
	return transport.CopyBuf(e.member.DirectRoom(), cached)
}

// sendDirect encodes m straight into a frame to the member or client at to
// and sends it.
func (e *Engine) sendDirect(to string, m *Msg, vt vtime.Time) {
	_ = e.member.SendDirect(to, EncodeIn(e.member.DirectRoom(), m), vt, vtime.Ledger{})
}

// execute is executeWithLedger with a fresh ledger (replay path).
func (e *Engine) execute(viop []byte, r *clientRecord, cid string, rid uint64, vt vtime.Time, led vtime.Ledger) vtime.Time {
	led.Charge(vtime.ComponentReplicator, e.cfg.Model.Intercept)
	vt = e.cpu.Execute(vt, e.cfg.Model.Intercept)
	e.spans.Add(span.RequestKey(cid, rid), "replicator_deliver", span.CompReplicator, vt.Add(-e.cfg.Model.Intercept), vt)
	return e.executeWithLedger(viop, r, cid, rid, vt, led)
}

// peekRequest reads the identity of an encoded VIOP request, the client id
// through the engine's name table: it keys the client's record and names
// the address its replies go to, so it is wanted as a string.
func (e *Engine) peekRequest(viop []byte) (cid string, rid uint64, ok bool) {
	b, rid, err := orb.PeekRequestID(viop)
	if err != nil {
		return "", 0, false
	}
	return e.names.Intern(b), rid, true
}

// client returns cid's record, creating it at first sight.
func (e *Engine) client(cid string) *clientRecord {
	r := e.clients[cid]
	if r == nil {
		r = &clientRecord{replies: make([]cachedReply, cacheDepth)}
		e.clients[cid] = r
	}
	return r
}

// ---- checkpoints ----

// takeCheckpoint captures the application state, multicasts a small
// ordering marker on the agreed stream, and ships the bulk state
// point-to-point to every other member. The capture and per-backup
// marshaling costs (the paper's quiescence overhead) occupy the primary's
// CPU, which is what slows warm-passive replication under load; the
// per-backup transfers are what make passive bandwidth grow with the
// redundancy level.
func (e *Engine) takeCheckpoint(vt vtime.Time, final bool, switchID uint64) {
	vt0 := vt
	state := e.cfg.State.State()
	backups := len(e.view.Members) - 1
	cost := e.cfg.Model.CheckpointCost(len(state))
	if backups > 0 {
		cost += vtime.Duration(backups*len(state)) * e.cfg.Model.StateMarshalPerByte
	}
	vt = e.cpu.Execute(vt, cost)

	e.ckptSerial++
	marker := &Msg{
		Kind:       KindCheckpoint,
		Cache:      e.captureCache(),
		Final:      final,
		SwitchID:   switchID,
		CoveredSeq: e.lastExecSeq,
		CkptSerial: e.ckptSerial,
	}
	var led vtime.Ledger
	led.Charge(vtime.ComponentReplicator, cost)
	_ = e.member.Multicast(Encode(marker), gcs.Agreed, vt, led)

	// Encoded once, into the first backup's frame; every later backup's
	// frame is a copy of it, as the room around it is spent by then.
	var stateMsg transport.Buf
	encoded := false
	for _, m := range e.view.Members {
		if m == e.Addr() {
			continue
		}
		if e.xfers[m] != nil {
			// A joiner mid-chunked-transfer is owned by that protocol;
			// shipping it a competing full state would only duplicate
			// bytes (it syncs through its cursor, or asks again).
			continue
		}
		if encoded {
			_ = e.member.SendDirect(m, stateMsg.Clone(), vt, vtime.Ledger{})
			continue
		}
		stateMsg = EncodeIn(e.member.DirectRoom(), &Msg{Kind: KindState, State: state, CoveredSeq: e.lastExecSeq, CkptSerial: e.ckptSerial})
		encoded = true
		_ = e.member.SendDirect(m, stateMsg, vt, vtime.Ledger{})
	}
	if e.spans.On() {
		e.spans.Annotate(span.NameKey(span.CheckpointTrace(e.Addr(), e.ckptSerial)), "checkpoint_capture",
			span.CompReplicator, vt.Add(-cost), vt, int64(len(state)), "")
		if final {
			// The closing checkpoint of a passive→active switch is part of
			// the switch timeline (Figure 5, step II case 1).
			e.spans.Annotate(span.NameKey(span.SwitchTrace(switchID)), "state_transfer", "", vt0, vt, int64(len(state)), "")
		}
	}
	e.ckptCounter = 0
	e.stats.Checkpoints++
	e.cCheckpoints.Inc()
	e.tr.Event(trace.SubReplication, "checkpoint", vt, int64(e.ckptSerial))
	e.notify(Notice{Kind: NoticeCheckpoint, VT: vt, Style: e.style})
}

// handleCheckpoint processes a checkpoint marker from the agreed stream.
// The marker fixes the checkpoint's position; the bulk state arrives
// point-to-point and is matched by (sender, serial).
func (e *Engine) handleCheckpoint(ev gcs.Event, msg *Msg) {
	if ev.Sender == e.Addr() {
		// Our own marker: our state is already current. A final marker
		// completes the switch on the primary side.
		if msg.Final && e.switching != nil && e.switching.awaitingFinal {
			sw := e.switching
			e.switching = nil
			e.style = sw.target
			e.stats.LastSwitchDelay = ev.VTime.Sub(sw.startVT)
			e.notify(Notice{Kind: NoticeSwitchDone, VT: ev.VTime, Delay: e.stats.LastSwitchDelay, Style: e.style})
		}
		return
	}
	e.pendMarkers[ckptKey{ev.Sender, msg.CkptSerial}] = &pendingMarker{msg: *msg, vt: ev.VTime}
	e.notePendingCkpts()
	e.tryApplyCheckpoint(ev.Sender, msg.CkptSerial)
}

// tryApplyCheckpoint applies a checkpoint once both its marker and its
// state have arrived.
func (e *Engine) tryApplyCheckpoint(sender string, serial uint64) {
	key := ckptKey{sender, serial}
	pm := e.pendMarkers[key]
	st := e.pendStates[key]
	if pm == nil || st == nil {
		return
	}
	delete(e.pendMarkers, key)
	delete(e.pendStates, key)
	e.cCkptApplied.Inc()
	// A completed checkpoint supersedes any older halves from the same
	// sender still waiting for their counterpart (e.g. a state transfer
	// whose marker was lost to view-change recovery): they can never be
	// applied and would otherwise sit in the pending maps forever.
	for k := range e.pendMarkers {
		if k.sender == sender && k.serial < serial {
			delete(e.pendMarkers, k)
			e.cOrphansPruned.Inc()
		}
	}
	for k := range e.pendStates {
		if k.sender == sender && k.serial < serial {
			delete(e.pendStates, k)
			e.cOrphansPruned.Inc()
		}
	}
	e.notePendingCkpts()
	marker := &pm.msg

	if e.style == ColdPassive && e.synced {
		// Cold backups store but do not apply; the log keeps only
		// requests the stored state does not cover.
		combined := *marker
		combined.State = st.State
		e.lastCkpt = &combined
		e.trimLog(marker.CoveredSeq)
	} else if !e.isExecutor() || !e.synced {
		// Warm backups and joiners apply the state, then trim the log to
		// the requests the snapshot does not cover (the marker may have
		// been ordered after requests that were already in the sequencer
		// pipeline when the state was captured).
		vt := e.cpu.Execute(pm.vt, vtime.Duration(len(st.State))*e.cfg.Model.CheckpointPerByte)
		_ = e.cfg.State.Restore(st.State)
		if e.spans.On() {
			e.spans.Annotate(span.NameKey(span.CheckpointTrace(sender, serial)), "checkpoint_apply",
				span.CompReplicator, pm.vt, vt, int64(len(st.State)), "")
		}
		e.setCache(marker.Cache)
		e.lastExecSeq = marker.CoveredSeq
		e.trimLog(marker.CoveredSeq)
		wasSynced := e.synced
		e.synced = true
		if !wasSynced {
			// A full checkpoint beat the chunked path to syncing us; the
			// partial transfer is moot.
			e.resetInXfer("superseded by checkpoint")
		}
		if e.style.AllExecute() && (!wasSynced || marker.Final) {
			// A joiner to an active group (or a backup completing a
			// passive→active switch below) must catch up to the stream
			// head before executing live traffic.
			e.replayLog(vt)
		}
	}

	// Closing checkpoint of a passive→active switch (Figure 5 case 1):
	// backups replay the uncovered tail of their logs before going
	// active.
	if marker.Final && e.switching != nil && e.switching.awaitingFinal {
		sw := e.switching
		e.switching = nil
		e.style = sw.target
		if e.synced {
			e.replayLog(pm.vt)
		}
		e.stats.LastSwitchDelay = pm.vt.Sub(sw.startVT)
		e.notify(Notice{Kind: NoticeSwitchDone, VT: pm.vt, Delay: e.stats.LastSwitchDelay, Style: e.style})
	}
}

// trimLog drops log entries covered by a checkpoint.
func (e *Engine) trimLog(coveredSeq uint64) {
	keep := e.log[:0]
	for _, le := range e.log {
		if le.seq > coveredSeq {
			keep = append(keep, le)
		}
	}
	e.log = keep
}

// captureCache is what a checkpoint carries of the per-client records:
// each client's high-water mark and the reply to it.
func (e *Engine) captureCache() []CacheEntry {
	cache := make([]CacheEntry, 0, len(e.clients))
	for cid, r := range e.clients {
		if reply, ok := r.reply(r.high); ok {
			cache = append(cache, CacheEntry{Client: cid, ReqID: r.high, Reply: reply})
		}
	}
	return cache
}

// setCache installs a checkpoint's cache. The checkpoint summarizes
// execution history as one high-water mark per client, so exact knowledge
// resets: everything at or below the mark is assumed executed, and the
// exact window restarts above it. Records are reset in place.
func (e *Engine) setCache(entries []CacheEntry) {
	for _, r := range e.clients {
		r.reset(0)
	}
	for _, c := range entries {
		r := e.client(c.Client)
		r.reset(c.ReqID)
		// Copied: a decoded entry is a small window onto a checkpoint
		// marker or the final transfer chunk, and the cache would pin
		// that whole buffer for as long as the client stays quiet.
		r.store(c.ReqID, append([]byte(nil), c.Reply...))
	}
}

// ---- switches (Figure 5) ----

func (e *Engine) handleSwitch(ev gcs.Event, msg *Msg) {
	target := msg.Style
	if e.switching != nil || target == e.style || target == 0 {
		return // duplicate or no-op switch: discarded (Figure 5, step I)
	}
	e.stats.Switches++
	e.notify(Notice{Kind: NoticeSwitchStart, VT: ev.VTime, Style: target})
	if e.spans.On() {
		skey := span.NameKey(span.SwitchTrace(ev.Seq))
		e.spans.Add(skey, "switch_start", "", ev.VTime, ev.VTime)
		// At most one switch is in flight (e.switching guards re-entry), so
		// a fixed open key is safe.
		e.spans.Begin("switch", skey, "switch", "", ev.VTime)
	}

	switch {
	case e.style.IsPassive() && target.AllExecute():
		// Case 1: the primary owes one more checkpoint; backups wait for
		// it before executing (Figure 5, step II case 1).
		e.switching = &switchState{
			id:            ev.Seq,
			target:        target,
			startVT:       ev.VTime,
			awaitingFinal: true,
			oldPrimary:    e.view.Coordinator(),
		}
		if e.synced && e.role() == RolePrimary {
			e.takeCheckpoint(ev.VTime, true, ev.Seq)
		}
	case e.style.AllExecute() && target.IsPassive():
		// Case 2: choose the new primary (deterministically: rank 0) and
		// become passive at this point in the stream; there are no
		// outstanding requests because the stream already ordered them.
		e.style = target
		e.ckptCounter = 0
		e.stats.LastSwitchDelay = 0
		e.notify(Notice{Kind: NoticeSwitchDone, VT: ev.VTime, Delay: 0, Style: e.style})
	default:
		// Executor-to-executor (active/semi-active) and passive-to-
		// passive (warm/cold) switches are instantaneous: no state needs
		// to move, only the reply/checkpoint duties change.
		e.style = target
		e.ckptCounter = 0
		e.notify(Notice{Kind: NoticeSwitchDone, VT: ev.VTime, Delay: 0, Style: e.style})
	}
}

// rateWindow is how many requests' send stamps the arrival rate spans. The
// stamps come off the agreed stream, so every replica computes the same rate
// at the same stream position.
const rateWindow = 32

func (e *Engine) notify(n Notice) {
	if e.cfg.Observer != nil {
		n.Addr = e.Addr()
		e.cfg.Observer(n)
	}
	switch n.Kind {
	case NoticeSwitchStart:
		e.cSwitchStarts.Inc()
	case NoticeSwitchDone:
		if s, ok := e.spans.End("switch", n.VT, ""); ok {
			e.spans.Add(span.NameKey(s.Trace), "switch_done", "", n.VT, n.VT)
		}
		e.cSwitchDones.Inc()
		e.cSwitchDelay.Store(n.Delay.Microseconds())
		e.tr.Event(trace.SubReplication, "switch_done", n.VT, n.Delay.Microseconds())
	}
}

// notePendingCkpts records the high-water number of in-flight checkpoint
// halves (markers or states awaiting their counterpart).
func (e *Engine) notePendingCkpts() {
	e.cPendingCkpts.Max(int64(len(e.pendMarkers) + len(e.pendStates)))
}

// PendingCheckpoints reports how many checkpoint halves are currently
// waiting for their counterpart (0 after Stop).
func (e *Engine) PendingCheckpoints() int {
	var n int
	e.do(func() { n = len(e.pendMarkers) + len(e.pendStates) })
	return n
}
