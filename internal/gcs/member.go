package gcs

import (
	"sync"
	"time"

	"versadep/internal/codec"
	"versadep/internal/detector"
	"versadep/internal/fifo"
	"versadep/internal/trace"
	"versadep/internal/trace/span"
	"versadep/internal/transport"
	"versadep/internal/vtime"
)

// Member is one process's group-communication daemon: the analogue of a
// Spread daemon co-located with the application. All protocol state is
// owned by a single run goroutine; the public API communicates with it
// through a command channel.
type Member struct {
	conn  transport.Conn // ProtoGCS traffic to other members
	xconn transport.Conn // ProtoGroupClient traffic to external clients
	cfg   Config
	rand  *vtime.Rand
	proc  vtime.Server // the daemon's virtual CPU

	directRoom transport.Room // what a SendDirect payload needs around it

	// inbox absorbs transport messages from the endpoint's receiving
	// goroutines.
	inMu     sync.Mutex
	inbox    []transport.Message
	inSpare  []transport.Message // the drained batch, swapped back in by the next drain
	inNotify chan struct{}

	cmds     chan *call
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}

	// trace counters (nil-safe no-ops when Config.Trace is unset).
	tr          *trace.Recorder
	cViews      *trace.Counter
	cHBMisses   *trace.Counter
	cNacks      *trace.Counter
	cRetxDepth  *trace.Counter // high-water retransmit-queue depth
	cRetransmit *trace.Counter
	cPhiMax     *trace.Counter // high-water accrued suspicion, in milliphi
	cMinority   *trace.Counter // proposals withheld for lack of a primary partition
	cGapSkips   *trace.Counter // abandoned client OSeq gaps skipped by the sequencer
	cGroupDrops *trace.Counter // inbound frames dropped for a foreign group id
	spans       *span.Recorder

	// out delivers events to the application through an elastic queue so
	// protocol progress never blocks on a slow consumer.
	outMu     sync.Mutex
	outq      fifo.Queue[Event]
	outNotify chan struct{}
	out       chan Event
	outDone   chan struct{}

	// ---- state below is owned by the run goroutine ----

	names codec.Names // addresses met in decoded frames, each made once

	view      View
	others    []string // the view's members but this one: castData's destinations
	installed bool
	joining   bool
	seedIdx   int
	lastView  *frame // last kView frame, re-sent to confused joiners

	// Agreed: submission side.
	localSeq uint64
	pending  outbox // my unsequenced submissions

	// Agreed: delivery side.
	nextDeliver uint64
	deliverVT   vtime.Time
	holdback    map[uint64]rxFrame
	history     []sequenced       // delivered sequenced frames, for retransmission: slot seq%len
	seenData    map[string]uint64 // origin -> highest OSeq delivered

	// Agreed: sequencer side (when coordinator). seqLocal is the
	// sequencing watermark per origin: it runs ahead of seenData between
	// assigning a sequence number and delivering the sequenced frame, and
	// prevents double-sequencing of duplicate submissions in that window.
	nextSeq  uint64
	seqLocal map[string]uint64
	dataHold map[string]map[uint64]rxFrame // out-of-order submissions
	// dataGapSince marks when an external origin's hold first stalled on a
	// missing OSeq; after DataGapTimeout the sequencer skips the gap.
	dataGapSince map[string]time.Time

	// Reliable direct unicast.
	directOut   map[string]uint64
	directUnack map[string]*outbox
	directIn    dupFilter // inbound direct frames already delivered
	// directSkip is how far the numbering to a member had got when a view
	// excluded it and its unacknowledged frames were dropped. Every later
	// frame to it says so, until it acknowledges past that point: a member
	// that comes back must not wait for the dropped frames.
	directSkip map[string]uint64

	// Acknowledgements not sent yet, because a frame already travelling may
	// carry them or one frame can carry several: ackOwed holds, per peer,
	// the direct frames received and not acknowledged, and dataAckOwed the
	// external origins that have not been told how far their submissions are
	// sequenced. Both are paid by the next tick at the latest.
	ackOwed     map[string]*owedAcks
	dataAckOwed map[string]bool

	// Failure detection. det is nil when the accrual detector is disabled
	// (PhiThreshold <= 0); lastHeard backs the fixed SuspectAfter floor
	// either way.
	lastHeard map[string]time.Time
	suspects  map[string]bool
	// minoritySince marks when the unsuspected survivor set lost primacy
	// (see primaryPartition); zero while primacy holds.
	minoritySince time.Time
	det           *detector.Phi

	// View change.
	blocked      bool
	ackHigh      uint64
	highProposed uint64
	proposal     *proposal
	joinReqs     map[string]bool
	leaveReqs    map[string]bool
	// leaving marks that this member announced its own graceful
	// departure: exclusion from the next view is expected and must not
	// trigger the false-suspicion rejoin path. left, while Leave waits, is
	// closed when that view installs.
	leaving bool
	left    chan struct{}

	now func() time.Time
}

// sequenced is what the history keeps of a delivered sequenced frame (kSeq
// or kView): the bytes to send again and the virtual send instant
// transports stamp them with. One buffer per slot — the frame's decoded
// form is not retained. The history is a ring of up to Config.HistorySize
// slots: sequence numbers are contiguous, so recording seq evicts
// seq-HistorySize by overwriting it, and seq names the slot's tenant. The
// ring starts at historyStart slots and doubles while it would otherwise
// evict early, so a member pays for the stream it has seen, not for the
// whole window at birth.
type sequenced struct {
	seq    uint64
	enc    []byte
	sentVT vtime.Time
}

// rxFrame is a received data frame with its receiver-side virtual timing.
// While a frame is delivered or sequenced straight from its decode, f points
// at the handler's frame; a frame that must wait is held by value in the
// holdback or the sequencer's hold with f pointing at a clone — the one
// allocation holding costs.
type rxFrame struct {
	f   *frame
	vt  vtime.Time
	led vtime.Ledger
}

// proposal tracks an in-flight view change led by this member.
type proposal struct {
	viewID   uint64
	members  []string
	joiners  map[string]bool
	left     []string // old-view members departing gracefully
	ackFrom  map[string]*ackInfo
	need     map[string]bool
	deadline time.Time

	// fetch phase: in progress while fetchWait is not empty
	fetches    map[string]*frame // owner -> its kFetch, until it answers
	fetchWait  map[uint64]bool
	fetchUntil time.Time
	maxSeq     uint64
}

type ackInfo struct {
	high uint64
	held []uint64
}

// Open starts a member daemon. conn carries inter-member traffic and xconn
// carries traffic to external group clients; both usually come from the
// same transport.Demux. The caller must route inbound ProtoGCS messages to
// HandleTransport. With no seeds the member bootstraps a singleton group;
// otherwise it joins through the seeds.
func Open(conn, xconn transport.Conn, cfg Config) *Member {
	if cfg.HBInterval <= 0 {
		cfg = DefaultConfig()
	}
	m := &Member{
		conn:         conn,
		xconn:        xconn,
		cfg:          cfg,
		rand:         vtime.NewRand(cfg.Seed),
		inNotify:     make(chan struct{}, 1),
		cmds:         make(chan *call),
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
		outNotify:    make(chan struct{}, 1),
		out:          make(chan Event),
		outDone:      make(chan struct{}),
		holdback:     make(map[uint64]rxFrame),
		history:      make([]sequenced, max(min(cfg.HistorySize, historyStart), 1)),
		seenData:     make(map[string]uint64),
		seqLocal:     make(map[string]uint64),
		dataHold:     make(map[string]map[uint64]rxFrame),
		dataGapSince: make(map[string]time.Time),
		directOut:    make(map[string]uint64),
		directUnack:  make(map[string]*outbox),
		directIn:     newDupFilter(),
		directSkip:   make(map[string]uint64),
		ackOwed:      make(map[string]*owedAcks),
		dataAckOwed:  make(map[string]bool),
		lastHeard:    make(map[string]time.Time),
		suspects:     make(map[string]bool),
		joinReqs:     make(map[string]bool),
		leaveReqs:    make(map[string]bool),
		now:          time.Now,
	}
	m.directRoom = (&frame{Kind: kDirect, Origin: m.Addr(), Group: cfg.GroupID}).room()
	if cfg.PhiThreshold > 0 {
		// Floor the fitted mean at half a heartbeat period: under load the
		// frame rate is far denser than heartbeats, and the detector must
		// not learn an expectation no idle group can meet.
		m.det = detector.New(detector.DefaultWindow, cfg.HBInterval/2)
	}
	m.tr = cfg.Trace
	m.cViews = cfg.Trace.Counter(trace.SubGCS, "view_changes")
	m.cHBMisses = cfg.Trace.Counter(trace.SubGCS, "heartbeat_misses")
	m.cNacks = cfg.Trace.Counter(trace.SubGCS, "nacks_sent")
	m.cRetxDepth = cfg.Trace.Counter(trace.SubGCS, "retransmit_queue_depth")
	m.cRetransmit = cfg.Trace.Counter(trace.SubGCS, "retransmits")
	m.cPhiMax = cfg.Trace.Counter(trace.SubGCS, "phi_max_millis")
	m.cMinority = cfg.Trace.Counter(trace.SubGCS, "minority_stalls")
	m.cGapSkips = cfg.Trace.Counter(trace.SubGCS, "data_gap_skips")
	m.cGroupDrops = cfg.Trace.Counter(trace.SubGCS, "group_mismatch_drops")
	m.spans = cfg.Trace.Spans()
	if len(cfg.Seeds) == 0 {
		m.installBootstrapView()
	} else {
		m.joining = true
	}
	go m.run()
	go m.pumpOut()
	return m
}

// Addr returns the member's address.
func (m *Member) Addr() string { return m.conn.Addr() }

// Out returns the event stream: messages, view changes and direct
// deliveries. The channel closes when the member stops.
func (m *Member) Out() <-chan Event { return m.out }

// HandleTransport ingests an inbound ProtoGCS transport message. It is safe
// to call from any goroutine and never blocks.
func (m *Member) HandleTransport(msg transport.Message) {
	m.inMu.Lock()
	m.inbox = append(m.inbox, msg)
	m.inMu.Unlock()
	select {
	case m.inNotify <- struct{}{}:
	default:
	}
}

// Stop shuts the daemon down without leaving the group (a crash, from the
// group's perspective). Stop is idempotent and safe from several goroutines;
// every call returns only once shutdown is complete.
func (m *Member) Stop() {
	m.stopOnce.Do(func() { close(m.stop) })
	<-m.done
	<-m.outDone
}

// call is one request to run a function on the protocol goroutine. Call
// records are pooled, so a call from another goroutine allocates only the
// closure it carries.
type call struct {
	fn   func()
	done chan struct{} // buffered 1: run signals it once fn returns
}

var calls = sync.Pool{New: func() any { return &call{done: make(chan struct{}, 1)} }}

// do runs fn on the protocol goroutine and waits for it.
func (m *Member) do(fn func()) error {
	c := calls.Get().(*call)
	c.fn = fn
	var err error
	select {
	case m.cmds <- c:
		<-c.done
	case <-m.stop:
		err = ErrStopped
	}
	c.fn = nil
	calls.Put(c)
	return err
}

// View returns the currently installed view.
func (m *Member) View() (View, error) {
	var v View
	var ok bool
	if err := m.do(func() { v, ok = m.view, m.installed }); err != nil {
		return View{}, err
	}
	if !ok {
		return View{}, ErrNoView
	}
	return v, nil
}

// Multicast sends payload to the group in the agreed total order. lvl must
// be Agreed (ErrServiceLevel otherwise). sentAt is the caller's virtual
// time and led carries costs already charged by upper layers. The message
// survives sequencer crashes: it is retransmitted and resubmitted across
// view changes until it is sequenced.
//
// The member takes ownership of payload without copying it: the caller
// may keep the slice and read it, but nobody writes to it again (see
// transport.Message.Payload). The same slice is what local delivery hands
// back in Event.Payload.
func (m *Member) Multicast(payload []byte, lvl ServiceLevel, sentAt vtime.Time, led vtime.Ledger) error {
	if lvl != Agreed {
		return ErrServiceLevel
	}
	return m.do(func() { m.multicastLocked(payload, sentAt, led) })
}

// DirectRoom is the room a SendDirect payload needs around it to be framed
// and sealed in place.
func (m *Member) DirectRoom() transport.Room { return m.directRoom }

// SendDirect reliably delivers payload to an external group client at the
// given address. Delivery is at-least-once with receiver-side duplicate
// suppression. The member frames payload in the room around it (see
// DirectRoom) and takes ownership of both: immutable from here on, and a
// second send of the same message is a Clone (see transport.Buf).
func (m *Member) SendDirect(to string, payload transport.Buf, sentAt vtime.Time, led vtime.Ledger) error {
	return m.do(func() { m.sendDirectLocked(to, payload, sentAt, led) })
}

// Leave announces a graceful departure and stops the daemon. The
// announcement goes to every member (so it survives a coordinator crash),
// and Leave waits — bounded — until a view excluding this member installs:
// the departure is then recorded in the view's Left annotation rather than
// detected as a crash. A leaving coordinator proposes its own exclusion.
func (m *Member) Leave() {
	left := make(chan struct{})
	err := m.do(func() {
		m.leaving = true
		if !m.installed {
			close(left)
			return
		}
		m.left = left
		f := &frame{Kind: kLeave, Origin: m.Addr()}
		for _, mm := range m.view.Members {
			if mm == m.Addr() {
				m.handleFrame(transport.Message{From: mm, To: mm}, f)
			} else {
				m.sendControl(mm, f)
			}
		}
	})
	if err == nil {
		select {
		case <-left:
		case <-m.done:
		case <-time.After(6 * m.cfg.HBInterval):
		}
	}
	m.Stop()
}

// ---- run loop ----

func (m *Member) run() {
	defer close(m.done)
	ticker := time.NewTicker(m.cfg.HBInterval)
	defer ticker.Stop()
	for {
		select {
		case <-m.stop:
			return
		case c := <-m.cmds:
			c.fn()
			c.done <- struct{}{}
		case <-m.inNotify:
			m.drainInbox()
		case <-ticker.C:
			m.tick()
		}
	}
}

func (m *Member) drainInbox() {
	for {
		m.inMu.Lock()
		if len(m.inbox) == 0 {
			m.inMu.Unlock()
			return
		}
		batch := m.inbox
		m.inbox, m.inSpare = m.inSpare, nil
		m.inMu.Unlock()
		for _, msg := range batch {
			m.handleMessage(msg)
		}
		clear(batch) // the spare must not pin the payloads it carried
		m.inSpare = batch[:0]
	}
}

// ---- output queue ----

func (m *Member) emit(e Event) {
	m.outMu.Lock()
	m.outq.Push(e)
	m.outMu.Unlock()
	select {
	case m.outNotify <- struct{}{}:
	default:
	}
}

func (m *Member) pumpOut() {
	defer close(m.outDone)
	defer close(m.out)
	for {
		m.outMu.Lock()
		e, have := m.outq.Pop()
		m.outMu.Unlock()
		if !have {
			select {
			case <-m.outNotify:
				continue
			case <-m.stop:
				return
			}
		}
		select {
		case m.out <- e:
		case <-m.stop:
			return
		}
	}
}

// ---- sending helpers ----

// Every wire send goes through the helpers below: they seal the frame on
// its first transmission (stamping the member's group id; loopback
// deliveries skip encoding entirely, and the group check only runs at
// decode time, so they need no stamp), send the retained bytes on every
// later one, and note the send instant for retransmission pacing.

func (m *Member) sendControl(to string, f *frame) {
	if to == "" || to == m.Addr() {
		if to == m.Addr() {
			m.handleFrame(transport.Message{From: to, To: to}, f)
		}
		return
	}
	f.lastSend = m.now()
	_ = m.conn.SendControl(to, f.sealed(m.conn, m.cfg.GroupID), f.SentVT)
}

func (m *Member) sendData(to string, f *frame) {
	if to == m.Addr() {
		m.handleFrame(transport.Message{From: to, To: to, SentAt: f.SentVT, ArriveAt: f.SentVT}, f)
		return
	}
	f.lastSend = m.now()
	_ = m.conn.Send(to, f.sealed(m.conn, m.cfg.GroupID), f.SentVT)
}

// castData multicasts a data frame to all view members: the others first,
// then self via loopback, which costs no wire time.
func (m *Member) castData(f *frame) {
	if len(m.others) > 0 {
		f.lastSend = m.now()
		_ = m.conn.SendMulticast(m.others, f.sealed(m.conn, m.cfg.GroupID), f.SentVT)
	}
	if len(m.others) < len(m.view.Members) {
		m.handleFrame(transport.Message{From: m.Addr(), To: m.Addr(), SentAt: f.SentVT, ArriveAt: f.SentVT}, f)
	}
}

// historyAt returns the retained frame with sequence number seq, if the
// history still holds it.
func (m *Member) historyAt(seq uint64) (sequenced, bool) {
	h := m.history[seq%uint64(len(m.history))]
	return h, h.seq == seq && h.enc != nil
}

// historyStart is how many slots the history ring is born with.
const historyStart = 64

// recordHistory retains a delivered sequenced frame for retransmission,
// doubling the ring first if it is still short of HistorySize and the
// frame's slot holds another.
func (m *Member) recordHistory(f *frame) {
	if n := len(m.history); n < m.cfg.HistorySize {
		if tenant := m.history[f.Seq%uint64(n)]; tenant.enc != nil && tenant.seq != f.Seq {
			grown := make([]sequenced, min(2*n, m.cfg.HistorySize))
			for _, h := range m.history {
				// After a joiner's jump two tenants can meet: the newer stays.
				if g := &grown[h.seq%uint64(len(grown))]; h.enc != nil && h.seq >= g.seq {
					*g = h
				}
			}
			m.history = grown
		}
	}
	m.history[f.Seq%uint64(len(m.history))] = sequenced{seq: f.Seq, enc: f.encoded(m.cfg.GroupID), sentVT: f.SentVT}
}

// resend retransmits sequenced frame seq to a member that lacks it, from the
// history or, not delivered yet, the holdback.
func (m *Member) resend(to string, seq uint64) {
	if h, ok := m.historyAt(seq); ok {
		_ = m.conn.SendControl(to, sealEncoded(m.conn, h.enc), h.sentVT)
	} else if rf, ok := m.holdback[seq]; ok {
		m.sendControl(to, rf.f)
	}
}

// sendExternal routes a frame to an external (non-member) address.
func (m *Member) sendExternal(to string, f *frame, control bool) {
	f.lastSend = m.now()
	wire := f.sealed(m.xconn, m.cfg.GroupID)
	if control {
		_ = m.xconn.SendControl(to, wire, f.SentVT)
		return
	}
	_ = m.xconn.Send(to, wire, f.SentVT)
}

func (m *Member) isExternal(addr string) bool {
	return !m.view.Contains(addr) && addr != m.Addr()
}

// ---- bootstrap & view installation ----

func (m *Member) installBootstrapView() {
	m.view = View{ID: 1, Members: []string{m.Addr()}}
	m.installed = true
	m.nextDeliver = 1
	m.nextSeq = 1
	m.lastView = &frame{Kind: kView, ViewID: 1, Seq: 0, Members: []string{m.Addr()}}
	m.resetPerViewState()
	m.cViews.Inc()
	m.tr.Event(trace.SubGCS, "view_change", m.deliverVT, int64(m.view.ID))
	m.emit(Event{Kind: EventView, View: m.view, Seq: 0, VTime: m.deliverVT})
}

func (m *Member) resetPerViewState() {
	nowT := m.now()
	// A fresh slice per view: a transport does not retain tos (see
	// transport.Conn), and one that did would still see the old view.
	m.others = make([]string, 0, len(m.view.Members))
	for _, mm := range m.view.Members {
		if mm != m.Addr() {
			m.others = append(m.others, mm)
		}
	}
	if m.det != nil {
		// Departed peers take their interval history with them: a peer
		// that later rejoins under the same name is a fresh incarnation
		// and must not inherit the silence gap of its previous life.
		for peer := range m.lastHeard {
			if !m.view.Contains(peer) {
				m.det.Forget(peer)
			}
		}
	}
	m.lastHeard = make(map[string]time.Time)
	for _, mm := range m.view.Members {
		m.lastHeard[mm] = nowT
	}
	for s := range m.suspects {
		if !m.view.Contains(s) {
			delete(m.suspects, s)
		}
	}
	// A new view restarts the primacy clock: grace is measured against the
	// membership that lost it, not carried across installs.
	m.minoritySince = time.Time{}
}

// Suspects returns the members this daemon currently suspects crashed.
func (m *Member) Suspects() []string {
	var out []string
	_ = m.do(func() {
		for s, v := range m.suspects {
			if v {
				out = append(out, s)
			}
		}
	})
	return out
}

// PhiSnapshot returns every tracked peer's current accrued suspicion
// level, or nil when the accrual detector is disabled.
func (m *Member) PhiSnapshot() map[string]float64 {
	if m.det == nil {
		return nil
	}
	return m.det.Snapshot(m.now())
}
