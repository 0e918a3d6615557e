package gcs

import (
	"sort"
	"time"

	"versadep/internal/trace"
	"versadep/internal/trace/span"
	"versadep/internal/transport"
	"versadep/internal/vtime"
)

// spanFor maps a payload to its causal-trace key; the zero Key disables
// spanning for that frame (recording off, no extractor, or no request
// identity).
func (m *Member) spanFor(payload []byte) span.Key {
	if !m.spans.On() || m.cfg.SpanKey == nil {
		return span.Key{}
	}
	return m.cfg.SpanKey(payload)
}

// rxSpanName labels a receive span by frame kind, so a request timeline
// distinguishes the sequencer receiving a submission (gc_recv_submit)
// from replicas receiving the ordered broadcast (gc_recv_agreed).
func rxSpanName(k frameKind) string {
	switch k {
	case kData:
		return "gc_recv_submit"
	case kSeq:
		return "gc_recv_agreed"
	case kFifo:
		return "gc_recv_fifo"
	case kCausal:
		return "gc_recv_causal"
	case kBE:
		return "gc_recv_besteffort"
	case kDirect:
		return "gc_recv_direct"
	default:
		return "gc_recv"
	}
}

// ---- submission paths ----

func (m *Member) multicastLocked(payload []byte, lvl ServiceLevel, sentAt vtime.Time, led vtime.Ledger) {
	// The daemon charges its per-crossing cost on the sending side
	// (jittered: daemon scheduling noise is a real contributor to the
	// paper's error bars).
	cost := m.cfg.Model.Jitter(m.cfg.Model.GCSend, m.rand.Float64())
	vt := m.proc.Execute(sentAt, cost)
	led.Charge(vtime.ComponentGC, cost)
	if key := m.spanFor(payload); !key.IsZero() {
		m.spans.Add(key, "gc_send", span.CompGC, vt.Add(-cost), vt)
	}

	switch lvl {
	case Agreed:
		m.localSeq++
		f := &frame{
			Kind:    kData,
			Origin:  m.Addr(),
			OSeq:    m.localSeq,
			Level:   Agreed,
			SentVT:  vt,
			Ledger:  led,
			Payload: payload,
		}
		m.pending[f.OSeq] = f
		m.pendOrder = append(m.pendOrder, f.OSeq)
		if m.installed && !m.blocked {
			m.sendData(m.currentSequencer(), f)
		}
	case FIFO:
		m.fifoOut++
		f := &frame{
			Kind:    kFifo,
			ViewID:  m.view.ID,
			Origin:  m.Addr(),
			OSeq:    m.fifoOut,
			Level:   FIFO,
			SentVT:  vt,
			Ledger:  led,
			Payload: payload,
		}
		m.fifoSent[f.OSeq] = f
		m.castData(f)
	case Causal:
		m.vc[m.Addr()]++
		f := &frame{
			Kind:    kCausal,
			ViewID:  m.view.ID,
			Origin:  m.Addr(),
			OSeq:    m.vc[m.Addr()],
			Level:   Causal,
			SentVT:  vt,
			Ledger:  led,
			Seqs:    m.vcSnapshot(),
			Payload: payload,
		}
		m.causalSent[f.OSeq] = f
		// The sender's own vector entry already advanced, so the message
		// is delivered locally at once and multicast to the others only
		// (running it through the receive path would double-count).
		m.castDataOthers(f)
		dvt := vt.Max(m.deliverVT)
		m.deliverVT = dvt
		m.emit(Event{
			Kind:    EventMessage,
			Sender:  m.Addr(),
			Payload: f.Payload,
			Level:   Causal,
			View:    m.view,
			VTime:   dvt,
			SentVT:  vt,
			Ledger:  led,
		})
	default: // BestEffort
		f := &frame{
			Kind:    kBE,
			ViewID:  m.view.ID,
			Origin:  m.Addr(),
			Level:   BestEffort,
			SentVT:  vt,
			Ledger:  led,
			Payload: payload,
		}
		m.castData(f)
	}
}

// vcSnapshot serializes the vector clock aligned with view membership
// order.
func (m *Member) vcSnapshot() []uint64 {
	out := make([]uint64, len(m.view.Members))
	for i, mm := range m.view.Members {
		out[i] = m.vc[mm]
	}
	return out
}

func (m *Member) sendDirectLocked(to string, payload transport.Buf, sentAt vtime.Time, led vtime.Ledger) {
	cost := m.cfg.Model.Jitter(m.cfg.Model.GCSend, m.rand.Float64())
	vt := m.proc.Execute(sentAt, cost)
	led.Charge(vtime.ComponentGC, cost)
	if key := m.spanFor(payload.Bytes()); !key.IsZero() {
		m.spans.Add(key, "gc_send_direct", span.CompGC, vt.Add(-cost), vt)
	}
	m.directOut[to]++
	// Seq is how far to's own submissions are sequenced — what a kDataAck
	// would tell it. Only an external client reads it, and only a member
	// reads ViewID: how much of this stream it is to stop waiting for.
	f := &frame{
		Kind:    kDirect,
		ViewID:  m.directSkip[to],
		Seq:     m.seenData[to],
		Origin:  m.Addr(),
		OSeq:    m.directOut[to],
		SentVT:  vt,
		Ledger:  led,
		Payload: payload.Bytes(),
	}
	if m.directUnack[to] == nil {
		m.directUnack[to] = make(map[uint64]*frame)
	}
	m.directUnack[to][f.OSeq] = f
	if m.dataAckOwed[to] && f.Seq >= m.seqLocal[to] {
		delete(m.dataAckOwed, to) // this frame says it all
	}
	f.sealAround(m.xconn, m.cfg.GroupID, payload)
	m.sendExternal(to, f, false)
}

// currentSequencer is the coordinator of the installed view, or the highest
// proposer while blocked.
func (m *Member) currentSequencer() string {
	return m.view.Coordinator()
}

// ---- inbound dispatch ----

func (m *Member) handleMessage(msg transport.Message) {
	f, err := decodeFrame(msg.Payload, &m.names)
	if err != nil {
		return // corrupt frame: drop, retransmission recovers
	}
	if f.Group != m.cfg.GroupID {
		// Another shard's group sharing the transport: not ours. Only the
		// wire path is checked — loopback frames never carry a stamp.
		m.cGroupDrops.Inc()
		return
	}
	m.handleFrame(msg, f)
}

func (m *Member) handleFrame(msg transport.Message, f *frame) {
	if msg.From != "" {
		nowT := m.now()
		m.lastHeard[msg.From] = nowT
		// Loopback frames are not evidence about the network: a member
		// does not monitor itself.
		if m.det != nil && msg.From != m.Addr() {
			m.det.Heartbeat(msg.From, nowT)
		}
		// Renewed contact rescinds suspicion while no exclusion is in
		// flight: a healed partition un-stalls both sides instead of
		// leaving them deadlocked on stale verdicts.
		if m.suspects[msg.From] && m.proposal == nil {
			delete(m.suspects, msg.From)
			m.tr.Event(trace.SubGCS, "unsuspect", m.deliverVT, int64(m.view.ID))
		}
	}
	switch f.Kind {
	case kHB:
		m.handleHeartbeat(msg.From, f)
	case kJoin:
		m.handleJoin(f)
	case kLeave:
		// Every member records the announced departure (not just the duty
		// holder): if the coordinator crashes before acting on it, the
		// next proposer still excludes the leaver gracefully, and the
		// leaver itself may hold duty (it proposes its own exclusion).
		if m.installed {
			m.leaveReqs[f.Origin] = true
			m.maybePropose()
		}
	case kData:
		m.handleData(msg, f)
	case kSeq, kView:
		m.handleSequenced(msg, f)
	case kNack:
		m.handleNack(msg.From, f)
	case kFifo:
		m.handleFifo(msg, f)
	case kFifoNack:
		m.handleFifoNack(msg.From, f)
	case kCausal:
		m.handleCausal(msg, f)
	case kBE:
		m.handleBestEffort(msg, f)
	case kPrepare:
		m.handlePrepare(msg.From, f)
	case kPrepareAck:
		m.handlePrepareAck(msg.From, f)
	case kFetch:
		m.handleFetch(msg.From, f)
	case kFetchResp:
		m.handleFetchResp(f)
	case kDirect:
		m.handleDirect(msg, f)
	case kDirectAck:
		m.handleDirectAck(msg.From, f)
	}
}

// rx computes receiver-side timing and ledger for a data frame.
func (m *Member) rx(msg transport.Message, f *frame, extra vtime.Duration) *rxFrame {
	led := f.Ledger
	arrive := msg.ArriveAt
	var wire vtime.Duration
	if msg.SentAt == f.SentVT && msg.ArriveAt >= msg.SentAt {
		wire = msg.ArriveAt.Sub(msg.SentAt)
	} else {
		// Retransmission or locally re-injected frame: charge a nominal
		// wire time from the original virtual send instant.
		wire = m.cfg.Model.Transmit(len(f.Payload) + 64)
		arrive = f.SentVT.Add(wire)
	}
	led.Charge(vtime.ComponentGC, wire)
	cost := m.cfg.Model.Jitter(m.cfg.Model.GCSend, m.rand.Float64()) + extra
	vt := m.proc.Execute(arrive, cost)
	led.Charge(vtime.ComponentGC, cost)
	if key := m.spanFor(f.Payload); !key.IsZero() {
		// One receive span per frame covering exactly what this hop
		// charged: wire transit plus the daemon's receive crossing.
		m.spans.Add(key, rxSpanName(f.Kind), span.CompGC, vt.Add(-(wire + cost)), vt)
	}
	return &rxFrame{f: f, vt: vt, led: led}
}

// ---- join handling ----

func (m *Member) handleJoin(f *frame) {
	if !m.installed {
		return
	}
	if m.view.Contains(f.Origin) {
		// The joiner is already in the view but apparently missed the
		// installation; re-send it.
		if m.lastView != nil {
			m.sendControl(f.Origin, m.lastView)
		}
		return
	}
	if !m.isCoordinatorDuty() {
		m.sendControl(m.view.Coordinator(), f)
		return
	}
	m.joinReqs[f.Origin] = true
	m.maybePropose()
}

// isCoordinatorDuty reports whether this member should act as coordinator:
// it is the lowest-ranked member it does not suspect.
func (m *Member) isCoordinatorDuty() bool {
	if !m.installed {
		return false
	}
	for _, mm := range m.view.Members {
		if mm == m.Addr() {
			return true
		}
		if !m.suspects[mm] {
			return false
		}
	}
	return false
}

// ---- agreed path: sequencer ----

func (m *Member) handleData(msg transport.Message, f *frame) {
	if !m.installed {
		return
	}
	if !m.isCoordinatorDuty() {
		// Misdirected submission (stale coordinator hint): forward, and
		// if it came from an external client, teach it the membership.
		m.sendControl(m.view.Coordinator(), f)
		if m.isExternal(f.Origin) {
			hint := &frame{Kind: kViewHint, ViewID: m.view.ID, Members: m.view.Members}
			m.sendExternal(f.Origin, hint, true)
		}
		return
	}
	if f.OSeq <= m.effectiveSeen(f.Origin) {
		// Duplicate: the origin is timing out, so tell it now.
		if m.isExternal(f.Origin) {
			m.payDataAck(f.Origin)
		}
		return
	}
	hold := m.dataHold[f.Origin]
	if hold == nil {
		hold = make(map[uint64]*rxFrame)
		m.dataHold[f.Origin] = hold
	}
	if _, dup := hold[f.OSeq]; !dup {
		hold[f.OSeq] = m.rx(msg, f, 0)
	}
	m.sequenceReady(f.Origin)
}

// effectiveSeen is the sequencer's dedup watermark for an origin: the later
// of what it has delivered and what it has already assigned.
func (m *Member) effectiveSeen(origin string) uint64 {
	seen := m.seenData[origin]
	if l := m.seqLocal[origin]; l > seen {
		seen = l
	}
	return seen
}

// sequenceReady assigns sequence numbers to contiguous held submissions
// from origin.
func (m *Member) sequenceReady(origin string) {
	if m.blocked || !m.installed {
		return
	}
	if !m.primaryPartition() {
		// A minority-side sequencer must not order new submissions: replies
		// would acknowledge requests the primary partition never saw.
		// Submissions stay buffered in dataHold and sequence after contact
		// resumes (or die with this fragment when it rejoins).
		return
	}
	hold := m.dataHold[origin]
	// Drop stale buffered submissions that were sequenced meanwhile.
	for oseq := range hold {
		if oseq <= m.effectiveSeen(origin) {
			delete(hold, oseq)
		}
	}
	m.maybeSkipDataGap(origin, hold)
	for {
		next := m.effectiveSeen(origin) + 1
		rf, ok := hold[next]
		if !ok {
			return
		}
		delete(hold, next)
		f := rf.f
		// The sequencer charges its ordering cost on its virtual CPU.
		vt := m.proc.Execute(rf.vt, m.cfg.Model.GCOrder)
		led := rf.led
		led.Charge(vtime.ComponentGC, m.cfg.Model.GCOrder)
		if key := m.spanFor(f.Payload); !key.IsZero() {
			m.spans.Add(key, "gc_order", span.CompGC, vt.Add(-m.cfg.Model.GCOrder), vt)
		}
		sf := &frame{
			Kind:    kSeq,
			ViewID:  m.view.ID,
			Seq:     m.nextSeq,
			Origin:  f.Origin,
			OSeq:    f.OSeq,
			Level:   Agreed,
			SentVT:  vt,
			Ledger:  led,
			Payload: f.Payload,
		}
		m.nextSeq++
		m.seqLocal[f.Origin] = f.OSeq
		if m.isExternal(f.Origin) {
			m.dataAckOwed[f.Origin] = true
		}
		m.castData(sf)
	}
}

// maybeSkipDataGap unwedges an external origin whose hold is stalled on a
// missing OSeq. The gap is permanent when a prior coordinator acked the
// missing submission (so the client stopped resending it) but its
// sequencing did not survive the view change. The client retransmits every
// pending frame each ResendInterval, so a gap that persists for
// DataGapTimeout will never fill: advance the dedup watermark to just
// below the lowest held OSeq and let the upper layer's request-id retries
// re-carry whatever the lost submission held. Member origins keep strict
// FIFO — they resend until kSeq delivery, so their gaps always fill.
func (m *Member) maybeSkipDataGap(origin string, hold map[uint64]*rxFrame) {
	if m.cfg.DataGapTimeout <= 0 || !m.isExternal(origin) {
		return
	}
	if len(hold) == 0 {
		delete(m.dataGapSince, origin)
		return
	}
	next := m.effectiveSeen(origin) + 1
	if _, ok := hold[next]; ok {
		delete(m.dataGapSince, origin)
		return
	}
	since, stalled := m.dataGapSince[origin]
	if !stalled {
		m.dataGapSince[origin] = m.now()
		return
	}
	if m.now().Sub(since) < m.cfg.DataGapTimeout {
		return
	}
	lowest := uint64(0)
	for oseq := range hold {
		if lowest == 0 || oseq < lowest {
			lowest = oseq
		}
	}
	m.seenData[origin] = lowest - 1
	delete(m.dataGapSince, origin)
	m.cGapSkips.Inc()
	m.tr.Event(trace.SubGCS, "data_gap_skip", m.deliverVT, int64(lowest-next))
}

// payDataAck tells an external origin how far its submissions have been
// sequenced, so it stops retransmitting them. Members learn implicitly (they
// receive the kSeq); an external client learns from the Seq of the next
// kDirect sent to it — normally the reply to the very request — and needs
// this explicit control frame only when none leaves before the next tick, or
// when a duplicate submission shows it is already timing out. One frame
// covers every submission so far: an origin's submissions are sequenced in
// OSeq order.
func (m *Member) payDataAck(origin string) {
	delete(m.dataAckOwed, origin)
	ack := &frame{Kind: kDataAck, Origin: m.Addr(), OSeq: m.effectiveSeen(origin)}
	m.sendExternal(origin, ack, true)
}

// ---- agreed path: delivery ----

func (m *Member) handleSequenced(msg transport.Message, f *frame) {
	if f.Kind == kView {
		m.handleViewFrame(msg, f)
		return
	}
	if !m.installed {
		return
	}
	if f.Seq < m.nextDeliver {
		return // duplicate
	}
	if _, dup := m.holdback[f.Seq]; dup {
		return
	}
	m.holdback[f.Seq] = m.rx(msg, f, 0)
	m.drainHoldback()
}

// drainHoldback delivers contiguous sequenced frames, including view
// installations embedded in the stream.
func (m *Member) drainHoldback() {
	if m.blocked {
		// Flush in progress: ordinary delivery pauses so every survivor
		// freezes at its acknowledged snapshot (virtual synchrony). The
		// only progress allowed is toward a held view installation, fed
		// by the proposer's retransmissions.
		m.tryInstallHeldView()
		return
	}
	for {
		rf, ok := m.holdback[m.nextDeliver]
		if !ok {
			m.maybeNack()
			return
		}
		delete(m.holdback, m.nextDeliver)
		// Advance the watermark before delivering: delivery can reenter
		// (a view installation sequences resubmitted traffic), and the
		// reentrant path must see a consistent frontier.
		m.nextDeliver++
		m.deliverSequenced(rf)
	}
}

func (m *Member) deliverSequenced(rf *rxFrame) {
	f := rf.f
	m.recordHistory(f)
	if f.Kind == kView {
		m.installView(f)
		return
	}
	if f.Origin == "" {
		return // recovery no-op filler
	}
	if f.OSeq > m.seenData[f.Origin] {
		m.seenData[f.Origin] = f.OSeq
	}
	if f.Origin == m.Addr() {
		delete(m.pending, f.OSeq)
	}
	m.deliverMessage(rf, Agreed, f.Seq)
}

// deliverMessage hands rf up at level, at the later of its arrival and the
// previous delivery: delivery instants never go backwards.
func (m *Member) deliverMessage(rf *rxFrame, level ServiceLevel, seq uint64) {
	m.deliverVT = rf.vt.Max(m.deliverVT)
	m.emit(Event{
		Kind:    EventMessage,
		Sender:  rf.f.Origin,
		Payload: rf.f.Payload,
		Level:   level,
		Seq:     seq,
		View:    m.view,
		VTime:   m.deliverVT,
		SentVT:  rf.f.SentVT,
		Ledger:  rf.led,
	})
}

// maybeNack requests retransmission of the gap below the lowest held frame.
func (m *Member) maybeNack() {
	if len(m.holdback) == 0 || m.blocked {
		return
	}
	low := uint64(0)
	for s := range m.holdback {
		if low == 0 || s < low {
			low = s
		}
	}
	if low <= m.nextDeliver {
		return
	}
	missing := make([]uint64, 0, 32)
	for s := m.nextDeliver; s < low && len(missing) < 64; s++ {
		missing = append(missing, s)
	}
	nack := &frame{Kind: kNack, Origin: m.Addr(), Seqs: missing}
	m.cNacks.Inc()
	m.sendControl(m.view.Coordinator(), nack)
}

func (m *Member) handleNack(from string, f *frame) {
	for _, s := range f.Seqs {
		if h, ok := m.historyAt(s); ok {
			m.resend(from, h)
		} else if rf, ok := m.holdback[s]; ok {
			m.sendControl(from, rf.f)
		}
	}
}

// ---- FIFO path ----

func (m *Member) handleFifo(msg transport.Message, f *frame) {
	if !m.installed || f.ViewID != m.view.ID {
		return
	}
	exp := m.fifoExp[f.Origin] + 1
	if f.OSeq < exp {
		return // duplicate
	}
	hold := m.fifoHold[f.Origin]
	if hold == nil {
		hold = make(map[uint64]*rxFrame)
		m.fifoHold[f.Origin] = hold
	}
	if _, dup := hold[f.OSeq]; !dup {
		hold[f.OSeq] = m.rx(msg, f, 0)
	}
	for {
		exp = m.fifoExp[f.Origin] + 1
		rf, ok := hold[exp]
		if !ok {
			break
		}
		delete(hold, exp)
		m.fifoExp[f.Origin] = exp
		m.deliverMessage(rf, FIFO, 0)
	}
	m.nackFifoGap(f.Origin)
}

func (m *Member) nackFifoGap(origin string) {
	hold := m.fifoHold[origin]
	if len(hold) == 0 || origin == m.Addr() {
		return
	}
	low := uint64(0)
	for s := range hold {
		if low == 0 || s < low {
			low = s
		}
	}
	exp := m.fifoExp[origin] + 1
	if low <= exp {
		return
	}
	missing := make([]uint64, 0, 32)
	for s := exp; s < low && len(missing) < 64; s++ {
		missing = append(missing, s)
	}
	m.sendControl(origin, &frame{Kind: kFifoNack, Origin: m.Addr(), Seqs: missing})
}

func (m *Member) handleFifoNack(from string, f *frame) {
	sent := m.fifoSent
	if f.Level == Causal {
		sent = m.causalSent
	}
	for _, s := range f.Seqs {
		if sf, ok := sent[s]; ok {
			m.sendControl(from, sf)
		}
	}
}

// handleHeartbeat detects tail losses: heartbeats carry the sender's FIFO
// and causal frontiers so a receiver notices a dropped final message even
// when no later message reveals the gap.
func (m *Member) handleHeartbeat(from string, f *frame) {
	if !m.installed || from == m.Addr() {
		return
	}
	if f.ViewID < m.view.ID {
		// The sender is behind — stalled in a superseded view (it missed
		// the installation, or sat out a partition on the minority side).
		// Teach it the current view: an excluded member discovers its
		// exclusion and rejoins as a fresh incarnation.
		if m.lastView != nil {
			m.sendControl(from, m.lastView)
		}
		return
	}
	if f.ViewID != m.view.ID {
		return
	}
	// Agreed tail gap: the peer has delivered beyond our frontier.
	if f.Seq >= m.nextDeliver && !m.blocked {
		missing := make([]uint64, 0, 16)
		for s := m.nextDeliver; s <= f.Seq && len(missing) < 64; s++ {
			if _, held := m.holdback[s]; !held {
				missing = append(missing, s)
			}
		}
		if len(missing) > 0 {
			m.cNacks.Inc()
			m.sendControl(m.view.Coordinator(), &frame{Kind: kNack, Origin: m.Addr(), Seqs: missing})
		}
	}
	// FIFO tail gap.
	if f.OSeq > m.fifoExp[from] {
		hold := m.fifoHold[from]
		missing := make([]uint64, 0, 16)
		for s := m.fifoExp[from] + 1; s <= f.OSeq && len(missing) < 64; s++ {
			if hold != nil {
				if _, ok := hold[s]; ok {
					continue
				}
			}
			missing = append(missing, s)
		}
		if len(missing) > 0 {
			m.sendControl(from, &frame{Kind: kFifoNack, Origin: m.Addr(), Seqs: missing})
		}
	}
	// Causal tail gap: the sender's own vector entry tells us how many of
	// its causal messages exist.
	rank := m.view.Rank(from)
	if rank >= 0 && rank < len(f.Seqs) && f.Seqs[rank] > m.vc[from] {
		missing := make([]uint64, 0, 16)
	causalScan:
		for s := m.vc[from] + 1; s <= f.Seqs[rank] && len(missing) < 64; s++ {
			for _, rf := range m.causalHold {
				if rf.f.Origin == from && rf.f.OSeq == s {
					continue causalScan
				}
			}
			missing = append(missing, s)
		}
		if len(missing) > 0 {
			m.sendControl(from, &frame{Kind: kFifoNack, Origin: m.Addr(), Seqs: missing, Level: Causal})
		}
	}
}

// ---- causal path ----

func (m *Member) handleCausal(msg transport.Message, f *frame) {
	if !m.installed || f.ViewID != m.view.ID {
		return
	}
	if f.OSeq <= m.vc[f.Origin] {
		return // duplicate
	}
	for _, held := range m.causalHold {
		if held.f.Origin == f.Origin && held.f.OSeq == f.OSeq {
			return
		}
	}
	m.causalHold = append(m.causalHold, m.rx(msg, f, 0))
	m.drainCausal()
}

// causallyReady reports whether f's vector clock is satisfied locally.
func (m *Member) causallyReady(f *frame) bool {
	if len(f.Seqs) != len(m.view.Members) {
		return false
	}
	for i, mm := range m.view.Members {
		want := f.Seqs[i]
		if mm == f.Origin {
			if m.vc[mm]+1 != want {
				return false
			}
			continue
		}
		if m.vc[mm] < want {
			return false
		}
	}
	return true
}

func (m *Member) drainCausal() {
	for {
		progressed := false
		for i, rf := range m.causalHold {
			if !m.causallyReady(rf.f) {
				continue
			}
			m.causalHold = append(m.causalHold[:i], m.causalHold[i+1:]...)
			m.vc[rf.f.Origin] = rf.f.OSeq
			m.deliverMessage(rf, Causal, 0)
			progressed = true
			break
		}
		if !progressed {
			return
		}
	}
}

// nackCausalGaps periodically requests missing causal predecessors.
func (m *Member) nackCausalGaps() {
	if len(m.causalHold) == 0 {
		return
	}
	// For every held frame, ask each origin for the slots we lack.
	needed := make(map[string]map[uint64]bool)
	for _, rf := range m.causalHold {
		for i, mm := range m.view.Members {
			if mm == m.Addr() || i >= len(rf.f.Seqs) {
				continue
			}
			want := rf.f.Seqs[i]
			for s := m.vc[mm] + 1; s <= want && s <= m.vc[mm]+32; s++ {
				if needed[mm] == nil {
					needed[mm] = make(map[uint64]bool)
				}
				needed[mm][s] = true
			}
		}
	}
	for origin, set := range needed {
		seqs := make([]uint64, 0, len(set))
		for s := range set {
			seqs = append(seqs, s)
		}
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		m.sendControl(origin, &frame{Kind: kFifoNack, Origin: m.Addr(), Seqs: seqs, Level: Causal})
	}
}

// ---- best effort ----

func (m *Member) handleBestEffort(msg transport.Message, f *frame) {
	if !m.installed || f.ViewID != m.view.ID {
		return
	}
	m.deliverMessage(m.rx(msg, f, 0), BestEffort, 0)
}

// ---- reliable direct unicast (to external clients and between members) ----

func (m *Member) handleDirect(msg transport.Message, f *frame) {
	m.directIn.skipTo(f.Origin, f.ViewID)
	dup := m.directIn.seen(f.Origin, f.OSeq)
	owed := m.ackOwed[f.Origin]
	if owed == nil {
		owed = &owedAcks{}
		m.ackOwed[f.Origin] = owed
	}
	// A duplicate means the sender is retransmitting: its ack was lost or
	// is late, and waiting for the tick would cost another round.
	if owed.add(f.OSeq, len(f.Payload)) || dup {
		m.payDirectAcks(f.Origin, owed)
	}
	if dup {
		return
	}
	rf := m.rx(msg, f, 0)
	vt := rf.vt.Max(m.deliverVT)
	m.deliverVT = vt
	m.emit(Event{
		Kind:    EventDirect,
		Sender:  f.Origin,
		Payload: f.Payload,
		VTime:   vt,
		SentVT:  f.SentVT,
		Ledger:  rf.led,
	})
}

// payDirectAcks acknowledges every direct frame owed to peer with one
// frame: the contiguous watermark of what has arrived from it, and the owed
// frames above that one by one (arrivals past a gap).
func (m *Member) payDirectAcks(peer string, owed *owedAcks) {
	high := m.directIn.high[peer]
	ack := &frame{Kind: kDirectAck, Origin: m.Addr(), Seq: high, Seqs: owed.settle(high)}
	m.sendControl(peer, ack)
}

// payOwedAcks is the tick's settlement of every acknowledgement that found
// no carrier and reached no bound since the last one.
func (m *Member) payOwedAcks() {
	for peer, owed := range m.ackOwed {
		if len(owed.seqs) > 0 {
			m.payDirectAcks(peer, owed)
		}
	}
	for origin := range m.dataAckOwed {
		m.payDataAck(origin)
	}
}

func (m *Member) handleDirectAck(from string, f *frame) {
	if skip, ok := m.directSkip[from]; ok && f.Seq >= skip {
		delete(m.directSkip, from)
	}
	un := m.directUnack[from]
	if f.Seq > 0 {
		for oseq := range un {
			if oseq <= f.Seq {
				delete(un, oseq)
			}
		}
	}
	for _, oseq := range f.Seqs {
		delete(un, oseq)
	}
	delete(un, f.OSeq)
}

// ---- periodic work ----

func (m *Member) tick() {
	nowT := m.now()
	m.payOwedAcks()
	if m.joining && !m.installed {
		if len(m.cfg.Seeds) > 0 {
			seed := m.cfg.Seeds[m.seedIdx%len(m.cfg.Seeds)]
			m.seedIdx++
			m.sendControl(seed, &frame{Kind: kJoin, Origin: m.Addr()})
		}
		return
	}
	if !m.installed {
		return
	}

	// Heartbeats, carrying the agreed, FIFO and causal frontiers for
	// tail-loss detection: a receiver that missed the last messages of a
	// burst (or a healed partition) has no later message to reveal the
	// gap, so the frontier advertisement is what triggers recovery.
	hb := &frame{
		Kind:   kHB,
		ViewID: m.view.ID,
		Origin: m.Addr(),
		Seq:    m.nextDeliver - 1,
		OSeq:   m.fifoOut,
		Seqs:   m.vcSnapshot(),
	}
	for _, mm := range m.view.Members {
		if mm != m.Addr() {
			m.sendControl(mm, hb)
		}
	}

	// Failure detection: the fixed SuspectAfter silence floor, and — when
	// the accrual detector has calibrated — a phi requirement on top, so a
	// congested-but-alive peer whose rhythm the detector has learned is
	// not mistaken for a crash.
	changed := false
	for _, mm := range m.view.Members {
		if mm == m.Addr() || m.suspects[mm] {
			continue
		}
		if nowT.Sub(m.lastHeard[mm]) <= m.cfg.SuspectAfter {
			continue
		}
		if m.det != nil {
			if phi, ok := m.det.Phi(mm, nowT); ok {
				m.cPhiMax.Max(int64(phi * 1000))
				if phi < m.cfg.PhiThreshold {
					continue
				}
			}
		}
		m.suspects[mm] = true
		m.cHBMisses.Inc()
		m.tr.Event(trace.SubGCS, "suspect", m.deliverVT, int64(m.view.ID))
		changed = true
	}
	// Standing suspicions with no proposal in flight also retry: a member
	// that was stalled by the primary-partition rule when the suspicion
	// first fired (and so never proposed) must re-evaluate once renewed
	// contact restores its primacy — no new suspicion event will arrive to
	// prompt it.
	if changed || len(m.joinReqs) > 0 || len(m.leaveReqs) > 0 ||
		(len(m.suspects) > 0 && m.proposal == nil) {
		m.maybePropose()
	}

	// Resend unsequenced submissions to the sequencer, and unacked direct
	// traffic to its client — each retained frame only once ResendInterval
	// has passed since it last went out. A tick that lands microseconds
	// after the first transmission must not repeat it: on a healthy
	// network the ack is already on its way back. Each peer gets at most
	// resendBurst frames a tick, lowest OSeq first.
	if !m.blocked {
		sent := 0
		for _, oseq := range m.pendOrder {
			if sent == resendBurst {
				break
			}
			if f, ok := m.pending[oseq]; ok && m.resendDue(f, nowT) {
				m.sendControl(m.currentSequencer(), f)
				m.cRetransmit.Inc()
				sent++
			}
		}
		m.compactPendOrder()
	}
	for to, un := range m.directUnack {
		for _, f := range m.dueDirect(un, nowT) {
			m.sendExternal(to, f, true)
			m.cRetransmit.Inc()
		}
	}

	// Record the high-water retransmit-queue depth: unsequenced agreed
	// submissions plus unacked direct frames awaiting resend.
	depth := int64(len(m.pending))
	for _, un := range m.directUnack {
		depth += int64(len(un))
	}
	m.cRetxDepth.Max(depth)

	// Re-nack outstanding gaps. While blocked, the only useful progress
	// is toward a held view installation.
	if m.blocked {
		m.tryInstallHeldView()
	}
	m.maybeNack()
	for origin := range m.fifoHold {
		m.nackFifoGap(origin)
	}
	m.nackCausalGaps()

	// Drive an in-flight proposal.
	m.advanceProposal(nowT)
}

// resendBurst bounds the retained frames one tick re-sends to one peer. A
// sweep over everything due grows with the backlog: once it outlasts
// ResendInterval every frame is due again when it ends, the peer answers
// each duplicate at once, and the storm feeds itself. The oldest frames go
// first — they are what the peer's cumulative acknowledgement and the
// sequencer's per-origin FIFO wait for — and successive ticks cover the rest.
const resendBurst = 64

// resendDue reports whether a retained frame's last transmission is old
// enough to be presumed lost.
func (m *Member) resendDue(f *frame, nowT time.Time) bool {
	return nowT.Sub(f.lastSend) >= m.cfg.ResendInterval
}

// dueDirect returns the frames of un that are due a resend, lowest OSeq
// first and no more than resendBurst of them.
func (m *Member) dueDirect(un map[uint64]*frame, nowT time.Time) []*frame {
	var due []*frame
	for _, f := range un {
		if m.resendDue(f, nowT) {
			due = append(due, f)
		}
	}
	sort.Slice(due, func(i, j int) bool { return due[i].OSeq < due[j].OSeq })
	return due[:min(len(due), resendBurst)]
}

func (m *Member) compactPendOrder() {
	if len(m.pendOrder) == 0 || len(m.pending) == len(m.pendOrder) {
		return
	}
	keep := m.pendOrder[:0]
	for _, oseq := range m.pendOrder {
		if _, ok := m.pending[oseq]; ok {
			keep = append(keep, oseq)
		}
	}
	m.pendOrder = keep
}
