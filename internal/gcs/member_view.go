package gcs

import (
	"sort"
	"time"

	"versadep/internal/trace"
	"versadep/internal/transport"
)

// This file implements the membership/view-change protocol. The proposer is
// always the lowest-ranked member that is not suspected; in the common case
// (join, leave, backup crash) that is the current coordinator/sequencer
// itself, so no sequence numbers can be assigned concurrently with the
// flush. When the coordinator crashes, the next-ranked survivor proposes,
// reconciles every survivor to the same sequenced prefix (fetching frames
// it lacks), fills unrecoverable gaps with no-op fillers, and installs the
// new view as a sequenced kView frame — giving the total order of view
// changes relative to agreed messages that the paper's switch protocol
// requires (§4.2).

// maybePropose starts a view change if this member has coordinator duty and
// there is membership work to do.
func (m *Member) maybePropose() {
	if !m.installed || m.proposal != nil || !m.isCoordinatorDuty() {
		return
	}
	if !m.primaryPartition() {
		// Primary-partition rule: a member whose unsuspected survivor set
		// has lost primacy must not install a view — a symmetric partition
		// would otherwise fracture the group into concurrently serving
		// fragments (split-brain). It stalls instead: suspicion clears on
		// renewed contact (handleFrame) and proposing resumes, or the
		// primary side's new view reaches it (heartbeat teaching) and it
		// rejoins as a fresh incarnation.
		m.cMinority.Inc()
		m.tr.Event(trace.SubGCS, "minority_stall", m.deliverVT, int64(m.view.ID))
		return
	}
	newMembers := m.computeNewMembers()
	if sameMembers(newMembers, m.view.Members) {
		m.joinReqs = make(map[string]bool)
		m.leaveReqs = make(map[string]bool)
		return
	}
	if !contains(newMembers, m.Addr()) && !m.leaveReqs[m.Addr()] {
		return // we are being excluded (suspected); someone else proposes
	}
	viewID := m.view.ID
	if m.highProposed > viewID {
		viewID = m.highProposed
	}
	viewID++
	m.highProposed = viewID

	joiners := make(map[string]bool)
	need := make(map[string]bool)
	for _, mm := range newMembers {
		if m.view.Contains(mm) {
			need[mm] = true
		} else {
			joiners[mm] = true
		}
	}
	// Record which departures are announced leaves (they get the new view
	// as a courtesy, and the annotation lets survivors tell a graceful
	// departure from a crash).
	var left []string
	for _, mm := range m.view.Members {
		if m.leaveReqs[mm] && !contains(newMembers, mm) {
			left = append(left, mm)
		}
	}
	p := &proposal{
		viewID:    viewID,
		members:   newMembers,
		joiners:   joiners,
		left:      left,
		ackFrom:   make(map[string]*ackInfo),
		need:      need,
		deadline:  m.now().Add(prepareTimeout),
		fetches:   make(map[string]*frame),
		fetchWait: make(map[uint64]bool),
	}
	m.proposal = p

	prep := &frame{Kind: kPrepare, ViewID: viewID, Origin: m.Addr(), Members: newMembers}
	// Send to every old-view survivor (they must flush) — including
	// ourselves, which blocks us and records our own ack.
	for _, mm := range m.view.Members {
		if m.suspects[mm] {
			continue
		}
		if mm == m.Addr() {
			m.handleFrame(transport.Message{From: mm, To: mm}, prep)
		} else {
			m.sendControl(mm, prep)
		}
	}
	m.checkProposalReady()
}

// primaryPartition reports whether this member's unsuspected survivors of
// the current view retain the right to continue the group: a strict
// majority, or exactly half that includes the view's lowest-ranked member
// (the deterministic tiebreak for even splits — at most one side can hold
// the old coordinator). Graceful leavers still count as survivors; only
// suspicion — the partition signal — erodes primacy.
//
// A member without primacy does not stall forever: once the loss persists
// past minorityGrace — long past any transient partition, whose heal would
// have rescinded the suspicion — the peers are treated as crashed and the
// member continues, so cascading crashes can degrade the group all the way
// down to a lone survivor.
func (m *Member) primaryPartition() bool {
	if len(m.suspects) == 0 {
		m.minoritySince = time.Time{}
		return true
	}
	alive := 0
	for _, mm := range m.view.Members {
		if !m.suspects[mm] {
			alive++
		}
	}
	n := len(m.view.Members)
	if 2*alive > n || (2*alive == n && !m.suspects[m.view.Members[0]]) {
		m.minoritySince = time.Time{}
		return true
	}
	if m.minoritySince.IsZero() {
		m.minoritySince = m.now()
		return false
	}
	return m.now().Sub(m.minoritySince) >= minorityGrace
}

func (m *Member) computeNewMembers() []string {
	set := make(map[string]bool)
	for _, mm := range m.view.Members {
		if m.suspects[mm] || m.leaveReqs[mm] {
			continue
		}
		set[mm] = true
	}
	for j := range m.joinReqs {
		if !m.leaveReqs[j] {
			set[j] = true
		}
	}
	out := make([]string, 0, len(set))
	for mm := range set {
		out = append(out, mm)
	}
	sort.Strings(out)
	return out
}

func sameMembers(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func contains(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// handlePrepare blocks delivery and acknowledges with the member's agreed
// snapshot: the highest contiguously delivered sequence and the sequences
// it holds beyond it.
func (m *Member) handlePrepare(from string, f *frame) {
	if !m.installed || f.ViewID <= m.view.ID {
		return
	}
	if f.ViewID > m.highProposed {
		m.highProposed = f.ViewID
	}
	if !m.blocked {
		m.blocked = true
		m.ackHigh = m.nextDeliver - 1
	}
	held := make([]uint64, 0, len(m.holdback))
	for s := range m.holdback {
		held = append(held, s)
	}
	sort.Slice(held, func(i, j int) bool { return held[i] < held[j] })
	ack := &frame{
		Kind:   kPrepareAck,
		ViewID: f.ViewID,
		Origin: m.Addr(),
		Seq:    m.nextDeliver - 1,
		Seqs:   held,
	}
	if from == m.Addr() || from == "" {
		m.handleFrame(transport.Message{From: m.Addr(), To: m.Addr()}, ack)
	} else {
		m.sendControl(from, ack)
	}
}

func (m *Member) handlePrepareAck(from string, f *frame) {
	p := m.proposal
	if p == nil || f.ViewID != p.viewID {
		return
	}
	p.ackFrom[f.Origin] = &ackInfo{high: f.Seq, held: f.Seqs}
	m.checkProposalReady()
}

// checkProposalReady advances the proposal once every needed survivor has
// acknowledged the flush.
func (m *Member) checkProposalReady() {
	p := m.proposal
	if p == nil || len(p.fetchWait) > 0 {
		return
	}
	for mm := range p.need {
		if _, ok := p.ackFrom[mm]; !ok {
			return
		}
	}
	m.beginRecovery()
}

// beginRecovery computes the flush frontier and fetches any sequenced
// frames the proposer lacks before redistribution.
func (m *Member) beginRecovery() {
	p := m.proposal
	maxSeq := m.nextDeliver - 1
	whoHas := make(map[uint64]string)
	for mm, ack := range p.ackFrom {
		if ack.high > maxSeq {
			maxSeq = ack.high
		}
		for _, s := range ack.held {
			if s > maxSeq {
				maxSeq = s
			}
			if _, ok := whoHas[s]; !ok {
				whoHas[s] = mm
			}
		}
		// Any seq <= ack.high is available from mm's history.
		if _, ok := whoHas[ack.high]; !ok && ack.high > 0 {
			whoHas[ack.high] = mm
		}
	}
	// If the proposer was the sequencer, its own assignment counter also
	// bounds the frontier.
	if m.view.Coordinator() == m.Addr() && m.nextSeq-1 > maxSeq {
		maxSeq = m.nextSeq - 1
	}
	p.maxSeq = maxSeq

	// Which undelivered frames up to the frontier do we lack?
	missing := make([]uint64, 0)
	for s := m.nextDeliver; s <= maxSeq; s++ {
		if _, ok := m.holdback[s]; ok {
			continue
		}
		if _, ok := m.historyAt(s); ok {
			continue
		}
		missing = append(missing, s)
	}
	if len(missing) == 0 {
		m.redistributeAndInstall()
		return
	}
	// Ask the members that reported having each sequence.
	p.fetchUntil = m.now().Add(prepareTimeout)
	req := make(map[string][]uint64)
	for _, s := range missing {
		owner := ""
		// Prefer the explicit holder; otherwise any member whose high
		// covers s.
		if o, ok := whoHas[s]; ok {
			owner = o
		} else {
			for mm, ack := range p.ackFrom {
				if ack.high >= s {
					owner = mm
					break
				}
			}
		}
		if owner == "" || owner == m.Addr() {
			// Nobody has it: it will become a no-op filler.
			continue
		}
		p.fetchWait[s] = true
		req[owner] = append(req[owner], s)
	}
	if len(p.fetchWait) == 0 {
		m.redistributeAndInstall()
		return
	}
	for owner, seqs := range req {
		p.fetches[owner] = &frame{Kind: kFetch, ViewID: p.viewID, Origin: m.Addr(), Seqs: seqs}
		m.sendControl(owner, p.fetches[owner])
	}
}

func (m *Member) handleFetch(from string, f *frame) {
	resp := make([][]byte, 0, len(f.Seqs))
	for _, s := range f.Seqs {
		if h, ok := m.historyAt(s); ok {
			resp = append(resp, h.enc)
		} else if rf, ok := m.holdback[s]; ok {
			resp = append(resp, rf.f.encoded(m.cfg.GroupID))
		}
	}
	out := &frame{Kind: kFetchResp, ViewID: f.ViewID, Origin: m.Addr(), Aux: encodeFrameList(resp)}
	m.sendControl(from, out)
}

func (m *Member) handleFetchResp(f *frame) {
	p := m.proposal
	if p == nil || len(p.fetchWait) == 0 || f.ViewID != p.viewID {
		return
	}
	frames, err := decodeFrameList(f.Aux)
	if err != nil {
		return
	}
	delete(p.fetches, f.Origin)
	for i := range frames {
		sf := &frames[i]
		if sf.Kind != kSeq && sf.Kind != kView {
			continue
		}
		if _, ok := m.holdback[sf.Seq]; !ok && sf.Seq >= m.nextDeliver {
			vt, led := m.rx(transport.Message{SentAt: -1}, sf)
			m.holdback[sf.Seq] = rxFrame{f: sf, vt: vt, led: led}
		}
		delete(p.fetchWait, sf.Seq)
	}
	if len(p.fetchWait) == 0 {
		m.redistributeAndInstall()
	}
}

// redistributeAndInstall fills every survivor's gaps up to the frontier,
// synthesizes no-op fillers for unrecoverable sequences, and broadcasts the
// sequenced view installation.
func (m *Member) redistributeAndInstall() {
	p := m.proposal
	maxSeq := p.maxSeq

	// Synthesize fillers for sequences nobody possesses. Their origins
	// still hold the payload in pending and will resubmit in the new view.
	filled := make(map[uint64]bool)
	for s := m.nextDeliver; s <= maxSeq; s++ {
		if _, ok := m.holdback[s]; ok {
			continue
		}
		if _, ok := m.historyAt(s); ok {
			continue
		}
		filler := &frame{Kind: kSeq, ViewID: m.view.ID, Seq: s, Level: Agreed}
		m.holdback[s] = rxFrame{f: filler}
		filled[s] = true
	}

	// Joiners inherit the per-origin dedup watermarks as they will be
	// after the whole flushed prefix is delivered (the proposer knows
	// this exactly: its own seenData advanced through delivery, plus the
	// frames still sitting in its reconciled holdback).
	finalSeen := make(map[string]uint64, len(m.seenData))
	for o, s := range m.seenData {
		finalSeen[o] = s
	}
	for s := m.nextDeliver; s <= maxSeq; s++ {
		if rf, ok := m.holdback[s]; ok && rf.f.Origin != "" && rf.f.OSeq > finalSeen[rf.f.Origin] {
			finalSeen[rf.f.Origin] = rf.f.OSeq
		}
	}
	viewFrame := &frame{
		Kind:    kView,
		ViewID:  p.viewID,
		Seq:     maxSeq + 1,
		Origin:  m.Addr(),
		Members: p.members,
		Aux:     encodeSeenData(finalSeen),
		Left:    p.left,
	}

	// Send missing frames + the view to each survivor; joiners get only
	// the view (they install directly and start at the new frontier). A
	// filler goes to holders too: a survivor whose fetch answer was lost
	// holds a frame this member will not deliver, and the filler wins.
	for _, mm := range p.members {
		if p.joiners[mm] {
			m.sendControl(mm, viewFrame)
			continue
		}
		ack := p.ackFrom[mm]
		if mm != m.Addr() && ack != nil {
			held := make(map[uint64]bool, len(ack.held))
			for _, s := range ack.held {
				held[s] = true
			}
			for s := ack.high + 1; s <= maxSeq; s++ {
				if held[s] && !filled[s] {
					continue
				}
				m.resend(mm, s)
			}
		}
		if mm == m.Addr() {
			m.handleFrame(transport.Message{From: mm, To: mm}, viewFrame)
		} else {
			m.sendControl(mm, viewFrame)
		}
	}
	// Graceful leavers get the view too: observing their own exclusion
	// lets Leave return promptly instead of waiting out its deadline.
	// (A leaving proposer delivers the flushed prefix to itself this way
	// — virtual synchrony holds for its last events.)
	for _, mm := range p.left {
		if mm == m.Addr() {
			m.handleFrame(transport.Message{From: mm, To: mm}, viewFrame)
		} else {
			m.sendControl(mm, viewFrame)
		}
	}
}

// handleViewFrame processes a sequenced kView: it is held back like any
// sequenced frame until the stream is contiguous, then installs.
func (m *Member) handleViewFrame(msg transport.Message, f *frame) {
	if !m.installed {
		// Joining (or previously excluded): install directly if we are a
		// member of the new view.
		if contains(f.Members, m.Addr()) {
			m.adoptView(f)
		}
		return
	}
	if f.ViewID > m.view.ID && !contains(f.Members, m.Addr()) && !m.leaving {
		// A newer view that excludes us: the primary partition moved on
		// while we were cut off. We can never recover the sequenced stream
		// between our frontier and this installation (the survivors flushed
		// it among themselves), so adopt the exclusion directly and rejoin
		// as a fresh incarnation with a state transfer.
		m.installJoinedView(f, false)
		return
	}
	if f.ViewID <= m.view.ID || f.Seq < m.nextDeliver {
		return
	}
	// A data frame may squat on the view's sequence slot (assigned by a dead
	// sequencer and reported by nobody): the view wins.
	if rf, dup := m.holdback[f.Seq]; !dup || rf.f.Kind != kView {
		m.holdback[f.Seq] = rxFrame{f: f.clone()}
	}
	m.tryInstallHeldView()
}

// tryInstallHeldView delivers up to a held view frame once the stream below
// it is contiguous, then installs it. While blocked, normal drainHoldback
// is paused, so this is the only path that makes progress during a flush.
func (m *Member) tryInstallHeldView() {
	// Find the lowest held view frame.
	var vs uint64
	for s, rf := range m.holdback {
		if rf.f.Kind == kView && (vs == 0 || s < vs) {
			vs = s
		}
	}
	if vs == 0 {
		return
	}
	// Deliver everything below it once that is contiguous; ask the proposer
	// for any gap first.
	if m.requestGap(vs-1, m.holdback[vs].f.Origin) {
		return
	}
	for m.nextDeliver <= vs {
		s := m.nextDeliver
		rf := m.holdback[s]
		delete(m.holdback, s)
		m.nextDeliver++
		m.deliverSequenced(rf)
	}
	// The installation unblocked us; frames that arrived during the flush
	// (or were sequenced reentrantly by installView) may be deliverable.
	if !m.blocked {
		m.drainHoldback()
	}
}

// adoptView is the direct installation path for joiners.
func (m *Member) adoptView(f *frame) {
	m.recordHistory(f)
	m.nextDeliver = f.Seq + 1
	if seen, err := decodeSeenData(f.Aux); err == nil {
		for o, s := range seen {
			if s > m.seenData[o] {
				m.seenData[o] = s
			}
		}
	}
	m.installJoinedView(f, true)
}

// installView switches to the new view and resumes normal operation.
func (m *Member) installView(f *frame) { m.installJoinedView(f, false) }

func (m *Member) installJoinedView(f *frame, joined bool) {
	// What was addressed to a member this view excludes will never be
	// acknowledged, and what is owed to it has no reader: without this,
	// every state frame in flight to a crashed backup is retransmitted for
	// the life of the process. The per-peer counters stay — a falsely
	// excluded process comes back with its receive watermark, and numbering
	// from 1 again would be swallowed as duplicates — so directSkip notes
	// where the numbering stood, for the gaps the dropped frames leave in
	// that watermark. External clients' entries stay too: they are in no
	// view, and the ORB's retry against the reply cache is what bounds them.
	for _, mm := range m.view.Members {
		if !contains(f.Members, mm) {
			delete(m.directUnack, mm)
			delete(m.ackOwed, mm)
			if out := m.directOut[mm]; out > 0 {
				m.directSkip[mm] = out
			}
		}
	}
	m.view = View{ID: f.ViewID, Members: append([]string(nil), f.Members...)}
	m.installed = true
	m.joining = false
	m.blocked = false
	m.proposal = nil
	m.lastView = f.clone()
	if f.ViewID > m.highProposed {
		m.highProposed = f.ViewID
	}

	// Discard stale sequenced frames beyond the installation point: their
	// origins resubmit them in the new view.
	for s := range m.holdback {
		if s < m.nextDeliver {
			delete(m.holdback, s)
		}
	}

	if !m.view.Contains(m.Addr()) {
		if m.leaving {
			// Graceful departure confirmed: stop participating, and
			// wake Leave to stop the daemon.
			m.installed = false
			m.joining = false
			if m.left != nil {
				close(m.left)
				m.left = nil
			}
			return
		}
		// We were excluded (false suspicion): rejoin as a fresh
		// incarnation, keeping pending submissions.
		m.installed = false
		m.joining = true
		m.cfg.Seeds = f.Members
		return
	}

	m.resetPerViewState()
	m.joinReqs = make(map[string]bool)
	m.leaveReqs = make(map[string]bool)

	// Emit the view change before resuming traffic: resuming can
	// synchronously sequence and deliver resubmitted messages, and those
	// deliveries belong to the new view in the event order.
	m.cViews.Inc()
	m.tr.Event(trace.SubGCS, "view_change", m.deliverVT, int64(m.view.ID))
	m.emit(Event{Kind: EventView, View: m.view, Seq: f.Seq, VTime: m.deliverVT,
		Joined: joined, Left: append([]string(nil), f.Left...)})

	// Gap stamps restart with the view: a pre-change stamp must not trigger
	// an immediate skip before the origin's retransmissions have had a
	// chance to reach the (possibly new) sequencer.
	m.dataGapSince = make(map[string]time.Time)
	if m.view.Coordinator() == m.Addr() {
		m.nextSeq = f.Seq + 1
		// The sequencing watermark restarts from the delivery record
		// (identical at every member after the flush), then anything
		// buffered during the block is sequenced.
		m.seqLocal = make(map[string]uint64, len(m.seenData))
		for o, s := range m.seenData {
			m.seqLocal[o] = s
		}
		for origin := range m.dataHold {
			m.sequenceReady(origin)
		}
	} else {
		m.seqLocal = make(map[string]uint64)
		m.dataHold = make(map[string]map[uint64]rxFrame)
	}

	// Resubmit unsequenced agreed traffic to the new sequencer.
	m.pending.each(func(pf *frame) { m.sendControl(m.view.Coordinator(), pf) })
}

// advanceProposal enforces deadlines on an in-flight proposal.
func (m *Member) advanceProposal(nowT time.Time) {
	p := m.proposal
	if p == nil {
		return
	}
	if len(p.fetchWait) > 0 {
		if nowT.After(p.fetchUntil) {
			// Treat unfetchable frames as unrecoverable.
			clear(p.fetchWait)
			m.redistributeAndInstall()
			return
		}
		// A kFetch or its answer may be lost while its owner lives.
		for owner, fetch := range p.fetches {
			if nowT.Sub(fetch.lastSend) >= m.cfg.ResendInterval {
				m.sendControl(owner, fetch)
			}
		}
		return
	}
	if nowT.After(p.deadline) {
		// Survivors that failed to ack are suspected; restart.
		for mm := range p.need {
			if _, ok := p.ackFrom[mm]; !ok {
				m.suspects[mm] = true
			}
		}
		m.proposal = nil
		m.maybePropose()
	}
}
