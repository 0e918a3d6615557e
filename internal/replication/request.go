package replication

// The request path: duplicate suppression, execution or logging, replies.

import (
	"versadep/internal/gcs"
	"versadep/internal/orb"
	"versadep/internal/trace/span"
	"versadep/internal/transport"
	"versadep/internal/vtime"
)

// cacheDepth is how many replies are retained per client for duplicate
// suppression.
const cacheDepth = 8

// rateWindow is how many requests' send stamps the arrival rate spans. The
// stamps come off the agreed stream, so every replica computes the same rate
// at the same stream position.
const rateWindow = 32

type logEntry struct {
	viop []byte
	seq  uint64 // global agreed-stream sequence number
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
	return e.synced && (e.style.AllExecute() || e.role() == RolePrimary)
}

// repliesToClients reports whether this replica transmits replies: all
// replicas in active, the leader only in semi-active, the primary only in
// the passive styles. Non-replying executors still cache replies so they
// can serve retries after a leader crash.
func (e *Engine) repliesToClients() bool {
	return e.style == Active || e.role() == RolePrimary
}

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
				_ = e.group.SendDirect(cid, e.resend(cached), vt, ev.Ledger)
				e.stats.RepliesResent++
				e.cCacheHits.Inc()
			} else if rid <= r.floor {
				// Executed only by assumption, and nothing to resend: if the
				// request was in fact new, this is where it is lost.
				e.cDedupAssumed.Inc()
			} else {
				// Executed, but cacheDepth newer replies have pushed its
				// reply out: the retry goes unanswered.
				e.cDedupEvicted.Inc()
			}
		}
		return
	}

	if executor {
		vt := e.execute(msg.Viop, r, cid, rid, ev.VTime, ev.Ledger)
		e.lastExecSeq = ev.Seq
		e.notify(Notice{Kind: NoticeRequest, VT: vt, Style: e.style})

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
		e.log = append(e.log, logEntry{viop: msg.Viop, seq: ev.Seq})
		e.stats.RequestsLogged++
		e.notify(Notice{Kind: NoticeRequest, VT: ev.VTime, Style: e.style})
	}
}

// execute runs one request, delivered or replayed, through the adapter,
// charging the replicator's interception on the way in and out, caches the
// reply, and transmits it if this replica is the replying one.
func (e *Engine) execute(viop []byte, r *clientRecord, cid string, rid uint64, vt vtime.Time, led vtime.Ledger) vtime.Time {
	led.Charge(vtime.ComponentReplicator, e.cfg.Model.Intercept)
	vt = e.cpu.Execute(vt, e.cfg.Model.Intercept)
	e.spans.Add(span.RequestKey(cid, rid), "replicator_deliver", span.CompReplicator, vt.Add(-e.cfg.Model.Intercept), vt)
	in := vt
	res, err := e.adapter.HandleRequest(&e.cpu, viop, e.group.DirectRoom(), vt, led)
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
		_ = e.group.SendDirect(cid, res.Encoded, vt, outLed)
	}
	return vt
}

// resend returns a cached reply in a fresh buffer: the room around the
// cached bytes was spent when the reply was first sent.
func (e *Engine) resend(cached []byte) transport.Buf {
	return transport.CopyBuf(e.group.DirectRoom(), cached)
}

// sendDirect encodes m straight into a frame to the member or client at to
// and sends it.
func (e *Engine) sendDirect(to string, m *Msg, vt vtime.Time) {
	_ = e.group.SendDirect(to, EncodeIn(e.group.DirectRoom(), m), vt, vtime.Ledger{})
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
