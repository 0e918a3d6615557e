package replication

// dedupWindow is how many request ids above a client's floor the engine
// tracks exactly, one bit each (8 KB per client per replica). It is sized
// by memory, not by time: a late-but-new request is protected — executed
// once and answered — while fewer than dedupWindow newer ids of the same
// client have executed; once that many have, it is under the floor and is
// assumed executed. Must be a multiple of 64.
const dedupWindow = 1 << 16

// clientRecord is everything the engine remembers about one client: which
// of its requests ran, and the last few replies.
//
// Duplicate detection is exact. A client's request ids do NOT arrive in
// order: concurrent invocations race between id assignment and send, and
// in sharded deployments a NAKed request reaches its new owner, on the
// ORB's retransmission, long after higher ids executed. A plain "rid <= high" floor misfiles such
// late-but-new requests as duplicates and black-holes them (no execution,
// no cached reply to resend, and every retry hits the same floor). So:
// rids at or below floor are assumed executed (history predating what this
// replica knows exactly — checkpoint installs set it, and mark raises it to
// high-dedupWindow), and above the floor one bit per rid records exactly
// which ran. Both windows are rings over the contiguous id space, so a
// request costs the same whatever the client's history.
type clientRecord struct {
	floor uint64
	high  uint64 // highest rid executed or assumed; floor <= high <= floor+dedupWindow
	// bits is indexed rid%dedupWindow. A bit is meaningful only for
	// floor < rid <= high, and no bit outside that range is ever set: rids
	// that alias modulo the window never share a live bit.
	bits [dedupWindow / 64]uint64
	// replies is indexed rid%len and holds the replies of the len ids
	// ending at high (cacheDepth of them).
	replies []cachedReply
}

type cachedReply struct {
	rid   uint64
	reply []byte
}

// executed reports whether the replica has (or must assume it has) run rid.
func (r *clientRecord) executed(rid uint64) bool {
	if rid <= r.floor {
		return true
	}
	return rid <= r.high && r.bits[rid%dedupWindow/64]&(1<<(rid%64)) != 0
}

// mark records rid as executed and keeps the floor at most dedupWindow
// below the high-water mark, clearing only the bits the floor steps over.
func (r *clientRecord) mark(rid uint64) {
	if rid <= r.floor {
		return
	}
	if rid > r.high {
		r.high = rid
		if rid > dedupWindow && rid-dedupWindow > r.floor {
			r.clearBits(r.floor, rid-dedupWindow)
			r.floor = rid - dedupWindow
		}
	}
	r.bits[rid%dedupWindow/64] |= 1 << (rid % 64)
}

// clearBits clears the bits of the rids in (from, to].
func (r *clientRecord) clearBits(from, to uint64) {
	if to-from >= dedupWindow {
		r.bits = [dedupWindow / 64]uint64{}
		return
	}
	for rid := from; rid != to; {
		rid++
		r.bits[rid%dedupWindow/64] &^= 1 << (rid % 64)
	}
}

// reset forgets everything and assumes every rid at or below floor
// executed — what a checkpoint's one high-water mark per client says.
func (r *clientRecord) reset(floor uint64) {
	r.clearBits(r.floor, r.high)
	r.floor, r.high = floor, floor
	clear(r.replies)
}

// reply returns the cached reply to rid, if it is still retained.
func (r *clientRecord) reply(rid uint64) ([]byte, bool) {
	s := &r.replies[rid%uint64(len(r.replies))]
	return s.reply, s.rid == rid && s.reply != nil
}

// store retains the reply to rid unless rid is already older than the
// retained ids, and reports whether another id's reply made way for it.
func (r *clientRecord) store(rid uint64, reply []byte) (evicted bool) {
	depth := uint64(len(r.replies))
	if rid <= r.high && r.high-rid >= depth {
		return false
	}
	s := &r.replies[rid%depth]
	evicted = s.reply != nil && s.rid != rid
	*s = cachedReply{rid: rid, reply: reply}
	return evicted
}
