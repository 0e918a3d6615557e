package gcs

import (
	"fmt"
	"sort"
	"time"

	"versadep/internal/codec"
	"versadep/internal/transport"
	"versadep/internal/vtime"
)

// frameKind discriminates GCS wire frames.
type frameKind uint8

const (
	// kJoin: Origin wants to join; sent to any member, forwarded to the
	// coordinator.
	kJoin frameKind = iota + 1
	// kLeave: Origin leaves the group gracefully.
	kLeave
	// kHB: heartbeat (control); Seq is the sender's delivered-through
	// sequence number. OSeq and Seqs are empty.
	kHB
	// kData: submission to the sequencer. Origin/OSeq identify the
	// message; Level records the requested service (Agreed).
	kData
	// kSeq: sequenced broadcast from the sequencer; Seq is the global
	// sequence number.
	kSeq
	// kNack: receiver is missing sequence numbers listed in Seqs.
	kNack
	// 7–10 are retired (they carried Spread's FIFO, causal and best-effort
	// services): a frame of one is ignored like any unknown kind, and no
	// kind reuses them.
	_
	_
	_
	_
	// kPrepare: view-change proposal; ViewID is the proposed id, Members
	// the proposed membership.
	kPrepare
	// kPrepareAck: flush acknowledgement; Seq is the acker's highest
	// contiguously delivered sequence, Seqs lists held (non-contiguous)
	// sequences it also has.
	kPrepareAck
	// kFetch: proposer requests the sequenced frames listed in Seqs.
	kFetch
	// kFetchResp: Aux carries encoded kSeq frames.
	kFetchResp
	// kView: sequenced view installation; Seq orders it in the agreed
	// stream, ViewID/Members define the view.
	kView
	// kDirect: reliable point-to-point payload; OSeq is the per-pair
	// sequence. Seq, when non-zero, tells an external client that every
	// submission of its own up to that OSeq has been sequenced: the reply
	// carries the acknowledgement of the request (see kDataAck). ViewID is
	// not a view here: when non-zero it tells a member that the sender has
	// given up on every kDirect to it numbered up to that OSeq
	// (Member.directSkip). The two readers differ, so the two watermarks
	// have a field each.
	kDirect
	// kDirectAck: acknowledges kDirect frames (control). Seq is cumulative —
	// every OSeq up to it has arrived — and Seqs and OSeq name single frames
	// above it. Zero means nothing in each field: an external client
	// acknowledges one frame at a time by OSeq alone, a member acknowledges
	// several at once by Seq and Seqs.
	kDirectAck
	// kViewHint: tells an external client the current membership
	// (control; sent in response to misdirected submissions).
	kViewHint
	// kDataAck: tells an external origin that its kData submissions up to
	// OSeq have been sequenced, so it can stop retransmitting them (control).
	// Sent only when no kDirect carried the news first.
	kDataAck
)

// frame is the single wire envelope for all GCS traffic. Unused fields
// encode compactly (empty strings/slices).
type frame struct {
	Kind    frameKind
	ViewID  uint64
	Seq     uint64
	Origin  string
	OSeq    uint64
	Level   ServiceLevel
	Members []string
	Seqs    []uint64
	SentVT  vtime.Time // origin's virtual send instant (end-to-end)
	Ledger  vtime.Ledger
	Payload []byte
	Aux     []byte
	// Left annotates a kView frame with the old-view members that
	// departed gracefully (announced leaves), as opposed to crashing.
	Left []string
	// Group multiplexes independent replica groups (shards) over shared
	// transports: members stamp their shard's group id on every frame and
	// drop inbound frames from other groups. Zero is the unsharded (and
	// shard-0) group, and a zero Group is not encoded at all — the frame
	// then ends after Left exactly as it did before sharding existed, so
	// a 1-shard cluster's wire bytes stay byte-identical (regression-
	// tested in frame_compat_test.go).
	Group uint32

	// enc is the frame's encoding once it has one: the verified receive
	// buffer it was decoded from, or a window onto wire. wire is the sealed
	// wire form (protocol byte, encoding, checksum), built the first time
	// the frame is transmitted. Both are kept so that whatever sends the
	// frame again — a tick or NACK retransmission, a forward, a fetch
	// response, the history — sends the same bytes instead of encoding
	// again. Once either is set the encoded fields above are frozen, and a
	// sealed frame travels on one conn for life (kDirect, kDataAck and
	// kViewHint to external clients, every other kind between members).
	enc  []byte
	wire []byte
	// lastSend is when the frame last went out; retransmission of retained
	// frames is paced against it (Config.ResendInterval).
	lastSend time.Time
}

// encoded returns f's encoding, stamped with the sender's group id and
// built on first use.
func (f *frame) encoded(group uint32) []byte {
	if f.enc == nil {
		f.Group = group
		f.enc = encodeFrame(f)
	}
	return f.enc
}

// sealed returns f's wire form for conn, built on first use: one buffer of
// exactly the sealed size, the payload copied into it once, framed and
// sealed in place.
func (f *frame) sealed(conn transport.Conn, group uint32) []byte {
	if f.wire == nil {
		if f.enc != nil {
			f.wire = sealEncoded(conn, f.enc)
			f.enc = f.wire[transport.Headroom : len(f.wire)-codec.SealOverhead]
		} else {
			f.Group = group
			f.sealAround(conn, group, transport.CopyBuf(f.room(), f.Payload))
		}
	}
	return f.wire
}

// sealAround builds f's wire form, stamped with group, around payload, a
// buffer holding f.Payload's bytes: f's header and trailer are written into
// the room around them and the frame is sealed in place, so the payload is
// not copied.
func (f *frame) sealAround(conn transport.Conn, group uint32, payload transport.Buf) []byte {
	f.Group = group
	head, tail := payload.Wrap(frameHeadSize(f), frameTailSize(f))
	appendFrameHead(head[:0], f)
	appendFrameTail(tail[:0], f)
	f.wire = conn.Seal(payload)
	f.enc = f.wire[transport.Headroom : len(f.wire)-codec.SealOverhead]
	return f.wire
}

// room is what f's payload needs around it to be framed and sealed in
// place (f.Group set).
func (f *frame) room() transport.Room {
	return transport.SealRoom.Around(frameHeadSize(f), frameTailSize(f))
}

// sealEncoded builds the wire form of an already encoded frame: the one
// copy a retransmission from the history (or a forward of a received
// frame) costs.
func sealEncoded(conn transport.Conn, enc []byte) []byte {
	return conn.Seal(transport.CopyBuf(transport.SealRoom, enc))
}

// frameHeadSize is the length of f's encoding in front of its payload
// bytes: every field before them, and their length prefix.
func frameHeadSize(f *frame) int {
	n := 1 + 8 + 8 + codec.SizeString(f.Origin) + 8 + 1 +
		4 + 4 + 8*len(f.Seqs) + 8 + 4 + 8*len(f.Ledger.Slots()) + 4
	for _, m := range f.Members {
		n += codec.SizeString(m)
	}
	return n
}

// frameTailSize is the length of f's encoding behind its payload bytes.
func frameTailSize(f *frame) int {
	n := codec.SizeBytes(f.Aux) + 4
	for _, m := range f.Left {
		n += codec.SizeString(m)
	}
	if f.Group != 0 {
		n += 4
	}
	return n
}

// frameSize is the exact length of f's encoding.
func frameSize(f *frame) int { return frameHeadSize(f) + len(f.Payload) + frameTailSize(f) }

// encodeFrame serializes f with the codec package.
func encodeFrame(f *frame) []byte {
	return appendFrame(make([]byte, 0, frameSize(f)), f)
}

// appendFrame appends f's encoding to b (frameSize(f) bytes).
func appendFrame(b []byte, f *frame) []byte {
	return appendFrameTail(append(appendFrameHead(b, f), f.Payload...), f)
}

// appendFrameHead appends the frameHeadSize(f) bytes of f's encoding that
// precede its payload.
func appendFrameHead(b []byte, f *frame) []byte {
	e := codec.AppendTo(b)
	e.PutUint8(uint8(f.Kind))
	e.PutUint64(f.ViewID)
	e.PutUint64(f.Seq)
	e.PutString(f.Origin)
	e.PutUint64(f.OSeq)
	e.PutUint8(uint8(f.Level))
	e.PutUint32(uint32(len(f.Members)))
	for _, m := range f.Members {
		e.PutString(m)
	}
	e.PutUint32(uint32(len(f.Seqs)))
	for _, s := range f.Seqs {
		e.PutUint64(s)
	}
	e.PutInt64(int64(f.SentVT))
	slots := f.Ledger.Slots()
	e.PutUint32(uint32(len(slots)))
	for _, d := range slots {
		e.PutInt64(int64(d))
	}
	e.PutUint32(uint32(len(f.Payload)))
	return e.Bytes()
}

// appendFrameTail appends the frameTailSize(f) bytes of f's encoding that
// follow its payload.
func appendFrameTail(b []byte, f *frame) []byte {
	e := codec.AppendTo(b)
	e.PutBytes(f.Aux)
	e.PutUint32(uint32(len(f.Left)))
	for _, m := range f.Left {
		e.PutString(m)
	}
	// Trailing optional field (the PR-4 resume-fields trick): emitted
	// only when non-zero so group-0 frames keep their legacy layout.
	if f.Group != 0 {
		e.PutUint32(f.Group)
	}
	return e.Bytes()
}

// decodeFrame parses a frame, validating length prefixes against the
// stream. Payload and Aux are sub-slices of b, not copies, and the frame
// keeps b itself as its encoding: b is a verified receive buffer nobody
// writes to again, and a payload is about as large as the frame that
// carries it, so retaining either costs what a copy would. The addresses a
// frame carries — its origin, a membership — are read through names: a
// receiver hears from the same few peers frame after frame and materialises
// each address once (see codec.Names; nil makes fresh copies). The table
// belongs to the caller, which is what serialises its decoding.
func decodeFrame(b []byte, names *codec.Names) (*frame, error) {
	d := codec.NewDecoder(b)
	var f frame
	kind, err := d.Uint8()
	if err != nil {
		return nil, fmt.Errorf("gcs: frame kind: %w", err)
	}
	f.Kind = frameKind(kind)
	if f.ViewID, err = d.Uint64(); err != nil {
		return nil, err
	}
	if f.Seq, err = d.Uint64(); err != nil {
		return nil, err
	}
	if f.Origin, err = d.Name(names); err != nil {
		return nil, err
	}
	if f.OSeq, err = d.Uint64(); err != nil {
		return nil, err
	}
	lvl, err := d.Uint8()
	if err != nil {
		return nil, err
	}
	f.Level = ServiceLevel(lvl)
	n, reserve, err := d.Count(4)
	if err != nil {
		return nil, err
	}
	f.Members = make([]string, 0, reserve)
	for i := 0; i < n; i++ {
		m, err := d.Name(names)
		if err != nil {
			return nil, err
		}
		f.Members = append(f.Members, m)
	}
	if n, reserve, err = d.Count(8); err != nil {
		return nil, err
	}
	f.Seqs = make([]uint64, 0, reserve)
	for i := 0; i < n; i++ {
		s, err := d.Uint64()
		if err != nil {
			return nil, err
		}
		f.Seqs = append(f.Seqs, s)
	}
	vt, err := d.Int64()
	if err != nil {
		return nil, err
	}
	f.SentVT = vtime.Time(vt)
	if n, _, err = d.Count(8); err != nil {
		return nil, err
	}
	slots := f.Ledger.Slots()
	for i := 0; i < n; i++ {
		v, err := d.Int64()
		if err != nil {
			return nil, err
		}
		if i < len(slots) {
			slots[i] = vtime.Duration(v)
		}
	}
	if f.Payload, err = d.Bytes(); err != nil {
		return nil, err
	}
	if f.Aux, err = d.Bytes(); err != nil {
		return nil, err
	}
	if n, _, err = d.Count(4); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		m, err := d.Name(names)
		if err != nil {
			return nil, err
		}
		f.Left = append(f.Left, m)
	}
	if d.Remaining() > 0 {
		g, err := d.Uint32()
		if err != nil {
			return nil, err
		}
		f.Group = g
	}
	f.enc = b
	return &f, nil
}

// encodeSeenData packs per-origin dedup watermarks for kView Aux payloads.
func encodeSeenData(seen map[string]uint64) []byte {
	size := 4
	for k := range seen {
		size += codec.SizeString(k) + 8
	}
	e := codec.NewEncoder(size)
	e.PutUint32(uint32(len(seen)))
	// Deterministic order keeps view frames byte-identical across
	// re-encodings (retransmissions compare equal).
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e.PutString(k)
		e.PutUint64(seen[k])
	}
	return e.Bytes()
}

// decodeSeenData unpacks a kView Aux payload.
func decodeSeenData(b []byte) (map[string]uint64, error) {
	d := codec.NewDecoder(b)
	n, reserve, err := d.Count(4 + 8)
	if err != nil {
		return nil, err
	}
	out := make(map[string]uint64, reserve)
	for i := 0; i < n; i++ {
		k, err := d.String()
		if err != nil {
			return nil, err
		}
		v, err := d.Uint64()
		if err != nil {
			return nil, err
		}
		out[k] = v
	}
	return out, nil
}

// encodeFrameList packs encoded frames for kFetchResp Aux payloads.
func encodeFrameList(encs [][]byte) []byte {
	size := 4
	for _, enc := range encs {
		size += codec.SizeBytes(enc)
	}
	e := codec.NewEncoder(size)
	e.PutUint32(uint32(len(encs)))
	for _, enc := range encs {
		e.PutBytes(enc)
	}
	return e.Bytes()
}

// decodeFrameList unpacks a kFetchResp Aux payload.
func decodeFrameList(b []byte) ([]*frame, error) {
	d := codec.NewDecoder(b)
	n, reserve, err := d.Count(4)
	if err != nil {
		return nil, err
	}
	out := make([]*frame, 0, reserve)
	for i := 0; i < n; i++ {
		fb, err := d.Bytes()
		if err != nil {
			return nil, err
		}
		f, err := decodeFrame(fb, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}
