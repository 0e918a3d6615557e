package replication

import (
	"errors"

	"versadep/internal/codec"
	"versadep/internal/transport"
)

// MsgKind discriminates the messages the replication layer exchanges over
// the group's agreed stream.
type MsgKind uint8

// Replication message kinds.
const (
	// KindRequest wraps a client's VIOP request bytes (submitted through
	// the interceptor's group wire).
	KindRequest MsgKind = iota + 1
	// KindCheckpoint carries the application state, the reply cache, and
	// a switch marker when it is the final checkpoint of a passive→active
	// switch.
	KindCheckpoint
	// KindSwitch announces a replication-style switch (Figure 5, step I).
	KindSwitch
	// Kind 4 is retired (replica metrics); the value stays reserved so
	// that no later kind reuses it.
	_
	// KindConfig retunes low-level knobs at runtime: a new checkpointing
	// frequency travels the agreed stream so every replica adopts it at
	// the same point (Table 1's checkpointing-frequency knob).
	KindConfig
	// KindState carries the bulk checkpoint state point-to-point from
	// the primary to one backup. Its position in the request stream is
	// fixed by the matching KindCheckpoint marker (same sender and
	// CkptSerial) on the agreed stream; shipping the bulk bytes
	// point-to-point is how Eternal/MEAD transfer state, and it makes
	// checkpoint bandwidth proportional to the number of backups.
	KindState
	// KindRetire directs the replica named in Target to leave the group
	// gracefully (the replica-count knob turned downward at runtime).
	// Riding the agreed stream gives every replica — the victim included
	// — the same position of the retirement relative to client requests,
	// so a retiring primary can hand off with a parting checkpoint that
	// covers exactly the requests ordered before it.
	KindRetire
	// KindStateChunk carries one chunk of a joiner state transfer
	// point-to-point from the state leader. Chunks are addressed by the
	// (CkptSerial, ChunkIndex) cursor; the reply cache rides the final
	// chunk. Unlike KindState, chunked transfers need no agreed-stream
	// marker: CoveredSeq on every chunk fixes the log-trim point.
	KindStateChunk
	// KindChunkAck is the joiner's cumulative progress report for a
	// chunked transfer: ChunkIndex is the count of contiguously received
	// chunks of CkptSerial. The leader advances its send window from it,
	// and it is the cursor a resume restarts from.
	KindChunkAck
	// KindResumeReq is the joiner's resume token, sent to the current
	// coordinator while unsynced: CkptSerial/ChunkIndex name the partial
	// transfer it holds (zero: none). The leader resumes a matching
	// bookmark checkpoint at the cursor instead of re-sending everything.
	KindResumeReq
	// KindResumeNak is an unsynced member's answer to a resume request it
	// cannot serve: CoveredSeq reports how far the sender's own retained
	// state reaches. When every member of a view has nak'd each other —
	// total failure: cascaded partitions or crashes left no synced member
	// — the most advanced member promotes itself back to synced and
	// serves the rest (see handleResumeNak).
	KindResumeNak
)

// Msg is the replication layer's envelope.
type Msg struct {
	Kind MsgKind
	// Viop is the wrapped request bytes (KindRequest).
	Viop []byte
	// State is the application state (KindCheckpoint).
	State []byte
	// Cache is the reply cache snapshot (KindCheckpoint).
	Cache []CacheEntry
	// Style is the target style (KindSwitch).
	Style Style
	// SwitchID identifies a switch operation; the final checkpoint of a
	// passive→active switch echoes it (KindSwitch, KindCheckpoint).
	SwitchID uint64
	// CoveredSeq is the global sequence number of the last request whose
	// effect is included in State (KindCheckpoint). A checkpoint can be
	// ordered after requests that entered the sequencer while it was
	// being captured; receivers trim and replay their logs relative to
	// CoveredSeq, not to the checkpoint's own stream position.
	CoveredSeq uint64
	// CkptSerial matches a KindCheckpoint marker with its KindState bulk
	// transfer (monotone per primary).
	CkptSerial uint64
	// Final marks the closing checkpoint of a passive→active switch.
	Final bool
	// CheckpointEvery is the new checkpointing frequency (KindConfig;
	// zero leaves it unchanged).
	CheckpointEvery uint32
	// Target is the replica being retired (KindRetire).
	Target string
	// ChunkIndex is the chunk's position within its checkpoint
	// (KindStateChunk), the cumulative contiguous-receive count
	// (KindChunkAck), or the resume cursor (KindResumeReq).
	ChunkIndex uint32
	// ChunkCount is the total number of chunks in the transfer
	// (KindStateChunk).
	ChunkCount uint32
}

// CacheEntry is one client's cached reply, transferred in checkpoints so a
// new primary can answer retries of already-executed requests.
type CacheEntry struct {
	Client string
	ReqID  uint64
	Reply  []byte
}

// errBadMsg reports an undecodable replication envelope.
var errBadMsg = errors.New("replication: bad message")

// hasChunkCursor reports whether the envelope kind carries the trailing
// (ChunkIndex, ChunkCount) transfer-cursor fields.
func hasChunkCursor(k MsgKind) bool {
	return k == KindStateChunk || k == KindChunkAck || k == KindResumeReq
}

// Encode serializes m into one buffer of exactly the encoded size.
func Encode(m *Msg) []byte { return EncodeIn(transport.Room{}, m).Bytes() }

// EncodeIn serializes m into one buffer with room around it for the layers
// that carry it to wrap it in place (see gcs.Member.DirectRoom).
func EncodeIn(room transport.Room, m *Msg) transport.Buf {
	b := transport.NewBuf(room, msgHead+len(m.Viop)+msgTailSize(m))
	appendMsgTail(append(appendMsgHead(b.Bytes()[:0], m), m.Viop...), m)
	return b
}

// msgHead is the length of an envelope's encoding in front of its Viop
// bytes: the kind and their length prefix.
const msgHead = 1 + 4

// msgTailSize is the length of m's encoding behind its Viop bytes.
func msgTailSize(m *Msg) int {
	size := codec.SizeBytes(m.State) + 4 + 1 + 8 + 8 + 8 + 1 + 4 + 4 + codec.SizeString(m.Target)
	for _, c := range m.Cache {
		size += codec.SizeString(c.Client) + 8 + codec.SizeBytes(c.Reply)
	}
	if hasChunkCursor(m.Kind) {
		size += 8
	}
	return size
}

// appendMsgHead appends the msgHead bytes of m's encoding that precede its
// Viop bytes.
func appendMsgHead(b []byte, m *Msg) []byte {
	e := codec.AppendTo(b)
	e.PutUint8(uint8(m.Kind))
	e.PutUint32(uint32(len(m.Viop)))
	return e.Bytes()
}

// appendMsgTail appends the msgTailSize bytes of m's encoding that follow
// its Viop bytes.
func appendMsgTail(b []byte, m *Msg) []byte {
	e := codec.AppendTo(b)
	e.PutBytes(m.State)
	e.PutUint32(uint32(len(m.Cache)))
	for _, c := range m.Cache {
		e.PutString(c.Client)
		e.PutUint64(c.ReqID)
		e.PutBytes(c.Reply)
	}
	e.PutUint8(uint8(m.Style))
	e.PutUint64(m.SwitchID)
	e.PutUint64(m.CoveredSeq)
	e.PutUint64(m.CkptSerial)
	e.PutBool(m.Final)
	e.PutUint32(m.CheckpointEvery)
	// The retired metrics count: always zero, kept so that every envelope
	// encodes to the bytes it always has.
	e.PutUint32(0)
	e.PutString(m.Target)
	// The chunk cursor trails the envelope only for the transfer kinds,
	// so the hot request path carries no extra bytes.
	if hasChunkCursor(m.Kind) {
		e.PutUint32(m.ChunkIndex)
		e.PutUint32(m.ChunkCount)
	}
	return e.Bytes()
}

// Decode parses a replication envelope. Viop, State and the cache replies
// are sub-slices of b, not copies: read-only, and retaining one retains b.
// That is free where the field is about as large as the envelope (a logged
// request, a pending state, a transfer chunk); a holder that keeps a small
// field of a large envelope copies it (Engine.setCache).
func Decode(b []byte) (*Msg, error) {
	var m Msg
	if err := decode(b, nil, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// decode is Decode into *m, an envelope the caller owns (every field
// overwritten), reading the names an envelope carries — the clients of the
// cache entries and the retirement target — through names (see
// codec.Names): a backup is sent the same clients' entries with every
// checkpoint.
func decode(b []byte, names *codec.Names, m *Msg) error {
	*m = Msg{}
	d := codec.NewDecoder(b)
	kind, err := d.Uint8()
	if err != nil {
		return errBadMsg
	}
	m.Kind = MsgKind(kind)
	if m.Viop, err = d.Bytes(); err != nil {
		return err
	}
	if m.State, err = d.Bytes(); err != nil {
		return err
	}
	n, reserve, err := d.Count(4 + 8 + 4)
	if err != nil {
		return err
	}
	m.Cache = make([]CacheEntry, 0, reserve)
	for i := 0; i < n; i++ {
		var c CacheEntry
		if c.Client, err = d.Name(names); err != nil {
			return err
		}
		if c.ReqID, err = d.Uint64(); err != nil {
			return err
		}
		if c.Reply, err = d.Bytes(); err != nil {
			return err
		}
		m.Cache = append(m.Cache, c)
	}
	st, err := d.Uint8()
	if err != nil {
		return err
	}
	m.Style = Style(st)
	if m.SwitchID, err = d.Uint64(); err != nil {
		return err
	}
	if m.CoveredSeq, err = d.Uint64(); err != nil {
		return err
	}
	if m.CkptSerial, err = d.Uint64(); err != nil {
		return err
	}
	if m.Final, err = d.Bool(); err != nil {
		return err
	}
	if m.CheckpointEvery, err = d.Uint32(); err != nil {
		return err
	}
	if metrics, err := d.Uint32(); err != nil || metrics != 0 {
		return errBadMsg
	}
	if m.Target, err = d.Name(names); err != nil {
		return errBadMsg
	}
	if hasChunkCursor(m.Kind) {
		if m.ChunkIndex, err = d.Uint32(); err != nil {
			return errBadMsg
		}
		if m.ChunkCount, err = d.Uint32(); err != nil {
			return errBadMsg
		}
	}
	return nil
}

// WrapRequest builds the envelope the interceptor submits for a client
// request.
func WrapRequest(viop []byte) []byte {
	return Encode(&Msg{Kind: KindRequest, Viop: viop})
}

// requestTail is the length of a request envelope's encoding behind its
// VIOP bytes.
var requestTail = msgTailSize(&Msg{Kind: KindRequest})

// RequestRoom is the room a VIOP request needs around it to be wrapped in
// its envelope in place (WrapRequestIn) and then carried by a layer that
// needs room r.
func RequestRoom(r transport.Room) transport.Room { return r.Around(msgHead, requestTail) }

// WrapRequestIn is WrapRequest done in place: the envelope's header and
// trailer are written into the room around viop's bytes.
func WrapRequestIn(viop transport.Buf) transport.Buf {
	m := Msg{Kind: KindRequest, Viop: viop.Bytes()}
	head, tail := viop.Wrap(msgHead, requestTail)
	appendMsgHead(head[:0], &m)
	appendMsgTail(tail[:0], &m)
	return viop
}

// PeekRequestViop extracts the wrapped VIOP bytes from an encoded request
// envelope without a full decode, returning ok=false for other envelope
// kinds or malformed bytes. The composing layer uses it to derive causal
// trace keys from the VIOP identity riding every KindRequest frame. The
// result is a sub-slice of b: peeking costs no bytes.
func PeekRequestViop(b []byte) ([]byte, bool) {
	d := codec.NewDecoder(b)
	kind, err := d.Uint8()
	if err != nil || MsgKind(kind) != KindRequest {
		return nil, false
	}
	viop, err := d.Bytes()
	if err != nil || len(viop) == 0 {
		return nil, false
	}
	return viop, true
}
