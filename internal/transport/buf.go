package transport

import "versadep/internal/codec"

// Room is the space the layers outside a message reserve around it in its
// buffer: Head bytes in front for their headers, Tail bytes behind for their
// trailers.
type Room struct{ Head, Tail int }

// Around is the room a message needs inside a layer whose own header and
// trailer take head and tail bytes, when that layer's message needs r.
func (r Room) Around(head, tail int) Room { return Room{Head: r.Head + head, Tail: r.Tail + tail} }

// SealRoom is the room Conn.Seal fills: the protocol byte in front, the
// checksum trailer behind.
var SealRoom = Room{Head: Headroom, Tail: codec.SealOverhead}

// Buf is an outbound message and the room around it, in one allocation.
// The innermost encoder makes it (NewBuf) at the size of its own bytes plus
// the room the layers under it report; each of those layers then writes its
// header into the headroom and its trailer into the tailroom (Wrap), and
// Conn.Seal finishes the frame in place. So however many layers a message
// crosses, its payload is written once.
//
// A Buf is a value: a layer wraps its own copy, and the caller's still
// names the message it built. The room, though, is shared memory, and the
// first send spends it: the sealed frame around the message lives there,
// immutable, for as long as anyone holds it. A second send of the same
// message therefore goes through Clone, which copies it into a fresh
// buffer — never through the same Buf again.
type Buf struct {
	b        []byte // the allocation
	off, end int    // the message is b[off:end]
}

// NewBuf allocates a message of n zero bytes inside room r. The innermost
// encoder appends its encoding to Bytes()[:0], which writes in place.
func NewBuf(r Room, n int) Buf {
	return Buf{b: make([]byte, r.Head+n+r.Tail), off: r.Head, end: r.Head + n}
}

// CopyBuf returns msg copied into a fresh buffer inside room r.
func CopyBuf(r Room, msg []byte) Buf {
	m := NewBuf(r, len(msg))
	copy(m.Bytes(), msg)
	return m
}

// Bytes returns the message. Its capacity is clipped: an append by its
// holder reallocates instead of running into the trailers behind it.
func (m Buf) Bytes() []byte { return m.b[m.off:m.end:m.end] }

// Room returns the room left around the message.
func (m Buf) Room() Room { return Room{Head: m.off, Tail: len(m.b) - m.end} }

// Clone copies the message into a fresh buffer with the same room: how a
// message is sent a second time.
func (m Buf) Clone() Buf { return CopyBuf(m.Room(), m.Bytes()) }

// Wrap makes the message a layer's payload: it grows the message by head
// bytes in front and tail bytes behind and returns those two windows for
// the layer to write its header and trailer into. A buffer built with too
// little room for them is first copied into one with enough — correct, but
// the copy the room was there to save.
func (m *Buf) Wrap(head, tail int) (h, t []byte) {
	if room := m.Room(); room.Head < head || room.Tail < tail {
		*m = CopyBuf(Room{Head: max(room.Head, head), Tail: max(room.Tail, tail)}, m.Bytes())
	}
	m.off -= head
	m.end += tail
	return m.b[m.off : m.off+head : m.off+head], m.b[m.end-tail : m.end : m.end]
}
