package tcptransport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"versadep/internal/alloctest"
	"versadep/internal/codec"
	"versadep/internal/vtime"
)

// wireFrame is a frame as it lies on the stream: its head — the length
// prefix and the codec frame body up to the payload — then its payload.
type wireFrame struct {
	head, payload []byte
}

// encodeFrame is the framing a sender used to make per frame, a header
// buffer of its own, kept as the reference the sender's stream must match.
func encodeFrame(from, fromAddr string, payload []byte, sentAt vtime.Time) wireFrame {
	f := codec.Frame{From: from, FromAddr: fromAddr, Payload: payload, SentAt: int64(sentAt)}
	head := make([]byte, 4+codec.FrameHeaderSize(f))
	binary.BigEndian.PutUint32(head, uint32(codec.FrameSize(f)))
	codec.PutFrameHeader(head[4:], f)
	return wireFrame{head: head, payload: payload}
}

// streamOf is what the frames put on the stream: each one's head and
// payload, back to back.
func streamOf(frames ...wireFrame) []byte {
	var b []byte
	for _, f := range frames {
		b = append(append(b, f.head...), f.payload...)
	}
	return b
}

// oneBufferFrame is the framing the vector replaced, kept as the reference
// the stream must match: the length prefix and the whole checksummed body
// (u32 crc | i64 sentAt | u16 fromLen | from | u16 addrLen | addr |
// payload, the CRC32-C covering everything after it) in one buffer.
func oneBufferFrame(from, fromAddr string, payload []byte, sentAt int64) []byte {
	body := make([]byte, 4, 4+8+2+len(from)+2+len(fromAddr)+len(payload))
	body = binary.BigEndian.AppendUint64(body, uint64(sentAt))
	body = binary.BigEndian.AppendUint16(body, uint16(len(from)))
	body = append(body, from...)
	body = binary.BigEndian.AppendUint16(body, uint16(len(fromAddr)))
	body = append(body, fromAddr...)
	body = append(body, payload...)
	binary.BigEndian.PutUint32(body, crc32.Checksum(body[4:], crc32.MakeTable(crc32.Castagnoli)))
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// recorder is a connection that keeps what is written to it.
type recorder struct {
	net.Conn
	got bytes.Buffer
}

func (c *recorder) Write(b []byte) (int, error) { return c.got.Write(b) }
func (c *recorder) Close() error                { return nil }

// TestFramingOneBuffer: a sender formats the heads of a batch into one
// buffer it keeps, so once that buffer has grown framing a batch allocates
// nothing, and each payload is the vector entry after its head — never a
// copy of it.
func TestFramingOneBuffer(t *testing.T) {
	e := &Endpoint{name: "ra", bound: "127.0.0.1:7301"}
	p := newPeerSender(e, "")
	batch := make([]outFrame, 8)
	for i := range batch {
		batch[i] = outFrame{payload: make([]byte, 200<<i), sentAt: vtime.Time(i)}
	}
	var iov [][]byte
	if allocs := testing.AllocsPerRun(20, func() { iov = p.vector(batch) }); allocs != 0 {
		t.Errorf("framing a batch of %d: %v allocations, want 0", len(batch), allocs)
	}
	head := 4 + 4 + 8 + 2 + len("ra") + 2 + len("127.0.0.1:7301")
	if e.headSize() != head || len(p.heads) != head*len(batch) {
		t.Errorf("heads of %d bytes in a %d byte buffer, want %d each", e.headSize(), len(p.heads), head)
	}
	for i, f := range batch {
		if &iov[2*i][0] != &p.heads[i*head] || len(iov[2*i]) != head {
			t.Errorf("frame %d: its head is not its slot of the sender's buffer", i)
		}
		if &iov[2*i+1][0] != &f.payload[0] || len(iov[2*i+1]) != len(f.payload) {
			t.Errorf("frame %d: the payload was copied", i)
		}
	}
}

// TestStreamBytesUnchanged: for random batches the sender puts on the
// stream, frame by frame, exactly the bytes of the per-frame framing it
// replaced, and those are the bytes of the one-buffer framing before it.
func TestStreamBytesUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	str := func(max int) string {
		b := make([]byte, rng.Intn(max+1))
		rng.Read(b)
		return string(b)
	}
	for i := 0; i < 50; i++ {
		e := &Endpoint{name: str(24), bound: str(40)}
		p := newPeerSender(e, "")
		conn := &recorder{}
		p.conn = conn
		batch := make([]outFrame, 1+rng.Intn(8))
		for j := range batch {
			batch[j] = outFrame{payload: []byte(str(1 << rng.Intn(14))), sentAt: vtime.Time(rng.Int63() - rng.Int63())}
		}
		if unsent := p.send(batch); unsent != 0 {
			t.Fatalf("batch %d: %d frames unsent", i, unsent)
		}
		stream := conn.got.Bytes()
		for j, f := range batch {
			ref := encodeFrame(e.name, e.bound, f.payload, f.sentAt)
			want := streamOf(ref)
			if !bytes.Equal(want, oneBufferFrame(e.name, e.bound, f.payload, int64(f.sentAt))) {
				t.Fatalf("batch %d frame %d: the reference framing changed", i, j)
			}
			if len(stream) < len(want) || !bytes.Equal(stream[:len(want)], want) {
				t.Fatalf("batch %d frame %d (%d B payload): stream bytes changed:\n got %x\nwant %x",
					i, j, len(f.payload), stream[:min(len(stream), len(want))], want)
			}
			stream = stream[len(want):]
		}
		if len(stream) != 0 {
			t.Fatalf("batch %d: %d bytes after the last frame", i, len(stream))
		}
	}
}

// sink listens on loopback and reads whatever is sent to it, counting the
// bytes; it allocates nothing per read.
func sink(t *testing.T) (addr string, got *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	got = new(atomic.Int64)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 64<<10)
		for {
			n, err := conn.Read(buf)
			got.Add(int64(n))
			if err != nil {
				return
			}
		}
	}()
	return ln.Addr().String(), got
}

// TestSendCopiesNoPayload: Send queues the sealed payload itself; the only
// bytes it allocates are the frame's header, whatever the payload's size.
func TestSendCopiesNoPayload(t *testing.T) {
	addr, _ := sink(t)
	e, err := Listen("a", "127.0.0.1:0", map[string]string{"b": addr})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const size = 64 << 10
	payload := make([]byte, size)
	perSend := alloctest.BytesPerRun(50, func() { _ = e.Send("b", payload, 0) })
	if perSend > size/8 {
		t.Errorf("sending a %d B payload allocates %.0f B: the payload is copied", size, perSend)
	}
}

// TestSendAllocatesNothing: on a connected endpoint a send allocates
// nothing. The frame waits in the queue as its payload and send instant;
// its head is formatted by the sender, into a buffer it reuses, and the
// endpoint's own address, which every frame carries, is formatted once.
func TestSendAllocatesNothing(t *testing.T) {
	addr, got := sink(t)
	e, err := Listen("a", "127.0.0.1:0", map[string]string{"b": addr})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	payload := make([]byte, 200)
	deadline := time.Now().Add(5 * time.Second)
	for got.Load() == 0 { // dialed, and the sender's buffers grown
		if time.Now().After(deadline) {
			t.Fatal("the peer never received a frame")
		}
		_ = e.Send("b", payload, 0)
		time.Sleep(time.Millisecond)
	}
	if allocs := testing.AllocsPerRun(200, func() { _ = e.Send("b", payload, 0) }); allocs != 0 {
		t.Errorf("a send on a connected endpoint: %v allocations, want 0", allocs)
	}
}

// TestReadFrameHandsItsBufferUp: the one buffer a frame is read into is
// what travels upward; the payload is not copied out of it.
func TestReadFrameHandsItsBufferUp(t *testing.T) {
	const size = 64 << 10
	stream := streamOf(encodeFrame("ra", "127.0.0.1:7301", make([]byte, size), 0))
	r := bytes.NewReader(stream)
	br := bufio.NewReader(r)
	perRead := alloctest.BytesPerRun(20, func() {
		r.Reset(stream)
		br.Reset(r)
		f, err := readFrame(br, nil)
		if err != nil || len(f.Payload) != size {
			t.Fatalf("readFrame: %d payload bytes, err %v", len(f.Payload), err)
		}
	})
	// One buffer of the frame's size, rounded up to whole pages by the
	// allocator; a second copy of the payload would double it.
	if perRead > size*3/2 {
		t.Errorf("reading a %d B frame allocates %.0f B: the payload is copied", size, perRead)
	}
}

// TestWarmReaderAllocatesOnlyTheFrame: a connection's reader decodes its
// senders' names through one table, so once it has met them a frame costs
// one allocation, the buffer it is read into, and every frame of a sender
// carries the same name strings.
func TestWarmReaderAllocatesOnlyTheFrame(t *testing.T) {
	stream := streamOf(encodeFrame("ra", "127.0.0.1:7301", make([]byte, 200), 0))
	r := bytes.NewReader(stream)
	br := bufio.NewReader(r)
	var names codec.Names
	read := func() codec.Frame {
		r.Reset(stream)
		br.Reset(r)
		f, err := readFrame(br, &names)
		if err != nil || f.From != "ra" || f.FromAddr != "127.0.0.1:7301" {
			t.Fatalf("readFrame: %+v, err %v", f, err)
		}
		return f
	}
	first := read()
	if allocs := testing.AllocsPerRun(100, func() { read() }); allocs != 1 {
		t.Errorf("a frame through a warmed reader: %v allocations, want 1 (the frame buffer)", allocs)
	}
	if next := read(); unsafe.StringData(next.From) != unsafe.StringData(first.From) ||
		unsafe.StringData(next.FromAddr) != unsafe.StringData(first.FromAddr) {
		t.Error("a sender's names were made again for a later frame")
	}
}
