package codec

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
)

// This file is the wire-frame layer of the codec: checksummed envelopes
// for both transports. The paper's fault model (§3.1) includes message
// corruption alongside loss and delay; the stance here is drop-and-count —
// a frame whose checksum fails is discarded exactly like a lost datagram
// (the upper layers' retransmission machinery recovers), never delivered
// upward and never allowed to desynchronize a length-prefixed stream.

// Checksum errors.
var (
	// ErrChecksum reports a frame whose CRC does not cover its bytes —
	// the wire flipped something between sender and receiver.
	ErrChecksum = errors.New("codec: frame checksum mismatch")
	// ErrFrame reports a structurally malformed frame (bad internal
	// lengths), distinct from a checksum miss so transports can tell
	// damage from protocol violations.
	ErrFrame = errors.New("codec: malformed frame")
)

// crcTable is the Castagnoli polynomial, hardware-accelerated on the
// platforms we run on.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// SealOverhead is the size of the trailer AppendChecksum adds. Transports
// that charge calibrated virtual time for payload bytes exclude it from
// accounting, the way the paper's 100 Mb/s bandwidth figures exclude
// link-layer framing such as the Ethernet FCS.
const SealOverhead = 4

// AppendChecksum appends the CRC32-C of b to b and returns the extended
// slice. Pair with VerifyChecksum on the receiving side.
func AppendChecksum(b []byte) []byte {
	return binary.BigEndian.AppendUint32(b, crc32.Checksum(b, crcTable))
}

// VerifyChecksum checks the trailing CRC32-C appended by AppendChecksum
// and returns the body with the checksum stripped. It returns ErrChecksum
// if the CRC does not match and ErrFrame if b is too short to carry one.
func VerifyChecksum(b []byte) ([]byte, error) {
	if len(b) < 4 {
		return nil, ErrFrame
	}
	body := b[:len(b)-4]
	want := binary.BigEndian.Uint32(b[len(b)-4:])
	if crc32.Checksum(body, crcTable) != want {
		return nil, ErrChecksum
	}
	return body, nil
}

// Frame is one transport-level envelope: the sender's logical name, its
// advertised listening address (for dynamic peer learning), the opaque
// payload, and the sender's virtual timestamp.
type Frame struct {
	From     string
	FromAddr string
	Payload  []byte
	SentAt   int64
}

// frameOverhead is the fixed part of an encoded frame body:
// u32 crc | i64 sentAt | u16 fromLen | u16 addrLen.
const frameOverhead = 4 + 8 + 2 + 2

// FrameSize is the length of f's encoded body.
func FrameSize(f Frame) int { return FrameHeaderSize(f) + len(f.Payload) }

// FrameHeaderSize is the length of f's encoded body in front of its
// payload.
func FrameHeaderSize(f Frame) int { return frameOverhead + len(f.From) + len(f.FromAddr) }

// PutFrameHeader writes the FrameHeaderSize(f) bytes of f's body that
// precede its payload into buf. The body is
//
//	u32 crc | i64 sentAt | u16 fromLen | from | u16 addrLen | addr | payload
//
// where crc is the CRC32-C of everything after it, payload included — so a
// stream transport writes header and payload as two pieces of one frame,
// without copying the payload behind its header. The body carries no outer
// length prefix; stream transports add their own (and bound it).
func PutFrameHeader(buf []byte, f Frame) {
	off := 4
	binary.BigEndian.PutUint64(buf[off:], uint64(f.SentAt))
	off += 8
	binary.BigEndian.PutUint16(buf[off:], uint16(len(f.From)))
	off += 2
	copy(buf[off:], f.From)
	off += len(f.From)
	binary.BigEndian.PutUint16(buf[off:], uint16(len(f.FromAddr)))
	off += 2
	copy(buf[off:], f.FromAddr)
	off += len(f.FromAddr)
	crc := crc32.Update(crc32.Checksum(buf[4:off], crcTable), crcTable, f.Payload)
	binary.BigEndian.PutUint32(buf, crc)
}

// DecodeFrame parses a frame body, reading its sender's names through names
// (see Names; nil makes fresh copies). It returns ErrFrame for structural
// damage (truncation, internal lengths exceeding the body) and ErrChecksum
// when the structure is intact but the CRC does not cover the bytes. The
// returned payload aliases buf.
func DecodeFrame(buf []byte, names *Names) (Frame, error) {
	if len(buf) < frameOverhead {
		return Frame{}, ErrFrame
	}
	want := binary.BigEndian.Uint32(buf)
	body := buf[4:]
	sentAt := int64(binary.BigEndian.Uint64(body))
	off := 8
	fromLen := int(binary.BigEndian.Uint16(body[off:]))
	off += 2
	if off+fromLen+2 > len(body) {
		return Frame{}, ErrFrame
	}
	from := body[off : off+fromLen]
	off += fromLen
	addrLen := int(binary.BigEndian.Uint16(body[off:]))
	off += 2
	if off+addrLen > len(body) {
		return Frame{}, ErrFrame
	}
	addr := body[off : off+addrLen]
	off += addrLen
	if crc32.Checksum(body, crcTable) != want {
		return Frame{}, ErrChecksum
	}
	return Frame{
		From:     names.Intern(from),
		FromAddr: names.Intern(addr),
		Payload:  body[off:],
		SentAt:   sentAt,
	}, nil
}
