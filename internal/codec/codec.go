// Package codec implements the binary marshaling format used by the
// versadep ORB, checkpoints and group-communication payloads.
//
// It plays the role CDR (Common Data Representation) plays for CORBA GIOP in
// the paper: a self-contained, deterministic binary encoding of primitive
// values and simple aggregates. Encoding is big-endian with explicit type
// tags, so a decoder can validate the stream without out-of-band schema
// information — exactly what the interceptor needs to examine application
// messages it did not produce.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// Value kinds. They start at one so the zero Kind is invalid and corrupt
// streams fail loudly.
const (
	KindNull Kind = iota + 1
	KindBool
	KindInt64
	KindUint64
	KindFloat64
	KindString
	KindBytes
	KindList
	KindMap
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindInt64:
		return "int64"
	case KindUint64:
		return "uint64"
	case KindFloat64:
		return "float64"
	case KindString:
		return "string"
	case KindBytes:
		return "bytes"
	case KindList:
		return "list"
	case KindMap:
		return "map"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed datum: the unit of ORB request arguments and
// results. Exactly one field (selected by Kind) is meaningful.
type Value struct {
	Kind Kind
	Bool bool
	Int  int64
	Uint uint64
	F64  float64
	Str  string
	Byt  []byte
	List []Value
	Map  map[string]Value
}

// Convenience constructors.

// Null returns the null value.
func Null() Value { return Value{Kind: KindNull} }

// Bool wraps b.
func Bool(b bool) Value { return Value{Kind: KindBool, Bool: b} }

// Int wraps i.
func Int(i int64) Value { return Value{Kind: KindInt64, Int: i} }

// Uint wraps u.
func Uint(u uint64) Value { return Value{Kind: KindUint64, Uint: u} }

// Float wraps f.
func Float(f float64) Value { return Value{Kind: KindFloat64, F64: f} }

// String wraps s.
func String(s string) Value { return Value{Kind: KindString, Str: s} }

// Bytes wraps b without copying; callers must not mutate b afterwards.
func Bytes(b []byte) Value { return Value{Kind: KindBytes, Byt: b} }

// List wraps vs without copying.
func List(vs ...Value) Value { return Value{Kind: KindList, List: vs} }

// Map wraps m without copying.
func Map(m map[string]Value) Value { return Value{Kind: KindMap, Map: m} }

// Errors returned by the decoder.
var (
	// ErrTruncated reports a stream that ended mid-value.
	ErrTruncated = errors.New("codec: truncated stream")
	// ErrBadTag reports an unknown type tag.
	ErrBadTag = errors.New("codec: invalid type tag")
	// ErrTooLarge reports a length prefix exceeding the remaining stream,
	// guarding against hostile or corrupt length fields.
	ErrTooLarge = errors.New("codec: declared length exceeds stream")
	// ErrTrailing reports unconsumed bytes after a complete top-level value.
	ErrTrailing = errors.New("codec: trailing bytes after value")
)

// Encoder appends the versadep binary encoding to an internal buffer.
// The zero value is ready to use.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder with capacity for size bytes. Callers that
// pass the exact encoded length (see the Size helpers) pay one allocation
// and no regrowth however large the message.
func NewEncoder(size int) *Encoder {
	return &Encoder{buf: make([]byte, 0, size)}
}

// AppendTo returns an encoder that appends to buf, taking ownership of it:
// the way an outermost encoder writes behind headroom its transport
// reserved, into capacity sized for the whole message.
func AppendTo(buf []byte) *Encoder {
	return &Encoder{buf: buf}
}

// SizeString is the encoded length of a length-prefixed string.
func SizeString(s string) int { return 4 + len(s) }

// SizeBytes is the encoded length of a length-prefixed byte slice.
func SizeBytes(b []byte) int { return 4 + len(b) }

// SizeValue is the encoded length of PutValue(v).
func SizeValue(v Value) int {
	switch v.Kind {
	case KindBool:
		return 2
	case KindInt64, KindUint64, KindFloat64:
		return 9
	case KindString:
		return 1 + SizeString(v.Str)
	case KindBytes:
		return 1 + SizeBytes(v.Byt)
	case KindList:
		n := 5
		for _, item := range v.List {
			n += SizeValue(item)
		}
		return n
	case KindMap:
		n := 5
		for k, item := range v.Map {
			n += SizeString(k) + SizeValue(item)
		}
		return n
	default: // null, and invalid kinds (encoded as null)
		return 1
	}
}

// Bytes returns the encoded stream. The slice aliases the encoder's buffer.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len reports the number of encoded bytes so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset discards the encoded contents, retaining capacity.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// PutUint8 appends one byte.
func (e *Encoder) PutUint8(v uint8) { e.buf = append(e.buf, v) }

// PutUint32 appends v in big-endian order.
func (e *Encoder) PutUint32(v uint32) {
	e.buf = binary.BigEndian.AppendUint32(e.buf, v)
}

// PutUint64 appends v in big-endian order.
func (e *Encoder) PutUint64(v uint64) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, v)
}

// PutInt64 appends v as its two's-complement bits.
func (e *Encoder) PutInt64(v int64) { e.PutUint64(uint64(v)) }

// PutFloat64 appends the IEEE-754 bits of v.
func (e *Encoder) PutFloat64(v float64) { e.PutUint64(math.Float64bits(v)) }

// PutBool appends v as one byte.
func (e *Encoder) PutBool(v bool) {
	if v {
		e.PutUint8(1)
	} else {
		e.PutUint8(0)
	}
}

// PutString appends a length-prefixed string.
func (e *Encoder) PutString(s string) {
	e.PutUint32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// PutBytes appends a length-prefixed byte slice.
func (e *Encoder) PutBytes(b []byte) {
	e.PutUint32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// PutValue appends the tagged encoding of v. Map keys are encoded in sorted
// order so that equal maps produce identical bytes — determinism matters
// because active replicas compare and vote on encoded replies.
func (e *Encoder) PutValue(v Value) {
	e.PutUint8(uint8(v.Kind))
	switch v.Kind {
	case KindNull:
	case KindBool:
		e.PutBool(v.Bool)
	case KindInt64:
		e.PutInt64(v.Int)
	case KindUint64:
		e.PutUint64(v.Uint)
	case KindFloat64:
		e.PutFloat64(v.F64)
	case KindString:
		e.PutString(v.Str)
	case KindBytes:
		e.PutBytes(v.Byt)
	case KindList:
		e.PutUint32(uint32(len(v.List)))
		for _, item := range v.List {
			e.PutValue(item)
		}
	case KindMap:
		e.PutUint32(uint32(len(v.Map)))
		keys := make([]string, 0, len(v.Map))
		for k := range v.Map {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			e.PutString(k)
			e.PutValue(v.Map[k])
		}
	default:
		// An invalid kind is a programming error in the caller; encode it
		// as null so the stream stays parseable and tests catch it.
		e.buf[len(e.buf)-1] = uint8(KindNull)
	}
}

// Decoder consumes a versadep-encoded stream.
type Decoder struct {
	buf []byte
	off int
}

// NewDecoder wraps b without copying.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Remaining reports how many bytes are left unconsumed.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) need(n int) error {
	if d.Remaining() < n {
		return ErrTruncated
	}
	return nil
}

// maxReserve caps the capacity a decoder reserves from a count the wire
// supplies.
const maxReserve = 64

// Count consumes the u32 count of a sequence whose entries each encode to
// at least minEntry bytes (minEntry ≥ 1), and rejects with ErrTooLarge a
// count the bytes left cannot hold. reserve is the capacity to allocate for
// the entries up front: the count, but never more than a small constant —
// the count is outside input, so a longer sequence grows by append as its
// entries decode, and a count that lies costs no more than the bytes that
// back it.
func (d *Decoder) Count(minEntry int) (n, reserve int, err error) {
	c, err := d.Uint32()
	if err != nil {
		return 0, 0, err
	}
	if uint64(c)*uint64(minEntry) > uint64(d.Remaining()) {
		return 0, 0, ErrTooLarge
	}
	return int(c), min(int(c), maxReserve), nil
}

// MinValueSize is the length of the shortest encoded Value: a null's tag.
const MinValueSize = 1

// Uint8 consumes one byte.
func (d *Decoder) Uint8() (uint8, error) {
	if err := d.need(1); err != nil {
		return 0, err
	}
	v := d.buf[d.off]
	d.off++
	return v, nil
}

// Uint32 consumes a big-endian uint32.
func (d *Decoder) Uint32() (uint32, error) {
	if err := d.need(4); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v, nil
}

// Uint64 consumes a big-endian uint64.
func (d *Decoder) Uint64() (uint64, error) {
	if err := d.need(8); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v, nil
}

// Int64 consumes a two's-complement int64.
func (d *Decoder) Int64() (int64, error) {
	v, err := d.Uint64()
	return int64(v), err
}

// Float64 consumes IEEE-754 bits.
func (d *Decoder) Float64() (float64, error) {
	v, err := d.Uint64()
	return math.Float64frombits(v), err
}

// Bool consumes one byte as a boolean.
func (d *Decoder) Bool() (bool, error) {
	v, err := d.Uint8()
	return v != 0, err
}

// String consumes a length-prefixed string.
func (d *Decoder) String() (string, error) { return d.Name(nil) }

// Names is a bounded table of the short strings a wire repeats — node
// addresses, client ids, object and operation names — so that a name is
// materialised once per owner and not once per message: Decoder.Name
// answers a name the table holds with the string already made, and the
// lookup allocates nothing. What fills it is outside input, so it never
// grows past MaxNames entries of at most MaxNameLen bytes: a longer name,
// or a new one offered to a full table, comes back as a fresh copy and is
// not retained. Nothing is ever evicted. The zero value is ready to use; a
// table is not safe for concurrent use and belongs to whatever already
// serialises its decoder. A nil *Names retains nothing.
type Names struct {
	m map[string]string
}

// Bounds of a Names table.
const (
	MaxNames   = 1024
	MaxNameLen = 64
)

// Intern returns b as a string: the retained one when the table holds it,
// otherwise a copy, retained if the bounds allow. The result never aliases
// b.
func (t *Names) Intern(b []byte) string {
	if t == nil || len(b) == 0 {
		return string(b)
	}
	if s, ok := t.m[string(b)]; ok { // no allocation: the conversion only keys the lookup
		return s
	}
	s := string(b)
	if len(s) <= MaxNameLen && len(t.m) < MaxNames {
		if t.m == nil {
			t.m = make(map[string]string)
		}
		t.m[s] = s
	}
	return s
}

// Name consumes a length-prefixed string through t (see Names); with a nil
// table it is String.
func (d *Decoder) Name(t *Names) (string, error) {
	b, err := d.Bytes()
	if err != nil {
		return "", err
	}
	return t.Intern(b), nil
}

// Bytes consumes a length-prefixed byte slice and returns it as a
// sub-slice of the stream: no bytes are copied. The result is read-only —
// it shares memory with whoever else holds the stream — and retaining it
// retains the whole stream, so a holder that keeps a small field of a
// large stream copies it. Its capacity is clipped to its length: an append
// reallocates instead of overwriting the bytes that follow.
func (d *Decoder) Bytes() ([]byte, error) {
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if uint64(n) > uint64(d.Remaining()) {
		return nil, ErrTooLarge
	}
	end := d.off + int(n)
	out := d.buf[d.off:end:end]
	d.off = end
	return out, nil
}

// BytesCopy is Bytes returning a copy: memory the caller owns, may write
// to, and may retain without pinning the stream.
func (d *Decoder) BytesCopy() ([]byte, error) {
	b, err := d.Bytes()
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out, nil
}

// Value consumes one tagged value. Its bytes, at any depth of a list or
// map, are copies (see BytesCopy): memory the caller owns, may write to,
// and may keep past the stream — what a client's results, a checkpoint and
// DecodeValue hand on.
func (d *Decoder) Value() (Value, error) { return d.value(false) }

// ValueView is Value with its bytes, at any depth of a list or map, views
// (see Bytes): read-only windows onto the stream, clipped to their length.
// It is how a servant's arguments are decoded — the CORBA in-parameter
// rule: read them during the call, copy whatever is kept, never write to
// them.
func (d *Decoder) ValueView() (Value, error) { return d.value(true) }

// value consumes one tagged value, with its bytes views of the stream if
// view is set and copies otherwise.
func (d *Decoder) value(view bool) (Value, error) {
	tag, err := d.Uint8()
	if err != nil {
		return Value{}, err
	}
	switch Kind(tag) {
	case KindNull:
		return Null(), nil
	case KindBool:
		b, err := d.Bool()
		return Bool(b), err
	case KindInt64:
		i, err := d.Int64()
		return Int(i), err
	case KindUint64:
		u, err := d.Uint64()
		return Uint(u), err
	case KindFloat64:
		f, err := d.Float64()
		return Float(f), err
	case KindString:
		s, err := d.String()
		return String(s), err
	case KindBytes:
		if view {
			b, err := d.Bytes()
			return Bytes(b), err
		}
		b, err := d.BytesCopy()
		return Bytes(b), err
	case KindList:
		n, reserve, err := d.Count(MinValueSize)
		if err != nil {
			return Value{}, err
		}
		items := make([]Value, 0, reserve)
		for i := 0; i < n; i++ {
			item, err := d.value(view)
			if err != nil {
				return Value{}, err
			}
			items = append(items, item)
		}
		return List(items...), nil
	case KindMap:
		n, reserve, err := d.Count(4 + MinValueSize)
		if err != nil {
			return Value{}, err
		}
		m := make(map[string]Value, reserve)
		for i := 0; i < n; i++ {
			k, err := d.String()
			if err != nil {
				return Value{}, err
			}
			v, err := d.value(view)
			if err != nil {
				return Value{}, err
			}
			m[k] = v
		}
		return Map(m), nil
	default:
		return Value{}, fmt.Errorf("%w: %d", ErrBadTag, tag)
	}
}

// EncodeValue returns the standalone encoding of v.
func EncodeValue(v Value) []byte {
	e := NewEncoder(SizeValue(v))
	e.PutValue(v)
	return e.Bytes()
}

// DecodeValue parses a standalone encoding produced by EncodeValue. The
// entire input must be consumed.
func DecodeValue(b []byte) (Value, error) {
	d := NewDecoder(b)
	v, err := d.Value()
	if err != nil {
		return Value{}, err
	}
	if d.Remaining() != 0 {
		return Value{}, ErrTrailing
	}
	return v, nil
}

// Equal reports deep equality of two values. NaN floats compare equal to
// themselves so that voting on replies containing NaN is stable.
func Equal(a, b Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case KindNull:
		return true
	case KindBool:
		return a.Bool == b.Bool
	case KindInt64:
		return a.Int == b.Int
	case KindUint64:
		return a.Uint == b.Uint
	case KindFloat64:
		return a.F64 == b.F64 ||
			(math.IsNaN(a.F64) && math.IsNaN(b.F64))
	case KindString:
		return a.Str == b.Str
	case KindBytes:
		if len(a.Byt) != len(b.Byt) {
			return false
		}
		for i := range a.Byt {
			if a.Byt[i] != b.Byt[i] {
				return false
			}
		}
		return true
	case KindList:
		if len(a.List) != len(b.List) {
			return false
		}
		for i := range a.List {
			if !Equal(a.List[i], b.List[i]) {
				return false
			}
		}
		return true
	case KindMap:
		if len(a.Map) != len(b.Map) {
			return false
		}
		for k, av := range a.Map {
			bv, ok := b.Map[k]
			if !ok || !Equal(av, bv) {
				return false
			}
		}
		return true
	default:
		return false
	}
}
