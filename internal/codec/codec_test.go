package codec

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"versadep/internal/alloctest"
)

func roundTrip(t *testing.T, v Value) Value {
	t.Helper()
	got, err := DecodeValue(EncodeValue(v))
	if err != nil {
		t.Fatalf("decode(%v): %v", v.Kind, err)
	}
	return got
}

func TestRoundTripPrimitives(t *testing.T) {
	cases := []Value{
		Null(),
		Bool(true),
		Bool(false),
		Int(0),
		Int(-1),
		Int(math.MaxInt64),
		Int(math.MinInt64),
		Uint(0),
		Uint(math.MaxUint64),
		Float(0),
		Float(-3.25),
		Float(math.Inf(1)),
		Float(math.Inf(-1)),
		String(""),
		String("héllo, wörld"),
		Bytes(nil),
		Bytes([]byte{0, 1, 2, 255}),
	}
	for _, v := range cases {
		got := roundTrip(t, v)
		if !Equal(v, got) {
			t.Errorf("round trip changed %v: %+v -> %+v", v.Kind, v, got)
		}
	}
}

func TestRoundTripNaN(t *testing.T) {
	got := roundTrip(t, Float(math.NaN()))
	if !math.IsNaN(got.F64) {
		t.Fatalf("NaN round trip produced %v", got.F64)
	}
	if !Equal(Float(math.NaN()), got) {
		t.Fatal("Equal should treat NaN == NaN")
	}
}

func TestRoundTripAggregates(t *testing.T) {
	v := List(
		Int(1),
		String("two"),
		List(Bool(true), Null()),
		Map(map[string]Value{
			"a": Float(1.5),
			"b": Bytes([]byte("payload")),
			"c": List(Int(9)),
		}),
	)
	got := roundTrip(t, v)
	if !Equal(v, got) {
		t.Fatalf("aggregate round trip mismatch:\n in: %+v\nout: %+v", v, got)
	}
}

func TestMapEncodingDeterministic(t *testing.T) {
	// Two maps built in different insertion orders must encode identically;
	// active replicas vote on encoded replies.
	m1 := map[string]Value{}
	m2 := map[string]Value{}
	keys := []string{"zeta", "alpha", "mid", "beta", "omega"}
	for i, k := range keys {
		m1[k] = Int(int64(i))
	}
	for i := len(keys) - 1; i >= 0; i-- {
		m2[keys[i]] = Int(int64(i))
	}
	b1 := EncodeValue(Map(m1))
	b2 := EncodeValue(Map(m2))
	if !reflect.DeepEqual(b1, b2) {
		t.Fatal("map encoding depends on insertion order")
	}
}

func TestTruncatedStreams(t *testing.T) {
	full := EncodeValue(List(Int(1), String("hello"), Bytes([]byte{1, 2, 3})))
	for i := 0; i < len(full); i++ {
		if _, err := DecodeValue(full[:i]); err == nil {
			t.Fatalf("decoding %d/%d bytes succeeded", i, len(full))
		}
	}
}

func TestTrailingBytes(t *testing.T) {
	b := append(EncodeValue(Int(5)), 0xFF)
	if _, err := DecodeValue(b); !errors.Is(err, ErrTrailing) {
		t.Fatalf("err = %v, want ErrTrailing", err)
	}
}

func TestBadTag(t *testing.T) {
	if _, err := DecodeValue([]byte{0xEE}); !errors.Is(err, ErrBadTag) {
		t.Fatalf("err = %v, want ErrBadTag", err)
	}
	if _, err := DecodeValue([]byte{0x00}); !errors.Is(err, ErrBadTag) {
		t.Fatalf("zero tag err = %v, want ErrBadTag", err)
	}
}

func TestHostileLengthPrefix(t *testing.T) {
	// A string claiming 4 GiB of content must fail fast, not allocate.
	e := NewEncoder(8)
	e.PutUint8(uint8(KindString))
	e.PutUint32(0xFFFFFFFF)
	if _, err := DecodeValue(e.Bytes()); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
	// Same for a list claiming 4 billion elements.
	e.Reset()
	e.PutUint8(uint8(KindList))
	e.PutUint32(0xFFFFFFFF)
	if _, err := DecodeValue(e.Bytes()); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("list err = %v, want ErrTooLarge", err)
	}
}

// hostileCount is a 1 MB value of the given kind whose count claims as
// many entries as the bytes behind it hold at minEntry bytes each, and
// whose entries are all zero bytes — so the first one to decode fails (tag
// 0 is no kind).
func hostileCount(kind Kind, minEntry int) []byte {
	const size = 1 << 20
	b := make([]byte, size)
	b[0] = uint8(kind)
	binary.BigEndian.PutUint32(b[1:], uint32((size-5)/minEntry))
	return b
}

// TestHostileCountAllocatesLittle: a count the wire supplies is an upper
// bound an attacker picks, so a rejected list or map costs at most a few
// times the bytes it arrived in — never a reservation sized by the count.
func TestHostileCountAllocatesLittle(t *testing.T) {
	for _, c := range []struct {
		name     string
		kind     Kind
		minEntry int
	}{
		{"list", KindList, MinValueSize},
		{"map", KindMap, 4 + MinValueSize},
		{"map counted as a list", KindMap, MinValueSize},
	} {
		in := hostileCount(c.kind, c.minEntry)
		var err error
		got := alloctest.BytesPerRun(3, func() { _, err = DecodeValue(in) })
		if err == nil {
			t.Fatalf("%s: a hostile count was accepted", c.name)
		}
		if limit := 4 * float64(len(in)); got > limit {
			t.Errorf("%s: rejecting %d B allocated %.0f B, want ≤ %.0f", c.name, len(in), got, limit)
		}
	}
}

func TestInvalidKindEncodesAsNull(t *testing.T) {
	got, err := DecodeValue(EncodeValue(Value{Kind: Kind(99)}))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Kind != KindNull {
		t.Fatalf("invalid kind decoded as %v, want null", got.Kind)
	}
}

func TestDecoderPrimitivesDirect(t *testing.T) {
	e := NewEncoder(0)
	e.PutUint8(7)
	e.PutUint32(70000)
	e.PutUint64(1 << 40)
	e.PutInt64(-12)
	e.PutFloat64(2.5)
	e.PutBool(true)
	e.PutString("abc")
	e.PutBytes([]byte{9})

	d := NewDecoder(e.Bytes())
	if v, _ := d.Uint8(); v != 7 {
		t.Fatalf("Uint8 = %d", v)
	}
	if v, _ := d.Uint32(); v != 70000 {
		t.Fatalf("Uint32 = %d", v)
	}
	if v, _ := d.Uint64(); v != 1<<40 {
		t.Fatalf("Uint64 = %d", v)
	}
	if v, _ := d.Int64(); v != -12 {
		t.Fatalf("Int64 = %d", v)
	}
	if v, _ := d.Float64(); v != 2.5 {
		t.Fatalf("Float64 = %v", v)
	}
	if v, _ := d.Bool(); !v {
		t.Fatal("Bool = false")
	}
	if v, _ := d.String(); v != "abc" {
		t.Fatalf("String = %q", v)
	}
	b, _ := d.BytesCopy()
	if len(b) != 1 || b[0] != 9 {
		t.Fatalf("BytesCopy = %v", b)
	}
	if d.Remaining() != 0 {
		t.Fatalf("Remaining = %d", d.Remaining())
	}
	if _, err := d.Uint8(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("read past end: %v", err)
	}
}

func TestBytesCopyIsIndependent(t *testing.T) {
	e := NewEncoder(0)
	e.PutBytes([]byte{1, 2, 3})
	stream := e.Bytes()
	d := NewDecoder(stream)
	b, err := d.BytesCopy()
	if err != nil {
		t.Fatal(err)
	}
	stream[4] = 0xAA // corrupt the backing array after decoding
	if b[0] != 1 {
		t.Fatal("BytesCopy aliases the stream")
	}
}

// TestValueViewAliasesValueCopies: the two value decoders differ only in
// where their bytes live, at any depth of a list or map — ValueView's are
// windows onto the stream, clipped to their length, and Value's are copies.
func TestValueViewAliasesValueCopies(t *testing.T) {
	blob := []byte("payload")
	stream := EncodeValue(List(Bytes(blob), Map(map[string]Value{"k": List(Bytes(blob))})))
	var got [][]byte
	var collect func(v Value)
	collect = func(v Value) {
		switch v.Kind {
		case KindBytes:
			got = append(got, v.Byt)
		case KindList:
			for _, item := range v.List {
				collect(item)
			}
		case KindMap:
			for _, item := range v.Map {
				collect(item)
			}
		}
	}
	for _, view := range []bool{true, false} {
		d := NewDecoder(stream)
		decode := d.Value
		if view {
			decode = d.ValueView
		}
		v, err := decode()
		if err != nil || d.Remaining() != 0 {
			t.Fatalf("view %v: %v, %d bytes left", view, err, d.Remaining())
		}
		got = got[:0]
		collect(v)
		if len(got) != 2 {
			t.Fatalf("view %v: %d byte values decoded, want 2", view, len(got))
		}
		for _, b := range got {
			if string(b) != string(blob) {
				t.Fatalf("view %v: decoded %q", view, b)
			}
			if alloctest.Inside(stream, b) != view {
				t.Fatalf("view %v: bytes inside the stream: %v", view, !view)
			}
			if view && cap(b) != len(b) {
				t.Fatalf("a view's capacity %d runs past its length %d", cap(b), len(b))
			}
		}
	}
}

func TestEncoderReset(t *testing.T) {
	e := NewEncoder(4)
	e.PutUint64(1)
	if e.Len() != 8 {
		t.Fatalf("Len = %d", e.Len())
	}
	e.Reset()
	if e.Len() != 0 {
		t.Fatalf("Len after reset = %d", e.Len())
	}
}

// genValue builds a random value of bounded depth for property testing.
func genValue(r *rand.Rand, depth int) Value {
	max := int(KindMap)
	if depth <= 0 {
		max = int(KindBytes) // leaf kinds only
	}
	switch Kind(1 + r.Intn(max)) {
	case KindNull:
		return Null()
	case KindBool:
		return Bool(r.Intn(2) == 0)
	case KindInt64:
		return Int(int64(r.Uint64()))
	case KindUint64:
		return Uint(r.Uint64())
	case KindFloat64:
		return Float(r.NormFloat64())
	case KindString:
		b := make([]byte, r.Intn(20))
		r.Read(b)
		return String(string(b))
	case KindBytes:
		b := make([]byte, r.Intn(20))
		r.Read(b)
		return Bytes(b)
	case KindList:
		n := r.Intn(4)
		items := make([]Value, n)
		for i := range items {
			items[i] = genValue(r, depth-1)
		}
		return List(items...)
	default: // KindMap
		n := r.Intn(4)
		m := make(map[string]Value, n)
		for i := 0; i < n; i++ {
			m[string(rune('a'+r.Intn(26)))] = genValue(r, depth-1)
		}
		return Map(m)
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 500,
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(genValue(r, 3))
		},
	}
	f := func(v Value) bool {
		got, err := DecodeValue(EncodeValue(v))
		return err == nil && Equal(v, got)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyEncodingDeterministic(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(genValue(r, 3))
		},
	}
	f := func(v Value) bool {
		return reflect.DeepEqual(EncodeValue(v), EncodeValue(v))
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestKindString(t *testing.T) {
	for k := KindNull; k <= KindMap; k++ {
		if s := k.String(); s == "" || s[0] == 'k' && s != "kind(0)" {
			t.Fatalf("Kind(%d).String() = %q", k, s)
		}
	}
	if got := Kind(42).String(); got != "kind(42)" {
		t.Fatalf("unknown kind = %q", got)
	}
}
