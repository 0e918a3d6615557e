package replication

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestMsgRoundTripRequest(t *testing.T) {
	m := &Msg{Kind: KindRequest, Viop: []byte("viop-bytes")}
	got, err := Decode(Encode(m))
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != KindRequest || string(got.Viop) != "viop-bytes" {
		t.Fatalf("got %+v", got)
	}
}

func TestMsgRoundTripCheckpoint(t *testing.T) {
	m := &Msg{
		Kind:       KindCheckpoint,
		Cache:      []CacheEntry{{Client: "c1", ReqID: 9, Reply: []byte("r")}},
		CoveredSeq: 41,
		CkptSerial: 7,
		SwitchID:   3,
		Final:      true,
	}
	got, err := Decode(Encode(m))
	if err != nil {
		t.Fatal(err)
	}
	if got.CoveredSeq != 41 || got.CkptSerial != 7 || !got.Final || got.SwitchID != 3 {
		t.Fatalf("header fields lost: %+v", got)
	}
	if len(got.Cache) != 1 || got.Cache[0].Client != "c1" ||
		got.Cache[0].ReqID != 9 || string(got.Cache[0].Reply) != "r" {
		t.Fatalf("cache lost: %+v", got.Cache)
	}
}

func TestMsgRoundTripState(t *testing.T) {
	state := make([]byte, 4096)
	state[0], state[4095] = 0xAB, 0xCD
	m := &Msg{Kind: KindState, State: state, CoveredSeq: 12, CkptSerial: 2}
	got, err := Decode(Encode(m))
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != KindState || len(got.State) != 4096 ||
		got.State[0] != 0xAB || got.State[4095] != 0xCD {
		t.Fatalf("state lost: kind=%v len=%d", got.Kind, len(got.State))
	}
}

func TestMsgRoundTripSwitch(t *testing.T) {
	m := &Msg{Kind: KindSwitch, Style: Active}
	got, err := Decode(Encode(m))
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != KindSwitch || got.Style != Active {
		t.Fatalf("got %+v", got)
	}
}

func TestMsgDecodeTruncated(t *testing.T) {
	full := Encode(&Msg{
		Kind:  KindCheckpoint,
		State: []byte("state"),
		Cache: []CacheEntry{{Client: "c", ReqID: 1, Reply: []byte("x")}},
	})
	for i := 0; i < len(full); i++ {
		if _, err := Decode(full[:i]); err == nil {
			t.Fatalf("decoding %d/%d bytes succeeded", i, len(full))
		}
	}
}

func TestWrapRequest(t *testing.T) {
	got, err := Decode(WrapRequest([]byte("req")))
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != KindRequest || string(got.Viop) != "req" {
		t.Fatalf("got %+v", got)
	}
}

func TestMsgPropertyRoundTrip(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 300,
		Values: func(args []reflect.Value, r *rand.Rand) {
			m := &Msg{
				Kind:       MsgKind(1 + r.Intn(5)),
				CoveredSeq: r.Uint64(),
				CkptSerial: r.Uint64(),
				SwitchID:   r.Uint64(),
				Final:      r.Intn(2) == 0,
				Style:      Style(1 + r.Intn(3)),
			}
			if r.Intn(2) == 0 {
				m.Viop = make([]byte, r.Intn(64))
				r.Read(m.Viop)
			}
			if r.Intn(2) == 0 {
				m.State = make([]byte, r.Intn(256))
				r.Read(m.State)
			}
			for i := 0; i < r.Intn(3); i++ {
				m.Cache = append(m.Cache, CacheEntry{
					Client: string(rune('a' + r.Intn(26))),
					ReqID:  r.Uint64(),
					Reply:  []byte{byte(r.Intn(256))},
				})
			}
			args[0] = reflect.ValueOf(m)
		},
	}
	f := func(m *Msg) bool {
		got, err := Decode(Encode(m))
		if err != nil {
			return false
		}
		if got.Kind != m.Kind || got.CoveredSeq != m.CoveredSeq ||
			got.CkptSerial != m.CkptSerial || got.Final != m.Final ||
			got.Style != m.Style || got.SwitchID != m.SwitchID {
			return false
		}
		if len(got.Viop) != len(m.Viop) || len(got.State) != len(m.State) ||
			len(got.Cache) != len(m.Cache) {
			return false
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestStyleStringsAndParse(t *testing.T) {
	cases := []struct {
		style Style
		str   string
		short string
	}{
		{Active, "active", "A"},
		{WarmPassive, "warm-passive", "P"},
		{ColdPassive, "cold-passive", "P"},
	}
	for _, c := range cases {
		if c.style.String() != c.str {
			t.Errorf("String(%v) = %q", c.style, c.style.String())
		}
		if c.style.Short() != c.short {
			t.Errorf("Short(%v) = %q", c.style, c.style.Short())
		}
		parsed, err := ParseStyle(c.str)
		if err != nil || parsed != c.style {
			t.Errorf("ParseStyle(%q) = %v, %v", c.str, parsed, err)
		}
	}
	// Short aliases.
	if s, err := ParseStyle("A"); err != nil || s != Active {
		t.Errorf("ParseStyle(A) = %v, %v", s, err)
	}
	if s, err := ParseStyle("P"); err != nil || s != WarmPassive {
		t.Errorf("ParseStyle(P) = %v, %v", s, err)
	}
	if s, err := ParseStyle("passive"); err != nil || s != WarmPassive {
		t.Errorf("ParseStyle(passive) = %v, %v", s, err)
	}
	if _, err := ParseStyle("quantum"); err == nil {
		t.Error("ParseStyle accepted garbage")
	}
	if Style(99).String() == "" || Style(99).Short() != "?" {
		t.Error("unknown style rendering broken")
	}
}

func TestStylePredicates(t *testing.T) {
	if Active.IsPassive() {
		t.Error("active marked passive")
	}
	if !WarmPassive.IsPassive() || !ColdPassive.IsPassive() {
		t.Error("passive styles not marked passive")
	}
	if RolePrimary.String() != "primary" || RoleBackup.String() != "backup" {
		t.Error("role strings broken")
	}
}
