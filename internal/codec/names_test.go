package codec

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

func encodeName(s string) []byte {
	e := NewEncoder(SizeString(s))
	e.PutString(s)
	return e.Bytes()
}

func decodeName(t *testing.T, names *Names, wire []byte) string {
	t.Helper()
	s, err := NewDecoder(wire).Name(names)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestNamesMaterialiseOnce: the same name decoded twice is the same string
// — one allocation for the life of the table, none for a name it holds —
// and a nil table is plain String.
func TestNamesMaterialiseOnce(t *testing.T) {
	var names Names
	wire := encodeName("replica-a")
	first := decodeName(t, &names, wire)
	second := decodeName(t, &names, append([]byte(nil), wire...))
	if first != "replica-a" || second != "replica-a" {
		t.Fatalf("decoded %q then %q", first, second)
	}
	if unsafe.StringData(first) != unsafe.StringData(second) {
		t.Fatal("the same name decoded twice is two strings")
	}
	if allocs := testing.AllocsPerRun(100, func() { decodeName(t, &names, wire) }); allocs != 0 {
		t.Fatalf("decoding a name the table holds: %v allocations, want 0", allocs)
	}
	a, b := decodeName(t, nil, wire), decodeName(t, nil, wire)
	if a != "replica-a" || unsafe.StringData(a) == unsafe.StringData(b) {
		t.Fatal("a nil table retained a name")
	}
	if got := decodeName(t, &names, encodeName("")); got != "" || len(names.m) != 1 {
		t.Fatalf("the empty name: %q, table holds %d", got, len(names.m))
	}
}

// TestNamesBounded: the table is fed by the wire, so it has a bound and a
// behaviour there. Ten thousand distinct names never take it past
// MaxNames; a name over MaxNameLen bytes and a name offered to a full table
// come back correct and are not kept.
func TestNamesBounded(t *testing.T) {
	var names Names
	long := strings.Repeat("x", MaxNameLen+1)
	for round := 0; round < 2; round++ {
		if got := decodeName(t, &names, encodeName(long)); got != long {
			t.Fatalf("a %d-byte name came back as %q", len(long), got)
		}
	}
	if len(names.m) != 0 {
		t.Fatalf("a name over %d bytes was retained", MaxNameLen)
	}
	atBound := strings.Repeat("y", MaxNameLen)
	if a, b := names.Intern([]byte(atBound)), names.Intern([]byte(atBound)); unsafe.StringData(a) != unsafe.StringData(b) {
		t.Fatalf("a name of exactly %d bytes was not retained", MaxNameLen)
	}

	for i := 0; i < 10000; i++ {
		want := fmt.Sprintf("client-%d", i)
		if got := decodeName(t, &names, encodeName(want)); got != want {
			t.Fatalf("name %d came back as %q", i, got)
		}
		if len(names.m) > MaxNames {
			t.Fatalf("the table holds %d names after %d distinct ones, bound %d", len(names.m), i+1, MaxNames)
		}
	}
	if len(names.m) != MaxNames {
		t.Fatalf("the table holds %d names, want it full at %d", len(names.m), MaxNames)
	}
	// Full: an early name is still answered from the table, a new one is
	// a fresh copy each time.
	early := []byte("client-3")
	if a, b := names.Intern(early), names.Intern(early); unsafe.StringData(a) != unsafe.StringData(b) {
		t.Fatal("a full table forgot a name it held")
	}
	late := []byte("client-9999")
	a, b := names.Intern(late), names.Intern(late)
	if a != "client-9999" || b != a || unsafe.StringData(a) == unsafe.StringData(b) {
		t.Fatal("a full table retained a new name")
	}
}

// TestNamesNeverAliasTheWire: a receive buffer is recycled, retained and
// resent by others; a name must not be a window onto it. The buffer is
// scribbled on while the names decoded from it are read on another
// goroutine — run with -race.
func TestNamesNeverAliasTheWire(t *testing.T) {
	var names Names
	long := strings.Repeat("z", MaxNameLen+1)
	want := []string{"replica-a", long, "replica-a", "c1"}
	var got []string
	for _, name := range want {
		wire := encodeName(name)
		s := decodeName(t, &names, wire)
		if len(name) > 0 && unsafe.StringData(s) == &wire[4] {
			t.Fatalf("%q aliases its wire buffer", name)
		}
		got = append(got, s)

		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, g := range got {
				_ = strings.Count(g, "a")
			}
		}()
		for i := range wire {
			wire[i] = '#'
		}
		wg.Wait()
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("name %d reads %q after its buffer was overwritten, want %q", i, got[i], want[i])
		}
	}
}
