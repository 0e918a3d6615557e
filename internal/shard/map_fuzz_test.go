package shard

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"versadep/internal/alloctest"
)

// mapAllocFactor and mapAllocSlack bound what DecodeMap may allocate for
// any input: mapAllocFactor bytes per input byte plus mapAllocSlack. The
// densest encoding is a group of empty-named members — four bytes on the
// wire, a 16-byte string header decoded — and growing a slice by append at
// most about doubles it.
const (
	mapAllocFactor = 16
	mapAllocSlack  = 4 << 10
)

// withVnodes returns m's encoding with the vnode count overwritten, the
// way a hostile prepare argument would carry it.
func withVnodes(m *Map, vnodes uint32) []byte {
	b := m.Encode()
	binary.BigEndian.PutUint32(b[8:12], vnodes)
	return b
}

// TestDecodeMapRejectsHostileMaps checks DecodeMap's bounds: a vnode count
// past MaxVnodes, a shard count past MaxShards and a shard ID listed twice
// are errors, and a map at the limits still decodes.
func TestDecodeMapRejectsHostileMaps(t *testing.T) {
	two := NewMap(DefaultVnodes, Group{ID: 0, Members: []string{"a"}}, Group{ID: 1, Members: []string{"b"}})
	if _, err := DecodeMap(withVnodes(two, 1<<32-1)); err == nil {
		t.Fatal("a map claiming 2^32-1 vnodes decoded")
	}
	if _, err := DecodeMap(withVnodes(two, MaxVnodes+1)); err == nil {
		t.Fatalf("a map of %d vnodes decoded", MaxVnodes+1)
	}
	if m, err := DecodeMap(withVnodes(two, MaxVnodes)); err != nil || m.Vnodes != MaxVnodes {
		t.Fatalf("a map of MaxVnodes vnodes: %v", err)
	}

	dup := &Map{Epoch: 3, Vnodes: 8, Shards: []Group{{ID: 5, Members: []string{"a"}}, {ID: 5, Members: []string{"b"}}}}
	if _, err := DecodeMap(dup.Encode()); err == nil {
		t.Fatal("a map listing shard 5 twice decoded")
	}

	many := &Map{Epoch: 1}
	for id := 0; id <= MaxShards; id++ {
		many.Shards = append(many.Shards, Group{ID: id})
	}
	if _, err := DecodeMap(many.Encode()); err == nil {
		t.Fatalf("a map of %d shards decoded", len(many.Shards))
	}
	many.Shards = many.Shards[:MaxShards]
	if _, err := DecodeMap(many.Encode()); err != nil {
		t.Fatalf("a map of MaxShards shards: %v", err)
	}
}

// FuzzShardMapDecode drives DecodeMap with arbitrary bytes, seeded from
// encoded maps and hostile variants of them. It must never panic; no
// input may allocate more than mapAllocFactor times its length (plus
// mapAllocSlack); an accepted map stays within MaxVnodes and MaxShards
// with strictly ascending shard IDs; and it re-encodes to bytes that
// decode to the same map and re-encode identically, so a map that
// travels as an invocation argument means one thing at every replica.
func FuzzShardMapDecode(f *testing.F) {
	golden := []*Map{
		NewMap(DefaultVnodes, Group{ID: 1, Members: []string{"s1-a", "s1-b"}}, Group{ID: 0, Members: []string{"s0-a"}}),
		NewMap(0),
		NewMap(MaxVnodes, Group{ID: 7}).WithShard(Group{ID: 2, Members: []string{""}}),
	}
	for _, m := range golden {
		f.Add(m.Encode())
	}
	f.Add(withVnodes(golden[0], 1<<32-1))
	f.Add((&Map{Vnodes: 4, Shards: []Group{{ID: 3}, {ID: 3}}}).Encode())

	f.Fuzz(func(t *testing.T, in []byte) {
		var m *Map
		var err error
		used := alloctest.BytesPerRun(1, func() { m, err = DecodeMap(in) })
		if limit := float64(mapAllocFactor*len(in) + mapAllocSlack); used > limit {
			t.Fatalf("decoding %d B allocated %.0f B, limit %.0f", len(in), used, limit)
		}
		if err != nil {
			return
		}
		if m.Vnodes > MaxVnodes || len(m.Shards) > MaxShards {
			t.Fatalf("accepted %d vnodes over %d shards", m.Vnodes, len(m.Shards))
		}
		for i := 1; i < len(m.Shards); i++ {
			if m.Shards[i].ID <= m.Shards[i-1].ID {
				t.Fatalf("shard IDs not strictly ascending: %d then %d", m.Shards[i-1].ID, m.Shards[i].ID)
			}
		}
		canon := m.Encode()
		again, err := DecodeMap(canon)
		if err != nil {
			t.Fatalf("re-encoded map does not decode: %v", err)
		}
		if again.Epoch != m.Epoch || again.Vnodes != m.Vnodes || !reflect.DeepEqual(again.Shards, m.Shards) {
			t.Fatalf("re-encoded map decodes differently:\n in: %+v\nout: %+v", m.Shards, again.Shards)
		}
		if !bytes.Equal(again.Encode(), canon) {
			t.Fatal("canonical encoding is not a fixed point")
		}
	})
}
